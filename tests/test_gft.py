import time
import tracemalloc
from math import comb

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import reference_index
from ctxlab.errors import CapExceeded, DomainError, InputError
from ctxlab.fincat import check_cone, check_diagram
from ctxlab.gft import (
    FOCK_CAP,
    WEYL_MATVEC_CAP,
    PolyhedronSpace,
    TruncatedFock,
    _coerce_fn,
    _sector_columns,
    _weyl_action,
    ccr_defect,
    copy_padding,
    field_operator,
    fock_for,
    inner_product,
    is_gft_context,
    second_quantization_cone,
    weighted_inner,
    weyl_relation_defect,
)
from ctxlab.linalg import dagger, opnorm

SPACE = PolyhedronSpace(2, 2)


def unit_fn(k, size):
    """The test function (or Fock vector) that is 1 at index k, 0 elsewhere."""
    f = np.zeros(size, dtype=complex)
    f[k] = 1.0
    return f


def random_fn(rng, space=SPACE, norm=None):
    f = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    if norm is not None:
        f *= norm / np.sqrt(abs(inner_product(f, f, space)))
    return f


def dense_field(f, fock):
    """Dense smeared annihilator from the sqrt-occupation rule."""
    out = np.zeros((fock.dim, fock.dim), dtype=complex)
    w = np.sqrt(fock.mode_weight)
    index = reference_index(fock)
    for occ, col in index.items():
        for mode, n in enumerate(occ):
            if n:
                lowered = occ[:mode] + (n - 1,) + occ[mode + 1 :]
                out[index[lowered], col] += w * f[mode] * np.sqrt(n)
    return out


def dense_weyl(f, fock):
    psi = dense_field(f, fock)
    return expm(1j / np.sqrt(2.0) * (psi + psi.conj().T))


def weyl_commutator_defect(f, fp, fock, sector_cap):
    """Compressed norm of W(f) W(fp) - W(fp) W(f), on the sector's columns,
    by the package's Taylor action."""
    keep, cols = _sector_columns(fock, sector_cap)
    wg, wf = (_weyl_action(_coerce_fn(v, fock.modes), fock) for v in (fp, f))
    return opnorm((wf(wg(cols)) - wg(wf(cols)))[:keep])


def sector_mask(fock, max_total):
    return np.array([sum(occ) <= max_total for occ in reference_index(fock)])


def sector_norm(matrix, fock, max_total):
    mask = sector_mask(fock, max_total)
    return np.linalg.norm(matrix[np.ix_(mask, mask)], 2)


class TestModeSpace:
    def test_sizes(self):
        assert SPACE.size == 4
        assert SPACE.haar == 0.25
        assert PolyhedronSpace(3, 2).size == 9

    def test_constant_function_normalized(self):
        f = np.ones(SPACE.size)
        assert inner_product(f, f, SPACE) == 1.0

    def test_distinct_deltas_orthogonal(self):
        assert inner_product(unit_fn(0, SPACE.size), unit_fn(2, SPACE.size), SPACE) == 0.0

    def test_random_inner_product_matches_direct_sum(self, rng):
        f, g = random_fn(rng), random_fn(rng)
        direct = sum(f[k] * np.conj(g[k]) for k in range(SPACE.size))
        assert abs(inner_product(f, g, SPACE) - direct / SPACE.size) < 1e-12


class TestFockSpace:
    def test_dimension_formula(self):
        fock = fock_for(SPACE, 3)
        expected = sum(comb(SPACE.size + n - 1, n) for n in range(4))
        assert fock.dim == expected == 35

    def test_vacuum_annihilated_by_every_field(self, rng):
        fock = fock_for(SPACE, 2)
        for _ in range(5):
            psi = field_operator(random_fn(rng), fock)
            assert np.linalg.norm(psi @ unit_fn(0, fock.dim)) < 1e-12

    def test_delta_creator_makes_one_particle_state(self):
        fock = fock_for(SPACE, 2)
        mode = 2  # the group tuple (1, 0)
        psi = field_operator(unit_fn(mode, SPACE.size), fock)
        created = dagger(psi) @ unit_fn(0, fock.dim)
        occ = tuple(1 if m == mode else 0 for m in range(SPACE.size))
        expected_pos = reference_index(fock)[occ]
        assert abs(np.linalg.norm(created) ** 2 - SPACE.haar) < 1e-12
        nonzero = np.nonzero(np.abs(created) > 1e-12)[0]
        assert list(nonzero) == [expected_pos]

    def test_two_particle_matrix_elements_match_ladder_oracle(self, rng):
        fock = fock_for(SPACE, 2)
        f = random_fn(rng)
        psi = field_operator(f, fock)
        w = np.sqrt(SPACE.haar)
        index = reference_index(fock)
        for occ, col in index.items():
            for mode in range(SPACE.size):
                if occ[mode] == 0:
                    continue
                lowered = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1 :]
                row = index[lowered]
                # sqrt-occupation rule, weighted by the measure and the smearing
                assert abs(psi[row, col] - w * f[mode] * np.sqrt(occ[mode])) < 1e-12

    @pytest.mark.parametrize("m, n, n_max", [(2, 2, 1), (2, 2, 3), (3, 2, 2), (2, 3, 3)])
    def test_field_equals_the_sum_of_weighted_ladders(self, rng, m, n, n_max):
        space = PolyhedronSpace(m, n)
        fock = fock_for(space, n_max)
        f = random_fn(rng, space)
        f[1] = 0.0  # a mode left out of the field
        summed = sum(f[mode] * dense_field(unit_fn(mode, space.size), fock) for mode in range(fock.modes))
        assert np.abs(field_operator(f, fock).toarray() - summed).max() < 1e-14
        assert field_operator(np.zeros(space.size), fock).nnz == 0

    def test_dimension_over_the_cap_is_refused_before_enumeration(self):
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as refused:
            TruncatedFock(modes=256, n_max=5)
        assert time.perf_counter() - start < 0.1
        assert (refused.value.size, refused.value.cap) == (comb(261, 5), FOCK_CAP)
        assert TruncatedFock(modes=16, n_max=4).dim == comb(20, 4) <= FOCK_CAP < comb(21, 5)
        with pytest.raises(CapExceeded):
            TruncatedFock(modes=16, n_max=5)

    @pytest.mark.parametrize("modes, n_max, size, shown", [
        (2, 10**300, 10**300 + 1, "at least 2**996"),
        (10**150, 300, comb(10**150 + 2, 2), "at least 2**995"),
        (2**60, 1, 2**60 + 1, "1152921504606846977"),
    ], ids=["huge-cutoff", "huge-mode-count", "shown-in-full"])
    def test_a_dimension_too_long_to_show_is_refused_by_a_bound(self, modes, n_max, size, shown):
        """Past 200 digits the refusal carries a number between 10**200 and
        the dimension, reached in a few steps, and shows the power of two
        below it."""
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as refused:
            TruncatedFock(modes=modes, n_max=n_max)
        assert time.perf_counter() - start < 0.1
        assert refused.value.size == size
        assert str(refused.value) == f"Fock dimension (size {shown} exceeds cap {FOCK_CAP})"

    def test_a_size_cap_never_shows_an_unbounded_integer(self):
        refused = CapExceeded("product carrier", 10**5000, 10**6)
        assert str(refused) == "product carrier (size at least 2**16609 exceeds cap 1000000)"
        assert refused.size == 10**5000
        assert str(CapExceeded("sign search", 10**199, 4)).endswith(f"(size {10**199} exceeds cap 4)")

    @pytest.mark.parametrize("m, n, n_max", [(2, 2, 3), (3, 2, 2), (2, 3, 1)])
    def test_sectors_are_prefixes_of_the_states(self, m, n, n_max):
        fock = fock_for(PolyhedronSpace(m, n), n_max)
        for total in range(n_max + 1):
            assert np.array_equal(sector_mask(fock, total), np.arange(fock.dim) < fock.sector_size(total))

    def test_many_modes_build_in_small_memory(self):
        """3,136 modes at cutoff 1: one occupation tuple per state would
        hold 3,137 x 3,136 counts, so the table must keep none."""
        import tracemalloc

        tracemalloc.start()
        try:
            fock = fock_for(PolyhedronSpace(56, 2), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fock.dim == 3137
        assert peak < 20 * 10**6

    def test_cutoff_zero_lists_only_the_vacuum_in_small_memory(self):
        """Dimension 1 whatever the mode count: listing the vacuum must not
        copy the mode range."""
        tracemalloc.start()
        try:
            fock = TruncatedFock(modes=2**20, n_max=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        indptr, *entries = fock.ladders
        assert fock.dim == 1 and indptr.tolist() == [0, 0] and all(len(part) == 0 for part in entries)
        assert peak < 2**20

    def test_vacuum_is_the_whole_annihilator_kernel(self):
        fock = fock_for(SPACE, 2)
        stack = np.vstack([dense_field(unit_fn(m, fock.modes), fock) for m in range(fock.modes)])
        _, s, vh = np.linalg.svd(stack)
        kernel_dim = sum(1 for x in s if x < 1e-12) + (vh.shape[0] - len(s))
        assert kernel_dim == 1
        kernel_vec = vh[-1]
        overlap = abs(np.vdot(kernel_vec, unit_fn(0, fock.dim)))
        assert abs(overlap - 1.0) < 1e-12


class TestCCR:
    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_guarded_defect_vanishes(self, rng, n_max):
        fock = fock_for(SPACE, n_max)
        for _ in range(5):
            assert ccr_defect(random_fn(rng), random_fn(rng), fock) < 1e-10

    def test_top_sector_feels_the_cutoff(self, rng):
        fock = fock_for(SPACE, 2)
        f = random_fn(rng)
        assert ccr_defect(f, f, fock, guard=0) > 1e-3

    def test_orthogonal_smearings_still_exact(self):
        fock = fock_for(SPACE, 2)
        assert ccr_defect(unit_fn(0, SPACE.size), unit_fn(3, SPACE.size), fock) < 1e-12

    @pytest.mark.parametrize("m, n, n_max", [(2, 2, 1), (2, 2, 4), (2, 2, 5), (3, 2, 2), (2, 3, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_defect_matches_dense_reference(self, m, n, n_max, seed):
        space = PolyhedronSpace(m, n)
        fock = fock_for(space, n_max)
        rng = np.random.default_rng(seed)
        f, g = random_fn(rng, space), random_fn(rng, space)
        a, b = dense_field(f, fock), dense_field(g, fock)
        comm = a @ b.conj().T - b.conj().T @ a - weighted_inner(f, g, space.haar) * np.eye(fock.dim)
        for guard in (0, 1):
            dense = sector_norm(comm, fock, n_max - guard)
            assert abs(ccr_defect(f, g, fock, guard=guard) - dense) < 1e-13
        assert ccr_defect(f, g, fock, guard=0) > 1e-3

    @pytest.mark.parametrize("guard", [-1, 3])
    def test_guard_outside_the_cutoff_is_refused(self, guard):
        with pytest.raises(InputError, match="guard"):
            ccr_defect(np.ones(4), np.ones(4), fock_for(SPACE, 2), guard=guard)

    def test_no_guarded_sector_rejected(self):
        fock = fock_for(SPACE, 0)
        with pytest.raises(DomainError):
            ccr_defect(np.ones(4), np.ones(4), fock)


class TestWeyl:
    """The Taylor action ``_weyl_action`` on identity or vacuum columns,
    against the Weyl relations and the dense ``expm`` oracle."""

    def test_zero_function_gives_identity(self):
        fock = fock_for(SPACE, 2)
        eye = np.eye(fock.dim, dtype=complex)
        assert np.array_equal(_weyl_action(np.zeros(SPACE.size, dtype=complex), fock)(eye), eye)

    def test_unitarity(self, rng):
        fock = fock_for(SPACE, 3)
        for _ in range(3):
            f = random_fn(rng)
            w = _weyl_action(f, fock)(np.eye(fock.dim, dtype=complex))
            assert opnorm(w @ dagger(w) - np.eye(fock.dim)) < 1e-10
            assert np.abs(w - dense_weyl(f, fock)).max() < 1e-12

    def test_vacuum_expectation_converges_to_gaussian(self, rng):
        # single-mode displacement oracle: <0|W(f)|0> -> exp(-(f,f)/4)
        f = random_fn(rng, norm=0.7)
        target = np.exp(-abs(inner_product(f, f, SPACE)) / 4.0)
        errors = []
        for n_max in (2, 4, 6):
            fock = fock_for(SPACE, n_max)
            vac = unit_fn(0, fock.dim)
            errors.append(abs(np.vdot(vac, _weyl_action(f, fock)(vac[:, None])[:, 0]) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-8

    def test_relation_defect_zero_for_zero_partner(self, rng):
        fock = fock_for(SPACE, 3)
        f = random_fn(rng)
        assert weyl_relation_defect(f, np.zeros(SPACE.size), fock, 1) < 1e-12

    def test_real_pair_has_unit_phase(self, rng):
        fock = fock_for(SPACE, 3)
        f = np.abs(random_fn(rng)).astype(complex)
        g = np.abs(random_fn(rng)).astype(complex)
        wf, wg, wsum = dense_weyl(f, fock), dense_weyl(g, fock), dense_weyl(f + g, fock)
        mask = sector_mask(fock, 1)
        bare = opnorm((wf @ wg - wsum)[np.ix_(mask, mask)])
        assert abs(weyl_relation_defect(f, g, fock, 1) - bare) < 1e-12

    def test_relation_defect_decreases_with_cutoff(self, rng):
        f = random_fn(rng, norm=0.5)
        g = random_fn(rng, norm=0.4)
        defects = [
            weyl_relation_defect(f, g, fock_for(SPACE, n_max), 1) for n_max in (2, 3, 4, 5)
        ]
        assert all(a > b for a, b in zip(defects, defects[1:]))

    @pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("norm", [0.4, 1.0, 2.0])
    def test_column_defects_match_dense_expm(self, n_max, norm):
        fock = fock_for(SPACE, n_max)
        rng = np.random.default_rng(10 * n_max + int(10 * norm))
        f, g = random_fn(rng, norm=norm), random_fn(rng, norm=norm)
        assert abs(inner_product(f, g, SPACE).imag) > 1e-3  # a complex pair
        wf, wg, wsum = dense_weyl(f, fock), dense_weyl(g, fock), dense_weyl(f + g, fock)
        phase = np.exp(-0.5j * inner_product(f, g, SPACE).imag)
        for cap in sorted({0, 1, n_max - 1}):
            relation = sector_norm(wf @ wg - phase * wsum, fock, cap)
            commutator = sector_norm(wf @ wg - wg @ wf, fock, cap)
            assert abs(weyl_relation_defect(f, g, fock, cap) - relation) < 1e-12
            assert abs(weyl_commutator_defect(f, g, fock, cap) - commutator) < 1e-12

    @pytest.mark.parametrize("scale", [-1.0, 0.5, 2.0])
    def test_weyl_elements_of_one_real_line_commute(self, rng, scale):
        """W(f) and W(cf), c real, are Taylor polynomials in one generator,
        so they commute to rounding on every sector."""
        fock = fock_for(SPACE, 3)
        f = random_fn(rng)
        for cap in (0, 1, 2):
            assert weyl_commutator_defect(f, scale * f, fock, cap) < 1e-12

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_commutator_defect_is_symmetric_in_its_pair(self, rng, cap):
        """Swapping the pair negates the commutator and keeps its norm."""
        fock = fock_for(SPACE, 3)
        f, g = random_fn(rng), random_fn(rng)
        forward = weyl_commutator_defect(f, g, fock, cap)
        assert forward > 1e-3
        assert abs(forward - weyl_commutator_defect(g, f, fock, cap)) <= 1e-12 * forward

    @pytest.mark.parametrize("norm, size", [(1e4, int), (1e300, int), (1e308, str)])
    def test_taylor_work_over_the_cap_is_refused_before_any_matvec(self, rng, norm, size):
        """The Taylor steps grow with ||G||_1, so with the norm, and at 1e308
        ||G||_1 overflows to infinity.  The action is refused as it is
        formed, before it is given any columns."""
        f = random_fn(rng, norm=norm)
        with pytest.raises(CapExceeded) as refused:
            _weyl_action(f, fock_for(SPACE, 4))
        assert refused.value.cap == WEYL_MATVEC_CAP
        assert isinstance(refused.value.size, size)
        assert size is str or refused.value.size > WEYL_MATVEC_CAP

    def test_sector_cap_must_sit_below_cutoff(self, rng):
        fock = fock_for(SPACE, 2)
        with pytest.raises(DomainError):
            weyl_relation_defect(random_fn(rng), random_fn(rng), fock, 2)
        with pytest.raises(InputError, match="sector cap must be nonnegative, got -1"):
            weyl_relation_defect(random_fn(rng), random_fn(rng), fock, -1)


class TestContexts:
    def test_real_functions_form_context(self):
        fs = [np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])]
        assert is_gft_context(fs, SPACE)

    def test_phase_rotation_breaks_context(self, rng):
        f = random_fn(rng)
        assert not is_gft_context([f, 1j * f], SPACE)

    def test_singleton_context(self, rng):
        assert is_gft_context([random_fn(rng)], SPACE)

    def test_context_weyl_elements_commute_within_relation_bound(self, rng):
        fock = fock_for(SPACE, 4)
        f = np.abs(random_fn(rng)).astype(complex) * 0.5
        g = np.abs(random_fn(rng)).astype(complex) * 0.5
        assert is_gft_context([f, g], SPACE)
        comm = weyl_commutator_defect(f, g, fock, 1)
        bound = weyl_relation_defect(f, g, fock, 1) + weyl_relation_defect(g, f, fock, 1)
        assert comm <= bound + 1e-12


class TestSecondQuantizationCone:
    def test_equal_copy_counts_degenerate(self):
        built = second_quantization_cone(1, 1, [np.ones(4)], SPACE)
        assert built.report.ok

    def test_one_into_two_copies(self):
        fns = [np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])]
        built = second_quantization_cone(1, 2, fns, SPACE)
        assert built.report.ok
        assert check_diagram(built.diagram).ok
        assert check_cone(built.cone, built.diagram).ok

    def test_a_function_listed_twice_is_one_carrier_element(self):
        """A carrier is a set, so a repeated test function is listed once in
        it, while the apex keeps both copies."""
        built = second_quantization_cone(1, 2, [np.ones(4), np.ones(4)], SPACE)
        assert built.report.ok and len(built.cone.apex) == 2
        assert len(built.diagram.carriers["Sk"]) == 1

    def test_sign_flipped_padding_fails(self):
        built = second_quantization_cone(1, 2, [np.ones(4)], SPACE, corrupt=True)
        assert not built.report.ok
        assert any(v.kind == "cone.triangle" for v in built.report.violations)

    def test_reversed_copy_counts_rejected(self):
        with pytest.raises(InputError):
            second_quantization_cone(2, 1, [np.ones(4)], SPACE)

    def test_non_context_rejected(self, rng):
        f = random_fn(rng)
        with pytest.raises(DomainError):
            second_quantization_cone(1, 2, [f, 1j * f], SPACE)

    def test_large_mode_space_pads_without_a_dense_identity(self):
        """2048 modes on two copies: a 4096 x 4096 identity alone takes 128 MB."""
        space = PolyhedronSpace(2, 11)
        tracemalloc.start()
        try:
            built = second_quantization_cone(1, 2, [np.ones(space.size)], space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.report.ok
        assert peak < 32 * 2**20

    def test_padding_preserves_weighted_inner_product(self, rng):
        f, g = random_fn(rng), random_fn(rng)
        fk = copy_padding(f, 1, 2, SPACE)
        gk = copy_padding(g, 1, 2, SPACE)
        assert (
            abs(
                weighted_inner(fk, gk, SPACE.haar)
                - inner_product(f, g, SPACE)
            )
            < 1e-12
        )


def test_weyl_sweep_ignores_and_keeps_the_global_random_state(capsys):
    """The Weyl action draws no random numbers.  When it ran through scipy's
    ``expm_multiply``, whose norm estimates draw from numpy's global
    generator, these 16 states gave two reports unless the state was fixed
    (the cutoff-6 defect differed in its last digits)."""
    from ctxlab.cli import main

    argv = ["--seed", "612233", "gft-weyl", "--m", "2", "--n", "2", "--sweep", "2,4,6,8,10", "--norm", "2.0"]
    reports = set()
    for state in range(16):
        np.random.seed(state)
        before = np.random.get_state()
        assert main(argv) == 0
        reports.add(capsys.readouterr().out)
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
    assert len(reports) == 1
