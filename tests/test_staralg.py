import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, SX, SY, SZ, counted_splits, kron, random_unitary, unsplit_seed, validate_algebra
from ctxlab import staralg
from ctxlab.errors import DomainError, InputError
from ctxlab.fincat import check_category, poset_category
from ctxlab.locnet import Region, pauli_string, site_operator, spectrum_multiplicativity, standard_net
from ctxlab.presheaf import _unit_rays, bundled_fixture, load_ray_fixture, ray_family_context_category
from ctxlab.linalg import orthonormalize_span, span_leq, spectral_tol
from ctxlab.staralg import (
    MatrixStarAlgebra,
    algebra_span_leq,
    context_algebra,
    context_category,
    context_category_from_groups,
    full_matrix_algebra,
    gelfand_spectrum,
    generate_algebra,
    is_commutative,
)


class TestGenerateAlgebra:
    def test_empty_generators_give_unital_span(self):
        alg = generate_algebra([], 2)
        assert alg.dimension == 1
        assert alg.contains(np.eye(2))

    def test_single_diagonal_generator(self):
        alg = generate_algebra([SZ], 2)
        assert alg.dimension == 2

    def test_x_and_z_generate_everything(self):
        # closure must reach the full matrix algebra, whose dimension is d*d
        alg = generate_algebra([SX, SZ], 2)
        assert alg.dimension == 4

    def test_closure_invariants_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(4):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            alg = generate_algebra([(z + z.conj().T) / 2], 3)
            assert validate_algebra(alg).ok

    @pytest.mark.parametrize("scale, tol", [(1e4, 1e-3), (1e12, 1e-9), (1e-12, 1e-9)])
    def test_a_generator_far_smaller_than_another_is_kept(self, scale, tol):
        """The rank test is relative to the largest singular value, so the
        generators are scaled to unit norm before it."""
        assert generate_algebra([scale * SX, SZ], 2, tol).dimension == 4
        assert generate_algebra([SX, scale * SZ], 2, tol).dimension == 4

    def test_non_square_generator_rejected(self):
        from ctxlab.errors import InputError

        with pytest.raises(InputError):
            generate_algebra([np.ones((2, 3))], 2)


class TestValidate:
    """Each closure defect is reported by kind, naming the basis elements."""

    E00 = np.diag([1.0, 0.0]).astype(complex)
    E01 = np.array([[0, 1], [0, 0]], dtype=complex)

    def located(self, alg):
        return [(v.kind, v.message) for v in validate_algebra(alg).violations]

    def test_missing_unit(self):
        assert self.located(MatrixStarAlgebra(2, [self.E00])) == [("algebra.unit", "identity matrix not in span")]

    def test_adjoint_leaves_the_span(self):
        assert self.located(MatrixStarAlgebra(2, [I2, self.E01])) == [
            ("algebra.adjoint", "adjoint of basis element 1 leaves span")]

    def test_product_leaves_the_span(self):
        assert self.located(MatrixStarAlgebra(2, [I2, SX, SZ])) == [
            ("algebra.product", "product of basis elements (1,2) leaves span"),
            ("algebra.product", "product of basis elements (2,1) leaves span"),
        ]


    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_full_matrix_algebra_reports_nothing(self, d):
        assert self.located(full_matrix_algebra(d)) == []

    def test_every_defect_of_one_algebra_is_reported(self):
        assert self.located(MatrixStarAlgebra(2, [self.E01])) == [
            ("algebra.unit", "identity matrix not in span"),
            ("algebra.adjoint", "adjoint of basis element 0 leaves span"),
        ]

class TestCommutativity:
    def test_diagonal_commutes(self):
        assert is_commutative(generate_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)], 3))

    def test_full_m2_does_not(self):
        assert not is_commutative(full_matrix_algebra(2))

    def test_pairwise_x_string_algebra_commutes(self):
        gens = [kron(SX, I2), kron(I2, SX), kron(SX, SX)]
        for a, b in itertools.combinations(gens, 2):
            assert np.allclose(a @ b, b @ a)
        assert is_commutative(generate_algebra(gens, 4))


class TestGelfandSpectrum:
    def test_diagonal_d3_values_are_entries(self):
        alg = generate_algebra([np.diag([3.0, 1.0, 2.0]).astype(complex)], 3)
        chars = gelfand_spectrum(alg)
        assert len(chars) == 3
        values = sorted(chi.value_of(np.diag([3.0, 1.0, 2.0])).real for chi in chars)
        assert np.allclose(values, [1.0, 2.0, 3.0])

    def test_sigma_z_context(self):
        chars = gelfand_spectrum(generate_algebra([SZ], 2))
        assert sorted(round(chi.value_of(SZ).real) for chi in chars) == [-1, 1]

    def test_two_site_z_joint_eigenvalues(self):
        z1, z2 = kron(SZ, I2), kron(I2, SZ)
        chars = gelfand_spectrum(generate_algebra([z1, z2], 4))
        pairs = sorted((round(c.value_of(z1).real), round(c.value_of(z2).real)) for c in chars)
        assert pairs == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_count_equals_dimension_and_projections_resolve_identity(self, rng):
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            alg = generate_algebra([u @ np.diag(rng.standard_normal(d)).astype(complex) @ u.conj().T], d)
            chars = gelfand_spectrum(alg)
            assert len(chars) == alg.dimension
            assert np.allclose(sum(c.projection for c in chars), np.eye(d), atol=1e-9)

    def test_reconstruction_from_characters(self, rng):
        alg = generate_algebra([kron(SZ, I2), kron(I2, SZ)], 4)
        chars = gelfand_spectrum(alg)
        coeffs = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        a = sum(c * b for c, b in zip(coeffs, alg.basis))
        rebuilt = sum(chi.value_of(a) * chi.projection for chi in chars)
        assert np.linalg.norm(rebuilt - a) < 1e-9

    def test_characters_multiplicative(self, rng):
        alg = generate_algebra([np.diag([1.0, 4.0, 2.0, 2.0]).astype(complex)], 4)
        chars = gelfand_spectrum(alg)
        for _ in range(5):
            ca = rng.standard_normal(alg.dimension)
            cb = rng.standard_normal(alg.dimension)
            a = sum(c * b for c, b in zip(ca, alg.basis))
            b = sum(c * bb for c, bb in zip(cb, alg.basis))
            for chi in chars:
                assert abs(chi.value_of(a @ b) - chi.value_of(a) * chi.value_of(b)) < 1e-8
                assert abs(chi.value_of(np.eye(4)) - 1.0) < 1e-10

    def test_degenerate_rank2_projections(self):
        alg = generate_algebra([kron(SZ, I2)], 4)
        chars = gelfand_spectrum(alg)
        assert len(chars) == 2
        assert all(chi.rank == 2 for chi in chars)

    def test_noncommutative_rejected(self):
        with pytest.raises(DomainError):
            gelfand_spectrum(full_matrix_algebra(2))


class TestContextCategory:
    def test_single_seed(self):
        cc = context_category(full_matrix_algebra(2), [SZ])
        assert set(cc.ids()) == {"V0", "I"}
        assert cc.algebra("V0").dimension == 2
        assert cc.algebra("I").dimension == 1

    def test_incompatible_seeds_meet_only_trivially(self):
        cc = context_category(full_matrix_algebra(2), [SZ, SX])
        maximal = [cid for cid in cc.ids() if cc.algebra(cid).dimension == 2]
        assert len(maximal) == 2
        assert cc.leq("I", maximal[0]) and cc.leq("I", maximal[1])
        # commutation graph has no edge, so no joint context exists
        assert all(cc.algebra(cid).dimension in (1, 2) for cid in cc.ids())

    def test_clique_contexts_in_dimension_four(self):
        seeds = [kron(SZ, I2), kron(I2, SZ), kron(SX, SX)]
        comm = [
            (i, j)
            for i, j in itertools.combinations(range(3), 2)
            if np.allclose(seeds[i] @ seeds[j], seeds[j] @ seeds[i])
        ]
        assert comm == [(0, 1)]  # the clique structure the category must mirror
        cc = context_category(full_matrix_algebra(4), seeds)
        dims = sorted(cc.algebra(cid).dimension for cid in cc.ids())
        assert dims == [1, 2, 4]

    def test_order_is_span_containment_with_trivial_minimum(self):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SZ), kron(SX, I2)])
        for cid in cc.ids():
            assert cc.leq("I", cid)
        for sub, sup in cc.strict_pairs():
            for b in cc.algebra(sub).basis:
                assert cc.algebra(sup).contains(b)
        assert check_category(poset_category(cc.ids(), cc.leq)).ok

    def test_nested_chain_from_groups(self):
        groups = [[kron(SZ, I2)], [kron(SZ, I2), kron(I2, SZ)]]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        assert cc.leq("V0", "V1")

    def test_seed_outside_ambient_rejected(self):
        small = generate_algebra([SZ], 2)
        with pytest.raises(DomainError, match="seed 0 lies outside the ambient algebra"):
            context_category(small, [SX])

    def test_non_selfadjoint_seed_rejected(self):
        with pytest.raises(DomainError, match="seed 0 is not self-adjoint"):
            context_category(full_matrix_algebra(2), [np.array([[0, 1], [0, 0]])])


class TestIntersectionsAndRestrictions:
    def test_meet_of_diagonal_contexts(self):
        cc = context_category_from_groups(full_matrix_algebra(4), [[kron(SZ, I2), kron(I2, SZ)], [kron(SZ, I2), kron(I2, SX)]])
        meet = cc.algebra("V0^V1")
        assert meet.dimension == 2
        assert meet.contains(kron(SZ, I2))
        assert validate_algebra(meet).ok
        assert cc.leq("V0^V1", "V0") and cc.leq("V0^V1", "V1")

    def test_restriction_is_the_unique_overlapping_character(self):
        cc = context_category_from_groups(full_matrix_algebra(4), [[kron(SZ, I2), kron(I2, SZ)], [kron(SZ, I2)]])
        fine_chars, coarse_chars = cc.spectra["V0"], cc.spectra["V1"]
        for i, idx in enumerate(cc.restrictions[("V1", "V0")]):
            assert np.linalg.norm(coarse_chars[idx].projection @ fine_chars[i].projection - fine_chars[i].projection) < 1e-9
            assert abs(coarse_chars[idx].value_of(kron(SZ, I2)) - fine_chars[i].value_of(kron(SZ, I2))) < 1e-9

    def test_no_restriction_between_contexts_with_crossing_atoms(self):
        cc = context_category_from_groups(full_matrix_algebra(4), [[kron(SZ, I2)], [kron(SX, I2)]])
        assert not cc.leq("V0", "V1") and not cc.leq("V1", "V0")
        assert set(cc.restrictions) == {("I", "V0"), ("I", "V1")}


class TestBooleanBlocks:
    """The Boolean block of a clique of commuting projections is the lattice
    of sums of its atoms, and those atoms are the characters of the clique's
    maximal context."""

    def blocks(self, projections) -> list:
        d = len(projections[0])
        cc = context_category(full_matrix_algebra(d), [np.asarray(p, dtype=complex) for p in projections])
        return [cc.spectra[cid] for cid in cc.ids() if cc.generators[cid]]

    def elements(self, block) -> list:
        """Every sum of the block's atoms."""
        d = len(block[0].projection)
        return [
            sum((chi.projection for take, chi in zip(bits, block) if take), np.zeros((d, d), dtype=complex))
            for bits in itertools.product((0, 1), repeat=len(block))
        ]

    def test_projection_and_complement_one_block(self):
        p = np.diag([1.0, 0.0])
        blocks = self.blocks([p, np.eye(2) - p])
        assert len(blocks) == 1
        assert 2 ** len(blocks[0]) == 4

    def test_incompatible_rank_one_projections_two_blocks(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.linalg.norm(p0 @ plus - plus @ p0) > 1e-6
        blocks = self.blocks([p0, plus])
        assert len(blocks) == 2
        assert all(2 ** len(b) == 4 for b in blocks)

    def test_three_orthogonal_projections_give_eight_elements(self):
        ps = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        (block,) = self.blocks(ps)
        assert len(block) == 3
        assert 2 ** len(block) == 8

    def test_block_is_distributive_lattice(self):
        ps = [np.diag([1.0, 1.0, 0, 0]), np.diag([1.0, 0, 1.0, 0])]
        (block,) = self.blocks(ps)

        def meet(a, b):
            return a @ b

        def join(a, b):
            return a + b - a @ b

        elements = self.elements(block)
        assert len(elements) == 16
        for a, b, c in itertools.product(elements, repeat=3):
            left = meet(a, join(b, c))
            right = join(meet(a, b), meet(a, c))
            assert np.linalg.norm(left - right) < 1e-9

    def test_elements_pairwise_commute(self):
        (block,) = self.blocks([np.diag([1.0, 0.0])])
        elements = self.elements(block)
        assert len(elements) == 4
        for a, b in itertools.combinations(elements, 2):
            assert np.linalg.norm(a @ b - b @ a) < 1e-12


PAULI1 = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
PAULI_STRINGS = {a + b: kron(PAULI1[a], PAULI1[b]) for a in "IXYZ" for b in "IXYZ" if a + b != "II"}


class TestMeets:
    def test_every_meet_of_pauli_triples_is_an_algebra(self):
        ambient = full_matrix_algebra(4)
        for triple in itertools.combinations(PAULI_STRINGS, 3):
            cc = context_category(ambient, [PAULI_STRINGS[p] for p in triple])
            for cid in cc.ids():
                if "^" in cid:
                    meet = cc.algebra(cid)
                    assert validate_algebra(meet).ok, (triple, cid)
                    assert meet.contains(np.eye(4)), (triple, cid)
            maximal = [cc.algebra(cid) for cid in cc.ids() if cid != "I" and "^" not in cid]
            for a, b in itertools.combinations(maximal, 2):
                # the meet's dimension is that of the span intersection; above
                # one, some context is that meet
                union = np.linalg.matrix_rank(np.concatenate([a.ortho, b.ortho]), tol=1e-9)
                meet = len(a.ortho) + len(b.ortho) - union
                below = [x for x in cc.contexts.values() if algebra_span_leq(x, a) and algebra_span_leq(x, b)]
                assert max(x.dimension for x in below) == meet, triple

    def test_complex_meets_have_one_character_per_dimension(self):
        cc = context_category(full_matrix_algebra(4), [PAULI_STRINGS[p] for p in ("IX", "IY", "YI")])
        meet = cc.algebra("V0^V1")
        assert meet.dimension == 2 and validate_algebra(meet).ok
        cc = context_category(full_matrix_algebra(4), [PAULI_STRINGS[p] for p in ("ZI", "XI", "YI", "IZ", "IX")])
        assert len(cc.spectra["V4^V5"]) == cc.algebra("V4^V5").dimension == 2


def test_character_count_must_match_the_dimension():
    # a two-element basis that is not product-closed (its square leaves the
    # span by 1e-3, a hundred times the tolerance) has three joint eigenspaces
    d = np.diag([1.0, 1.0 + 1e-3, -1.0]).astype(complex)
    alg = MatrixStarAlgebra(3, [np.eye(3, dtype=complex), d], tol=1e-5)
    with pytest.raises(DomainError, match="3 characters for an algebra of dimension 2"):
        gelfand_spectrum(alg)


def rescaled(alg: MatrixStarAlgebra, factors) -> MatrixStarAlgebra:
    """The same span with its basis matrices scaled by ``factors``: the
    split's fixed draw then meets another combination of the basis."""
    return MatrixStarAlgebra(alg.dim, [f * b for f, b in zip(factors, alg.basis)], alg.tol)


@pytest.mark.parametrize("tol", np.logspace(-7, -5, 6))
def test_near_degenerate_spectra_cluster_at_the_algebra_tolerance(tol):
    # the closure rounds the gap away (dimension 2); eigenvalues of the
    # random combination closer than the tolerance are one character, for
    # the basis as closed and two rescalings of it
    for gap in np.logspace(np.log10(2e-7), np.log10(2 * tol), 6):
        alg = generate_algebra([np.diag([1.0, 1.0 + gap, -1.0]).astype(complex)], 3, tol)
        assert alg.dimension == 2
        for factors in ([1.0, 1.0], [-0.5, 2.0], [1.5, -0.7]):
            chars = gelfand_spectrum(rescaled(alg, factors))
            assert len(chars) == 2
            assert sorted(chi.rank for chi in chars) == [1, 2]


class TestSpanRows:
    def test_containment_scales_the_residual_by_the_norm(self):
        # residual 2e-9 against a row of norm 4: inside at tolerance 1e-9
        unit = np.diag([1.0, 0.0]).astype(complex).reshape(1, -1)
        row = (4 * np.diag([1.0, 0.0]) + 2e-9 * np.diag([0.0, 1.0])).astype(complex).reshape(1, -1)
        assert span_leq(row, unit)

    def test_list_and_stacked_input_give_the_same_rows(self):
        mats = [SX, SZ, SX + SZ]
        rows = orthonormalize_span(mats)
        assert rows.shape == (2, 4)
        assert np.array_equal(rows, orthonormalize_span(np.stack(mats)))
        assert np.array_equal(rows, orthonormalize_span(np.stack(mats).reshape(3, 4)))
        assert np.allclose(rows @ rows.conj().T, np.eye(2))

    def test_generated_algebras_keep_their_rows(self):
        alg = generate_algebra([kron(SZ, I2), kron(I2, SX)], 4)
        assert alg.ortho.shape == (alg.dimension, 16)
        assert all(np.shares_memory(b, alg.ortho) for b in alg.basis)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_near_degenerate_spectra_never_miscount(data):
    """Eigenvalues apart by 0.5 to 2 times the spectral threshold (scaled),
    in the standard frame or a random one, at every tolerance of the CLI's
    range: one character per dimension, or one of the spectrum's refusals;
    never a wrong count.  The count refusal is not the only one: below the
    spectral floor the closure keeps the gap and amplifies its rounding,
    which can leave the algebra non-commutative, and a gap near the
    threshold can leave a block on which some basis matrix is no scalar.
    The basis is rescaled at random, so the split's fixed draw meets many
    combinations of it."""
    draw = data.draw
    tol = draw(st.sampled_from([1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3]))
    start = float(draw(st.integers(-2, 2)))
    factors = draw(st.lists(st.none() | st.floats(0.5, 2.0), min_size=1, max_size=4))  # None: a unit gap
    scale = max(1.0, abs(start), abs(start + sum(f is None for f in factors)))
    values = [start]
    for f in factors:
        values.append(values[-1] + (1.0 if f is None else f * spectral_tol(tol) * scale))
    d = len(values)
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**16))), d) if draw(st.booleans()) else np.eye(d)
    alg = generate_algebra([(u * np.array(values)) @ u.conj().T], d, tol)
    factors = draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                            min_size=alg.dimension, max_size=alg.dimension))
    alg = rescaled(alg, factors)
    try:
        chars = gelfand_spectrum(alg)
    except DomainError as exc:
        assert re.fullmatch(r"found \d+ characters for an algebra of dimension \d+", str(exc)) or str(exc) in (
            "gelfand_spectrum requires a commutative algebra",
            "simultaneous diagonalization failed to isolate characters",
        ), str(exc)
    else:
        assert len(chars) == alg.dimension
        assert sum(chi.rank for chi in chars) == d


class TestContextsFromAtoms:
    def test_ray_family_above_the_cap_is_refused(self):
        with pytest.raises(InputError, match="matrix dimension 20 exceeds cap 16"):
            ray_family_context_category(20, [[np.eye(20)[0]]])

    def test_seeds_above_the_cap_are_refused(self):
        with pytest.raises(InputError, match="matrix dimension 20 exceeds cap 16"):
            context_category(full_matrix_algebra(20), [np.eye(20)])

    def test_non_orthogonal_rays_do_not_generate_a_commutative_algebra(self):
        rays = [np.diag([1.0, 0.0]).astype(complex), np.full((2, 2), 0.5, dtype=complex)]
        with pytest.raises(DomainError, match="group 1 does not generate a commutative algebra"):
            context_category_from_groups(full_matrix_algebra(2), [[rays[0]], rays])

    def test_a_commuting_seed_that_fails_to_split_is_refused_as_such(self):
        """One seed generates a commutative algebra: the refusal names the split."""
        h = unsplit_seed()
        with pytest.raises(DomainError, match="^simultaneous diagonalization failed to isolate characters$"):
            context_algebra([h], 3)
        with pytest.raises(DomainError, match="^simultaneous diagonalization failed to isolate characters$"):
            context_category_from_groups(full_matrix_algebra(3), [[h]])

    def test_group_outside_the_ambient_is_refused(self):
        with pytest.raises(DomainError, match="group 0 contains a matrix outside the ambient algebra"):
            context_category_from_groups(generate_algebra([SZ], 2), [[SX]])

    def test_an_empty_group_is_one_context_with_one_atom(self):
        cc = context_category_from_groups(full_matrix_algebra(3), [[]])
        assert cc.ids() == ["V0"]
        assert [chi.rank for chi in cc.spectra["V0"]] == [3]

    def test_two_single_rays_meet_trivially(self):
        e = np.eye(3, dtype=complex)
        cc = context_category_from_groups(full_matrix_algebra(3), [[np.outer(e[0], e[0])], [np.outer(e[1], e[1])]])
        assert cc.ids() == ["V0", "V1", "I"]
        assert [len(cc.spectra[cid]) for cid in cc.ids()] == [2, 2, 1]
        assert cc.restrictions == {("I", "V0"): (0, 0), ("I", "V1"): (0, 0)}

    def test_contexts_are_the_spans_of_their_atoms(self):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SZ), kron(SX, SX), kron(SZ, SZ)])
        for cid in cc.ids():
            alg, chars = cc.algebra(cid), cc.spectra[cid]
            assert validate_algebra(alg).ok and is_commutative(alg)
            assert alg.dimension == len(chars)
            assert np.allclose(sum(chi.projection for chi in chars), np.eye(4))
            for chi in chars:
                assert alg.contains(chi.projection)
        for (sub, sup), table in cc.restrictions.items():
            for i, j in enumerate(table):
                p, q = cc.spectra[sup][i].projection, cc.spectra[sub][j].projection
                assert np.allclose(q @ p, p)

    def test_character_order_does_not_depend_on_the_split(self, rng):
        """Seeds listed in another order, or scaled, meet the split's fixed
        draw in other combinations, whose eigenvalues order the atoms
        otherwise; the characters come out in the same order."""
        u = random_unitary(rng, 4)
        seeds = [u @ kron(SZ, I2) @ u.conj().T, u @ kron(I2, SZ) @ u.conj().T]
        first = context_category(full_matrix_algebra(4), seeds)
        for other_seeds in (seeds[::-1], [-2.0 * seeds[0], 0.5 * seeds[1]], [seeds[0], seeds[0] + 3.0 * seeds[1]]):
            other = context_category(full_matrix_algebra(4), other_seeds)
            assert other.ids() == first.ids()
            for cid in first.ids():
                for chi, rho in zip(first.spectra[cid], other.spectra[cid]):
                    assert np.allclose(chi.projection, rho.projection, atol=1e-12)


def count_splits(monkeypatch) -> dict:
    """Count the calls of ``staralg._atoms`` and ``staralg.is_commutative``
    made from within ``staralg`` from here on."""
    calls = {"_atoms": 0, "is_commutative": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(staralg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(staralg, name, counted)
    return calls


class TestHeldCharacters:
    def test_an_algebra_built_from_atoms_is_not_split_again(self, monkeypatch):
        gens = [kron(SZ, I2), kron(I2, SZ)]
        alg = context_algebra(gens, 4)
        cc = context_category(full_matrix_algebra(4), gens + [kron(SX, SX)])
        calls = count_splits(monkeypatch)
        assert len(gelfand_spectrum(alg)) == 4
        for cid in cc.ids():
            assert gelfand_spectrum(cc.algebra(cid)) is cc.spectra[cid]
        assert calls == {"_atoms": 0, "is_commutative": 0}
        assert len(gelfand_spectrum(generate_algebra(gens, 4))) == 4
        assert calls == {"_atoms": 1, "is_commutative": 1}

    def test_spectrum_multiplicativity_splits_only_to_build_the_composite(self, monkeypatch):
        net = standard_net(2)
        parts = [(Region(k, k), context_algebra([site_operator(m, k, 2)], 4)) for k, m in enumerate([SZ, SX])]
        calls = count_splits(monkeypatch)
        assert spectrum_multiplicativity(net, parts) == (4, 4)
        assert calls == {"_atoms": 1, "is_commutative": 0}

    def test_atom_spans_contain_their_generators_and_exact_atoms_at_tol_1e_13(self):
        """Single-qubit Z strings on 2-3 qubits in a random frame, each
        scaled at random, so the split's fixed draw meets another
        combination each time: some give close eigenvalues, and atoms off
        the exact ones by up to about 1e-11, which a span test at 1e-13
        refused; the spectral threshold accepts every generator and every
        exact atom."""
        rng = np.random.default_rng(0)
        for case in range(120):
            qubits = int(rng.integers(2, 4))
            u = random_unitary(rng, 2**qubits)
            scales = rng.choice([-1.0, 1.0], qubits) * rng.uniform(0.5, 2.0, qubits)
            gens = [s * u @ pauli_string({q: "Z"}, qubits) @ u.conj().T for q, s in zip(range(qubits), scales)]
            alg = context_algebra(gens, 2**qubits, 1e-13)
            atoms = [np.outer(u[:, k], u[:, k].conj()) for k in range(2**qubits)]
            assert all(alg.contains(m) for m in gens + atoms), case


# ---------------------------------------------------------------------------
# the batched category build against the per-stack and per-candidate code
# it replaced, frozen here as the oracle


def old_cluster(values, tol):
    order = np.argsort(values)
    scale = max(1.0, float(np.abs(values).max())) if values.size else 1.0
    gap = spectral_tol(tol) * scale
    groups = [[order[0]]] if values.size else []
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def old_blocks_from_vectors(h, isometry, tol):
    compressed = isometry.conj().T @ h @ isometry
    w, vecs = np.linalg.eigh((compressed + compressed.conj().T) / 2.0)
    return [isometry @ vecs[:, group] for group in old_cluster(w, tol)]


def old_spans(blocks, stack, scales, tol):
    projs = np.stack([iso @ iso.conj().T for iso in blocks])
    ranks = np.array([iso.shape[1] for iso in blocks])
    vals = np.einsum("kij,nji->nk", projs, stack) / ranks
    residual = stack - np.einsum("nk,kij->nij", vals, projs)
    bound = max(tol, staralg.CHARACTER_FLOOR) * scales
    norms = np.linalg.norm(residual, axis=(-2, -1))
    unsure = ~(norms <= bound / 2)
    norms[unsure] = staralg.opnorms(residual[unsure])
    return bool(np.all(norms <= bound))


def old_atoms(stack, tol):
    """One stack's split: a fresh ``default_rng(0)`` per call."""
    parts, keep, scales = staralg._selfadjoint_spanning(stack)
    herm = parts[keep]
    eye = np.eye(stack.shape[-1], dtype=complex)
    rng = np.random.default_rng(0)
    for _ in range(staralg.SPECTRUM_RETRIES):
        h = np.tensordot(rng.standard_normal(len(herm)), herm, axes=1)
        blocks = old_blocks_from_vectors(h, eye, tol)
        if old_spans(blocks, stack, scales, tol):
            return blocks
    blocks = [eye]
    for s in herm:
        blocks = [sub for iso in blocks for sub in old_blocks_from_vectors(s, iso, tol)]
    return blocks if old_spans(blocks, stack, scales, tol) else None


def batch_blocks_from_vectors(h, isometry, tol):
    """One list of blocks per matrix of the stack ``h``, by one ``eigh``."""
    compressed = staralg.dagger(isometry) @ h @ isometry
    w, vecs = np.linalg.eigh((compressed + np.swapaxes(compressed.conj(), -2, -1)) / 2.0)
    order, group = staralg._gap_groups(w.reshape(-1), tol, np.arange(0, w.size + 1, w.shape[1]))
    blocks = [[] for _ in w]
    for members in np.split(order, np.flatnonzero(np.diff(group)) + 1):
        row, columns = divmod(members, w.shape[1])
        blocks[row[0]].append(isometry @ vecs[row[0]][:, columns])
    return blocks


def batch_spans(splits, stacks, scales, tol):
    """Whether each split stands for its stack, the stacks of one shape
    (block count, matrix count) tested in one batch."""
    stands = np.ones(len(stacks), dtype=bool)
    shapes = {}
    for k, (split, stack) in enumerate(zip(splits, stacks)):
        shapes.setdefault((len(split), len(stack)), []).append(k)
    for ks in shapes.values():
        projs = staralg._projections([iso for k in ks for iso in splits[k]])
        projs = projs.reshape(len(ks), -1, *projs.shape[1:])
        ranks = np.array([[iso.shape[1] for iso in splits[k]] for k in ks])
        mats = np.stack([stacks[k] for k in ks])
        vals = np.einsum("gkij,gnji->gnk", projs, mats) / ranks[:, None, :]
        residual = mats - np.einsum("gnk,gkij->gnij", vals, projs)
        bound = max(tol, staralg.CHARACTER_FLOOR) * np.stack([scales[k] for k in ks])
        norms = np.linalg.norm(residual, axis=(-2, -1))
        unsure = ~(norms <= bound / 2)
        norms[unsure] = staralg.opnorms(residual[unsure])
        stands[ks] = np.all(norms <= bound, axis=1)
    return stands


def batch_atoms(stacks, tol):
    """Every stack split together: one SVD over the concatenated stacks, a
    draw table per part count, and per draw round one ``eigh`` and one span
    test for the stacks still pending; then the sweep per stack."""
    if not stacks:
        return []
    eye = np.eye(stacks[0].shape[-1], dtype=complex)
    ends = np.cumsum([len(stack) for stack in stacks])[:-1]
    parts, keep, scales = staralg._selfadjoint_spanning(np.concatenate(stacks))
    herm = [p[k] for p, k in zip(np.split(parts, 2 * ends), np.split(keep, 2 * ends))]
    scales = np.split(scales, ends)
    draws = {}
    for count in {len(h) for h in herm}:
        rng = np.random.default_rng(0)
        draws[count] = [rng.standard_normal(count) for _ in range(staralg.SPECTRUM_RETRIES)]
    atoms, pending = [None] * len(stacks), list(range(len(stacks)))
    for r in range(staralg.SPECTRUM_RETRIES):
        if not pending:
            break
        combos = np.stack([np.tensordot(draws[len(herm[k])][r], herm[k], axes=1) for k in pending])
        splits = batch_blocks_from_vectors(combos, eye, tol)
        stands = batch_spans(splits, [stacks[k] for k in pending], [scales[k] for k in pending], tol)
        for k, split, ok in zip(pending, splits, stands):
            if ok:
                atoms[k] = split
        pending = [k for k, ok in zip(pending, stands) if not ok]
    for k in pending:
        split = [eye]
        for s in herm[k]:
            split = [sub for iso in split for sub in batch_blocks_from_vectors(s[None], iso, tol)[0]]
        atoms[k] = split if batch_spans([split], [stacks[k]], [scales[k]], tol)[0] else None
    return atoms


def batch_split(stacks, tol, refusals):
    """``batch_atoms``, refusing the first stack with no split."""
    blocks = batch_atoms(stacks, tol)
    for k, atoms in enumerate(blocks):
        if atoms is None:
            commute = staralg.commuting(stacks[k], stacks[k], tol).all()
            raise DomainError("simultaneous diagonalization failed to isolate characters" if commute else refusals[k])
    return blocks


def old_reading_order(readings, tol):
    first, second = readings
    return [k for group in old_cluster(first, tol) for k in sorted(group, key=lambda k: second[k])]


def old_components(touch):
    reach = (touch @ touch.T) | np.eye(len(touch), dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = reach.argmax(axis=1).tolist()
    return [[row for row, label in enumerate(first) if label == k] for k in dict.fromkeys(first)]


def old_assemble(ambient, blocks, group_generators):
    d, tol = ambient.dim, ambient.tol
    threshold = spectral_tol(tol) ** 2
    isometries = [iso for group in blocks for iso in group] + [np.eye(d, dtype=complex)]
    ranks = np.array([iso.shape[1] for iso in isometries])
    columns = np.concatenate(isometries, axis=1)
    owner = np.repeat(np.eye(len(isometries)), ranks, axis=0)
    overlaps = owner.T @ (np.abs(columns.conj().T @ columns) ** 2) @ owner
    projs = np.stack([iso @ iso.conj().T for iso in isometries]).reshape(len(isometries), d * d)
    traces = staralg._traces(projs.reshape(-1, d, d))
    n = len(blocks)
    first = np.cumsum([0] + [len(group) for group in blocks])
    names = [f"V{k}" for k in range(n)]
    candidates = [[[t] for t in range(first[k], first[k + 1])] for k in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        parts = old_components(overlaps[first[i] : first[i + 1], first[j] : first[j + 1]] > threshold)
        if len(parts) > 1:
            names.append(f"V{i}^V{j}")
            candidates.append([[first[i] + a for a in part] for part in parts])
    names.append("I")
    candidates.append([[len(isometries) - 1]])
    covers = []
    for atoms in candidates:
        cover = np.zeros((len(atoms), len(isometries)))
        for a, atom in enumerate(atoms):
            cover[a, atom] = 1.0
        covers.append(cover[old_reading_order(traces @ cover.T / (cover @ ranks), tol)])
    starts = np.cumsum([0] + [len(cover) for cover in covers])
    cover = np.concatenate(covers)
    hits = cover @ overlaps @ cover.T > threshold
    below = np.logical_and.reduceat(np.add.reduceat(hits, starts[:-1], axis=1, dtype=int) == 1, starts[:-1], axis=0)
    equal = below & below.T
    kept = []
    for k in range(len(names)):
        if not equal[k, kept].any():
            kept.append(k)
    contexts, spectra, order, restrictions = {}, {}, set(), {}
    for k in kept:
        sizes = covers[k] @ ranks
        atoms = (covers[k] @ projs).reshape(-1, d, d)
        spectra[names[k]] = [staralg.Character(projection=p, rank=int(r)) for p, r in zip(atoms, sizes)]
        contexts[names[k]] = staralg._atom_algebra(spectra[names[k]], tol)
    for a in kept:
        for b in kept:
            if a != b and below[b, a]:
                order.add((names[a], names[b]))
                table = hits[starts[b] : starts[b + 1], starts[a] : starts[a + 1]].argmax(axis=1)
                restrictions[(names[a], names[b])] = dict(enumerate(table.tolist()))
    generators = {names[k]: group_generators[k] if k < n else [] for k in kept}
    return staralg.ContextCategory(ambient, contexts, order, generators, spectra, restrictions)


def old_context_category_from_groups(ambient, groups):
    d, tol = ambient.dim, ambient.tol
    blocks = []
    for k, group in enumerate(groups):
        mats = np.asarray([staralg.as_matrix(g, d) for g in group], dtype=complex).reshape(-1, d, d)
        if not all(ambient.contains(m) for m in mats):
            raise DomainError(f"group {k} contains a matrix outside the ambient algebra")
        atoms = old_atoms(mats, tol)
        if atoms is None and staralg.commuting(mats, mats, tol).all():
            raise DomainError("simultaneous diagonalization failed to isolate characters")
        if atoms is None:
            raise DomainError(f"group {k} does not generate a commutative algebra")
        blocks.append(atoms)
    return old_assemble(ambient, blocks, [[] for _ in groups])


def old_context_category(ambient, seeds):
    mats = [staralg.as_matrix(s, ambient.dim) for s in seeds]
    cliques = staralg._commutation_cliques(mats, ambient.tol)
    blocks = []
    for clique in cliques:
        atoms = old_atoms(np.stack([mats[i] for i in clique]), ambient.tol)
        if atoms is None:
            raise DomainError("simultaneous diagonalization failed to isolate characters")
        blocks.append(atoms)
    return old_assemble(ambient, blocks, [list(c) for c in cliques])


def old_gelfand_spectrum(v):
    if not is_commutative(v):
        raise DomainError("gelfand_spectrum requires a commutative algebra")
    blocks = old_atoms(staralg._basis_stack(v), v.tol)
    if blocks is None:
        raise DomainError("simultaneous diagonalization failed to isolate characters")
    if len(blocks) != v.dimension:
        raise DomainError(f"found {len(blocks)} characters for an algebra of dimension {v.dimension}")
    projs = np.stack([iso @ iso.conj().T for iso in blocks])
    ranks = [iso.shape[1] for iso in blocks]
    return [staralg.Character(projection=projs[k], rank=ranks[k])
            for k in old_reading_order(staralg._traces(projs) / ranks, v.tol)]


def old_rays_to_projectors(basis_vectors):
    projs = []
    for v in basis_vectors:
        vec = np.asarray(v, dtype=complex).reshape(-1)
        vec = vec / np.linalg.norm(vec)
        projs.append(np.outer(vec, vec.conj()))
    return projs


def built(fn, *args):
    """A builder's value, or its refusal as (type, message)."""
    try:
        return "value", fn(*args)
    except (DomainError, InputError) as exc:
        return type(exc).__name__, str(exc)


# a family of orthonormal bases takes its unit rays as atoms, with no split:
# its projections are the split's within this bound, not bit for bit
RAY_ATOL = 1e-12


def built_rays(d, bases, tol=staralg.DEFAULT_TOL):
    """``built`` of ``ray_family_context_category``, and whether it split."""
    with counted_splits() as calls:
        found = built(ray_family_context_category, d, bases, tol)
    return found, bool(calls)


def character_bytes(chars) -> list:
    return [(chi.rank, chi.projection.tobytes()) for chi in chars]


def assert_same_category(found, expected, atol=None):
    """The same refusal, or the same ids, order, restriction tables (keys
    in order), generators and character bytes, or with ``atol`` the same
    ranks and projections within it; ``strict_pairs`` is the old quadratic
    scan of the order."""
    assert found[0] == expected[0]
    if found[0] != "value":
        assert found == expected
        return
    new, old = found[1], expected[1]
    assert new.ids() == old.ids()
    assert new.order == old.order
    # each table a tuple indexed by position, the frozen build's a dict keyed by it
    assert [(pair, dict(enumerate(table))) for pair, table in new.restrictions.items()] == list(
        old.restrictions.items())
    assert new.generators == old.generators
    for cid in old.ids():
        if atol is None:
            assert character_bytes(new.spectra[cid]) == character_bytes(old.spectra[cid])
        else:
            assert [chi.rank for chi in new.spectra[cid]] == [chi.rank for chi in old.spectra[cid]]
            assert all(np.abs(chi.projection - ref.projection).max() <= atol
                       for chi, ref in zip(new.spectra[cid], old.spectra[cid]))
        assert new.algebra(cid)._characters is new.spectra[cid]
    ids = old.ids()
    assert new.strict_pairs() == [(a, b) for a in ids for b in ids if a != b and (a, b) in old.order]


@st.composite
def ray_families(draw):
    """Bases of rays from two or three random unitary frames of dimension
    2-5, the later frames rotating some column pairs of the first, so bases
    share rays and their meets have atoms of several rays.  A basis may be
    incomplete or empty; its rays are scaled by random complex factors; a
    basis may hold a ray of another frame, which need not be orthogonal to
    the rest."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = [random_unitary(rng, d)]
    for _ in range(draw(st.integers(1, 2))):
        pairs = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=2))
        frame = frames[0].copy()
        for a, b in pairs:
            if a != b:
                c, s = np.cos(0.3 + a), np.sin(0.3 + a)
                frame[:, [a, b]] = frame[:, [a, b]] @ np.array([[c, -s], [s, c]])
        frames.append(frame)
    bases = []
    for _ in range(draw(st.integers(1, 6))):
        frame = frames[draw(st.integers(0, len(frames) - 1))]
        cols = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        rays = [frame[:, c] * (rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 6.3))) for c in cols]
        if rays and draw(st.integers(0, 9)) == 0:
            rays[0] = frames[-1][:, cols[0]]
        bases.append(rays)
    return d, bases


def pauli_seeds(draw, rng):
    labels = draw(st.lists(st.sampled_from([a + b for a in "IXYZ" for b in "IXYZ"][1:]), min_size=1, max_size=7))
    u = random_unitary(rng, 4) if draw(st.booleans()) else np.eye(4)
    single = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
    return [float(draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]))) * u @ kron(single[a], single[b]) @ u.conj().T
            for a, b in labels]


class TestBatchedBuildOracle:
    @settings(max_examples=150, deadline=None)
    @given(family=ray_families(), tol=st.sampled_from([1e-13, 1e-9, 1e-6]))
    def test_ray_families(self, family, tol):
        d, bases = family
        found, split = built_rays(d, bases, tol)
        expected = built(old_context_category_from_groups, full_matrix_algebra(d, tol),
                         [old_rays_to_projectors(basis) for basis in bases])
        assert_same_category(found, expected, None if split else RAY_ATOL)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 16), count=st.integers(0, 6), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]), real=st.booleans())
    def test_ray_projectors_are_the_per_vector_ones(self, d, count, seed, scale, real):
        rng = np.random.default_rng(seed)
        rays = scale * (rng.standard_normal((count, d)) + (0 if real else 1j) * rng.standard_normal((count, d)))
        unit = _unit_rays(list(rays))
        found = unit[:, :, None] * unit[:, None, :].conj()
        assert len(found) == count
        assert [p.tobytes() for p in found] == [p.tobytes() for p in old_rays_to_projectors(rays)]

    def test_strict_pairs_are_the_quadratic_scan_of_the_order(self):
        for cc in (ray_family_context_category(4, bundled_fixture("peres24.json")["bases"][:9]),
                   context_category(full_matrix_algebra(4), [kron(a, b) for a in (SX, SZ, I2) for b in (SX, SZ)])):
            ids = cc.ids()
            assert cc.strict_pairs() == [(a, b) for a in ids for b in ids if a != b and (a, b) in cc.order]
            assert len(cc.strict_pairs()) == len(cc.order) > 0

    @pytest.mark.parametrize("seed", [0, 1, 7, 101])
    def test_peres_and_cabello_families(self, seed):
        bases = bundled_fixture("peres24.json")["bases"]
        rng = np.random.default_rng(seed)
        families = [bases, load_ray_fixture(bundled_fixture("cabello18.json"))[1]]
        families += [[bases[i] for i in sorted(rng.choice(24, size, replace=False))] for size in (6, 12, 16, 17)]
        for family in families:
            found, split = built_rays(4, family)
            assert not split
            expected = built(old_context_category_from_groups, full_matrix_algebra(4),
                             [old_rays_to_projectors(basis) for basis in family])
            assert_same_category(found, expected, RAY_ATOL)

    def test_an_empty_group_and_groups_refused_in_order(self):
        """No group, or an empty one, leaves one context; a non-commutative
        group before a group outside the ambient is refused first, and
        after it, not."""
        ambient = generate_algebra([kron(SX, I2), kron(SZ, I2)], 4)
        inside, outside = [kron(SX, I2), kron(SZ, I2)], [kron(I2, SZ)]
        cases = [[], [[]], [inside[:1], []], [inside, outside], [outside, inside], [inside[1:], inside, outside]]
        for groups in cases:
            found = built(context_category_from_groups, ambient, groups)
            assert_same_category(found, built(old_context_category_from_groups, ambient, groups))
        assert found == ("DomainError", "group 1 does not generate a commutative algebra")

    def test_every_group_is_read_before_any_is_split(self):
        """A 3 x 3 matrix in the last group is refused before the failed
        split of group 0: every group is read as d x d matrices first.  The
        frozen per-group build reads and splits group by group, so it
        refuses group 0."""
        groups = [[kron(SX, I2), kron(SZ, I2)], [kron(SZ, SZ)], [np.eye(3)]]
        ambient = full_matrix_algebra(4)
        assert built(context_category_from_groups, ambient, groups) == ("InputError", "expected a 4x4 matrix, got 3x3")
        assert built(old_context_category_from_groups, ambient, groups) == (
            "DomainError", "group 0 does not generate a commutative algebra")

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_atoms_whose_first_readings_tie(self, d):
        """Rays (e0 ± e1) / sqrt(2) on two eigenvectors of the first fixed
        functional read its mean eigenvalue both, to rounding: a tie, which
        the second reading orders, here and in every meet they reach."""
        _, e = np.linalg.eigh(staralg._functionals(d)[0])
        plus, minus = (e[:, 0] + e[:, 1]) / np.sqrt(2), (e[:, 0] - e[:, 1]) / np.sqrt(2)
        tied = [plus, minus] + [e[:, k] for k in range(2, d)]
        families = [[tied], [tied[::-1], list(e.T)], [[plus, minus], tied[1:], [1j * minus, plus]]]
        for bases in families:
            found, split = built_rays(d, bases)
            expected = built(old_context_category_from_groups, full_matrix_algebra(d),
                             [old_rays_to_projectors(basis) for basis in bases])
            assert_same_category(found, expected, None if split else RAY_ATOL)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([1e-9, 1e-6]))
    def test_reading_order_of_runs(self, data, tol):
        """Runs of readings of several magnitudes, each a few clusters of
        values 0 to 2 gaps apart at its own scale: each run is ordered as
        the old per-candidate sort ordered it.  Two atoms of one context
        never read alike on both generic functionals, so the second
        readings of a run are distinct: the order of such a double tie
        would follow each sort's own tie rule."""
        draw = data.draw
        runs = []
        for _ in range(draw(st.integers(1, 5))):
            base = draw(st.sampled_from([0.1, 1.0, 30.0, -500.0]))
            steps = draw(st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.1, 2.0, 1e3]), min_size=0, max_size=6))
            first = base + spectral_tol(tol) * max(1.0, abs(base)) * np.cumsum([0.0] + steps)
            order = draw(st.permutations(range(len(first))))
            second = np.array(draw(st.permutations(range(len(first)))), dtype=float) - 1.5
            runs.append((first[list(order)], second))
        readings = np.array([np.concatenate([r[0] for r in runs]), np.concatenate([r[1] for r in runs])])
        starts = np.cumsum([0] + [len(r[0]) for r in runs])
        expected = [start + k for start, r in zip(starts, runs) for k in old_reading_order(np.array(r), tol)]
        assert staralg._reading_order(readings, tol, starts).tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([1e-9, 1e-7]))
    def test_pauli_cliques_on_two_qubits(self, data, tol):
        seeds = pauli_seeds(data.draw, np.random.default_rng(data.draw(st.integers(0, 2**16))))
        ambient = full_matrix_algebra(4, tol)
        assert_same_category(built(context_category, ambient, seeds), built(old_context_category, ambient, seeds))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_near_degenerate_spectra(self, data):
        """The algebras of ``test_near_degenerate_spectra_never_miscount``."""
        draw = data.draw
        tol = draw(st.sampled_from([1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3]))
        start = float(draw(st.integers(-2, 2)))
        factors = draw(st.lists(st.none() | st.floats(0.5, 2.0), min_size=1, max_size=4))
        scale = max(1.0, abs(start), abs(start + sum(f is None for f in factors)))
        values = [start]
        for f in factors:
            values.append(values[-1] + (1.0 if f is None else f * spectral_tol(tol) * scale))
        d = len(values)
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**16))), d) if draw(st.booleans()) else np.eye(d)
        alg = generate_algebra([(u * np.array(values)) @ u.conj().T], d, tol)
        alg = rescaled(alg, draw(st.lists(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
                                          min_size=alg.dimension, max_size=alg.dimension)))
        found, expected = built(gelfand_spectrum, alg), built(old_gelfand_spectrum, alg)
        assert found[0] == expected[0]
        assert (character_bytes(found[1]) == character_bytes(expected[1]) if found[0] == "value"
                else found == expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), tol=st.sampled_from([1e-9, 1e-6]), retries=st.sampled_from([0, 1, 3]))
    def test_stacks_of_different_sizes_in_one_call(self, data, tol, retries):
        """Commuting stacks of 0-4 matrices on the column groups of random
        frames, some with degenerate blocks whose first draw may merge
        them, and non-commuting ones; with fewer draws allowed, more stacks
        take the sweep.  Each stack split alone gives what the frozen batch
        over all the stacks gives it, and the per-stack oracle, and the
        same first refusal."""
        draw = data.draw
        d = draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        stacks = []
        for _ in range(draw(st.integers(1, 5))):
            u = random_unitary(rng, d)
            cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1))) if d > 1 else []
            projs = [u[:, a:b] @ u[:, a:b].conj().T for a, b in zip([0] + cuts, cuts + [d])]
            mats = [sum(c * p for c, p in zip(rng.choice([-1.0, 0.0, 1.0, 2.0], len(projs)), projs))
                    for _ in range(draw(st.integers(0, 4)))]
            if d > 1 and draw(st.integers(0, 4)) == 0:
                mats.append(u[:, :2] @ np.array([[0, 1], [1, 0]]) @ u[:, :2].conj().T)
            stacks.append(np.asarray(mats, dtype=complex).reshape(-1, d, d))
        refusals = [f"stack {k} does not commute" for k in range(len(stacks))]
        saved, staralg.SPECTRUM_RETRIES = staralg.SPECTRUM_RETRIES, retries
        try:
            alone = [staralg._atoms(stack, tol) for stack in stacks]
            together = batch_atoms(stacks, tol)
            per_stack = [old_atoms(stack, tol) for stack in stacks]
            refused = built(lambda: [staralg._split(stack, tol, r) for stack, r in zip(stacks, refusals)])
            batch_refused = built(batch_split, stacks, tol, refusals)
        finally:
            staralg.SPECTRUM_RETRIES = saved

        def as_bytes(splits):
            return [None if b is None else [iso.tobytes() for iso in b] for b in splits]

        assert as_bytes(alone) == as_bytes(together) == as_bytes(per_stack)
        assert refused[0] == batch_refused[0]
        assert refused[0] == "value" or refused == batch_refused
