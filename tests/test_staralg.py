import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, SX, SY, SZ, kron, random_unitary
from ctxlab.errors import DomainError
from ctxlab.fincat import check_category
from ctxlab.linalg import intersect_spans, orthonormalize_span, span_containment, span_leq, spectral_tol
from ctxlab.staralg import (
    MatrixStarAlgebra,
    boolean_blocks,
    context_category,
    context_category_from_groups,
    dominating_character_index,
    full_matrix_algebra,
    gelfand_spectrum,
    generate_algebra,
    intersect_algebras,
    is_commutative,
    trivial_algebra,
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
            assert alg.validate().ok

    def test_non_square_generator_rejected(self):
        from ctxlab.errors import InputError

        with pytest.raises(InputError):
            generate_algebra([np.ones((2, 3))], 2)


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
        assert check_category(cc.as_poset_category()).ok

    def test_nested_chain_from_groups(self):
        groups = [[kron(SZ, I2)], [kron(SZ, I2), kron(I2, SZ)]]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        assert cc.leq("V0", "V1")

    def test_seed_outside_ambient_rejected(self):
        small = generate_algebra([SZ], 2)
        with pytest.raises(DomainError):
            context_category(small, [SX])

    def test_non_selfadjoint_seed_rejected(self):
        with pytest.raises(DomainError):
            context_category(full_matrix_algebra(2), [np.array([[0, 1], [0, 0]])])


class TestIntersectionsAndRestrictions:
    def test_intersection_of_diagonal_contexts(self):
        a = generate_algebra([kron(SZ, I2), kron(I2, SZ)], 4)
        b = generate_algebra([kron(SZ, I2), kron(SX, I2) @ kron(I2, I2)], 4)
        meet = intersect_algebras(a, b)
        assert meet.contains(kron(SZ, I2))
        assert meet.validate().ok

    def test_dominating_character_is_unique(self):
        fine = generate_algebra([kron(SZ, I2), kron(I2, SZ)], 4)
        coarse = generate_algebra([kron(SZ, I2)], 4)
        fine_chars = gelfand_spectrum(fine)
        coarse_chars = gelfand_spectrum(coarse)
        for chi in fine_chars:
            idx = dominating_character_index(chi, coarse_chars)
            assert abs(coarse_chars[idx].value_of(kron(SZ, I2)) - chi.value_of(kron(SZ, I2))) < 1e-9


class TestBooleanBlocks:
    def test_projection_and_complement_one_block(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        blocks = boolean_blocks([p, np.eye(2) - p])
        assert len(blocks) == 1
        assert len(blocks[0].elements) == 4

    def test_incompatible_rank_one_projections_two_blocks(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.linalg.norm(p0 @ plus - plus @ p0) > 1e-6
        blocks = boolean_blocks([p0, plus])
        assert len(blocks) == 2
        assert all(len(b.elements) == 4 for b in blocks)

    def test_three_orthogonal_projections_give_eight_elements(self):
        ps = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
        blocks = boolean_blocks([p.astype(complex) for p in ps])
        assert len(blocks) == 1
        assert len(blocks[0].atoms) == 3
        assert len(blocks[0].elements) == 8

    def test_block_is_distributive_lattice(self):
        ps = [np.diag([1.0, 1.0, 0, 0]), np.diag([1.0, 0, 1.0, 0])]
        (block,) = boolean_blocks([p.astype(complex) for p in ps])
        for a, b, c in itertools.product(block.elements, repeat=3):
            left = block.meet(a, block.join(b, c))
            right = block.join(block.meet(a, b), block.meet(a, c))
            assert np.linalg.norm(left - right) < 1e-9

    def test_elements_pairwise_commute(self):
        ps = [np.diag([1.0, 0.0]).astype(complex)]
        (block,) = boolean_blocks(ps)
        for a, b in itertools.combinations(block.elements, 2):
            assert np.linalg.norm(a @ b - b @ a) < 1e-12

    def test_non_projection_rejected(self):
        with pytest.raises(DomainError):
            boolean_blocks([SX + 2 * SZ])


def test_trivial_algebra_is_trivial():
    alg = trivial_algebra(3)
    assert alg.dimension == 1 and alg.contains(np.eye(3))


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
                    assert meet.validate().ok, (triple, cid)
                    assert meet.contains(np.eye(4)), (triple, cid)
            maximal = [cc.algebra(cid) for cid in cc.ids() if cid != "I" and "^" not in cid]
            for a, b in itertools.combinations(maximal, 2):
                rows = intersect_spans(a.ortho, b.ortho)
                union = np.linalg.matrix_rank(np.concatenate([a.ortho, b.ortho]), tol=1e-9)
                assert len(rows) == len(a.ortho) + len(b.ortho) - union, triple
                assert span_leq(rows, a.ortho) and span_leq(rows, b.ortho), triple

    def test_complex_meets_have_one_character_per_dimension(self):
        cc = context_category(full_matrix_algebra(4), [PAULI_STRINGS[p] for p in ("IX", "IY", "YI")])
        meet = cc.algebra("V0^V1")
        assert meet.dimension == 2 and meet.validate().ok
        cc = context_category(full_matrix_algebra(4), [PAULI_STRINGS[p] for p in ("ZI", "XI", "YI", "IZ", "IX")])
        assert len(cc.spectra()["V4^V5"]) == cc.algebra("V4^V5").dimension == 2


def test_character_count_must_match_the_dimension():
    # a two-element basis that is not product-closed (its square leaves the
    # span by 1e-3, a hundred times the tolerance) has three joint eigenspaces
    d = np.diag([1.0, 1.0 + 1e-3, -1.0]).astype(complex)
    alg = MatrixStarAlgebra(3, [np.eye(3, dtype=complex), d], tol=1e-5)
    with pytest.raises(DomainError, match="3 characters for an algebra of dimension 2"):
        gelfand_spectrum(alg)


@pytest.mark.parametrize("tol", np.logspace(-7, -5, 6))
def test_near_degenerate_spectra_cluster_at_the_algebra_tolerance(tol):
    # the closure rounds the gap away (dimension 2); eigenvalues of the
    # random combination closer than the tolerance are one character
    for gap in np.logspace(np.log10(2e-7), np.log10(2 * tol), 6):
        alg = generate_algebra([np.diag([1.0, 1.0 + gap, -1.0]).astype(complex)], 3, tol)
        assert alg.dimension == 2
        for seed in range(3):
            chars = gelfand_spectrum(alg, seed=seed)
            assert len(chars) == 2
            assert sorted(chi.rank for chi in chars) == [1, 2]


class TestSpanRows:
    def test_containment_matrix_matches_pairwise_tests(self):
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 3)
        diag = [u @ np.diag(v).astype(complex) @ u.conj().T for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        spans = [
            orthonormalize_span(diag[:1]),
            orthonormalize_span(diag[:2]),
            orthonormalize_span(diag),
            orthonormalize_span([np.eye(3)]),
            full_matrix_algebra(3).ortho,
            np.zeros((0, 0), dtype=complex),
        ]
        leq = span_containment(spans)
        for i, a in enumerate(spans):
            for j, b in enumerate(spans):
                expected = span_leq(a, b) if len(a) else True
                assert leq[i, j] == expected, (i, j)
        assert leq[0, 1] and not leq[1, 0] and leq[3, 2] and not leq[2, 3]
        assert leq[5].all() and not leq[:5, 5].any()

    def test_containment_scales_the_residual_by_the_norm(self):
        # residual 2e-9 against a row of norm 4: inside at tolerance 1e-9
        unit = np.diag([1.0, 0.0]).astype(complex).reshape(1, -1)
        row = (4 * np.diag([1.0, 0.0]) + 2e-9 * np.diag([0.0, 1.0])).astype(complex).reshape(1, -1)
        assert span_leq(row, unit)
        assert span_containment([row, unit])[0, 1]

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
    threshold can leave a block on which some basis matrix is no scalar."""
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
    try:
        chars = gelfand_spectrum(alg, seed=draw(st.integers(0, 3)))
    except DomainError as exc:
        assert re.fullmatch(r"found \d+ characters for an algebra of dimension \d+", str(exc)) or str(exc) in (
            "gelfand_spectrum requires a commutative algebra",
            "simultaneous diagonalization failed to isolate characters",
        ), str(exc)
    else:
        assert len(chars) == alg.dimension
        assert sum(chi.rank for chi in chars) == d
