import itertools

import numpy as np
import pytest

from conftest import I2, SX, SZ, kron, random_projection, random_unitary
from ctxlab.errors import DomainError
from ctxlab.presheaf import (
    FiniteFrame,
    FrameMap,
    build_spectral_presheaf,
    bundled_fixture,
    check_frame,
    check_frame_hom,
    check_presheaf,
    global_sections,
    inner_daseinisation,
    load_ray_fixture,
    operator_interval,
    outer_daseinisation,
    powerset_frame,
    preimage_frame_map,
    ray_family_context_category,
    rays_to_projectors,
)
from ctxlab.staralg import (
    context_category,
    context_category_from_groups,
    full_matrix_algebra,
    gelfand_spectrum,
    generate_algebra,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)


# ---------------------------------------------------------------------------
# presheaf structure


class TestBuildPresheaf:
    def test_single_context_identity_restriction(self):
        cc = context_category_from_groups(full_matrix_algebra(2), [[SZ]])
        sheaf = build_spectral_presheaf(cc)
        vid = next(cid for cid in cc.ids() if cc.algebra(cid).dimension == 2)
        assert len(sheaf.fibers[vid]) == 2
        assert sheaf.restrict(vid, vid, 1) == 1

    def test_four_to_two_collapse(self):
        groups = [[kron(SZ, I2)], [kron(SZ, I2), kron(I2, SZ)]]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        sheaf = build_spectral_presheaf(cc)
        table = sheaf.restrictions[("V0", "V1")]
        assert sorted(table.keys()) == [0, 1, 2, 3]
        assert sorted(table.values()) == [0, 0, 1, 1]
        z1 = kron(SZ, I2)
        for i, chi in enumerate(sheaf.fibers["V1"]):
            target = sheaf.fibers["V0"][table[i]]
            assert abs(chi.value_of(z1) - target.value_of(z1)) < 1e-9

    def test_chain_restrictions_compose(self):
        groups = [
            [kron(SZ, I2)],
            [kron(SZ, I2), kron(I2, SZ)],
        ]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        sheaf = build_spectral_presheaf(cc)
        assert check_presheaf(sheaf).ok  # exhaustive over all chains incl. the trivial context

    def test_three_level_chain_composes(self):
        z0, z1, z2 = kron(SZ, I2, I2), kron(I2, SZ, I2), kron(I2, I2, SZ)
        groups = [[z0], [z0, z1], [z0, z1, z2]]
        cc = context_category_from_groups(full_matrix_algebra(8), groups)
        assert cc.leq("V0", "V1") and cc.leq("V1", "V2") and cc.leq("V0", "V2")
        sheaf = build_spectral_presheaf(cc)
        assert check_presheaf(sheaf).ok
        # composed restriction equals the direct one on each fiber point
        for i in range(len(sheaf.fibers["V2"])):
            via = sheaf.restrict("V1", "V0", sheaf.restrict("V2", "V1", i))
            assert via == sheaf.restrict("V2", "V0", i)


# ---------------------------------------------------------------------------
# global sections


def ray_key(vec) -> tuple:
    arr = np.asarray(vec, dtype=int)
    for x in arr:
        if x != 0:
            return tuple(arr * (1 if x > 0 else -1))
    raise ValueError("zero ray")


def oracle_valuation_exists(bases) -> bool:
    """Backtracking directly on rays: pick one value-1 ray per basis,
    consistently across shared rays.  Independent of the presheaf machinery."""
    keyed = [[ray_key(v) for v in basis] for basis in bases]
    assign: dict = {}

    def backtrack(i: int) -> bool:
        if i == len(keyed):
            return True
        for choice in range(len(keyed[i])):
            updates = []
            feasible = True
            for j, rk in enumerate(keyed[i]):
                val = 1 if j == choice else 0
                if rk in assign:
                    if assign[rk] != val:
                        feasible = False
                        break
                else:
                    assign[rk] = val
                    updates.append(rk)
            if feasible and backtrack(i + 1):
                return True
            for rk in updates:
                del assign[rk]
        return False

    return backtrack(0)


class TestGlobalSections:
    def test_single_chain_has_two_sections(self):
        cc = context_category(full_matrix_algebra(2), [SZ])
        sheaf = build_spectral_presheaf(cc)
        assert len(global_sections(sheaf)) == 2

    def test_unconstrained_family_counts_product(self):
        cc = context_category(full_matrix_algebra(2), [SZ, SX])
        sheaf = build_spectral_presheaf(cc)
        sections = global_sections(sheaf)
        assert len(sections) == 4  # fibers 2 x 2, only the trivial overlap

    def test_section_limit_respected(self):
        cc = context_category(full_matrix_algebra(2), [SZ, SX])
        sheaf = build_spectral_presheaf(cc)
        assert len(global_sections(sheaf, limit=3)) == 3

    def test_bundled_rays_are_a_valid_fixture(self):
        dim, bases = load_ray_fixture(bundled_fixture("cabello18.json"))
        assert dim == 4 and len(bases) == 9
        occurrences: dict = {}
        for basis in bases:
            assert len(basis) == 4
            for u, v in itertools.combinations(basis, 2):
                assert abs(np.dot(u, v)) < 1e-12  # bases really orthogonal
            for v in basis:
                occurrences[ray_key(v)] = occurrences.get(ray_key(v), 0) + 1
        assert len(occurrences) == 18
        # parity core: every ray sits in an even number of bases while the
        # number of bases is odd, so no one-per-basis valuation can exist
        assert all(n == 2 for n in occurrences.values())
        assert len(bases) % 2 == 1

    def test_bundled_rays_obstructed_matching_oracle(self):
        dim, bases = load_ray_fixture(bundled_fixture("cabello18.json"))
        assert not oracle_valuation_exists(bases)
        cc = ray_family_context_category(dim, bases)
        sheaf = build_spectral_presheaf(cc)
        assert global_sections(sheaf, limit=1) == []

    def test_subfamily_admits_sections_matching_oracle(self):
        dim, bases = load_ray_fixture(bundled_fixture("cabello18.json"))
        sub = bases[:4]
        assert oracle_valuation_exists(sub)
        cc = ray_family_context_category(dim, sub)
        sheaf = build_spectral_presheaf(cc)
        assert len(global_sections(sheaf, limit=1)) == 1

    def test_dimension_two_families_always_have_sections(self, rng):
        for _ in range(5):
            seeds = [np.array([[a, b], [np.conj(b), -a]]) for a, b in
                     ((rng.standard_normal(), rng.standard_normal() + 1j * rng.standard_normal()) for _ in range(3))]
            cc = context_category(full_matrix_algebra(2), seeds)
            sheaf = build_spectral_presheaf(cc)
            assert len(global_sections(sheaf, limit=1)) >= 1


# ---------------------------------------------------------------------------
# daseinisation


class TestDaseinisation:
    def test_projection_already_in_context(self):
        v = generate_algebra([SZ], 2)
        p = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(outer_daseinisation(p, v), p)
        assert np.allclose(inner_daseinisation(p, v), p)

    def test_plus_projection_in_z_context(self):
        v = generate_algebra([SZ], 2)
        assert np.allclose(outer_daseinisation(PLUS, v), np.eye(2))
        assert np.allclose(inner_daseinisation(PLUS, v), np.zeros((2, 2)))

    def test_zero_and_identity(self):
        v = generate_algebra([SZ], 2)
        assert np.allclose(outer_daseinisation(np.zeros((2, 2)), v), np.zeros((2, 2)))
        assert np.allclose(inner_daseinisation(np.eye(2), v), np.eye(2))

    def test_sandwich_and_monotonicity(self, rng):
        for d in (2, 3, 4):
            u = random_unitary(rng, d)
            diag = [np.diag([1.0 if i == j else -1.0 for i in range(d)]) for j in range(d - 1)]
            fine = generate_algebra([u @ m.astype(complex) @ u.conj().T for m in diag], d)
            coarse = generate_algebra([u @ diag[0].astype(complex) @ u.conj().T], d)
            for _ in range(5):
                p = random_projection(rng, d, rng.integers(1, d))
                outer_f = outer_daseinisation(p, fine)
                outer_c = outer_daseinisation(p, coarse)
                inner_f = inner_daseinisation(p, fine)
                inner_c = inner_daseinisation(p, coarse)
                assert np.linalg.eigvalsh(outer_f - p).min() > -1e-9
                assert np.linalg.eigvalsh(p - inner_f).min() > -1e-9
                # coarser context, cruder approximation
                assert np.linalg.eigvalsh(outer_c - outer_f).min() > -1e-9
                assert np.linalg.eigvalsh(inner_f - inner_c).min() > -1e-9

    def test_non_projection_rejected(self):
        v = generate_algebra([SZ], 2)
        with pytest.raises(DomainError):
            outer_daseinisation(SX, v)


class TestOperatorInterval:
    def test_operator_in_context_degenerate(self):
        v = generate_algebra([SZ], 2)
        chars = gelfand_spectrum(v)
        a = 2.0 * SZ + np.eye(2)
        for chi in chars:
            lo, hi = operator_interval(a, v, chi, chars)
            assert abs(lo - hi) < 1e-9
            assert abs(lo - chi.value_of(a).real) < 1e-9

    def test_sigma_x_in_z_context_full_interval(self):
        # hand oracle: both spectral projections of sigma_x overlap both
        # z-eigenlines, so the outer step function jumps only at +1 and the
        # inner one already at -1
        v = generate_algebra([SZ], 2)
        chars = gelfand_spectrum(v)
        for chi in chars:
            assert operator_interval(SX, v, chi, chars) == (-1.0, 1.0)

    def test_identity_interval(self):
        v = generate_algebra([SZ], 2)
        chars = gelfand_spectrum(v)
        lo, hi = operator_interval(np.eye(2), v, chars[0], chars)
        assert abs(lo - 1.0) < 1e-9 and abs(hi - 1.0) < 1e-9

    def test_interval_contains_character_value(self, rng):
        v = generate_algebra([kron(SZ, I2), kron(I2, SZ)], 4)
        chars = gelfand_spectrum(v)
        coeffs = rng.standard_normal(4)
        a = sum(c * b for c, b in zip(coeffs, v.basis))
        a = (a + a.conj().T) / 2
        for chi in chars:
            lo, hi = operator_interval(a, v, chi, chars)
            val = chi.value_of(a).real
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_endpoints_lie_on_eigenvalue_grid(self, rng):
        v = generate_algebra([SZ], 2)
        chars = gelfand_spectrum(v)
        a = np.array([[0.3, 0.7], [0.7, -1.2]], dtype=complex)
        eigs = np.linalg.eigvalsh(a)
        for chi in chars:
            lo, hi = operator_interval(a, v, chi, chars)
            assert min(abs(lo - w) for w in eigs) < 1e-9
            assert min(abs(hi - w) for w in eigs) < 1e-9

    def test_non_selfadjoint_rejected(self):
        v = generate_algebra([SZ], 2)
        with pytest.raises(DomainError):
            operator_interval(np.array([[0, 1], [0, 0]]), v, gelfand_spectrum(v)[0])


# ---------------------------------------------------------------------------
# frames


class TestFrames:
    def test_powerset_frame_is_frame(self):
        assert check_frame(powerset_frame([1, 2, 3])).ok

    def test_identity_frame_hom(self):
        frame = powerset_frame([1, 2])
        fm = FrameMap(frame, frame, {e: e for e in frame.elements})
        assert check_frame_hom(fm).ok

    def test_preimage_map_is_frame_hom(self):
        fm = preimage_frame_map({0: "a", 1: "a", 2: "b"}, [0, 1, 2], ["a", "b"])
        assert check_frame_hom(fm).ok

    def test_join_breaking_map_reported(self):
        frame = powerset_frame([1, 2])
        mapping = {e: e for e in frame.elements}
        mapping[frozenset({1, 2})] = frozenset({1})  # join of {1},{2} now lands too low
        fm = FrameMap(frame, frame, mapping)
        report = check_frame_hom(fm)
        assert any(v.kind == "framehom.join" for v in report.violations)
        assert any(v.kind == "framehom.top" for v in report.violations)

    def test_non_lattice_rejected(self):
        from ctxlab.errors import InputError

        with pytest.raises(InputError):
            FiniteFrame.from_leq(["a", "b"], set())  # two incomparable points, no top


def test_rays_to_projectors_normalizes():
    (p,) = rays_to_projectors([np.array([2.0, 0.0])])
    assert np.allclose(p, np.diag([1.0, 0.0]))


@pytest.mark.parametrize(
    "vector, message",
    [
        ([1, True, 0], "has a boolean coordinate"),
        ([1.0, float("nan"), 0], "has a non-finite coordinate"),
        ([float("-inf"), 0, 0], "has a non-finite coordinate"),
    ],
)
def test_ray_fixture_refuses_booleans_and_non_finite_coordinates(vector, message):
    from ctxlab.errors import InputError

    data = {"dim": 3, "bases": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 1], [0, 1, -1], vector]]}
    with pytest.raises(InputError, match=f"basis 1, vector 2 of the ray fixture {message}"):
        load_ray_fixture(data)


@pytest.mark.parametrize("dim", [True, 2.5, float("inf"), float("nan"), "2"])
def test_ray_fixture_refuses_a_dimension_that_is_not_a_whole_number(dim):
    from ctxlab.errors import InputError

    with pytest.raises(InputError):
        load_ray_fixture({"dim": dim, "bases": [[[1, 0], [0, 1]]]})
    assert load_ray_fixture({"dim": 2.0, "bases": [[[1, 0], [0, 1]]]})[0] == 2
