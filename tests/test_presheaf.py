import itertools

import numpy as np
import pytest

from conftest import I2, SX, SZ, kron, random_projection, random_unitary
from ctxlab.ctxext import build_limit_extension, spectrum_diagram
from ctxlab.errors import DomainError
from ctxlab.fincat import Diagram, check_diagram
from ctxlab.presheaf import (
    build_spectral_presheaf,
    bundled_fixture,
    global_sections,
    inner_daseinisation,
    load_ray_fixture,
    outer_daseinisation,
    ray_family_context_category,
)
from ctxlab.staralg import (
    context_category,
    context_category_from_groups,
    full_matrix_algebra,
    generate_algebra,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)


# ---------------------------------------------------------------------------
# presheaf structure


def restriction_diagram(cc) -> Diagram:
    """The spectra with their restriction maps, as a diagram whose functor
    laws (``check_diagram``) are the presheaf laws."""
    return spectrum_diagram(build_limit_extension(cc), with_restrictions=True)


class TestBuildPresheaf:
    def test_single_context_identity_restriction(self):
        cc = context_category_from_groups(full_matrix_algebra(2), [[SZ]])
        sheaf = build_spectral_presheaf(cc)
        vid = next(cid for cid in cc.ids() if cc.algebra(cid).dimension == 2)
        assert len(sheaf.fibers[vid]) == 2
        diagram = restriction_diagram(cc)
        assert diagram.map_of(diagram.index.identities[vid]) == {0: 0, 1: 1}

    def test_four_to_two_collapse(self):
        groups = [[kron(SZ, I2)], [kron(SZ, I2), kron(I2, SZ)]]
        cc = context_category_from_groups(full_matrix_algebra(4), groups)
        sheaf = build_spectral_presheaf(cc)
        table = sheaf.restrictions[("V0", "V1")]
        assert list(range(len(table))) == [0, 1, 2, 3]
        assert sorted(table) == [0, 0, 1, 1]
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
        assert check_diagram(restriction_diagram(cc)).ok  # exhaustive over all chains incl. the trivial context

    def test_three_level_chain_composes(self):
        z0, z1, z2 = kron(SZ, I2, I2), kron(I2, SZ, I2), kron(I2, I2, SZ)
        groups = [[z0], [z0, z1], [z0, z1, z2]]
        cc = context_category_from_groups(full_matrix_algebra(8), groups)
        assert cc.leq("V0", "V1") and cc.leq("V1", "V2") and cc.leq("V0", "V2")
        diagram = restriction_diagram(cc)
        assert check_diagram(diagram).ok
        # one table corrupted: the chain through it no longer composes
        maps = dict(diagram.maps)
        maps["V2<=V0"] = {i: 1 - j for i, j in maps["V2<=V0"].items()}
        report = check_diagram(Diagram(diagram.index, diagram.carriers, maps))
        assert report.violations and {v.kind for v in report.violations} == {"diagram.compose"}
        # composed restriction equals the direct one on each fiber point
        tables = build_spectral_presheaf(cc).restrictions
        for i in range(len(cc.spectra["V2"])):
            assert tables[("V0", "V1")][tables[("V1", "V2")][i]] == tables[("V0", "V2")][i]


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


def test_a_split_family_normalizes_its_rays():
    """An incomplete basis of unnormalized rays is split from the
    projectors of its unit rays."""
    cc = ray_family_context_category(3, [[[3.0, 4.0j, 0.0], [0.0, 0.0, 0.5]]])
    unit = np.array([0.6, 0.8j, 0.0])
    projections = [chi.projection for chi in cc.spectra["V0"]]
    assert sorted(chi.rank for chi in cc.spectra["V0"]) == [1, 1, 1]
    assert any(np.allclose(p, np.outer(unit, unit.conj()), atol=1e-12) for p in projections)
    assert any(np.allclose(p, np.diag([0.0, 0.0, 1.0]), atol=1e-12) for p in projections)



@pytest.mark.parametrize("scale", [1e-100, -3.0, 1e100j])
def test_a_split_family_does_not_depend_on_the_scale_of_its_rays(scale):
    basis = [[3.0, 4.0j, 0.0], [0.0, 0.0, 0.5]]
    unit = ray_family_context_category(3, [basis])
    scaled = ray_family_context_category(3, [[[scale * x for x in v] for v in basis]])
    assert scaled.ids() == unit.ids()
    for cid in unit.ids():
        assert len(scaled.spectra[cid]) == len(unit.spectra[cid])
        for a, b in zip(scaled.spectra[cid], unit.spectra[cid]):
            assert np.allclose(a.projection, b.projection, atol=1e-12)

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
