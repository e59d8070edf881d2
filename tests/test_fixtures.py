import collections
import itertools

import numpy as np
import pytest

from conftest import leg_labels
from ctxlab.fincat import check_cone, check_diagram
from ctxlab.fixtures import (
    ALL_FIXTURES,
    covariant_square_fixture,
    extension_triangle_fixture,
    spectrum_coarsening_fixture,
    weyl_inclusion_fixture,
)
from ctxlab.presheaf import (
    build_spectral_presheaf,
    bundled_fixture,
    global_sections,
    load_ray_fixture,
    ray_family_context_category,
)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_fixture_cone_commutes(name):
    fixture = ALL_FIXTURES[name](False)
    assert check_diagram(fixture.diagram).ok
    assert check_cone(fixture.cone, fixture.diagram).ok


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_corrupted_fixture_fails_with_located_violation(name):
    fixture = ALL_FIXTURES[name](True)
    report = check_cone(fixture.cone, fixture.diagram)
    assert not report.ok
    assert all(v.kind == "cone.triangle" for v in report.violations)
    # each message locates the failing arrow and apex element
    assert all("leg(" in v.message and "at apex element" in v.message for v in report.violations)


def test_extension_triangle_is_the_limit_cone():
    from ctxlab.fincat import check_universal_property, enumerate_cones

    fixture = extension_triangle_fixture()
    cones = enumerate_cones(fixture.diagram, 1)
    assert check_universal_property(fixture.cone, fixture.diagram, cones)


def test_corrupted_square_diagram_is_still_a_functor():
    fixture = covariant_square_fixture(True)
    assert check_diagram(fixture.diagram).ok


def test_coarsening_leg_is_a_section():
    fixture = spectrum_coarsening_fixture()
    res = fixture.diagram.maps["fine<=coarse"]
    fine_leg = leg_labels(fixture.diagram, fixture.cone)["fine"]
    for i in fixture.cone.apex:
        assert res[fine_leg[i]] == i


def test_weyl_fixture_carries_presentations():
    fixture = weyl_inclusion_fixture()
    assert set(fixture.diagram.carriers) == {"Sk", "Sl"}
    assert len(fixture.cone.apex) == 2


def canonical_ray(vec) -> tuple:
    """An integer vector as a ray: its first nonzero entry made positive."""
    vec = tuple(int(x) for x in vec)
    lead = next(x for x in vec if x)
    return vec if lead > 0 else tuple(-x for x in vec)


def peres24_rays() -> list:
    """The sign and permutation patterns of 1000, 1100 and 1111, as sorted rays."""
    rays = set()
    for pattern in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for perm in set(itertools.permutations(pattern)):
            for signs in itertools.product((1, -1), repeat=4):
                rays.add(canonical_ray(p * s for p, s in zip(perm, signs)))
    return sorted(rays)


def peres24_tetrads() -> list:
    """The orthogonal tetrads of the Peres rays, found by enumeration, in
    lexicographic order."""
    return [
        t
        for t in itertools.combinations(peres24_rays(), 4)
        if all(sum(x * y for x, y in zip(a, b)) == 0 for a, b in itertools.combinations(t, 2))
    ]


class TestPeresFixture:
    """The bundled ``peres24.json`` against the enumeration of Peres' rays
    and their orthogonal tetrads."""

    PERES = bundled_fixture("peres24.json")

    def test_24_distinct_integer_rays(self):
        rays = [tuple(v) for basis in self.PERES["bases"] for v in basis]
        assert all(type(x) is int for ray in rays for x in ray)
        assert sorted(set(rays)) == peres24_rays()
        assert len(set(rays)) == 24

    def test_24_orthogonal_tetrads_in_the_file_order(self):
        bases = [tuple(tuple(v) for v in basis) for basis in self.PERES["bases"]]
        assert self.PERES["dim"] == 4
        assert bases == peres24_tetrads()
        assert len(bases) == 24
        for t in bases:
            assert len(t) == 4
            for a, b in itertools.combinations(t, 2):
                assert np.dot(a, b) == 0

    def test_every_ray_lies_in_four_tetrads(self):
        counts = collections.Counter(tuple(v) for basis in self.PERES["bases"] for v in basis)
        assert sorted(counts) == peres24_rays()
        assert set(counts.values()) == {4}

    def test_cabello18_bases_are_peres_tetrads(self):
        _, bases = load_ray_fixture(bundled_fixture("cabello18.json"))
        tetrads = {tuple(sorted(map(tuple, t))) for t in self.PERES["bases"]}
        for basis in bases:
            assert tuple(sorted(canonical_ray(v) for v in basis)) in tetrads

    def test_obstructed(self):
        dim, bases = load_ray_fixture(self.PERES)
        sheaf = build_spectral_presheaf(ray_family_context_category(dim, bases))
        assert len(sheaf.base.ids()) == 94
        assert global_sections(sheaf, limit=1) == []
