import itertools

import numpy as np
import pytest

from conftest import leg_labels
from ctxlab.fincat import check_cone, check_diagram
from ctxlab.fixtures import (
    ALL_FIXTURES,
    canonical_ray,
    covariant_square_fixture,
    extension_triangle_fixture,
    peres24_fixture,
    peres24_rays,
    peres24_tetrads,
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


class TestPeresFixture:
    def test_rays_and_tetrads(self):
        rays, tetrads = peres24_rays(), peres24_tetrads()
        assert len(rays) == 24 and len(set(rays)) == 24
        assert len(tetrads) == 24
        for t in tetrads:
            assert set(t) <= set(rays)
            for a, b in itertools.combinations(t, 2):
                assert np.dot(a, b) == 0

    def test_cabello18_bases_are_peres_tetrads(self):
        _, bases = load_ray_fixture(bundled_fixture("cabello18.json"))
        tetrads = {tuple(sorted(t)) for t in peres24_tetrads()}
        for basis in bases:
            assert tuple(sorted(canonical_ray(v) for v in basis)) in tetrads

    def test_obstructed(self):
        dim, bases = load_ray_fixture(peres24_fixture())
        sheaf = build_spectral_presheaf(ray_family_context_category(dim, bases))
        assert len(sheaf.base.ids()) == 94
        assert global_sections(sheaf, limit=1) == []
