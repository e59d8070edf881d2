"""Differential tests of the constraint engine, the table-driven sign search
and the whole-array carrier views against the implementations they replaced.

The references below are those implementations, frozen: plain
backtracking for global sections and limits, one quadratic form per flat
sign vector for the sign search, and per-point loops for the carrier's
component arrays and its JSON view.  Outputs must be identical, in
identical order, and minima bitwise equal.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, SX, SY, SZ, kron, random_density
from ctxlab import realism
from ctxlab.ctxext import build_limit_extension, extend_state, state_to_json
from ctxlab.fincat import Diagram, FinCategory, limit_of_diagram, solve_constraints
from ctxlab.fixtures import peres24_fixture
from ctxlab.presheaf import (
    GlobalSection,
    build_spectral_presheaf,
    global_sections,
    load_ray_fixture,
    ray_family_context_category,
)
from ctxlab.realism import (
    CarrierObservable,
    MatrixObservable,
    MeasureProvider,
    ObservableFamily,
    ObservableGroup,
    QuantumProvider,
    search_signs,
)
from ctxlab.staralg import context_category, full_matrix_algebra

# ---------------------------------------------------------------------------
# frozen references


def reference_global_sections(p, limit=None) -> list:
    ids = p.base.ids()
    degree = {cid: 0 for cid in ids}
    for sub, sup in p.base.strict_pairs():
        degree[sub] += 1
        degree[sup] += 1
    order = sorted(ids, key=lambda cid: (-degree[cid], cid))
    position = {cid: i for i, cid in enumerate(order)}
    constraints: list = [[] for _ in order]
    for sub, sup in p.base.strict_pairs():
        table = p.restrictions[(sub, sup)]
        i, j = position[sup], position[sub]
        if i > j:
            constraints[i].append(lambda cur, partial, t=table, jj=j: t[cur] == partial[jj])
        else:
            constraints[j].append(lambda cur, partial, t=table, ii=i: t[partial[ii]] == cur)
    sections: list = []
    partial: list = [None] * len(order)

    def extend(i: int) -> bool:
        if i == len(order):
            sections.append(GlobalSection({cid: partial[position[cid]] for cid in ids}))
            return limit is not None and len(sections) >= limit
        for choice in range(len(p.fibers[order[i]])):
            partial[i] = choice
            if all(c(choice, partial) for c in constraints[i]):
                if extend(i + 1):
                    return True
        partial[i] = None
        return False

    extend(0)
    return sections


def reference_limit_families(d) -> list:
    objects = list(d.index.objects)
    position = {o: i for i, o in enumerate(objects)}
    morphs = d.index.morphisms()
    idents = set(d.index.identities.values())
    arrows = [(m, src, dst) for m, (src, dst) in morphs.items() if m not in idents]
    ready: list = [[] for _ in objects]
    for m, src, dst in arrows:
        ready[max(position[src], position[dst])].append((d.map_of(m), position[src], position[dst]))
    families: list = []
    partial: list = [None] * len(objects)

    def extend(i: int) -> None:
        if i == len(objects):
            families.append(tuple(partial))
            return
        for x in d.carriers[objects[i]]:
            partial[i] = x
            if all(table.get(partial[ps]) == partial[pd] for table, ps, pd in ready[i]):
                extend(i + 1)
        partial[i] = None

    extend(0)
    return families


def reference_search_signs(fam, provider) -> tuple:
    corr = []
    for group in fam.groups:
        obs = group.observables()
        mat = np.zeros((group.size, group.size))
        for i, oi in enumerate(obs):
            for j, oj in enumerate(obs):
                mat[i, j] = provider.correlation(oi, oj)
        corr.append(mat)
    best_signs = None
    best_value = None
    for flat in itertools.product((1, -1), repeat=fam.total):
        value = 0.0
        pos = 0
        for group, mat in zip(fam.groups, corr):
            s = np.array(flat[pos : pos + group.size], dtype=float)
            value += float(s @ mat @ s)
            pos += group.size
        if best_value is None or value < best_value - 1e-15:
            best_value = value
            best_signs = flat
    return list(best_signs), float(best_value)


def reference_state_to_json(mu) -> dict:
    return {
        "weights": [float(np.round(w, 14)) for w in mu.weights],
        "marginals": {
            cid: [float(np.round(x, 14)) for x in marg] for cid, marg in mu.marginals.items()
        },
    }


def assert_same_signs(found, expected):
    (signs, minimum), (ref_signs, ref_minimum) = found, expected
    assert signs == ref_signs
    assert all(type(s) is int for s in signs)
    assert type(minimum) is float
    assert minimum.hex() == ref_minimum.hex()


# ---------------------------------------------------------------------------
# global sections on Peres sub-families

PERES = load_ray_fixture(peres24_fixture())


def peres_sheaf(indices):
    dim, bases = PERES
    cc = ray_family_context_category(dim, [bases[i] for i in indices])
    return build_spectral_presheaf(cc)


class TestGlobalSectionsOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        indices=st.lists(st.integers(0, 23), min_size=1, max_size=7, unique=True),
        limit=st.sampled_from([None, 0, 1, 2, 8]),
    )
    def test_peres_subfamilies(self, indices, limit):
        sheaf = peres_sheaf(sorted(indices))
        found = [s.assignment for s in global_sections(sheaf, limit=limit)]
        expected = [s.assignment for s in reference_global_sections(sheaf, limit=limit)]
        assert found == expected

    def test_first_sections_of_a_large_subfamily(self):
        # 12 bases of the Peres set: satisfiable, and the first eight
        # sections must be the ones plain backtracking finds first
        sheaf = peres_sheaf([0, 2, 3, 5, 7, 8, 11, 13, 16, 17, 20, 22])
        found = [s.assignment for s in global_sections(sheaf, limit=8)]
        assert found == [s.assignment for s in reference_global_sections(sheaf, limit=8)]

    @pytest.mark.parametrize("limit", [None, 0, 1])
    def test_limits_on_a_free_family(self, limit):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SX), kron(SX, SX)])
        sheaf = build_spectral_presheaf(cc)
        found = [s.assignment for s in global_sections(sheaf, limit=limit)]
        assert found == [s.assignment for s in reference_global_sections(sheaf, limit=limit)]
        assert len(found) == (8 if limit is None else 1)


# ---------------------------------------------------------------------------
# limits of random small diagrams

VALUES = [0, 1, 2, "a", "b", (0, 1), 2.5]
MISSING = object()


@st.composite
def small_diagrams(draw):
    n = draw(st.integers(0, 4))
    objects = [f"o{i}" for i in range(n)]
    # carriers may be empty and may repeat an element
    carriers = {o: draw(st.lists(st.sampled_from(VALUES), max_size=4)) for o in objects}
    homs = {(o, o): [f"id_{o}"] for o in objects}
    maps = {}
    for k in range(draw(st.integers(0, 6)) if n else 0):
        src = draw(st.sampled_from(objects))
        dst = draw(st.sampled_from(objects))  # may equal src: an endomorphism
        label = f"m{k}"
        homs.setdefault((src, dst), []).append(label)  # repeats give parallel arrows
        table = {}
        for x in carriers[src]:
            image = draw(st.sampled_from(carriers[dst] + [MISSING]))
            if image is not MISSING:  # a partial table
                table[x] = image
        maps[label] = table
    index = FinCategory(objects, homs, {}, {o: f"id_{o}" for o in objects})
    return Diagram(index, carriers, maps)


class TestLimitOracle:
    @settings(max_examples=200, deadline=None)
    @given(d=small_diagrams())
    def test_random_diagrams(self, d):
        cone = limit_of_diagram(d)
        expected = reference_limit_families(d)
        assert cone.apex == expected
        for pos, o in enumerate(d.index.objects):
            assert cone.legs[o] == {fam: fam[pos] for fam in expected}

    def test_no_objects_give_one_empty_family(self):
        d = Diagram(FinCategory([], {}, {}, {}), {})
        assert limit_of_diagram(d).apex == [()] == reference_limit_families(d)

    def test_empty_carrier_gives_empty_apex(self):
        d = Diagram(FinCategory(["p", "q"], {("p", "p"): ["id_p"], ("q", "q"): ["id_q"]}, {},
                                {"p": "id_p", "q": "id_q"}), {"p": [1, 2], "q": []})
        assert limit_of_diagram(d).apex == [] == reference_limit_families(d)

    @pytest.mark.parametrize("limit", [None, 0, 1, 2])
    def test_engine_limit(self, limit):
        domains = [[0, 1, 2], ["x", "y"]]
        everything = solve_constraints(domains, [])
        assert everything == list(itertools.product(*domains))
        found = solve_constraints(domains, [], limit)
        assert found == everything[: len(found)]
        assert len(found) == (len(everything) if limit is None else max(limit, 1))


# ---------------------------------------------------------------------------
# sign search with exact ties

# the rows of the 8 x 8 Hadamard matrix: uncorrelated under uniform weights
WALSH = [np.array([(-1.0) ** bin(i & j).count("1") for j in range(8)]) for i in range(8)]
PAULIS2 = [kron(a, b) for a in (I2, SX, SY, SZ) for b in (I2, SX, SY, SZ)][1:]


@st.composite
def tied_families(draw):
    sizes = draw(st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=5))
    while sum(sizes) > 11:
        sizes.pop()
    quantum = draw(st.booleans())
    pool = PAULIS2 if quantum else WALSH
    # a small pool makes repeated observables, hence exact ties, common
    picks = draw(st.lists(st.integers(0, 3), min_size=sum(sizes), max_size=sum(sizes)))
    groups, pos = [], 0
    for size in sizes:
        split = draw(st.integers(0, size))
        obs = [
            MatrixObservable(pool[i]) if quantum else CarrierObservable(pool[i])
            for i in picks[pos : pos + size]
        ]
        groups.append(ObservableGroup(obs[:split], obs[split:]))
        pos += size
    fam = ObservableFamily(groups)
    if quantum:
        mixed = draw(st.booleans())  # the maximally mixed state zeroes most correlations
        rho = np.eye(4) / 4.0 if mixed else random_density(np.random.default_rng(draw(st.integers(0, 9))), 4)
        provider = QuantumProvider(rho)
    else:
        uniform = draw(st.booleans())  # uniform weights make Walsh functions uncorrelated
        weights = np.full(8, 1 / 8) if uniform else np.random.default_rng(draw(st.integers(0, 9))).random(8)
        provider = MeasureProvider(weights / weights.sum())
    return fam, provider


class TestSignSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=tied_families())
    def test_tied_families(self, case):
        fam, provider = case
        assert_same_signs(search_signs(fam, provider), reference_search_signs(fam, provider))

    @pytest.mark.parametrize("chunk", [1, 4, 64])
    @settings(max_examples=20, deadline=None)
    @given(case=tied_families())
    def test_scan_across_chunk_boundaries(self, chunk, case):
        fam, provider = case
        expected = reference_search_signs(fam, provider)
        saved = realism.SIGN_CHUNK
        realism.SIGN_CHUNK = chunk
        try:
            found = search_signs(fam, provider)
        finally:
            realism.SIGN_CHUNK = saved
        assert_same_signs(found, expected)


# ---------------------------------------------------------------------------
# carrier components and the state's JSON view


class TestCarrierViews:
    def test_components_and_state_json_match_the_point_loops(self, rng):
        seeds = [kron(SZ, I2), kron(I2, SZ), kron(SX, I2), kron(SX, SX)]
        cc = context_category(full_matrix_algebra(4), seeds)
        ext = build_limit_extension(cc)
        assert ext.carrier.size == 256
        for pos, cid in enumerate(ext.carrier.context_ids):
            expected = np.array([pt[pos] for pt in ext.carrier.points], dtype=int)
            assert ext.carrier.component[cid].dtype == expected.dtype
            assert np.array_equal(ext.carrier.component[cid], expected)
        mu = extend_state(random_density(rng, 4), ext)
        assert json.dumps(state_to_json(mu)) == json.dumps(reference_state_to_json(mu))
