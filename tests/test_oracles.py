"""Differential tests of the constraint engine, the table-driven sign search,
the whole-array carrier views, the index-arithmetic carrier, the batched
character tests and the array cone oracles against the implementations they
replaced.

The references below are those implementations, frozen: plain
backtracking for global sections and limits, one quadratic form per flat
sign vector for the sign search, per-point loops for the state's JSON view,
and the point-list carrier with its component arrays, together with the
per-point marginal, point lookup and covariance loops, the restriction
diagram with its own index category and tables, and the list-based span
functions with the pairwise context-category build.  Outputs must be
identical, in identical order, and minima bitwise equal; marginals, whose
summation order changed, agree within 1e-14.
"""

import contextlib
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, SX, SY, SZ, kron, random_density, random_unitary
from ctxlab import fincat, realism, staralg
from ctxlab.ctxext import (
    build_limit_extension,
    carrier_to_json,
    embed,
    extend_state,
    marginalize_state,
    point_valuation,
    spectrum_diagram,
    state_to_json,
)
from ctxlab.errors import CapExceeded, DomainError, InputError
from ctxlab.fincat import (
    DEFAULT_SEARCH_CAP,
    Cone,
    Diagram,
    FinCategory,
    check_cone,
    check_universal_property,
    enumerate_cones,
    limit_of_diagram,
    solve_constraints,
)
from ctxlab.fixtures import peres24_fixture
from ctxlab.linalg import (
    as_matrix,
    dagger,
    intersect_spans,
    is_projection,
    is_selfadjoint,
    opnorm,
    opnorms,
    orthonormalize_span,
    span_containment,
    span_leq,
    spans_equal,
)
from ctxlab.locnet import (
    check_covariance,
    pauli_string,
    shifted_region,
    site_operator,
    standard_net,
    translation_unitary,
)
from ctxlab.presheaf import (
    GlobalSection,
    _spectral_steps,
    build_spectral_presheaf,
    global_sections,
    inner_daseinisation,
    load_ray_fixture,
    operator_interval,
    outer_daseinisation,
    ray_family_context_category,
    rays_to_projectors,
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
from ctxlab.staralg import (
    Character,
    MatrixStarAlgebra,
    _assemble_context_category,
    _characters,
    _cluster,
    _commutation_cliques,
    _commuting_bases,
    _selfadjoint_spanning,
    algebra_span_equal,
    boolean_blocks,
    context_category,
    dominating_character_index,
    dominating_projections,
    full_matrix_algebra,
    gelfand_spectra,
    gelfand_spectrum,
    generate_algebra,
    is_commutative,
    restriction_table,
)
from ctxlab.validation import ValidationReport

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


@dataclass
class ReferenceProductSpectrum:
    """All tuples of characters, one per context, in context order."""

    context_ids: list
    sizes: list
    points: list
    component: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.component:
            # points run in itertools.product order: the last context varies fastest
            for pos, cid in enumerate(self.context_ids):
                column = np.repeat(np.arange(self.sizes[pos], dtype=int), math.prod(self.sizes[pos + 1 :]))
                self.component[cid] = np.tile(column, math.prod(self.sizes[:pos]))

    @property
    def size(self) -> int:
        return len(self.points)

    def position(self, ctx_id: str) -> int:
        return self.context_ids.index(ctx_id)


def reference_carrier(ext) -> ReferenceProductSpectrum:
    ids = list(ext.carrier.context_ids)
    sizes = [len(ext.spectra[cid]) for cid in ids]
    return ReferenceProductSpectrum(ids, sizes, list(itertools.product(*[range(s) for s in sizes])))


def reference_embed_values(a, ctx_id, ext, carrier) -> np.ndarray:
    m = as_matrix(a, ext.cc.algebra(ctx_id).dim)
    char_values = np.array([chi.value_of(m) for chi in ext.spectra[ctx_id]])
    return char_values[carrier.component[ctx_id]]


def reference_weights(marginals, carrier) -> np.ndarray:
    total = np.ones(carrier.size)
    for cid in carrier.context_ids:
        total = total * marginals[cid][carrier.component[cid]]
    return total


def reference_marginal_weights(weights, carrier, sub_carrier) -> np.ndarray:
    positions = [carrier.position(c) for c in sub_carrier.context_ids]
    index = {pt: i for i, pt in enumerate(sub_carrier.points)}
    out = np.zeros(sub_carrier.size)
    for pt, w in zip(carrier.points, weights):
        out[index[tuple(pt[p] for p in positions)]] += w
    return out


def reference_point_valuation(a, v1, v2, x, ext, carrier) -> tuple:
    e1 = reference_embed_values(a, v1, ext, carrier)
    e2 = reference_embed_values(a, v2, ext, carrier)
    if isinstance(x, int):
        idx = x
    else:
        try:
            idx = carrier.points.index(tuple(x))
        except ValueError as exc:
            raise DomainError(f"point {x!r} is not in the carrier") from exc
    return complex(e1[idx]), complex(e2[idx])


def reference_dominating_character_index(chi, sub_spectrum, tol=1e-9) -> int:
    """One SVD per (fine, coarse) pair: ``projector_leq``."""
    hits = [
        i
        for i, sub in enumerate(sub_spectrum)
        if opnorm(sub.projection @ chi.projection - chi.projection) <= max(tol, 1e-8)
    ]
    if len(hits) != 1:
        raise DomainError(f"character restriction ill-defined: {len(hits)} dominating projections")
    return hits[0]


def reference_selfadjoint_spanning(basis) -> list:
    out = []
    for b in basis:
        h = (b + b.conj().T) / 2.0
        k = (b - b.conj().T) / 2.0j
        if opnorm(h) > 1e-13:
            out.append(h)
        if opnorm(k) > 1e-13:
            out.append(k)
    return out


def reference_validate_blocks(blocks, basis, tol) -> bool:
    for iso in blocks:
        p = iso @ iso.conj().T
        r = iso.shape[1]
        for b in basis:
            val = np.trace(p @ b) / r
            scale = max(1.0, opnorm(b))
            if opnorm(p @ b @ p - val * p) > max(tol, 1e-9) * scale:
                return False
    return True


def reference_enumerate_cones(d, max_apex_size, search_cap=DEFAULT_SEARCH_CAP) -> list:
    objects = list(d.index.objects)
    cones = []
    for k in range(max_apex_size + 1):
        total = 1
        for o in objects:
            total *= max(1, len(d.carriers[o])) ** k
        if total > search_cap:
            raise CapExceeded(f"cone enumeration at apex size {k}", total, search_cap)
        apex = list(range(k))
        per_object = [list(itertools.product(d.carriers[o], repeat=k)) for o in objects]
        for combo in itertools.product(*per_object):
            legs = {o: dict(zip(apex, combo[i])) for i, o in enumerate(objects)}
            cone = Cone(apex=apex, legs=legs)
            if check_cone(cone, d).ok:
                cones.append(cone)
    return cones


def reference_check_universal_property(candidate, d, cones, search_cap=DEFAULT_SEARCH_CAP) -> bool:
    objects = list(d.index.objects)
    for cone in cones:
        space = len(candidate.apex) ** len(cone.apex) if cone.apex else 1
        if space > search_cap:
            raise CapExceeded("mediating-map search", space, search_cap)
        found = 0
        for image in itertools.product(candidate.apex, repeat=len(cone.apex)):
            h = dict(zip(cone.apex, image))
            if all(candidate.legs[o][h[a]] == cone.legs[o][a] for o in objects for a in cone.apex):
                found += 1
                if found > 1:
                    break
        if found != 1:
            return False
    return True


def reference_restriction_index_category(cc) -> FinCategory:
    ids = cc.ids()
    homs: dict = {}
    identities = {}
    compose: dict = {}

    def label(a, b):
        return f"id_{a}" if a == b else f"{a}->{b}"

    def arrow(a, b):
        return a == b or cc.leq(b, a)

    for a in ids:
        identities[a] = label(a, a)
        for b in ids:
            if arrow(a, b):
                homs.setdefault((a, b), []).append(label(a, b))
    for a in ids:
        for b in ids:
            if not arrow(a, b):
                continue
            for c in ids:
                if arrow(b, c):
                    compose[(label(b, c), label(a, b))] = label(a, c)
    return FinCategory(ids, homs, compose, identities)


def reference_restriction_diagram(ext) -> Diagram:
    ids = ext.carrier.context_ids
    carriers = {cid: list(range(len(ext.spectra[cid]))) for cid in ids}
    index = reference_restriction_index_category(ext.cc)
    maps = {}
    for sub, sup in ext.cc.strict_pairs():
        table = {
            i: reference_dominating_character_index(chi, ext.spectra[sub], ext.cc.ambient.tol)
            for i, chi in enumerate(ext.spectra[sup])
        }
        maps[f"{sup}->{sub}"] = table
    return Diagram(index, carriers, maps)


def reference_check_covariance(net, shift, contexts, cyclic=True) -> ValidationReport:
    report = ValidationReport()
    u = translation_unitary(shift, net.length)
    ud = u.conj().T

    def alpha(m):
        return u @ m @ ud

    family = {region: alg for region, alg in contexts}
    targets = {}
    for region, alg in contexts:
        image = shifted_region(region, shift, net.length, cyclic)
        if image is None or image not in family:
            report.add(
                "net.covariance",
                f"context at {region.label()} has no translate in the family (orphan context)",
            )
            continue
        moved = MatrixStarAlgebra(net.dim, [alpha(b) for b in alg.basis], net.tol)
        if not algebra_span_equal(moved, family[image], net.tol):
            report.add(
                "net.covariance",
                f"translate of the context at {region.label()} differs from the context at {image.label()}",
            )
            continue
        targets[region] = image
    if not report.ok:
        return report

    ambient = full_matrix_algebra(net.dim, net.tol)
    algebras = [alg for _, alg in contexts]
    cc = _assemble_context_category(ambient, algebras, [[] for _ in contexts], seed=0)
    ids_by_region = {}
    for region, alg in contexts:
        for cid in cc.ids():
            if algebra_span_equal(cc.algebra(cid), alg, net.tol):
                ids_by_region[region] = cid
                break
    ext = build_limit_extension(cc)
    carrier = reference_carrier(ext)
    positions = {cid: carrier.position(cid) for cid in carrier.context_ids}

    char_maps = {}
    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        table = {}
        for i, chi in enumerate(ext.spectra[cid]):
            moved = alpha(chi.projection)
            hits = [
                j
                for j, tchi in enumerate(ext.spectra[tid])
                if opnorm(moved - tchi.projection) <= max(net.tol, 1e-8)
            ]
            if len(hits) != 1:
                report.add(
                    "net.covariance",
                    f"character {i} of the context at {region.label()} has no unique translate",
                )
            else:
                table[i] = hits[0]
        char_maps[region] = table
    if not report.ok:
        return report

    point_index = {pt: k for k, pt in enumerate(carrier.points)}

    def moved_point(pt):
        out = list(pt)
        for region, image in targets.items():
            cid, tid = ids_by_region[region], ids_by_region[image]
            out[positions[tid]] = char_maps[region][pt[positions[cid]]]
        return tuple(out)

    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        for b_idx, b in enumerate(cc.algebra(cid).basis):
            before = reference_embed_values(b, cid, ext, carrier)
            after = reference_embed_values(alpha(b), tid, ext, carrier)
            for pt in carrier.points:
                lhs = after[point_index[moved_point(pt)]]
                rhs = before[point_index[pt]]
                if abs(lhs - rhs) > max(net.tol, 1e-8):
                    report.add(
                        "net.covariance",
                        f"extension automorphism fails on basis element {b_idx} of context at {region.label()}",
                    )
                    break
    return report


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
        carrier = reference_carrier(ext)
        for cid in ext.carrier.context_ids:
            for b in cc.algebra(cid).basis:
                values = embed(b, cid, ext).values
                expected = reference_embed_values(b, cid, ext, carrier)
                assert values.dtype == expected.dtype
                assert np.array_equal(values, expected)
        mu = extend_state(random_density(rng, 4), ext)
        assert np.array_equal(mu.weights, reference_weights(mu.marginals, carrier))
        assert json.dumps(state_to_json(mu)) == json.dumps(reference_state_to_json(mu))


# ---------------------------------------------------------------------------
# the index-arithmetic carrier against the point-list carrier


@st.composite
def seed_families(draw):
    """Pauli seeds in dimension 4, or projections diagonal in one of two
    random frames in dimension 2-4 (so some commute and some do not)."""
    if draw(st.booleans()):
        dim = 4
        seeds = [PAULIS2[i] for i in draw(st.lists(st.integers(0, 14), min_size=1, max_size=4, unique=True))]
    else:
        dim = draw(st.integers(2, 4))
        frame_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        frames = [random_unitary(frame_rng, dim) for _ in range(2)]
        seeds = []
        for _ in range(draw(st.integers(1, 4))):
            u = frames[draw(st.integers(0, 1))]
            support = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
            p = u @ np.diag([1.0 + 0j if k in support else 0j for k in range(dim)]) @ u.conj().T
            seeds.append((p + p.conj().T) / 2.0)
    cc = context_category(full_matrix_algebra(dim), seeds)
    return cc, np.random.default_rng(draw(st.integers(0, 99)))


class TestIndexCarrierOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=seed_families(), data=st.data())
    def test_views_match_the_point_list_carrier(self, case, data):
        cc, rng = case
        ext = build_limit_extension(cc)
        carrier = reference_carrier(ext)
        ids = ext.carrier.context_ids
        assert ext.carrier.size == carrier.size
        assert ext.carrier.points == carrier.points
        for cid in ids:
            for b in cc.algebra(cid).basis:
                values = embed(b, cid, ext).values
                expected = reference_embed_values(b, cid, ext, carrier)
                assert values.dtype == expected.dtype
                assert np.array_equal(values, expected)

        mu = extend_state(random_density(rng, cc.ambient.dim), ext)
        expected = reference_weights(mu.marginals, carrier)
        assert mu.weights.dtype == expected.dtype
        assert np.array_equal(mu.weights, expected)

        sub_ids = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
        sub_ext = ext.restricted(sub_ids)
        pushed = marginalize_state(mu, ext, sub_ext)
        expected = reference_marginal_weights(mu.weights, carrier, reference_carrier(sub_ext))
        assert pushed.weights.shape == expected.shape
        assert np.max(np.abs(pushed.weights - expected)) <= 1e-14

        records = carrier_to_json(ext)
        assert records == [dict(zip(ids, pt)) for pt in carrier.points]
        assert json.dumps(records) == json.dumps([dict(zip(ids, pt)) for pt in carrier.points])

    @settings(max_examples=40, deadline=None)
    @given(case=seed_families(), data=st.data())
    def test_point_lookup_matches_the_point_list(self, case, data):
        cc, _ = case
        ext = build_limit_extension(cc)
        carrier = reference_carrier(ext)
        ids = ext.carrier.context_ids
        v1 = data.draw(st.sampled_from(ids))
        a = data.draw(st.sampled_from(cc.algebra(v1).basis))
        v2 = data.draw(st.sampled_from([cid for cid in ids if cc.algebra(cid).contains(a)]))
        for _ in range(5):
            x = data.draw(st.integers(0, carrier.size - 1))
            assert point_valuation(a, v1, v2, x, ext) == reference_point_valuation(a, v1, v2, x, ext, carrier)
            n = len(ids)
            pt = tuple(data.draw(st.lists(st.integers(-1, max(carrier.sizes)), min_size=n - 1, max_size=n + 1)))
            try:
                expected = reference_point_valuation(a, v1, v2, pt, ext, carrier)
            except DomainError:
                with pytest.raises(DomainError):
                    point_valuation(a, v1, v2, pt, ext)
            else:
                assert point_valuation(a, v1, v2, pt, ext) == expected

    @settings(max_examples=40, deadline=None)
    @given(case=seed_families())
    def test_restriction_diagram_matches_its_own_build(self, case):
        cc, _ = case
        ext = build_limit_extension(cc)
        found = spectrum_diagram(ext, with_restrictions=True)
        expected = reference_restriction_diagram(ext)
        assert found.index.objects == expected.index.objects
        assert list(found.index.homs) == list(expected.index.homs)
        assert found.carriers == expected.carriers
        for key, labels in expected.index.homs.items():
            assert len(found.index.homs[key]) == len(labels)
            assert [found.map_of(m) for m in found.index.homs[key]] == [expected.map_of(m) for m in labels]
        assert limit_of_diagram(found).apex == limit_of_diagram(expected).apex


@functools.lru_cache(maxsize=None)
def chain(length):
    return standard_net(length)


def covariance_family(net, kind) -> list:
    """Z on every site; X on site 0 instead; one site left out (an orphan);
    or Z on every site plus Z, Z on every pair of neighbouring sites."""

    def context(ops):
        return generate_algebra(ops, net.dim, net.tol, dim_cap=net.dim)

    sites = [r for r in net.regions() if r.start == r.stop]
    family = [
        (r, context([site_operator(SX if kind == "mixed" and r.start == 0 else SZ, r.start, net.length)]))
        for r in sites
    ]
    if kind == "orphan":
        family = family[:-1]
    if kind == "two-site":
        family += [
            (r, context([site_operator(SZ, r.start, net.length), site_operator(SZ, r.stop, net.length)]))
            for r in net.regions()
            if r.stop == r.start + 1
        ]
    return family


class TestCovarianceOracle:
    @pytest.mark.parametrize("kind", ["sites", "mixed", "orphan", "two-site"])
    @pytest.mark.parametrize("shift", [0, 1, 2, 3])
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_messages_match_the_point_loop(self, length, shift, kind):
        net = chain(length)
        family = covariance_family(net, kind)
        found = [str(v) for v in check_covariance(net, shift, family).violations]
        expected = [str(v) for v in reference_check_covariance(net, shift, family).violations]
        assert found == expected


# ---------------------------------------------------------------------------
# the row-matrix span format and the one containment matrix against the
# list-based span functions and the pairwise category build


def reference_orthonormalize_span(mats, tol=1e-9) -> list:
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        return []
    d = mats[0].shape[0]
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    keep = s > max(tol, 1e-13) * s[0]
    return [vh[i].reshape(d, d) for i in range(len(s)) if keep[i]]


def reference_max_span_residual(mats, ortho_basis) -> float:
    if not mats:
        return 0.0
    v = np.stack([m.reshape(-1) for m in mats])
    scales = np.maximum(1.0, np.linalg.norm(v, axis=1))
    if not ortho_basis:
        return float((np.linalg.norm(v, axis=1) / scales).max())
    q = np.stack([b.reshape(-1) for b in ortho_basis])
    r = v - (v @ q.conj().T) @ q
    return float((np.linalg.norm(r, axis=1) / scales).max())


def reference_span_leq(sub, sup_ortho, tol=1e-9) -> bool:
    return reference_max_span_residual(sub, sup_ortho) <= tol


def reference_spans_equal(ortho_a, ortho_b, tol=1e-9) -> bool:
    if len(ortho_a) != len(ortho_b):
        return False
    return reference_span_leq(ortho_a, ortho_b, tol) and reference_span_leq(ortho_b, ortho_a, tol)


def reference_intersect_spans(ortho_a, ortho_b, tol=1e-9) -> list:
    """The list-based intersection with its conjugate removed: the rows of
    ``qa`` combine as ``u[:, i] @ qa``, not ``u[:, i].conj() @ qa``."""
    if not ortho_a or not ortho_b:
        return []
    d = ortho_a[0].shape[0]
    qa = np.stack([m.reshape(-1) for m in ortho_a])
    qb = np.stack([m.reshape(-1) for m in ortho_b])
    u, s, vh = np.linalg.svd(qa.conj() @ qb.T)
    vecs = []
    for i, sv in enumerate(s):
        if sv >= 1.0 - max(tol, 1e-12):
            vecs.append((u[:, i] @ qa).reshape(d, d))
    return reference_orthonormalize_span(vecs, tol) if vecs else []


def reference_batched_products(basis) -> list:
    n = len(basis)
    d = basis[0].shape[0]
    stack = np.stack(basis)
    chunk = max(1, 4_000_000 // max(1, n * d * d))
    out = []
    for i in range(0, n, chunk):
        block = np.einsum("aij,bjk->abik", stack[i : i + chunk], stack)
        out.extend(block.reshape(-1, d, d))
    return out


def reference_generate_basis(generators, d, tol=1e-9) -> list:
    mats = [np.eye(d, dtype=complex)]
    for g in generators:
        gm = as_matrix(g, d)
        mats.append(gm)
        mats.append(gm.conj().T)
    basis = reference_orthonormalize_span(mats, tol)
    for _ in range(2 * d * d + 2):
        if len(basis) == d * d:
            break
        enlarged = reference_orthonormalize_span(basis + reference_batched_products(basis), tol)
        if len(enlarged) == len(basis):
            basis = enlarged
            break
        basis = enlarged
    return basis


@dataclass
class ReferenceContext:
    basis: list
    ortho: list


def reference_assemble(d, group_bases, group_generators, tol=1e-9) -> tuple:
    """The pairwise build: register with its span-equality loop and
    generator merge, meets of the kept maximal contexts, the all-pairs
    order loop.  Returns (contexts, order, generators)."""
    contexts: dict = {}
    generators: dict = {}

    def context(basis):
        return ReferenceContext(basis, reference_orthonormalize_span(basis, tol))

    def register(name, ctx, gens):
        for existing, other in contexts.items():
            if reference_spans_equal(ctx.ortho, other.ortho, tol):
                if gens and not generators[existing]:
                    generators[existing] = gens
                return
        contexts[name] = ctx
        generators[name] = gens

    for i, basis in enumerate(group_bases):
        register(f"V{i}", context(basis), group_generators[i])
    maximal_ids = list(contexts.keys())
    for i, j in itertools.combinations(range(len(maximal_ids)), 2):
        a, b = contexts[maximal_ids[i]], contexts[maximal_ids[j]]
        basis = reference_intersect_spans(a.ortho, b.ortho, tol) or [np.eye(d, dtype=complex) / np.sqrt(d)]
        if len(basis) <= 1:
            continue
        register(f"{maximal_ids[i]}^{maximal_ids[j]}", context(basis), [])
    register("I", context([np.eye(d, dtype=complex) / np.sqrt(d)]), [])

    order = set()
    ids = list(contexts.keys())
    for a in ids:
        for b in ids:
            if a != b and reference_span_leq(contexts[a].ortho, contexts[b].ortho, tol):
                order.add((a, b))
    return contexts, order, generators


def assert_same_category(cc, group_generators, groups):
    """``cc`` against the pairwise build from the frozen generated bases."""
    d = cc.ambient.dim
    group_bases = [reference_generate_basis(group, d) for group in groups]
    contexts, order, generators = reference_assemble(d, group_bases, group_generators)
    assert cc.ids() == list(contexts)
    assert cc.order == order
    assert cc.generators == generators
    for cid, ctx in contexts.items():
        basis = cc.algebra(cid).basis
        assert len(basis) == len(ctx.basis)
        assert all(np.array_equal(a, b) for a, b in zip(basis, ctx.basis))
    ids = cc.ids()
    leq = span_containment([cc.algebra(c).ortho for c in ids])
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            assert leq[i, j] == reference_span_leq(contexts[a].ortho, contexts[b].ortho)


def projection_seeds(draw, dim):
    frame_rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = [random_unitary(frame_rng, dim) for _ in range(draw(st.integers(1, 3)))]
    seeds = []
    for _ in range(draw(st.integers(1, 5))):
        u = frames[draw(st.integers(0, len(frames) - 1))]
        support = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
        p = u @ np.diag([1.0 + 0j if k in support else 0j for k in range(dim)]) @ u.conj().T
        seeds.append((p + p.conj().T) / 2.0)
    return seeds


REAL_PAULIS2 = [p for p in PAULIS2 if not np.any(p.imag)]


@st.composite
def seed_lists(draw):
    """Two-qubit Pauli seeds, all real or any, or random projections in
    dimension 2-4."""
    kind = draw(st.sampled_from(["real", "complex", "projections"]))
    if kind == "projections":
        dim = draw(st.integers(2, 4))
        return dim, projection_seeds(draw, dim)
    pool = REAL_PAULIS2 if kind == "real" else PAULIS2
    return 4, [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5, unique=True))]


class TestSpanFormatOracle:
    @settings(max_examples=25, deadline=None)
    @given(indices=st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True))
    def test_peres_subfamilies(self, indices):
        dim, bases = PERES
        chosen = [bases[i] for i in sorted(indices)]
        cc = ray_family_context_category(dim, chosen)
        groups = [rays_to_projectors(basis) for basis in chosen]
        assert_same_category(cc, [[] for _ in groups], groups)

    def test_whole_peres_set_and_a_repeated_basis(self):
        dim, bases = PERES
        for chosen in (bases, [bases[0], bases[3], bases[0], bases[5], bases[3]]):
            cc = ray_family_context_category(dim, chosen)
            groups = [rays_to_projectors(basis) for basis in chosen]
            assert_same_category(cc, [[] for _ in groups], groups)

    @settings(max_examples=60, deadline=None)
    @given(case=seed_lists())
    def test_seed_families(self, case):
        dim, seeds = case
        cc = context_category(full_matrix_algebra(dim), seeds)
        cliques = _commutation_cliques([as_matrix(s, dim) for s in seeds], cc.ambient.tol)
        assert_same_category(cc, [list(c) for c in cliques], [[seeds[i] for i in c] for c in cliques])

    @settings(max_examples=40, deadline=None)
    @given(case=seed_lists())
    def test_span_functions_on_rows(self, case):
        dim, seeds = case
        algebras = [generate_algebra([s], dim) for s in seeds] + [full_matrix_algebra(dim)]
        lists = [reference_orthonormalize_span(alg.basis) for alg in algebras]
        for alg, ortho in zip(algebras, lists):
            rows = orthonormalize_span(alg.basis)
            assert np.array_equal(rows, np.stack([q.reshape(-1) for q in ortho]))
            assert np.array_equal(orthonormalize_span(np.stack(alg.basis)), rows)
        for a, qa in zip(algebras, lists):
            for b, qb in zip(algebras, lists):
                assert span_leq(a.ortho, b.ortho) == reference_span_leq(qa, qb)
                assert spans_equal(a.ortho, b.ortho) == reference_spans_equal(qa, qb)
                rows = intersect_spans(orthonormalize_span(a.basis), orthonormalize_span(b.basis))
                expected = reference_intersect_spans(qa, qb)
                assert len(rows) == len(expected)
                assert all(np.array_equal(r, m.reshape(-1)) for r, m in zip(rows, expected))


# ---------------------------------------------------------------------------
# the R-factor path of orthonormalize_span against the plain SVD


def same_rows(rows, reference) -> bool:
    """Whether the row-matrix span equals the frozen list-based one bitwise."""
    if not reference:
        return len(rows) == 0
    return np.array_equal(rows, np.stack([m.reshape(-1) for m in reference]))


@st.composite
def tall_stacks(draw):
    """Stacks of d x d matrices (d 2-5) with rows/cols from 2 to 20, rank
    1..cols, complex entries and row scales from 1e-6 to 1e6."""
    d = draw(st.integers(2, 5))
    cols = d * d
    rows = draw(st.integers(2, 20)) * cols + draw(st.integers(0, cols - 1))
    rank = draw(st.integers(1, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    scales = 10.0 ** rng.uniform(-6, 6, size=(rows, 1))
    return (scales * (left @ right)).reshape(rows, d, d)


@st.composite
def pauli_product_stacks(draw):
    """A set of two- or three-qubit Pauli strings, in a random frame or not,
    stacked with all their pairwise products, as in one closure round; n
    strings give n + n**2 rows, at least twice the 4**qubits columns."""
    qubits = draw(st.integers(2, 3))
    words = draw(st.lists(st.tuples(*[st.sampled_from("IXYZ")] * qubits), min_size=6 if qubits == 2 else 11,
                          max_size=4**qubits, unique=True))
    d = 2**qubits
    mats = np.stack([pauli_string(dict(enumerate(w)), qubits) / np.sqrt(d) for w in words])
    seed = draw(st.none() | st.integers(0, 2**16))
    if seed is not None:
        u = random_unitary(np.random.default_rng(seed), d)
        mats = u @ mats @ u.conj().T
    products = np.einsum("aij,bjk->abik", mats, mats).reshape(-1, d, d)
    return np.concatenate([mats, products])


@st.composite
def pauli_generator_sets(draw):
    """One to six Pauli strings on 2-4 qubits, or a random self-adjoint
    generator on 2 qubits, optionally in a random frame.  k strings span an
    algebra of at most 2**k dimensions, so a closure stack has at most
    64 + 64**2 rows."""
    qubits = draw(st.integers(2, 4))
    d = 2**qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if qubits == 2 and draw(st.booleans()):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gens = [(z + z.conj().T) / 2.0]
    else:
        words = draw(st.lists(st.tuples(*[st.sampled_from("IXYZ")] * qubits), min_size=1, max_size=6))
        gens = [pauli_string(dict(enumerate(w)), qubits) for w in words]
    if draw(st.booleans()):
        u = random_unitary(rng, d)
        gens = [u @ g @ u.conj().T for g in gens]
    return d, gens


class TestRFactorSpanOracle:
    """``orthonormalize_span`` reduces a stack with rows >= 2 cols to its R
    factor before the SVD.  Its rows must equal, bitwise, those of the plain
    SVD of the frozen list-based function.  The equality is not a property
    of exact arithmetic but of LAPACK: for rows >= 17/9 cols, ``gesdd``
    itself factors the stack as QR and computes the singular values and V
    from R, with the same ``geqrf``.  A LAPACK build that takes another
    path fails here; the CI log prints the numpy and scipy build
    configuration for that case."""

    @settings(max_examples=80, deadline=None)
    @given(stack=tall_stacks())
    def test_tall_random_stacks(self, stack):
        rows, d, _ = stack.shape
        assert rows >= 2 * d * d
        for tol in (1e-9, 1e-13, 1e-3):
            expected = reference_orthonormalize_span(list(stack), tol)
            assert same_rows(orthonormalize_span(stack, tol), expected)
            assert same_rows(orthonormalize_span(list(stack), tol), expected)

    @settings(max_examples=40, deadline=None)
    @given(stack=pauli_product_stacks())
    def test_pauli_product_stacks(self, stack):
        rows, d, _ = stack.shape
        assert rows >= 2 * d * d
        assert same_rows(orthonormalize_span(stack), reference_orthonormalize_span(list(stack)))

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_both_sides_of_the_two_to_one_cut(self, extra):
        rng = np.random.default_rng(11)
        rows = 2 * 16 + extra
        stack = (rng.standard_normal((rows, 16)) + 1j * rng.standard_normal((rows, 16))).reshape(rows, 4, 4)
        assert same_rows(orthonormalize_span(stack), reference_orthonormalize_span(list(stack)))

    @settings(max_examples=25, deadline=None)
    @given(case=pauli_generator_sets())
    def test_generated_bases(self, case):
        d, gens = case
        basis = generate_algebra(gens, d, dim_cap=d).basis
        expected = reference_generate_basis(gens, d)
        assert len(basis) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(basis, expected))


# ---------------------------------------------------------------------------
# batched character tests against one SVD per matrix or per pair

# relative offsets from a threshold: the smallest ones leave the decision to
# rounding, which both sides must make alike
OFFSETS = [-1e-3, -1e-6, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 1e-6, 1e-3]


def frame_blocks(draw, dim, rng):
    """A random unitary frame and its columns cut into consecutive groups."""
    u = random_unitary(rng, dim)
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
    return u, [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [dim])]


def character(p) -> Character:
    return Character(projection=p, values=np.zeros(1, dtype=complex), rank=1)


@st.composite
def near_threshold_restrictions(draw):
    """Coarse projections onto groups of a frame's columns (one maybe
    repeated); rank-one fine projections tilted out of one group's range by
    an angle whose sine is the dominance threshold times 1 + offset."""
    dim = draw(st.integers(2, 5))
    tol = draw(st.sampled_from([1e-9, 1e-8, 3e-8, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u, groups = frame_blocks(draw, dim, rng)
    coarse = [u[:, g] @ u[:, g].conj().T for g in groups]
    if draw(st.booleans()):
        coarse.append(coarse[draw(st.integers(0, len(coarse) - 1))])
    fine = []
    for _ in range(draw(st.integers(1, 4))):
        g = groups[draw(st.integers(0, len(groups) - 1))]
        inside = u[:, g] @ (rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g)))
        inside /= np.linalg.norm(inside)
        others = [c for c in range(dim) if c not in g]
        outside = u[:, others[0]] if others else np.zeros(dim, dtype=complex)
        eps = np.arcsin(max(tol, 1e-8) * (1.0 + draw(st.sampled_from(OFFSETS))))
        v = np.cos(eps) * inside + np.sin(eps) * outside
        fine.append(np.outer(v, v.conj()))
    return [character(p) for p in fine], [character(q) for q in coarse], tol


def outcome(fn, *args):
    """A function's value, or the message of its refusal."""
    try:
        return "value", fn(*args)
    except (DomainError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


class TestCharacterTestOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=near_threshold_restrictions())
    def test_restriction_tables(self, case):
        fine, coarse, tol = case
        hits = dominating_projections(fine, coarse, tol)
        expected = [
            [opnorm(q.projection @ f.projection - f.projection) <= max(tol, 1e-8) for q in coarse] for f in fine
        ]
        assert hits.tolist() == expected

        def reference_table(fine, coarse, tol):
            return {i: reference_dominating_character_index(chi, coarse, tol) for i, chi in enumerate(fine)}

        assert outcome(restriction_table, hits) == outcome(reference_table, fine, coarse, tol)
        for chi in fine:
            assert outcome(dominating_character_index, chi, coarse, tol) == outcome(
                reference_dominating_character_index, chi, coarse, tol
            )

    def test_both_decisions_occur_at_the_threshold(self):
        # a sweep across the threshold in steps of about one rounding error
        u = random_unitary(np.random.default_rng(3), 3)
        q = character(u[:, :2] @ u[:, :2].conj().T)
        decisions = set()
        for step in range(-40, 41):
            eps = np.arcsin(1e-8 * (1.0 + step * 2e-9))
            v = np.cos(eps) * u[:, 0] + np.sin(eps) * u[:, 2]
            chi = character(np.outer(v, v.conj()))
            found = bool(dominating_projections([chi], [q])[0, 0])
            assert found == (opnorm(q.projection @ chi.projection - chi.projection) <= 1e-8)
            decisions.add(found)
        assert decisions == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blocks_and_selfadjoint_parts(self, data):
        """Basis matrices that are scalars on each block of a frame, plus a
        within-block perturbation at the validation threshold and, for real
        scalars, an anti-self-adjoint part at the rank floor."""
        draw = data.draw
        dim = draw(st.integers(2, 5))
        tol = draw(st.sampled_from([1e-9, 1e-8, 1e-6]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        u, groups = frame_blocks(draw, dim, rng)
        projs = [u[:, g] @ u[:, g].conj().T for g in groups]
        wide = [g for g in groups if len(g) > 1]
        basis = []
        for _ in range(draw(st.integers(1, 4))):
            real = draw(st.booleans())
            coeffs = rng.standard_normal(len(groups)) * draw(st.sampled_from([0.5, 3.0]))
            if not real:
                coeffs = coeffs + 1j * rng.standard_normal(len(groups))
            b = sum(c * p for c, p in zip(coeffs, projs))
            scale = max(1.0, opnorm(b))
            if wide and draw(st.booleans()):
                g = wide[draw(st.integers(0, len(wide) - 1))]
                x = np.outer(u[:, g[0]], u[:, g[1]].conj())
                b = b + max(tol, 1e-9) * scale * (1.0 + draw(st.sampled_from(OFFSETS))) * x
            if real and draw(st.booleans()):
                b = b + 1j * 1e-13 * (1.0 + draw(st.sampled_from(OFFSETS))) * projs[0]
            basis.append(b)
        stack = np.stack(basis)
        parts, keep, scales = _selfadjoint_spanning(stack)
        herm = list(parts[keep])
        expected = reference_selfadjoint_spanning(basis)
        assert len(herm) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(herm, expected))
        assert scales.tolist() == [max(1.0, opnorm(b)) for b in basis]

        blocks = [u[:, g] for g in groups]
        if draw(st.booleans()):  # a block split in two: still scalars on each part
            blocks = [u[:, g[:1]] for g in groups] + [u[:, g[1:]] for g in wide]
        projs = np.stack([iso @ iso.conj().T for iso in blocks])
        ranks = np.array([[iso.shape[1] for iso in blocks]])
        chars = _characters(projs[None], ranks, stack[None], scales[None], np.array([tol]))[0]
        assert (chars is not None) == reference_validate_blocks(blocks, basis, tol)
        if chars is not None:
            for chi, iso in zip(chars, blocks):
                p = iso @ iso.conj().T
                assert chi.rank == iso.shape[1]
                assert np.array_equal(chi.projection, p)
                assert np.array_equal(chi.values, np.array([np.trace(p @ b) / iso.shape[1] for b in basis]))


# ---------------------------------------------------------------------------
# array cone oracles against the per-assignment loops


@contextlib.contextmanager
def cone_chunk(size):
    saved = fincat.CONE_CHUNK
    fincat.CONE_CHUNK = size
    try:
        yield
    finally:
        fincat.CONE_CHUNK = saved


def apex_bound(sizes, budget=2000, most=2) -> int:
    """The largest apex size up to ``most`` whose raw search stays in budget."""
    k = 0
    while k < most and math.prod(max(1, n) for n in sizes) ** (k + 1) <= budget:
        k += 1
    return k


def cone_record(cones) -> list:
    return [(c.apex, c.legs, c.to_apex) for c in cones]


CHUNKS = [1, 7, 64]  # 64 splits the larger searches and holds the smaller ones whole


class TestConeOracle:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(d=small_diagrams(), cap=st.sampled_from([DEFAULT_SEARCH_CAP, 0, 1, 4, 16, 64]))
    def test_enumerated_cones(self, chunk, d, cap):
        k = apex_bound([len(c) for c in d.carriers.values()])
        kind, expected = outcome(reference_enumerate_cones, d, k, cap)
        with cone_chunk(chunk):
            found_kind, found = outcome(enumerate_cones, d, k, cap)
        assert found_kind == kind
        assert (cone_record(found) if kind == "value" else found) == (
            cone_record(expected) if kind == "value" else expected
        )

    @pytest.mark.parametrize("chunk", CHUNKS)
    @settings(max_examples=60, deadline=None)
    @given(d=small_diagrams(), data=st.data())
    def test_universal_verdicts(self, chunk, d, data):
        lim = limit_of_diagram(d)
        k = apex_bound([len(lim.apex)], budget=300)
        cones = reference_enumerate_cones(d, min(k, apex_bound([len(c) for c in d.carriers.values()])))
        listed = data.draw(st.lists(st.sampled_from(cones), max_size=12)) if cones else []
        candidates = [lim] + [c for c in cones if len(c.apex) <= 2]
        candidate = data.draw(st.sampled_from(candidates))
        cap = data.draw(st.sampled_from([DEFAULT_SEARCH_CAP, 1, 4, 16]))
        expected = outcome(reference_check_universal_property, candidate, d, listed, cap)
        with cone_chunk(chunk):
            assert outcome(check_universal_property, candidate, d, listed, cap) == expected

    @settings(max_examples=100, deadline=None)
    @given(d=small_diagrams())
    def test_array_filter_matches_check_cone_on_every_raw_assignment(self, d):
        objects = list(d.index.objects)
        tables = fincat._arrow_tables(d, objects)
        for k in range(apex_bound([len(d.carriers[o]) for o in objects]) + 1):
            apex = list(range(k))
            raw = list(itertools.product(*[list(itertools.product(d.carriers[o], repeat=k)) for o in objects]))
            chunks = list(fincat._product_digits([len(d.carriers[o]) for o in objects for _ in apex]))
            digits = np.concatenate(chunks) if chunks else np.zeros((0, len(objects) * k), dtype=np.int64)
            assert len(digits) == len(raw)
            mask = fincat._cone_mask(digits, k, tables)
            for row, combo, keep in zip(digits.tolist(), raw, mask.tolist()):
                assert [d.carriers[o][p] for i, o in enumerate(objects) for p in row[i * k : (i + 1) * k]] == [
                    x for leg in combo for x in leg
                ]
                cone = Cone(apex=apex, legs={o: dict(zip(apex, combo[i])) for i, o in enumerate(objects)})
                assert keep == check_cone(cone, d).ok


# ---------------------------------------------------------------------------
# the named threshold policy against the literal thresholds it replaced:
# the ``max(tol, 1e-8)`` tests, both state checks, both daseinisation bodies
# and the fixed-gap eigenvalue grouping of the spectral steps

TOLS = [1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3]


def reference_cluster(values, tol) -> list:
    order = np.argsort(values)
    scale = max(1.0, float(np.abs(values).max())) if values.size else 1.0
    groups = [[order[0]]] if values.size else []
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= max(tol, 1e-8) * scale:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def reference_dominating_projections(fine, coarse, tol=1e-9) -> np.ndarray:
    if not fine or not coarse:
        return np.zeros((len(fine), len(coarse)), dtype=bool)
    p = np.stack([chi.projection for chi in fine])[:, None]
    q = np.stack([chi.projection for chi in coarse])[None]
    return opnorms(q @ p - p) <= max(tol, 1e-8)


def reference_boolean_blocks(projections, tol=1e-9, max_atoms=12) -> list:
    """(members, atoms, elements) per block."""
    mats = [as_matrix(p) for p in projections]
    for k, m in enumerate(mats):
        if not is_projection(m, max(tol, 1e-8)):
            raise DomainError(f"input {k} is not a projection")
    if not mats:
        return []
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise InputError("projections must share one matrix dimension")
    eye = np.eye(d, dtype=complex)
    blocks = []
    for clique in _commutation_cliques(mats, tol):
        partial = [eye]
        for idx in clique:
            p = mats[idx]
            partial = [x @ p for x in partial] + [x @ (eye - p) for x in partial]
        atoms = [a for a in partial if opnorm(a) > 0.5]
        if len(atoms) > max_atoms:
            raise CapExceeded("Boolean block atom count", len(atoms), max_atoms)
        elements = []
        for bits in itertools.product((0, 1), repeat=len(atoms)):
            total = np.zeros((d, d), dtype=complex)
            for take, atom in zip(bits, atoms):
                if take:
                    total = total + atom
            elements.append(total)
        blocks.append(([mats[i] for i in clique], atoms, elements))
    return blocks


def reference_outer_daseinisation(p, v, spectrum=None) -> np.ndarray:
    pm = as_matrix(p, v.dim)
    if not is_projection(pm, max(v.tol, 1e-8)):
        raise DomainError("outer_daseinisation expects a projection")
    chars = spectrum if spectrum is not None else gelfand_spectrum(v)
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in chars:
        if opnorm(chi.projection @ pm) > max(v.tol, 1e-8):
            q = q + chi.projection
    if np.linalg.eigvalsh((q - pm + dagger(q - pm)) / 2.0).min() < -1e-8:
        raise DomainError("outer daseinisation failed to dominate the input")
    return q


def reference_inner_daseinisation(p, v, spectrum=None) -> np.ndarray:
    pm = as_matrix(p, v.dim)
    if not is_projection(pm, max(v.tol, 1e-8)):
        raise DomainError("inner_daseinisation expects a projection")
    chars = spectrum if spectrum is not None else gelfand_spectrum(v)
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in chars:
        if opnorm(chi.projection @ pm - chi.projection) <= max(v.tol, 1e-8):
            q = q + chi.projection
    if np.linalg.eigvalsh((pm - q + dagger(pm - q)) / 2.0).min() < -1e-8:
        raise DomainError("inner daseinisation failed to stay below the input")
    return q


def reference_spectral_steps(a) -> list:
    w, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    steps = []
    cum = np.zeros_like(a)
    i = 0
    while i < len(w):
        j = i
        while j + 1 < len(w) and w[j + 1] - w[i] <= 1e-10 * scale:
            j += 1
        block = vecs[:, i : j + 1]
        cum = cum + block @ dagger(block)
        steps.append((float(w[i : j + 1].mean()), cum.copy()))
        i = j + 1
    return steps


def reference_operator_interval(a, v, chi, spectrum=None) -> tuple:
    am = as_matrix(a, v.dim)
    if not is_selfadjoint(am, max(v.tol, 1e-8)):
        raise DomainError("operator_interval expects a self-adjoint matrix")
    chars = spectrum if spectrum is not None else gelfand_spectrum(v)
    steps = reference_spectral_steps(am)

    def rebuild(daseinise) -> np.ndarray:
        out = np.zeros((v.dim, v.dim), dtype=complex)
        prev = np.zeros((v.dim, v.dim), dtype=complex)
        for lam, cum in steps:
            approx = daseinise(cum)
            out = out + lam * (approx - prev)
            prev = approx
        return out

    outer_op = rebuild(lambda e: reference_inner_daseinisation(e, v, chars))
    inner_op = rebuild(lambda e: reference_outer_daseinisation(e, v, chars))
    lo = float(chi.value_of(inner_op).real)
    hi = float(chi.value_of(outer_op).real)
    if lo > hi + 1e-9:
        raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
    return min(lo, hi), hi


def reference_extended_state_check(rho, dim) -> np.ndarray:
    """The checks of ``ctxext.extend_state``."""
    r = as_matrix(rho, dim)
    if opnorm(r - dagger(r)) > 1e-8:
        raise DomainError("state is not self-adjoint")
    if abs(np.trace(r) - 1.0) > 1e-8:
        raise DomainError("state does not have unit trace")
    if np.linalg.eigvalsh((r + dagger(r)) / 2.0).min() < -1e-8:
        raise DomainError("state is not positive semidefinite")
    return r


def reference_quantum_state_check(rho) -> np.ndarray:
    """The checks of ``realism.QuantumProvider``."""
    r = as_matrix(rho)
    if not is_selfadjoint(r, 1e-9) or abs(np.trace(r) - 1.0) > 1e-8:
        raise DomainError("state must be a self-adjoint trace-one matrix")
    if np.linalg.eigvalsh(r).min() < -1e-8:
        raise DomainError("state must be positive semidefinite")
    return r


def bits(x):
    """A value with every float replaced by its exact bit pattern."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    if isinstance(x, float):
        return x.hex()
    return x


def same_outcome(fn, reference, *args) -> bool:
    """Equal values to the bit, or refusals of the same type."""
    found, expected = outcome(fn, *args), outcome(reference, *args)
    if found[0] == "value" or expected[0] == "value":
        return found[0] == expected[0] and bits(found[1]) == bits(expected[1])
    return found[0] == expected[0]


def threshold_offset(draw, tol) -> float:
    """The spectral threshold of ``tol`` times 1 + a drawn relative offset."""
    return max(tol, 1e-8) * (1.0 + draw(st.sampled_from(OFFSETS)))


def hermitian_unit(u, i, j) -> np.ndarray:
    """The traceless self-adjoint ``|i><j| + |j><i|`` in the frame ``u``, of norm 1."""
    x = np.outer(u[:, i], u[:, j].conj())
    return x + x.conj().T


@st.composite
def frame_contexts(draw):
    """(tol, frame, column groups, context spanned by the groups'
    projections, generator for further draws)."""
    tol = draw(st.sampled_from(TOLS))
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u, groups = frame_blocks(draw, dim, rng)
    projs = [u[:, g] @ u[:, g].conj().T for g in groups]
    return tol, u, groups, MatrixStarAlgebra(dim, projs, tol), rng


@st.composite
def daseinisation_cases(draw):
    """A context and a rank-one projection tilted out of one group's range
    by an angle at the spectral threshold, maybe pushed off being a
    projection by as much."""
    tol, u, groups, v, rng = draw(frame_contexts())
    dim = v.dim
    g = groups[draw(st.integers(0, len(groups) - 1))]
    inside = u[:, g] @ (rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g)))
    inside /= np.linalg.norm(inside)
    outside = u[:, [c for c in range(dim) if c not in g][0]] if len(g) < dim else np.zeros(dim)
    eps = np.arcsin(threshold_offset(draw, tol))
    w = np.cos(eps) * inside + np.sin(eps) * outside
    p = np.outer(w, w.conj())
    if draw(st.booleans()):
        p = p + threshold_offset(draw, tol) * hermitian_unit(u, 0, 1)
    return p, v


@st.composite
def interval_cases(draw):
    """A context, and an operator with integer eigenvalues (some repeated)
    in the context's frame or in another, maybe made not self-adjoint by
    about the spectral threshold."""
    tol, u, groups, v, rng = draw(frame_contexts())
    frame = u if draw(st.booleans()) else random_unitary(rng, v.dim)
    values = draw(st.lists(st.integers(-2, 2), min_size=v.dim, max_size=v.dim))
    a = (frame * np.array(values, dtype=float)) @ frame.conj().T
    a = (a + a.conj().T) / 2.0
    if draw(st.booleans()):
        a = a + 0.5j * threshold_offset(draw, tol) * hermitian_unit(u, 0, 1)
    return a, v


@st.composite
def state_cases(draw):
    """A density matrix with its lowest eigenvalue, trace and asymmetry
    moved to either side of the state bounds (1e-8, and 1e-9 or 1e-8
    for the asymmetry)."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = random_unitary(rng, dim)
    lowest = draw(st.sampled_from([0.0, -0.5e-8, -2e-8]))
    rest = rng.random(dim - 1) + 0.1
    weights = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    rho = (u * weights) @ u.conj().T
    asymmetry = draw(st.sampled_from([0.0, 0.5e-9, 2e-9, 0.5e-8, 2e-8]))
    trace = draw(st.sampled_from([0.0, 0.5e-8, -2e-8]))
    # the anti-self-adjoint part has norm ``asymmetry`` and no trace
    rho = rho + 0.5j * asymmetry * hermitian_unit(u, 0, 1) + trace / dim * np.eye(dim)
    return rho, asymmetry


class TestThresholdPolicyOracle:
    @settings(max_examples=150, deadline=None)
    @given(tol=st.sampled_from(TOLS), data=st.data())
    def test_cluster(self, tol, data):
        """Runs of gaps at the spectral threshold (scaled), unit gaps and
        exact ties, in a drawn order."""
        draw = data.draw
        scale = draw(st.sampled_from([1.0, 3.0]))
        values = [-scale]
        for _ in range(draw(st.integers(0, 6))):
            step = draw(st.sampled_from([None, 1.0, 0.0]))  # None: a gap at the threshold
            values.append(values[-1] + (threshold_offset(draw, tol) * scale if step is None else step))
        values = np.array(draw(st.permutations(values)))
        assert bits(_cluster(values, tol)) == bits(reference_cluster(values, tol))

    @settings(max_examples=100, deadline=None)
    @given(case=frame_contexts(), data=st.data())
    def test_dominating_projections(self, case, data):
        tol, u, groups, _, rng = case
        coarse = [character(u[:, g] @ u[:, g].conj().T) for g in groups]
        fine = []
        for _ in range(data.draw(st.integers(1, 4))):
            g = groups[data.draw(st.integers(0, len(groups) - 1))]
            others = [c for c in range(len(u)) if c not in g]
            eps = np.arcsin(threshold_offset(data.draw, tol))
            w = np.cos(eps) * u[:, g[0]] + (np.sin(eps) * u[:, others[0]] if others else 0.0)
            fine.append(character(np.outer(w, w.conj())))
        assert bits(dominating_projections(fine, coarse, tol)) == bits(reference_dominating_projections(fine, coarse, tol))

    @settings(max_examples=100, deadline=None)
    @given(case=frame_contexts(), data=st.data())
    def test_boolean_blocks(self, case, data):
        """Group projections of one frame and of a second one, one of them
        maybe pushed off being a projection by about the spectral threshold."""
        tol, u, groups, _, rng = case
        w, other = frame_blocks(data.draw, len(u), rng)
        projs = [u[:, g] @ u[:, g].conj().T for g in groups] + [w[:, g] @ w[:, g].conj().T for g in other[:2]]
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(projs) - 1))
            projs[k] = projs[k] + threshold_offset(data.draw, tol) * hermitian_unit(u, 0, 1)

        def blocks(projections, tol):
            return [(b.members, b.atoms, b.elements) for b in boolean_blocks(projections, tol)]

        assert same_outcome(blocks, reference_boolean_blocks, projs, tol)

    @settings(max_examples=150, deadline=None)
    @given(case=daseinisation_cases())
    def test_daseinisations(self, case):
        p, v = case
        chars = gelfand_spectrum(v)
        assert same_outcome(outer_daseinisation, reference_outer_daseinisation, p, v, chars)
        assert same_outcome(inner_daseinisation, reference_inner_daseinisation, p, v, chars)
        assert same_outcome(outer_daseinisation, reference_outer_daseinisation, p, v)

    @settings(max_examples=100, deadline=None)
    @given(case=interval_cases())
    def test_operator_intervals(self, case):
        """Equal unless two eigenvalues of ``a`` lie apart by more than 1e-10
        and at most the spectral threshold (scaled), which the steps now
        merge: a non-self-adjoint part of about the threshold splits
        repeated eigenvalues by about as much."""
        a, v = case
        w = np.linalg.eigh(a)[0]
        scale = max(1.0, float(np.abs(w).max()))
        gaps = np.diff(w)
        if np.any((gaps > 1e-10 * scale) & (gaps <= max(v.tol, 1e-8) * scale)):
            assert len(_spectral_steps(a, v.tol)) < len(reference_spectral_steps(a))
            return
        chars = gelfand_spectrum(v)
        for chi in chars:
            assert same_outcome(operator_interval, reference_operator_interval, a, v, chi, chars)

    @settings(max_examples=150, deadline=None)
    @given(case=state_cases())
    def test_state_checks(self, case):
        """One check for both; it refuses asymmetries in (1e-9, 1e-8],
        which ``extend_state`` accepted."""
        rho, asymmetry = case
        ext = build_limit_extension(context_category(full_matrix_algebra(len(rho)), [np.eye(len(rho))]))
        found = outcome(extend_state, rho, ext)
        expected = outcome(reference_extended_state_check, rho, len(rho))
        if 1e-9 < asymmetry <= 1e-8:
            assert expected[0] == "value" or expected[1] != "state is not self-adjoint"
            assert found == ("DomainError", "state is not self-adjoint")
        else:
            assert found[0] == expected[0] and (found[0] == "value" or found[1] == expected[1])
        found = outcome(QuantumProvider, rho)
        expected = outcome(reference_quantum_state_check, rho)
        assert found[0] == expected[0]
        if found[0] == "value":
            assert bits(found[1].rho) == bits(expected[1])

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("kind", ["sites", "mixed", "orphan", "two-site"])
    def test_covariance(self, tol, kind):
        for length, shift in itertools.product([2, 3], [0, 1, 2]):
            net = standard_net(length, tol=tol)
            family = covariance_family(net, kind)
            found = [str(v) for v in check_covariance(net, shift, family).violations]
            assert found == [str(v) for v in reference_check_covariance(net, shift, family).violations]


class TestDeliberateThresholdChanges:
    @pytest.mark.parametrize("asymmetry", [0.5e-9, 2e-9, 0.5e-8, 2e-8])
    def test_state_extend_refuses_asymmetry_above_1e_9(self, asymmetry):
        """Both sides of the old bound (1e-8) and of the new one (1e-9)."""
        rho = np.diag([0.5, 0.5]).astype(complex) + 0.5j * asymmetry * SX
        ext = build_limit_extension(context_category(full_matrix_algebra(2), [SZ, SX]))
        old = outcome(reference_extended_state_check, rho, 2)
        new = outcome(extend_state, rho, ext)
        assert old[0] == ("value" if asymmetry <= 1e-8 else "DomainError")
        assert new[0] == ("value" if asymmetry <= 1e-9 else "DomainError")
        if new[0] == "DomainError":
            assert new[1] == "state is not self-adjoint"

    @pytest.mark.parametrize("tol", [1e-9, 1e-5])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("bound", ["old", "new"])
    def test_operator_interval_merges_eigenvalues_closer_than_the_spectral_threshold(self, tol, factor, bound):
        """Eigenvalues 0 and ``gap`` of ``diag(0, gap, 1)`` are one step when
        ``gap`` is at most the spectral threshold, not only at most 1e-10;
        the interval at the first character then closes on their mean."""
        gap = factor * (1e-10 if bound == "old" else max(tol, 1e-8))
        a = np.diag([0.0, gap, 1.0]).astype(complex)
        v = generate_algebra([np.diag([0.0, 0.0, 1.0])], 3, tol)
        chars = gelfand_spectrum(v)
        chi = next(c for c in chars if c.rank == 2)
        old_merged = gap <= 1e-10
        new_merged = gap <= max(tol, 1e-8)
        assert len(reference_spectral_steps(a)) == (2 if old_merged else 3)
        assert len(_spectral_steps(a, tol)) == (2 if new_merged else 3)
        closed, open_ = pytest.approx((gap / 2, gap / 2), abs=1e-14), pytest.approx((0.0, gap), abs=1e-14)
        assert reference_operator_interval(a, v, chi, chars) == (closed if old_merged else open_)
        assert operator_interval(a, v, chi, chars) == (closed if new_merged else open_)


# ---------------------------------------------------------------------------
# batched spectra and commutation tests against the one-algebra code


def reference_is_commutative(a) -> bool:
    """One commutator per basis pair: its Frobenius norm, then its SVD."""
    n = a.dimension
    for i in range(n):
        for j in range(i + 1, n):
            c = a.basis[i] @ a.basis[j] - a.basis[j] @ a.basis[i]
            if np.linalg.norm(c) <= a.tol:
                continue
            if opnorm(c) > a.tol:
                return False
    return True


def reference_commutation_cliques(mats, tol) -> list:
    """One commutator and one SVD per ordered pair, then Bron-Kerbosch."""
    adjacent = [
        {j for j in range(len(mats)) if j != i and opnorm(mats[i] @ mats[j] - mats[j] @ mats[i]) <= tol}
        for i in range(len(mats))
    ]
    cliques = []

    def bk(r, p, x):
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        for vtx in sorted(p):
            bk(r | {vtx}, p & adjacent[vtx], x & adjacent[vtx])
            p = p - {vtx}
            x = x | {vtx}

    bk(set(), set(range(len(mats))), set())
    return sorted(cliques)


def reference_gelfand_spectrum(v, seed=0, retries=3) -> list:
    """One algebra at a time: its own draws, eigendecomposition and
    character residual per retry, then the refinement sweep."""
    if not reference_is_commutative(v):
        raise DomainError("gelfand_spectrum requires a commutative algebra")
    d = v.dim
    stack = np.asarray(v.basis, dtype=complex).reshape(-1, d, d)
    n = len(stack)
    adj = stack.conj().transpose(0, 2, 1)
    parts = np.stack([(stack + adj) / 2.0, (stack - adj) / 2.0j], axis=1).reshape(-1, d, d)
    norms = opnorms(np.concatenate([stack, parts]))
    herm, scales = list(parts[norms[n:] > 1e-13]), np.maximum(1.0, norms[:n])

    def blocks_from_vectors(h, isometry):
        compressed = dagger(isometry) @ h @ isometry
        w, vecs = np.linalg.eigh((compressed + dagger(compressed)) / 2.0)
        return [isometry @ vecs[:, group] for group in reference_cluster(w, v.tol)]

    def characters(blocks):
        projs = np.stack([iso @ dagger(iso) for iso in blocks])
        ranks = [iso.shape[1] for iso in blocks]
        pb = projs[:, None] @ stack
        vals = np.trace(pb, axis1=-2, axis2=-1) / np.array(ranks)[:, None]
        residual = pb @ projs[:, None] - vals[..., None, None] * projs[:, None]
        if np.any(opnorms(residual) > max(v.tol, 1e-9) * scales):
            return None
        return [Character(projection=p, values=values, rank=r) for p, values, r in zip(projs, vals, ranks)]

    rng = np.random.default_rng(seed)
    chars = None
    for _ in range(retries):
        coeffs = rng.standard_normal(len(herm))
        h = sum(c * s for c, s in zip(coeffs, herm)) if herm else np.zeros((d, d), dtype=complex)
        candidate = blocks_from_vectors(h, np.eye(d, dtype=complex))
        if len(candidate) == v.dimension:
            chars = characters(candidate)
            if chars is not None:
                break
    if chars is None:
        blocks = [np.eye(d, dtype=complex)]
        for s in herm:
            blocks = [sub for iso in blocks for sub in blocks_from_vectors(s, iso)]
        chars = characters(blocks)
        if chars is None:
            raise DomainError("simultaneous diagonalization failed to isolate characters")
        if len(chars) != v.dimension:
            raise DomainError(f"found {len(chars)} characters for an algebra of dimension {v.dimension}")
    chars.sort(key=lambda c: tuple(np.round(c.values.view(float), 8)))
    return chars


@contextlib.contextmanager
def spectrum_retries(count):
    saved = staralg.SPECTRUM_RETRIES
    staralg.SPECTRUM_RETRIES = count
    try:
        yield count
    finally:
        staralg.SPECTRUM_RETRIES = saved


def assert_same_spectra(found, expected):
    """Characters equal to the bit, with the same ranks, in the same order."""
    assert len(found) == len(expected)
    for chars, ref in zip(found, expected):
        assert len(chars) == len(ref)
        for chi, rho in zip(chars, ref):
            assert chi.rank == rho.rank and type(chi.rank) is type(rho.rank)
            assert np.array_equal(chi.projection, rho.projection)
            assert np.array_equal(chi.values, rho.values)


def assert_batch_matches(algebras, seed, retries=3):
    """``gelfand_spectra`` gives every one-algebra spectrum, or raises the
    refusal of the first refused algebra in input order; so does each
    one-algebra ``gelfand_spectrum``.  Returns the one-algebra outcomes."""
    expected = [outcome(reference_gelfand_spectrum, v, seed, retries) for v in algebras]
    refused = [e for e in expected if e[0] != "value"]
    found = outcome(gelfand_spectra, algebras, seed)
    if refused:
        assert found == refused[0]
    else:
        assert found[0] == "value"
        assert_same_spectra(found[1], [e[1] for e in expected])
    for v, e in zip(algebras, expected):
        single = outcome(gelfand_spectrum, v, seed)
        if e[0] == "value":
            assert single[0] == "value"
            assert_same_spectra([single[1]], [e[1]])
        else:
            assert single == e
    return expected


def random_frame(rng, d, real):
    if real:
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        return (q * np.sign(np.diag(r))).astype(complex)
    return random_unitary(rng, d)


@st.composite
def frame_algebras(draw, dims=(1, 2, 3, 4, 5, 6)):
    """A commutative algebra on the column groups of a real or complex
    frame (groups of several columns are degenerate blocks), given by the
    group projections, by invertible real or complex combinations of them,
    by its orthonormal rows, or generated from one self-adjoint element
    whose eigenvalues lie apart by about the spectral threshold; or that
    element alone as a one-dimensional basis, which the spectrum refuses
    unless its eigenvalues are one cluster on which it is a scalar."""
    d = draw(st.sampled_from(dims))
    tol = draw(st.sampled_from([1e-9, 1e-8, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = random_frame(rng, d, draw(st.booleans()))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1))) if d > 1 else []
    groups = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [d])]
    projs = [u[:, g] @ u[:, g].conj().T for g in groups]
    kinds = ["projections", "real combinations", "complex combinations", "rows", "near-degenerate", "one matrix"]
    kind = draw(st.sampled_from(kinds))
    if kind == "projections":
        return MatrixStarAlgebra(d, projs, tol)
    if kind == "rows":
        return MatrixStarAlgebra.from_rows(d, orthonormalize_span(projs, tol), tol)
    if kind in ("near-degenerate", "one matrix"):
        gaps = [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e8])) * max(tol, 1e-8) for _ in range(d - 1)]
        element = (u * np.cumsum([1.0] + gaps)) @ u.conj().T
        if kind == "one matrix":
            return MatrixStarAlgebra(d, [element], tol)
        return generate_algebra([element], d, tol)
    n = len(projs)
    mix = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if kind == "complex combinations" else 0)
    return MatrixStarAlgebra(d, [sum(c * p for c, p in zip(row, projs)) for row in mix], tol)


@st.composite
def algebra_batches(draw):
    """Up to eight algebras of a few matrix sizes, so that some share
    their shapes and draws; maybe one repeated."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    batch = draw(st.lists(frame_algebras(dims=dims), min_size=1, max_size=8))
    if draw(st.booleans()):
        batch.append(batch[draw(st.integers(0, len(batch) - 1))])
    return batch, draw(st.sampled_from([0, 1, 7, 101]))


def two_block_algebra(d, weights, rng, tol=1e-9):
    """Real self-adjoint basis matrices ``w[0] P + w[1] (1 - P)`` on a
    random split of a real frame: no anti-self-adjoint parts, so the
    random combination is ``sum_t c_t basis[t]``."""
    u = random_frame(rng, d, real=True)
    p = u[:, :1] @ u[:, :1].conj().T
    q = np.eye(d, dtype=complex) - p
    return MatrixStarAlgebra(d, [a * p + b * q for a, b in weights], tol)


def unsplittable_algebra():
    """Eigenvalues closer than the spectral threshold make one block, on
    which the basis matrix is no scalar to within the character bound."""
    return MatrixStarAlgebra(2, [np.diag([1.0, 1.0 + 5e-9]).astype(complex)], 1e-9)


def overcounted_algebra():
    """One basis matrix with two eigenvalues: two characters for dimension one."""
    return MatrixStarAlgebra(3, [np.diag([1.0, 1.0, 2.0]).astype(complex)])


class TestBatchedSpectrumOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=algebra_batches())
    def test_mixed_batches(self, case):
        batch, seed = case
        assert_batch_matches(batch, seed)
        assert [is_commutative(v) for v in batch] == [reference_is_commutative(v) for v in batch]

    @settings(max_examples=40, deadline=None)
    @given(case=algebra_batches(), retries=st.sampled_from([0, 1, 2]))
    def test_fewer_retries_take_the_sweep(self, case, retries):
        batch, seed = case
        with spectrum_retries(retries):
            assert_batch_matches(batch, seed, retries)

    @settings(max_examples=15, deadline=None)
    @given(
        indices=st.sets(st.integers(0, len(PERES[1]) - 1), min_size=2, max_size=10),
        seed=st.sampled_from([0, 3, 101]),
    )
    def test_peres_sub_families(self, indices, seed):
        dim, bases = PERES
        cc = ray_family_context_category(dim, [bases[i] for i in sorted(indices)], seed=seed)
        ids = cc.ids()
        expected = [reference_gelfand_spectrum(cc.algebra(cid), seed) for cid in ids]
        spectra = cc.spectra()
        assert list(spectra) == ids
        assert_same_spectra([spectra[cid] for cid in ids], expected)
        assert_same_spectra([build_spectral_presheaf(cc).fibers[cid] for cid in ids], expected)

    @pytest.mark.parametrize("seeds", [["ZI", "XI", "YI", "IZ", "IX"], ["ZZ", "XX", "YY", "ZI", "IZ", "XI"]])
    def test_pauli_context_categories(self, seeds):
        pauli = {"I": I2, "X": SX, "Y": SY, "Z": SZ}
        cc = context_category(full_matrix_algebra(4), [kron(pauli[s[0]], pauli[s[1]]) for s in seeds], seed=5)
        expected = [reference_gelfand_spectrum(cc.algebra(cid), 5) for cid in cc.ids()]
        assert_same_spectra(list(cc.spectra().values()), expected)

    @pytest.mark.parametrize("seed", [0, 1, 101])
    def test_a_failed_draw_retries_and_the_sweep_follows_the_last(self, seed, monkeypatch):
        """Two blocks whose eigenvalues under the first draw coincide: that
        member retries, a generic member of the same shape does not, and
        with one retry allowed the first member takes the sweep."""
        first = np.random.default_rng(seed).standard_normal(2)
        rng = np.random.default_rng(17)
        # block values whose differences are (first[1], -first[0]): the first
        # draw gives both blocks the same eigenvalue
        merged = two_block_algebra(4, [(first[1], 0.0), (0.0, first[0])], rng)
        generic = two_block_algebra(4, [(1.0, -1.0), (0.5, 2.0)], rng)
        swept = []
        original = staralg._refinement_sweep

        def spy(*args):
            swept.append(args[1].shape)
            return original(*args)

        monkeypatch.setattr(staralg, "_refinement_sweep", spy)
        assert_batch_matches([generic, merged, generic], seed)
        assert swept == []
        with spectrum_retries(1):
            assert_batch_matches([generic, merged, generic], seed, retries=1)
        assert swept == [(2, 4, 4), (2, 4, 4)]  # the batch, then its batch of one

    @pytest.mark.parametrize(
        "order",
        list(itertools.permutations(["commutative", "non-commutative", "unsplittable", "overcounted"])),
    )
    def test_refusals_name_the_first_refused_member(self, order):
        rng = np.random.default_rng(3)
        members = {
            "commutative": two_block_algebra(3, [(1.0, 1.0), (2.0, -1.0)], rng),
            "non-commutative": full_matrix_algebra(2),
            "unsplittable": unsplittable_algebra(),
            "overcounted": overcounted_algebra(),
        }
        expected = assert_batch_matches([members[name] for name in order], 0)
        first = next(e for e in expected if e[0] != "value")
        assert first[1] == {
            "non-commutative": "gelfand_spectrum requires a commutative algebra",
            "unsplittable": "simultaneous diagonalization failed to isolate characters",
            "overcounted": "found 2 characters for an algebra of dimension 1",
        }[next(name for name in order if name != "commutative")]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_commutation_at_the_threshold(self, data):
        """Commutators of norm at the tolerance times 1 + a tiny offset, of
        rank one (Frobenius and operator norm agree) or two (they differ by
        sqrt 2), in a random frame: the batched test decides every pair as
        the one-pair loop does, for bases, batches of bases and cliques."""
        draw = data.draw
        tol = draw(st.sampled_from([1e-13, 1e-9, 1e-8, 1e-6, 1e-3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        d = draw(st.integers(2, 5))
        u = random_frame(rng, d, draw(st.booleans()))
        diag = np.arange(d, dtype=float) * draw(st.sampled_from([1.0, 0.5, 3.0]))
        a = (u * diag) @ u.conj().T
        mats = [np.eye(d, dtype=complex), a]
        for _ in range(draw(st.integers(1, 4))):
            i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
            t = tol * (1.0 + draw(st.sampled_from(OFFSETS))) / (diag[j] - diag[i])
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            if draw(st.booleans()):
                unit[j, i] = 1.0
            mats.append(a + u @ (t * unit) @ u.conj().T)
        algebras = [MatrixStarAlgebra(d, mats[:k], tol) for k in range(2, len(mats) + 1)]
        expected = [reference_is_commutative(v) for v in algebras]
        assert [is_commutative(v) for v in algebras] == expected
        assert _commuting_bases([np.stack(v.basis) for v in algebras], [tol] * len(algebras)) == expected
        assert _commutation_cliques(mats, tol) == reference_commutation_cliques(mats, tol)

    @pytest.mark.parametrize("offset", [-2e-6, -1e-7, 0.0, 1e-7])
    def test_frobenius_norm_accepts_where_the_svd_rounds_above_it(self, monkeypatch, offset):
        """A rank-one commutator has equal Frobenius and operator norms, so
        rounding alone decides which of them is above the tolerance.  With
        every operator norm inflated by 1e-6, as if the SVD had rounded up,
        a commutator just below the tolerance is still accepted by its
        Frobenius norm, in the batch as in the loop."""

        def inflated(norms):
            return lambda stack: norms(stack) * (1.0 + 1e-6)

        monkeypatch.setattr(staralg, "opnorms", inflated(opnorms))
        monkeypatch.setitem(globals(), "opnorm", inflated(opnorm))
        a = np.diag([0.0, 1.0, 2.0]).astype(complex)
        b = a.copy()
        b[0, 1] = 1e-9 * (1.0 + offset)  # the commutator's one entry, exactly
        v = MatrixStarAlgebra(3, [a, b], 1e-9)
        assert is_commutative(v) == reference_is_commutative(v) == (offset <= 0.0)
        assert _commutation_cliques([a, b], 1e-9) == reference_commutation_cliques([a, b], 1e-9)

    @pytest.mark.parametrize("offset", [-2e-6, -1e-7, 1e-7])
    def test_character_residuals_where_the_svd_rounds_above_the_frobenius_norm(self, monkeypatch, offset):
        """A nilpotent part ``x E01`` below the spectral gap leaves one block
        of rank two, on which the character residual of ``1/2 + x E01`` is
        ``x E01``: rank one, so its Frobenius and operator norms agree.  With operator
        norms inflated by 1e-6 in the batch and in the reference alike,
        an ``x`` just below the bound fails the character test (the sweep
        then refuses to isolate characters) exactly as in the loop."""

        def inflated(norms):
            return lambda stack: norms(stack) * (1.0 + 1e-6)

        monkeypatch.setattr(staralg, "opnorms", inflated(opnorms))
        monkeypatch.setitem(globals(), "opnorms", inflated(opnorms))
        monkeypatch.setitem(globals(), "opnorm", inflated(opnorm))
        eye = np.eye(2, dtype=complex)
        nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
        x = 1e-9 * (1.0 + offset)
        v = MatrixStarAlgebra(2, [eye, eye / 2 + x * nilpotent], 1e-9)  # scale 1: the bound is 1e-9
        expected = assert_batch_matches([v], 0)
        assert expected[0][1] == (
            "simultaneous diagonalization failed to isolate characters"
            if offset > -1e-6
            else "found 1 characters for an algebra of dimension 2"
        )

    def test_two_roundings_of_the_frobenius_norm_at_the_tolerance(self, monkeypatch):
        """A rank-one commutator whose one-pair and batched Frobenius norms
        differ in the last bits, with the tolerance at either of them and
        operator norms inflated as above: the batch decides as the loop."""

        def inflated(norms):
            return lambda stack: norms(stack) * (1.0 + 1e-6)

        monkeypatch.setattr(staralg, "opnorms", inflated(opnorms))
        monkeypatch.setitem(globals(), "opnorm", inflated(opnorm))
        rng = np.random.default_rng(11)
        a = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        straddled = 0
        for _ in range(200):
            b = np.zeros((4, 4), dtype=complex)
            b[0] = rng.standard_normal(4) + 1j * rng.standard_normal(4)  # [a, b] is its row 0, scaled
            c = a @ b - b @ a
            norms = {float(np.linalg.norm(c)), float(np.linalg.norm(c[None], axis=(-2, -1))[0])}
            straddled += len(norms) == 2
            for tol in norms:
                v = MatrixStarAlgebra(4, [a, b], tol)
                assert is_commutative(v) == reference_is_commutative(v)
        assert straddled

    def test_both_commutation_decisions_occur_at_the_threshold(self):
        u = random_unitary(np.random.default_rng(5), 3)
        a = (u * np.array([0.0, 1.0, 2.0])) @ u.conj().T
        unit = np.zeros((3, 3), dtype=complex)
        unit[0, 1] = 1.0
        decisions = set()
        for step in range(-40, 41):
            b = a + u @ (1e-9 * (1.0 + step * 1e-6) * unit) @ u.conj().T
            v = MatrixStarAlgebra(3, [a, b], 1e-9)
            assert is_commutative(v) == reference_is_commutative(v)
            assert _commutation_cliques([a, b], 1e-9) == reference_commutation_cliques([a, b], 1e-9)
            decisions.add(is_commutative(v))
        assert decisions == {True, False}
