"""Differential tests of the constraint engine, the table-driven sign search,
the whole-array carrier views, the index-arithmetic carrier, the contexts
built from atoms, the spectra and the array cone oracles against the
implementations they replaced.

The references below are those implementations, frozen: plain
backtracking for global sections and limits, one quadratic form per flat
sign vector for the sign search, per-point loops for the state's JSON view,
and the point-list carrier with its component arrays, together with the
per-point covariance loops, the restriction diagram with its own index
category and tables, the list-based span functions with the closure and
the pairwise context-category build, the one-algebra spectrum and the
dominance tables, the per-mode Fock ladder loops, the Weyl action by
``expm_multiply``, the Pauli and full-algebra row stacks that were
built with each algebra, the report writer ``json.dumps(indent=2)`` and the
carrier integral by ``np.dot``.  Outputs must be identical, in identical
order, and minima bitwise equal; the Weyl action agrees within 1e-14, the
benchmark's gft-weyl reports byte for byte, and the integral within 1e-12.  The contexts and spectra
are compared by report, not by bits: the same ids, order, fiber sizes,
restriction tables and global sections, up to the bijection that matches
projections within 1e-8.
"""

import contextlib
import functools
import io
import itertools
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import I2, SX, SY, SZ, kron, perfbench_module, random_density, random_unitary, reference_index
from ctxlab import cli, fincat, gft, realism, staralg
from ctxlab.cli import emit, main
from ctxlab.ctxext import (
    CARRIER_CAP,
    Element,
    ExtendedAlgebra,
    ProductSpectrum,
    build_limit_extension,
    carrier_to_json,
    embed,
    evaluate_state,
    extend_state,
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
    is_projection,
    is_selfadjoint,
    opnorm,
    opnorms,
    orthonormalize_span,
    span_leq,
    spans_equal,
    spectral_tol,
)
from ctxlab.locnet import (
    LocalNet,
    PauliAlgebra,
    Region,
    check_covariance,
    check_isotony,
    check_locality,
    composite_context,
    pauli_string,
    region_algebra,
    shifted_region,
    site_operator,
    spectrum_multiplicativity,
    standard_net,
    standard_region_algebra,
    translation_unitary,
)
from ctxlab.presheaf import (
    GlobalSection,
    SpectralPresheaf,
    _spectral_steps,
    build_spectral_presheaf,
    bundled_fixture,
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
    MatrixStarAlgebra,
    _cluster,
    _commutation_cliques,
    _selfadjoint_spanning,
    _spans,
    algebra_span_equal,
    algebra_span_leq,
    commuting,
    context_algebra,
    context_category,
    context_category_from_groups,
    full_matrix_algebra,
    gelfand_spectrum,
    generate_algebra,
    is_commutative,
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
    sizes = [len(ext.cc.spectra[cid]) for cid in ids]
    return ReferenceProductSpectrum(ids, sizes, list(itertools.product(*[range(s) for s in sizes])))


def reference_embed_values(a, ctx_id, ext, carrier) -> np.ndarray:
    m = as_matrix(a, ext.cc.algebra(ctx_id).dim)
    char_values = np.array([chi.value_of(m) for chi in ext.cc.spectra[ctx_id]])
    return char_values[carrier.component[ctx_id]]


def reference_weights(marginals, carrier) -> np.ndarray:
    total = np.ones(carrier.size)
    for cid in carrier.context_ids:
        total = total * marginals[cid][carrier.component[cid]]
    return total


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
    carriers = {cid: list(range(len(ext.cc.spectra[cid]))) for cid in ids}
    index = reference_restriction_index_category(ext.cc)
    maps = {}
    for sub, sup in ext.cc.strict_pairs():
        table = {
            i: reference_dominating_character_index(chi, ext.cc.spectra[sub], ext.cc.ambient.tol)
            for i, chi in enumerate(ext.cc.spectra[sup])
        }
        maps[f"{sup}->{sub}"] = table
    return Diagram(index, carriers, maps)


def reference_shifted_region(region, shift, length, cyclic=True):
    if not cyclic:
        if region.stop + shift >= length or region.start + shift < 0:
            raise DomainError(f"shift {shift} moves {region.label()} off the chain")
        return Region(region.start + shift, region.stop + shift)
    sites = sorted(((j + shift) % length) for j in region.sites())
    if sites == list(range(sites[0], sites[0] + len(sites))):
        return Region(sites[0], sites[-1])
    return None


def reference_check_covariance(net, shift, contexts, cyclic=True) -> ValidationReport:
    report = ValidationReport()
    u = translation_unitary(shift, net.length)
    ud = u.conj().T

    def alpha(m):
        return u @ m @ ud

    family = {region: alg for region, alg in contexts}
    targets = {}
    for region, alg in contexts:
        image = reference_shifted_region(region, shift, net.length, cyclic)
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
    cc = context_category_from_groups(ambient, [alg.basis for _, alg in contexts])
    ids_by_region = {}
    for region, alg in contexts:
        for cid in cc.ids():
            if algebra_span_equal(cc.algebra(cid), alg, max(net.tol, 1e-8)):
                ids_by_region[region] = cid
                break
        else:
            raise DomainError(f"context at {region.label()} matches no context built from its generators")
    ext = build_limit_extension(cc)
    carrier = reference_carrier(ext)
    positions = {cid: carrier.position(cid) for cid in carrier.context_ids}

    char_maps = {}
    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        table = {}
        for i, chi in enumerate(ext.cc.spectra[cid]):
            moved = alpha(chi.projection)
            hits = [
                j
                for j, tchi in enumerate(ext.cc.spectra[tid])
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

        records = carrier_to_json(ext)
        assert records == [dict(zip(ids, pt)) for pt in carrier.points]
        assert json.dumps(records) == json.dumps([dict(zip(ids, pt)) for pt in carrier.points])

    @settings(max_examples=40, deadline=None)
    @given(case=seed_families(), data=st.data())
    def test_point_lookup_matches_the_point_list(self, case, data):
        """A point reads ``a`` through two contexts as the values of its two
        embeddings at the point's position, found by index or by tuple."""
        cc, _ = case
        ext = build_limit_extension(cc)
        carrier = reference_carrier(ext)
        ids = ext.carrier.context_ids
        v1 = data.draw(st.sampled_from(ids))
        a = data.draw(st.sampled_from(cc.algebra(v1).basis))
        v2 = data.draw(st.sampled_from([cid for cid in ids if cc.algebra(cid).contains(a)]))
        left, right = embed(a, v1, ext).values, embed(a, v2, ext).values
        for _ in range(5):
            x = data.draw(st.integers(0, carrier.size - 1))
            expected = reference_point_valuation(a, v1, v2, x, ext, carrier)
            assert (complex(left[x]), complex(right[x])) == expected
            assert reference_point_valuation(a, v1, v2, ext.carrier.points[x], ext, carrier) == expected

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
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_shifted_regions_match_the_reference(self, length):
        """Every interval under every shift of up to two turns either way."""
        for start in range(length):
            for stop in range(start, length):
                region = Region(start, stop)
                for shift in range(-2 * length, 2 * length + 1):
                    assert shifted_region(region, shift, length) == reference_shifted_region(region, shift, length)

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
# contexts from atoms and one overlap matrix against the closure, the
# pairwise category build, the one-algebra spectra and dominance tables;
# the row-matrix span format against the list-based span functions


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


def projection_bijection(found, expected) -> dict:
    """Index map from the characters ``found`` to the characters
    ``expected`` whose projections match within 1e-8 (operator norm), with
    equal ranks; asserted to be a bijection."""
    match = {}
    for i, chi in enumerate(found):
        hits = [j for j, rho in enumerate(expected) if opnorm(chi.projection - rho.projection) <= 1e-8]
        assert len(hits) == 1 and expected[hits[0]].rank == chi.rank
        match[i] = hits[0]
    assert sorted(match.values()) == list(range(len(expected)))
    return match


def assert_same_category(cc, group_generators, groups, plain_sections=True):
    """``cc`` and its presheaf against the frozen build: the closure bases
    of the groups, the pairwise assembly, each context's one-algebra
    spectrum and the dominance tables.  The same ids, order, generators
    and fiber sizes; the same restriction tables and the same global
    sections, up to the bijection that matches the projections.  The
    frozen presheaf's sections come from plain backtracking, which takes
    up to a minute on some Peres sub-families of 14-20 bases, or with
    ``plain_sections=False`` from ``global_sections``, which
    ``TestGlobalSectionsOracle`` holds to plain backtracking."""
    d, tol = cc.ambient.dim, cc.ambient.tol
    group_bases = [reference_generate_basis(group, d, tol) for group in groups]
    contexts, order, generators = reference_assemble(d, group_bases, group_generators, tol)
    assert cc.ids() == list(contexts)
    assert cc.order == order
    assert cc.generators == generators
    fibers = {cid: reference_gelfand_spectrum(MatrixStarAlgebra(d, ctx.basis, tol)) for cid, ctx in contexts.items()}
    match = {cid: projection_bijection(cc.spectra[cid], fibers[cid]) for cid in cc.ids()}
    sheaf = build_spectral_presheaf(cc)
    tables = {}
    for sub, sup in cc.strict_pairs():
        tables[(sub, sup)] = {
            i: reference_dominating_character_index(chi, fibers[sub], tol) for i, chi in enumerate(fibers[sup])
        }
        found = sheaf.restrictions[(sub, sup)]
        assert {match[sup][i]: match[sub][j] for i, j in found.items()} == tables[(sub, sup)]
    ids = cc.ids()
    sections = {tuple(match[cid][s.assignment[cid]] for cid in ids) for s in global_sections(sheaf)}
    solve = reference_global_sections if plain_sections else global_sections
    reference = solve(SpectralPresheaf(cc, fibers, tables))
    assert sections == {tuple(s.assignment[cid] for cid in ids) for s in reference}
    return len(reference)


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


def hermitian_seeds(draw, dim):
    """Random self-adjoint matrices, most diagonal in one of two shared
    frames with repeated eigenvalues (commuting and degenerate), some in a
    frame of their own."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = [random_unitary(rng, dim) for _ in range(2)]
    seeds = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["shared", "shared", "own"]))
        u = frames[draw(st.integers(0, 1))] if kind == "shared" else random_unitary(rng, dim)
        values = np.round(rng.standard_normal(dim), 1) if draw(st.booleans()) else rng.standard_normal(dim)
        if draw(st.booleans()):
            values[: draw(st.integers(1, dim))] = values[0]
        h = (u * values) @ u.conj().T
        seeds.append((h + h.conj().T) / 2.0)
    return seeds


@st.composite
def seed_lists(draw):
    """Two-qubit Pauli seeds, all real or any; random projections, or
    random self-adjoint matrices, in dimension 2-4."""
    kind = draw(st.sampled_from(["real", "complex", "projections", "hermitian"]))
    if kind in ("projections", "hermitian"):
        dim = draw(st.integers(2, 4))
        return dim, (projection_seeds if kind == "projections" else hermitian_seeds)(draw, dim)
    pool = REAL_PAULIS2 if kind == "real" else PAULIS2
    return 4, [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=5, unique=True))]


CABELLO = load_ray_fixture(bundled_fixture("cabello18.json"))


class TestAtomCategoryOracle:
    """The contexts built from atoms and one overlap Gram matrix against the
    closure, principal-angle meets, span containment, one-algebra spectra
    and dominance tables they replaced."""

    @settings(max_examples=25, deadline=None)
    @given(indices=st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True))
    def test_peres_subfamilies(self, indices):
        dim, bases = PERES
        chosen = [bases[i] for i in sorted(indices)]
        cc = ray_family_context_category(dim, chosen)
        groups = [rays_to_projectors(basis) for basis in chosen]
        assert_same_category(cc, [[] for _ in groups], groups, plain_sections=len(groups) <= 7)

    @pytest.mark.parametrize("name", ["cabello18", "peres24", "repeated"])
    def test_whole_fixtures_and_a_repeated_basis(self, name):
        dim, bases = CABELLO if name == "cabello18" else PERES
        if name == "repeated":
            bases = [bases[0], bases[3], bases[0], bases[5], bases[3]]
        cc = ray_family_context_category(dim, bases)
        groups = [rays_to_projectors(basis) for basis in bases]
        sections = assert_same_category(cc, [[] for _ in groups], groups)
        assert (sections == 0) == (name != "repeated")

    @settings(max_examples=60, deadline=None)
    @given(case=seed_lists())
    def test_seed_families(self, case):
        dim, seeds = case
        cc = context_category(full_matrix_algebra(dim), seeds)
        cliques = _commutation_cliques([as_matrix(s, dim) for s in seeds], cc.ambient.tol)
        assert_same_category(cc, [list(c) for c in cliques], [[seeds[i] for i in c] for c in cliques])

    @pytest.mark.parametrize("kind", ["sites", "mixed", "orphan", "two-site"])
    @pytest.mark.parametrize("length", [2, 3])
    def test_covariance_families(self, length, kind):
        net = chain(length)
        groups = [alg.basis for _, alg in covariance_family(net, kind)]
        cc = context_category_from_groups(full_matrix_algebra(net.dim, net.tol), groups)
        assert_same_category(cc, [[] for _ in groups], groups)

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


# ---------------------------------------------------------------------------
# the limit of the restriction diagram against the global sections: one
# object reached by two adapters over one search


def limit_families(cc) -> list:
    """The families of the limit of ``cc``'s restriction diagram, as tuples
    in ``cc.ids()`` order.  A product carrier past ``CARRIER_CAP`` is made
    without ``build_limit_extension``'s refusal: no point is listed."""
    ids = cc.ids()
    carrier = ProductSpectrum(ids, [len(cc.spectra[cid]) for cid in ids])
    ext = build_limit_extension(cc) if carrier.size <= CARRIER_CAP else ExtendedAlgebra(cc, carrier)
    diagram = spectrum_diagram(ext, with_restrictions=True)
    assert list(diagram.index.objects) == ids
    return limit_of_diagram(diagram).apex


def assert_limit_is_the_global_sections(cc) -> int:
    families = limit_families(cc)
    sections = [tuple(s.assignment[cid] for cid in cc.ids()) for s in global_sections(build_spectral_presheaf(cc))]
    assert len(set(families)) == len(families) and len(set(sections)) == len(sections)
    assert set(families) == set(sections)
    return len(families)


class TestLimitAgainstGlobalSections:
    @settings(max_examples=60, deadline=None)
    @given(case=seed_families())
    def test_seed_families(self, case):
        cc, _ = case
        assert_limit_is_the_global_sections(cc)

    @pytest.mark.parametrize("name, count", [("cabello18", None), ("peres24", None),
                                             ("peres6", 6), ("peres9", 9), ("peres12", 12), ("peres15", 15)])
    def test_ray_families(self, name, count):
        """cabello18 and Peres-24, which have no section, and the first 6,
        9, 12 and 15 Peres bases; every product carrier here passes the
        cap."""
        dim, bases = CABELLO if name == "cabello18" else PERES
        cc = ray_family_context_category(dim, bases[:count])
        assert math.prod(len(chars) for chars in cc.spectra.values()) > CARRIER_CAP
        sections = assert_limit_is_the_global_sections(cc)
        assert (sections == 0) == (count is None)


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
    """``orthonormalize_span`` on a stacked array, tall or not, against the
    frozen list-based function.  Both sides take one plain SVD of the same
    rows, so their rows agree bitwise, tall stacks included."""

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
        """The closure spans what the frozen one spans.  It scales its
        generators to unit norm and forms its products with ``matmul``, so
        its rows are another frame of that span, not the same bits."""
        d, gens = case
        basis = generate_algebra(gens, d, dim_cap=d).basis
        assert reference_spans_equal(basis, reference_generate_basis(gens, d))


# ---------------------------------------------------------------------------
# restriction by overlap against dominance, and the split test against the
# per-block character test

# relative offsets from a threshold: the smallest ones leave the decision to
# rounding, which both sides must make alike
OFFSETS = [-1e-3, -1e-6, -1e-8, -1e-10, 0.0, 1e-10, 1e-8, 1e-6, 1e-3]


def frame_blocks(draw, dim, rng):
    """A random unitary frame and its columns cut into consecutive groups."""
    u = random_unitary(rng, dim)
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), max_size=dim - 1))) if dim > 1 else []
    return u, [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [dim])]


@st.composite
def near_threshold_refinements(draw):
    """Projections onto groups of a frame's columns (some group holding
    two or more), and the rank-one projections of that frame with one or
    two disjoint column pairs from different groups rotated by an angle
    whose sine is the restriction threshold times 1 +- 1e-3.  Each column
    leaks into one other group at most: below the threshold into two,
    the overlap rule still finds one coarse atom above it, while
    dominance, which bounds the whole leak, refuses."""
    dim = draw(st.integers(3, 5))
    tol = draw(st.sampled_from([1e-9, 1e-8, 3e-8, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = random_unitary(rng, dim)
    cuts = sorted(draw(st.sets(st.integers(1, dim - 1), min_size=1, max_size=dim - 2)))
    groups = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [dim])]
    coarse = [u[:, g] @ u[:, g].conj().T for g in groups]
    fine_frame, used = u.copy(), set()
    for _ in range(draw(st.integers(1, 2))):
        g = groups[draw(st.integers(0, len(groups) - 1))]
        free = [c for c in g if c not in used]
        others = [c for c in range(dim) if c not in g and c not in used]
        if not free or not others:
            break
        a, b = draw(st.sampled_from(free)), draw(st.sampled_from(others))
        used |= {a, b}
        eps = np.arcsin(max(tol, 1e-8) * (1.0 + draw(st.sampled_from([-1e-3, 1e-3]))))
        fine_frame[:, [a, b]] = fine_frame[:, [a, b]] @ np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    fine = [np.outer(v, v.conj()) for v in fine_frame.T]
    return coarse, fine, tol


def outcome(fn, *args):
    """A function's value, or the message of its refusal."""
    try:
        return "value", fn(*args)
    except (DomainError, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


# relative offsets from the character bound, clear of rounding
CLEAR_OFFSETS = [-1e-3, -1e-4, 1e-4, 1e-3]


class TestCharacterTestOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=near_threshold_refinements())
    def test_restriction_tables(self, case):
        """The overlap rule decides as dominance did: a context whose atoms
        are tilted out of a coarser one's by less than the threshold lies
        above it, with dominance's table, and by more lies not above it,
        where dominance refuses."""
        coarse, fine, tol = case
        cc = context_category_from_groups(full_matrix_algebra(len(fine), tol), [coarse, fine])

        def reference_table(fine, coarse, tol):
            return {i: reference_dominating_character_index(chi, coarse, tol) for i, chi in enumerate(fine)}

        expected = outcome(reference_table, cc.spectra["V1"], cc.spectra["V0"], tol)
        assert cc.leq("V0", "V1") == (expected[0] == "value")
        if cc.leq("V0", "V1"):
            assert cc.restrictions[("V0", "V1")] == expected[1]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_blocks_and_selfadjoint_parts(self, data):
        """Basis matrices that are scalars on each block of a frame, plus a
        within-block perturbation near the character bound and, for real
        scalars, an anti-self-adjoint part at the rank floor: the split test
        decides as the per-block character test did."""
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
                b = b + max(tol, 1e-9) * scale * (1.0 + draw(st.sampled_from(CLEAR_OFFSETS))) * x
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
        assert _spans([blocks], [stack], [scales], tol)[0] == reference_validate_blocks(blocks, basis, tol)


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
    return [(c.apex, c.legs) for c in cones]


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


def reference_cluster(values, tol, slack=1.0) -> list:
    """``slack`` scales the gap threshold (exactly, at 1.0)."""
    order = np.argsort(values)
    scale = max(1.0, float(np.abs(values).max())) if values.size else 1.0
    groups = [[order[0]]] if values.size else []
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= max(tol, 1e-8) * scale * slack:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


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
    def test_boolean_blocks(self, case, data):
        """Group projections of one frame and of a second one: the atoms of
        each commuting clique's Boolean block are the characters of one
        context that ``context_category`` builds from the same projections."""
        tol, u, groups, _, rng = case
        w, other = frame_blocks(data.draw, len(u), rng)
        projs = [u[:, g] @ u[:, g].conj().T for g in groups] + [w[:, g] @ w[:, g].conj().T for g in other[:2]]
        cc = context_category(full_matrix_algebra(len(u), tol), projs)
        spectra = [[chi.projection for chi in cc.spectra[cid]] for cid in cc.ids()]

        def same_atoms(atoms, projections):
            return len(atoms) == len(projections) and all(
                sum(opnorm(atom - p) < 1e-8 for p in projections) == 1 for atom in atoms
            )

        for _, atoms, _ in reference_boolean_blocks(projs, tol):
            assert sum(same_atoms(atoms, spectrum) for spectrum in spectra) == 1

    @settings(max_examples=150, deadline=None)
    @given(case=daseinisation_cases())
    def test_daseinisations(self, case):
        p, v = case
        assert same_outcome(outer_daseinisation, reference_outer_daseinisation, p, v)
        assert same_outcome(inner_daseinisation, reference_inner_daseinisation, p, v)

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
            assert same_outcome(operator_interval, reference_operator_interval, a, v, chi)

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
        assert operator_interval(a, v, chi) == (closed if new_merged else open_)


# ---------------------------------------------------------------------------
# spectra and commutation tests against the one-algebra code


def reference_commute(a, b, tol) -> bool:
    """One commutator: its Frobenius norm, then its SVD."""
    c = a @ b - b @ a
    return bool(np.linalg.norm(c) <= tol or opnorm(c) <= tol)


def reference_is_commutative(a) -> bool:
    """``reference_commute`` on every basis pair."""
    n = a.dimension
    return all(reference_commute(a.basis[i], a.basis[j], a.tol) for i in range(n) for j in range(i + 1, n))


def reference_commutation_cliques(mats, tol) -> list:
    """``reference_commute`` on every ordered pair, then Bron-Kerbosch."""
    adjacent = [
        {j for j in range(len(mats)) if j != i and reference_commute(mats[i], mats[j], tol)}
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


def dense_clashes(left, right, tol) -> list:
    """The basis pairs that ``check_locality`` reports as clashing between
    two disjoint regions that hold the matrices ``left`` and ``right`` and
    no strings, so the dense path decides them."""
    d = len(left[0])
    net = LocalNet(2, {Region(0, 0): MatrixStarAlgebra(d, list(left), tol),
                       Region(1, 1): MatrixStarAlgebra(d, list(right), tol)}, tol=tol)
    found = [re.fullmatch(r"basis elements (\d+) of \[0,0\] and (\d+) of \[1,1\] do not commute", v.message)
             for v in check_locality(net).violations]
    return [(int(m[1]), int(m[2])) for m in found]


def reference_clashes(left, right, tol) -> list:
    return [(i, j) for i, a in enumerate(left) for j, b in enumerate(right) if not reference_commute(a, b, tol)]


@dataclass
class ReferenceCharacter:
    projection: np.ndarray
    values: np.ndarray
    rank: int


def reference_gelfand_spectrum(v, retries=3, slack=1.0) -> list:
    """One algebra at a time: its own draws from ``default_rng(0)``,
    eigendecomposition and character residual per retry, then the
    refinement sweep; a count of characters other than the dimension is
    refused after whichever split stands.  ``slack`` scales the gap
    threshold and the character bound (exactly, at 1.0)."""
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
        return [isometry @ vecs[:, group] for group in reference_cluster(w, v.tol, slack)]

    def characters(blocks):
        projs = np.stack([iso @ dagger(iso) for iso in blocks])
        ranks = [iso.shape[1] for iso in blocks]
        pb = projs[:, None] @ stack
        vals = np.trace(pb, axis1=-2, axis2=-1) / np.array(ranks)[:, None]
        residual = pb @ projs[:, None] - vals[..., None, None] * projs[:, None]
        if np.any(opnorms(residual) > max(v.tol, 1e-9) * scales * slack):
            return None
        return [ReferenceCharacter(projection=p, values=values, rank=r) for p, values, r in zip(projs, vals, ranks)]

    rng = np.random.default_rng(0)
    chars = None
    for _ in range(retries):
        coeffs = rng.standard_normal(len(herm))
        h = sum(c * s for c, s in zip(coeffs, herm)) if herm else np.zeros((d, d), dtype=complex)
        chars = characters(blocks_from_vectors(h, np.eye(d, dtype=complex)))
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


def same_spectrum_outcome(found, expected) -> bool:
    """The same refusal, or the same characters up to their order."""
    if found[0] != "value" or expected[0] != "value":
        return found == expected
    try:
        projection_bijection(found[1], expected[1])
    except AssertionError:
        return False
    return True


def block_residual_ratio(v, chars) -> float:
    """Largest ``‖b - sum val p‖ / bound`` over the basis, for the
    characters' projections p and the character bound of the algebra."""
    worst = 0.0
    for b in v.basis:
        rebuilt = sum(np.trace(chi.projection @ b) / chi.rank * chi.projection for chi in chars)
        worst = max(worst, opnorm(b - rebuilt) / (max(v.tol, 1e-9) * max(1.0, opnorm(b))))
    return worst


def assert_spectrum_matches(v, retries=3):
    """``gelfand_spectrum`` against the one-algebra reference: the same
    outcome, or the reference's with its gap and bound thresholds moved by
    a relative 1e-6, or a sound outcome where the reference is not to be
    matched.  The character test now reads the whole residual
    ``b - sum val p``, not each block's compression ``p b p - val p``, and
    sums the combination in another order, so two cases differ on purpose:
    a basis that commutes within the tolerance but is no combination of
    the reference's blocks (their compressions pass, their off-block parts
    do not), and inputs on which the reference itself decides differently
    within 1e-6 of a threshold.  There the outcome must be one of the
    spectrum's refusals, or one character per dimension whose projections
    rebuild every basis matrix within the bound.  Returns the reference
    outcome."""
    expected = outcome(reference_gelfand_spectrum, v, retries)
    found = outcome(gelfand_spectrum, v)
    if same_spectrum_outcome(found, expected):
        return expected
    around = [outcome(reference_gelfand_spectrum, v, retries, 1.0 + shift) for shift in (-1e-6, 1e-6)]
    if any(same_spectrum_outcome(found, e) for e in around):
        return expected
    on_threshold = not all(same_spectrum_outcome(e, expected) for e in around)
    assert on_threshold or (expected[0] == "value" and block_residual_ratio(v, expected[1]) > 1.0 - 1e-6)
    if found[0] == "value":
        assert len(found[1]) == v.dimension and block_residual_ratio(v, found[1]) <= 1.0 + 1e-6
    else:
        assert found[1] in ("simultaneous diagonalization failed to isolate characters",
                            "gelfand_spectrum requires a commutative algebra") or re.fullmatch(
            r"found \d+ characters for an algebra of dimension \d+", found[1])
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


class TestSpectrumOracle:
    @settings(max_examples=150, deadline=None)
    @given(v=frame_algebras())
    def test_frame_algebras(self, v):
        assert_spectrum_matches(v)
        assert is_commutative(v) == reference_is_commutative(v)

    @settings(max_examples=40, deadline=None)
    @given(v=frame_algebras(), retries=st.sampled_from([0, 1, 2]))
    def test_fewer_retries_take_the_sweep(self, v, retries):
        with spectrum_retries(retries):
            assert_spectrum_matches(v, retries)

    @pytest.mark.parametrize("frame", [0, 1, 101])
    def test_a_failed_draw_retries_and_the_sweep_follows_the_last(self, frame, monkeypatch):
        """Two blocks, in a random frame, whose eigenvalues under the first
        draw of the fixed stream coincide: that draw gives one block, and
        the next draw's two stand, or with one draw allowed the sweep's; a
        generic algebra stands at the first draw."""
        first = np.random.default_rng(0).standard_normal(2)
        rng = np.random.default_rng(frame)
        # block values whose differences are (first[1], -first[0]): the first
        # draw gives both blocks the same eigenvalue
        merged = two_block_algebra(4, [(first[1], 0.0), (0.0, first[0])], rng)
        generic = two_block_algebra(4, [(1.0, -1.0), (0.5, 2.0)], rng)
        splits = []
        original = staralg._blocks_from_vectors

        def spy(*args):
            splits.extend(len(split) for split in original(*args))
            return original(*args)

        monkeypatch.setattr(staralg, "_blocks_from_vectors", spy)
        assert_spectrum_matches(generic)
        assert splits == [2]
        splits.clear()
        assert_spectrum_matches(merged)
        assert splits == [1, 2]
        splits.clear()
        with spectrum_retries(1):
            assert_spectrum_matches(merged, retries=1)
        assert splits == [1, 2, 1, 1]  # the one draw, then the sweep by each basis matrix

    @pytest.mark.parametrize(
        "name, message",
        [
            ("non-commutative", "gelfand_spectrum requires a commutative algebra"),
            ("unsplittable", "simultaneous diagonalization failed to isolate characters"),
            ("overcounted", "found 2 characters for an algebra of dimension 1"),
        ],
    )
    def test_refusals(self, name, message):
        v = {"non-commutative": full_matrix_algebra(2), "unsplittable": unsplittable_algebra(),
             "overcounted": overcounted_algebra()}[name]
        assert assert_spectrum_matches(v) == ("DomainError", message)

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
        assert _commutation_cliques(mats, tol) == reference_commutation_cliques(mats, tol)
        assert dense_clashes(mats[:2], mats[2:], tol) == reference_clashes(mats[:2], mats[2:], tol)

    @pytest.mark.parametrize("offset", [-2e-6, -1e-7, 0.0, 1e-7])
    def test_frobenius_norm_accepts_where_the_svd_rounds_above_it(self, monkeypatch, offset):
        """A rank-one commutator has equal Frobenius and operator norms, so
        rounding alone decides which of them is above the tolerance.  With
        every operator norm inflated by 1e-6, as if the SVD had rounded up,
        a commutator just below the tolerance is still accepted by its
        Frobenius norm, in the batch as in the loop, by the cliques and by
        dense locality."""

        def inflated(norms):
            return lambda stack: norms(stack) * (1.0 + 1e-6)

        monkeypatch.setattr(staralg, "opnorms", inflated(opnorms))
        monkeypatch.setitem(globals(), "opnorm", inflated(opnorm))
        a = np.diag([0.0, 1.0, 2.0]).astype(complex)
        b = a.copy()
        b[0, 1] = 1e-9 * (1.0 + offset)  # the commutator's one entry, exactly
        v = MatrixStarAlgebra(3, [a, b], 1e-9)
        assert is_commutative(v) == reference_is_commutative(v) == (offset <= 0.0)
        cliques = [(0, 1)] if offset <= 0.0 else [(0,), (1,)]
        assert _commutation_cliques([a, b], 1e-9) == reference_commutation_cliques([a, b], 1e-9) == cliques
        clashes = [] if offset <= 0.0 else [(0, 0)]
        assert dense_clashes([a], [b], 1e-9) == reference_clashes([a], [b], 1e-9) == clashes

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
        expected = assert_spectrum_matches(v)
        assert expected[1] == (
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
                assert _commutation_cliques([a, b], tol) == reference_commutation_cliques([a, b], tol)
                assert dense_clashes([a], [b], tol) == reference_clashes([a], [b], tol)
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
            assert dense_clashes([a], [b], 1e-9) == reference_clashes([a], [b], 1e-9)
            decisions.add(is_commutative(v))
        assert decisions == {True, False}


# ---------------------------------------------------------------------------
# one commutation rule against the one-pair loop; contexts from atoms
# against the product closure


@st.composite
def matrix_stacks(draw):
    """Two stacks of 0-5 d x d matrices: random ones, and ones diagonal in
    one shared frame, some moved off it by about the tolerance."""
    d = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([1e-13, 1e-9, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u = random_unitary(rng, d)

    def matrix():
        kind = draw(st.sampled_from(["random", "frame", "near"]))
        if kind == "random":
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = (u * (rng.standard_normal(d) + 1j * rng.standard_normal(d))) @ u.conj().T
        if kind == "near":
            m = m + tol * (1.0 + draw(st.sampled_from(OFFSETS))) * random_unitary(rng, d)
        return m

    stacks = [np.array([matrix() for _ in range(draw(st.integers(0, 5)))]).reshape(-1, d, d) for _ in range(2)]
    return stacks[0], stacks[1], tol


class TestCommutingOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=matrix_stacks(), entries=st.sampled_from([1, 16, 1 << 16]))
    def test_every_pair_as_the_one_pair_loop(self, case, entries):
        """Each pair decided as ``reference_commute`` decides it, in chunks
        of one pair, of a few pairs, and of all of them."""
        a, b, tol = case
        expected = np.array([[reference_commute(x, y, tol) for y in b] for x in a], dtype=bool).reshape(len(a), len(b))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(staralg, "COMMUTATOR_CHUNK", entries)
            found = commuting(a, b, tol)
        assert found.dtype == bool and found.shape == (len(a), len(b))
        assert np.array_equal(found, expected)

    def test_a_non_commutative_algebra_is_refused_at_its_first_failing_row(self, monkeypatch):
        rows = []
        original = staralg.commuting

        def spy(a, b, tol):
            rows.append(len(b))
            return original(a, b, tol)

        monkeypatch.setattr(staralg, "commuting", spy)
        assert not is_commutative(full_matrix_algebra(3))
        assert rows == [8]
        assert is_commutative(generate_algebra([np.diag([1.0, 2.0, 3.0])], 3))
        assert rows == [8, 2, 1, 0]


def frame_generators(draw, d, rng):
    """Normal matrices diagonal in one random frame, whose eigenvalues
    repeat on drawn column groups (degenerate spectra)."""
    u = random_frame(rng, d, draw(st.booleans()))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=d - 1))) if d > 1 else []
    groups = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [d])]
    values = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 1j, 1.0 - 2j])
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        diag = np.zeros(d, dtype=complex)
        for group in groups:
            diag[group] = draw(values)
        gens.append((u * diag) @ u.conj().T)
    return gens


@st.composite
def commuting_families(draw):
    """Commuting generators: diagonal in a random frame with degenerate
    spectra, or scaled products of Z strings on 1-3 qubits."""
    tol = draw(st.sampled_from([1e-13, 1e-9, 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        d = draw(st.integers(1, 6))
        return d, frame_generators(draw, d, rng), tol
    qubits = draw(st.integers(1, 3))
    words = draw(st.lists(st.sets(st.integers(0, qubits - 1), min_size=1), max_size=4))
    scales = st.sampled_from([1.0, -0.5, 3.0, 1j])
    return 2**qubits, [draw(scales) * pauli_string({q: "Z" for q in w}, qubits) for w in words], tol


@st.composite
def composite_parts(draw):
    """A chain of 2-3 sites and, on some of its sites, a context generated
    by a random single-site normal matrix (or a scalar one), by the dense
    closure or from atoms."""
    length = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sites = draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=length, unique=True))
    parts = []
    for site in sorted(sites):
        single = frame_generators(draw, 2, rng)
        gens = [site_operator(g, site, length) for g in single]
        build = context_algebra if draw(st.booleans()) else generate_algebra
        parts.append((Region(site, site), build(gens, 2**length, 1e-9)))
    return standard_net(length), parts


class TestContextAlgebraOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=commuting_families(), reverse=st.booleans())
    def test_spans_equal_the_closure(self, case, reverse):
        """The generators as drawn or in reverse order, which the split's
        fixed draw combines otherwise."""
        d, gens, tol = case
        found = context_algebra(gens[::-1] if reverse else gens, d, tol)
        expected = generate_algebra(gens, d, tol, dim_cap=d)
        assert spans_equal(found.ortho, expected.ortho, spectral_tol(tol))
        assert is_commutative(found) and found.validate().ok
        assert len(gelfand_spectrum(found)) == found.dimension

    @settings(max_examples=60, deadline=None)
    @given(case=composite_parts())
    def test_composite_contexts_count_as_the_closure(self, case):
        net, parts = case
        closure = generate_algebra([b for _, alg in parts for b in alg.basis], net.dim, net.tol, dim_cap=net.dim)
        composite = composite_context(net, parts)
        assert composite.dimension == closure.dimension
        assert spans_equal(composite.ortho, closure.ortho, spectral_tol(net.tol))
        expected = math.prod(len(gelfand_spectrum(alg)) for _, alg in parts)
        assert spectrum_multiplicativity(net, parts) == (len(gelfand_spectrum(closure)), expected)

    def test_non_commuting_generators_are_refused(self):
        with pytest.raises(DomainError, match="the generators do not generate a commutative algebra"):
            context_algebra([SX, SZ], 2)


def assert_holds_the_reference_spectrum(v):
    """The characters that an algebra built from atoms holds, against the
    frozen one-algebra split of that algebra put in the fixed reading
    order: the same count, ranks and order, projections within 1e-12, and
    ``gelfand_spectrum`` returns the held list itself."""
    held = v._characters
    expected = reference_gelfand_spectrum(v)
    projs = np.stack([chi.projection for chi in expected])
    ranks = [chi.rank for chi in expected]
    expected = [expected[k] for k in staralg._reading_order(staralg._traces(projs) / ranks, v.tol)]
    assert len(held) == len(expected) == v.dimension
    assert [chi.rank for chi in held] == [chi.rank for chi in expected]
    assert all(opnorm(chi.projection - ref.projection) <= 1e-12 for chi, ref in zip(held, expected))
    assert gelfand_spectrum(v) is held


class TestHeldCharactersOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=commuting_families(), reverse=st.booleans())
    def test_context_algebras(self, case, reverse):
        d, gens, tol = case
        assert_holds_the_reference_spectrum(context_algebra(gens[::-1] if reverse else gens, d, tol))

    @settings(max_examples=40, deadline=None)
    @given(case=seed_lists())
    def test_context_categories(self, case):
        dim, seeds = case
        cc = context_category(full_matrix_algebra(dim), seeds)
        for cid in cc.ids():
            assert_holds_the_reference_spectrum(cc.algebra(cid))
            assert cc.spectra[cid] is cc.algebra(cid)._characters


# ---------------------------------------------------------------------------
# the Fock ladders from one index table against the per-mode loops, and the
# Taylor Weyl action against ``expm_multiply``


def reference_annihilator(fock, mode):
    from scipy.sparse import csr_array

    index = reference_index(fock)
    rows, cols, vals = [], [], []
    for occ, col in index.items():
        if occ[mode] == 0:
            continue
        rows.append(index[occ[:mode] + (occ[mode] - 1,) + occ[mode + 1 :]])
        cols.append(col)
        vals.append(np.sqrt(occ[mode]))
    return csr_array((np.array(vals, dtype=complex), (rows, cols)), shape=(fock.dim, fock.dim))


def reference_field_operator(f, fock):
    from scipy.sparse import csr_array

    fv = np.asarray(f, dtype=complex)
    w = np.sqrt(fock.mode_weight)
    rows, cols, vals = [], [], []
    for mode in range(fock.modes):
        if fv[mode] != 0:
            ladder = reference_annihilator(fock, mode)
            rows.append(np.repeat(np.arange(fock.dim), np.diff(ladder.indptr)))
            cols.append(ladder.indices)
            vals.append(ladder.data * (w * fv[mode]))
    if not vals:
        return csr_array((fock.dim, fock.dim), dtype=complex)
    return csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(fock.dim, fock.dim)
    )


def reference_weyl_apply(fv, fock, cols):
    """``expm_multiply`` under a fixed global random state, which its norm
    estimates draw from; the caller's state is put back."""
    from scipy.sparse.linalg import expm_multiply

    state = np.random.get_state()
    np.random.seed(0)
    try:
        psi = gft.field_operator(fv, fock)
        return expm_multiply(1j / np.sqrt(2.0) * (psi + dagger(psi)), cols)
    finally:
        np.random.set_state(state)


def same_csr(found, expected) -> bool:
    return (
        found.shape == expected.shape
        and found.data.tobytes() == expected.data.tobytes()
        and np.array_equal(found.indices, expected.indices)
        and np.array_equal(found.indptr, expected.indptr)
    )


@st.composite
def fock_cases(draw):
    """A polyhedron space, a cutoff at Fock dimension <= 500, and a test
    function with some zero entries."""
    m, n = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4)]))
    space = gft.PolyhedronSpace(m, n)
    n_max = draw(st.integers(0, 6).filter(lambda k: math.comb(space.size + k, k) <= 500))
    parts = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    entries = draw(st.lists(st.tuples(parts, parts, st.booleans()), min_size=space.size, max_size=space.size))
    f = np.array([complex(re, im) if keep else 0 for re, im, keep in entries])
    return space, n_max, f


class TestFockLadderOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=fock_cases())
    def test_ladders_and_fields_are_the_per_mode_loops_bit_for_bit(self, case):
        space, n_max, f = case
        fock = gft.fock_for(space, n_max)
        assert fock.dim == len(reference_index(fock))
        for mode in range(fock.modes):
            unit = np.eye(fock.modes, dtype=complex)[mode]
            assert same_csr(gft.field_operator(unit, fock), reference_field_operator(unit, fock))
        assert same_csr(gft.field_operator(f, fock), reference_field_operator(f, fock))


class TestWeylActionOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=fock_cases(), norm=st.floats(0.05, 2.0), cap=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_the_taylor_action_is_expm_multiply(self, case, norm, cap, seed):
        space, n_max, _ = case
        fock = gft.fock_for(space, max(n_max, 1))
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        f *= norm / np.sqrt(abs(gft.inner_product(f, f, space)))
        _, cols = gft._sector_columns(fock, min(cap, fock.n_max - 1))
        found = gft._weyl_apply(f, fock, cols)
        assert np.abs(found - reference_weyl_apply(f, fock, cols)).max() <= 1e-14

    def test_benchmark_reports_are_byte_equal(self, capsys, monkeypatch):
        workloads = perfbench_module("workloads")
        batches = [workloads.fock_sector(seed, "full", "") for seed in range(100, 160)]
        argvs = [check["argv"] for batch in batches for check in batch if check["kind"] == "gft-weyl"]
        assert len(argvs) == 120
        argvs.append(["--seed", "612233", "gft-weyl", "--m", "2", "--n", "2", "--sweep", "2,4,6,8,10", "--norm", "2.0"])
        found = []
        for argv in argvs:
            assert main(argv) == 0
            found.append(capsys.readouterr().out)
        monkeypatch.setattr(gft, "_weyl_apply", reference_weyl_apply)
        for argv, report in zip(argvs, found):
            assert main(argv) == 0
            assert capsys.readouterr().out == report, argv


# ---------------------------------------------------------------------------
# the Pauli and full-algebra rows, built on first read, against the stacks
# that were built with each algebra


def reference_popcount(masks, length):
    return sum((masks >> k) & 1 for k in range(length))


def reference_string_rows(strings, length) -> np.ndarray:
    d = 2**length
    x, z = np.asarray(strings, dtype=np.intp).reshape(-1, 2).T
    cols = np.arange(d)
    phases = np.array([1, 1j, -1, -1j])[reference_popcount(x & z, length) % 4]
    signs = 1 - 2 * (reference_popcount(z[:, None] & cols, length) % 2)
    rows = np.zeros((len(x), d, d), dtype=complex)
    rows[np.arange(len(x))[:, None], cols ^ x[:, None], cols] = (phases[:, None] * signs) / np.sqrt(d)
    return rows.reshape(len(x), d * d)


def reference_pauli_subgroup(strings, length) -> list:
    basis = []
    for x, z in strings:
        v = x << length | z
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    group = [0]
    for b in basis:
        group += [g ^ b for g in group]
    digits = [sum(((0, 3), (1, 2))[g >> length + j & 1][g >> j & 1] << 2 * j for j in range(length)) for g in group]
    return [(g >> length, g & (1 << length) - 1) for _, g in sorted(zip(digits, group))]


def rows_built(alg) -> bool:
    return alg._ortho is not None or alg._basis is not None


def assert_rows_are(alg, expected_rows, chunk=256):
    """``ortho`` and the ``basis`` views equal the rows bit for bit.  Each
    row depends on its own string only, so ``expected_rows(start, stop)``
    gives a slice of the reference stack, and at most one slice is held."""
    d = alg.dim
    assert alg.ortho.dtype == complex and alg.ortho.shape == (alg.dimension, d * d)
    assert len(alg.basis) == alg.dimension
    for start in range(0, alg.dimension, chunk):
        expected = expected_rows(start, start + chunk)
        assert alg.ortho[start : start + chunk].tobytes() == expected.tobytes()
        for k, row in enumerate(expected, start):
            assert alg.basis[k].shape == (d, d) and alg.basis[k].tobytes() == row.tobytes()
            assert np.shares_memory(alg.basis[k], alg.ortho)


class TestRowsOnFirstReadOracle:
    @pytest.mark.parametrize("length", range(1, 7))
    def test_standard_region_rows_are_the_eager_stacks(self, length):
        for region in chain(length).regions():
            alg = standard_region_algebra(region, length)
            sites = [1 << length - 1 - k for k in region.sites()]
            group = reference_pauli_subgroup([(b, 0) for b in sites] + [(0, b) for b in sites], length)
            assert isinstance(alg, PauliAlgebra) and not rows_built(alg)
            assert alg.dimension == len(group) == 4 ** len(sites) and list(alg.strings) == group
            assert_rows_are(alg, lambda start, stop: reference_string_rows(group[start:stop], length))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_full_algebra_rows_are_the_identity(self, d):
        alg = full_matrix_algebra(d)
        assert alg.dimension == d * d and alg.contains(np.ones((d, d))) and not rows_built(alg)
        eye = np.eye(d * d, dtype=complex)
        assert_rows_are(alg, lambda start, stop: eye[start:stop])

    @pytest.mark.parametrize("length", [2, 3])
    def test_mixed_generators_read_the_pauli_rows_in_the_dense_span_test(self, length):
        """A region closed densely (a generator that is no string) against
        the Pauli regions: the span tests build a Pauli algebra's rows when
        they read them, bit for bit the eager stack, and decide as on it."""
        d = 2**length
        x0, z0 = (pauli_string({0: p}, length) for p in "XZ")
        dense = region_algebra([z0, x0 + z0], length)
        assert not isinstance(dense, PauliAlgebra) and dense.dimension == 4
        for r in chain(length).regions():
            lazy = standard_region_algebra(r, length)
            group = reference_pauli_subgroup(lazy.strings, length)
            eager = MatrixStarAlgebra.from_rows(d, reference_string_rows(group, length), lazy.tol)
            assert not rows_built(lazy)
            assert algebra_span_leq(dense, lazy) == algebra_span_leq(dense, eager) == (r.start == 0)
            assert rows_built(lazy)
            assert_rows_are(lazy, lambda start, stop: eager.ortho[start:stop])
            assert algebra_span_leq(lazy, dense) == algebra_span_leq(eager, dense) == (r == Region(0, 0))

        # in a net: isotony reads the rows of the regions above the dense
        # one, locality those of the regions apart from it
        assignment = {r: standard_region_algebra(r, length) for r in chain(length).regions()}
        assignment[Region(0, 0)] = dense
        net = LocalNet(length, assignment, tol=dense.tol)
        assert check_isotony(net).ok
        assert [r for r, alg in assignment.items() if alg is not dense and rows_built(alg)] == [
            Region(0, k) for k in range(1, length)
        ]
        assert check_locality(net).ok
        assert all(rows_built(alg) for alg in assignment.values())


# ---------------------------------------------------------------------------
# the streaming report writer against json.dumps(indent=2), and the carrier
# integral against np.dot


def reference_emit(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def reference_evaluate_state(mu, e) -> complex:
    return complex(np.dot(e.values, mu.weights))


def emitted(report) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(report)
    return out.getvalue()


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    st.text(), st.sampled_from(["", "\"\\\n\t\x00\x1f", "éü中😀", "\ud800"]),
)
# one kind of key per dict, or numbers of mixed kinds, which compare: keys
# that do not (an int and a str, or None and anything) make both raise alike
JSON_KEY_KINDS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
                  st.one_of(st.integers(), st.booleans(), st.floats())]


@st.composite
def json_dicts(draw, children):
    return draw(st.dictionaries(draw(st.sampled_from(JSON_KEY_KINDS)), children, max_size=5))


json_values = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6), st.lists(children, max_size=6).map(tuple), json_dicts(children),
        st.just([]), st.just({}), st.just(()),
    ),
    max_leaves=40,
)


class TestEmitOracle:
    @pytest.mark.parametrize("chunk", [1, 3])
    @settings(max_examples=300, deadline=None)
    @given(value=json_values)
    def test_recursive_values(self, chunk, value):
        """Small slices, so that lists of every length cross slice bounds."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "EMIT_SLICE", chunk)
            assert emitted(value) == reference_emit(value)

    @settings(max_examples=40, deadline=None)
    @given(value=json_values)
    def test_recursive_values_at_the_real_slice(self, value):
        assert emitted(value) == reference_emit(value)

    @pytest.mark.parametrize("length", [cli.EMIT_SLICE - 1, cli.EMIT_SLICE, cli.EMIT_SLICE + 1, 3 * cli.EMIT_SLICE + 5])
    def test_flat_lists_longer_than_a_slice(self, rng, length):
        values = rng.standard_normal(length).tolist()
        report = {"weights": values, "marginals": {"I": [1.0], "V0": values[:7]}, "points": [
            {"V0": k % 3, "V1": k % 5} for k in range(length)], "tuple": tuple(values[:5]), "nested": [[values]]}
        assert emitted(report) == reference_emit(report)
        assert emitted(values) == reference_emit(values)

    @pytest.mark.parametrize("report", [
        {1: [1], 2.5: {}, 3: [[]], -(10**30): ((),)},
        {2.5: [{}], float("nan"): [1], float("-inf"): {"a": []}, -0.0: 0},
        {True: [1], False: {}}, {None: [[], {}, ()]}, {10**30: [-10**30], -3: [1.5]},
        [[], {}, (), [[]], [{}], {"": []}], "\u2028", 0, None, [],
    ])
    def test_non_string_keys_and_empty_containers(self, report):
        assert emitted(report) == reference_emit(report)

    @pytest.mark.parametrize("report", [{1: [1], "a": [2]}, {None: [1], 0: [2]}, {(1, 2): [1]}, {"a": [object()]}])
    def test_refusals_match(self, report):
        """What json.dumps refuses, the writer refuses with the same error."""
        with pytest.raises(TypeError) as expected:
            reference_emit(report)
        with pytest.raises(TypeError) as found:
            emitted(report)
        assert str(found.value) == str(expected.value)


class TestEvaluateStateOracle:
    @settings(max_examples=40, deadline=None)
    @given(case=seed_families())
    def test_embedded_and_arbitrary_elements(self, case):
        cc, rng = case
        ext = build_limit_extension(cc)
        mu = extend_state(random_density(rng, cc.ambient.dim), ext)
        elements = [embed(b, cid, ext) for cid in ext.carrier.context_ids for b in cc.algebra(cid).basis]
        elements.append(Element(ext.carrier, rng.standard_normal(ext.carrier.size)
                                + 1j * rng.standard_normal(ext.carrier.size)))
        elements.append(Element(ext.carrier, np.ones(ext.carrier.size, dtype=complex)))
        for e in elements:
            assert abs(evaluate_state(mu, e) - reference_evaluate_state(mu, e)) <= 1e-12
