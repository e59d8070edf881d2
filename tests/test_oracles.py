"""Differential tests of the constraint engine, the branch-and-bound sign
search, the whole-array carrier views, the index-arithmetic carrier, the contexts
built from atoms, the spectra and the array cone oracles against the
implementations they replaced.

The references below are those implementations, frozen: plain
backtracking for global sections and limits, one quadratic form per flat
sign vector and the chunked table scan for the sign search, per-point loops for the state's JSON view,
and the point-list carrier with its component arrays, together with the
per-point covariance loops, the restriction diagram with its own index
category and tables, the list-based span functions with the closure and
the pairwise context-category build, the one-algebra spectrum and the
dominance tables, the tuple listing of the Fock lowering table, the
per-mode Fock ladder loops, the dense guarded CCR block, the Weyl action by
``expm_multiply``, the Pauli and full-algebra row stacks that were
built with each algebra, the report writer ``json.dumps(indent=2)``, the
carrier integral by ``np.dot``, the matrix reader cell by cell, the Pauli
recognition one generator at a time and the net spec reader that closed
each region as it read it, the guarded CCR commutator as two products of
sliced fields, the Weyl stopping test on the partial sum's norm after
every term, the category check over every pair and triple of
morphisms, the Fock ladder pattern built from lowerings listed by column,
the diagram check that looked each map up through a fresh morphism
table, the cone functions that held each leg as a dict keyed by apex
element and read each arrow through a dense agreement table, the
poset category that asked ``leq`` again for every chain, the ray family
build that split every basis's projectors, the ray fixture reader that
read vector by vector, and the universality count of row tuples.  Outputs must be identical, in identical order, and minima
bitwise equal; the Weyl action agrees within 1e-14, the benchmark's
gft-weyl and gft-ccr reports byte for byte, the integral within 1e-12,
and the CCR defect within a few units in the last place of its terms, the ray
family categories with projections within 1e-12.  The contexts and spectra
are compared by report, not by bits: the same ids, order, fiber sizes,
restriction tables and global sections, up to the bijection that matches
projections within 1e-8.
"""

import collections
import contextlib
import functools
import io
import itertools
import json
import math
import operator
import re
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    I2, SX, SY, SZ, counted_splits, kron, leg_labels, perfbench_module, random_density, random_unitary, reference_index,
    validate_algebra,
)
from ctxlab import cli, fincat, gft, locnet, realism, staralg, validation
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
from ctxlab.errors import CapExceeded, DomainError, InputError, ToolError
from ctxlab.fincat import (
    SEARCH_CAP,
    Cone,
    Diagram,
    FinCategory,
    check_cone,
    check_universal_property,
    cone_from_legs,
    enumerate_cones,
    limit_of_diagram,
    one_point_cone_tuple,
    poset_category,
    solve_constraints,
)
from ctxlab.fixtures import ALL_FIXTURES
from ctxlab.linalg import (
    DEFAULT_TOL,
    RANK_FLOOR,
    SIGN_TIE_MARGIN,
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
    region_algebras,
    shifted_region,
    site_operator,
    spectrum_multiplicativity,
    standard_net,
    standard_region_algebra,
    translation_unitary,
)
from ctxlab.presheaf import (
    SpectralPresheaf,
    build_spectral_presheaf,
    bundled_fixture,
    global_sections,
    inner_daseinisation,
    load_ray_fixture,
    outer_daseinisation,
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
from ctxlab.staralg import (
    MatrixStarAlgebra,
    _commutation_cliques,
    _gap_groups,
    _selfadjoint_spanning,
    _spans,
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
            sections.append({cid: partial[position[cid]] for cid in ids})
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


# flat sign vectors scanned per step by the chunked scan, a power of two
REFERENCE_SIGN_CHUNK = 1 << 16


def reference_chunked_search_signs(fam, provider, cap: int = realism.SIGN_SEARCH_CAP) -> tuple:
    """The scan that the branch and bound replaced: every flat sign vector
    in ``itertools.product`` order, in chunks of ``REFERENCE_SIGN_CHUNK``,
    summing the group tables in group order.  The best value is replaced
    only by one below it by more than ``SIGN_TIE_MARGIN``."""
    if fam.total > cap:
        raise CapExceeded("sign search", fam.total, cap)
    # (table, bit shift of the group's slots in the flat index, slot mask)
    tables = []
    shift = fam.total
    for group in fam.groups:
        obs = group.observables()
        mat = np.zeros((group.size, group.size))
        for i, oi in enumerate(obs):
            for j, oj in enumerate(obs):
                mat[i, j] = provider.correlation(oi, oj)
        vectors = np.array(list(itertools.product((1, -1), repeat=group.size)), dtype=float)
        table = np.array([float(s @ mat @ s) for s in vectors])
        shift -= group.size
        tables.append((table, shift, (1 << group.size) - 1))

    chunk = min(REFERENCE_SIGN_CHUNK, 2**fam.total)
    offsets = np.arange(chunk, dtype=np.int64)
    best_index, best_value = 0, None
    for start in range(0, 2**fam.total, chunk):
        values = 0.0
        for table, shift, mask in tables:
            # start is a multiple of chunk, so its bits and the offsets' never carry
            values = values + table[((start >> shift) & mask) | ((offsets >> shift) & mask)]
        if best_value is None:
            best_value = float(values[0])
        # every value scanned so far is >= best_value - SIGN_TIE_MARGIN, so the first
        # value below that threshold is where the running minimum first
        # drops below it: a binary search on the negated running minimum
        falls = -np.minimum.accumulate(values)
        while True:
            at = int(np.searchsorted(falls, -(best_value - SIGN_TIE_MARGIN), side="right"))
            if at == chunk:
                break
            best_index, best_value = start + at, float(values[at])
    signs = [-1 if (best_index >> (fam.total - 1 - k)) & 1 else 1 for k in range(fam.total)]
    return signs, best_value


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


@dataclass
class ReferenceCone:
    """A cone as the frozen cone functions hold it: ``legs[o][a]`` is the
    label of apex element ``a``'s leg at object ``o``."""

    apex: list
    legs: dict


def reference_check_cone(cone, d) -> list:
    """The cone check on leg dicts, as (kind, message) pairs in report order."""
    report = ValidationReport()
    for o in d.index.objects:
        if o not in cone.legs:
            report.add("cone.structure", f"missing leg at {o!r}")
    if report.ok:
        for o in d.index.objects:
            leg = cone.legs[o]
            cod = set(d.carriers[o])
            for x in cone.apex:
                if x not in leg:
                    report.add("cone.structure", f"leg at {o!r} undefined on {x!r}")
                elif leg[x] not in cod:
                    report.add("cone.structure", f"leg at {o!r} sends {x!r} outside its codomain")
    if report.ok:
        for m, src, dst in d.index.arrows():
            table = d.map_of(m)
            for a in cone.apex:
                if cone.legs[src][a] not in table:
                    report.add("cone.triangle", f"D({m!r}) undefined on leg({src!r}) at apex element {a!r}")
                elif cone.legs[dst][a] != table[cone.legs[src][a]]:
                    report.add("cone.triangle", f"leg({dst!r}) != D({m!r}) o leg({src!r}) at apex element {a!r}")
    return [(v.kind, v.message) for v in report.violations]


def reference_solve_constraints(domains: list, arrows: list, limit: int | None = None) -> list[tuple]:
    """The constraint search over value domains and dict tables: an arrow
    ``(src, dst, table)`` requires ``table.get(value[src]) == value[dst]``."""
    n = len(domains)
    doms = [list(dom) for dom in domains]
    # links[i]: (later variable, table, whether it is the arrow's target)
    links: list[list] = [[] for _ in range(n)]
    for src, dst, table in arrows:
        if src == dst:
            doms[src] = [x for x in doms[src] if table.get(x) == x]
        elif src < dst:
            links[src].append((dst, table, True))
        else:
            links[dst].append((src, table, False))

    solutions: list[tuple] = []
    partial: list = [None] * n

    def extend(i: int) -> bool:
        if i == n:
            solutions.append(tuple(partial))
            return limit is not None and len(solutions) >= limit
        for x in doms[i]:
            saved = []
            for j, table, to_target in links[i]:
                saved.append((j, doms[j]))
                if to_target:
                    y = table.get(x)
                    doms[j] = [z for z in doms[j] if y == z]
                else:
                    doms[j] = [z for z in doms[j] if table.get(z) == x]
                if not doms[j]:
                    break
            else:
                partial[i] = x
                if extend(i + 1):
                    return True
            for j, dom in reversed(saved):
                doms[j] = dom
        return False

    extend(0)
    return solutions


def reference_positions(sizes: list, arrows: list, limit: int | None = None) -> list[tuple]:
    """``reference_solve_constraints`` on the label form of a position
    problem: variable i's values are the labels ``(i, p)``, and each image
    is a dict table defined where its entry is not -1.  The assignments are
    read back as positions."""
    domains = [[(i, p) for p in range(size)] for i, size in enumerate(sizes)]
    tables = [(src, dst, {domains[src][p]: domains[dst][q] for p, q in enumerate(image) if q != -1})
              for src, dst, image in arrows]
    return [tuple(p for _, p in row) for row in reference_solve_constraints(domains, tables, limit)]


def reference_limit_of_diagram(d) -> ReferenceCone:
    """The limit by the constraint search over carrier labels, its legs one
    dict per object."""
    objects = list(d.index.objects)
    position = {o: i for i, o in enumerate(objects)}
    arrows = [(position[src], position[dst], d.map_of(m)) for m, src, dst in d.index.arrows()]
    families = reference_solve_constraints([d.carriers[o] for o in objects], arrows)
    return ReferenceCone(families, {o: {fam: fam[position[o]] for fam in families} for o in objects})


def reference_arrow_tables(d, objects) -> list:
    """``(src, dst, agrees)`` per non-identity arrow: ``agrees[p, q]`` is
    true iff the map sends carrier element p of src to element q of dst."""
    position = {o: i for i, o in enumerate(objects)}
    tables = []
    for m, src, dst in d.index.arrows():
        table = d.map_of(m)
        agrees = np.zeros((len(d.carriers[src]), len(d.carriers[dst])), dtype=bool)
        for p, x in enumerate(d.carriers[src]):
            if x in table:
                agrees[p] = [not (y != table[x]) for y in d.carriers[dst]]
        tables.append((position[src], position[dst], agrees))
    return tables


def reference_one_point_cone_tuple(d, search_cap=SEARCH_CAP) -> ReferenceCone:
    """The ordered join read through dense agreement tables, its legs one
    dict per object keyed by position tuple."""
    objects = list(d.index.objects)
    sizes = [len(d.carriers[o]) for o in objects]
    tables = reference_arrow_tables(d, objects)
    dtype = np.min_scalar_type(max(sizes, default=0))
    rows = np.zeros((1, 0), dtype=dtype)
    for j, n in enumerate(sizes):
        if len(rows) * n > search_cap:
            raise CapExceeded("cone enumeration at apex size 1", len(rows) * n, search_cap)
        grown = np.empty((len(rows), n, j + 1), dtype=dtype)
        grown[:, :, :j] = rows[:, None]
        grown[:, :, j] = np.arange(n)
        rows = grown.reshape(-1, j + 1)
        for src, dst, agrees in tables:
            if max(src, dst) == j:
                rows = rows[agrees[rows[:, src], rows[:, dst]]]
    apex = list(map(tuple, rows.tolist()))
    return ReferenceCone(apex, {o: {t: d.carriers[o][t[i]] for t in apex} for i, o in enumerate(objects)})


def reference_tuple_cones(d, max_apex_size, search_cap=SEARCH_CAP) -> list:
    """The k-cones as sorted k-tuples of the reference join's one-point cones."""
    objects = list(d.index.objects)
    points = reference_one_point_cone_tuple(d, search_cap).apex if max_apex_size > 0 else []
    cones = []
    for k in range(max_apex_size + 1):
        if len(points) ** k > search_cap:
            raise CapExceeded(f"cone enumeration at apex size {k}", len(points) ** k, search_cap)
        apex = list(range(k))
        for t in sorted(itertools.product(points, repeat=k), key=lambda t: list(zip(*t))):
            legs = {o: {a: d.carriers[o][p[i]] for a, p in enumerate(t)} for i, o in enumerate(objects)}
            cones.append(ReferenceCone(apex, legs))
    return cones


def reference_label_counts(candidate, d, cones) -> bool:
    """Universality as one count of the candidate's leg label tuples."""
    objects = list(d.index.objects)
    counts = collections.Counter(tuple(candidate.legs[o][c] for o in objects) for c in candidate.apex)
    return all(counts[tuple(cone.legs[o][a] for o in objects)] == 1 for cone in cones for a in cone.apex)


def reference_enumerate_cones(d, max_apex_size, search_cap=SEARCH_CAP) -> list:
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
            cone = ReferenceCone(apex, {o: dict(zip(apex, combo[i])) for i, o in enumerate(objects)})
            if not reference_check_cone(cone, d):
                cones.append(cone)
    return cones


def reference_check_universal_property(candidate, d, cones, search_cap=SEARCH_CAP) -> bool:
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


def reference_translation_unitary(shift, length) -> np.ndarray:
    d = 2**length
    u = np.zeros((d, d), dtype=complex)
    for idx in range(d):
        bits = [(idx >> (length - 1 - j)) & 1 for j in range(length)]
        moved = [0] * length
        for j in range(length):
            moved[(j + shift) % length] = bits[j]
        new_idx = sum(b << (length - 1 - j) for j, b in enumerate(moved))
        u[new_idx, idx] = 1.0
    return u


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
        if not spans_equal(moved.ortho, family[image].ortho, net.tol):
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
            if spans_equal(cc.algebra(cid).ortho, alg.ortho, max(net.tol, 1e-8)):
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

PERES = load_ray_fixture(bundled_fixture("peres24.json"))


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
        assert global_sections(sheaf, limit=limit) == reference_global_sections(sheaf, limit=limit)

    def test_first_sections_of_a_large_subfamily(self):
        # 12 bases of the Peres set: satisfiable, and the first eight
        # sections must be the ones plain backtracking finds first
        sheaf = peres_sheaf([0, 2, 3, 5, 7, 8, 11, 13, 16, 17, 20, 22])
        assert global_sections(sheaf, limit=8) == reference_global_sections(sheaf, limit=8)

    @pytest.mark.parametrize("limit", [None, 0, 1])
    def test_limits_on_a_free_family(self, limit):
        cc = context_category(full_matrix_algebra(4), [kron(SZ, I2), kron(I2, SX), kron(SX, SX)])
        sheaf = build_spectral_presheaf(cc)
        found = global_sections(sheaf, limit=limit)
        assert found == reference_global_sections(sheaf, limit=limit)
        assert len(found) == (8 if limit is None else 1)


# ---------------------------------------------------------------------------
# limits of random small diagrams

VALUES = [0, 1, 2, "a", "b", (0, 1), 2.5]
MISSING = object()


@st.composite
def small_diagrams(draw):
    n = draw(st.integers(0, 4))
    objects = [f"o{i}" for i in range(n)]
    # carriers may be empty and may repeat an element; a carrier is a set,
    # so a repeat is refused, and the diagram keeps each element's first listing
    drawn = {o: draw(st.lists(st.sampled_from(VALUES), max_size=4)) for o in objects}
    carriers = {o: list(dict.fromkeys(xs)) for o, xs in drawn.items()}
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
    repeats = [(o, x) for o, xs in drawn.items() for x in xs if xs.count(x) > 1]
    if repeats:
        o, x = repeats[0]
        with pytest.raises(InputError, match=re.escape(f"carrier of {o!r} lists {x!r} more than once")):
            Diagram(index, drawn, maps)
    return Diagram(index, carriers, maps)


class TestLimitOracle:
    @settings(max_examples=200, deadline=None)
    @given(d=small_diagrams())
    def test_random_diagrams(self, d):
        cone = limit_of_diagram(d)
        expected = reference_limit_families(d)
        assert cone.apex == expected
        legs = leg_labels(d, cone)
        for pos, o in enumerate(d.index.objects):
            assert legs[o] == {fam: fam[pos] for fam in expected}

    def test_no_objects_give_one_empty_family(self):
        d = Diagram(FinCategory([], {}, {}, {}), {})
        assert limit_of_diagram(d).apex == [()] == reference_limit_families(d)

    def test_empty_carrier_gives_empty_apex(self):
        d = Diagram(FinCategory(["p", "q"], {("p", "p"): ["id_p"], ("q", "q"): ["id_q"]}, {},
                                {"p": "id_p", "q": "id_q"}), {"p": [1, 2], "q": []})
        assert limit_of_diagram(d).apex == [] == reference_limit_families(d)

    @pytest.mark.parametrize("limit", [None, 0, 1, 2])
    def test_engine_limit(self, limit):
        everything = solve_constraints([3, 2], [])
        assert everything == list(itertools.product(range(3), range(2))) == reference_positions([3, 2], [])
        found = solve_constraints([3, 2], [], limit)
        assert found == everything[: len(found)] == reference_positions([3, 2], [], limit)
        assert len(found) == (len(everything) if limit is None else max(limit, 1))


class TestPositionEngineOracle:
    """``solve_constraints`` over positions against the frozen engine over
    labels, each on the label form of the same problem."""

    @pytest.mark.parametrize("sizes, arrows, expected", [
        ([2, 2], [(0, 1, (-1, 1))], [(1, 1)]),  # -1 read forward
        ([2, 2], [(1, 0, (-1, 0))], [(0, 1)]),  # -1 read backward
        ([3], [(0, 0, (-1, 1, 0))], [(1,)]),  # -1 on a self-loop, a non-identity endomorphism
        ([3, 2], [(0, 0, (-1, -1, -1)), (0, 1, (0, 1, 1))], []),
        ([2, 2], [(0, 1, np.array([-1, 0], dtype=np.intp)), (1, 0, (1, -1))], [(1, 0)]),
        ([2, 0, 3], [], []),  # a variable of size 0
        ([0], [(0, 0, ())], []),
        ([], [], [()]),  # no variables
    ])
    @pytest.mark.parametrize("limit", [None, 0, 1, 2])
    def test_edge_cases(self, sizes, arrows, expected, limit):
        assert solve_constraints(sizes, arrows, limit) == reference_positions(sizes, arrows, limit)
        assert solve_constraints(sizes, arrows) == expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_drawn_problems(self, data):
        """Sizes 0-3, arrows forward, backward and self-loops, each image a
        tuple or an integer array, entries -1 among them."""
        sizes = data.draw(st.lists(st.integers(0, 3), max_size=5))
        arrows = []
        for _ in range(data.draw(st.integers(0, 6)) if sizes else 0):
            src, dst = (data.draw(st.integers(0, len(sizes) - 1)) for _ in range(2))
            image = data.draw(st.lists(st.integers(-1, sizes[dst] - 1), min_size=sizes[src], max_size=sizes[src]))
            arrows.append((src, dst, np.array(image, dtype=np.intp) if data.draw(st.booleans()) else tuple(image)))
        limit = data.draw(st.sampled_from([None, 0, 1, 2, 5]))
        assert solve_constraints(sizes, arrows, limit) == reference_positions(sizes, arrows, limit)


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


class TableProvider:
    """Correlations read from a matrix; the observables are its indices."""

    def __init__(self, corr):
        self.corr = corr

    def correlation(self, i, j) -> float:
        return float(self.corr[i, j])


def inequality_input(argv: list) -> tuple:
    """The family and the provider that ``ctxlab inequality`` builds from ``argv``."""
    data, fam = cli._load_family(argv[argv.index("--family") + 1])
    if argv[argv.index("--provider") + 1] == "measure":
        weights = cli.numbers(data["carrier_weights"], "carrier weight")
        return fam, MeasureProvider(weights / weights.sum())
    return fam, QuantumProvider(cli.parse_matrix(data["state"]))


class TestSignSearchOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=tied_families())
    def test_tied_families(self, case):
        fam, provider = case
        assert_same_signs(search_signs(fam, provider), reference_search_signs(fam, provider))

    def test_ties_within_the_margin(self):
        """Two groups of three, with one observable between them, whose
        off-diagonal correlations are 0.5 plus d1 and d2 ulps of 0.5.  Each
        table's three low values (near 2) then differ by four times a
        difference of those steps: one or two ulps is less than
        ``SIGN_TIE_MARGIN`` apart, three or more is more."""
        ulp = 2.0**-53
        signs = np.array(list(itertools.product((1, -1), repeat=3)), dtype=float)
        fam = ObservableFamily([ObservableGroup([0, 1], [2]), ObservableGroup([3], []), ObservableGroup([4], [5, 6])])
        gaps = set()
        for d1, d2 in itertools.product(range(-3, 4), repeat=2):
            b, c = 0.5 + d1 * ulp, 0.5 + d2 * ulp
            block = np.array([[1.0, 0.5, b], [0.5, 1.0, c], [b, c, 1.0]])
            corr = np.zeros((7, 7))
            corr[:3, :3] = block
            corr[3, 3] = 0.75
            corr[4:, 4:] = block[::-1, ::-1]
            provider = TableProvider(corr)
            assert_same_signs(search_signs(fam, provider), reference_search_signs(fam, provider))
            low = sorted({v for v in (float(s @ block @ s) for s in signs) if v < 3.0})
            gaps.update(b - a > SIGN_TIE_MARGIN for a, b in zip(low, low[1:]))
        assert gaps == {True, False}

    def test_benchmark_inputs_match_the_chunked_scan(self, repository_root, tmp_path):
        """Every ``inequality`` input of the ks-carrier batch at two seeds."""
        workloads = perfbench_module("workloads")
        count = 0
        for seed in (101, 2701):
            for check in workloads.build("ks-carrier", seed, "full", str(tmp_path / str(seed))):
                if check["kind"] == "inequality":
                    fam, provider = inequality_input(check["argv"])
                    assert_same_signs(search_signs(fam, provider), reference_chunked_search_signs(fam, provider))
                    count += 1
        assert count == 24


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

        records = list(carrier_to_json(ext))
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


class TestTranslationUnitaryOracle:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 6])
    def test_the_index_arrays_match_the_bit_loop(self, length):
        """Bit for bit, under every shift of up to two turns either way."""
        for shift in range(-2 * length, 2 * length + 1):
            found, expected = translation_unitary(shift, length), reference_translation_unitary(shift, length)
            assert found.dtype == expected.dtype and found.tobytes() == expected.tobytes()


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
        assert {match[sup][i]: match[sub][j] for i, j in enumerate(found)} == tables[(sub, sup)]
    ids = cc.ids()
    sections = {tuple(match[cid][s[cid]] for cid in ids) for s in global_sections(sheaf)}
    solve = reference_global_sections if plain_sections else global_sections
    reference = solve(SpectralPresheaf(cc, fibers, tables))
    assert sections == {tuple(s[cid] for cid in ids) for s in reference}
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
        groups = [reference_rays_to_projectors(basis) for basis in chosen]
        assert_same_category(cc, [[] for _ in groups], groups, plain_sections=len(groups) <= 7)

    @pytest.mark.parametrize("name", ["cabello18", "peres24", "repeated"])
    def test_whole_fixtures_and_a_repeated_basis(self, name):
        dim, bases = CABELLO if name == "cabello18" else PERES
        if name == "repeated":
            bases = [bases[0], bases[3], bases[0], bases[5], bases[3]]
        cc = ray_family_context_category(dim, bases)
        groups = [reference_rays_to_projectors(basis) for basis in bases]
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


def restriction_diagram(cc) -> Diagram:
    """``cc``'s restriction diagram, its objects in ``cc.ids()`` order.  A
    product carrier past ``CARRIER_CAP`` is made without
    ``build_limit_extension``'s refusal: no point is listed."""
    ids = cc.ids()
    carrier = ProductSpectrum(ids, [len(cc.spectra[cid]) for cid in ids])
    ext = build_limit_extension(cc) if carrier.size <= CARRIER_CAP else ExtendedAlgebra(cc, carrier)
    diagram = spectrum_diagram(ext, with_restrictions=True)
    assert list(diagram.index.objects) == ids
    return diagram


def limit_families(cc) -> list:
    """The families of the limit of ``cc``'s restriction diagram, as tuples
    in ``cc.ids()`` order."""
    return limit_of_diagram(restriction_diagram(cc)).apex


def assert_limit_is_the_global_sections(cc) -> int:
    families = limit_families(cc)
    sections = [tuple(s[cid] for cid in cc.ids()) for s in global_sections(build_spectral_presheaf(cc))]
    assert len(set(families)) == len(families) and len(set(sections)) == len(sections)
    assert set(families) == set(sections)
    return len(families)


# the Mermin-Peres square (Mermin 1990; Peres 1990): rows, then columns, of two-qubit strings
MERMIN_PERES_LINES = [("XI", "IX", "XX"), ("IZ", "ZI", "ZZ"), ("XZ", "ZX", "YY"),
                      ("XI", "IZ", "XZ"), ("IX", "ZI", "ZX"), ("XX", "ZZ", "YY")]
MERMIN_PERES = ["XI", "IX", "XX", "IZ", "ZI", "ZZ", "XZ", "ZX", "YY"]


def pauli_seeds(words) -> list:
    return [pauli_string(dict(enumerate(w)), len(w)) for w in words]


def pauli_category(words):
    return context_category(full_matrix_algebra(2 ** len(words[0])), pauli_seeds(words))


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

    def test_mermin_peres_square(self):
        """The square's rows and columns are its maximal contexts.  Each
        string lies in two lines and the line products multiply to -I, so
        no +-1 assignment fits every line (Mermin 1990; Peres 1990): no
        family, no section and no one-point cone."""
        cc = pauli_category(MERMIN_PERES)
        assert sorted(sorted(MERMIN_PERES[i] for i in cc.generators[cid]) for cid in cc.ids()
                      if cc.generators[cid]) == sorted(sorted(line) for line in MERMIN_PERES_LINES)
        assert all(sum(w in line for line in MERMIN_PERES_LINES) % 2 == 0 for w in MERMIN_PERES)
        signs = []
        for line in MERMIN_PERES_LINES:
            product = functools.reduce(np.matmul, pauli_seeds(line))
            signs.append(product[0, 0].real)
            assert np.array_equal(product, signs[-1] * np.eye(4))
        assert math.prod(signs) == -1
        assert assert_limit_is_the_global_sections(cc) == 0
        assert one_point_cone_tuple(restriction_diagram(cc)).apex == []


class TestOnePointConesPastTheRawScan:
    """Cone listings whose raw leg product is past ``SEARCH_CAP`` while the
    join's steps are not, or are past it by far less."""

    def test_mermin_peres_with_yi_has_no_one_point_cone(self):
        """268,435,456 raw leg assignments, which the raw scan refused."""
        d = restriction_diagram(pauli_category(MERMIN_PERES + ["YI"]))
        assert math.prod(len(c) for c in d.carriers.values()) == 268_435_456
        assert [len(c.apex) for c in enumerate_cones(d, 1)] == [0]

    def test_mermin_peres_with_yi_and_iy_is_refused_at_a_join_step(self):
        """The raw product is 8,589,934,592; the join is refused at the
        first step that would form more than ``SEARCH_CAP`` rows, in bounded
        time and memory."""
        d = restriction_diagram(pauli_category(MERMIN_PERES + ["YI", "IY"]))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(CapExceeded, match=re.escape("apex size 1 (size 8388608 exceeds cap 5000000)")):
                enumerate_cones(d, 1)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 2.0 and peak < 200 * 10**6


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
            assert dict(enumerate(cc.restrictions[("V0", "V1")])) == expected[1]

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
        assert _spans(blocks, stack, scales, tol) == reference_validate_blocks(blocks, basis, tol)


# ---------------------------------------------------------------------------
# array cone oracles against the per-assignment loops


@contextlib.contextmanager
def fincat_constant(name, value):
    """fincat's module constant ``name`` set to ``value`` inside the block."""
    saved = getattr(fincat, name)
    setattr(fincat, name, value)
    try:
        yield
    finally:
        setattr(fincat, name, saved)


def apex_bound(sizes, budget=2000, most=2) -> int:
    """The largest apex size up to ``most`` whose raw search stays in budget."""
    k = 0
    while k < most and math.prod(max(1, n) for n in sizes) ** (k + 1) <= budget:
        k += 1
    return k


def cone_record(d, cones) -> list:
    """Each cone's apex and its legs read as labels."""
    return [(c.apex, leg_labels(d, c)) for c in cones]


def reference_record(cones) -> list:
    return [(c.apex, c.legs) for c in cones]


def as_cone(d, cone: ReferenceCone) -> Cone:
    """A reference cone's leg labels as a live cone."""
    return cone_from_legs(d, cone.apex, cone.legs)


def as_reference(d, cone: Cone) -> ReferenceCone:
    return ReferenceCone(cone.apex, leg_labels(d, cone))


def passes_arrows(d, objects, row) -> bool:
    """Whether the carrier positions ``row`` of ``objects`` pass every
    non-identity arrow with both ends among them, as ``check_cone`` reads
    a triangle."""
    legs = {o: d.carriers[o][p] for o, p in zip(objects, row)}
    idents = set(d.index.identities.values())
    return all(legs[src] in d.map_of(m) and not legs[dst] != d.map_of(m)[legs[src]]
               for m, (src, dst) in d.index.morphisms().items()
               if m not in idents and src in legs and dst in legs)


def join_steps(d) -> list:
    """The rows each step of the one-point join forms: the raw prefixes
    over the earlier objects that pass the arrows among them, times the
    next object's carrier."""
    objects = list(d.index.objects)
    steps = []
    for j, o in enumerate(objects):
        prefixes = itertools.product(*[range(len(d.carriers[p])) for p in objects[:j]])
        steps.append(sum(passes_arrows(d, objects[:j], row) for row in prefixes) * len(d.carriers[o]))
    return steps


class TestConeOracle:
    @settings(max_examples=180, deadline=None)
    @given(d=small_diagrams(), cap=st.sampled_from([SEARCH_CAP, 0, 1, 4, 16, 64]))
    def test_enumerated_cones(self, d, cap):
        """The reference's cones in its order, which the 2,000 budget keeps
        under ``SEARCH_CAP``.  At a patched cap, the refusal of the first size
        over it: the rows of each step of the one-point join, then n**k for
        n one-point cones and k up to the bound; and an answer wherever the
        reference answers at that cap."""
        k = apex_bound([len(c) for c in d.carriers.values()])
        expected = reference_enumerate_cones(d, k)
        with fincat_constant("SEARCH_CAP", cap):
            found_kind, found = outcome(enumerate_cones, d, k)
        n = sum(len(c.apex) == 1 for c in expected)
        sizes = [(1, rows) for rows in (join_steps(d) if k > 0 else [])] + [(j, n**j) for j in range(k + 1)]
        refusal = next(((j, size) for j, size in sizes if size > cap), None)
        if refusal is None:
            assert found_kind == "value" and cone_record(d, found) == reference_record(expected)
        else:
            j, size = refusal
            assert found_kind == "CapExceeded"
            assert found == f"cone enumeration at apex size {j} (size {size} exceeds cap {cap})"
        if outcome(reference_enumerate_cones, d, k, cap)[0] == "value":
            assert found_kind == "value"

    @settings(max_examples=150, deadline=None)
    @given(d=small_diagrams(), data=st.data())
    def test_universal_verdicts(self, d, data):
        lim = as_reference(d, limit_of_diagram(d))
        k = apex_bound([len(lim.apex)], budget=300)
        cones = reference_enumerate_cones(d, min(k, apex_bound([len(c) for c in d.carriers.values()])))
        listed = data.draw(st.lists(st.sampled_from(cones), max_size=12)) if cones else []
        candidates = [lim] + [c for c in cones if len(c.apex) <= 2]
        candidate = data.draw(st.sampled_from(candidates))
        # at most 300 maps per listed cone, so the search never reaches its cap
        expected = reference_check_universal_property(candidate, d, listed, SEARCH_CAP)
        live = as_cone(d, candidate)
        assert check_universal_property(live, d, [as_cone(d, c) for c in listed]) == expected
        # every cone's apex elements are one-point cones: those alone decide the verdict
        one_point = [as_cone(d, c) for c in cones if len(c.apex) == 1]
        assert check_universal_property(live, d, [as_cone(d, c) for c in cones]) == \
            check_universal_property(live, d, one_point)

    @settings(max_examples=100, deadline=None)
    @given(d=small_diagrams())
    def test_array_filter_matches_check_cone_on_every_raw_assignment(self, d):
        """At apex size 1, the size every cone is a tuple of: a raw position
        tuple is in the one-point cone tuple's apex, in product order, iff
        ``check_cone`` accepts its cone; each leg reads the tuple's element,
        and the tuple is itself a cone."""
        objects = list(d.index.objects)
        raw = itertools.product(*[range(len(d.carriers[o])) for o in objects])
        kept = [row for row in raw if check_cone(
                    as_cone(d, ReferenceCone([0], {o: {0: d.carriers[o][p]} for o, p in zip(objects, row)})), d).ok]
        cone = one_point_cone_tuple(d)
        assert cone.apex == kept
        assert leg_labels(d, cone) == {o: {t: d.carriers[o][t[i]] for t in kept} for i, o in enumerate(objects)}
        assert check_cone(cone, d).ok


def violations(report) -> list:
    return [(v.kind, v.message) for v in report.violations]


def assert_cone_check_matches(d, cone: ReferenceCone):
    """The live check of a reference cone's labels against the frozen
    check: the same violations in the same order, or, where the labels
    make no cone, a refusal with the frozen check's first message."""
    expected = reference_check_cone(cone, d)
    try:
        live = as_cone(d, cone)
    except InputError as exc:
        assert expected[:1] == [("cone.structure", str(exc))]
    else:
        assert violations(check_cone(live, d)) == expected


@st.composite
def drawn_cones(draw, d):
    """A cone of 0-3 apex elements, each leg's labels drawn from its
    carrier, now and then with a label outside it, an apex element that
    a leg leaves out, or a leg left out."""
    apex = [f"a{k}" for k in range(draw(st.integers(0, 3)))]
    legs = {}
    for o in d.index.objects:
        if draw(st.integers(0, 19)) == 0:
            continue
        legs[o] = {}
        for a in apex:
            pick = draw(st.integers(0, 19))
            if pick == 1:
                legs[o][a] = "outside"
            elif pick > 1 and d.carriers[o]:
                legs[o][a] = draw(st.sampled_from(d.carriers[o]))
    return ReferenceCone(apex, legs)


class TestConeTableOracle:
    """Every cone function against its frozen leg-dict copy: equal apexes,
    equal legs once read as labels, equal verdicts, and equal violation
    lists in the same order."""

    @settings(max_examples=200, deadline=None)
    @given(d=small_diagrams(), data=st.data())
    def test_small_diagrams(self, d, data):
        lim, points = limit_of_diagram(d), one_point_cone_tuple(d)
        ref_lim, ref_points = reference_limit_of_diagram(d), reference_one_point_cone_tuple(d)
        assert cone_record(d, [lim, points]) == reference_record([ref_lim, ref_points])
        k = apex_bound([len(points.apex)], budget=300)
        cones, ref_cones = enumerate_cones(d, k), reference_tuple_cones(d, k)
        assert cone_record(d, cones) == reference_record(ref_cones)
        pairs = [(lim, ref_lim), (points, ref_points)] + list(zip(cones, ref_cones))
        candidate, ref_candidate = data.draw(st.sampled_from(pairs))
        listed = data.draw(st.lists(st.sampled_from(pairs), max_size=6))
        assert check_universal_property(candidate, d, [c for c, _ in listed]) == \
            reference_label_counts(ref_candidate, d, [r for _, r in listed])
        for cone, ref in pairs[:8]:
            assert violations(check_cone(cone, d)) == reference_check_cone(ref, d)
        assert_cone_check_matches(d, data.draw(drawn_cones(d)))

    @pytest.mark.parametrize("corrupted", [False, True])
    @pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
    def test_fixtures(self, name, corrupted):
        fixture = ALL_FIXTURES[name](corrupted)
        d = fixture.diagram
        cone = as_reference(d, fixture.cone)
        assert violations(check_cone(fixture.cone, d)) == reference_check_cone(cone, d)
        lim, points, cones = limit_of_diagram(d), one_point_cone_tuple(d), enumerate_cones(d, 1)
        ref_lim, ref_points = reference_limit_of_diagram(d), reference_one_point_cone_tuple(d)
        ref_cones = reference_tuple_cones(d, 1)
        assert cone_record(d, [lim, points]) == reference_record([ref_lim, ref_points])
        assert cone_record(d, cones) == reference_record(ref_cones)
        for candidate, ref in [(lim, ref_lim), (points, ref_points), (fixture.cone, cone)]:
            assert violations(check_cone(candidate, d)) == reference_check_cone(ref, d)
            assert check_universal_property(candidate, d, cones) == reference_label_counts(ref, d, ref_cones)

    def test_the_five_seed_discrete_diagram(self):
        """ZI, XI, YI, IZ, IX with no restriction arrows: 131,072 families,
        each its own one-point cone."""
        d = spectrum_diagram(build_limit_extension(pauli_category(["ZI", "XI", "YI", "IZ", "IX"])))
        lim, points = limit_of_diagram(d), one_point_cone_tuple(d)
        ref_lim, ref_points = reference_limit_of_diagram(d), reference_one_point_cone_tuple(d)
        assert len(ref_lim.apex) == 131_072
        assert cone_record(d, [lim, points]) == reference_record([ref_lim, ref_points])
        assert check_universal_property(lim, d, [points]) is reference_label_counts(ref_lim, d, [ref_points]) is True
        assert violations(check_cone(lim, d)) == reference_check_cone(ref_lim, d) == []


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


def reference_outer_daseinisation(p, v) -> np.ndarray:
    pm = as_matrix(p, v.dim)
    if not is_projection(pm, max(v.tol, 1e-8)):
        raise DomainError("outer_daseinisation expects a projection")
    chars = gelfand_spectrum(v)
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in chars:
        if opnorm(chi.projection @ pm) > max(v.tol, 1e-8):
            q = q + chi.projection
    if np.linalg.eigvalsh((q - pm + dagger(q - pm)) / 2.0).min() < -1e-8:
        raise DomainError("outer daseinisation failed to dominate the input")
    return q


def reference_inner_daseinisation(p, v) -> np.ndarray:
    pm = as_matrix(p, v.dim)
    if not is_projection(pm, max(v.tol, 1e-8)):
        raise DomainError("inner_daseinisation expects a projection")
    chars = gelfand_spectrum(v)
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in chars:
        if opnorm(chi.projection @ pm - chi.projection) <= max(v.tol, 1e-8):
            q = q + chi.projection
    if np.linalg.eigvalsh((pm - q + dagger(pm - q)) / 2.0).min() < -1e-8:
        raise DomainError("inner daseinisation failed to stay below the input")
    return q


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
        exact ties, in a drawn order: the reference's groups in its order,
        with exact ties in index order."""
        draw = data.draw
        scale = draw(st.sampled_from([1.0, 3.0]))
        values = [-scale]
        for _ in range(draw(st.integers(0, 6))):
            step = draw(st.sampled_from([None, 1.0, 0.0]))  # None: a gap at the threshold
            values.append(values[-1] + (threshold_offset(draw, tol) * scale if step is None else step))
        values = np.array(draw(st.permutations(values)))
        order, group = _gap_groups(values, tol)
        found = [order[group == g].tolist() for g in np.unique(group)]
        assert found == [sorted(map(int, g), key=lambda k: (values[k], k)) for g in reference_cluster(values, tol)]

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
        rows = orthonormalize_span(projs, tol)
        return MatrixStarAlgebra.from_rows(d, len(rows), lambda: rows, tol)
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
            blocks = original(*args)
            splits.append(len(blocks))
            return blocks

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
        assert is_commutative(found) and validate_algebra(found).ok
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


def reference_lowerings(modes, n_max) -> tuple:
    """The ladder table listed from the states as sorted tuples of their
    particles' modes, by total count, each sector's combinations reversed;
    one lowering per occupied mode, dropping the first copy of k."""
    states = [()] + [
        state
        for total in range(1, n_max + 1)
        for state in reversed(list(itertools.combinations_with_replacement(range(modes), total)))
    ]
    position = {state: i for i, state in enumerate(states)}
    entries = []
    for col, state in enumerate(states):
        for i, k in enumerate(state):
            if i == 0 or state[i - 1] != k:
                entries.append((position[state[:i] + state[i + 1 :]], col, k, state.count(k)))
    rows, cols, ks, counts = np.array(entries, dtype=np.int64).reshape(-1, 4).T
    return rows, cols, ks, np.sqrt(counts)


# every shape with 1-40 modes and cutoff 0-12 under the cap, a deep cutoff
# over one to three modes, many modes at cutoff 2, and 9,999 modes at cutoff 1
TABLE_SHAPES = [(modes, n_max) for modes in range(1, 41) for n_max in range(13)
                if math.comb(modes + n_max, n_max) <= gft.FOCK_CAP]
TABLE_SHAPES += [(1, 2000), (2, 60), (139, 2), (3, 30), (9999, 1)]
DEEP_SHAPES = [(1, 9999), (2, 139), (9999, 1)]


def reference_rank_lowerings(modes, n_max) -> tuple:
    """The lowering table ``(rows, cols, modes, amps)`` built by rank, by
    column and then mode: one entry per raising u -> u + e_k of a state u
    below the top sector, at u's position plus its sector's size plus the
    binomial steps of the modes up to k."""
    if n_max == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none, np.sqrt(none)
    short, long = sorted((n_max + 1, modes))
    comps = np.ones((short, long), dtype=np.int64)
    for j in range(1, short):
        comps[j] = np.cumsum(comps[j - 1])
    comps = comps if short == n_max + 1 else comps.T
    m = np.arange(modes - 1, -1, -1)
    sectors = [np.zeros((1, modes), dtype=np.int64)]
    for total in range(1, n_max):
        lengths = comps[total - 1]
        ends = np.cumsum(lengths)
        raised = sectors[-1][np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)]
        raised[np.arange(ends[-1]), np.repeat(m, lengths)] += 1
        sectors.append(raised)
    occ = np.concatenate(sectors)
    r = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
    after = np.zeros_like(r)
    after[:, :-1] = r[:, 1:]
    steps = np.zeros((n_max, modes), dtype=np.int64)
    steps[:, 1:] = comps[1:, :-1]
    g, h = steps[r, m], steps[after, m]
    start = np.arange(len(occ))[:, None] + comps[r[:, 0], modes - 1][:, None]
    key = ((start + np.cumsum(g - h, axis=1) + h) * modes + np.arange(modes)).ravel()
    order = np.argsort(key)
    rows, ks = np.divmod(order, modes)
    return rows, key[order] // modes, ks, np.sqrt(occ.ravel()[order] + 1)


def reference_row_order(lowerings, modes, dim) -> tuple:
    """The CSR pattern ``(indptr, cols, modes, amps)`` of ``[a | a*]`` from
    lowerings listed by column and then mode: a stable sort by row of the
    lowerings, each at its row, and then the raisings, each at its
    lowering's column."""
    rows, cols, ks, amps = lowerings
    key = np.concatenate([rows, cols])
    order = np.argsort(key, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=dim))]).astype(np.int32)
    stacked_cols = np.concatenate([cols, dim + rows])[order].astype(np.int32)
    return indptr, stacked_cols, np.concatenate([ks, modes + ks])[order], np.concatenate([amps, amps])[order]


def assert_same_arrays(found, expected, case):
    assert len(found) == len(expected), case
    for part, want in zip(found, expected):
        assert part.dtype == want.dtype and part.tobytes() == want.tobytes(), case


class TestLadderPatternOracle:
    """The ladder pattern against the two-step build: the lowerings by
    column, then the stacked block by row."""

    def test_every_table_shape(self):
        for modes, n_max in TABLE_SHAPES + DEEP_SHAPES:
            fock = gft.TruncatedFock(modes=modes, n_max=n_max)
            expected = reference_row_order(reference_rank_lowerings(modes, n_max), modes, fock.dim)
            assert_same_arrays(fock.ladders, expected, (modes, n_max))


class TestFockTableOracle:
    """The ladder pattern built by rank against the tuple listing put in
    the pattern's order, and the build's bounds at shapes whose listing is
    long: (1, 9999) took 7.7 s and 589 MB to list."""

    def test_the_table_is_the_tuple_listing_bit_for_bit(self):
        assert len(TABLE_SHAPES) == 241
        for modes, n_max in TABLE_SHAPES:
            fock = gft.TruncatedFock(modes=modes, n_max=n_max)
            expected = reference_row_order(reference_lowerings(modes, n_max), modes, fock.dim)
            assert_same_arrays(fock.ladders, expected, (modes, n_max))

    @pytest.mark.parametrize("modes, n_max", DEEP_SHAPES)
    def test_a_deep_table_builds_in_bounded_time(self, modes, n_max):
        start = time.perf_counter()
        fock = gft.TruncatedFock(modes=modes, n_max=n_max)
        assert time.perf_counter() - start < 2.0
        assert len(fock.ladders[1]) == 2 * modes * fock.sector_size(n_max - 1)

    @pytest.mark.parametrize("modes, n_max", DEEP_SHAPES)
    def test_a_deep_table_builds_in_bounded_memory(self, modes, n_max):
        tracemalloc.start()
        try:
            gft.TruncatedFock(modes=modes, n_max=n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 10**6


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
        found = gft._weyl_action(f, fock)(cols)
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
        monkeypatch.setattr(gft, "_weyl_action", lambda fv, fock: functools.partial(reference_weyl_apply, fv, fock))
        for argv, report in zip(argvs, found):
            assert main(argv) == 0
            assert capsys.readouterr().out == report, argv


def reference_ccr_block(f, fp, fock, guard) -> np.ndarray:
    """[field(f), field(fp)*] - (f, fp) on the sectors <= n_max - guard, dense."""
    keep = fock.sector_size(gft.ccr_top_sector(fock.n_max, guard))
    a, b = gft.field_operator(f, fock), gft.field_operator(fp, fock)
    block = (a @ dagger(b) - dagger(b) @ a)[:keep, :keep].toarray()
    return block - gft.weighted_inner(f, fp, fock.mode_weight) * np.eye(keep)


@st.composite
def ccr_cases(draw):
    """A ``fock_cases`` shape and function at a cutoff of at least 1, or the
    four modes of (2, 2) at a cutoff up to 9 (ten sectors, 715 states) and a
    drawn function; and a second function drawn from a seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        space, n_max, f = draw(fock_cases())
    else:
        space, n_max = gft.PolyhedronSpace(2, 2), draw(st.integers(1, 9))
        f = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    g = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    return gft.fock_for(space, max(n_max, 1)), f, g


class TestSectorNormOracle:
    """``ccr_defect`` reads the norm one particle-number sector at a time,
    from the commutator's entries: a sector block with no entry off its
    diagonal by its largest diagonal entry, any other by one SVD; against
    the norm of the whole guarded block, one dense SVD."""

    @settings(max_examples=60, deadline=None)
    @given(case=ccr_cases())
    def test_the_sector_norm_is_the_whole_block_norm(self, case):
        """Guard 0 takes the SVD at the top sector, which feels the cutoff;
        guard 1 reads every sector by its diagonal."""
        fock, f, g = case
        for guard in (0, 1):
            found = gft.ccr_defect(f, g, fock, guard)
            assert type(found) is float
            assert abs(found - opnorm(reference_ccr_block(f, g, fock, guard))) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(case=ccr_cases(), at=st.tuples(*[st.floats(0, 1, exclude_max=True)] * 3),
           size=st.floats(1e-3, 1.0), phase=st.floats(0, 2 * math.pi))
    def test_an_entry_inside_a_sector_takes_the_svd(self, case, at, size, phase):
        """One entry off the diagonal of a sector block, injected into the
        guard-1 block: that sector alone is formed dense, and the value is
        still the whole block's norm."""
        from scipy.sparse import csr_array

        fock, f, g = case
        block = reference_ccr_block(f, g, fock, 1)
        edges = [0] + [fock.sector_size(total) for total in range(fock.n_max)]
        wide = [t for t in range(len(edges) - 1) if edges[t + 1] - edges[t] > 1]
        assume(wide)
        sector = wide[int(at[0] * len(wide))]
        lo, hi = edges[sector], edges[sector + 1]
        row = lo + int(at[1] * (hi - lo))
        cols = [j for j in range(lo, hi) if j != row]
        block[row, cols[int(at[2] * len(cols))]] += size * np.exp(1j * phase)
        dense = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gft, "opnorm", lambda m: dense.append(m.shape) or opnorm(m))
            found = gft._sector_norm(csr_array(block), 0.0, edges)
        assert dense == [(hi - lo, hi - lo)]
        assert abs(found - opnorm(block)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(case=ccr_cases(), at=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
           size=st.floats(1e-3, 10.0), phase=st.floats(0, 2 * math.pi))
    def test_an_entry_between_sectors_keeps_an_upper_bound(self, case, at, size, phase):
        """One entry coupling two sectors, injected into the guard-0 block of
        (g, g): the sector norm counts it, so it stays at least the whole
        block's norm."""
        from scipy.sparse import csr_array

        fock, _, g = case
        block = reference_ccr_block(g, g, fock, 0)
        edges = [0] + [fock.sector_size(total) for total in range(fock.n_max + 1)]
        row = int(at[0] * len(block))
        sector = np.searchsorted(edges, row, side="right") - 1
        cols = [j for j in range(len(block)) if not edges[sector] <= j < edges[sector + 1]]
        block[row, cols[int(at[1] * len(cols))]] += size * np.exp(1j * phase)
        found = gft._sector_norm(csr_array(block), 0.0, edges)
        assert found > 0 and found >= opnorm(block)

    def test_a_deep_cutoff_is_read_in_bounded_memory(self):
        """Two modes at cutoff 139: the guarded block has 9,730 rows, 1.5 GB
        as a dense complex array."""
        fock = gft.fock_for(gft.PolyhedronSpace(2, 1), 139)
        rng = np.random.default_rng(139)
        f, g = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        gft.field_operator(f, fock)  # scipy.sparse is imported outside the trace
        tracemalloc.start()
        try:
            found = gft.ccr_defect(f, g, fock)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fock.sector_size(gft.ccr_top_sector(fock.n_max)) == 9730
        assert found < 1e-10 and peak < 32 * 10**6


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
        dense = region_algebras([[z0, x0 + z0]], length)[0]
        assert not isinstance(dense, PauliAlgebra) and dense.dimension == 4
        for r in chain(length).regions():
            lazy = standard_region_algebra(r, length)
            group = reference_pauli_subgroup(lazy.strings, length)
            rows = reference_string_rows(group, length)
            eager = MatrixStarAlgebra.from_rows(d, len(rows), lambda: rows, lazy.tol)
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

    @settings(max_examples=200, deadline=None)
    @given(value=json_values)
    def test_generators_are_written_as_their_lists(self, value):
        """Every list handed over as a generator of its items, the empty
        ones too: the same bytes as the lists."""

        def generated(x):
            if isinstance(x, list):
                return (generated(item) for item in x)
            if isinstance(x, dict):
                return {key: generated(item) for key, item in x.items()}
            return tuple(map(generated, x)) if isinstance(x, tuple) else x

        assert emitted(generated(value)) == reference_emit(value)

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

    def test_subclasses_and_generators_inside_lists(self):
        """Items are tested for containers by their types: a subclass of dict
        or list counts as one, and a generator inside a list is written as
        the list of its items."""

        class Table(dict):
            pass

        class Row(list):
            pass

        report = {"rows": [1.5, Row([1, Row([])]), "x"], "tables": [Table(a=[1], b=Table()), None],
                  "mixed": Row([Table(k=2), 3]), "flat": Row([1, 2.5, "y"]), "sub": Table(z=Row([None]))}
        assert emitted(report) == reference_emit(report)
        assert emitted({"made": [0, (k * k for k in range(3)), (x for x in ()), [7]]}) == reference_emit(
            {"made": [0, [0, 1, 4], [], [7]]})

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


# ---------------------------------------------------------------------------
# the fixed costs of the middle checks: the matrix reader, the Pauli string
# recognition and the net spec reader, the guarded CCR commutator, the Weyl
# stopping test and the category check, against the per-item code


def refusal_or_value(fn, *args):
    """A function's value, or the type and message of its refusal."""
    try:
        return "value", fn(*args)
    except ToolError as exc:
        return type(exc).__name__, str(exc)


def reference_parse_matrix(data) -> np.ndarray:
    n = len(validation.array(data, "matrix JSON"))
    if not n:
        raise InputError("matrix JSON has no rows")
    for i, row in enumerate(data):
        if type(row) is not list or len(row) != n:
            raise InputError(f"matrix JSON row {i} is not an array of {n} entries: {validation.shown(row)}")
    mat = np.array([[complex(*c) if type(c) is list and len(c) == 2 and type(c[0]) is type(c[1]) is float
                     else reference_entry(c, i, j) for j, c in enumerate(row)] for i, row in enumerate(data)],
                   dtype=complex)
    if not np.isfinite(mat).all():
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise InputError(f"matrix entry at row {i}, column {j} is not finite: {validation.shown(data[i][j])}")
    return mat


def reference_entry(cell, i: int, j: int) -> complex:
    where = f"matrix entry at row {i}, column {j}"
    parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell]
    if any(x is True or x is False for x in parts):
        raise InputError(f"{where} is a boolean, not a number: {validation.shown(cell)}")
    return complex(*(validation.number(x, where) for x in parts))


# cells that are not a pair of floats: booleans, JSON integers (one beyond
# the float range), strings, null, bare numbers, pairs holding any of
# these, and lists of the wrong length or depth
ODD_CELLS = st.one_of(
    st.sampled_from([True, False, None, "1", "", 0, 1, -3, 10**400, -(10**400), 2.5, -0.0,
                     float("nan"), float("inf"), float("-inf"), [], [1.0], [1.0, 2.0, 3.0], [[1.0], 2.0],
                     {"re": 1.0}, [1, 0], [0.5, True], [False, 0.5], [10**400, 0.0], [1.0, -(10**400)],
                     [None, 1.0], [1.0, "2"], [float("nan"), 0.0], [0.0, float("-inf")], (1.0, 2.0)]),
    st.integers(-(2**70), 2**70), st.floats(),
    st.tuples(st.one_of(st.integers(), st.floats(), st.booleans()), st.floats()).map(list),
)


@st.composite
def matrix_data(draw):
    """Rows of [float, float] cells, often with odd cells, a ragged or
    non-list row, or no rows; now and then not a list at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([{}, "[[1.0, 0.0]]", 1.0, None, (((1.0, 0.0),),)]))
    n = draw(st.integers(0, 4))
    pair = st.tuples(st.floats(-1e300, 1e300, allow_subnormal=True), st.floats(-1e300, 1e300)).map(list)
    rows = [[draw(pair) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ODD_CELLS)
    if n and draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(0, n - 1))
        rows[i] = draw(st.sampled_from([rows[i][:-1], rows[i] + [[0.0, 0.0]], tuple(rows[i]), {"row": rows[i]}]))
    return rows


class TestMatrixReaderOracle:
    @settings(max_examples=600, deadline=None)
    @given(data=matrix_data())
    def test_the_reader_is_the_per_cell_loop(self, data):
        """Bitwise the same matrix, or a refusal of the same type and message."""
        found, expected = refusal_or_value(cli.parse_matrix, data), refusal_or_value(reference_parse_matrix, data)
        assert bits(found) == bits(expected)

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_float_pairs_are_read_bit_for_bit(self, rng, n):
        """Signed zeros, subnormals and the extremes of the float range survive."""
        values = rng.standard_normal((n, n, 2)) * 10.0 ** rng.integers(-320, 300, (n, n, 2))
        values.flat[: min(6, values.size)] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 1e-310, -0.0][: values.size]
        data = values.tolist()
        assert bits(cli.parse_matrix(data)) == bits(reference_parse_matrix(data))


def reference_pauli_term(g, length, tol=DEFAULT_TOL):
    norm = np.linalg.norm(g)
    if norm == 0:
        return (0, 0)
    x = int(np.argmax(np.abs(g[:, 0])))
    if g[x, 0] == 0:
        return None
    bits_ = 1 << np.arange(length)
    z = int(bits_[(g[bits_ ^ x, bits_] / g[x, 0]).real < 0].sum())
    row = reference_string_rows([(x, z)], length)[0]
    flat = g.reshape(-1)
    return (x, z) if np.linalg.norm(flat - np.vdot(row, flat) * row) <= tol * norm else None


def off_by(g: np.ndarray, factor: float, tol: float, rng) -> np.ndarray:
    """``g`` plus a matrix orthogonal to it (Frobenius) whose norm is
    ``factor * tol`` times the norm of the sum."""
    e = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    e -= np.vdot(g, e) / np.vdot(g, g) * g
    r = factor * tol
    return g + e * (r / np.sqrt(1 - r * r) * np.linalg.norm(g) / np.linalg.norm(e))


@st.composite
def generator_stacks(draw):
    """A chain length, a tolerance, and a stack of generators: scaled
    strings, strings off by 1 -+ 1e-6 of the recognition bound, zero
    matrices, matrices with a zero column 0, and dense ones."""
    length = draw(st.integers(1, 4))
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    d = 2**length
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    stack = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["string", "near", "zero", "column", "dense", "sum"]))
        labels = {k: draw(st.sampled_from("IXYZ")) for k in range(length)}
        scale = complex(rng.standard_normal(), rng.standard_normal()) * 10.0 ** draw(st.integers(-3, 3))
        g = scale * pauli_string(labels, length)
        if kind == "near":
            g = off_by(g, 1 + draw(st.sampled_from([-1e-6, 1e-6])), tol, rng)
        elif kind == "zero":
            g = np.zeros((d, d), dtype=complex)
        elif kind == "column":
            g = rng.standard_normal((d, d)) + 0j
            g[:, 0] = 0
        elif kind == "dense":
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        elif kind == "sum":
            g = g + pauli_string({0: "X"}, length)
        stack.append(g)
    return length, tol, stack


class TestPauliRecognitionOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=generator_stacks())
    def test_each_generator_is_read_as_before(self, case):
        length, tol, stack = case
        expected = [reference_pauli_term(g, length, tol) for g in stack]
        d = 2**length
        assert locnet._pauli_terms(np.array(stack, dtype=complex).reshape(-1, d, d), length, tol) == expected


def reference_load_net_spec(path: str, tol: float) -> LocalNet:
    data = validation.load_json(path)
    length = validation.whole_number(validation.member(data, "length", "net spec"), "net spec length", least=1)
    locnet.refuse_long_chain(length)
    d = 2**length
    assignment = {}
    for entry in validation.array(validation.member(data, "regions", "net spec"), "net spec regions"):
        start, stop = (validation.whole_number(validation.member(entry, e, "net spec region"), f"net spec {e}")
                       for e in ("start", "stop"))
        region = Region(start, stop)
        if region.start < 0 or region.stop >= length:
            raise InputError(f"net spec {path!r}: region {region.label()} lies outside the chain [0,{length - 1}]")
        if region in assignment:
            raise InputError(f"net spec {path!r}: region {region.label()} is listed twice")
        gens = [reference_parse_matrix(m)
                for m in validation.array(validation.member(entry, "generators", "net spec region"), "generators")]
        for k, g in enumerate(gens):
            if len(g) != d:
                raise InputError(f"net spec {path!r}: generator {k} of region {region.label()} "
                                 f"is {len(g)}x{len(g)}, expected {d}x{d}")
        assignment[region] = reference_region_algebra(gens, length, tol)
    return LocalNet(length, assignment, tol=tol)


def reference_region_algebra(generators, length, tol):
    generators = [as_matrix(g, 2**length) for g in generators]
    strings = [reference_pauli_term(g, length, tol) for g in generators]
    if None in strings:
        return generate_algebra(generators, 2**length, tol, dim_cap=2**length)
    return PauliAlgebra.generated(strings, length, tol)


def as_cells(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


# faults of a net spec, each at one drawn region
NET_FAULTS = ["outside", "negative", "twice", "boolean", "integer cells", "huge", "nan", "ragged", "wide",
              "no start", "boolean stop", "generators not a list", "region not an object"]


@st.composite
def net_spec_files(draw, directory):
    """A net spec on a chain of 1-3 sites, generated by scaled Pauli strings
    and now and then a sum of two, with up to three faults in drawn regions
    or at the top: the order of the refusals shows."""
    length = draw(st.integers(1, 3))
    d = 2**length
    intervals = [(a, b) for a in range(length) for b in range(a, length)]
    regions = []
    for a, b in draw(st.lists(st.sampled_from(intervals), min_size=1, max_size=len(intervals), unique=True)):
        gens = []
        for _ in range(draw(st.integers(0, 3))):
            labels = {k: draw(st.sampled_from("IXYZ")) for k in range(a, b + 1)}
            g = draw(st.sampled_from([1.0, -1.0, 1j, 0.5 - 2j])) * pauli_string(labels, length)
            if draw(st.integers(0, 5)) == 0:
                g = g + pauli_string({a: "Z"}, length)
            gens.append(as_cells(g))
        regions.append({"start": a, "stop": b, "generators": gens})
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(NET_FAULTS))
        k = draw(st.integers(0, len(regions) - 1))
        region = regions[k]
        if not isinstance(region, dict) or not isinstance(region["generators"], list):
            continue
        if fault == "outside":
            region["stop"] = length
        elif fault == "negative":
            region["start"] = -1
        elif fault == "twice":
            regions.append(dict(region))
        elif fault == "no start":
            region.pop("start", None)
        elif fault == "boolean stop":
            region["stop"] = True
        elif fault == "generators not a list":
            region["generators"] = "Z"
        elif fault == "region not an object":
            regions[k] = list(region.values())
        else:
            cells = as_cells(pauli_string({0: draw(st.sampled_from("XYZ"))}, length))
            i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            if fault == "boolean":
                cells[i][j] = [True, 0.0]
            elif fault == "integer cells":
                cells[i] = [[int(re), int(im)] for re, im in cells[i]]
            elif fault == "huge":
                cells[i][j] = 10**400
            elif fault == "nan":
                cells[i][j] = [float("nan"), 0.0]
            elif fault == "ragged":
                cells[i] = cells[i][:-1]
            elif fault == "wide":
                cells = as_cells(np.eye(2 * d))
            region["generators"].insert(draw(st.integers(0, len(region["generators"]))), cells)
    spec = {"length": length, "regions": regions}
    top = draw(st.integers(0, 19))
    if top == 0:
        spec["length"] = draw(st.sampled_from([0, 7, True, 2.5, "3", None]))
    elif top == 1:
        spec = draw(st.sampled_from([{"regions": regions}, {"length": length}, {"length": length, "regions": {}}]))
    path = directory / f"net{draw(st.integers(0, 2**30))}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def net_outcome(path: str, load) -> tuple:
    """The refusal of a spec, or each region's algebra: its strings, or its
    closure's rows bit for bit."""
    kind, net = refusal_or_value(load, path, DEFAULT_TOL)
    if kind != "value":
        return kind, net
    return kind, net.length, [
        (r, tuple(alg.strings) if isinstance(alg, PauliAlgebra) else alg.ortho.tobytes())
        for r, alg in net.assignment.items()
    ]


@pytest.fixture(scope="module")
def spec_directory(tmp_path_factory):
    return tmp_path_factory.mktemp("net-specs")


class TestNetSpecReaderOracle:
    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_the_reader_refuses_and_builds_as_before(self, spec_directory, data):
        path = data.draw(net_spec_files(spec_directory))
        assert net_outcome(path, cli.load_net_spec) == net_outcome(path, reference_load_net_spec)

    def test_the_benchmark_specs_build_as_before(self, tmp_path):
        workloads = perfbench_module("workloads")
        for seed in (101, 102, 103):
            for check in workloads.net_chain(seed, "full", str(tmp_path)):
                if check["kind"] == "net-custom":
                    path = check["argv"][-1]
                    assert net_outcome(path, cli.load_net_spec) == net_outcome(path, reference_load_net_spec)


def reference_ccr_defect(f, fp, fock, guard=1) -> float:
    edges = [0] + [fock.sector_size(total) for total in range(gft.ccr_top_sector(fock.n_max, guard) + 1)]
    keep = edges[-1]
    a = gft.field_operator(f, fock)
    b = dagger(gft.field_operator(fp, fock))
    commutator = a[:keep] @ b[:, :keep] - b[:keep] @ a[:, :keep]
    return gft._sector_norm(commutator, gft.weighted_inner(f, fp, fock.mode_weight), edges)


# the benchmark's gft-ccr shapes (m, n, nmax): Fock dimensions 165, 220, 495, 715 and 969
CCR_SHAPES = [(2, 3, 3), (3, 2, 3), (2, 3, 4), (3, 2, 4), (2, 4, 3)]


def assert_same_defect(fock, f, g, guard, rounded=True):
    """Within a few units in the last place of the diagonal's largest term
    sum, ``(n_max + 1) w sum_k |f_k| |g_k|``: the two ways sum the same
    terms in different orders.  With ``rounded``, equal at the 14 decimals
    of a report."""
    found, expected = gft.ccr_defect(f, g, fock, guard), reference_ccr_defect(f, g, fock, guard)
    scale = (fock.n_max + 1) * fock.mode_weight * np.sum(np.abs(f) * np.abs(g))
    assert type(found) is float
    assert abs(found - expected) <= 4 * 2.0**-52 * max(1.0, scale)
    assert not rounded or round(found, 14) == round(expected, 14)


class TestGuardedCommutatorOracle:
    @pytest.mark.parametrize("m, n, n_max", CCR_SHAPES)
    def test_every_guard_at_the_benchmark_shapes(self, m, n, n_max):
        space = gft.PolyhedronSpace(m, n)
        fock = gft.fock_for(space, n_max)
        rng = np.random.default_rng(m * 100 + n * 10 + n_max)
        for _ in range(3):
            f, g = (rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size) for _ in range(2))
            for guard in range(n_max + 1):
                assert_same_defect(fock, f, g, guard)

    @settings(max_examples=80, deadline=None)
    @given(case=ccr_cases())
    def test_every_guard_on_drawn_spaces(self, case):
        fock, f, g = case
        for guard in range(fock.n_max + 1):
            assert_same_defect(fock, f, g, guard, rounded=False)
            assert_same_defect(fock, f, f, guard, rounded=False)

    def test_benchmark_reports_are_byte_equal(self, capsys, monkeypatch):
        workloads = perfbench_module("workloads")
        argvs = [check["argv"] for seed in range(100, 130) for check in workloads.fock_sector(seed, "full", "")
                 if check["kind"] == "gft-ccr"]
        assert len(argvs) == 30 * 22
        found = []
        for argv in argvs:
            assert main(argv) == 0
            found.append(capsys.readouterr().out)
        monkeypatch.setattr(gft, "ccr_defect", reference_ccr_defect)
        for argv, report in zip(argvs, found):
            assert main(argv) == 0
            assert capsys.readouterr().out == report, argv


def reference_weyl_parameters(fv, fock) -> tuple:
    """The generator G and the Taylor degree and step count of the Weyl action."""
    psi = gft.field_operator(fv, fock)
    g = 1j / np.sqrt(2.0) * (psi + dagger(psi))
    norm = abs(g).sum(axis=0).max()
    m, s = min(((m, math.ceil(norm / theta)) for m, theta in gft._THETA.items()), key=lambda ms: ms[0] * ms[1])
    return g, m, s


def reference_taylor(g, m, s, cols, matvecs: list) -> np.ndarray:
    """The Taylor steps with the stopping test on the partial sum's norm
    after every term; each product with G is appended to ``matvecs``."""
    out = term = cols
    for _ in range(s):
        c1 = abs(term).sum(axis=1).max()
        for j in range(1, m + 1):
            term = (1.0 / (s * j)) * (g @ term)
            matvecs.append(j)
            c2 = abs(term).sum(axis=1).max()
            out = out + term
            if c1 + c2 <= 2.0**-53 * abs(out).sum(axis=1).max():
                break
            c1 = c2
        term = out
    return out


class CountedProducts:
    """G, with each product G @ x appended to ``matvecs``."""

    def __init__(self, g, matvecs: list):
        self.g, self.matvecs = g, matvecs

    def __matmul__(self, x):
        self.matvecs.append(1)
        return self.g @ x


class TestWeylStoppingOracle:
    """The stopping test on a bound of the partial sum's norm against the
    test on the norm after every term: the same bits from the same number
    of products."""

    def assert_same_action(self, f, fock, sector_cap):
        _, cols = gft._sector_columns(fock, sector_cap)
        g, m, s = reference_weyl_parameters(f, fock)
        action = gft._weyl_action(f, fock)
        assert action.func is gft._taylor_steps and action.args[1:] == (m, s) and same_csr(action.args[0], g)
        found, expected = [], []
        out = gft._taylor_steps(CountedProducts(g, found), m, s, cols)
        assert np.array_equal(out, reference_taylor(g, m, s, cols, expected))
        assert len(found) == len(expected)
        assert np.array_equal(action(cols), out)

    def test_the_benchmark_sweeps(self):
        """The benchmark's sweeps over four modes at norm 2, to dimension 1,001."""
        space = gft.PolyhedronSpace(2, 2)
        rng = np.random.default_rng(2)
        for n_max in range(2, 11):
            fock = gft.fock_for(space, n_max)
            for _ in range(2):
                f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                f *= 2.0 / np.sqrt(abs(gft.inner_product(f, f, space)))
                self.assert_same_action(f, fock, 1)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(1, 1, 12), (2, 1, 8), (2, 2, 4), (3, 1, 5), (2, 3, 2)]),
           norm=st.floats(0.4, 50.0), cap=st.integers(0, 3), seed=st.integers(0, 2**16))
    def test_drawn_norms(self, shape, norm, cap, seed):
        m, n, n_max = shape
        space = gft.PolyhedronSpace(m, n)
        fock = gft.fock_for(space, n_max)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
        f *= norm / np.sqrt(abs(gft.inner_product(f, f, space)))
        self.assert_same_action(f, fock, min(cap, n_max - 1))


def reference_check_category(c: FinCategory) -> list:
    """The violations of the category check, by scans over every pair and
    triple of morphisms, as (kind, message) pairs."""
    report = ValidationReport()
    for o in [o for k, o in enumerate(c.objects) if o in c.objects[k + 1 :] and o not in c.objects[:k]]:
        report.add("category.structure", f"object {o!r} is listed more than once")
    if not report.ok:
        return [(v.kind, v.message) for v in report.violations]
    seen: dict = {}
    for (src, dst), labels in c.homs.items():
        if src not in c.objects or dst not in c.objects:
            report.add("category.structure", f"hom-set ({src},{dst}) references unknown object")
        for m in labels:
            if m in seen:
                report.add("category.structure", f"morphism label {m!r} used in {seen[m]} and ({src},{dst})")
            seen[m] = (src, dst)
    morphs = c.morphisms()
    for o in c.objects:
        i = c.identities.get(o)
        if i is None:
            report.add("category.structure", f"object {o!r} has no identity")
        elif morphs.get(i) != (o, o):
            report.add("category.structure", f"identity {i!r} of {o!r} is not in hom({o},{o})")
    if report.ok:
        for (g, f), gf in c.compose.items():
            if not {g, f, gf} <= morphs.keys() or morphs[f][1] != morphs[g][0]:
                report.add("category.structure",
                           f"composite entry ({g!r}, {f!r}) names an unknown or non-composable pair")
        for g, (gs, gd) in morphs.items():
            for f, (fs, fd) in morphs.items():
                if fd != gs:
                    continue
                gf = c.compose.get((g, f))
                if gf is None:
                    report.add("category.structure", f"missing composite ({g!r}, {f!r})")
                elif morphs.get(gf) != (fs, gd):
                    report.add("category.structure", f"composite {gf!r} of ({g!r}, {f!r}) is not in hom({fs},{gd})")
    if report.ok:
        for f, (fs, fd) in morphs.items():
            if c.compose[(c.identities[fd], f)] != f:
                report.add("category.identity", f"id_{fd} o {f!r} != {f!r}")
            if c.compose[(f, c.identities[fs])] != f:
                report.add("category.identity", f"{f!r} o id_{fs} != {f!r}")
        for h, (hs, hd) in morphs.items():
            for g, (gs, gd) in morphs.items():
                if gd != hs:
                    continue
                for f, (fs, fd) in morphs.items():
                    if fd != gs:
                        continue
                    left = c.compose[(h, c.compose[(g, f)])]
                    right = c.compose[(c.compose[(h, g)], f)]
                    if left != right:
                        report.add("category.assoc", f"h={h!r} g={g!r} f={f!r}: {left!r} != {right!r}")
    return [(v.kind, v.message) for v in report.violations]


CATEGORY_FAULTS = ["repeated object", "unknown end", "shared label", "no identity", "misplaced identity",
                   "missing composite", "stray composite", "wrong composite"]


@st.composite
def table_categories(draw):
    """A category table on 1-4 objects with 0-2 arrows in each hom-set and a
    drawn composite for each composable pair of arrows, in the hom-set it
    must lie in when there is one, so that identity and associativity can
    fail; then up to two structural faults."""
    objects = draw(st.lists(st.sampled_from(["a", "b", "c", 0, 1.5]), min_size=1, max_size=4, unique=True))
    identities = {o: f"id_{o}" for o in objects}
    homs, label = {}, itertools.count()
    for src in objects:
        for dst in objects:
            arrows = [f"f{next(label)}" for _ in range(draw(st.integers(0, 2)))]
            if src == dst:
                arrows.insert(0, identities[src])
            if arrows:
                homs[(src, dst)] = arrows
    morphs = {m: ends for ends, labels in homs.items() for m in labels}
    compose = {}
    for g, (gs, gd) in morphs.items():
        for f, (fs, fd) in morphs.items():
            if fd == gs:
                if g == identities[gd]:
                    compose[(g, f)] = f
                elif f == identities[fs]:
                    compose[(g, f)] = g
                elif homs.get((fs, gd)):
                    compose[(g, f)] = draw(st.sampled_from(homs[(fs, gd)]))
    c = FinCategory(objects, homs, compose, identities)
    pick = lambda xs: draw(st.sampled_from(sorted(xs, key=repr) or [None]))  # noqa: E731
    for fault in draw(st.lists(st.sampled_from(CATEGORY_FAULTS), max_size=2)):
        if fault == "repeated object":
            c.objects.insert(draw(st.integers(0, len(c.objects))), pick(c.objects))
        elif fault == "unknown end":
            c.homs[(pick(objects), "z")] = [f"f{next(label)}"]
        elif fault == "shared label":
            c.homs.setdefault(pick(c.homs), []).append(pick(morphs))
        elif fault == "no identity":
            c.identities.pop(pick(objects), None)
        elif fault == "misplaced identity":
            c.identities[pick(objects)] = pick(morphs)
        elif fault == "missing composite" and c.compose:
            del c.compose[pick(c.compose)]
        elif fault == "stray composite":
            c.compose[(pick(morphs), draw(st.sampled_from([pick(morphs), "nowhere"])))] = pick(morphs)
        elif fault == "wrong composite" and c.compose:
            c.compose[pick(c.compose)] = pick(morphs)
    return c


def reference_poset_category(elements, leq) -> FinCategory:
    """The poset category with ``leq`` asked again for every hom and every chain."""
    objects = list(elements)
    homs: dict = {}
    compose: dict = {}
    identities = {}

    def label(a, b):
        return f"id_{a}" if a == b else f"{a}<={b}"

    for a in objects:
        for b in objects:
            if leq(a, b):
                homs.setdefault((a, b), []).append(label(a, b))
        identities[a] = label(a, a)
    for a in objects:
        for b in objects:
            if not leq(a, b):
                continue
            for c in objects:
                if leq(b, c):
                    compose[(label(b, c), label(a, b))] = label(a, c)
    return FinCategory(objects, homs, compose, identities)


@st.composite
def relations(draw):
    """Up to six distinct objects and any relation on them: not always
    reflexive, antisymmetric or transitive."""
    objects = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", 0, 1]), max_size=6, unique=True))
    pairs = draw(st.sets(st.tuples(st.sampled_from(objects), st.sampled_from(objects)))) if objects else set()
    return objects, pairs


class TestPosetCategoryOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=relations())
    def test_the_tables_in_the_same_order(self, case):
        objects, pairs = case
        found = poset_category(objects, lambda a, b: (a, b) in pairs)
        expected = reference_poset_category(objects, lambda a, b: (a, b) in pairs)
        assert found.objects == expected.objects
        for table in ("homs", "compose", "identities"):
            assert list(getattr(found, table).items()) == list(getattr(expected, table).items())


class TestCategoryCheckOracle:
    @settings(max_examples=400, deadline=None)
    @given(c=table_categories())
    def test_violations_come_in_the_same_order(self, c):
        assert [(v.kind, v.message) for v in fincat.check_category(c).violations] == reference_check_category(c)

    @pytest.mark.parametrize("objects", [["a", "b", "a", "c", "b", "a"], [0, 0.0, "0"], [1, 2, 3]])
    def test_repeated_objects(self, objects):
        c = FinCategory(objects, {}, {}, {})
        assert [(v.kind, v.message) for v in fincat.check_category(c).violations] == reference_check_category(c)


def reference_map_of(d: Diagram, m) -> dict:
    """A morphism's map, looked up through a fresh morphism table."""
    if m in d.maps:
        return d.maps[m]
    src, dst = d.index.morphisms()[m]
    if m == d.index.identities.get(src) and src == dst:
        return {x: x for x in d.carriers[src]}
    raise InputError(f"diagram has no map for morphism {m!r}")


def reference_check_diagram(d: Diagram) -> list:
    """The violations of the diagram check, each map read through
    ``reference_map_of``, as (kind, message) pairs."""
    found = reference_check_category(d.index)
    if any(kind == "category.structure" for kind, _ in found):
        return found
    report = ValidationReport()
    for kind, message in found:
        report.add(kind, message)
    morphs = d.index.morphisms()
    for o in d.index.objects:
        if o not in d.carriers:
            report.add("diagram.structure", f"object {o!r} has no carrier")
    if report.ok:
        for m, (src, dst) in morphs.items():
            try:
                table = reference_map_of(d, m)
            except InputError:
                report.add("diagram.structure", f"morphism {m!r} has no map")
                continue
            cod = set(d.carriers[dst])
            for x in d.carriers[src]:
                if x not in table:
                    report.add("diagram.structure", f"map of {m!r} undefined on {x!r}")
                elif table[x] not in cod:
                    report.add("diagram.structure", f"map of {m!r} sends {x!r} outside carrier of {dst!r}")
    if report.ok:
        for o in d.index.objects:
            table = reference_map_of(d, d.index.identities[o])
            for x in d.carriers[o]:
                if table[x] != x:
                    report.add("diagram.identity", f"identity of {o!r} moves {x!r}")
        for (g, f), gf in d.index.compose.items():
            fs, _ = morphs[f]
            mg, mf, mgf = reference_map_of(d, g), reference_map_of(d, f), reference_map_of(d, gf)
            for x in d.carriers[fs]:
                if mg[mf[x]] != mgf[x]:
                    report.add("diagram.compose", f"D({g!r}) o D({f!r}) != D({gf!r}) at {x!r}")
    return [(v.kind, v.message) for v in report.violations]


# discrete, a chain, and one object below or above all others, on object positions
POSET_ORDERS = [operator.eq, operator.le, lambda i, j: i == j or i == 0, lambda i, j: i == j or j == 0]


@st.composite
def table_diagrams(draw):
    """A diagram over a drawn category table or a poset category on 1-4
    objects: carriers of 0-3 elements, and for each morphism a map left
    out or drawn, each element's image mostly in the target's carrier but
    sometimes missing or outside it, so that identities move elements and
    composites disagree; then one carrier may be dropped."""
    if draw(st.booleans()):
        c = draw(table_categories())
    else:
        objects = draw(st.lists(st.sampled_from(["a", "b", "c", 0]), min_size=1, max_size=4, unique=True))
        order = draw(st.sampled_from(POSET_ORDERS))
        c = poset_category(objects, lambda a, b: order(objects.index(a), objects.index(b)))
    carriers = {o: draw(st.lists(st.sampled_from(["x", "y", 0, 1]), max_size=3, unique=True)) for o in c.objects}
    maps = {}
    for m, (src, dst) in c.morphisms().items():
        if draw(st.integers(0, 3)) == 0:
            continue
        table = {}
        for x in carriers.get(src, []):
            pick = draw(st.integers(0, 29))
            if pick == 1:
                table[x] = "outside"
            elif pick > 1 and carriers.get(dst):
                table[x] = draw(st.sampled_from(carriers[dst]))
        maps[m] = table
    for o in draw(st.lists(st.sampled_from(c.objects), max_size=1)):
        carriers.pop(o, None)
    return Diagram(c, carriers, maps)


class TestDiagramCheckOracle:
    @settings(max_examples=400, deadline=None)
    @given(d=table_diagrams())
    def test_violations_come_in_the_same_order(self, d):
        assert [(v.kind, v.message) for v in fincat.check_diagram(d).violations] == reference_check_diagram(d)

    @settings(max_examples=200, deadline=None)
    @given(d=table_diagrams())
    def test_map_of_keeps_its_answers_and_its_refusal(self, d):
        def answer(lookup, m):
            try:
                return "map", lookup(m)
            except InputError as exc:
                return "refused", str(exc)
            except KeyError as exc:
                return "unknown", exc.args

        for m in [*d.index.morphisms(), "unlisted"]:
            assert answer(d.map_of, m) == answer(functools.partial(reference_map_of, d), m)


# ---------------------------------------------------------------------------
# the ray family build that split every basis's projectors, the ray fixture
# reader that read vector by vector, and the universality count of row tuples


def reference_rays_to_projectors(basis_vectors) -> np.ndarray:
    vecs = np.asarray(basis_vectors, dtype=complex)
    vecs = vecs.reshape(len(vecs), -1 if len(vecs) else 0)
    re, im = vecs.real[:, None], vecs.imag[:, None]
    norms = np.sqrt((re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2))[:, 0, 0])
    if np.any(norms == 0):
        raise InputError("zero vector in ray fixture")
    vecs = vecs / norms[:, None]
    return vecs[:, :, None] * vecs[:, None, :].conj()


def reference_ray_family_context_category(dim, bases, tol=DEFAULT_TOL):
    staralg.check_dimension(dim)
    ambient = full_matrix_algebra(dim, tol)
    groups = [reference_rays_to_projectors(basis) for basis in bases]
    return context_category_from_groups(ambient, groups)


def reference_load_ray_fixture(data) -> tuple:
    dim = validation.whole_number(validation.member(data, "dim", "ray fixture"), "ray fixture dim", least=1)
    bases = []
    for b, basis in enumerate(validation.array(validation.member(data, "bases", "ray fixture"), "ray fixture bases")):
        bases.append([])
        for k, raw in enumerate(validation.array(basis, f"basis {b} of the ray fixture")):
            where = f"basis {b}, vector {k} of the ray fixture"
            if any(x is True or x is False for x in validation.array(raw, where)):
                raise InputError(f"{where} has a boolean coordinate: {raw!r}")
            v = validation.numbers(raw, f"{where}: coordinate")
            if v.shape != (dim,):
                raise InputError(f"ray of shape {v.shape} in dimension-{dim} fixture")
            if not np.all(np.isfinite(v)):
                raise InputError(f"{where} has a non-finite coordinate: {raw!r}")
            bases[-1].append(v)
    return dim, bases


def reference_row_tuple_counts(candidate, d, cones) -> bool:
    counts = collections.Counter(map(tuple, candidate.legs.tolist()))
    return all(counts[row] == 1 for cone in cones for row in map(tuple, cone.legs.tolist()))


def ray_build(fn, *args):
    """A ray family build's category, or its refusal as (type, message)."""
    try:
        return "value", fn(*args)
    except (DomainError, InputError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_ray_category(found, expected, atol=1e-12):
    """The same refusal, or the same ids, strict order, restriction tables
    (keys in order), generators and character ranks, with every character's
    projection within ``atol`` of the frozen build's."""
    assert found[0] == expected[0]
    if found[0] != "value":
        assert found == expected
        return
    new, old = found[1], expected[1]
    assert new.ids() == old.ids()
    assert new.order == old.order
    assert new.strict_pairs() == old.strict_pairs()
    assert list(new.restrictions.items()) == list(old.restrictions.items())
    assert new.generators == old.generators
    for cid in old.ids():
        assert [chi.rank for chi in new.spectra[cid]] == [chi.rank for chi in old.spectra[cid]]
        for chi, ref in zip(new.spectra[cid], old.spectra[cid]):
            assert np.abs(chi.projection - ref.projection).max() <= atol
        assert new.algebra(cid)._characters is new.spectra[cid]


RAY_TOLS = [1e-13, 1e-9, 1e-6, 1e-3]


@st.composite
def orthonormal_families(draw):
    """Orthonormal bases of dimension 2-8 from one to three frames: a random
    unitary (or orthogonal) frame, and frames that rotate some of its column
    pairs, so bases share rays and their meets have atoms of several rays.
    Each basis lists its frame's columns in a drawn order, each ray scaled by
    a random factor, complex or positive."""
    d = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    frames = [random_unitary(rng, d) if draw(st.booleans()) else np.linalg.qr(rng.standard_normal((d, d)))[0]]
    for _ in range(draw(st.integers(0, 2))):
        frame = frames[0].copy()
        for a, b in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=2)):
            if a != b:
                c, s = np.cos(0.3 + a), np.sin(0.3 + a)
                frame[:, [a, b]] = frame[:, [a, b]] @ np.array([[c, -s], [s, c]])
        frames.append(frame)
    complex_scale = draw(st.booleans())
    bases = []
    for _ in range(draw(st.integers(1, 5))):
        frame = frames[draw(st.integers(0, len(frames) - 1))]
        scale = rng.uniform(0.5, 2.0, d) * (np.exp(1j * rng.uniform(0, 6.3, d)) if complex_scale else 1.0)
        bases.append([frame[:, c] * scale[c] for c in draw(st.permutations(range(d)))])
    return d, bases


def peres_subfamilies(seed, sizes=(6, 9, 12, 16, 17)) -> list:
    dim, bases = PERES
    rng = np.random.default_rng(seed)
    return [[bases[i] for i in sorted(rng.choice(24, size, replace=False))] for size in sizes]


def split_build(dim, bases, tol) -> tuple:
    """``ray_build`` of the ray family build, and the stacks it split."""
    with counted_splits() as calls:
        found = ray_build(ray_family_context_category, dim, bases, tol)
    return found, calls


def off_the_ray_path(basis, kind) -> list:
    """``basis``, a list of d orthogonal rays, made one that the ray path
    does not take: a ray left out, a ray repeated, a ray tilted toward
    another until their Gram entry is 10 times ``RANK_FLOOR``, a zero ray,
    or every ray rounded to 12 decimals, orthogonal only to about 1e-12."""
    basis = [np.asarray(v, dtype=complex) for v in basis]
    if kind == "incomplete":
        return basis[:-1]
    if kind == "parallel":
        return [basis[0], 2.0 * basis[0]] + basis[2:]
    if kind == "near":
        units = [v / np.linalg.norm(v) for v in basis]
        return [units[0], units[1] + 10 * RANK_FLOOR * units[0]] + units[2:]
    if kind == "zero":
        return basis[:-1] + [0 * basis[-1]]
    return [np.round(v.real, 12) + 1j * np.round(v.imag, 12) for v in basis]


class TestRayAtomOracle:
    """The ray family build against the frozen one that split every basis's
    projectors: the same category, projections within 1e-12, and no split
    for a family of orthonormal bases; a family with any other basis is
    split, and its category is the frozen one."""

    @settings(max_examples=120, deadline=None)
    @given(family=orthonormal_families(), tol=st.sampled_from(RAY_TOLS))
    def test_orthonormal_frames(self, family, tol):
        d, bases = family
        found, calls = split_build(d, bases, tol)
        assert calls == []
        assert_same_ray_category(found, ray_build(reference_ray_family_context_category, d, bases, tol))

    @pytest.mark.parametrize("tol", RAY_TOLS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_peres_subfamilies(self, seed, tol):
        for bases in peres_subfamilies(seed):
            found, calls = split_build(4, bases, tol)
            assert calls == []
            assert_same_ray_category(found, ray_build(reference_ray_family_context_category, 4, bases, tol))

    @pytest.mark.parametrize("tol", RAY_TOLS)
    @pytest.mark.parametrize("name", ["cabello18", "peres24"])
    def test_whole_fixtures(self, name, tol):
        dim, bases = CABELLO if name == "cabello18" else PERES
        found, calls = split_build(dim, bases, tol)
        assert calls == []
        assert_same_ray_category(found, ray_build(reference_ray_family_context_category, dim, bases, tol))

    @settings(max_examples=120, deadline=None)
    @given(family=orthonormal_families(), tol=st.sampled_from(RAY_TOLS), data=st.data(),
           kind=st.sampled_from(["incomplete", "parallel", "near", "zero", "decimal"]))
    def test_one_basis_off_the_ray_path(self, family, tol, data, kind):
        """One incomplete, parallel, near-orthogonal, zero-ray or rounded
        basis among orthonormal ones: the whole family is split, and the
        category, or the refusal, is the frozen build's.  A rounded basis
        may still be orthonormal to the floor, and then takes the ray path."""
        d, bases = family
        k = data.draw(st.integers(0, len(bases) - 1))
        bases = bases[:k] + [off_the_ray_path(bases[k], kind)] + bases[k + 1 :]
        found, calls = split_build(d, bases, tol)
        expected = ray_build(reference_ray_family_context_category, d, bases, tol)
        if kind == "zero":
            assert found == expected == ("InputError", "zero vector in ray fixture")
        elif kind == "decimal" and not calls:
            assert_same_ray_category(found, expected)
        else:
            assert calls
            assert_same_ray_category(found, expected, atol=0.0)

    @pytest.mark.parametrize("kind", ["incomplete", "parallel", "near"])
    def test_peres_with_one_basis_off_the_ray_path(self, kind):
        dim, bases = PERES
        for k in (0, 11, 23):
            family = bases[:k] + [off_the_ray_path(bases[k], kind)] + bases[k + 1 :]
            found, calls = split_build(dim, family, DEFAULT_TOL)
            assert calls
            assert_same_ray_category(found, ray_build(reference_ray_family_context_category, dim, family), atol=0.0)

    def test_ks_reports_are_byte_equal(self, capsys, monkeypatch, tmp_path):
        """Every ks-check of the benchmark's ks-carrier batch, and the Peres
        sub-families above, at each tolerance, through the CLI: the same
        report as with the frozen reader and build."""
        workloads = perfbench_module("workloads")
        argvs = [check["argv"] for check in workloads.ks_sweep(101, "full", str(tmp_path)) if check["kind"] == "ks"]
        for n, bases in enumerate(peres_subfamilies(3)):
            path = tmp_path / f"sub{n}.json"
            path.write_text(json.dumps({"dim": 4, "bases": [[list(map(float, v)) for v in b] for b in bases]}))
            argvs.append(["ks-check", "--fixture", str(path)])
        argvs = [["--tolerance", str(tol)] + argv for argv in argvs for tol in RAY_TOLS]
        found = []
        for argv in argvs:
            assert main(argv) == 0
            found.append(capsys.readouterr().out)
        monkeypatch.setattr(cli.presheaf, "load_ray_fixture", reference_load_ray_fixture)
        monkeypatch.setattr(cli.presheaf, "ray_family_context_category", reference_ray_family_context_category)
        for argv, report in zip(argvs, found):
            assert main(argv) == 0
            assert capsys.readouterr().out == report, argv


def reader_outcome(read, data):
    """A reader's dimension and each basis's rays as one float array, in
    bytes, or its refusal as (type, message)."""
    try:
        dim, bases = read(data)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    tables = [np.array(basis, dtype=float).reshape(len(basis), dim) for basis in bases]
    return "value", dim, [(t.shape, t.dtype.str, t.tobytes()) for t in tables]


ODD_COORDINATES = [True, False, math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1024 - 1, 1e308, -0.0,
                   2**63 + 1, -(2**64) - 3, 2**53 + 1, "1", None, [1.0], {"re": 1}]
ODD_VECTORS = [1.0, 3, "ray", None, {"x": 1}, True]


@st.composite
def ray_fixture_data(draw):
    """A ray fixture of dimension 1-4, well formed more often than not: now
    and then a coordinate that is a boolean, NaN, +-inf, an integer beyond
    the float range or not a number, a vector of the wrong length or not
    an array, a basis that is not an array, or bases that are not a list.
    Bases hold 0 to dim + 1 vectors each, so empty and ragged bases come up,
    and the list of bases may be empty."""
    dim = draw(st.integers(1, 4))
    odd = draw(st.sampled_from([0, 0, 40, 12]))

    def coordinate():
        if odd and draw(st.integers(0, odd)) == 0:
            return draw(st.sampled_from(ODD_COORDINATES))
        return draw(st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3, allow_nan=False),
                              st.integers(-2**80, 2**80)))

    def vector():
        if odd and draw(st.integers(0, 3 * odd)) == 0:
            return draw(st.sampled_from(ODD_VECTORS))
        length = draw(st.integers(0, dim + 1)) if odd and draw(st.integers(0, 2 * odd)) == 0 else dim
        return [coordinate() for _ in range(length)]

    bases = [[vector() for _ in range(draw(st.integers(0, dim + 1)))] for _ in range(draw(st.integers(0, 4)))]
    if odd and draw(st.integers(0, 2 * odd)) == 0:
        bases.insert(draw(st.integers(0, len(bases))), draw(st.sampled_from([None, 3, "basis", {"v": []}])))
    data = {"dim": dim, "bases": bases}
    if odd and draw(st.integers(0, 4 * odd)) == 0:
        data["bases"] = draw(st.sampled_from([None, "bases", {"b": bases}, 4]))
    return data


class TestRayFixtureReaderOracle:
    @settings(max_examples=400, deadline=None)
    @given(data=ray_fixture_data())
    def test_drawn_fixtures(self, data):
        assert reader_outcome(load_ray_fixture, data) == reader_outcome(reference_load_ray_fixture, data)

    @pytest.mark.parametrize("bases", [
        [], [[]], [[], [[1, 0]]], [[[1, 0], [0, 1]], [[1, 1]]], [[[1, 0]], [], [[0, 1], [1, 0], [1, 1]]],
        [[[True, 0]]], [[[1, False]]], [[[math.nan, 0]]], [[[0, math.inf]]], [[[-math.inf, 1]]],
        [[[10**400, 0]]], [[[1, -(10**400)]]], [[[1, 0], [2**1024 - 1, 0]]], [[[1, 0, 0]]], [[[1]]], [[[]]],
        [[[1, 0], "ray"]], [[[1, 0]], [None]], [[[1, 0]], 3], [[[1, 0]], [[0, "1"]]], [[[2**63 + 1, -0.0]]],
        [[[1, 0], [1, 0.5]], [[0, 1], [True, 2]]], [[[1, 0]], [[1, 0, 1]], [[math.nan, 1]]],
    ])
    def test_edge_cases(self, bases):
        data = {"dim": 2, "bases": bases}
        assert reader_outcome(load_ray_fixture, data) == reader_outcome(reference_load_ray_fixture, data)


class TestUniversalCountOracle:
    """Universality by one sorted count of the candidate's rows against the
    frozen count of row tuples."""

    @settings(max_examples=150, deadline=None)
    @given(d=small_diagrams(), cap=st.sampled_from([SEARCH_CAP, 0, 1, 4, 16, 64]), data=st.data())
    def test_small_diagrams(self, d, cap, data):
        with fincat_constant("SEARCH_CAP", cap):
            found = outcome(one_point_cone_tuple, d)
        lim = limit_of_diagram(d)
        cones = [lim] + ([found[1]] if found[0] == "value" else [])
        k = apex_bound([len(lim.apex)], budget=300)
        with fincat_constant("SEARCH_CAP", cap):
            listed = outcome(enumerate_cones, d, k)
        cones += listed[1] if listed[0] == "value" else []
        candidate = data.draw(st.sampled_from(cones))
        chosen = data.draw(st.lists(st.sampled_from(cones), max_size=6))
        assert check_universal_property(candidate, d, chosen) == reference_row_tuple_counts(candidate, d, chosen)

    def test_the_five_seed_discrete_diagram(self):
        d = spectrum_diagram(build_limit_extension(pauli_category(["ZI", "XI", "YI", "IZ", "IX"])))
        lim, points = limit_of_diagram(d), one_point_cone_tuple(d)
        assert check_universal_property(lim, d, [points]) is reference_row_tuple_counts(lim, d, [points]) is True
        doubled = Cone(lim.apex * 2, np.concatenate([lim.legs, lim.legs]))
        assert check_universal_property(doubled, d, [points]) is reference_row_tuple_counts(doubled, d, [points]) \
            is False

    @pytest.mark.parametrize("candidate, cones", [
        ([], []), ([], [[[0, 1]]]), ([[0, 1]], []), ([[0, 1]], [[]]), ([[0, 1]], [[], [[0, 1]]]),
        ([[0, 1], [0, 1]], [[[0, 1]]]), ([[0, 1], [0, 1]], [[[1, 0]]]), ([[0, 1], [1, 0]], [[[1, 0], [0, 1]]]),
        ([[0, 1]], [[[0, 2]]]), ([[2, 2]], [[[0, 1]]]), ([[0, 1], [1, 1]], [[[1, 1]], [[0, 1], [1, 1], [0, 1]]]),
    ])
    def test_edge_cases(self, candidate, cones):
        """An empty candidate, an empty cone, a repeated candidate row, rows
        past the candidate's largest, on a two-object discrete diagram."""
        index = FinCategory(["p", "q"], {("p", "p"): ["id_p"], ("q", "q"): ["id_q"]}, {}, {"p": "id_p", "q": "id_q"})
        d = Diagram(index, {"p": [0, 1, 2], "q": [0, 1, 2]})

        def table(rows):
            return Cone(list(range(len(rows))), np.array(rows, dtype=np.intp).reshape(len(rows), 2))

        live, listed = table(candidate), [table(rows) for rows in cones]
        assert check_universal_property(live, d, listed) == reference_row_tuple_counts(live, d, listed)

    @pytest.mark.parametrize("size, cones", [(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 1), (2, 0)])
    def test_zero_objects(self, size, cones):
        """Rows of width 0: every row is the empty row."""
        d = Diagram(FinCategory([], {}, {}, {}), {})
        candidate = Cone([()] * size, np.zeros((size, 0), dtype=np.intp))
        listed = [Cone([()], np.zeros((1, 0), dtype=np.intp)) for _ in range(cones)]
        assert check_universal_property(candidate, d, listed) == reference_row_tuple_counts(candidate, d, listed)
