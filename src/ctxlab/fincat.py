"""Explicit finite categories, functors, set-valued diagrams, cones, limits.

Categories are given by exhaustive data: object labels, hom-sets as lists
of morphism labels, a composition table, and identity assignments.  All
laws are checked by enumeration, never assumed.  Diagrams land in the
concrete setting of finite carrier sets and total maps, which makes limits
computable, one-point cones enumerable by an ordered join over the
objects, every cone a table of carrier positions and a tuple of one-point
cones, and the universal property a count of leg rows.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, InputError
from .validation import ValidationReport, array, label_table, labels, member, members, shown

# rows that one step of the one-point cone join may form, and cones of one apex size it may list
SEARCH_CAP = 5_000_000


# ---------------------------------------------------------------------------
# categories


@dataclass
class FinCategory:
    """A finite category presented by tables.

    objects: list of labels.
    homs: (src, dst) -> list of morphism labels; labels are globally unique.
    compose: (g, f) -> g after f, total on composable pairs.
    identities: object -> its identity morphism label.
    """

    objects: list
    homs: dict
    compose: dict
    identities: dict

    def morphisms(self) -> dict:
        """Label -> (src, dst).  Later duplicates win; check_category reports them."""
        table = {}
        for (src, dst), labels in self.homs.items():
            for m in labels:
                table[m] = (src, dst)
        return table

    def arrows(self) -> list:
        """(label, src, dst) triples of the non-identity arrows, in
        deterministic order."""
        idents = set(self.identities.values())
        return [(m, src, dst) for (src, dst), labels in self.homs.items() for m in labels if m not in idents]


def _repeated(objects: list) -> list:
    """Each object listed more than once, once, in order of first listing."""
    counts = Counter(objects)
    return [o for o in counts if counts[o] > 1]


def poset_category(elements: list, leq) -> FinCategory:
    """Category of a finite poset: one arrow a -> b whenever leq(a, b).
    Refuses (InputError) an element listed twice."""
    objects = list(elements)
    repeated = _repeated(objects)
    if repeated:
        raise InputError(f"poset element {repeated[0]!r} is listed more than once")
    homs: dict = {}
    compose: dict = {}
    identities = {}

    def label(a, b):
        return f"id_{a}" if a == b else f"{a}<={b}"

    above = {a: [b for b in objects if leq(a, b)] for a in objects}
    for a in objects:
        for b in above[a]:
            homs.setdefault((a, b), []).append(label(a, b))
        identities[a] = label(a, a)
    for a in objects:
        for b in above[a]:
            for c in above[b]:
                compose[(label(b, c), label(a, b))] = label(a, c)
    return FinCategory(objects, homs, compose, identities)


def discrete_category(objects: list) -> FinCategory:
    """The objects with their identity arrows only."""
    return poset_category(objects, operator.eq)


def check_category(c: FinCategory) -> ValidationReport:
    """Exhaustively verify identity and associativity laws.

    Structural defects (repeated objects, duplicate labels, missing identities,
    missing, stray or mistyped composites) are reported with kind
    ``category.structure`` naming the offending object or pair.  A repeated
    object is reported once, and alone: every table keyed by its name is ambiguous.
    """
    report = ValidationReport()
    for o in _repeated(c.objects):
        report.add("category.structure", f"object {o!r} is listed more than once")
    if not report.ok:
        return report
    seen: dict = {}
    objects = set(c.objects)
    for (src, dst), labels in c.homs.items():
        if src not in objects or dst not in objects:
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
    if not report.ok:
        return report

    # the morphisms into each object, in the order of ``morphs``: the f with
    # g o f composable are those into g's domain
    into: dict = {}
    for f, ends in morphs.items():
        into.setdefault(ends[1], []).append((f, ends))

    # composition total, well typed, and over composable pairs only
    for (g, f), gf in c.compose.items():
        if not {g, f, gf} <= morphs.keys() or morphs[f][1] != morphs[g][0]:
            report.add("category.structure", f"composite entry ({g!r}, {f!r}) names an unknown or non-composable pair")
    for g, (gs, gd) in morphs.items():
        for f, (fs, _) in into.get(gs, ()):
            gf = c.compose.get((g, f))
            if gf is None:
                report.add("category.structure", f"missing composite ({g!r}, {f!r})")
            elif morphs.get(gf) != (fs, gd):
                report.add(
                    "category.structure",
                    f"composite {gf!r} of ({g!r}, {f!r}) is not in hom({fs},{gd})",
                )
    if not report.ok:
        return report

    for f, (fs, fd) in morphs.items():
        if c.compose[(c.identities[fd], f)] != f:
            report.add("category.identity", f"id_{fd} o {f!r} != {f!r}")
        if c.compose[(f, c.identities[fs])] != f:
            report.add("category.identity", f"{f!r} o id_{fs} != {f!r}")

    for h, (hs, _) in morphs.items():
        for g, (gs, _) in into.get(hs, ()):
            for f, _ in into.get(gs, ()):
                left = c.compose[(h, c.compose[(g, f)])]
                right = c.compose[(c.compose[(h, g)], f)]
                if left != right:
                    report.add("category.assoc", f"h={h!r} g={g!r} f={f!r}: {left!r} != {right!r}")
    return report


# ---------------------------------------------------------------------------
# functors


@dataclass
class Functor:
    source: FinCategory
    target: FinCategory
    object_map: dict
    morphism_map: dict


def check_functor(f: Functor) -> ValidationReport:
    """Both categories (stopping at structure violations), then totality, typing and the functor laws."""
    report = ValidationReport(check_category(f.source).violations + check_category(f.target).violations)
    if any(v.kind == "category.structure" for v in report.violations):
        return report
    src_morphs = f.source.morphisms()
    dst_morphs = f.target.morphisms()

    for o in f.source.objects:
        if o not in f.object_map:
            report.add("functor.structure", f"object {o!r} unmapped")
        elif f.object_map[o] not in f.target.objects:
            report.add("functor.structure", f"object {o!r} maps outside the target")
    for m, (ms, md) in src_morphs.items():
        fm = f.morphism_map.get(m)
        if fm is None:
            report.add("functor.structure", f"morphism {m!r} unmapped")
        elif dst_morphs.get(fm) != (f.object_map.get(ms), f.object_map.get(md)):
            report.add("functor.structure", f"morphism {m!r} -> {fm!r} is mistyped")
    if not report.ok:
        return report

    for o in f.source.objects:
        if f.morphism_map[f.source.identities[o]] != f.target.identities[f.object_map[o]]:
            report.add("functor.identity", f"identity of {o!r} not preserved")
    for (g, h), gf in f.source.compose.items():
        image = f.target.compose.get((f.morphism_map[g], f.morphism_map[h]))
        if image != f.morphism_map[gf]:
            report.add("functor.compose", f"composite ({g!r}, {h!r}) not preserved")
    return report


# ---------------------------------------------------------------------------
# concrete diagrams and cones


@dataclass
class Diagram:
    """A functor from a finite index category into finite sets and total maps.

    carriers: index object -> list of hashable elements, each listed once
    (InputError otherwise), so an element and its position match.
    maps: morphism label -> dict element -> element.
    Identity morphisms may be omitted from ``maps``; they act as identity.
    """

    index: FinCategory
    carriers: dict
    maps: dict = field(default_factory=dict)

    def __post_init__(self):
        for o, xs in self.carriers.items():
            if len(set(xs)) != len(xs):
                raise InputError(f"carrier of {shown(o)} lists {shown(_repeated(xs)[0])} more than once")

    def map_of(self, m) -> dict:
        table = self.maps[m] if m in self.maps else self._map(m, *self.index.morphisms()[m])
        if table is None:
            raise InputError(f"diagram has no map for morphism {m!r}")
        return table

    def _map(self, m, src, dst) -> dict | None:
        """The map of ``m`` from ``src`` to ``dst``: its entry in ``maps``, or
        the identity on its carrier for an identity left out; None for any other."""
        if m in self.maps:
            return self.maps[m]
        return {x: x for x in self.carriers[src]} if m == self.index.identities.get(src) and src == dst else None


def check_diagram(d: Diagram) -> ValidationReport:
    """The index category (stopping at structure violations), then totality, typing, composition."""
    report = check_category(d.index)
    if any(v.kind == "category.structure" for v in report.violations):
        return report
    morphs = d.index.morphisms()
    for o in d.index.objects:
        if o not in d.carriers:
            report.add("diagram.structure", f"object {o!r} has no carrier")
    if not report.ok:
        return report

    tables = {m: d._map(m, *ends) for m, ends in morphs.items()}
    for m, (src, dst) in morphs.items():
        table = tables[m]
        if table is None:
            report.add("diagram.structure", f"morphism {m!r} has no map")
            continue
        cod = set(d.carriers[dst])
        for x in d.carriers[src]:
            if x not in table:
                report.add("diagram.structure", f"map of {m!r} undefined on {x!r}")
            elif table[x] not in cod:
                report.add("diagram.structure", f"map of {m!r} sends {x!r} outside carrier of {dst!r}")
    if not report.ok:
        return report

    for o in d.index.objects:
        table = tables[d.index.identities[o]]
        for x in d.carriers[o]:
            if table[x] != x:
                report.add("diagram.identity", f"identity of {o!r} moves {x!r}")
    for (g, f), gf in d.index.compose.items():
        fs, _ = morphs[f]
        mg, mf, mgf = tables[g], tables[f], tables[gf]
        for x in d.carriers[fs]:
            if mg[mf[x]] != mgf[x]:
                report.add("diagram.compose", f"D({g!r}) o D({f!r}) != D({gf!r}) at {x!r}")
    return report


@dataclass
class Cone:
    """A cone on a concrete diagram: ``legs`` is an integer array whose entry
    [a, i] is the carrier position of ``apex[a]``'s leg at the i-th object."""

    apex: list
    legs: np.ndarray


def cone_from_legs(d: Diagram, apex: list, legs: dict) -> Cone:
    """The cone whose leg at object o sends apex element a to ``legs[o][a]``,
    a label of o's carrier.  Refuses (InputError) a missing leg, a leg
    undefined on an apex element, or a leg outside its carrier."""
    objects = list(d.index.objects)
    for o in objects:
        if o not in legs:
            raise InputError(f"missing leg at {o!r}")
    table = np.empty((len(apex), len(objects)), dtype=np.intp)
    for i, o in enumerate(objects):
        position = {x: p for p, x in enumerate(d.carriers[o])}
        for r, a in enumerate(apex):
            if a not in legs[o]:
                raise InputError(f"leg at {o!r} undefined on {a!r}")
            if legs[o][a] not in position:
                raise InputError(f"leg at {o!r} sends {a!r} outside its codomain")
            table[r, i] = position[legs[o][a]]
    return Cone(apex, table)


def _arrow_images(d: Diagram) -> list:
    """``(label, src, dst, image)`` per non-identity arrow: its ends' object
    positions, and ``image[p]`` the position in dst's carrier of the map's
    value at src's element p, or -1 where there is none."""
    position = {o: i for i, o in enumerate(d.index.objects)}
    images = []
    for m, src, dst in d.index.arrows():
        table, where = d.map_of(m), {y: q for q, y in enumerate(d.carriers[dst])}
        image = [where.get(table[x], -1) if x in table else -1 for x in d.carriers[src]]
        images.append((m, position[src], position[dst], np.array(image, dtype=np.intp)))
    return images


def check_cone(cone: Cone, d: Diagram) -> ValidationReport:
    """Verify every triangle over a diagram arrow commutes, reading a label
    only to name it.  A legs table that does not fit the diagram (its shape,
    or a position outside its carrier) is reported as ``cone.structure``."""
    report = ValidationReport()
    objects, legs, apex = list(d.index.objects), cone.legs, cone.apex
    if not isinstance(legs, np.ndarray) or legs.dtype.kind not in "iu" or legs.shape != (len(apex), len(objects)):
        report.add("cone.structure", f"legs are not a {len(apex)} x {len(objects)} table of carrier positions")
        return report
    for i, o in enumerate(objects):
        for r in np.flatnonzero((legs[:, i] < 0) | (legs[:, i] >= len(d.carriers[o]))):
            report.add("cone.structure", f"leg at {o!r} sends {apex[r]!r} to position {legs[r, i]}, off its carrier")
    if not report.ok:
        return report
    for m, src, dst, image in _arrow_images(d):
        s, t = objects[src], objects[dst]
        for r in np.flatnonzero(image[legs[:, src]] != legs[:, dst]):
            if d.carriers[s][legs[r, src]] not in d.map_of(m):
                report.add("cone.triangle", f"D({m!r}) undefined on leg({s!r}) at apex element {apex[r]!r}")
            else:
                report.add("cone.triangle", f"leg({t!r}) != D({m!r}) o leg({s!r}) at apex element {apex[r]!r}")
    return report


def solve_constraints(sizes: list, arrows: list, limit: int | None = None) -> list[tuple]:
    """Every choice of one position per variable that satisfies all arrows.

    Variable ``i`` takes the positions ``range(sizes[i])``, tried in order,
    and variables are assigned in index order, so the assignments come out
    in depth-first order.  An arrow ``(src, dst, image)`` requires
    ``image[value[src]] == value[dst]``; an entry -1 matches no position.
    Forward checking prunes the positions of the later variables linked to
    each assignment and skips a position that empties one, which drops
    only subtrees without solutions: the output is plain backtracking's,
    in its order.  The search stops once ``limit`` assignments are found
    (never before the first).
    """
    n = len(sizes)
    doms = [range(size) for size in sizes]
    # links[i]: (later variable, image, whether it is the arrow's target)
    links: list[list] = [[] for _ in range(n)]
    for src, dst, image in arrows:
        if src == dst:
            doms[src] = [x for x in doms[src] if image[x] == x]
        elif src < dst:
            links[src].append((dst, image, True))
        else:
            links[dst].append((src, image, False))

    solutions: list[tuple] = []
    partial: list = [None] * n

    def extend(i: int) -> bool:
        if i == n:
            solutions.append(tuple(partial))
            return limit is not None and len(solutions) >= limit
        for x in doms[i]:
            saved = []
            for j, image, to_target in links[i]:
                saved.append((j, doms[j]))
                if to_target:
                    y = image[x]
                    doms[j] = [z for z in doms[j] if y == z]
                else:
                    doms[j] = [z for z in doms[j] if image[z] == x]
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


def limit_of_diagram(d: Diagram) -> Cone:
    """Limit cone: apex = compatible families, legs = component projections.

    Families are label tuples ordered like ``d.index.objects``, found by
    ``solve_constraints`` over carrier positions, one variable per object in
    object order and one constraint per non-identity arrow image, in the
    depth-first order of plain backtracking.  An empty apex is valid.
    """
    carriers = [d.carriers[o] for o in d.index.objects]
    # as lists: the search reads them one entry at a time, where a numpy scalar is slower
    arrows = [(src, dst, image.tolist()) for _, src, dst, image in _arrow_images(d)]
    rows = solve_constraints(list(map(len, carriers)), arrows)
    apex = [tuple(map(operator.getitem, carriers, row)) for row in rows]
    return Cone(apex=apex, legs=np.array(rows, dtype=np.intp).reshape(len(rows), len(carriers)))


def one_point_cone_tuple(d: Diagram) -> Cone:
    """The cone whose apex is every cone with apex {0}, each given as its
    carrier positions ordered like ``d.index.objects``, in
    ``itertools.product`` order; its legs are those rows.

    An ordered join: the objects are added in index order, and after each
    one the rows on which an arrow whose later end it is disagrees are
    dropped, so every prefix kept passes the arrows among its objects.
    Refuses (CapExceeded) a step whose rows times the next carrier would
    pass ``SEARCH_CAP``, before forming it."""
    sizes = [len(d.carriers[o]) for o in d.index.objects]
    images = _arrow_images(d)
    dtype = np.min_scalar_type(max(sizes, default=0))
    rows = np.zeros((1, 0), dtype=dtype)
    for j, n in enumerate(sizes):
        if len(rows) * n > SEARCH_CAP:
            raise CapExceeded("cone enumeration at apex size 1", len(rows) * n, SEARCH_CAP)
        grown = np.empty((len(rows), n, j + 1), dtype=dtype)
        grown[:, :, :j] = rows[:, None]
        grown[:, :, j] = np.arange(n)
        rows = grown.reshape(-1, j + 1)
        for _, src, dst, image in images:
            if max(src, dst) == j:
                rows = rows[image[rows[:, src]] == rows[:, dst]]
    return Cone(apex=list(map(tuple, rows.tolist())), legs=rows)


def enumerate_cones(d: Diagram, max_apex_size: int) -> list[Cone]:
    """All cones with abstract apex {0..k-1}, k <= max_apex_size.

    A k-cone's legs at each apex element form a one-point cone, so the
    k-cones are the k-tuples of one-point rows, in the order of a raw scan
    over the objects' leg tuples.  Refuses (CapExceeded) when a step of the
    one-point join, or the k-tuples at some k, would pass ``SEARCH_CAP``.
    """
    n = len(d.index.objects)
    points = one_point_cone_tuple(d).apex if max_apex_size > 0 else []
    cones = []
    for k in range(max_apex_size + 1):
        if len(points) ** k > SEARCH_CAP:
            raise CapExceeded(f"cone enumeration at apex size {k}", len(points) ** k, SEARCH_CAP)
        apex = list(range(k))
        for t in sorted(itertools.product(points, repeat=k), key=lambda t: list(zip(*t))):
            cones.append(Cone(apex=apex, legs=np.array(t, dtype=np.intp).reshape(k, n)))
    return cones


def check_universal_property(candidate: Cone, d: Diagram, cones: list[Cone]) -> bool:
    """Universality: exactly one mediating map into the candidate per listed cone.

    A map h from a cone's apex to the candidate's mediates iff, at each
    apex element a alone, the candidate's legs at h(a) equal the cone's
    legs at a.  So there is exactly one iff each apex element's leg row is
    that of exactly one candidate element, counted once; an empty apex has
    one map, the empty one.  Each row is read as one opaque key, a view of
    its positions: one sort counts the candidate's keys, and a binary
    search finds each cone row's count.
    """
    width = candidate.legs.shape[1]
    if not width:  # no object: every row is the empty row
        return len(candidate.legs) == 1 or not any(len(cone.legs) for cone in cones)
    key = np.dtype((np.void, width * np.dtype(np.intp).itemsize))
    own, *rows = (np.ascontiguousarray(t, dtype=np.intp).view(key).ravel()
                  for t in [candidate.legs] + [cone.legs for cone in cones])
    values, counts = np.unique(own, return_counts=True)
    rows = np.concatenate(rows + [values[:0]])
    at = np.searchsorted(values, rows)
    if np.any(at == len(values)):
        return False
    return bool(np.all((values[at] == rows) & (counts[at] == 1)))


# ---------------------------------------------------------------------------
# serialization


def category_from_json(data) -> FinCategory:
    objects = labels(member(data, "objects", "category"), "objects")
    homs = {}
    for h in array(member(data, "homs", "category"), "homs"):
        src, dst = labels([member(h, "src", "hom"), member(h, "dst", "hom")], "hom ends")
        homs[(src, dst)] = labels(member(h, "morphisms", "hom"), f"morphisms of ({src},{dst})")
    identities = label_table(member(data, "identities", "category"), "identities")
    triples = array(member(data, "compose", "category"), "compose")
    if any(len(array(t, "compose entry")) != 3 for t in triples):
        raise InputError(f"compose entries must be triples [g, f, gf], got {triples!r}")
    labels([x for t in triples for x in t[:2]], "composed pairs")
    compose = {(g, f): gf for g, f, gf in triples}
    labels(list(compose.values()), "composites")
    return FinCategory(objects, homs, compose, identities)


def functor_from_json(data) -> Functor:
    return Functor(
        source=category_from_json(member(data, "source", "functor")),
        target=category_from_json(member(data, "target", "functor")),
        object_map=label_table(member(data, "object_map", "functor"), "object map"),
        morphism_map=label_table(member(data, "morphism_map", "functor"), "morphism map"),
    )


def diagram_from_json(data) -> Diagram:
    index = category_from_json(member(data, "index", "diagram"))
    carriers = {o: labels(xs, f"carrier of {o!r}")
                for o, xs in members(member(data, "carriers", "diagram"), "diagram carriers").items()}
    maps = {m: label_table(t, f"map of {m!r}")
            for m, t in members(member(data, "maps", "diagram"), "diagram maps").items()}
    ends = index.morphisms()
    for m, src in ((m, ends[m][0]) for m in maps if m in ends):
        for x in carriers.get(src, ()):
            if not isinstance(x, str):
                raise InputError(f"map of {shown(m)} has string keys, but carrier of {shown(src)} holds {shown(x)}")
    return Diagram(index, carriers, maps)


def category_to_dot(c: FinCategory, name: str = "category") -> str:
    """DOT digraph of the category; identity arrows are omitted."""
    lines = [f"digraph {json.dumps(name)} {{"]
    for o in c.objects:
        lines.append(f"  {json.dumps(str(o))};")
    for m, src, dst in c.arrows():
        lines.append(f"  {json.dumps(str(src))} -> {json.dumps(str(dst))} [label={json.dumps(str(m))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
