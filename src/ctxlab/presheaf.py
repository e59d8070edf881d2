"""Spectral presheaves, valuation search, daseinisation, finite frames.

The presheaf assigns each context its character space with restriction
along inclusions; a global section is a context-consistent valuation, and
an empty section list certifies the obstruction to such valuations for
the given family.  Projections and self-adjoint operators outside a
context are approximated from outside and inside (daseinisation), giving
interval-valued readings per character.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, InputError
from .fincat import solve_constraints
from .linalg import (
    DEFAULT_TOL, INTERVAL_SLACK, SPECTRAL_FLOOR, as_matrix, dagger, is_projection, is_selfadjoint, opnorm, spectral_tol,
)
from .staralg import (
    Character,
    ContextCategory,
    MatrixStarAlgebra,
    _cluster,
    context_category_from_groups,
    dominating_projections,
    full_matrix_algebra,
    gelfand_spectrum,
    restriction_table,
)
from .validation import ValidationReport


# ---------------------------------------------------------------------------
# the spectral presheaf


@dataclass
class SpectralPresheaf:
    """Fibers of characters over a context category, with restrictions.

    ``restrictions[(sub, sup)]`` maps a character index of the finer context
    ``sup`` to the index of its restriction in ``sub``.
    """

    base: ContextCategory
    fibers: dict
    restrictions: dict

    def restrict(self, sup: str, sub: str, char_index: int) -> int:
        if sub == sup:
            return char_index
        return self.restrictions[(sub, sup)][char_index]


@dataclass
class GlobalSection:
    """A choice of one character per context, consistent under restriction."""

    assignment: dict


def build_spectral_presheaf(cc: ContextCategory) -> SpectralPresheaf:
    """Fibers are the context spectra; restriction is projection dominance.

    Each finer context's characters are tested against the characters of
    all the contexts below it in one batched residual; the tables are then
    read, and refused, in ``strict_pairs`` order.
    """
    fibers = cc.spectra()
    pairs = cc.strict_pairs()
    below: dict = {}
    for sub, sup in pairs:
        below.setdefault(sup, []).append(sub)
    hits = {}
    for sup, subs in below.items():
        columns = dominating_projections(fibers[sup], [chi for sub in subs for chi in fibers[sub]], cc.ambient.tol)
        bounds = np.cumsum([0] + [len(fibers[sub]) for sub in subs])
        for sub, lo, hi in zip(subs, bounds[:-1], bounds[1:]):
            hits[(sub, sup)] = columns[:, lo:hi]
    restrictions = {pair: restriction_table(hits[pair]) for pair in pairs}
    return SpectralPresheaf(cc, fibers, restrictions)


def check_presheaf(p: SpectralPresheaf) -> ValidationReport:
    """Contravariant functor laws: restrictions compose along nested chains."""
    report = ValidationReport()
    ids = p.base.ids()
    for a, b in p.base.strict_pairs():
        for c in ids:
            if c in (a, b) or not p.base.leq(b, c):
                continue
            for i in range(len(p.fibers[c])):
                if p.restrict(b, a, p.restrict(c, b, i)) != p.restrict(c, a, i):
                    report.add("presheaf.compose", f"chain {a} <= {b} <= {c}: character {i} restricts inconsistently")
    return report


def global_sections(p: SpectralPresheaf, limit: int | None = None) -> list:
    """Context-consistent character choices, by ``fincat.solve_constraints``.

    Contexts are assigned most-constrained first (by comparability degree,
    ties by id), characters in index order.  Forward checking through the
    restriction tables prunes the later contexts' fibers, and the sections
    come out in the same order as plain backtracking, so the first ``limit``
    are the same.  An empty result certifies the obstruction for this
    family.
    """
    ids = p.base.ids()
    degree = {cid: 0 for cid in ids}
    for sub, sup in p.base.strict_pairs():
        degree[sub] += 1
        degree[sup] += 1
    order = sorted(ids, key=lambda cid: (-degree[cid], cid))
    position = {cid: i for i, cid in enumerate(order)}
    arrows = [
        (position[sup], position[sub], p.restrictions[(sub, sup)])
        for sub, sup in p.base.strict_pairs()
    ]
    domains = [range(len(p.fibers[cid])) for cid in order]
    return [
        GlobalSection({cid: choice[position[cid]] for cid in ids})
        for choice in solve_constraints(domains, arrows, limit)
    ]


# ---------------------------------------------------------------------------
# daseinisation


def _daseinise(p, v: MatrixStarAlgebra, spectrum: list | None, outer: bool) -> np.ndarray:
    """Both daseinisations: the sum of the context's minimal projections P
    that overlap ``p`` (outer) or lie below it (inner), verified spectrally."""
    name = "outer" if outer else "inner"
    pm = as_matrix(p, v.dim)
    tol = spectral_tol(v.tol)
    if not is_projection(pm, tol):
        raise DomainError(f"{name}_daseinisation expects a projection")
    q = np.zeros((v.dim, v.dim), dtype=complex)
    for chi in spectrum if spectrum is not None else gelfand_spectrum(v):
        if outer:
            keep = opnorm(chi.projection @ pm) > tol
        else:
            keep = opnorm(chi.projection @ pm - chi.projection) <= tol
        if keep:
            q = q + chi.projection
    gap = q - pm if outer else pm - q
    if np.linalg.eigvalsh((gap + dagger(gap)) / 2.0).min() < -SPECTRAL_FLOOR:
        failure = "dominate the input" if outer else "stay below the input"
        raise DomainError(f"{name} daseinisation failed to {failure}")
    return q


def outer_daseinisation(p, v: MatrixStarAlgebra, spectrum: list | None = None) -> np.ndarray:
    """Smallest projection of the context dominating ``p``.

    Sum of the minimal projections with nonzero overlap; the result is
    verified to dominate ``p`` spectrally.
    """
    return _daseinise(p, v, spectrum, outer=True)


def inner_daseinisation(p, v: MatrixStarAlgebra, spectrum: list | None = None) -> np.ndarray:
    """Largest projection of the context dominated by ``p``."""
    return _daseinise(p, v, spectrum, outer=False)


def _spectral_steps(a: np.ndarray, tol: float) -> list:
    """(eigenvalue, cumulative spectral projection) pairs, ascending; the
    eigenvalues are grouped as characters are (``staralg._cluster``)."""
    w, vecs = np.linalg.eigh(a)
    steps = []
    cum = np.zeros_like(a)
    for group in _cluster(w, tol):
        block = vecs[:, group]
        cum = cum + block @ dagger(block)
        steps.append((float(w[group].mean()), cum.copy()))
    return steps


def operator_interval(a, v: MatrixStarAlgebra, chi: Character, spectrum: list | None = None) -> tuple:
    """Interval [inner reading, outer reading] of ``a`` at a character.

    The spectral family of ``a`` is daseinised step by step (inner for the
    outer operator approximation, outer for the inner), the step operators
    are rebuilt, and the character is evaluated on both.  Endpoints lie on
    the eigenvalue grid of ``a`` and satisfy lo <= hi.
    """
    am = as_matrix(a, v.dim)
    if not is_selfadjoint(am, spectral_tol(v.tol)):
        raise DomainError("operator_interval expects a self-adjoint matrix")
    chars = spectrum if spectrum is not None else gelfand_spectrum(v)
    steps = _spectral_steps(am, v.tol)

    def rebuild(daseinise) -> np.ndarray:
        out = np.zeros((v.dim, v.dim), dtype=complex)
        prev = np.zeros((v.dim, v.dim), dtype=complex)
        for lam, cum in steps:
            approx = daseinise(cum)
            out = out + lam * (approx - prev)
            prev = approx
        return out

    outer_op = rebuild(lambda e: inner_daseinisation(e, v, chars))
    inner_op = rebuild(lambda e: outer_daseinisation(e, v, chars))
    lo = float(chi.value_of(inner_op).real)
    hi = float(chi.value_of(outer_op).real)
    if lo > hi + INTERVAL_SLACK:
        raise DomainError(f"interval endpoints out of order: {lo} > {hi}")
    return min(lo, hi), hi


# ---------------------------------------------------------------------------
# finite frames


@dataclass
class FiniteFrame:
    """A finite lattice with all meets and joins, top and bottom.

    Meet must distribute over join (checked by ``check_frame``), which at
    finite scale is exactly the frame law.
    """

    elements: list
    leq: set
    top: object
    bottom: object
    meets: dict
    joins: dict

    @staticmethod
    def from_leq(elements: list, leq_pairs) -> "FiniteFrame":
        elements = list(elements)
        leq = {(a, b) for (a, b) in leq_pairs} | {(a, a) for a in elements}

        def below(a, b):
            return (a, b) in leq

        def pick_extreme(candidates, further):
            best = [c for c in candidates if all(further(c, o) for o in candidates)]
            if len(best) != 1:
                return None
            return best[0]

        tops = pick_extreme(elements, lambda c, o: below(o, c))
        bottoms = pick_extreme(elements, lambda c, o: below(c, o))
        if tops is None or bottoms is None:
            raise InputError("poset has no unique top or bottom")
        meets = {}
        joins = {}
        for a, b in itertools.product(elements, repeat=2):
            lower = [c for c in elements if below(c, a) and below(c, b)]
            upper = [c for c in elements if below(a, c) and below(b, c)]
            m = pick_extreme(lower, lambda c, o: below(o, c))
            j = pick_extreme(upper, lambda c, o: below(c, o))
            if m is None or j is None:
                raise InputError(f"poset is not a lattice at pair ({a!r}, {b!r})")
            meets[(a, b)] = m
            joins[(a, b)] = j
        return FiniteFrame(elements, leq, tops, bottoms, meets, joins)

    def meet(self, a, b):
        return self.meets[(a, b)]

    def join(self, a, b):
        return self.joins[(a, b)]


def powerset_frame(base) -> FiniteFrame:
    base = list(base)
    elements = [frozenset(s) for r in range(len(base) + 1) for s in itertools.combinations(base, r)]
    leq = {(a, b) for a in elements for b in elements if a <= b}
    return FiniteFrame.from_leq(elements, leq)


def check_frame(f: FiniteFrame) -> ValidationReport:
    """Lattice laws plus distributivity of meet over join, exhaustively."""
    report = ValidationReport()
    for a, b, c in itertools.product(f.elements, repeat=3):
        left = f.meet(a, f.join(b, c))
        right = f.join(f.meet(a, b), f.meet(a, c))
        if left != right:
            report.add("frame.distributivity", f"a={a!r} b={b!r} c={c!r}")
    return report


@dataclass
class FrameMap:
    source: FiniteFrame
    target: FiniteFrame
    mapping: dict


def preimage_frame_map(func: dict, source_base, target_base) -> FrameMap:
    """Preimage map of a function between finite sets, on powerset frames.

    ``func`` maps source-base points to target-base points; the frame map
    runs from the target powerset to the source powerset.
    """
    src_frame = powerset_frame(target_base)
    dst_frame = powerset_frame(source_base)
    mapping = {
        s: frozenset(x for x in source_base if func[x] in s) for s in src_frame.elements
    }
    return FrameMap(src_frame, dst_frame, mapping)


def check_frame_hom(fm: FrameMap) -> ValidationReport:
    """Preservation of top, bottom, finite meets, and all joins.

    At finite scale arbitrary joins reduce to the empty join (bottom) plus
    binary joins, both checked exhaustively.
    """
    report = ValidationReport()
    for e in fm.source.elements:
        if e not in fm.mapping:
            report.add("framehom.structure", f"element {e!r} unmapped")
        elif fm.mapping[e] not in fm.target.elements:
            report.add("framehom.structure", f"image of {e!r} is outside the target")
    if not report.ok:
        return report
    if fm.mapping[fm.source.top] != fm.target.top:
        report.add("framehom.top", "top not preserved")
    if fm.mapping[fm.source.bottom] != fm.target.bottom:
        report.add("framehom.bottom", "bottom not preserved")
    for a, b in itertools.product(fm.source.elements, repeat=2):
        if fm.mapping[fm.source.meet(a, b)] != fm.target.meet(fm.mapping[a], fm.mapping[b]):
            report.add("framehom.meet", f"meet of ({a!r}, {b!r}) not preserved")
        if fm.mapping[fm.source.join(a, b)] != fm.target.join(fm.mapping[a], fm.mapping[b]):
            report.add("framehom.join", f"join of ({a!r}, {b!r}) not preserved")
    return report


# ---------------------------------------------------------------------------
# ray-family fixtures


def rays_to_projectors(basis_vectors: list) -> list:
    """Rank-1 projectors of a list of (unnormalized) vectors."""
    projs = []
    for v in basis_vectors:
        vec = np.asarray(v, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise InputError("zero vector in ray fixture")
        vec = vec / norm
        projs.append(np.outer(vec, vec.conj()))
    return projs


def load_ray_fixture(data: dict) -> tuple:
    """Parse a ray-family fixture: {'dim': d, 'bases': [[vector, ...], ...]}.

    The dimension is a whole number and coordinates are finite numbers.
    Python takes JSON ``true`` and ``false`` for 1 and 0, and reads NaN and
    +-Infinity; such a coordinate is refused (InputError) with its basis
    and vector.
    """
    try:
        dim = data["dim"]
        if isinstance(dim, bool) or int(dim) != dim:
            raise InputError(f"ray fixture dimension {dim!r} is not a whole number")
        dim = int(dim)
        raw = [list(basis) for basis in data["bases"]]
        bases = [[np.asarray(v, dtype=float) for v in basis] for basis in raw]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed ray fixture: {exc}") from exc
    for b, basis in enumerate(bases):
        for k, v in enumerate(basis):
            if v.shape != (dim,):
                raise InputError(f"ray of shape {v.shape} in dimension-{dim} fixture")
            if any(isinstance(x, bool) for x in raw[b][k]):
                raise InputError(f"basis {b}, vector {k} of the ray fixture has a boolean coordinate: {raw[b][k]!r}")
            if not np.all(np.isfinite(v)):
                raise InputError(f"basis {b}, vector {k} of the ray fixture has a non-finite coordinate: {raw[b][k]!r}")
    return dim, bases


def ray_family_context_category(dim: int, bases: list, tol: float = DEFAULT_TOL, seed: int = 0) -> ContextCategory:
    """One maximal context per basis of rays, plus intersections."""
    ambient = full_matrix_algebra(dim, tol)
    groups = [rays_to_projectors(basis) for basis in bases]
    return context_category_from_groups(ambient, groups, seed=seed)


def bundled_fixture(name: str) -> dict:
    """Load a fixture shipped with the package (e.g. 'cabello18.json')."""
    try:
        text = resources.files("ctxlab.data").joinpath(name).read_text()
    except FileNotFoundError as exc:
        raise InputError(f"no bundled fixture named {name!r}") from exc
    return json.loads(text)
