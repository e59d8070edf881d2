"""Finite-dimensional matrix *-algebras and their measurement contexts.

An algebra is a unital, adjoint- and product-closed span of d x d complex
matrices.  Commutative algebras expose their character space (minimal
projections with eigenvalue functionals), context families are generated
from seed observables by commutation cliques, and projection lists split
into Boolean blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .fincat import FinCategory, poset_category
from .linalg import (
    CHARACTER_FLOOR,
    DEFAULT_TOL,
    RANK_FLOOR,
    as_matrix,
    commutator,
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
    spectral_tol,
)
from .validation import ValidationReport

DIM_CAP = 16
# Random diagonalizing combinations tried before the exact refinement sweep.
SPECTRUM_RETRIES = 3


@dataclass
class MatrixStarAlgebra:
    """A *-closed unital span of d x d complex matrices.

    ``basis`` is linearly independent (orthonormal in Frobenius norm when
    produced by this module); the span, not the individual basis matrices,
    is what carries the algebraic structure.  ``ortho`` is the span as
    ``linalg`` rows: kept from construction, or made once from ``basis``.
    """

    dim: int
    basis: list
    tol: float = DEFAULT_TOL
    _ortho: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def from_rows(cls, d: int, rows: np.ndarray, tol: float = DEFAULT_TOL) -> "MatrixStarAlgebra":
        """The algebra whose basis is the given Frobenius-orthonormal rows."""
        return cls(d, list(rows.reshape(-1, d, d)), tol, rows)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def ortho(self) -> np.ndarray:
        if self._ortho is None:
            self._ortho = orthonormalize_span(self.basis, self.tol)
        return self._ortho

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def contains(self, m) -> bool:
        return span_leq(as_matrix(m, self.dim).reshape(1, -1), self.ortho, self.tol)

    def validate(self) -> ValidationReport:
        """Check unitality and closure under adjoint and product."""
        report = ValidationReport()
        if not self.contains(self.identity):
            report.add("algebra.unit", "identity matrix not in span")
        for i, a in enumerate(self.basis):
            if not self.contains(dagger(a)):
                report.add("algebra.adjoint", f"adjoint of basis element {i} leaves span")
            for j, b in enumerate(self.basis):
                if not self.contains(a @ b):
                    report.add("algebra.product", f"product of basis elements ({i},{j}) leaves span")
        return report


def trivial_algebra(d: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    return MatrixStarAlgebra.from_rows(d, (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(1, -1), tol)


def full_matrix_algebra(d: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """All d x d matrices, with the matrix units as orthonormal basis."""
    return MatrixStarAlgebra.from_rows(d, np.eye(d * d, dtype=complex), tol)


def algebra_span_equal(a: MatrixStarAlgebra, b: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> bool:
    return a.dim == b.dim and spans_equal(a.ortho, b.ortho, tol)


def algebra_span_leq(sub: MatrixStarAlgebra, sup: MatrixStarAlgebra, tol: float = DEFAULT_TOL) -> bool:
    return sub.dim == sup.dim and span_leq(sub.ortho, sup.ortho, tol)


def _batched_products(rows: np.ndarray, d: int) -> np.ndarray:
    """All pairwise products a @ b of the rows' matrices, as rows, in chunks."""
    n = len(rows)
    stack = rows.reshape(n, d, d)
    chunk = max(1, 4_000_000 // max(1, n * d * d))
    return np.concatenate([
        np.einsum("aij,bjk->abik", stack[i : i + chunk], stack).reshape(-1, d * d) for i in range(0, n, chunk)
    ])


def generate_algebra(
    generators: list,
    d: int,
    tol: float = DEFAULT_TOL,
    dim_cap: int = DIM_CAP,
) -> MatrixStarAlgebra:
    """Smallest *-closed unital span containing the generators.

    Closure by iterated pairwise products with rank-revealing span
    reduction after each round, until the dimension stabilizes.
    """
    if d > dim_cap:
        raise InputError(f"matrix dimension {d} exceeds cap {dim_cap}")
    mats = [np.eye(d, dtype=complex)]
    for g in generators:
        gm = as_matrix(g, d)
        mats.append(gm)
        mats.append(dagger(gm))
    rows = orthonormalize_span(mats, tol)
    for _ in range(2 * d * d + 2):
        if len(rows) == d * d:
            break
        enlarged = orthonormalize_span(np.concatenate([rows, _batched_products(rows, d)]), tol)
        if len(enlarged) == len(rows):
            rows = enlarged
            break
        rows = enlarged
    return MatrixStarAlgebra.from_rows(d, rows, tol)


def is_commutative(a: MatrixStarAlgebra) -> bool:
    """All pairwise basis commutators vanish within tolerance (operator norm)."""
    n = a.dimension
    for i in range(n):
        for j in range(i + 1, n):
            c = commutator(a.basis[i], a.basis[j])
            # Frobenius norm dominates the operator norm: cheap accept first.
            if np.linalg.norm(c) <= a.tol:
                continue
            if opnorm(c) > a.tol:
                return False
    return True


# ---------------------------------------------------------------------------
# Gel'fand spectrum


@dataclass
class Character:
    """A point of the character space: minimal projection plus eigenvalues.

    ``values[i]`` is the scalar by which ``basis[i]`` acts on the
    projection's range; ``value_of`` extends that to any algebra element.
    """

    projection: np.ndarray
    values: np.ndarray
    rank: int

    def value_of(self, m) -> complex:
        return complex(np.trace(self.projection @ np.asarray(m, dtype=complex)) / self.rank)


def _selfadjoint_spanning(stack: np.ndarray) -> tuple:
    """The self-adjoint and the anti-self-adjoint part of each basis matrix,
    in order h0, k0, h1, k1, ..., without the parts of norm below the rank
    floor; and each basis matrix's scale ``max(1, ‖b‖)``.  One batched SVD
    gives all the norms."""
    n = len(stack)
    adj = stack.conj().transpose(0, 2, 1)
    parts = np.stack([(stack + adj) / 2.0, (stack - adj) / 2.0j], axis=1).reshape(-1, *stack.shape[1:])
    norms = opnorms(np.concatenate([stack, parts]))
    return list(parts[norms[n:] > RANK_FLOOR]), np.maximum(1.0, norms[:n])


def _cluster(values: np.ndarray, tol: float) -> list:
    """Group sorted real values whose gaps stay below ``spectral_tol(tol)``
    times the larger of 1 and the largest magnitude."""
    order = np.argsort(values)
    scale = max(1.0, float(np.abs(values).max())) if values.size else 1.0
    gap = spectral_tol(tol) * scale
    groups = [[order[0]]] if values.size else []
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def _blocks_from_vectors(h: np.ndarray, isometry: np.ndarray, tol: float) -> list:
    """Split an invariant subspace (columns of ``isometry``) by eigenvalue of h."""
    compressed = dagger(isometry) @ h @ isometry
    w, vecs = np.linalg.eigh((compressed + dagger(compressed)) / 2.0)
    return [isometry @ vecs[:, group] for group in _cluster(w, tol)]


def _characters(blocks: list, stack: np.ndarray, scales: np.ndarray, tol: float) -> list | None:
    """The blocks as characters, or None unless every basis matrix b acts
    on every block's range as the scalar ``val = tr(p b) / rank``:
    ``‖p b p - val p‖ <= max(tol, CHARACTER_FLOOR) * scale``.  All (block, b) pairs
    are one batched residual, and the scalars are the character values."""
    projs = np.stack([iso @ dagger(iso) for iso in blocks])
    ranks = [iso.shape[1] for iso in blocks]
    pb = projs[:, None] @ stack
    vals = np.trace(pb, axis1=-2, axis2=-1) / np.array(ranks)[:, None]
    residual = pb @ projs[:, None] - vals[..., None, None] * projs[:, None]
    if np.any(opnorms(residual) > max(tol, CHARACTER_FLOOR) * scales):
        return None
    return [Character(projection=p, values=values, rank=r) for p, values, r in zip(projs, vals, ranks)]


def gelfand_spectrum(v: MatrixStarAlgebra, seed: int = 0) -> list:
    """Characters of a commutative algebra via simultaneous diagonalization.

    A random self-adjoint combination of the basis splits joint eigenspaces
    in one shot; residual degeneracy triggers fresh coefficients and finally
    an exact refinement sweep over the self-adjoint spanning set.  Output is
    sorted by rounded value vector, so fixed (algebra, seed) gives a fixed
    ordering.
    """
    if not is_commutative(v):
        raise DomainError("gelfand_spectrum requires a commutative algebra")
    d = v.dim
    stack = np.asarray(v.basis, dtype=complex).reshape(-1, d, d)
    herm, scales = _selfadjoint_spanning(stack)
    rng = np.random.default_rng(seed)

    chars = None
    for _ in range(SPECTRUM_RETRIES):
        coeffs = rng.standard_normal(len(herm))
        h = sum(c * s for c, s in zip(coeffs, herm)) if herm else np.zeros((d, d), dtype=complex)
        candidate = _blocks_from_vectors(h, np.eye(d, dtype=complex), v.tol)
        if len(candidate) == v.dimension:
            chars = _characters(candidate, stack, scales, v.tol)
            if chars is not None:
                break
    if chars is None:
        blocks = [np.eye(d, dtype=complex)]
        for s in herm:
            blocks = [sub for iso in blocks for sub in _blocks_from_vectors(s, iso, v.tol)]
        chars = _characters(blocks, stack, scales, v.tol)
        if chars is None:
            raise DomainError("simultaneous diagonalization failed to isolate characters")
        if len(chars) != v.dimension:
            raise DomainError(f"found {len(chars)} characters for an algebra of dimension {v.dimension}")

    chars.sort(key=lambda c: tuple(np.round(c.values.view(float), 8)))
    return chars


def dominating_projections(fine: list, coarse: list, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``hits[i, j]``: coarse character j's projection Q dominates fine
    character i's projection P, ``‖Q P - P‖ <= spectral_tol(tol)``.  All pairs
    are one batched residual over the stacked projections."""
    if not fine or not coarse:
        return np.zeros((len(fine), len(coarse)), dtype=bool)
    p = np.stack([chi.projection for chi in fine])[:, None]
    q = np.stack([chi.projection for chi in coarse])[None]
    return opnorms(q @ p - p) <= spectral_tol(tol)


def restriction_table(hits: np.ndarray) -> dict:
    """Fine character index -> index of its unique dominating coarse
    character, from ``dominating_projections``.  Refuses (DomainError) at
    the first fine character with no or several."""
    for count in hits.sum(axis=1).tolist():
        if count != 1:
            raise DomainError(f"character restriction ill-defined: {count} dominating projections")
    return dict(enumerate(hits.argmax(axis=1).tolist()))


def dominating_character_index(chi: Character, sub_spectrum: list, tol: float = DEFAULT_TOL) -> int:
    """Index of the unique coarser character whose projection dominates chi's."""
    return restriction_table(dominating_projections([chi], sub_spectrum, tol))[0]


# ---------------------------------------------------------------------------
# context categories


@dataclass
class ContextCategory:
    """A finite family of commutative subalgebras ordered by span inclusion."""

    ambient: MatrixStarAlgebra
    contexts: dict
    order: set
    generators: dict
    seed: int = 0
    _spectra: dict = field(default_factory=dict, repr=False, compare=False)

    def ids(self) -> list:
        return list(self.contexts.keys())

    def algebra(self, ctx_id: str) -> MatrixStarAlgebra:
        return self.contexts[ctx_id]

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.order

    def strict_pairs(self) -> list:
        """(sub, sup) pairs with sub strictly below sup, deterministic order."""
        ids = self.ids()
        return [(a, b) for a in ids for b in ids if a != b and (a, b) in self.order]

    def spectrum(self, ctx_id: str) -> list:
        if ctx_id not in self._spectra:
            self._spectra[ctx_id] = gelfand_spectrum(self.contexts[ctx_id], seed=self.seed)
        return self._spectra[ctx_id]

    def as_poset_category(self) -> FinCategory:
        return poset_category(self.ids(), self.leq)


def _commutation_cliques(mats: list, tol: float) -> list:
    """Maximal sets of pairwise-commuting matrices, as sorted index tuples."""
    if not mats:
        return []
    adjacent = [
        {j for j in range(len(mats)) if j != i and opnorm(commutator(mats[i], mats[j])) <= tol}
        for i in range(len(mats))
    ]
    cliques = []

    def bk(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        for vtx in sorted(p):
            bk(r | {vtx}, p & adjacent[vtx], x & adjacent[vtx])
            p = p - {vtx}
            x = x | {vtx}

    bk(set(), set(range(len(mats))), set())
    return sorted(cliques)


def _frame(alg: MatrixStarAlgebra) -> np.ndarray:
    """The SVD rows of an algebra's basis, which meets are computed in, so a
    meet's basis is a fixed function of the two bases."""
    return orthonormalize_span(alg.basis, alg.tol)


def _meet(d: int, frame_a: np.ndarray, frame_b: np.ndarray, tol: float) -> MatrixStarAlgebra:
    rows = intersect_spans(frame_a, frame_b, tol)
    return MatrixStarAlgebra.from_rows(d, rows, tol) if len(rows) else trivial_algebra(d, tol)


def intersect_algebras(
    a: MatrixStarAlgebra, b: MatrixStarAlgebra, tol: float = DEFAULT_TOL
) -> MatrixStarAlgebra:
    if a.dim != b.dim:
        raise InputError("cannot intersect algebras of different matrix dimension")
    return _meet(a.dim, _frame(a), _frame(b), tol)


def _assemble_context_category(
    ambient: MatrixStarAlgebra,
    group_algebras: list,
    group_generators: list,
    seed: int,
) -> ContextCategory:
    """Candidates in order: the groups' algebras V0, V1, ..., the nontrivial
    meets of each pair in pair order, then I.  A candidate spanning the same
    as an earlier kept one is dropped (a meet with a dropped group spans the
    same as an earlier meet).  One containment matrix decides both that and
    the order."""
    tol = ambient.tol
    n = len(group_algebras)
    names = [f"V{i}" for i in range(n)]
    algebras = list(group_algebras)
    frames = [_frame(alg) for alg in group_algebras]
    for i, j in itertools.combinations(range(n), 2):
        meet = _meet(ambient.dim, frames[i], frames[j], tol)
        if meet.dimension > 1:
            names.append(f"V{i}^V{j}")
            algebras.append(meet)
    names.append("I")
    algebras.append(trivial_algebra(ambient.dim, tol))

    spans = [alg.ortho for alg in algebras]
    leq = span_containment(spans, tol)
    kept = []
    for k, span in enumerate(spans):
        if not any(len(span) == len(spans[m]) and leq[k, m] and leq[m, k] for m in kept):
            kept.append(k)
    contexts = {names[k]: algebras[k] for k in kept}
    generators = {names[k]: group_generators[k] if k < n else [] for k in kept}
    order = {(names[a], names[b]) for a in kept for b in kept if a != b and leq[a, b]}
    return ContextCategory(ambient, contexts, order, generators, seed=seed)


def context_category(
    ambient: MatrixStarAlgebra, seeds: list, seed: int = 0
) -> ContextCategory:
    """Contexts generated by the maximal pairwise-commuting subsets of seeds.

    Pairwise intersections of the maximal contexts and the trivial span of
    the identity are included; the order is span containment.
    """
    tol = ambient.tol
    mats = [as_matrix(s, ambient.dim) for s in seeds]
    for k, m in enumerate(mats):
        if not is_selfadjoint(m, tol):
            raise DomainError(f"seed {k} is not self-adjoint")
        if not ambient.contains(m):
            raise DomainError(f"seed {k} lies outside the ambient algebra")
    cliques = _commutation_cliques(mats, tol)
    algebras = [generate_algebra([mats[i] for i in clique], ambient.dim, tol) for clique in cliques]
    return _assemble_context_category(ambient, algebras, [list(c) for c in cliques], seed)


def context_category_from_groups(
    ambient: MatrixStarAlgebra, groups: list, seed: int = 0
) -> ContextCategory:
    """Contexts generated from explicit seed groups (one context per group)."""
    tol = ambient.tol
    algebras = []
    for k, group in enumerate(groups):
        mats = [as_matrix(g, ambient.dim) for g in group]
        for m in mats:
            if not ambient.contains(m):
                raise DomainError(f"group {k} contains a matrix outside the ambient algebra")
        alg = generate_algebra(mats, ambient.dim, tol)
        if not is_commutative(alg):
            raise DomainError(f"group {k} does not generate a commutative algebra")
        algebras.append(alg)
    return _assemble_context_category(ambient, algebras, [[] for _ in groups], seed)


# ---------------------------------------------------------------------------
# Boolean blocks of projection families


@dataclass
class BooleanBlock:
    """A maximal commuting family of projections closed under complement and meet."""

    members: list
    atoms: list
    elements: list

    def meet(self, a, b):
        return a @ b

    def join(self, a, b):
        return a + b - a @ b

    def complement(self, a):
        d = a.shape[0]
        return np.eye(d, dtype=complex) - a


def boolean_blocks(
    projections: list, tol: float = DEFAULT_TOL, max_atoms: int = 12
) -> list:
    """Split projections into Boolean blocks along commutation cliques.

    Each block is generated by its clique: atoms are the nonzero products
    of each projection or its complement, elements are all atom subset sums.
    """
    mats = [as_matrix(p) for p in projections]
    for k, m in enumerate(mats):
        if not is_projection(m, spectral_tol(tol)):
            raise DomainError(f"input {k} is not a projection")
    if not mats:
        return []
    d = mats[0].shape[0]
    if any(m.shape[0] != d for m in mats):
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
        elements = [
            sum((atom for take, atom in zip(bits, atoms) if take), np.zeros((d, d), dtype=complex))
            for bits in itertools.product((0, 1), repeat=len(atoms))
        ]
        blocks.append(BooleanBlock(members=[mats[i] for i in clique], atoms=atoms, elements=elements))
    return blocks
