"""Finite-dimensional matrix *-algebras and their measurement contexts.

An algebra is a unital, adjoint- and product-closed span of d x d complex
matrices.  A commutative one is the span of its minimal projections, its
atoms, and these are its characters.  A context family is built from seed
observables by commutation cliques: each maximal context from the atoms
that its generators split the space into, and the meets, the order and
the restriction tables from one overlap matrix of those atoms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .linalg import (
    CHARACTER_FLOOR,
    DEFAULT_TOL,
    RANK_FLOOR,
    as_matrix,
    dagger,
    is_selfadjoint,
    opnorms,
    orthonormalize_span,
    span_leq,
    spans_equal,
    spectral_tol,
)

DIM_CAP = 16
# Draws of the fixed stream tried as splits before the exact refinement sweep.
SPECTRUM_RETRIES = 3
# Matrix entries of one batch of pair commutators.
COMMUTATOR_CHUNK = 1 << 16


class MatrixStarAlgebra:
    """A *-closed unital span of d x d complex matrices.

    ``basis`` is linearly independent (orthonormal in Frobenius norm when
    produced by this module); the span, not the individual basis matrices,
    is what carries the algebraic structure.  ``ortho`` is the span as
    ``linalg`` rows: made once from a given ``basis``, or, for an algebra
    built by ``from_rows``, those rows, with ``basis`` their views.  Such
    rows are built the first time ``ortho`` or ``basis`` is read;
    ``dimension`` and the tests that need no rows never build them.  An
    algebra built from atoms holds them as its characters; its spans are
    compared at ``span_tol``: ``spectral_tol``, for eigensolver error.
    """
    _characters = None  # the held characters of an algebra built from atoms

    def __init__(self, dim: int, basis: list, tol: float = DEFAULT_TOL):
        self.dim, self.tol = dim, tol
        self._basis, self._count = basis, len(basis)
        self._ortho = self._make_rows = None

    @classmethod
    def from_rows(cls, d: int, count: int, make_rows, tol: float = DEFAULT_TOL):
        """The algebra whose basis is the ``count`` Frobenius-orthonormal
        rows that ``make_rows()`` returns, called when they are first read:
        the one constructor from rows, for given rows ``lambda: rows``."""
        alg = cls.__new__(cls)
        alg.dim, alg.tol = d, tol
        alg._basis, alg._count, alg._ortho, alg._make_rows = None, count, None, make_rows
        return alg

    @property
    def dimension(self) -> int:
        return self._count

    @property
    def ortho(self) -> np.ndarray:
        if self._ortho is None:
            if self._make_rows is None:
                self._ortho = orthonormalize_span(self._basis, self.tol)
            else:
                self._ortho, self._make_rows = self._make_rows(), None
        return self._ortho

    @property
    def basis(self) -> list:
        if self._basis is None:
            self._basis = list(self.ortho.reshape(-1, self.dim, self.dim))
        return self._basis

    @property
    def span_tol(self) -> float:
        """The threshold at which a span is compared with this one."""
        return self.tol if self._characters is None else spectral_tol(self.tol)

    def contains(self, m) -> bool:
        """Whether a matrix, or every matrix of a stack ``(n, d, d)``, lies in the span."""
        m = np.asarray(m, dtype=complex)
        stack = m if m.ndim == 3 and m.shape[1:] == (self.dim, self.dim) else as_matrix(m, self.dim)[None]
        if self.dimension == self.dim * self.dim:  # the full matrix algebra holds every finite matrix
            return bool(np.all(np.isfinite(stack)))
        return span_leq(stack.reshape(len(stack), self.dim * self.dim), self.ortho, self.span_tol)


def full_matrix_algebra(d: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """All d x d matrices, with the matrix units as orthonormal basis, built
    when first read: as an ambient, only its ``dim`` and ``contains`` are."""
    return MatrixStarAlgebra.from_rows(d, d * d, lambda: np.eye(d * d, dtype=complex), tol)


def comparison_tol(a: MatrixStarAlgebra, b: MatrixStarAlgebra) -> float:
    """The threshold at which two algebras are compared: the larger ``span_tol``,
    since a residual between their rows carries the error of both."""
    return max(a.span_tol, b.span_tol)


def algebra_span_equal(a: MatrixStarAlgebra, b: MatrixStarAlgebra) -> bool:
    """Whether the two algebras span the same matrices, at ``comparison_tol``."""
    return a.dim == b.dim and spans_equal(a.ortho, b.ortho, comparison_tol(a, b))


def algebra_span_leq(sub: MatrixStarAlgebra, sup: MatrixStarAlgebra) -> bool:
    """Whether ``sub`` lies in the span of ``sup``, at ``comparison_tol``."""
    return sub.dim == sup.dim and span_leq(sub.ortho, sup.ortho, comparison_tol(sub, sup))


def check_dimension(d: int, cap: int = DIM_CAP) -> None:
    """Refuse (InputError) a matrix dimension above the cap."""
    if d > cap:
        raise InputError(f"matrix dimension {d} exceeds cap {cap}")


def generate_algebra(
    generators: list,
    d: int,
    tol: float = DEFAULT_TOL,
    dim_cap: int = DIM_CAP,
) -> MatrixStarAlgebra:
    """Smallest *-closed unital span containing the generators.

    Closure by iterated pairwise products with rank-revealing span
    reduction after each round, until the dimension stabilizes.  The rank
    test is relative, so each nonzero generator is scaled to unit norm.
    """
    check_dimension(d, dim_cap)
    mats = [np.eye(d, dtype=complex)]
    for g in generators:
        gm = as_matrix(g, d)
        norm = np.linalg.norm(gm)
        if norm > 0:
            mats += [gm / norm, dagger(gm) / norm]
    rows = orthonormalize_span(mats, tol)
    for _ in range(2 * d * d + 2):
        if len(rows) == d * d:
            break
        stack = rows.reshape(-1, d, d)
        products = (stack[:, None] @ stack).reshape(-1, d * d)
        enlarged = orthonormalize_span(np.concatenate([rows, products]), tol)
        if len(enlarged) == len(rows):
            rows = enlarged
            break
        rows = enlarged
    return MatrixStarAlgebra.from_rows(d, len(rows), lambda: rows, tol)


def _basis_stack(a: MatrixStarAlgebra) -> np.ndarray:
    return np.asarray(a.basis, dtype=complex).reshape(-1, a.dim, a.dim)


def commuting(a, b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``bool[len(a), len(b)]``: whether each pair ``(a[i], b[j])`` of two
    stacks of d x d matrices commutes, by its commutator's ``‖c‖_F <= tol``
    or ``‖c‖ <= tol`` (operator norm).  Commutators are formed in chunks of
    at most ``COMMUTATOR_CHUNK`` entries.  A batched Frobenius norm up to
    tol / 2 accepts at once, since the one-pair norm is then below tol
    whatever its rounding; the rest take the batched operator norms, and
    the one-pair Frobenius norm only where those refuse."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    left, right = np.indices((len(a), len(b))).reshape(2, -1)
    out = np.ones(len(left), dtype=bool)
    step = max(1, COMMUTATOR_CHUNK // a[0].size) if len(left) else 1
    for start in range(0, len(left), step):
        x, y = a[left[start : start + step]], b[right[start : start + step]]
        c = x @ y - y @ x
        accept = np.linalg.norm(c, axis=(-2, -1)) <= tol / 2
        rest = np.flatnonzero(~accept)
        if rest.size:
            accept[rest] = opnorms(c[rest]) <= tol
            for m in rest[~accept[rest]].tolist():
                accept[m] = np.linalg.norm(c[m]) <= tol
        out[start : start + step] = accept
    return out.reshape(len(a), len(b))


def is_commutative(a: MatrixStarAlgebra) -> bool:
    """Every basis pair commutes (``commuting``), decided row by row, so a
    non-commutative algebra is refused at its first failing row."""
    stack = _basis_stack(a)
    return all(commuting(stack[i : i + 1], stack[i + 1 :], a.tol).all() for i in range(len(stack)))


# ---------------------------------------------------------------------------
# atoms and the Gel'fand spectrum


@dataclass
class Character:
    """A point of the character space: a minimal projection and its rank.

    ``value_of`` is the scalar by which an element of the algebra acts on
    the projection's range.
    """

    projection: np.ndarray
    rank: int

    def value_of(self, m) -> complex:
        return complex(np.trace(self.projection @ np.asarray(m, dtype=complex)) / self.rank)


def _selfadjoint_spanning(stack: np.ndarray) -> tuple:
    """For a stack ``(n, d, d)``: the self-adjoint and the anti-self-adjoint
    part of each matrix, in order h0, k0, h1, k1, ...; the mask of the
    parts whose norm is above the rank floor; and each matrix's scale
    ``max(1, ‖b‖)``.  One batched SVD gives all the norms."""
    n, d = stack.shape[0], stack.shape[-1]
    adj = np.swapaxes(stack.conj(), -2, -1)
    parts = np.stack([(stack + adj) / 2.0, (stack - adj) / 2.0j], axis=1).reshape(2 * n, d, d)
    norms = opnorms(np.concatenate([stack, parts]))
    return parts, norms[n:] > RANK_FLOOR, np.maximum(1.0, norms[:n])


def _gap_groups(values: np.ndarray, tol: float, starts=None) -> tuple:
    """The grouping of eigenvalues and readings, within each run
    ``starts[k]:starts[k + 1]`` of ``values`` (by default one run of all):
    ``order``, the indices ascending by value within each run, exact ties
    in index order; and ``group``, the group number at each position of
    ``order``.  Neighbours share a group while their gap is at most
    ``spectral_tol(tol)`` times the larger of 1 and the run's largest magnitude."""
    starts = np.array([0, len(values)]) if starts is None else starts
    run = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    order = np.lexsort((values, run))
    gap = spectral_tol(tol) * np.maximum(1.0, np.maximum.reduceat(np.abs(values), starts[:-1]))
    ties = (np.diff(values[order]) <= gap[run[order]][1:]) & (np.diff(run[order]) == 0)
    return order, np.cumsum(np.concatenate([[True], ~ties]))


def _blocks_from_vectors(h: np.ndarray, isometry: np.ndarray, tol: float) -> list:
    """Split an invariant subspace (columns of ``isometry``) by eigenvalue of
    the matrix ``h``, grouped by ``_gap_groups``: the blocks, as isometries
    onto their ranges."""
    compressed = dagger(isometry) @ h @ isometry
    w, vecs = np.linalg.eigh((compressed + dagger(compressed)) / 2.0)
    order, group = _gap_groups(w, tol)
    return [isometry @ vecs[:, columns] for columns in np.split(order, np.flatnonzero(np.diff(group)) + 1)]


def _projections(isometries: list) -> np.ndarray:
    """``iso @ iso^H`` of each isometry, stacked: one batched product per
    rank, each bitwise the isometry's own product."""
    d, ranks = isometries[0].shape[0], [iso.shape[1] for iso in isometries]
    projs = np.empty((len(isometries), d, d), dtype=complex)
    for rank in set(ranks):
        at = [k for k, r in enumerate(ranks) if r == rank]
        v = np.stack([isometries[k] for k in at])
        projs[at] = v @ np.swapaxes(v.conj(), -2, -1)
    return projs


def _spans(split: list, stack: np.ndarray, scales: np.ndarray, tol: float) -> bool:
    """Whether every matrix b of the stack is the sum of the block
    projections p of the split (a list of isometries), each times its
    scalar ``tr(p b) / rank``, within the character bound
    ``max(tol, CHARACTER_FLOOR) * max(1, ‖b‖)`` (``scales``).  On each block
    this is the character relation ``p b p = val p``; off the blocks it asks
    that b leave every block's range invariant.  A residual whose Frobenius
    norm is at most half the bound passes whatever the rounding of its
    operator norm, which the Frobenius norm bounds; only the others take
    the SVD."""
    projs, ranks = _projections(split), np.array([iso.shape[1] for iso in split])
    vals = np.einsum("kij,nji->nk", projs, stack) / ranks
    residual = stack - np.einsum("nk,kij->nij", vals, projs)
    bound = max(tol, CHARACTER_FLOOR) * scales
    norms = np.linalg.norm(residual, axis=(-2, -1))
    unsure = ~(norms <= bound / 2)
    norms[unsure] = opnorms(residual[unsure])
    return bool(np.all(norms <= bound))


def _atoms(stack: np.ndarray, tol: float) -> list | None:
    """The atoms of the algebra that a stack of matrices generates, as
    isometries onto their ranges, or None when no split stands within the
    character bound of ``_spans``, commutative or not.

    A combination of the stack's self-adjoint parts, with coefficients from
    the fixed stream ``default_rng(0)``, splits the space by eigenvalue,
    grouped by ``_gap_groups``; the split stands when every matrix is the
    combination of its blocks.  A draw that merges two atoms fails that
    test, and the stream's next draw follows, ``SPECTRUM_RETRIES`` times;
    then the exact refinement sweep splits by each self-adjoint part.  Each
    call draws from a fresh stream, so a stack splits alike in every caller.
    """
    eye = np.eye(stack.shape[-1], dtype=complex)
    parts, keep, scales = _selfadjoint_spanning(stack)
    herm = parts[keep]
    rng = np.random.default_rng(0)
    for _ in range(SPECTRUM_RETRIES):
        split = _blocks_from_vectors(np.tensordot(rng.standard_normal(len(herm)), herm, axes=1), eye, tol)
        if _spans(split, stack, scales, tol):
            return split
    split = [eye]
    for s in herm:
        split = [sub for iso in split for sub in _blocks_from_vectors(s, iso, tol)]
    return split if _spans(split, stack, scales, tol) else None


@functools.cache
def _functionals(d: int) -> np.ndarray:
    """Two fixed generic Hermitian d x d matrices H, whose readings
    ``tr(p H) / rank`` order the atoms of every context.  They come from
    the legacy Mersenne Twister stream, which numpy keeps unchanged across
    versions, seeded by d alone: the order depends on no seed and no frame.
    Drawn once per d, and read-only."""
    z = np.random.RandomState(d).standard_normal((2, 2, d, d))
    h = z[:, 0] + 1j * z[:, 1]
    h = (h + np.swapaxes(h.conj(), -2, -1)) / 2.0
    h.flags.writeable = False
    return h


def _traces(projs: np.ndarray) -> np.ndarray:
    """``tr(p H)`` of each projection for both fixed H, as ``(2, count)``."""
    return np.einsum("kij,fji->fk", projs, _functionals(projs.shape[-1])).real


def _reading_order(readings: np.ndarray, tol: float, starts=None) -> np.ndarray:
    """Atom indices by their first reading, within each run
    ``starts[k]:starts[k + 1]`` of atoms (by default one run of all): first
    readings that ``_gap_groups`` groups are ties, ordered by the second."""
    first, second = readings
    order, group = _gap_groups(first, tol, starts)
    return order[np.lexsort((second[order], group))]


def _split(stack: np.ndarray, tol: float, refusal) -> list:
    """The atoms of a stack (``_atoms``), or a refusal (DomainError) when no
    split stands: of a stack that commutes (``commuting``), as a split that
    failed to isolate its characters, of any other by ``refusal``, which a
    caller whose stack commutes need not give."""
    atoms = _atoms(stack, tol)
    if atoms is None:
        commute = commuting(stack, stack, tol).all()
        raise DomainError("simultaneous diagonalization failed to isolate characters" if commute else refusal)
    return atoms


def gelfand_spectrum(v: MatrixStarAlgebra) -> list:
    """Characters of a commutative algebra in the fixed reading order: those
    it holds if built from atoms, else those of the ``context_algebra`` of
    its basis.  Refuses a non-commutative basis, a split that leaves some
    basis matrix no combination of the blocks (``_split``), and a count of
    atoms other than the dimension (a basis that is not product-closed)."""
    if v._characters is not None:
        return v._characters
    if not is_commutative(v):
        raise DomainError("gelfand_spectrum requires a commutative algebra")
    chars = context_algebra(_basis_stack(v), v.dim, v.tol)._characters
    if len(chars) != v.dimension:
        raise DomainError(f"found {len(chars)} characters for an algebra of dimension {v.dimension}")
    return chars


# ---------------------------------------------------------------------------
# context categories


@dataclass
class ContextCategory:
    """A finite family of commutative subalgebras ordered by inclusion.

    ``spectra[id]`` is the list of characters that the context holds, and
    ``restrictions[(sub, sup)]`` is the tuple of ``sub``'s character
    indices indexed by ``sup``'s: each character's restriction to ``sub``,
    for every strict pair.
    """

    ambient: MatrixStarAlgebra
    contexts: dict
    order: set
    generators: dict
    spectra: dict
    restrictions: dict

    def ids(self) -> list:
        return list(self.contexts.keys())

    def algebra(self, ctx_id: str) -> MatrixStarAlgebra:
        return self.contexts[ctx_id]

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self.order

    def strict_pairs(self) -> list:
        """(sub, sup) pairs with sub strictly below sup, sub-major in id
        order: the keys of ``restrictions``, which are built in that order."""
        return list(self.restrictions)


def _commutation_cliques(mats: list, tol: float) -> list:
    """Maximal sets of pairwise-commuting matrices (``commuting``), as
    sorted index tuples."""
    if not mats:
        return []
    commute = commuting(mats, mats, tol)
    adjacent = [set(np.flatnonzero(row).tolist()) - {i} for i, row in enumerate(commute)]
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


def _atom_algebra(chars: list, tol: float) -> MatrixStarAlgebra:
    """The commutative algebra spanned by the atoms ``chars``, which it holds
    as its characters; its rows ``p / sqrt(rank)`` are built when first read."""
    alg = MatrixStarAlgebra.from_rows(chars[0].projection.shape[-1], len(chars), lambda: np.stack(
        [chi.projection.reshape(-1) / np.sqrt(chi.rank) for chi in chars]), tol)
    alg._characters = chars
    return alg


def context_algebra(generators: list, d: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """The commutative algebra that the generators generate, built from the
    atoms they split the space into (``_split``), as characters in reading
    order.  Refuses (DomainError) generators that do not commute, and
    commuting ones whose split fails, each by its own message."""
    stack = np.asarray([as_matrix(g, d) for g in generators], dtype=complex).reshape(-1, d, d)
    blocks = _split(stack, tol, "the generators do not generate a commutative algebra")
    projs, ranks = _projections(blocks), [iso.shape[1] for iso in blocks]
    order = _reading_order(_traces(projs) / ranks, tol)
    return _atom_algebra([Character(projection=projs[k], rank=ranks[k]) for k in order], tol)


def _assemble(ambient: MatrixStarAlgebra, blocks: list, group_generators: list) -> ContextCategory:
    """The category of the maximal contexts whose atoms are ``blocks[k]``
    (isometries onto the atoms' ranges), their meets and I.

    Every candidate's atom is a sum of maximal atoms, so one Gram matrix
    decides everything.  Summed over atoms, ``|V^H V|^2`` of the stacked
    isometry columns V is ``‖p q‖_F^2`` for every pair of atoms, and for
    orthogonal p, ``‖(sum p) q‖_F^2 = sum ‖p q‖_F^2``; two atoms overlap
    when it exceeds ``spectral_tol(tol)^2``.  The candidates, in order:
    the maximal contexts V0, V1, ...; the meet of each pair, whose atoms
    are the connected components of the pair's overlap graph, when it has
    more than one; then I.  A <= B iff every atom of B overlaps exactly one
    atom of A, its restriction; each leak is judged alone, so the atom may
    leak into several others at or below the threshold, even past it in
    sum.  A candidate equal to an earlier kept one is dropped; each kept
    one holds its atoms as its characters (``spectra``).

    All pairs are decided in one batch: each pair's overlap graph, padded to
    the largest atom count, is closed by boolean squaring, and each atom is
    labelled by the first atom of its component.  One cover matrix holds
    every candidate's atoms as rows of sums over the maximal atoms, put in
    reading order by one sort.
    """
    d, tol = ambient.dim, ambient.tol
    threshold = spectral_tol(tol) ** 2
    isometries = [iso for group in blocks for iso in group] + [np.eye(d, dtype=complex)]
    ranks = np.array([iso.shape[1] for iso in isometries])
    columns = np.concatenate(isometries, axis=1)
    owner = np.repeat(np.eye(len(isometries)), ranks, axis=0)
    overlaps = owner.T @ (np.abs(dagger(columns) @ columns) ** 2) @ owner
    projs = _projections(isometries).reshape(len(isometries), d * d)
    traces = _traces(projs.reshape(-1, d, d))

    n = len(blocks)
    first = np.cumsum([0] + [len(group) for group in blocks])
    counts = np.diff(first)
    left, right = np.triu_indices(n, 1)
    slot = np.arange(counts.max(initial=1))
    real = slot < counts[left][:, None]
    rows = np.minimum(first[left][:, None] + slot, first[n])[:, :, None]
    cols = np.minimum(first[right][:, None] + slot, first[n])[:, None, :]
    touch = (overlaps[rows, cols] > threshold) & real[:, :, None] & (slot < counts[right][:, None])[:, None, :]
    reach = (touch @ np.swapaxes(touch, 1, 2)) | np.eye(len(slot), dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    label = reach.argmax(axis=2)
    root = (label == slot) & real
    meets = np.flatnonzero(root.sum(axis=1) > 1)
    names = [f"V{k}" for k in range(n)] + [f"V{i}^V{j}" for i, j in zip(left[meets], right[meets])] + ["I"]

    # each candidate's atoms as rows of sums over the maximal atoms, one
    # block of rows per candidate, then in reading order within each block
    sizes = np.concatenate([counts, root[meets].sum(axis=1), [1]])
    starts = np.concatenate([[0], np.cumsum(sizes)])
    cover = np.zeros((starts[-1], len(isometries)))
    cover[np.arange(first[n]), np.arange(first[n])] = 1.0
    pair, atom = np.nonzero(real[meets])
    component = (np.cumsum(root, axis=1) - 1)[meets[pair], label[meets[pair], atom]]
    cover[starts[n + pair] + component, first[left[meets[pair]]] + atom] = 1.0
    cover[-1, -1] = 1.0
    cover = cover[_reading_order(traces @ cover.T / (cover @ ranks), tol, starts)]
    hits = cover @ overlaps @ cover.T > threshold
    # below[m, k]: every atom of candidate m overlaps exactly one of k's
    below = np.logical_and.reduceat(np.add.reduceat(hits, starts[:-1], axis=1, dtype=int) == 1, starts[:-1], axis=0)
    # a candidate is kept unless it equals an earlier kept one: only one that
    # equals some earlier candidate can be dropped, so only those are asked
    earlier = np.triu(below & below.T, 1)
    keep = np.ones(len(names), dtype=bool)
    for k in np.flatnonzero(earlier.any(axis=0)).tolist():
        keep[k] = not (earlier[:k, k] & keep[:k]).any()
    kept = np.flatnonzero(keep)

    contexts, spectra = {}, {}
    atom_ranks = (cover @ ranks).astype(int).tolist()
    for k in kept.tolist():
        atoms = cover[starts[k] : starts[k + 1]]
        spectra[names[k]] = [Character(projection=p, rank=r) for p, r in
                             zip((atoms @ projs).reshape(-1, d, d), atom_ranks[starts[k] : starts[k + 1]])]
        contexts[names[k]] = _atom_algebra(spectra[names[k]], tol)
    # each strict pair (a, b), a-major: the atom of a that each atom of b
    # overlaps, from the pair's hits padded with columns that overlap none
    sub, sup = (kept[k] for k in np.nonzero(below[np.ix_(kept, kept)].T & ~np.eye(len(kept), dtype=bool)))
    slot = np.arange(sizes.max())
    rows = np.minimum(starts[sup][:, None] + slot, starts[-1] - 1)[:, :, None]
    cols = np.minimum(starts[sub][:, None] + slot, starts[-1] - 1)[:, None, :]
    tables = (hits[rows, cols] & (slot < sizes[sub][:, None])[:, None, :]).argmax(axis=2)
    counts = sizes.tolist()
    restrictions = {(names[a], names[b]): tuple(table[: counts[b]])
                    for a, b, table in zip(sub.tolist(), sup.tolist(), tables.tolist())}
    generators = {names[k]: group_generators[k] if k < n else [] for k in kept.tolist()}
    return ContextCategory(ambient, contexts, set(restrictions), generators, spectra, restrictions)


def context_category(ambient: MatrixStarAlgebra, seeds: list) -> ContextCategory:
    """Contexts generated by the maximal pairwise-commuting subsets of seeds.

    Each clique's context is built from the atoms its seeds split the
    space into (``_split``: a clique commutes, so a failed split is refused
    as such); pairwise meets of the maximal contexts and the trivial span of
    the identity are included, and the order is inclusion.  Refuses
    (InputError) a matrix dimension above ``DIM_CAP``.
    """
    check_dimension(ambient.dim)
    tol = ambient.tol
    mats = [as_matrix(s, ambient.dim) for s in seeds]
    for k, m in enumerate(mats):
        if not is_selfadjoint(m, tol):
            raise DomainError(f"seed {k} is not self-adjoint")
        if not ambient.contains(m):
            raise DomainError(f"seed {k} lies outside the ambient algebra")
    cliques = _commutation_cliques(mats, tol)
    blocks = [_split(np.stack([mats[i] for i in clique]), tol, None) for clique in cliques]
    return _assemble(ambient, blocks, [list(c) for c in cliques])


def context_category_from_groups(ambient: MatrixStarAlgebra, groups: list) -> ContextCategory:
    """Contexts generated from explicit groups (one context per group), as
    ``context_category`` builds them from cliques.  Every group is read as
    d x d matrices first; then each in turn must lie in the ambient algebra
    and split (``_split``, refused as ``context_algebra`` refuses its generators)."""
    d, tol = ambient.dim, ambient.tol
    stacks = [np.asarray([as_matrix(g, d) for g in group], dtype=complex).reshape(-1, d, d) for group in groups]
    blocks = []
    for k, stack in enumerate(stacks):
        if not ambient.contains(stack):
            raise DomainError(f"group {k} contains a matrix outside the ambient algebra")
        blocks.append(_split(stack, tol, f"group {k} does not generate a commutative algebra"))
    return _assemble(ambient, blocks, [[] for _ in groups])
