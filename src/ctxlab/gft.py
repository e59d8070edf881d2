"""Truncated bosonic Fock sector over a finite group-tuple mode space.

Single-particle modes are tuples of elements of a cyclic group, one per
face of a polyhedron; the Haar integral is the uniform average.  Smeared
field operators act on an occupation-cutoff Fock space, where the
canonical commutation relations hold exactly below the cutoff and the
exponentiated (Weyl) relation converges as the cutoff grows.  Copy-count
inclusions give the coarse-graining morphisms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import ceil, comb

import numpy as np

from .errors import SHOWN_CHARS, CapExceeded, DomainError, InputError
from .fincat import Cone, Diagram, check_cone, cone_from_legs, poset_category
from .linalg import GFT_CONTEXT_TOL, dagger, opnorm
from .validation import ValidationReport, shown

# Largest Fock dimension built, about ten times the benchmark's largest (1,001).
FOCK_CAP = 10_000
# Largest Taylor work m * s of one Weyl action; the benchmark's norms need at most 55.
WEYL_MATVEC_CAP = 100_000


@dataclass
class PolyhedronSpace:
    """Mode space of one polyhedron: group order m, n faces, dim m**n."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InputError("group order and face count must be positive")

    @property
    def size(self) -> int:
        return self.m**self.n

    @property
    def haar(self) -> float:
        """Weight of one group tuple under the uniform (Haar) measure."""
        return float(self.m) ** (-self.n)


def _coerce_fn(f, dim: int) -> np.ndarray:
    arr = np.asarray(f, dtype=complex).reshape(-1)
    if arr.shape != (dim,):
        raise InputError(f"test function needs {dim} values, got {arr.shape[0]}")
    return arr


def inner_product(f, fp, space: PolyhedronSpace) -> complex:
    """Haar-weighted product sum, linear in the first argument."""
    return weighted_inner(_coerce_fn(f, space.size), _coerce_fn(fp, space.size), space.haar)


def weighted_inner(f, fp, weight: float) -> complex:
    fv = np.asarray(f, dtype=complex).reshape(-1)
    gv = np.asarray(fp, dtype=complex).reshape(-1)
    if fv.shape != gv.shape:
        raise InputError("test functions of different lengths")
    return complex(weight * np.sum(fv * gv.conj()))


# ---------------------------------------------------------------------------
# truncated Fock space


@dataclass
class TruncatedFock:
    """Symmetric occupation basis over ``modes`` modes, total count <= n_max.

    ``mode_weight`` is the measure weight of one mode; mode operators carry
    the matching delta normalization so that smeared fields reproduce the
    weighted inner product in their commutator.  States are listed by total
    count, each sector's occupation vectors in ascending lexicographic
    order.  ``ladders`` holds every ladder entry ``a_k |col> = sqrt(n_k)
    |row>`` twice, as the CSR pattern ``(indptr, cols, modes, amps)`` of the
    stacked block ``[a_0 .. a_M-1 | a_0* .. a_M-1*]`` of dim rows and 2 dim
    columns: row ``i`` lists its lowerings by column, then its raisings, at
    column dim + j and mode M + k for ``a_k* |j>``.  Every field is read
    from it.
    """

    modes: int
    n_max: int
    mode_weight: float = 1.0
    ladders: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.modes < 1:
            raise InputError("need at least one mode")
        if self.n_max < 0:
            raise InputError("occupation cutoff must be nonnegative")
        size = _dimension_below(self.modes, self.n_max, 10**SHOWN_CHARS)
        if size > FOCK_CAP:
            raise CapExceeded("Fock dimension", size, FOCK_CAP)
        self.ladders = _ladders(self.modes, self.n_max, self.dim)

    @property
    def dim(self) -> int:
        return self.sector_size(self.n_max)

    def sector_size(self, max_total: int) -> int:
        """Number of states with at most ``max_total`` particles: they are
        the first ones, since states are listed by total count."""
        return comb(self.modes + max_total, max_total)


def _dimension_below(modes: int, n_max: int, bound: int) -> int:
    """comb(modes + n_max, n_max) if it is below ``bound``, else a number
    between ``bound`` and it.  Each step of the product at least doubles
    it, so a dimension too large to form takes about log2(bound) steps."""
    small, large = sorted((modes, n_max))
    size = 1
    for j in range(1, small + 1):
        size = size * (large + j) // j  # comb(large + j, j)
        if size >= bound:
            break
    return size


def _compositions(rows: int, cols: int) -> np.ndarray:
    """comb(r + m, m) at [r, m]: the occupations of m + 1 modes by r
    particles.  Each line is the running sum of the one before, and the
    table is built along its longer side; below FOCK_CAP, with rows =
    n_max + 1 and cols = modes, the shorter side has at most 8 entries."""
    short, long = sorted((rows, cols))
    table = np.ones((short, long), dtype=np.int64)
    for j in range(1, short):
        table[j] = np.cumsum(table[j - 1])
    return table if short == rows else table.T


def _ladders(modes: int, n_max: int, dim: int) -> tuple:
    """The CSR pattern ``(indptr, cols, modes, amps)`` of ``[a | a*]``: one
    ladder entry ``a_k |u + e_k> = sqrt(u_k + 1) |u>`` for each raising of
    a state u below the top sector, modes * sector_size(n_max - 1) of them,
    each kept as a lowering at row u (``low``) and column u + e_k (``high``)
    and as a raising at row u + e_k and column dim + u; one sort by row and
    then column.  The indices fit int32, which scipy takes without a copy:
    dim <= FOCK_CAP.

    A state's rank in its sector is a sum of binomials over its modes:
    sum_i comb(r_i + m_i, m_i) - comb(r_{i+1} + m_i, m_i), with r_i the
    particles in modes i and after and m_i = modes - 1 - i.  A particle
    added at k raises that rank by sum_{i<k} (g_i - h_i) + g_k, with g_i =
    comb(r_i + m_i, m_i - 1) and h_i = comb(r_{i+1} + m_i, m_i - 1); so
    u + e_k sits at u's position, plus the size of u's sector, plus that.
    """
    if n_max == 0:
        none = np.zeros(0, dtype=np.int64)
        return np.zeros(2, dtype=np.int32), none.astype(np.int32), none, np.sqrt(none)
    comps = _compositions(n_max + 1, modes)
    # m_i, which also lists the modes from the last to the first
    m = np.arange(modes - 1, -1, -1)
    # a sector in ascending order: the states of the one below that leave
    # modes < k empty, a prefix of it comps[t - 1, modes - 1 - k] long,
    # raised at k, for k from the last mode to the first
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
    # steps[r, m] = comb(r + m, m - 1), 0 at m = 0
    steps = np.zeros((n_max, modes), dtype=np.int64)
    steps[:, 1:] = comps[1:, :-1]
    g, h = steps[r, m], steps[after, m]
    start = np.arange(len(occ))[:, None] + comps[r[:, 0], modes - 1][:, None]
    high = (start + np.cumsum(g - h, axis=1) + h).ravel()
    low = np.repeat(np.arange(len(occ)), modes)
    rows, cols = np.concatenate([low, high]), np.concatenate([high, dim + low])
    order = np.argsort(rows * (2 * dim) + cols)
    raising, entry = np.divmod(order, len(high))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))]).astype(np.int32)
    return indptr, cols[order].astype(np.int32), entry % modes + modes * raising, np.sqrt(occ.ravel() + 1)[entry]


def fock_for(space: PolyhedronSpace, n_max: int) -> TruncatedFock:
    """The Fock space over ``space``'s modes at cutoff ``n_max``.  Above the
    vacuum every mode is a state, so a mode count too long to show is
    refused before m**n, whose digits grow with the face count, is formed."""
    bound = 10**SHOWN_CHARS
    if n_max > 0 and space.m ** min(space.n, bound.bit_length()) >= bound:
        raise CapExceeded("Fock dimension", f"more than {shown(space.m)}**{shown(space.n)}", FOCK_CAP)
    return TruncatedFock(modes=space.size, n_max=n_max, mode_weight=space.haar)


def field_operator(f, fock: TruncatedFock):
    """Smeared annihilation operator, a scipy.sparse CSR array: the
    measure-weighted sum of the mode lowerings.

    The mode operators are delta-normalized against the measure, so the
    commutator with a conjugate field gives the weighted inner product on
    every sector below the cutoff.  Annihilates the vacuum.
    """
    from scipy.sparse import csr_array

    fv = _coerce_fn(f, fock.modes)
    indptr, cols, modes, amps = fock.ladders
    # the mode ladders have disjoint supports, so the field's entries are
    # theirs, weighted; a mode with f = 0 adds none, and neither does a raising
    weights = np.concatenate([np.sqrt(fock.mode_weight) * fv, np.zeros(fock.modes, dtype=complex)])[modes]
    at = weights != 0
    kept = np.concatenate([[0], np.cumsum(at, dtype=np.int32)])[indptr]
    return csr_array((amps[at] * weights[at], cols[at], kept), shape=(fock.dim, fock.dim))


def ccr_top_sector(n_max: int, guard: int = 1) -> int:
    """The largest particle number that ``ccr_defect`` tests, n_max - guard;
    refuses a cutoff of 0 or below, which leaves no sector below it, and a
    guard outside [0, n_max], with no mode count formed."""
    if n_max <= 0:
        raise DomainError("no sector below the cutoff to test")
    if not 0 <= guard <= n_max:
        raise InputError(f"guard must be between 0 and the cutoff {n_max}, got {guard}")
    return n_max - guard


def _sector_norm(block, shift: complex, edges: list) -> float:
    """Spectral norm of ``block - shift * I``, ``block`` a scipy.sparse
    array, read sector by sector from its entries, sector t being the index
    range [edges[t], edges[t + 1]): the largest norm of a diagonal sector
    block plus the Frobenius norm of every entry between two sectors.

    A sector block with no nonzero entry off its diagonal has the largest
    |block_ii - shift| as its norm; each other one is formed dense and
    takes one SVD.  The sum bounds the norm of the whole block from above
    (triangle inequality), and equals it when no entry couples two sectors.
    """
    entries = block.tocoo()
    rows, cols = np.searchsorted(edges, np.stack([entries.row, entries.col]), side="right") - 1
    off = (entries.row != entries.col) & (entries.data != 0)
    between = entries.data[off & (rows != cols)]
    dense = np.unique(rows[off & (rows == cols)])
    read = np.repeat(~np.isin(np.arange(len(edges) - 1), dense), np.diff(edges))
    norms = [float(np.abs(block.diagonal()[read] - shift).max(initial=0.0))]
    for lo, hi in ((edges[t], edges[t + 1]) for t in dense):
        norms.append(opnorm(block[lo:hi, lo:hi].toarray() - shift * np.eye(hi - lo)))
    return max(norms) + float(np.sqrt(np.vdot(between, between).real))


def ccr_defect(f, fp, fock: TruncatedFock, guard: int = 1) -> float:
    """Norm of ([field(f), field(fp)*] - (f, fp)) on sectors <= n_max - guard.

    Zero (to rounding) with the default guard; the top sector feels the
    cutoff, so guard=0 reports the truncation artifact instead.  The
    commutator is formed on the guarded rows and columns only, and read
    one particle-number sector at a time (states are listed by total
    count): the largest sector block's norm, plus the measured norm of the
    entries between sectors, which keeps the value an upper bound of the
    whole block's norm whatever those entries are.
    """
    from scipy.sparse import csc_array, csr_array

    edges = [0] + [fock.sector_size(total) for total in range(ccr_top_sector(fock.n_max, guard) + 1)]
    keep = edges[-1]
    fv, gv = (np.sqrt(fock.mode_weight) * _coerce_fn(v, fock.modes) for v in (f, fp))
    indptr, cols, modes, amps = fock.ladders
    end = indptr[keep]
    # X = [a(f) | a(fp)*] on the guarded rows, and Y = [a(fp)* ; -a(f)] on the
    # guarded columns, which is [a(fp) | -a(f)*]* there: the CSR pattern of X
    # read as CSC.  In X @ Y each entry off the diagonal is two equal
    # products of opposite sign, which cancel exactly.
    stacked = csr_array((amps[:end] * np.concatenate([fv, gv.conj()])[modes[:end]], cols[:end], indptr[:keep + 1]),
                        shape=(keep, 2 * fock.dim))
    adjoint = csc_array((amps[:end] * np.concatenate([gv.conj(), -fv])[modes[:end]], cols[:end], indptr[:keep + 1]),
                        shape=(2 * fock.dim, keep))
    return _sector_norm(stacked @ adjoint, weighted_inner(f, fp, fock.mode_weight), edges)


def weyl_top_sector(n_max: int, sector_cap: int) -> int:
    """The largest particle number that the Weyl defects test, sector_cap;
    refuses a negative cap and one at or above the cutoff, with no mode count formed."""
    if sector_cap < 0:
        raise InputError(f"sector cap must be nonnegative, got {sector_cap}")
    if sector_cap >= n_max:
        raise DomainError("sector cap must stay below the occupation cutoff")
    return sector_cap


def _sector_columns(fock: TruncatedFock, sector_cap: int) -> tuple:
    """Size of the sector <= sector_cap and the identity's columns there."""
    keep = fock.sector_size(weyl_top_sector(fock.n_max, sector_cap))
    return keep, np.eye(fock.dim, keep, dtype=complex)


# Al-Mohy and Higham (2011): s steps of Taylor degree m reach double precision while ||G||_1 / s <= theta_m
_THETA = {
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1,
    14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}


def _weyl_action(fv: np.ndarray, fock: TruncatedFock):
    """The map cols -> W(f) @ cols, W(f) = exp(G) with G = i/sqrt(2) (field(f)
    + field(f)*), by s steps of a degree-m Taylor series of exp(G / s).

    (m, s) takes the fewest matvecs m * s with ||G||_1 / s <= theta_m, and a
    step stops early once two successive terms fall below the unit roundoff
    of the partial sum (``_taylor_steps``): algorithm 3.2 of Al-Mohy and
    Higham, as scipy runs it, but on the exact 1-norm at every norm, so it
    draws no random numbers.
    Refuses (CapExceeded) a non-finite ||G||_1, or m * s above
    ``WEYL_MATVEC_CAP``, here, before the map runs: s grows with ||G||_1.
    """
    psi = field_operator(fv, fock)
    g = 1j / np.sqrt(2.0) * (psi + dagger(psi))
    norm = abs(g).sum(axis=0).max()
    if norm == 0:
        return lambda cols: cols
    if not np.isfinite(norm):
        raise CapExceeded("Weyl action matvecs", f"unbounded at generator 1-norm {norm}", WEYL_MATVEC_CAP)
    m, s = min(((m, ceil(norm / theta)) for m, theta in _THETA.items()), key=lambda ms: ms[0] * ms[1])
    if m * s > WEYL_MATVEC_CAP:
        raise CapExceeded("Weyl action matvecs", m * s, WEYL_MATVEC_CAP)
    return functools.partial(_taylor_steps, g, m, s)


def _taylor_steps(g, m: int, s: int, cols: np.ndarray) -> np.ndarray:
    """exp(G) @ cols by s steps of a degree-m Taylor series of exp(G / s).

    A step stops early once two successive terms fall below the unit
    roundoff of the partial sum's infinity norm (as np.linalg.norm sums
    it).  That norm is formed only when the terms fall below the roundoff
    of ``bound``, an upper bound of it: the norm at the start of the step,
    grown by each term's norm and by 2**-30 of itself for the rounding of
    the sum.  So each step breaks where a test on the norm after every
    term breaks it, with the same bits.
    """
    out = term = cols
    for _ in range(s):
        c1 = bound = abs(term).sum(axis=1).max()
        for j in range(1, m + 1):
            term = (1.0 / (s * j)) * (g @ term)
            c2 = abs(term).sum(axis=1).max()
            out = out + term
            bound = (bound + c2) * (1.0 + 2.0**-30)
            if c1 + c2 <= 2.0**-53 * bound:
                bound = abs(out).sum(axis=1).max()
                if c1 + c2 <= 2.0**-53 * bound:
                    break
            c1 = c2
        term = out
    return out


def weyl_relation_defect(f, fp, fock: TruncatedFock, sector_cap: int) -> float:
    """Compressed norm of W(f) W(fp) - phase * W(f + fp).

    The phase is exp(-i Im(f, fp) / 2); the defect shrinks toward zero as
    the occupation cutoff grows at fixed arguments and sector cap.  Both
    sides act on the sector's columns only: W(f) (W(fp) P) and W(f + fp) P,
    whose rows in the sector form the compressed difference.  All three
    actions are formed, and any refused, before the first matvec.
    """
    keep, cols = _sector_columns(fock, sector_cap)
    fv = _coerce_fn(f, fock.modes)
    gv = _coerce_fn(fp, fock.modes)
    with np.errstate(over="ignore"):  # an overflowed sum has an infinite 1-norm, which _weyl_action refuses
        total = fv + gv
    wg, wf, wsum = (_weyl_action(v, fock) for v in (gv, fv, total))  # in the order they are applied
    phase = np.exp(-0.5j * weighted_inner(fv, gv, fock.mode_weight).imag)
    return opnorm((wf(wg(cols)) - phase * wsum(cols))[:keep])


def is_gft_context(fs: list, space: PolyhedronSpace) -> bool:
    """True iff all pairwise inner products are real to ``GFT_CONTEXT_TOL`` (commuting smearings)."""
    if not fs:
        raise InputError("a context needs at least one test function")
    fns = [_coerce_fn(f, space.size) for f in fs]
    return not any(abs(inner_product(a, b, space).imag) > GFT_CONTEXT_TOL for a, b in itertools.combinations(fns, 2))


# ---------------------------------------------------------------------------
# second quantization as copy-count inclusion


@dataclass
class InclusionCone:
    diagram: Diagram
    cone: Cone
    report: ValidationReport


def _fn_key(vec: np.ndarray) -> tuple:
    r = np.round(np.asarray(vec, dtype=complex), 12)
    return tuple((float(x.real), float(x.imag)) for x in r)


def copy_padding(fv: np.ndarray, k: int, l: int, space: PolyhedronSpace, sign: float = 1.0) -> np.ndarray:
    """Zero-pad a k-copy function onto l copies (the inclusion morphism)."""
    arr = _coerce_fn(fv, k * space.size)
    out = np.zeros(l * space.size, dtype=complex)
    out[: k * space.size] = sign * arr
    return out


def second_quantization_cone(
    k: int,
    l: int,
    context_fns: list,
    space: PolyhedronSpace,
    corrupt: bool = False,
) -> InclusionCone:
    """Cone of a context over the copy-count inclusion of Weyl sectors.

    Builds generator presentations over k and l copies, the zero-padding
    inclusion between them, and the two context embeddings; the triangle
    (pad after embedding into k copies = direct embedding into l copies)
    is checked as a concrete cone.  ``corrupt`` flips the padding sign to
    produce a located violation.
    """
    if k > l:
        raise InputError(f"copy counts out of order: {k} > {l}")
    if not context_fns:
        raise InputError("context needs at least one test function")
    if not is_gft_context(context_fns, space):
        raise DomainError("test functions do not form a context (complex inner products)")
    sign = -1.0 if corrupt else 1.0

    base = [_coerce_fn(f, space.size) for f in context_fns]
    gens_k = [copy_padding(f, 1, k, space) for f in base]
    gens_l_direct = [copy_padding(f, 1, l, space) for f in base]
    gens_l = list(gens_l_direct)
    if l > k:
        unit = np.zeros(l * space.size, dtype=complex)
        unit[k * space.size] = 1.0
        gens_l.append(unit)

    carrier_k = list(dict.fromkeys(_fn_key(g) for g in gens_k))
    padded = {_fn_key(g): _fn_key(copy_padding(g, k, l, space, sign)) for g in gens_k}
    carrier_l = sorted(set(_fn_key(g) for g in gens_l) | set(padded.values()))

    index = poset_category(["Sk", "Sl"], lambda a, b: a == b or (a, b) == ("Sk", "Sl"))
    diagram = Diagram(index, {"Sk": carrier_k, "Sl": carrier_l}, {"Sk<=Sl": padded})
    apex = [_fn_key(f) for f in base]
    legs = {
        "Sk": {x: _fn_key(g) for x, g in zip(apex, gens_k)},
        "Sl": {x: _fn_key(g) for x, g in zip(apex, gens_l_direct)},
    }
    cone = cone_from_legs(diagram, apex, legs)
    report = check_cone(cone, diagram)
    return InclusionCone(diagram=diagram, cone=cone, report=report)

