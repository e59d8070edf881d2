"""A toy net of observable algebras on a chain of qubit sites.

Regions are site intervals (shadows of causal diamonds on a 1-d slice);
the standard assignment gives each region the full matrix algebra on its
sites tensored with the identity elsewhere.  Isotony, locality for
disjoint regions, cyclic-translation covariance (including its action on
the context extension), the inductive limit, and the square relating a
region's algebra to the whole are all checked, never assumed.

Inclusions between region algebras are decided once per pair, from Pauli
supports where these are certified.  Normalized Pauli strings are a
Frobenius-orthonormal basis of the d x d matrices, so the column masses
``sum_r |c_rp|^2`` of an algebra's orthonormal rows in Pauli coordinates
are the diagonal of its span's projector and sum to the rank.  A span's
support (the strings of mass above 1/2) is certified when it has exactly
rank-many strings and the mass off it is at most ``(tol/4)^2``; the
span's projector then lies within ``sqrt(2) tol/4`` (Frobenius) of the
projector onto its support's strings.  Between certified spans,
inclusion is support containment and equality is support equality: a
contained pair has residual below ``tol`` and any other pair a residual
of at least about ``2**-L``, so the dense test of ``algebra_span_leq``
decides the same.  A pair with a span that is not certified (one not
spanned by Pauli strings, such as a rotated algebra) takes the dense
test.  Locality skips the dense commutators of a disjoint pair only when
both supports are certified, commute string by string, and bound every
basis commutator by ``tol / 2`` (``LocalNet.commute_by_support``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .ctxext import build_limit_extension, embed
from .errors import CapExceeded, DomainError, InputError
from .linalg import DEFAULT_TOL, opnorm, spectral_tol
from .staralg import (
    MatrixStarAlgebra,
    algebra_span_equal,
    algebra_span_leq,
    context_category_from_groups,
    full_matrix_algebra,
    generate_algebra,
    gelfand_spectrum,
    is_commutative,
)
from .validation import ValidationReport

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Longest chain a net may have: the whole chain's Pauli stack takes
# 16**L * 16 bytes, 268 MB at 6 sites and 4.3 GB at 7.
MAX_SITES = 6


@dataclass(frozen=True, order=True)
class Region:
    """A site interval [start, stop], both ends inclusive."""

    start: int
    stop: int

    def __post_init__(self):
        if self.start > self.stop:
            raise InputError(f"region start {self.start} exceeds stop {self.stop}")

    def sites(self) -> range:
        return range(self.start, self.stop + 1)

    def contains(self, other: "Region") -> bool:
        return self.start <= other.start and other.stop <= self.stop

    def disjoint(self, other: "Region") -> bool:
        return self.stop < other.start or other.stop < self.start

    def label(self) -> str:
        return f"[{self.start},{self.stop}]"


def site_operator(single: np.ndarray, site: int, length: int) -> np.ndarray:
    """Embed a one-qubit operator at a site of the chain."""
    out = np.array([[1.0 + 0j]])
    for j in range(length):
        out = np.kron(out, single if j == site else PAULI["I"])
    return out


def pauli_string(labels: dict, length: int) -> np.ndarray:
    """Tensor product with the given Paulis at their sites, identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for j in range(length):
        out = np.kron(out, PAULI[labels.get(j, "I")])
    return out


def _region_pauli_strings(region: Region, length: int) -> np.ndarray:
    """Every Pauli string supported in ``region``, stacked in the order of
    ``itertools.product("IXYZ", ...)`` over the region's sites.

    One batched Kronecker step per site multiplies the same factors in the
    same order as the ``pauli_string`` chain, so the entries agree exactly.
    """
    letters = np.stack([PAULI[p] for p in "IXYZ"])
    out = np.ones((1, 1, 1), dtype=complex)
    for j in range(length):
        factors = letters if region.start <= j <= region.stop else letters[:1]
        n, a = out.shape[:2]
        out = (out[:, None, :, None, :, None] * factors[None, :, None, :, None, :]).reshape(
            n * len(factors), 2 * a, 2 * a
        )
    return out


# Complex entries transformed at a time (256 kB); whole rows per chunk.
_PAULI_CHUNK = 1 << 14


@functools.lru_cache(maxsize=None)
def _pauli_tables(length: int) -> tuple:
    """(gather offsets, Hadamard matrix, order) of ``pauli_masses``."""
    d = 2**length
    j = np.arange(d)
    # float offsets of a[j ^ x, j] in a row's (re, im) view, laid out (x, part, j)
    diagonals = 2 * ((j ^ j[:, None]) * d + j)[:, None, :] + np.arange(2)[:, None]
    parity = np.zeros((d, d), dtype=np.intp)
    for k in range(length):
        parity ^= ((j[:, None] & j) >> k) & 1
    # flat (x, z) index of each string in "IXYZ" order: one axis of 2 x + z
    # per site, where I, X, Y, Z are X^x Z^z (up to a phase) at 0, 2, 3, 1
    axes = [axis for k in range(length) for axis in (k, length + k)]
    xz = np.arange(d * d).reshape((2,) * (2 * length)).transpose(axes).reshape((4,) * length)
    order = xz[np.ix_(*[[0, 2, 3, 1]] * length)].reshape(-1)
    return diagonals, 1.0 - 2.0 * parity, order


def pauli_masses(rows: np.ndarray, length: int) -> np.ndarray:
    """Column masses ``sum_r |c_rp|^2`` of ``rows`` (vectorized 2**length
    square matrices) in the coordinates of the normalized Pauli strings,
    in the order of ``itertools.product("IXYZ", ...)`` over the sites.

    A string is ``X^x Z^z`` up to a phase, which no mass sees, with ``x``
    and ``z`` the bit masks of its flips and phase flips (site 0 the high
    bit).  Per site, the 2 x 2 block entry (i, j) feeds x = i ^ j with sign
    (-1)^(z j); over the chain, the coefficient of a matrix ``a`` is
    ``sum_j (-1)^popcount(z & j) a[j ^ x, j] / sqrt(d)``.  So one gather
    takes each row to its shifted diagonals ``a[j ^ x, j]``, and one
    product with the d x d Sylvester Hadamard matrix makes every sum, on
    the real and the imaginary parts alike.
    """
    d = 2**length
    masses = np.zeros((d, d))
    for coeffs in _pauli_coefficients(rows, length):
        masses += np.einsum("rxcz,rxcz->xz", coeffs, coeffs)
    return masses.reshape(-1)[_pauli_tables(length)[2]] / d


def pauli_row_masses(rows: np.ndarray, length: int) -> np.ndarray:
    """Masses ``|c_rp|^2`` of each row of ``rows`` on each normalized Pauli
    string, shape ``(rows, 4**length)``, in ``pauli_masses``'s order."""
    d = 2**length
    per_row = [np.einsum("rxcz,rxcz->rxz", c, c).reshape(len(c), -1) for c in _pauli_coefficients(rows, length)]
    return np.concatenate(per_row)[:, _pauli_tables(length)[2]] / d


def _pauli_coefficients(rows: np.ndarray, length: int):
    """Unnormalized Pauli coefficients of ``rows``, chunk by chunk, as
    ``(row, x, re/im, z)`` arrays (see ``pauli_masses``)."""
    d = 2**length
    diagonals, hadamard, _ = _pauli_tables(length)
    parts = np.ascontiguousarray(rows, dtype=complex).reshape(len(rows), d * d).view(np.float64)
    step = max(1, _PAULI_CHUNK // (d * d))
    for lo in range(0, len(rows), step):
        shifted = np.take(parts[lo : lo + step], diagonals, axis=1)
        yield (shifted.reshape(-1, d) @ hadamard).reshape(-1, d, 2, d)


def pauli_support(alg: MatrixStarAlgebra, length: int, tol: float = DEFAULT_TOL):
    """Bool mask of the Pauli strings whose coordinate span is the
    algebra's span, or None when the masses do not certify one.

    Certified: as many strings of mass above 1/2 as the rank, and at most
    ``(tol/4)^2`` of mass off them.  The off-support mass is summed rather
    than read as ``rank - mass``, whose rounding (about 1e-16 per string)
    would exceed the bound.
    """
    if alg.dim != 2**length:
        return None
    rows = alg.ortho
    masses = pauli_masses(rows, length)
    support = masses > 0.5
    if support.sum() != len(rows) or masses[~support].sum() > (tol / 4) ** 2:
        return None
    return support


def supports_commute(a: np.ndarray, b: np.ndarray, length: int) -> bool:
    """Whether every string of the support mask ``a`` commutes with every
    string of ``b``.  ``X^x Z^z`` and ``X^x' Z^z'`` commute iff
    ``popcount(x & z') + popcount(z & x')`` is even, so iff the Hadamard
    signs ``(-1)^popcount(x & z')`` and ``(-1)^popcount(z & x')`` agree."""
    d = 2**length
    _, hadamard, order = _pauli_tables(length)
    xa, za = np.divmod(order[a], d)
    xb, zb = np.divmod(order[b], d)
    return bool(np.all(hadamard[np.ix_(xa, zb)] == hadamard[np.ix_(za, xb)]))


def standard_region_algebra(region: Region, length: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Full matrix algebra on the region's sites, identity on the rest.

    Basis: normalized Pauli strings supported inside the region.  These are
    Frobenius-orthonormal, so the span data is exact.
    """
    d = 2**length
    stack = _region_pauli_strings(region, length)
    stack /= np.sqrt(d)
    return MatrixStarAlgebra.from_rows(d, stack.reshape(len(stack), -1), tol)


@dataclass
class LocalNet:
    """Region -> algebra assignment on a chain of ``length`` qubit sites.

    ``builder`` is the local rule used as the reference when checking that
    assigning a region agrees with assigning it as a part of the whole.
    Each region's Pauli support, each inclusion between two regions and
    each comparison with the rule is computed once and kept.
    """

    length: int
    assignment: dict
    builder: object = field(default=None, repr=False)
    tol: float = DEFAULT_TOL
    _supports: dict = field(default_factory=dict, repr=False, compare=False)
    _inclusions: dict = field(default_factory=dict, repr=False, compare=False)
    _matches: dict = field(default_factory=dict, repr=False, compare=False)
    _leaks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def regions(self) -> list:
        return sorted(self.assignment.keys())

    def algebra(self, region: Region) -> MatrixStarAlgebra:
        return self.assignment[region]

    def support(self, region: Region):
        """Certified Pauli support of the region's algebra, or None."""
        if region not in self._supports:
            self._supports[region] = pauli_support(self.algebra(region), self.length, self.tol)
        return self._supports[region]

    def includes(self, small: Region, big: Region) -> bool:
        """Whether the algebra of ``small`` lies in the algebra of ``big``."""
        key = (small, big)
        if key not in self._inclusions:
            self._inclusions[key] = self._include(small, big)
        return self._inclusions[key]

    def _include(self, small: Region, big: Region) -> bool:
        sub, sup = self.support(small), self.support(big)
        if sub is not None and sup is not None:
            return not np.any(sub & ~sup)
        return algebra_span_leq(self.algebra(small), self.algebra(big), self.tol)

    def commute_by_support(self, left: Region, right: Region) -> bool:
        """Whether the supports show that every basis commutator of the two
        regions has operator norm at most ``tol / 2``, so that the dense
        test of ``check_locality`` reports none.

        Both supports must be certified and commute string by string.  Then
        with ``a = a_S + e_a`` (``a_S`` on the support's strings) and the
        same for ``b``, ``[a_S, b_S] = 0`` and
        ``|[a, b]| <= 2 (|e_a|_F |b|_F + |a|_F |e_b|_F)``, taken over the
        worst basis matrices.  Twice the rounding of the dense products,
        ``(d + 1) eps |a|_F |b|_F``, is added to that bound; the rest of
        the margin to ``tol`` covers the rounding of the masses.
        """
        sl, sr = self.support(left), self.support(right)
        if sl is None or sr is None or not supports_commute(sl, sr, self.length):
            return False
        off_l, norm_l = self._leak(left)
        off_r, norm_r = self._leak(right)
        rounding = 2 * (self.dim + 1) * np.finfo(float).eps * norm_l * norm_r
        return 2 * (off_l * norm_r + norm_l * off_r) + rounding <= self.tol / 2

    def _leak(self, region: Region) -> tuple:
        """(largest off-support Frobenius norm, largest Frobenius norm) over
        the region's basis matrices, which the dense test uses; a caller's
        basis need not be the orthonormal rows the support comes from."""
        if region not in self._leaks:
            stack = np.stack(self.algebra(region).basis).reshape(-1, self.dim**2)
            off = pauli_row_masses(stack, self.length)[:, ~self.support(region)].sum(axis=1)
            self._leaks[region] = (np.sqrt(off.max()), np.linalg.norm(stack, axis=1).max())
        return self._leaks[region]

    def matches_reference(self, region: Region) -> bool:
        """Whether the assigned algebra of ``region`` spans the builder's
        algebra for it."""
        if region not in self._matches:
            reference = self.builder(region)
            mine = self.support(region)
            if mine is None or reference is self.algebra(region):
                theirs = mine
            else:
                theirs = pauli_support(reference, self.length, self.tol)
            if theirs is not None:
                self._matches[region] = np.array_equal(mine, theirs)
            else:
                self._matches[region] = algebra_span_equal(self.algebra(region), reference, self.tol)
        return self._matches[region]

    @property
    def dim(self) -> int:
        return 2**self.length


def refuse_long_chain(length: int) -> None:
    """Raise CapExceeded for a chain of more than ``MAX_SITES`` sites."""
    if length > MAX_SITES:
        raise CapExceeded("net chain length", length, MAX_SITES)


def standard_net(length: int, tol: float = DEFAULT_TOL) -> LocalNet:
    """The net of all intervals on the chain.  Its builder returns the
    algebras built here, also to a net made from a corrupted copy."""
    if length < 1:
        raise InputError("chain length must be positive")
    refuse_long_chain(length)
    assignment = {}
    for a in range(length):
        for b in range(a, length):
            region = Region(a, b)
            assignment[region] = standard_region_algebra(region, length, tol)
    return LocalNet(length, assignment, builder=dict(assignment).__getitem__, tol=tol)


# ---------------------------------------------------------------------------
# net axioms


def check_isotony(net: LocalNet) -> ValidationReport:
    """Interval containment must give span containment of the algebras."""
    report = ValidationReport()
    regions = net.regions()
    for small in regions:
        for big in regions:
            if small == big or not big.contains(small):
                continue
            if not net.includes(small, big):
                report.add(
                    "net.isotony",
                    f"algebra of {small.label()} is not contained in algebra of {big.label()}",
                )
    return report


def _pair_commutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a[i], b[j]] for every pair of stacked matrices, as ``out[i, :, j, :]``.

    Two BLAS products: the rows of every a[i] stacked against the columns of
    every b[j] side by side, and the same with the roles swapped.
    """
    na, d, _ = a.shape
    nb = b.shape[0]
    ab = (a.reshape(na * d, d) @ b.transpose(1, 0, 2).reshape(d, nb * d)).reshape(na, d, nb, d)
    ba = (b.reshape(nb * d, d) @ a.transpose(1, 0, 2).reshape(d, na * d)).reshape(nb, d, na, d)
    ab -= ba.transpose(2, 1, 0, 3)
    return ab


def check_locality(net: LocalNet) -> ValidationReport:
    """Algebras of disjoint regions must commute elementwise.

    A pair whose certified supports bound every basis commutator by
    ``tol / 2`` (``LocalNet.commute_by_support``) has no violation and is
    not formed densely; every other pair is.
    """
    report = ValidationReport()
    regions = net.regions()
    for i, left in enumerate(regions):
        for right in regions[i + 1 :]:
            if not left.disjoint(right) or net.commute_by_support(left, right):
                continue
            comm = _pair_commutators(np.stack(net.algebra(left).basis), np.stack(net.algebra(right).basis))
            fro = np.linalg.norm(comm, axis=(1, 3))
            for ai, bi in zip(*np.nonzero(fro > net.tol)):
                if opnorm(comm[ai, :, bi, :]) > net.tol:
                    report.add(
                        "net.locality",
                        f"basis elements {ai} of {left.label()} and {bi} of {right.label()} do not commute",
                    )
    return report


def composite_context(net: LocalNet, parts: list) -> MatrixStarAlgebra:
    """Context spanning several mutually disjoint regions.

    ``parts`` is a list of (Region, commutative subalgebra of that region's
    algebra); the generated algebra is their joint span closure, which is
    commutative with multiplicative character count.
    """
    if not parts:
        raise InputError("composite context needs at least one part")
    for (r1, _), (r2, _) in itertools.combinations(parts, 2):
        if not r1.disjoint(r2):
            raise DomainError(f"regions {r1.label()} and {r2.label()} are not causally separated")
    gens = []
    for region, alg in parts:
        if region not in net.assignment:
            raise DomainError(f"region {region.label()} is not in the net")
        if not is_commutative(alg):
            raise DomainError(f"context on {region.label()} is not commutative")
        if not algebra_span_leq(alg, net.algebra(region), net.tol):
            raise DomainError(f"context on {region.label()} leaves its region algebra")
        gens.extend(alg.basis)
    composite = generate_algebra(gens, net.dim, net.tol, dim_cap=net.dim)
    if not is_commutative(composite):
        raise DomainError("composite context failed to be commutative")
    return composite


# ---------------------------------------------------------------------------
# translation covariance


def translation_unitary(shift: int, length: int) -> np.ndarray:
    """Permutation matrix moving site j to site (j + shift) mod length."""
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


def shifted_region(region: Region, shift: int, length: int, cyclic: bool = True):
    """Image of a region under the site translation; None if it wraps."""
    if not cyclic:
        if region.stop + shift >= length or region.start + shift < 0:
            raise DomainError(f"shift {shift} moves {region.label()} off the chain")
        return Region(region.start + shift, region.stop + shift)
    sites = sorted(((j + shift) % length) for j in region.sites())
    if sites == list(range(sites[0], sites[0] + len(sites))):
        return Region(sites[0], sites[-1])
    return None


def check_covariance(net: LocalNet, shift: int, contexts: list, cyclic: bool = True) -> ValidationReport:
    """Translation covariance of a context family and of its extension.

    The conjugation by the shift permutation must map every context algebra
    onto the context at the shifted region, and the induced permutation of
    the product-spectrum components must intertwine the embeddings.
    """
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

    # extension part: build the product carrier over the family and check
    # that embedding then permuting equals translating then embedding.
    ambient = full_matrix_algebra(net.dim, net.tol)
    cc = context_category_from_groups(ambient, [alg.basis for _, alg in contexts])
    ids_by_region = {}
    for region, alg in contexts:
        for cid in cc.ids():
            if algebra_span_equal(cc.algebra(cid), alg, net.tol):
                ids_by_region[region] = cid
                break
    ext = build_limit_extension(cc)
    positions = {cid: ext.carrier.position(cid) for cid in ext.carrier.context_ids}

    char_maps = {}
    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        table = {}
        for i, chi in enumerate(ext.spectra[cid]):
            moved = alpha(chi.projection)
            hits = [
                j
                for j, tchi in enumerate(ext.spectra[tid])
                if opnorm(moved - tchi.projection) <= spectral_tol(net.tol)
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

    # position of each point's translate: remap the translated components
    components = np.unravel_index(np.arange(ext.carrier.size), ext.carrier.sizes)
    moved_components = list(components)
    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        table = np.array(list(char_maps[region].values()), dtype=np.intp)
        moved_components[positions[tid]] = table[components[positions[cid]]]
    moved = np.ravel_multi_index(moved_components, ext.carrier.sizes)

    for region, image in targets.items():
        cid, tid = ids_by_region[region], ids_by_region[image]
        for b_idx, b in enumerate(cc.algebra(cid).basis):
            before = embed(b, cid, ext).values
            after = embed(alpha(b), tid, ext).values
            if np.any(np.abs(after[moved] - before) > spectral_tol(net.tol)):
                report.add(
                    "net.covariance",
                    f"extension automorphism fails on basis element {b_idx} of context at {region.label()}",
                )
    return report


# ---------------------------------------------------------------------------
# inductive limit and the region-to-whole square


def inductive_limit(net: LocalNet) -> MatrixStarAlgebra:
    """Algebra generated by every local algebra of the net."""
    gens = []
    for region in net.regions():
        gens.extend(net.algebra(region).basis)
    return generate_algebra(gens, net.dim, net.tol, dim_cap=net.dim)


def check_lc_square(sub: Region, whole: Region, net: LocalNet) -> ValidationReport:
    """The two ways from a subregion to the whole agree.

    Path one includes the assigned subregion algebra into the whole's
    algebra; path two embeds the region first and applies the net's local
    rule.  Both must give the same subalgebra span.
    """
    if not whole.contains(sub):
        raise DomainError(f"region {sub.label()} is not inside {whole.label()}")
    report = ValidationReport()
    if sub not in net.assignment or whole not in net.assignment:
        raise DomainError("both regions must belong to the net")
    if not net.includes(sub, whole):
        report.add(
            "net.lcsquare",
            f"algebra of {sub.label()} does not include into algebra of {whole.label()}",
        )
    if net.builder is not None and not net.matches_reference(sub):
        report.add(
            "net.lcsquare",
            f"assigned algebra of {sub.label()} differs from the region rule applied inside {whole.label()}",
        )
    return report


def spectrum_multiplicativity(net: LocalNet, parts: list, seed: int = 0) -> tuple:
    """(character count of the composite, product of the part counts)."""
    composite = composite_context(net, parts)
    count = len(gelfand_spectrum(composite, seed=seed))
    expected = 1
    for _, alg in parts:
        expected *= len(gelfand_spectrum(alg, seed=seed))
    return count, expected
