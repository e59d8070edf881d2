"""A toy net of observable algebras on a chain of qubit sites.

Regions are site intervals (shadows of causal diamonds on a 1-d slice);
the standard assignment gives each region the full matrix algebra on its
sites tensored with the identity elsewhere.  Isotony, locality for
disjoint regions, cyclic-translation covariance (including its action on
the context extension), and the square relating a region's algebra to the
whole are all checked, never assumed.

A region generated by Pauli strings is built exactly.  A string is
``X^x Z^z`` up to a phase, with ``x`` and ``z`` the bit masks of its flips
and phase flips (site 0 the high bit).  Products of strings are strings
up to phases, so the *-algebra that strings generate is spanned by the
subgroup that their ``(x, z)`` pairs generate over GF(2): ``2**rank``
strings.  A ``PauliAlgebra`` keeps these strings, and its rows are the
normalized Hermitian strings in ``itertools.product("IXYZ")`` order,
built the first time they are read.
Between two such algebras, inclusion is a subset test and equality a set
test.  Two strings commute iff ``popcount(x & z') + popcount(z & x')`` is
even, and two anticommuting normalized strings have a commutator of
operator norm ``2 / d >= 1/32`` on at most ``MAX_SITES`` sites, far above
any allowed tolerance; so locality between them is decided string by
string, with no dense commutator.  Every other algebra (one not spanned by
strings, a rotated one, or one built by hand) takes the dense tests of
``staralg``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .linalg import DEFAULT_TOL, as_matrix, opnorm
from .staralg import (
    MatrixStarAlgebra,
    algebra_span_equal,
    algebra_span_leq,
    commuting,
    comparison_tol,
    context_algebra,
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
# Longest chain a net may have.  Pauli regions build their rows only when
# read, so the standard net's checks need no cap this low; the dense
# fallback of ``region_algebras`` does: its ``generate_algebra`` closure, at
# ``dim_cap=2**length``, which never refuses, forms n**2 product rows of
# 4**length entries a round, 2.6 GB at 5 sites for a round of 400 rows.
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


# ---------------------------------------------------------------------------
# algebras spanned by Pauli strings


def _popcount(masks: np.ndarray, length: int) -> np.ndarray:
    """Set bits of each ``length``-bit mask."""
    return sum((masks >> k) & 1 for k in range(length))


def _string_rows(strings, length: int) -> np.ndarray:
    """The normalized Hermitian strings of the ``(x, z)`` mask pairs, as
    rows.  The string ``i^popcount(x & z) X^x Z^z`` (``Y = i X Z``) maps
    column ``c`` to row ``c ^ x``, times ``i^popcount(x & z) (-1)^popcount(z & c)``."""
    d = 2**length
    x, z = np.asarray(strings, dtype=np.intp).reshape(-1, 2).T
    cols = np.arange(d)
    phases = np.array([1, 1j, -1, -1j])[_popcount(x & z, length) % 4]
    signs = 1 - 2 * (_popcount(z[:, None] & cols, length) % 2)
    rows = np.zeros((len(x), d, d), dtype=complex)
    rows[np.arange(len(x))[:, None], cols ^ x[:, None], cols] = (phases[:, None] * signs) / np.sqrt(d)
    return rows.reshape(len(x), d * d)


def _pauli_subgroup(strings, length: int) -> list:
    """The ``(x, z)`` pairs of the subgroup that the strings generate,
    modulo phases, in "IXYZ" order: a GF(2) row reduction of the
    ``2 * length``-bit vectors ``x z``, then every sum of the reduced rows,
    sorted by the base-4 digits 0, 1, 2, 3 of I, X, Y, Z at each site."""
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


def _pauli_terms(stack: np.ndarray, length: int, tol: float) -> list:
    """For each matrix ``g`` of the stack, the ``(x, z)`` masks of the
    string ``P`` that it is a multiple of, or None: ``g`` is one when
    ``|g - c P|_F <= tol |g|_F`` for its projection ``c P``.  ``x`` is read
    from the largest entry of column 0, each bit of ``z`` from the sign of
    ``g[c ^ x, c] / g[x, 0]`` at the one-bit column ``c``.  A zero ``g``
    reads as the identity, ``(0, 0)``; a ``g`` with a zero column 0 as None."""
    n, d = len(stack), 2**length
    flat = stack.reshape(n, d * d)
    norms = np.linalg.norm(flat, axis=1)
    x = np.argmax(np.abs(stack[:, :, 0]), axis=1)
    lead = stack[np.arange(n), x, 0]
    bits = 1 << np.arange(length)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = stack[np.arange(n)[:, None], bits ^ x[:, None], bits] / lead[:, None]
    z = (bits * (ratios.real < 0)).sum(axis=1)
    rows = _string_rows(np.stack([x, z], axis=1), length)
    coeffs = np.einsum("ij,ij->i", rows.conj(), flat)
    ok = np.linalg.norm(flat - coeffs[:, None] * rows, axis=1) <= tol * norms
    return [(0, 0) if norm == 0 else (int(xk), int(zk)) if lead_k != 0 and ok_k else None
            for norm, xk, zk, lead_k, ok_k in zip(norms, x, z, lead, ok)]


class PauliAlgebra(MatrixStarAlgebra):
    """A *-algebra spanned by Pauli strings; ``strings`` holds the
    ``(x, z)`` masks of its rows, which are the normalized Hermitian
    strings in "IXYZ" order, built when first read.  Build it with
    ``generated``."""

    strings: tuple = ()

    @classmethod
    def generated(cls, strings, length: int, tol: float = DEFAULT_TOL) -> "PauliAlgebra":
        """The *-algebra that the strings (``(x, z)`` masks) generate."""
        group = _pauli_subgroup(strings, length)
        alg = cls.from_rows(2**length, len(group), lambda: _string_rows(group, length), tol)
        alg.strings = tuple(group)
        return alg


def region_algebras(regions: list, length: int, tol: float = DEFAULT_TOL) -> list:
    """For each list of generators, the *-algebra that they generate:
    exactly, from their strings, when each is a multiple of one Pauli
    string, and by the dense closure of ``generate_algebra`` otherwise.
    The strings of every generator are read in one pass (``_pauli_terms``)."""
    d = 2**length
    regions = [[as_matrix(g, d) for g in gens] for gens in regions]
    stack = np.array([g for gens in regions for g in gens], dtype=complex).reshape(-1, d, d)
    strings = iter(_pauli_terms(stack, length, tol))
    algebras = []
    for gens in regions:
        found = [next(strings) for _ in gens]
        if None in found:
            algebras.append(generate_algebra(gens, d, tol, dim_cap=d))
        else:
            algebras.append(PauliAlgebra.generated(found, length, tol))
    return algebras


def standard_region_algebra(region: Region, length: int, tol: float = DEFAULT_TOL) -> MatrixStarAlgebra:
    """Full matrix algebra on the region's sites, identity on the rest: the
    strings inside the region, generated by each site's X and Z."""
    sites = [1 << length - 1 - k for k in region.sites()]
    return PauliAlgebra.generated([(b, 0) for b in sites] + [(0, b) for b in sites], length, tol)


def _strings(alg: MatrixStarAlgebra, length: int):
    """The strings of a ``PauliAlgebra`` on the chain, as a set, or None."""
    return frozenset(alg.strings) if isinstance(alg, PauliAlgebra) and alg.dim == 2**length else None


def anticommuting_pairs(a: PauliAlgebra, b: PauliAlgebra, length: int) -> np.ndarray:
    """Row index pairs ``(i, j)`` of the anticommuting strings of ``a`` and
    ``b``, in row-major order."""
    xa, za = np.array(a.strings, dtype=np.intp).reshape(-1, 2).T
    xb, zb = np.array(b.strings, dtype=np.intp).reshape(-1, 2).T
    odd = (_popcount(xa[:, None] & zb, length) + _popcount(za[:, None] & xb, length)) % 2
    return np.argwhere(odd)


@dataclass
class LocalNet:
    """Region -> algebra assignment on a chain of ``length`` qubit sites.

    ``builder`` is the local rule used as the reference when checking that
    assigning a region agrees with assigning it as a part of the whole.
    Each inclusion between two regions and each comparison with the rule
    is decided once and kept: between two ``PauliAlgebra``s from their
    strings, otherwise by the dense span tests.
    """

    length: int
    assignment: dict
    builder: object = field(default=None, repr=False)
    tol: float = DEFAULT_TOL
    _inclusions: dict = field(default_factory=dict, repr=False, compare=False)
    _matches: dict = field(default_factory=dict, repr=False, compare=False)

    def regions(self) -> list:
        return sorted(self.assignment.keys())

    def algebra(self, region: Region) -> MatrixStarAlgebra:
        return self.assignment[region]

    def support(self, region: Region):
        """The set of strings of the region's algebra, or None without them."""
        return _strings(self.algebra(region), self.length)

    def includes(self, small: Region, big: Region) -> bool:
        """Whether the algebra of ``small`` lies in the algebra of ``big``."""
        key = (small, big)
        if key not in self._inclusions:
            self._inclusions[key] = self._include(small, big)
        return self._inclusions[key]

    def _include(self, small: Region, big: Region) -> bool:
        sub, sup = self.support(small), self.support(big)
        if sub is not None and sup is not None:
            return sub <= sup
        return algebra_span_leq(self.algebra(small), self.algebra(big))

    def matches_reference(self, region: Region) -> bool:
        """Whether the assigned algebra of ``region`` spans the builder's
        algebra for it."""
        if region not in self._matches:
            reference = self.builder(region)
            mine, theirs = self.support(region), _strings(reference, self.length)
            if mine is not None and theirs is not None:
                self._matches[region] = mine == theirs
            else:
                self._matches[region] = algebra_span_equal(self.algebra(region), reference)
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


def check_locality(net: LocalNet) -> ValidationReport:
    """Algebras of disjoint regions must commute elementwise: a pair of
    ``PauliAlgebra``s by ``anticommuting_pairs``, any other pair by
    ``commuting`` on their bases at the pair's ``comparison_tol``.  Each
    clashing basis pair is reported, row-major."""
    report = ValidationReport()
    regions = net.regions()
    for i, left in enumerate(regions):
        for right in regions[i + 1 :]:
            if not left.disjoint(right):
                continue
            a, b = net.algebra(left), net.algebra(right)
            if net.support(left) is not None and net.support(right) is not None:
                clashes = anticommuting_pairs(a, b, net.length)
            else:
                clashes = np.argwhere(~commuting(a.basis, b.basis, comparison_tol(a, b)))
            for ai, bi in clashes:
                report.add(
                    "net.locality",
                    f"basis elements {ai} of {left.label()} and {bi} of {right.label()} do not commute",
                )
    return report


def composite_context(net: LocalNet, parts: list) -> MatrixStarAlgebra:
    """Context spanning several mutually disjoint regions.

    ``parts`` is a list of (Region, commutative subalgebra of that region's
    algebra); the algebra their bases generate is built from its atoms
    (``context_algebra``), which refuses it unless it is commutative.
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
        if not algebra_span_leq(alg, net.algebra(region)):
            raise DomainError(f"context on {region.label()} leaves its region algebra")
        gens.extend(alg.basis)
    return context_algebra(gens, net.dim, net.tol)


# ---------------------------------------------------------------------------
# translation covariance


def translation_unitary(shift: int, length: int) -> np.ndarray:
    """Permutation matrix moving site j to site (j + shift) mod length."""
    d, weights = 2**length, 1 << np.arange(length - 1, -1, -1)  # site 0 the high bit
    bits = (np.arange(d)[:, None] & weights) != 0
    u = np.zeros((d, d), dtype=complex)
    u[np.roll(bits, shift, axis=1) @ weights, np.arange(d)] = 1.0
    return u


def shifted_region(region: Region, shift: int, length: int):
    """Image of a region under the site translation; None if it wraps."""
    sites = sorted(((j + shift) % length) for j in region.sites())
    if sites == list(range(sites[0], sites[0] + len(sites))):
        return Region(sites[0], sites[-1])
    return None


def check_covariance(net: LocalNet, shift: int, contexts: list) -> ValidationReport:
    """Translation covariance of a context family and of its extension.

    The conjugation by the shift permutation must map every context algebra
    onto the context at the shifted region, and each of its characters
    (from the split of its basis, ``context_algebra``) onto one character
    of the translate.  The permuted product carrier then intertwines the
    embeddings iff, as checked, each character's reading of a basis element
    ``b`` equals its translate's reading of ``alpha(b)``, all at ``comparison_tol``.
    """
    report = ValidationReport()
    u = translation_unitary(shift, net.length)
    ud = u.conj().T

    def alpha(m):
        return u @ m @ ud

    family = {region: alg for region, alg in contexts}
    targets = {}
    for region, alg in contexts:
        image = shifted_region(region, shift, net.length)
        if image is None or image not in family:
            report.add(
                "net.covariance",
                f"context at {region.label()} has no translate in the family (orphan context)",
            )
            continue
        moved = MatrixStarAlgebra(net.dim, [alpha(b) for b in alg.basis], net.tol)
        if not algebra_span_equal(moved, family[image]):
            report.add(
                "net.covariance",
                f"translate of the context at {region.label()} differs from the context at {image.label()}",
            )
            continue
        targets[region] = image
    if not report.ok:
        return report

    split = {}
    for region, alg in contexts:
        split[region] = context_algebra(alg.basis, net.dim, net.tol)
        if not algebra_span_equal(split[region], alg):
            raise DomainError(f"context at {region.label()} matches no context built from its generators")
    chars = {region: gelfand_spectrum(alg) for region, alg in split.items()}
    translates = {}
    for region, image in targets.items():
        translates[region], limit = [], comparison_tol(split[region], split[image])
        for i, chi in enumerate(chars[region]):
            moved = alpha(chi.projection)
            hits = [tchi for tchi in chars[image] if opnorm(moved - tchi.projection) <= limit]
            if len(hits) != 1:
                report.add(
                    "net.covariance",
                    f"character {i} of the context at {region.label()} has no unique translate",
                )
            translates[region] += hits[:1]
    if not report.ok:
        return report

    for region, image in targets.items():
        basis = split[region].basis
        moved = np.stack([alpha(b) for b in basis])
        if not split[image].contains(moved):
            raise DomainError(f"translated basis of the context at {region.label()} leaves {image.label()}")
        for b_idx, (b, m) in enumerate(zip(basis, moved)):
            before, after = _readings(chars[region], b), _readings(translates[region], m)
            if np.any(np.abs(after - before) > comparison_tol(split[region], split[image])):
                report.add(
                    "net.covariance",
                    f"extension automorphism fails on basis element {b_idx} of context at {region.label()}",
                )
    return report


def _readings(chars: list, m: np.ndarray) -> np.ndarray:
    """Each character's value on ``m``."""
    return np.array([chi.value_of(m) for chi in chars])


# ---------------------------------------------------------------------------
# the region-to-whole square


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


def spectrum_multiplicativity(net: LocalNet, parts: list) -> tuple:
    """(character count of the composite, product of the part counts)."""
    composite = composite_context(net, parts)
    count = len(gelfand_spectrum(composite))
    expected = 1
    for _, alg in parts:
        expected *= len(gelfand_spectrum(alg))
    return count, expected
