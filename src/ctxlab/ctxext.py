"""The limit extension of a context family and its product-measure states.

The extension carrier is the product of the context character spaces; its
function algebra contains every context through component-wise embedding,
and any density matrix extends to a product measure whose marginals are
the Born weights.  Evaluation of embedded observables then reproduces the
ambient expectation values exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DomainError, InputError
from .fincat import Diagram, discrete_category, poset_category
from .linalg import as_matrix, require_state
from .presheaf import build_spectral_presheaf
from .staralg import ContextCategory

CARRIER_CAP = 10**6


@dataclass
class ProductSpectrum:
    """All tuples of characters, one per context, in context order.

    Only the sizes are stored: a point's position is its mixed-radix index
    (C order, the last context varying fastest, as in ``itertools.product``).
    """

    context_ids: list
    sizes: list

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @property
    def points(self) -> list:
        return list(itertools.product(*[range(s) for s in self.sizes]))

    def position(self, ctx_id: str) -> int:
        return self.context_ids.index(ctx_id)


@dataclass
class Element:
    """A dense complex-valued function on the carrier points."""

    carrier: ProductSpectrum
    values: np.ndarray

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.carrier is not self.carrier and other.carrier.sizes != self.carrier.sizes:
                raise DomainError("elements live on different carriers")
            return other.values
        return complex(other)

    def __mul__(self, other):
        return Element(self.carrier, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Element(self.carrier, self.values + self._coerce(other))

    def __sub__(self, other):
        return Element(self.carrier, self.values - self._coerce(other))

    def conj(self) -> "Element":
        return Element(self.carrier, self.values.conj())


@dataclass
class ExtendedAlgebra:
    """Function algebra on the product of the context character spaces."""

    cc: ContextCategory
    carrier: ProductSpectrum
    spectra: dict

    def unit(self) -> Element:
        return Element(self.carrier, np.ones(self.carrier.size, dtype=complex))

    def restricted(self, sub_ids: list) -> "ExtendedAlgebra":
        """Extension over a sub-family of contexts, reusing computed spectra."""
        missing = [c for c in sub_ids if c not in self.carrier.context_ids]
        if missing:
            raise InputError(f"unknown contexts {missing}")
        if len(set(sub_ids)) != len(sub_ids):
            raise InputError(f"contexts listed twice in {list(sub_ids)}")
        carrier = ProductSpectrum(list(sub_ids), [len(self.spectra[c]) for c in sub_ids])
        return ExtendedAlgebra(self.cc, carrier, {c: self.spectra[c] for c in sub_ids})


@dataclass
class ExtendedState:
    """A probability weight per carrier point, extending a density matrix."""

    carrier: ProductSpectrum
    weights: np.ndarray
    source: np.ndarray
    marginals: dict


def build_limit_extension(cc: ContextCategory, cap: int = CARRIER_CAP) -> ExtendedAlgebra:
    """Carrier = product of the context character spaces; refuses above cap."""
    ids = cc.ids()
    spectra = cc.spectra()
    carrier = ProductSpectrum(ids, [len(spectra[cid]) for cid in ids])
    if carrier.size > cap:
        raise CapExceeded("product carrier", carrier.size, cap)
    return ExtendedAlgebra(cc, carrier, spectra)


def embed(a, ctx_id: str, ext: ExtendedAlgebra) -> Element:
    """Component-wise embedding: the value at a point is the context
    character's value on ``a``; a unital *-homomorphism on that context."""
    alg = ext.cc.algebra(ctx_id)
    m = as_matrix(a, alg.dim)
    if not alg.contains(m):
        raise DomainError(f"matrix lies outside the span of context {ctx_id}")
    char_values = np.array([chi.value_of(m) for chi in ext.spectra[ctx_id]])
    axis = [1] * len(ext.carrier.sizes)
    axis[ext.carrier.position(ctx_id)] = len(char_values)
    return Element(ext.carrier, np.broadcast_to(char_values.reshape(axis), ext.carrier.sizes).flatten())


def extend_state(rho, ext: ExtendedAlgebra) -> ExtendedState:
    """Product measure of the per-context Born marginals of ``rho``."""
    r = require_state(rho, ext.cc.ambient.dim)
    marginals = {}
    for cid in ext.carrier.context_ids:
        weights = np.array(
            [float(np.trace(r @ chi.projection).real) for chi in ext.spectra[cid]]
        )
        marginals[cid] = np.clip(weights, 0.0, None)
    total = np.ones(())
    for cid in ext.carrier.context_ids:
        total = np.multiply.outer(total, marginals[cid])
    return ExtendedState(ext.carrier, total.ravel(), r, marginals)


def evaluate_state(mu: ExtendedState, e: Element) -> complex:
    """Finite integral: sum of element values against the point weights."""
    if e.carrier is not mu.carrier and e.carrier.sizes != mu.carrier.sizes:
        raise DomainError("element and state live on different carriers")
    return complex(np.dot(e.values, mu.weights))


def point_valuation(a, v1: str, v2: str, x, ext: ExtendedAlgebra) -> tuple:
    """Values of ``a`` at point ``x`` read through two different contexts.

    ``x`` is a carrier point (tuple of character indices) or its position.
    The pair may differ: the extension separates (A, V1) from (A, V2).
    """
    e1 = embed(a, v1, ext)
    e2 = embed(a, v2, ext)
    if isinstance(x, (int, np.integer)):
        if not 0 <= x < ext.carrier.size:
            raise DomainError(f"position {x} is not in the carrier of {ext.carrier.size} points")
        idx = x
    else:
        try:
            idx = np.ravel_multi_index(tuple(x), ext.carrier.sizes)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"point {x!r} is not in the carrier") from exc
    return complex(e1.values[idx]), complex(e2.values[idx])


def marginalize_state(mu: ExtendedState, ext: ExtendedAlgebra, sub_ext: ExtendedAlgebra) -> ExtendedState:
    """Push a state forward onto the extension of a sub-family of contexts."""
    positions = [ext.carrier.position(c) for c in sub_ext.carrier.context_ids]
    dropped = tuple(p for p in range(len(ext.carrier.sizes)) if p not in positions)
    kept = sorted(positions)
    summed = mu.weights.reshape(ext.carrier.sizes).sum(axis=dropped)
    weights = summed.transpose([kept.index(p) for p in positions]).ravel()
    marginals = {c: mu.marginals[c] for c in sub_ext.carrier.context_ids}
    return ExtendedState(sub_ext.carrier, weights, mu.source, marginals)


# ---------------------------------------------------------------------------
# JSON views


def carrier_to_json(ext: ExtendedAlgebra) -> list:
    """Carrier points as {context id: character index} records."""
    ids = ext.carrier.context_ids
    return [dict(zip(ids, pt)) for pt in ext.carrier.points]


def state_to_json(mu: ExtendedState) -> dict:
    return {
        "weights": np.round(mu.weights, 14).tolist(),
        "marginals": {cid: np.round(marg, 14).tolist() for cid, marg in mu.marginals.items()},
    }


def element_to_json(e: Element) -> list:
    return [[float(np.round(v.real, 14)), float(np.round(v.imag, 14))] for v in e.values]


# ---------------------------------------------------------------------------
# bridge to the finite-category engine


def spectrum_diagram(ext: ExtendedAlgebra, with_restrictions: bool = False) -> Diagram:
    """The context spectra as a concrete diagram.

    Discrete by default (its limit is the full product carrier); with
    restriction arrows sup -> sub, mapped by the spectral presheaf's
    restriction tables, the limit is the compatible-tuple subset.
    """
    ids = ext.carrier.context_ids
    carriers = {cid: list(range(len(ext.spectra[cid]))) for cid in ids}
    if not with_restrictions:
        return Diagram(discrete_category(ids), carriers)
    index = poset_category(ids, lambda a, b: ext.cc.leq(b, a))
    tables = build_spectral_presheaf(ext.cc).restrictions
    maps = {
        index.homs[(sup, sub)][0]: table
        for (sub, sup), table in tables.items()
        if sub in carriers and sup in carriers
    }
    return Diagram(index, carriers, maps)
