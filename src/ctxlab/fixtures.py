"""Canonical cone instances built from live algebra data.

Each builder returns a concrete (diagram, cone) pair that passes
``check_cone``, plus a corrupted variant whose single deliberate defect is
reported with its location:

* ``extension_triangle_fixture``: a context family's spectra with their
  restriction maps, coned over by the compatible-tuple carrier of the
  limit extension.
* ``covariant_square_fixture``: region inclusion versus algebra inclusion
  on the qubit chain, glued by the classical-configuration readout.
* ``spectrum_coarsening_fixture``: a fine context restricting onto a
  coarse one, with a section of the restriction as the second leg.
* ``weyl_inclusion_fixture``: a commuting smearing family embedded into
  two copy counts of the Fock sector, related by zero-padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctxext import build_limit_extension, spectrum_diagram
from .fincat import Cone, Diagram, cone_from_legs, limit_of_diagram, poset_category
from .gft import PolyhedronSpace, second_quantization_cone
from .locnet import PAULI, pauli_string
from .staralg import context_category, context_category_from_groups, full_matrix_algebra


@dataclass
class ConeFixture:
    name: str
    diagram: Diagram
    cone: Cone


def _swap_two_values(table: dict) -> dict:
    """Swap the outputs of the first two keys with distinct values."""
    keys = list(table.keys())
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if table[a] != table[b]:
                out = dict(table)
                out[a], out[b] = table[b], table[a]
                return out
    raise ValueError("no two entries with distinct values to swap")


def _coarsening(fine: list, coarse: list) -> tuple:
    """The characters of the contexts that two groups of commuting
    dimension-4 matrices generate, the second inside the first, and the
    restriction map from the fine characters to the coarse ones, as a dict."""
    cc = context_category_from_groups(full_matrix_algebra(4), [fine, coarse])
    return cc.spectra["V0"], cc.spectra["V1"], dict(enumerate(cc.restrictions[("V1", "V0")]))


def extension_triangle_fixture(corrupted: bool = False) -> ConeFixture:
    """Contexts in dimension 4 with a shared subcontext; the compatible
    tuples of the restriction diagram cone over every spectrum at once.

    The corrupted variant swaps two outputs of one restriction map, so the
    legs no longer commute through that arrow.
    """
    ambient = full_matrix_algebra(4)
    seeds = [
        np.kron(PAULI["Z"], np.eye(2)),
        np.kron(np.eye(2), PAULI["Z"]),
        np.kron(PAULI["X"], np.eye(2)),
    ]
    cc = context_category(ambient, seeds)
    ext = build_limit_extension(cc)
    diagram = spectrum_diagram(ext, with_restrictions=True)
    cone = limit_of_diagram(diagram)
    if corrupted:
        target = next(
            m
            for m, src, dst in diagram.index.arrows()
            if len(set(diagram.map_of(m).values())) >= 2
        )
        maps = dict(diagram.maps)
        maps[target] = _swap_two_values(diagram.map_of(target))
        diagram = Diagram(diagram.index, diagram.carriers, maps)
    return ConeFixture("extension_triangle", diagram, cone)


def covariant_square_fixture(corrupted: bool = False) -> ConeFixture:
    """Region-then-algebra versus algebra-then-restriction on a 2-site chain.

    Corners: classical configurations of the whole chain and of site 0,
    and the character spaces of the diagonal algebras on each.  The square
    commutes; the corrupted variant rewires the sub-corner readout (both
    the edge and the diagonal, keeping the diagram a functor), which
    breaks the cone triangles through that corner.
    """
    length = 2
    z0, z1 = pauli_string({0: "Z"}, length), pauli_string({1: "Z"}, length)
    chars_whole, chars_sub, res_alg = _coarsening([z0, z1], [z0])

    confs_whole = [(b0, b1) for b0 in (0, 1) for b1 in (0, 1)]
    confs_sub = [(0,), (1,)]

    def bit_of(value: complex) -> int:
        return 0 if value.real > 0 else 1

    quant_whole = {
        conf: next(
            i
            for i, chi in enumerate(chars_whole)
            if (bit_of(chi.value_of(z0)), bit_of(chi.value_of(z1))) == conf
        )
        for conf in confs_whole
    }
    quant_sub = {
        conf: next(
            i for i, chi in enumerate(chars_sub) if (bit_of(chi.value_of(z0)),) == conf
        )
        for conf in confs_sub
    }
    restrict_conf = {conf: (conf[0],) for conf in confs_whole}

    square = {("reg_M", "reg_U"), ("reg_U", "alg_U"), ("reg_M", "alg_M"), ("alg_M", "alg_U"), ("reg_M", "alg_U")}
    index = poset_category(["reg_M", "reg_U", "alg_M", "alg_U"], lambda a, b: a == b or (a, b) in square)
    quant_u_map = {conf: quant_sub[conf] for conf in confs_sub}
    corner_map = {conf: quant_sub[restrict_conf[conf]] for conf in confs_whole}
    if corrupted:
        # rewire every map into the alg_U corner: the diagram stays a
        # functor, but the cone's alg_U leg no longer matches
        flip = {0: 1, 1: 0}
        quant_u_map = {conf: flip[v] for conf, v in quant_u_map.items()}
        corner_map = {conf: flip[v] for conf, v in corner_map.items()}
        res_alg = {i: flip[v] for i, v in res_alg.items()}
    diagram = Diagram(
        index,
        {
            "reg_M": confs_whole,
            "reg_U": confs_sub,
            "alg_M": list(range(len(chars_whole))),
            "alg_U": list(range(len(chars_sub))),
        },
        {
            "reg_M<=reg_U": restrict_conf,
            "reg_U<=alg_U": quant_u_map,
            "reg_M<=alg_M": quant_whole,
            "alg_M<=alg_U": res_alg,
            "reg_M<=alg_U": corner_map,
        },
    )
    cone = cone_from_legs(diagram, list(confs_whole), {
        "reg_M": {c: c for c in confs_whole},
        "reg_U": restrict_conf,
        "alg_M": quant_whole,
        "alg_U": {c: quant_sub[restrict_conf[c]] for c in confs_whole},
    })
    return ConeFixture("covariant_square", diagram, cone)


def spectrum_coarsening_fixture(corrupted: bool = False) -> ConeFixture:
    """A coarse spectrum coning over itself and a refining spectrum.

    One leg is the identity, the other is a section of the restriction
    map; the corrupted variant picks an incompatible section value.
    """
    z0, z1 = np.kron(PAULI["Z"], np.eye(2)), np.kron(np.eye(2), PAULI["Z"])
    chars_fine, chars_coarse, res = _coarsening([z0, z1], [z0])

    index = poset_category(["fine", "coarse"], lambda a, b: a == b or (a, b) == ("fine", "coarse"))
    diagram = Diagram(
        index,
        {"fine": list(range(len(chars_fine))), "coarse": list(range(len(chars_coarse)))},
        {"fine<=coarse": res},
    )
    section = {}
    for i in range(len(chars_coarse)):
        matching = [j for j, target in res.items() if target == i]
        section[i] = matching[0]
    if corrupted:
        wrong = [j for j, target in res.items() if target != 0]
        section[0] = wrong[0]
    cone = cone_from_legs(diagram, list(range(len(chars_coarse))),
                          {"coarse": {i: i for i in range(len(chars_coarse))}, "fine": section})
    return ConeFixture("spectrum_coarsening", diagram, cone)


def weyl_inclusion_fixture(corrupted: bool = False) -> ConeFixture:
    """Copy-count inclusion cone of a real smearing family (m=2, n=2)."""
    space = PolyhedronSpace(2, 2)
    fns = [
        np.ones(space.size),
        np.array([1.0, -1.0, 1.0, -1.0]),
    ]
    built = second_quantization_cone(1, 2, fns, space, corrupt=corrupted)
    return ConeFixture("weyl_inclusion", built.diagram, built.cone)


ALL_FIXTURES = {
    "extension_triangle": extension_triangle_fixture,
    "covariant_square": covariant_square_fixture,
    "spectrum_coarsening": spectrum_coarsening_fixture,
    "weyl_inclusion": weyl_inclusion_fixture,
}
