"""Command-line surface: JSON specs in, JSON/DOT/text reports out.

Exit status: 0 on success, 1 when a check reports violations (the report
is still emitted), 2 on input errors.  All randomness is controlled by
``--seed``, so identical inputs and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys

import numpy as np

from . import fincat, gft, locnet, presheaf, realism
from .ctxext import (
    build_limit_extension,
    carrier_to_json,
    embed,
    evaluate_state,
    extend_state,
    spectrum_diagram,
    state_to_json,
)
from .errors import InputError, ToolError
from .linalg import DEFAULT_TOL, check_tolerance
from .staralg import context_category, full_matrix_algebra, generate_algebra, gelfand_spectrum


# Report bounds, fixed because they mirror the acceptance criteria: the
# expectation defect of state-extend that exits 0, the guarded CCR defect
# of gft-ccr (``within_1e-10``), and the slack of ``classical_bound_holds``.
STATE_EXTEND_BOUND = 1e-8
CCR_BOUND = 1e-10
CLASSICAL_BOUND_SLACK = 1e-12


# ---------------------------------------------------------------------------
# JSON matrix formats


def parse_matrix(data) -> np.ndarray:
    """Row-major entries, each a finite number or an [re, im] pair of them.

    JSON from Python may hold NaN and +-Infinity, and Python takes ``true``
    and ``false`` for the numbers 1 and 0; such an entry is refused
    (InputError) with its row and column.
    """
    try:
        rows = []
        for i, row in enumerate(data):
            out = []
            for j, cell in enumerate(row):
                if isinstance(cell, (int, float)):
                    boolean = cell is True or cell is False
                    value = complex(cell)
                else:
                    re, im = cell
                    boolean = re is True or re is False or im is True or im is False
                    value = complex(re, im)
                if boolean:
                    raise InputError(f"matrix entry at row {i}, column {j} is a boolean, not a number: {cell!r}")
                if not cmath.isfinite(value):
                    raise InputError(f"matrix entry at row {i}, column {j} is not finite: {cell!r}")
                out.append(value)
            rows.append(out)
        mat = np.array(rows, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError(f"matrix JSON is not square: shape {mat.shape}")
    return mat


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(np.round(c.real, 12)), float(np.round(c.imag, 12))] for c in row] for row in m]


def load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path!r}: {exc}") from exc


def load_algebra_spec(path: str, wanted: str | None):
    """Algebra spec: {'dim': d, 'seeds': {name: matrix, ...}}."""
    data = load_json(path)
    try:
        dim = int(data["dim"])
        seed_map = {name: parse_matrix(m) for name, m in data["seeds"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra spec {path!r}: {exc}") from exc
    if wanted is None:
        names = sorted(seed_map)
    else:
        names = [n.strip() for n in wanted.split(",") if n.strip()]
        missing = [n for n in names if n not in seed_map]
        if missing:
            raise InputError(f"unknown seed names {missing} in {path!r}")
    return dim, [seed_map[n] for n in names], names


def emit(report: dict, args: argparse.Namespace) -> None:
    if args.output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_cat_check(args: argparse.Namespace) -> int:
    if args.category:
        target = fincat.category_from_json(load_json(args.category))
        result = fincat.check_category(target)
    elif args.functor:
        target = fincat.functor_from_json(load_json(args.functor))
        result = fincat.check_functor(target)
    else:
        target = fincat.diagram_from_json(load_json(args.diagram))
        result = fincat.check_diagram(target)
    emit({"check": "category" if args.category else "functor" if args.functor else "diagram",
          **result.to_json()}, args)
    return 0 if result.ok else 1


def _context_category_from_args(args: argparse.Namespace):
    dim, seeds, names = load_algebra_spec(args.algebra, args.seeds)
    ambient = full_matrix_algebra(dim, args.tolerance)
    return context_category(ambient, seeds, seed=args.seed), names


def cmd_limit(args: argparse.Namespace) -> int:
    cc, names = _context_category_from_args(args)
    ext = build_limit_extension(cc, cap=args.carrier_cap)
    report = {
        "seeds": names,
        "contexts": {cid: len(ext.spectra[cid]) for cid in cc.ids()},
        "carrier_points": ext.carrier.size,
    }
    if args.points:
        report["points"] = carrier_to_json(ext)
    if args.restrictions or args.check_universal:
        diagram = spectrum_diagram(ext, with_restrictions=args.restrictions)
        cone = fincat.limit_of_diagram(diagram)
        if args.restrictions:
            report["compatible_points"] = len(cone.apex)
        if args.check_universal:
            cones = fincat.enumerate_cones(diagram, args.apex_bound)
            report["universal"] = fincat.check_universal_property(cone, diagram, cones)
            report["apex_bound"] = args.apex_bound
    emit(report, args)
    return 0 if report.get("universal", True) else 1


def cmd_state_extend(args: argparse.Namespace) -> int:
    cc, names = _context_category_from_args(args)
    rho = parse_matrix(load_json(args.state))
    ext = build_limit_extension(cc, cap=args.carrier_cap)
    mu = extend_state(rho, ext)
    checks = []
    for cid in cc.ids():
        for b in cc.algebra(cid).basis:
            lhs = evaluate_state(mu, embed(b, cid, ext))
            rhs = complex(np.trace(rho @ b))
            checks.append(abs(lhs - rhs))
    report = {
        "seeds": names,
        "carrier_points": ext.carrier.size,
        "max_expectation_defect": float(np.round(max(checks), 14)),
        **state_to_json(mu),
    }
    emit(report, args)
    return 0 if max(checks) <= STATE_EXTEND_BOUND else 1


def cmd_ks_check(args: argparse.Namespace) -> int:
    if args.max_sections < 1:
        raise InputError(f"--max-sections must be at least 1, got {args.max_sections}")
    if os.path.exists(args.fixture):
        data = load_json(args.fixture)
    else:
        data = presheaf.bundled_fixture(os.path.basename(args.fixture))
    dim, bases = presheaf.load_ray_fixture(data)
    cc = presheaf.ray_family_context_category(dim, bases, args.tolerance, seed=args.seed)
    sheaf = presheaf.build_spectral_presheaf(cc)
    sections = presheaf.global_sections(sheaf, limit=args.max_sections)
    report = {
        "dim": dim,
        "bases": len(bases),
        "contexts": len(cc.ids()),
        "sections": len(sections),
        "section_limit": args.max_sections,
        "obstructed": len(sections) == 0,
        "assignments": [s.assignment for s in sections],
    }
    emit(report, args)
    return 0


def cmd_daseinise(args: argparse.Namespace) -> int:
    dim, seeds, names = load_algebra_spec(args.algebra, args.seeds)
    context = generate_algebra(seeds, dim, args.tolerance)
    proj = parse_matrix(load_json(args.projection))
    chars = gelfand_spectrum(context, seed=args.seed)
    if args.mode == "outer":
        result = presheaf.outer_daseinisation(proj, context, chars)
    else:
        result = presheaf.inner_daseinisation(proj, context, chars)
    emit({"mode": args.mode, "context_seeds": names, "result": matrix_to_json(result)}, args)
    return 0


def load_net_spec(path: str, tol: float) -> "locnet.LocalNet":
    """Custom net spec: {'length': L, 'regions': [{'start', 'stop', 'generators'}]}."""
    data = load_json(path)
    try:
        length = int(data["length"])
        locnet.refuse_long_chain(length)
        assignment = {}
        for entry in data["regions"]:
            region = locnet.Region(int(entry["start"]), int(entry["stop"]))
            if region.start < 0 or region.stop >= length:
                raise InputError(f"net spec {path!r}: region {region.label()} lies outside the chain [0,{length - 1}]")
            if region in assignment:
                raise InputError(f"net spec {path!r}: region {region.label()} is listed twice")
            gens = [parse_matrix(m) for m in entry["generators"]]
            assignment[region] = generate_algebra(gens, 2**length, tol, dim_cap=2**length)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed net spec {path!r}: {exc}") from exc
    return locnet.LocalNet(length, assignment, tol=tol)


def cmd_net_check(args: argparse.Namespace) -> int:
    if args.net:
        net = load_net_spec(args.net, args.tolerance)
    else:
        net = locnet.standard_net(args.chain, tol=args.tolerance)
    isotony = locnet.check_isotony(net)
    locality = locnet.check_locality(net)
    squares = sum(
        (locnet.check_lc_square(s, b, net).violations
         for s in net.regions() for b in net.regions() if b.contains(s)),
        [],
    )
    report = {
        "chain": net.length,
        "regions": len(net.regions()),
        "isotony": isotony.ok,
        "locality": locality.ok,
        "lc_squares": not squares,
    }
    all_violations = isotony.violations + locality.violations + squares
    if not args.net:
        # translation covariance is checked on the standard single-site family
        contexts = [
            (r, generate_algebra([locnet.site_operator(np.diag([1.0, -1.0]).astype(complex), r.start, net.length)],
                                 net.dim, args.tolerance, dim_cap=net.dim))
            for r in net.regions() if r.start == r.stop
        ]
        covariance = locnet.check_covariance(net, args.shift, contexts)
        report["covariance_shift"] = args.shift
        report["covariance"] = covariance.ok
        all_violations = all_violations + covariance.violations
    report["violations"] = [str(v) for v in all_violations]
    emit(report, args)
    return 0 if not all_violations else 1


def _random_function(rng, space) -> np.ndarray:
    return rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)


def cmd_gft_ccr(args: argparse.Namespace) -> int:
    space = gft.PolyhedronSpace(args.m, args.n)
    fock = gft.fock_for(space, args.nmax)
    rng = np.random.default_rng(args.seed)
    pairs = [(_random_function(rng, space), _random_function(rng, space)) for _ in range(args.trials)]
    defects = [gft.ccr_defect(f, g, fock) for f, g in pairs]
    worst = max(defects) if defects else 0.0
    report = {
        "m": args.m,
        "n": args.n,
        "nmax": args.nmax,
        "trials": args.trials,
        "max_guarded_defect": float(np.round(worst, 14)),
        "within_1e-10": worst <= CCR_BOUND,
    }
    emit(report, args)
    return 0 if worst <= CCR_BOUND else 1


def cmd_gft_weyl(args: argparse.Namespace) -> int:
    space = gft.PolyhedronSpace(args.m, args.n)
    rng = np.random.default_rng(args.seed)
    f, g = _random_function(rng, space), _random_function(rng, space)
    f *= args.norm / np.sqrt(abs(gft.inner_product(f, f, space)))
    g *= args.norm / np.sqrt(abs(gft.inner_product(g, g, space)))
    try:
        cutoffs = [int(x) for x in args.sweep.split(",")] if args.sweep else [args.nmax]
    except ValueError as exc:
        raise InputError(f"malformed sweep {args.sweep!r}: {exc}") from exc
    table = {}
    for nmax in cutoffs:
        fock = gft.fock_for(space, nmax)
        table[str(nmax)] = float(np.round(gft.weyl_relation_defect(f, g, fock, args.sector_cap), 14))
    report = {
        "m": args.m,
        "n": args.n,
        "sector_cap": args.sector_cap,
        "norm": args.norm,
        "defects": table,
    }
    emit(report, args)
    return 0


def _load_family(path: str):
    data = load_json(path)
    try:
        groups = []
        for g in data["groups"]:
            a_side = [_load_observable(o) for o in g.get("A", [])]
            b_side = [_load_observable(o) for o in g.get("B", [])]
            groups.append(realism.ObservableGroup(a_side, b_side))
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed family file {path!r}: {exc}") from exc
    return data, realism.ObservableFamily(groups)


def _load_observable(data: dict):
    kind = data.get("type")
    if kind == "carrier":
        return realism.CarrierObservable(np.asarray(data["values"], dtype=float))
    if kind == "matrix":
        return realism.MatrixObservable(parse_matrix(data["matrix"]))
    raise InputError(f"unknown observable type {kind!r}")


def cmd_inequality(args: argparse.Namespace) -> int:
    data, family = _load_family(args.family)
    if args.provider == "measure":
        if "carrier_weights" not in data:
            raise InputError("measure provider needs 'carrier_weights' in the family file")
        weights = np.asarray(data["carrier_weights"], dtype=float)
        weights = weights / weights.sum()
        provider = realism.MeasureProvider(weights)
    else:
        if "state" not in data:
            raise InputError("quantum provider needs 'state' in the family file")
        provider = realism.QuantumProvider(parse_matrix(data["state"]))
    signs, minimum = realism.search_signs(family, provider, cap=args.sign_cap)
    report = {
        "provider": args.provider,
        "q": family.q,
        "min_lhs": float(np.round(minimum, 12)),
        "margin": float(np.round(minimum - family.q, 12)),
        "argmin_signs": signs,
        "classical_bound_holds": minimum >= family.q - CLASSICAL_BOUND_SLACK,
    }
    emit(report, args)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    category = fincat.category_from_json(load_json(args.category))
    text = fincat.category_to_dot(category, name=args.name)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxlab", description=__doc__)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--carrier-cap", type=int, default=10**6)
    parser.add_argument("--sign-cap", type=int, default=16)
    parser.add_argument("--apex-bound", type=int, default=4)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cat-check", help="validate a category, functor, or diagram JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--category")
    group.add_argument("--functor")
    group.add_argument("--diagram")
    p.set_defaults(func=cmd_cat_check)

    p = sub.add_parser("limit", help="build the product carrier of a seeded context family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--seeds")
    p.add_argument("--restrictions", action="store_true")
    p.add_argument("--points", action="store_true", help="export the carrier points")
    p.add_argument("--check-universal", action="store_true")
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("state-extend", help="extend a density matrix over a context family")
    p.add_argument("--algebra", required=True)
    p.add_argument("--seeds")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_state_extend)

    p = sub.add_parser("ks-check", help="count global sections of a ray-family fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--max-sections", type=int, default=1000)
    p.set_defaults(func=cmd_ks_check)

    p = sub.add_parser("daseinise", help="approximate a projection inside a context")
    p.add_argument("--projection", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--seeds")
    p.add_argument("--mode", choices=("outer", "inner"), default="outer")
    p.set_defaults(func=cmd_daseinise)

    p = sub.add_parser("net-check", help="check the chain net axioms")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chain", type=int)
    group.add_argument("--net", help="custom net spec JSON")
    p.add_argument("--shift", type=int, default=1)
    p.set_defaults(func=cmd_net_check)

    p = sub.add_parser("gft-ccr", help="guarded commutation defect of smeared fields")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_gft_ccr)

    p = sub.add_parser("gft-weyl", help="Weyl relation defect, optionally swept over cutoffs")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--sweep", help="comma-separated cutoffs, e.g. 2,3,4,5")
    p.add_argument("--sector-cap", type=int, default=1)
    p.add_argument("--norm", type=float, default=0.4)
    p.set_defaults(func=cmd_gft_weyl)

    p = sub.add_parser("inequality", help="minimize the realism bound over sign vectors")
    p.add_argument("--family", required=True)
    p.add_argument("--provider", choices=("measure", "quantum"), required=True)
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("export-dot", help="DOT export of a category JSON file")
    p.add_argument("--category", required=True)
    p.add_argument("--name", default="category")
    p.add_argument("--out")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_tolerance(args.tolerance)
        if min(args.carrier_cap, args.sign_cap, args.apex_bound) <= 0:
            raise InputError("caps must be positive")
        return args.func(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
