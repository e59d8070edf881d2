"""Command-line surface: JSON specs in, JSON/DOT reports out.

Exit status: 0 on success, 1 when a check reports violations (the report
is still emitted), 2 on input errors, 141 when stdout is closed early.
Context splits draw from one fixed stream, so a context report depends on
its input alone; ``--seed`` seeds only the random test functions of
gft-ccr and gft-weyl.  Identical inputs and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from types import GeneratorType

import numpy as np

from . import fincat, gft, locnet, presheaf, realism
from .ctxext import (
    CARRIER_CAP,
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
from .staralg import check_dimension, context_algebra, context_category, full_matrix_algebra
from .validation import array, load_json, member, members, numbers, parse_json, parse_matrix, shown, whole_number


# Report bounds, fixed because they mirror the acceptance criteria: the
# expectation defect of state-extend that exits 0, the guarded CCR defect
# of gft-ccr (``within_1e-10``), and the slack of ``classical_bound_holds``.
STATE_EXTEND_BOUND = 1e-8
CCR_BOUND = 1e-10
CLASSICAL_BOUND_SLACK = 1e-12


# ---------------------------------------------------------------------------
# JSON formats


def matrix_to_json(m: np.ndarray) -> list:
    """Entries as [re, im] pairs to 12 decimals, with no signed zero."""
    return [[[float(np.round(c.real, 12)) + 0.0, float(np.round(c.imag, 12)) + 0.0] for c in row] for row in m]


def load_algebra_spec(path: str, wanted: str | None):
    """Algebra spec: {'dim': d, 'seeds': {name: matrix, ...}}."""
    data = load_json(path)
    dim = whole_number(member(data, "dim", "algebra spec"), "algebra spec dim", least=1)
    seeds = members(member(data, "seeds", "algebra spec"), "algebra spec seeds")
    seed_map = {name: parse_matrix(m) for name, m in seeds.items()}
    if wanted is None:
        names = sorted(seed_map)
    else:
        names = [n.strip() for n in wanted.split(",") if n.strip()]
        missing = [n for n in names if n not in seed_map]
        if missing:
            raise InputError(f"unknown seed names {missing} in {path!r}")
    return dim, [seed_map[n] for n in names], names


EMIT_SLICE = 4096  # list items per call of the C encoder
CONTAINERS = (dict, list, tuple, GeneratorType)


@functools.lru_cache(maxsize=None)
def _encode(level: int):
    """The C encoder at nesting ``level`` of an indent=2 dump; ``indent`` selects the Python one."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * (level + 1), ": ")).encode


def _emit(value, level: int, write) -> None:
    """``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``level``:
    one C call per container of scalars, a list in slices of EMIT_SLICE.
    A generator is written as the list of its items, each as it is made,
    so the list is never held."""
    if not isinstance(value, CONTAINERS) or not value:
        write(_encode(level)(value))
        return
    inner, mapping = "\n" + "  " * (level + 1), isinstance(value, dict)
    if isinstance(value, GeneratorType):
        opened = False
        for item in value:
            write(("," if opened else "[") + inner)
            _emit(item, level + 1, write)
            opened = True
        write("\n" + "  " * level + "]" if opened else "[]")
        return
    write(("{" if mapping else "[") + inner)
    # a container among the items, tested once per item type
    if not any(issubclass(t, CONTAINERS) for t in set(map(type, value.values() if mapping else value))):
        slices = [value] if mapping else (value[k:k + EMIT_SLICE] for k in range(0, len(value), EMIT_SLICE))
        for n, part in enumerate(slices):
            write(("," + inner if n else "") + _encode(level)(part)[1:-1])
    else:
        for n, item in enumerate(sorted(value.items()) if mapping else value):
            # a key as the encoder writes it: int, float, bool and None keys become strings
            write(("," + inner if n else "") + (json.dumps({item[0]: 0})[1:-4] + ": " if mapping else ""))
            _emit(item[1] if mapping else item, level + 1, write)
    write("\n" + "  " * level + ("}" if mapping else "]"))


def emit(report: dict) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2)`` and a newline to stdout."""
    _emit(report, 0, sys.stdout.write)
    sys.stdout.write("\n")


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
          **result.to_json()})
    return 0 if result.ok else 1


def _context_category_from_args(args: argparse.Namespace):
    dim, seeds, names = load_algebra_spec(args.algebra, args.seeds)
    ambient = full_matrix_algebra(dim, args.tolerance)
    return context_category(ambient, seeds), seeds, names


def cmd_limit(args: argparse.Namespace) -> int:
    cc, _, names = _context_category_from_args(args)
    ext = build_limit_extension(cc, cap=args.carrier_cap)
    report = {
        "seeds": names,
        "contexts": {cid: len(cc.spectra[cid]) for cid in cc.ids()},
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
            points = fincat.one_point_cone_tuple(diagram)
            report["universal"] = fincat.check_universal_property(cone, diagram, [points])
            report["apex_bound"] = args.apex_bound
    emit(report)
    return 0 if report.get("universal", True) else 1


def cmd_state_extend(args: argparse.Namespace) -> int:
    cc, seeds, names = _context_category_from_args(args)
    rho = parse_matrix(load_json(args.state))
    ext = build_limit_extension(cc, cap=args.carrier_cap)
    mu = extend_state(rho, ext)
    # the unit and the seeds of each context: neither is built from its
    # atoms, so a split that misses a seed shows here.  Their defects are
    # rounding, up to about 1e-14, so the report gives 12 decimals.
    unit = np.eye(cc.ambient.dim, dtype=complex)
    checks = []
    for cid in cc.ids():
        for b in [unit] + [seeds[k] for k in cc.generators[cid]]:
            lhs = evaluate_state(mu, embed(b, cid, ext))
            rhs = complex(np.trace(rho @ b))
            checks.append(abs(lhs - rhs))
    report = {
        "seeds": names,
        "carrier_points": ext.carrier.size,
        "max_expectation_defect": float(np.round(max(checks), 12)),
        **state_to_json(mu),
    }
    emit(report)
    return 0 if max(checks) <= STATE_EXTEND_BOUND else 1


def cmd_ks_check(args: argparse.Namespace) -> int:
    if args.max_sections < 1:
        raise InputError(f"--max-sections must be at least 1, got {args.max_sections}")
    if os.path.exists(args.fixture):
        data = load_json(args.fixture)
    else:
        data = presheaf.bundled_fixture(args.fixture)
    dim, bases = presheaf.load_ray_fixture(data)
    cc = presheaf.ray_family_context_category(dim, bases, args.tolerance)
    sheaf = presheaf.build_spectral_presheaf(cc)
    sections = presheaf.global_sections(sheaf, limit=args.max_sections)
    report = {
        "dim": dim,
        "bases": len(bases),
        "contexts": len(cc.ids()),
        "sections": len(sections),
        "section_limit": args.max_sections,
        "obstructed": len(sections) == 0,
        "assignments": sections,
    }
    emit(report)
    return 0


def cmd_daseinise(args: argparse.Namespace) -> int:
    dim, seeds, names = load_algebra_spec(args.algebra, args.seeds)
    check_dimension(dim)
    context = context_algebra(seeds, dim, args.tolerance)
    proj = parse_matrix(load_json(args.projection))
    daseinise = presheaf.outer_daseinisation if args.mode == "outer" else presheaf.inner_daseinisation
    result = daseinise(proj, context)
    emit({"mode": args.mode, "context_seeds": names, "result": matrix_to_json(result)})
    return 0


def load_net_spec(path: str, tol: float) -> "locnet.LocalNet":
    """Custom net spec: {'length': L, 'regions': [{'start', 'stop', 'generators'}]}.
    Every region is read and checked first; then one ``locnet.region_algebras``
    call closes them all, exactly for Pauli strings."""
    data = load_json(path)
    length = whole_number(member(data, "length", "net spec"), "net spec length", least=1)
    locnet.refuse_long_chain(length)
    d = 2**length
    generators = {}
    for entry in array(member(data, "regions", "net spec"), "net spec regions"):
        start, stop = (whole_number(member(entry, e, "net spec region"), f"net spec {e}") for e in ("start", "stop"))
        region = locnet.Region(start, stop)
        if region.start < 0 or region.stop >= length:
            raise InputError(f"net spec {path!r}: region {region.label()} lies outside the chain [0,{length - 1}]")
        if region in generators:
            raise InputError(f"net spec {path!r}: region {region.label()} is listed twice")
        gens = [parse_matrix(m) for m in array(member(entry, "generators", "net spec region"), "generators")]
        for k, g in enumerate(gens):
            if len(g) != d:
                raise InputError(f"net spec {path!r}: generator {k} of region {region.label()} "
                                 f"is {len(g)}x{len(g)}, expected {d}x{d}")
        generators[region] = gens
    algebras = locnet.region_algebras(list(generators.values()), length, tol)
    return locnet.LocalNet(length, dict(zip(generators, algebras)), tol=tol)


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
        sites = [r for r in net.regions() if r.start == r.stop]
        singles = [[locnet.pauli_string({r.start: "Z"}, net.length)] for r in sites]
        contexts = list(zip(sites, locnet.region_algebras(singles, net.length, args.tolerance)))
        covariance = locnet.check_covariance(net, args.shift, contexts)
        report["covariance_shift"] = args.shift
        report["covariance"] = covariance.ok
        all_violations = all_violations + covariance.violations
    report["violations"] = [str(v) for v in all_violations]
    emit(report)
    return 0 if not all_violations else 1


def _random_function(rng, space) -> np.ndarray:
    return rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)


def cmd_gft_ccr(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    space = gft.PolyhedronSpace(args.m, args.n)
    # refused before fock_for forms the mode count m**n, which each draw takes
    gft.ccr_top_sector(args.nmax)
    fock = gft.fock_for(space, args.nmax)
    rng = np.random.default_rng(args.seed)
    # each pair is drawn just before its test, so memory does not grow with --trials
    pairs = ((_random_function(rng, space), _random_function(rng, space)) for _ in range(args.trials))
    worst = max(gft.ccr_defect(f, g, fock) for f, g in pairs)
    report = {
        "m": args.m,
        "n": args.n,
        "nmax": args.nmax,
        "trials": args.trials,
        "max_guarded_defect": float(np.round(worst, 14)),
        "within_1e-10": worst <= CCR_BOUND,
    }
    emit(report)
    return 0 if worst <= CCR_BOUND else 1


def cmd_gft_weyl(args: argparse.Namespace) -> int:
    if not (np.isfinite(args.norm) and args.norm > 0):
        raise InputError(f"--norm must be positive and finite, got {args.norm!r}")
    space = gft.PolyhedronSpace(args.m, args.n)
    cutoffs = [whole_number(parse_json(x, f"--sweep cutoff {x!r}"), "--sweep cutoff")
               for x in args.sweep.split(",")] if args.sweep else [args.nmax]
    seen = set()
    for nmax in cutoffs:
        if nmax in seen:
            raise InputError(f"--sweep cutoff {nmax} is listed more than once")
        seen.add(nmax)
    # each sector is checked before its Fock space forms the mode count, all before the draws
    focks = []
    for nmax in cutoffs:
        gft.weyl_top_sector(nmax, args.sector_cap)
        focks.append(gft.fock_for(space, nmax))
    rng = np.random.default_rng(args.seed)
    f, g = _random_function(rng, space), _random_function(rng, space)
    f *= args.norm / np.sqrt(abs(gft.inner_product(f, f, space)))
    g *= args.norm / np.sqrt(abs(gft.inner_product(g, g, space)))
    table = {}
    for nmax, fock in sorted(zip(cutoffs, focks), reverse=True):  # largest ||G||_1 first: refuse before any work
        table[str(nmax)] = float(np.round(gft.weyl_relation_defect(f, g, fock, args.sector_cap), 14))
    report = {
        "m": args.m,
        "n": args.n,
        "sector_cap": args.sector_cap,
        "norm": args.norm,
        "defects": table,
    }
    emit(report)
    return 0


def _load_family(path: str):
    data = load_json(path)
    groups = []
    for g, group in enumerate(array(member(data, "groups", "family file"), "family groups")):
        members(group, f"group {g}")
        sides = []
        for s in "AB":
            side = array(group.get(s, []), f"side {s} of group {g}")
            sides.append([_load_observable(o, f"observable {k} of side {s} of group {g}") for k, o in enumerate(side)])
        groups.append(realism.ObservableGroup(*sides))
    return data, realism.ObservableFamily(groups)


def _load_observable(data, what: str):
    kind = member(data, "type", what)
    if kind == "carrier":
        return realism.CarrierObservable(numbers(member(data, "values", what), "carrier observable value"))
    if kind == "matrix":
        return realism.MatrixObservable(parse_matrix(member(data, "matrix", what)))
    raise InputError(f"unknown observable type {shown(kind)}")


def cmd_inequality(args: argparse.Namespace) -> int:
    data, family = _load_family(args.family)
    if args.provider == "measure":
        weights = numbers(member(data, "carrier_weights", "measure family"), "carrier weight")
        realism.MeasureProvider(weights)  # checked before normalising, which would hide a negative or zero total
        provider = realism.MeasureProvider(weights / weights.sum())
    else:
        provider = realism.QuantumProvider(parse_matrix(member(data, "state", "quantum family")))
    signs, minimum = realism.search_signs(family, provider, cap=args.sign_cap)
    report = {
        "provider": args.provider,
        "q": family.q,
        "min_lhs": float(np.round(minimum, 12)),
        "margin": float(np.round(minimum - family.q, 12)),
        "argmin_signs": signs,
        "classical_bound_holds": minimum >= family.q - CLASSICAL_BOUND_SLACK,
    }
    emit(report)
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    category = fincat.category_from_json(load_json(args.category))
    text = fincat.category_to_dot(category, name=args.name)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxlab", description=__doc__)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0, help="seed of the gft-ccr and gft-weyl test functions")
    parser.add_argument("--carrier-cap", type=int, default=CARRIER_CAP)
    parser.add_argument("--sign-cap", type=int, default=realism.SIGN_SEARCH_CAP)
    parser.add_argument("--apex-bound", type=int, default=4,
                        help="reported by limit --check-universal; changes no work: one-point cones decide every size")
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
        for option, cap in (("--carrier-cap", args.carrier_cap), ("--sign-cap", args.sign_cap),
                            ("--apex-bound", args.apex_bound)):
            if cap < 1:
                raise InputError(f"{option} must be at least 1, got {cap}")
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: quiet the flush at exit, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
