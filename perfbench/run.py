"""ctxlab benchmark: time whole CLI checks, and each layer inside them.

Usage, from the repository root:

    python3 perfbench/run.py --workload ks-carrier --seed 1 --seconds 40 --trace 0

Set-up is timed several times: an import of ``ctxlab.cli`` in a fresh
interpreter, then generating and writing the workload's input files from
the seed.  ``--trace 0`` then runs the batch of checks twice, each time
in a fresh worker process that runs it once, back to back (one client,
closed loop), and prints the end-to-end metrics over each check's mean
of its two cold times.  ``--trace 1`` runs the batch once untraced and
once traced, each in a fresh worker, and prints the per-layer metrics
with the tracing overhead.  Every verdict of every pass is checked.  The
last line of standard output is one JSON object; the lines before it
give the environment, the report digest and every metric by name and
unit.  Exit status 1 means the benchmark could
not run (no result is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

OUT = ".perfbench"
SETUP_REPEATS = 3
# untraced passes with --trace 0; each check's mean time over them counts
PASSES = 2
DEADLINE_S = 170
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# per-layer metric -> the span names whose self time it sums
SELF_TIMES = {
    "presheaf.global_sections_s": ["presheaf.global_sections"],
    "staralg.context_category_s": ["staralg.context_category", "staralg.context_category_from_groups"],
    "linalg.span_leq_s": ["linalg.span_leq"],
    "presheaf.build_spectral_presheaf_s": ["presheaf.build_spectral_presheaf"],
    "staralg.gelfand_spectrum_s": ["staralg.gelfand_spectrum"],
    "locnet.standard_net_s": ["locnet.standard_net"],
    "locnet.check_isotony_s": ["locnet.check_isotony"],
    "locnet.check_locality_s": ["locnet.check_locality"],
    "locnet.check_lc_square_s": ["locnet.check_lc_square"],
    "locnet.check_covariance_s": ["locnet.check_covariance"],
    "staralg.generate_algebra_s": ["staralg.generate_algebra"],
    "gft.fock_for_s": ["gft.fock_for"],
    "gft.ccr_defect_s": ["gft.ccr_defect"],
    "gft.weyl_relation_defect_s": ["gft.weyl_relation_defect"],
    "ctxext.build_limit_extension_s": ["ctxext.build_limit_extension"],
    "ctxext.extend_state_s": ["ctxext.extend_state"],
    "ctxext.embed_s": ["ctxext.embed"],
    "ctxext.state_to_json_s": ["ctxext.state_to_json"],
    "cli.emit_s": ["cli.emit"],
    "ctxext.spectrum_diagram_s": ["ctxext.spectrum_diagram"],
    "fincat.limit_of_diagram_s": ["fincat.limit_of_diagram"],
    "fincat.enumerate_cones_s": ["fincat.enumerate_cones"],
    "fincat.check_universal_property_s": ["fincat.check_universal_property"],
    "realism.search_signs_s": ["realism.search_signs"],
}
# per-layer metric -> the span name whose calls it counts
CALLS = {
    "linalg.span_leq.calls": "linalg.span_leq",
    "staralg.gelfand_spectrum.calls": "staralg.gelfand_spectrum",
    "locnet.check_lc_square.calls": "locnet.check_lc_square",
    "staralg.generate_algebra.calls": "staralg.generate_algebra",
    "gft.ccr_defect.calls": "gft.ccr_defect",
    "gft.weyl_relation_defect.calls": "gft.weyl_relation_defect",
    "ctxext.embed.calls": "ctxext.embed",
}
COUNTS = ["presheaf.sections_found", "presheaf.obstructed_families", "staralg.contexts",
          "presheaf.restriction_pairs", "staralg.characters", "locnet.violations", "ctxext.carrier_points",
          "fincat.compatible_families", "fincat.cones_enumerated", "realism.sign_vectors"]


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(batch_size: int) -> float:
    """The highest percentile with at least ten checks beyond it."""
    fits = [p for p in PERCENTILES if batch_size * (1 - p / 100) >= 10]
    return fits[-1] if fits else PERCENTILES[0]


def set_up(workload: str, seed: int, size: str, inputs: str, env: dict) -> tuple:
    """Fresh-interpreter import plus input generation, repeated; median seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctxlab.cli"], env=env, check=True, timeout=60)
        batch = workloads.build(workload, seed, size, inputs)
        times.append(time.perf_counter() - start)
    return statistics.median(times), batch


def run_worker(out: str, name: str, trace: int, env: dict, deadline: float) -> dict:
    """One pass over the batch in a fresh worker process; its result."""
    result_path = os.path.join(out, f"result-{name}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(out, "batch.json"), str(trace),
               result_path, os.path.join(out, "spans.json")]
    subprocess.run(command, env=env, check=True, timeout=max(1.0, deadline - time.perf_counter()))
    with open(result_path) as handle:
        return json.load(handle)


def end_to_end(setup_s: float, passes: list) -> tuple:
    """The metrics over the untraced passes: each a fresh worker, so every
    time is a cold one.  A check's time is its mean over the passes."""
    mean = [statistics.fmean(times) for times in zip(*(p["check_s"] for p in passes))]
    tail = tail_percentile(len(mean))
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (statistics.fmean(p["pass_s"] for p in passes), "s"),
        "check_s.p50": (statistics.median(mean), "s"),
        "check_s.tail": (percentile(mean, tail), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    walls = ", ".join(f"{p['pass_s']:.3f}" for p in passes)
    return metrics, (f"check_s.tail is p{tail:g} of {len(mean)} checks; a check's time is its mean over the "
                     f"untraced passes, of wall times {walls} s")


def per_layer(untraced: dict, traced: dict) -> dict:
    self_s = traced["self"]
    metrics = {}
    for name, spans in SELF_TIMES.items():
        metrics[name] = (sum(self_s.get(s, (0.0, 0))[0] for s in spans), "s")
    for name, span in CALLS.items():
        metrics[name] = (self_s.get(span, (0.0, 0))[1], "count")
    for name in COUNTS + ["gft.fock_dim.max"]:
        metrics[name] = (traced["counts"].get(name, 0), "count")
    metrics["cli.report_bytes"] = (traced["report_bytes"], "bytes")
    metrics["trace.overhead_s"] = (traced["pass_s"] - untraced["pass_s"], "s")
    return metrics


def digest(phase: dict) -> str:
    """One digest of every report, in batch order."""
    return hashlib.sha256("".join(phase["digests"]).encode()).hexdigest()


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded only: the batch sets how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny batches for the benchmark's self-tests")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "ctxlab", "cli.py")):
        print("error: no ctxlab sources under src/ctxlab; run from a ctxlab checkout", file=sys.stderr)
        return 1

    out = os.path.join(OUT, args.workload)
    inherited_threads = os.environ.get("CTXLAB_THREADS")
    env = {k: v for k, v in os.environ.items() if k != "CTXLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    try:
        setup_s, batch = set_up(args.workload, args.seed, args.size, os.path.join(out, "inputs"), env)
        workloads.write_json(os.path.join(out, "batch.json"), batch)
        if args.trace:
            phases = [run_worker(out, "untraced", 0, env, deadline), run_worker(out, "traced", 1, env, deadline)]
        else:
            phases = [run_worker(out, f"untraced{n}", 0, env, deadline) for n in range(PASSES)]
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: the workload did not finish: {exc}", file=sys.stderr)
        return 1

    untraced = phases[0]
    failures = [f for p in phases for f in p["failures"]]
    failures += [{"check": check["name"], "problems": ["report differs from the first pass's"]}
                 for p in phases[1:] for check, a, b in zip(batch, untraced["digests"], p["digests"]) if a != b]
    attempted = sum(p["attempted"] for p in phases)
    failed = len(failures)
    record = dict(untraced["env"], ctxlab_threads_inherited=inherited_threads, ctxlab_threads_for_checks=None,
                  workload=args.workload, seed=args.seed, size=args.size, batch_checks=len(batch),
                  seconds=args.seconds)
    print("env " + json.dumps(record, sort_keys=True))
    print(f"digest {args.workload} seed {args.seed}: {digest(untraced)}")
    e2e, note = end_to_end(setup_s, phases[:1] if args.trace else phases)
    metrics = per_layer(untraced, phases[1]) if args.trace else e2e
    for name, (value, unit) in (e2e | metrics).items():
        print(f"{name} {value:.6g} {unit}")
    print(note)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:g} 1")
    for failure in failures[:20]:
        print(f"FAILED {failure['check']}: {'; '.join(failure['problems'])[:500]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
