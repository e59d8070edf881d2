"""Run one workload's batch of checks once in this process and time them.

Usage: python3 perfbench/worker.py BATCH.json TRACE RESULT.json SPANS.json

Each check is one ``ctxlab.cli.main(argv)`` call with stdout captured, in
a process that has run no check before it, so every check is timed as a
CLI user runs it.  With TRACE 1 span recorders are installed first and the
spans go to SPANS.json.  Verdicts and report digests are checked after the
pass, so nothing but the checks runs inside it.  The result goes to
RESULT.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402
from verdicts import Verdicts  # noqa: E402


def call(cli, argv: list) -> tuple:
    """(exit status, stdout, stderr, seconds) of one CLI call.

    The status is None when the call raised; stderr then ends with the
    exception.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing check is a failed check, not a crashed benchmark
            status, error = None, exc
        seconds = time.perf_counter() - start
    if error is not None:
        err.write("".join(traceback.format_exception(error)))
    return status, out.getvalue(), err.getvalue(), seconds


def problems(verdicts: Verdicts, check: dict, status, out: str, err: str) -> list:
    if status is None:
        return ["raised " + err.strip().splitlines()[-1]]
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    try:
        found = verdicts.problems(check, status, report)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        found = [f"report lacks what the verdict needs: {exc!r}"]
    if found and err:
        found.append(err.strip())
    return found


def run_pass(cli, batch: list, tracer: Tracer | None = None) -> dict:
    """Run every check once, back to back, then judge them."""
    runs = []
    start = time.perf_counter()
    for n, check in enumerate(batch):
        if tracer is not None:
            tracer.check = n
        try:
            runs.append(call(cli, check["argv"]))
        finally:
            if tracer is not None:
                tracer.check = None
    phase = {"pass_s": time.perf_counter() - start, "check_s": [r[3] for r in runs],
             "report_bytes": sum(len(r[1]) for r in runs), "digests": [], "failures": [],
             "attempted": len(batch)}
    verdicts = Verdicts()
    first = {}
    for check, (status, out, err, _) in zip(batch, runs):
        found = problems(verdicts, check, status, out, err)
        digest = hashlib.sha256(f"{status}\n{out}".encode()).hexdigest()
        if first.setdefault("\0".join(check["argv"]), digest) != digest:
            found.append("report changed between repeats of the check")
        phase["digests"].append(digest)
        if found:
            phase["failures"].append({"check": check["name"], "problems": found})
    phase["failed"] = len(phase["failures"])
    return phase


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    try:
        import ctypes

        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
            if threads is not None:
                break
    except OSError:
        pass
    return {"blas": vendor, "blas_threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, **blas_info()}


def main(argv: list) -> int:
    batch_path, trace, result_path, spans_path = argv
    with open(batch_path) as handle:
        batch = json.load(handle)
    from ctxlab import cli

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(cli, batch, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    if tracer is not None:
        result["self"] = tracer.self_seconds()
        result["counts"] = tracer.counts
        tracer.write(spans_path, [check["name"] for check in batch])
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
