"""Span recorders installed around ctxlab's public functions from outside.

``Tracer.install`` wraps every public module-level function of the traced
modules, and rebinds each name under which any ctxlab module imported one
of them (``span_leq`` in ``staralg``, ``context_category`` in ``cli``), so
calls through either name are recorded.  A span is recorded only while a
check runs.  Each span holds its name, start, end, parent span and check
id, in integer nanoseconds; its self time is its duration minus the time
its child spans cover.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import inspect
import json
import os
import sys
import time

MODULES = ("cli", "fincat", "staralg", "ctxext", "presheaf", "locnet", "gft", "realism", "linalg")


def _size(attr):
    return lambda result: len(getattr(result, attr))


# Counts read from public return values: span name -> {counter: reader}.
COUNTERS = {
    "presheaf.global_sections": {
        "presheaf.sections_found": len,
        "presheaf.obstructed_families": lambda r: int(not r),
    },
    "presheaf.build_spectral_presheaf": {"presheaf.restriction_pairs": _size("restrictions")},
    "staralg.context_category": {"staralg.contexts": _size("contexts")},
    "staralg.context_category_from_groups": {"staralg.contexts": _size("contexts")},
    "staralg.gelfand_spectrum": {"staralg.characters": len},
    "locnet.check_isotony": {"locnet.violations": _size("violations")},
    "locnet.check_locality": {"locnet.violations": _size("violations")},
    "locnet.check_lc_square": {"locnet.violations": _size("violations")},
    "locnet.check_covariance": {"locnet.violations": _size("violations")},
    "ctxext.build_limit_extension": {"ctxext.carrier_points": lambda r: r.carrier.size},
    "fincat.limit_of_diagram": {"fincat.compatible_families": lambda r: len(r.apex)},
    "fincat.enumerate_cones": {"fincat.cones_enumerated": len},
    "realism.search_signs": {"realism.sign_vectors": lambda r: 2 ** len(r[0])},
}
# Largest value seen rather than a sum.
MAXIMA = {"gft.fock_for": {"gft.fock_dim.max": lambda r: r.dim}}


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, check id, name, start ns, end ns, self ns)
        self.counts = {}
        self.check = None
        self._stack = []  # [span id, child ns] of the open spans
        self._patched = []
        self._ids = itertools.count()

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"ctxlab.{short}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "ctxlab" or name.startswith("ctxlab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(module, attr, wrappers[obj])
                        self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched = []

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        maxima = MAXIMA.get(name, {})
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.check is None:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((sid, parent, self.check, name, start, end, duration - frame[1]))
            for key, read in counters.items():
                counts[key] = counts.get(key, 0) + read(result)
            for key, read in maxima.items():
                counts[key] = max(counts.get(key, 0), read(result))
            return result

        return span

    def self_seconds(self) -> dict:
        """Summed self time and call count per span name."""
        out = {}
        for _, _, _, name, _, _, self_ns in self.spans:
            total = out.setdefault(name, [0, 0])
            total[0] += self_ns
            total[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}

    def write(self, path: str, checks: list) -> None:
        """Write the spans, with ``checks[i]`` naming the check of id i."""
        fields = ["id", "parent", "check", "name", "start_ns", "end_ns", "self_ns"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "checks": checks, "spans": self.spans}, handle, separators=(",", ":"))


def top_layers(path: str, count: int = 4) -> None:
    """Print, for each check, the spans with the most summed self time."""
    with open(path) as handle:
        data = json.load(handle)
    by_check = {}
    for _, _, check, name, _, _, self_ns in data["spans"]:
        layers = by_check.setdefault(data["checks"][check], {})
        layers[name] = layers.get(name, 0) + self_ns
    for check, layers in by_check.items():
        total = sum(layers.values())
        top = sorted(layers.items(), key=lambda item: -item[1])[:count]
        shares = ", ".join(f"{name} {ns / 1e9:.3f} s ({ns / total:.0%})" for name, ns in top)
        print(f"{check}: {total / 1e9:.3f} s traced; {shares}")


if __name__ == "__main__":
    top_layers(os.path.join(sys.argv[1], "spans.json") if os.path.isdir(sys.argv[1]) else sys.argv[1])
