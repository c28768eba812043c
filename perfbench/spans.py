"""Spans around the public functions of each `mapprox` module.

The traced run replaces selected module-level functions with wrappers that
record a span per call: {name, start, end, parent, job}, where name is
`<module>.<function>` and parent is the index of the enclosing span.  Spans
stay in memory and are written when the run ends.  Wrapping happens from the
benchmark's own code, on every `mapprox.*` module object that binds the
function (so `from .x import f` bindings and call-time imports are covered);
nothing under `src/` changes.  Per-element helpers (`project`,
`types_equal`, `preimage`, ...) stay unwrapped: a span per element would cost
more than the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# layer (module) -> public functions that get a span
LAYERS = {
    "structure": ["ball", "restrict", "residualize", "cycle_cut_product"],
    "localtypes": ["type_distribution", "local_type", "measure_tv"],
    "equivalence": ["ldist", "ef_equivalent"],
    "simplex": ["solve_equalities"],
    "fmtp": [
        "approximate_measure",
        "restricted_fmtp_certificate",
        "verify_certificate",
        "check_realizability_preconditions",
    ],
    "realize": ["realize", "verify_upsilon", "rewire", "merge", "pipeline"],
    "compress": ["standard_r_approximation"],
    "mapfile": ["measure_to_json", "measure_from_json", "dump_map"],
}


def _count_distribution(counts, args, result):
    counts["localtypes.type_distribution.elements"] += args["F"].n
    counts["localtypes.type_distribution.types"] += len(result.entries)


def _count_ldist(counts, args, result):
    counts["equivalence.ldist.tuples"] += args["A"].n ** args["p"] + args["B"].n ** args["p"]


def _count_entries(name):
    def count(counts, args, result):
        counts[name] += len(getattr(result, "entries", ()))

    return count


def _count_size(name):
    def count(counts, args, result):
        counts[name] += result.n

    return count


def _count_removed(counts, args, result):
    counts["compress.standard_r_approximation.removed"] += args["F"].n - result.n


# span name -> counter hook run on the call's arguments (by parameter name)
# and its result
COUNTERS = {
    "localtypes.type_distribution": _count_distribution,
    "equivalence.ldist": _count_ldist,
    "fmtp.approximate_measure": _count_entries("fmtp.approximate_measure.support"),
    "fmtp.restricted_fmtp_certificate": _count_entries(
        "fmtp.restricted_fmtp_certificate.entries"
    ),
    "realize.realize": _count_size("realize.realize.elements"),
    "realize.merge": _count_size("realize.merge.elements"),
    "compress.standard_r_approximation": _count_removed,
}


class Tracer:
    """Records spans and counts for wrapped calls; one job at a time."""

    def __init__(self, error_type: type):
        self.error_type = error_type  # exceptions of this type count as errors
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count is not None else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                self.errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each function in LAYERS on every loaded module that binds it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "mapprox" or key.startswith("mapprox.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"mapprox.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._installed.append((mod, fname, original))

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._installed):
            setattr(mod, fname, original)
        self._installed.clear()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's.
    Spans come from one thread's call stack, so children nest strictly."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_table(spans, errors: Counter) -> dict[str, dict]:
    """Per span name: total self seconds, calls and errors."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"self_s": 0.0, "calls": 0, "errors": 0})
        row["self_s"] += own
        row["calls"] += 1
    for name, count in errors.items():
        table.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0})["errors"] = count
    return table
