"""Span tracing of wfact from outside: wrappers installed by the benchmark.

``Tracer.install`` wraps every public function of every loaded ``wfact``
module, and the public and arithmetic methods of ``LaurentPoly``, and patches
each wrapper into every ``wfact`` module that bound the original (so
``extract_phi`` is traced whether ``factorizations`` or ``cli`` calls it).
Each call appends one span (name, start, end, parent) to an in-memory list;
a layer's self time is the sum of its spans' durations minus the time their
child spans cover.  Generator functions get one span per resumption.

Counters that need a call's arguments or result (coefficient bit sizes,
table bytes, subgroup counts) are taken after the span closes, in a
bookkeeping span of their own, so they never inflate a layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

BOOKKEEPING = "trace.bookkeeping"

# Functions with a layer of their own, found by name wherever they live.
NAMED_LAYERS = {
    "laurent_from_egf": "laurent.solve",
    "find_roots": "laurent.roots",
    "full_series_sn_type": "symmetric",
    "dyz_identity_series": "symmetric",
    "build_mult_table": "kernels.mult_table",
    "subgroup_closure": "kernels.closure",
    "build_tables": "oracle.tables",
    "sweep_counts": "oracle.dp",
    "load_phi_fixtures": "fixtures.load",
}
STRIP = "divide_by_x_minus_one"
ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "scale", "substitute_power")
# Reported as absent when no wfact module defines them any more.
EXPECTED_SPANS = [f"LaurentPoly.{name}" for name in (STRIP,) + ARITH if name != "__rmul__"]
EXPECTED_SPANS += list(NAMED_LAYERS)

# Every other public function takes the layer of the module defining it.
MODULE_LAYERS = {
    "laurent": "laurent.other",
    "oracle": "oracle.other",
    "fixtures": "fixtures.load",
}

# (metric, unit, better); BENCHMARK.json lists the same names.
PER_LAYER = [
    ("laurent.strip_s", "s", "lower"),
    ("laurent.strip_calls", "count", "lower"),
    ("laurent.arith_s", "s", "lower"),
    ("laurent.arith_calls", "count", "lower"),
    ("laurent.max_coeff_bits", "bits", "lower"),
    ("laurent.solve_s", "s", "lower"),
    ("laurent.solve_calls", "count", "lower"),
    ("laurent.roots_s", "s", "lower"),
    ("laurent.roots_found", "count", "higher"),
    ("laurent.roots_worst_rel_err", "ratio", "lower"),
    ("laurent.other_s", "s", "lower"),
    ("symmetric.self_s", "s", "lower"),
    ("symmetric.calls", "count", "lower"),
    ("symmetric.distinct_types", "count", "lower"),
    ("factorizations.self_s", "s", "lower"),
    ("groups.self_s", "s", "lower"),
    ("groups.calls", "count", "lower"),
    ("hurwitz.self_s", "s", "lower"),
    ("cyclic.self_s", "s", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("numtheory.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("kernels.mult_table_s", "s", "lower"),
    ("kernels.mult_table_bytes", "bytes", "lower"),
    ("kernels.closure_s", "s", "lower"),
    ("kernels.closure_calls", "count", "lower"),
    ("oracle.tables_s", "s", "lower"),
    ("oracle.subgroups", "count", "lower"),
    ("oracle.closure_useful_ratio", "ratio", "higher"),
    ("oracle.dp_s", "s", "lower"),
    ("oracle.dp_max_len", "count", "lower"),
    ("oracle.other_s", "s", "lower"),
    ("fixtures.load_s", "s", "lower"),
    ("unattributed_share", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """Spans and counters of one traced worker process."""

    def __init__(self) -> None:
        self.names: list[str] = [BOOKKEEPING]
        self.layer_of: list[str] = ["trace"]
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.ops_start = 0
        self.max_bits = 0
        self.roots_found = 0
        self.types: set = set()
        self.table_bytes = 0
        self.tables: dict[int, int] = {}
        self.dp_max_len = 0

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "wfact" or name.startswith("wfact."))]
        owners: list = list(modules)
        originals: dict[int, tuple[str, object]] = {}  # id -> (span name, function)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    originals.setdefault(id(obj), (f"{short}.{attr}", obj))
            cls = vars(mod).get("LaurentPoly")
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                owners.append(cls)
                for attr, obj in vars(cls).items():
                    if inspect.isfunction(obj) and (not attr.startswith("_") or attr in ARITH):
                        originals.setdefault(id(obj), (f"LaurentPoly.{attr}", obj))
        wrappers = {key: self._wrap(fn, name) for key, (name, fn) in originals.items()}
        # Patch the wrapper into every binding of the original.
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers:
                    self.patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
        found = {key for name in self.names for key in (name, name.partition(".")[2])}
        self.absent = [name for name in EXPECTED_SPANS if name not in found]

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self.patches):
            setattr(owner, attr, obj)
        self.patches.clear()

    def mark_ops_start(self) -> None:
        """Spans and counters from here on belong to the timed ops."""
        self.ops_start = len(self.spans)
        self.max_bits = self.roots_found = self.table_bytes = self.dp_max_len = 0
        self.types.clear()
        self.tables.clear()

    @staticmethod
    def _layer(span_name: str) -> str:
        module, _, func = span_name.partition(".")
        if module == "LaurentPoly":
            return "laurent.strip" if func == STRIP else (
                "laurent.arith" if func in ARITH else "laurent.other")
        if func in NAMED_LAYERS:
            return NAMED_LAYERS[func]
        return MODULE_LAYERS.get(module, module)

    def _hook(self, span_name: str):
        layer = self._layer(span_name)
        func = span_name.rpartition(".")[2]
        if layer == "laurent.arith":
            def hook(args, kwargs, result):
                if hasattr(result, "coeffs"):
                    self.max_bits = max(self.max_bits, _coeff_bits(result))
        elif func == "find_roots":
            def hook(args, kwargs, result):
                self.roots_found += len(result)
        elif func == "full_series_sn_type":
            def hook(args, kwargs, result):
                mu = args[0] if args else kwargs.get("mu")
                self.types.add(tuple(sorted(mu, reverse=True)))
        elif func == "dyz_identity_series":
            def hook(args, kwargs, result):
                n = args[0] if args else kwargs.get("n")
                self.types.add((1,) * n)
        elif func == "build_mult_table":
            def hook(args, kwargs, result):
                self.table_bytes += int(getattr(result, "nbytes", 0))
        elif func == "build_tables":
            def hook(args, kwargs, result):
                members = getattr(result[1], "members", ())
                self.tables[id(result[1])] = len(members)
        elif func == "sweep_counts":
            def hook(args, kwargs, result):
                n_max = args[1] if len(args) > 1 else kwargs.get("n_max", 0)
                self.dp_max_len = max(self.dp_max_len, n_max)
        else:
            return None
        return hook

    def _wrap(self, fn, span_name: str):
        name_id = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(self._layer(span_name))
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hook(span_name)

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        spans[idx] = (name_id, start, end, parent)
                    yield value
        elif hook is None:
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name_id, start, end, parent)
        else:
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (name_id, start, end, parent)
                hook(args, kwargs, result)
                spans.append((0, end, clock(), parent))
                return result

        return functools.wraps(fn)(wrapper)

    # -- reading -------------------------------------------------------------

    def self_times(self, first: int = 0) -> tuple[dict, dict]:
        """Per-layer self seconds and call counts over spans[first:]."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(first, len(spans)):
            name_id, start, end, _ = spans[i]
            layer = self.layer_of[name_id]
            seconds[layer] += end - start - covered[i]
            calls[layer] += 1
        return seconds, calls

    def metrics(self, wall_s: float, stats: dict) -> tuple[dict, dict]:
        """(per-layer metrics, ops-phase accounting) for a traced pass."""
        ops_s, ops_calls = self.self_times(self.ops_start)
        all_s, _ = self.self_times(0)
        subgroups = sum(self.tables.values())
        closures = ops_calls["kernels.closure"]
        attributed = sum(v for k, v in ops_s.items() if k != "trace")
        values = {
            "laurent.strip_s": ops_s["laurent.strip"],
            "laurent.strip_calls": ops_calls["laurent.strip"],
            "laurent.arith_s": ops_s["laurent.arith"],
            "laurent.arith_calls": ops_calls["laurent.arith"],
            "laurent.max_coeff_bits": self.max_bits,
            "laurent.solve_s": ops_s["laurent.solve"],
            "laurent.solve_calls": ops_calls["laurent.solve"],
            "laurent.roots_s": ops_s["laurent.roots"],
            "laurent.roots_found": self.roots_found,
            "laurent.roots_worst_rel_err": stats.get("roots_worst_rel_err", 0.0),
            "laurent.other_s": ops_s["laurent.other"],
            "symmetric.self_s": ops_s["symmetric"],
            "symmetric.calls": ops_calls["symmetric"],
            "symmetric.distinct_types": len(self.types),
            "factorizations.self_s": ops_s["factorizations"],
            "groups.self_s": ops_s["groups"],
            "groups.calls": ops_calls["groups"],
            "hurwitz.self_s": ops_s["hurwitz"],
            "cyclic.self_s": ops_s["cyclic"],
            "partitions.self_s": ops_s["partitions"],
            "numtheory.self_s": ops_s["numtheory"],
            "cli.self_s": ops_s["cli"],
            "kernels.mult_table_s": ops_s["kernels.mult_table"],
            "kernels.mult_table_bytes": self.table_bytes,
            "kernels.closure_s": ops_s["kernels.closure"],
            "kernels.closure_calls": closures,
            "oracle.tables_s": ops_s["oracle.tables"],
            "oracle.subgroups": subgroups,
            "oracle.closure_useful_ratio": subgroups / closures if closures else 0.0,
            "oracle.dp_s": ops_s["oracle.dp"],
            "oracle.dp_max_len": self.dp_max_len,
            "oracle.other_s": ops_s["oracle.other"],
            # Fixtures are loaded while the inputs are built: count set-up too.
            "fixtures.load_s": all_s["fixtures.load"],
            "unattributed_share": (wall_s - attributed) / wall_s if wall_s > 0 else 0.0,
        }
        accounting = {
            "layers_s": {k: v for k, v in sorted(ops_s.items()) if k != "trace"},
            "attributed_s": attributed,
            "unattributed_s": wall_s - attributed,
            "wall_s": wall_s,
            "absent": self.absent,
            "spans": len(self.spans),
        }
        return values, accounting

    def write(self, path: Path) -> None:
        """Write every span, times in microseconds from the first, gzipped JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": self.names,
            "layers": self.layer_of,
            "ops_start": self.ops_start,
            "spans": [
                [n, round((s - origin) * 1e6), round((e - origin) * 1e6), p]
                for n, s, e, p in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
