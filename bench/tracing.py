"""Per-layer tracing of quasibraid from outside the package.

A Tracer wraps the public functions of each module in a span recorder
and installs the wrapper everywhere the original is bound: modules bind
kron, leg_perm, map_witness and the validators at import, so patching
only the defining module would miss most calls.  Method calls reach the
module functions through globals (LinMap.__matmul__ calls
exactlin.compose), so those are covered by the module patch; LinMap's
constructor and Report.render are patched on their classes.

Spans are kept in memory as [name, start, end, parent, op] and written
out at the end.  A layer's time is the sum of its spans' self time (the
span's duration minus the time its child spans cover), so the layer
times partition the traced wall time.  Work counted from a call's
arguments or result runs inside its own "trace.count" span, so counting
is charged to the tracer and not to the layer that made the call.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from functools import partial
from time import perf_counter

_MARK = "_quasibraid_bench_wrapper"


def _checks(key, counts, args, result):
    counts[key] += len(result.checks)


def _load_bytes(counts, args, result):
    counts["serialize.load.bytes"] += os.path.getsize(args[1])


def _write_bytes(counts, args, result):
    counts["serialize.save.calls"] += 1
    counts["serialize.save.bytes"] += os.path.getsize(args[0])


def _compose(counts, args, result):
    f, g = args
    row_len = Counter(k for k, _ in g.entries)
    counts["exactlin.compose.mults"] += sum(row_len[k] for _, k in f.entries)
    counts["exactlin.compose.out_nnz"] += len(result.entries)


def _kron(counts, args, result):
    counts["exactlin.kron.out_nnz"] += len(result.entries)


def _leg_perm(counts, args, result):
    counts["exactlin.leg_perm.entries"] += len(result.entries)


def _witness_keys(counts, args, result):
    lhs, rhs = args
    counts["report.witness.keys"] += len(lhs.entries.keys() | rhs.entries.keys())


def _failed_checks(counts, args, result):
    counts["report.failed_checks"] += sum(1 for c in args[0].checks if not c.passed)


_hq_checks = partial(_checks, "hq.checks")
_gchq_checks = partial(_checks, "gchq.checks")
_yd_checks = partial(_checks, "yd.checks")

#: (module, function or Class.method, layer key, counter); a layer key
#: gets <key>.calls and <key>.s, counters add further counts.
SPECS = (
    ("cli", "main", "cli.self", None),
    ("serialize", "load", "serialize.load", _load_bytes),
    ("serialize", "save", "serialize.save", None),
    ("serialize", "write_file", "serialize.save", _write_bytes),
    ("tables", "validate_ip_loop", "tables.validate", None),
    ("tables", "validate_group", "tables.validate", None),
    ("tables", "validate_action", "tables.validate", None),
    ("hq", "loop_algebra", "hq.construct", None),
    ("hq", "validate_hopf_quasigroup", "hq.validate", _hq_checks),
    ("hq", "antipode_inverse_laws", "hq.validate", _hq_checks),
    ("gchq", "validate_gchq", "gchq.validate", _gchq_checks),
    ("gchq", "validate_crossing", "gchq.crossing", _gchq_checks),
    ("gchq", "power_construction", "gchq.construct", None),
    ("gchq", "mirror", "gchq.construct", None),
    ("yd", "validate_yd", "yd.validate", _yd_checks),
    ("yd", "yd_tensor", "yd.construct", None),
    ("yd", "yd_conjugate", "yd.construct", None),
    ("yd", "yd_direct_sum", "yd.construct", None),
    ("yd", "braiding", "yd.braid", None),
    ("yd", "braiding_inverse", "yd.braid", None),
    ("yd", "check_braiding_laws", "yd.laws", _yd_checks),
    ("yd", "check_braiding_inverse", "yd.laws", _yd_checks),
    ("yd", "check_conjugation_coherence", "yd.laws", _yd_checks),
    ("exactlin", "compose", "exactlin.compose", _compose),
    ("exactlin", "kron", "exactlin.kron", _kron),
    ("exactlin", "kron_all", "exactlin.kron_all", None),
    ("exactlin", "leg_perm", "exactlin.leg_perm", _leg_perm),
    ("exactlin", "swap_map", "exactlin.swap_map", None),
    ("exactlin", "invert", "exactlin.invert", None),
    ("exactlin", "LinMap.__init__", "exactlin.linmap", None),
    ("report", "map_witness", "report.witness", _witness_keys),
    ("report", "Report.render", "report.render", _failed_checks),
)

#: what the counters add, reported as 0 when no call made them
COUNTER_KEYS = (
    "serialize.load.bytes", "serialize.save.bytes", "hq.checks", "gchq.checks",
    "yd.checks", "exactlin.compose.mults", "exactlin.compose.out_nnz",
    "exactlin.kron.out_nnz", "exactlin.leg_perm.entries", "report.witness.keys",
    "report.failed_checks",
)

#: write_file is counted by its counter, so save spans add no call
_UNCOUNTED = {("serialize", "save")}


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "quasibraid" or name.startswith("quasibraid."))
    ]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.max_nnz = 0
        self._patched = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for mod_name, qualname, key, counter in SPECS:
            module = importlib.import_module(f"quasibraid.{mod_name}")
            counted = (mod_name, qualname) not in _UNCOUNTED
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, key, counter, counted, attr == "__init__")
                self._patched.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, key, counter, counted, False)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def restore(self):
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, key, counter, counted, is_linmap_init):
        tracer = self
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [key, 0.0, 0.0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counted:
                tracer.counts[f"{key}.calls"] += 1
            if is_linmap_init:
                tracer.max_nnz = max(tracer.max_nnz, len(args[0].entries))
            if counter is not None:
                start = perf_counter()
                counter(tracer.counts, args, result)
                spans.append(["trace.count", start, perf_counter(), parent, tracer.op])
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Self time summed per layer key."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            totals[name] += end - start - inner
        return totals

    def layer_metrics(self):
        """Every per-layer number, keyed <layer>.<what>."""
        out = {}
        times = self.self_times()
        for _, _, key, _ in SPECS:
            out[f"{key}.calls"] = self.counts[f"{key}.calls"]
            out[f"{key}.s"] = times[key]
        out["trace.count.s"] = times["trace.count"]
        for key in COUNTER_KEYS:
            out[key] = self.counts[key]
        out["exactlin.max_nnz"] = self.max_nnz
        out["cli.self_s"] = out.pop("cli.self.s")
        return out

    def write_spans(self, path, ops):
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(start - origin, 9), round(end - origin, 9), parent, op]
            for name, start, end, parent, op in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "ops": ops, "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def leftover_wrappers():
    """Names in the package still bound to a tracing wrapper."""
    import quasibraid.exactlin
    import quasibraid.report

    found = []
    for m in _package_modules():
        for attr, value in vars(m).items():
            if hasattr(value, _MARK):
                found.append(f"{m.__name__}.{attr}")
    for cls in (quasibraid.exactlin.LinMap, quasibraid.report.Report):
        for attr, value in vars(cls).items():
            if hasattr(value, _MARK):
                found.append(f"{cls.__name__}.{attr}")
    return found
