"""Per-layer spans recorded from outside the program.

A :class:`Tracer` rebinds the public functions of each ``fdsc`` module (and a
few methods on its classes) to timing wrappers while one command runs, then
puts the originals back.  Every wrapped call is a span with a name, start,
end, parent and command id, kept in memory and written out at the end of
the run.  Per-sequence functions of ``groups`` are aggregated per command
(time and call count) instead of producing one span per call.

Self time is a span's duration minus the durations of the spans it
encloses, so on every command the self times of all spans add up to the
duration of the root span, ``cli.main``.  Time spent computing the size
counters is taken out of every open span, so counting does not show up as
program time; it is kept per command instead, so that the self times plus
the counting time can be checked against the command's measured wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric). The layer is the module name; metric None
# means the function's self time counts only towards its layer.
SPANS = (
    ("cli", "main", "cli.self_s"),
    ("css", "build_family", "css.build_s"),
    ("css", "parse_code", "css.build_s"),
    ("css", "CssCode.__post_init__", "css.validate_s"),
    ("synth", "synthesize", None),
    ("synth", "greedy_select", "synth.select_s"),
    ("synth", "tree_select", "synth.select_s"),
    ("synth", "build_reconstruction", "synth.reconstruct_s"),
    ("synth", "emit_circuit", "synth.emit_s"),
    ("synth", "FdscCircuit.__post_init__", "synth.circuit_check_s"),
    ("synth", "serialize_circuit", "synth.serialize_s"),
    ("synth", "parse_circuit", "synth.parse_s"),
    ("gf2", "rank", "gf2.elim_s"),
    ("gf2", "row_rank_profile", "gf2.elim_s"),
    ("gf2", "column_rank_profile", "gf2.elim_s"),
    ("gf2", "right_inverse", "gf2.elim_s"),
    ("gf2", "solve", "gf2.elim_s"),
    ("gf2", "mul", "gf2.mul_s"),
    ("gf2", "BitMatrix.to_dense", "gf2.to_dense_s"),
    ("verify", "final_state", "verify.propagate_s"),
    ("verify", "verify_circuit", "verify.membership_s"),
    ("verify", "statevector_check", "verify.oracle_s"),
    ("groups", "make_dihedral", "groups.build_s"),
    ("groups", "make_abelian", "groups.build_s"),
    ("groups", "parse_group", "groups.build_s"),
    ("groups", "SolvableSeries.validate", "groups.build_s"),
    ("groups", "_build_level", "groups.build_s"),
    ("groups", "plan_network", "groups.plan_s"),
    ("groups", "depth_report", "groups.plan_s"),
    ("groups", "exhaustive_check", "groups.eval_s"),
    ("groups", "random_check", "groups.eval_s"),
)

# Called once per group-element sequence: aggregated, never one span each.
AGGREGATED = (
    ("groups", "evaluate", "groups.eval_s"),
    ("groups", "FiniteGroup.fold", "groups.fold_s"),
)

# Aggregated functions whose call count is itself a counter.
CALL_COUNTS = {"groups.evaluate": "groups.sequences"}

LAYERS = ("cli", "css", "synth", "gf2", "verify", "groups")

TIMES = tuple(dict.fromkeys(m for _, _, m in SPANS + AGGREGATED if m))

# Counters: sums over a run, except these, which keep the largest value.
MAX_COUNTS = ("css.matrix_bytes", "synth.m_bytes", "synth.max_fanout")
COUNTS = ("css.matrix_bytes", "synth.gates", "synth.s_size", "synth.m_nnz",
          "synth.m_bytes", "synth.max_fanout", "synth.circuit_bytes",
          "gf2.elim_calls", "gf2.elim_words", "verify.generators_checked",
          "verify.generators_failed", "groups.sequences", "groups.nodes",
          "groups.table_cells")


def _nbytes(obj) -> int:
    """Bytes held in numpy arrays by ``obj`` or its attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    names = getattr(obj, "__slots__", None) or vars(obj)
    values = (getattr(obj, name, None) for name in names)
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _count_code(add, args, kwargs, result):
    code = args[0]
    add("css.matrix_bytes", _nbytes(code.x_stabs) + _nbytes(code.z_stabs))


def _count_emit(add, args, kwargs, result):
    m = args[2] if len(args) > 2 else kwargs["m"]
    gates = result.gates
    add("synth.gates", len(gates))
    add("synth.s_size", len(result.plus_qubits))
    add("synth.m_nnz", int(np.bitwise_count(m.data).sum()))
    add("synth.m_bytes", _nbytes(m))
    if gates:
        controls = np.fromiter((c for c, _ in gates), dtype=np.int64,
                               count=len(gates))
        add("synth.max_fanout", int(np.bincount(controls).max()))


def _count_serialize(add, args, kwargs, result):
    add("synth.circuit_bytes", len(result))


def _count_verify(add, args, kwargs, result):
    add("verify.generators_checked", result.n_checked)
    add("verify.generators_failed", len(result.failed_x) + len(result.failed_z))


def _count_plan(add, args, kwargs, result):
    add("groups.nodes", sum(len(layer) for layer in result.layers))


def _count_level(add, args, kwargs, result):
    if result is not None:
        add("groups.table_cells", sum(v.size for v in vars(result).values()
                                      if isinstance(v, np.ndarray)))


COUNTERS = {
    ("css", "CssCode.__post_init__"): _count_code,
    ("synth", "emit_circuit"): _count_emit,
    ("synth", "serialize_circuit"): _count_serialize,
    ("verify", "verify_circuit"): _count_verify,
    ("groups", "plan_network"): _count_plan,
    ("groups", "_build_level"): _count_level,
}


class Tracer:
    """Install with :meth:`command` around one CLI call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.aggregates: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[list] = []    # open frames: [id, child_s, excluded_at_start]
        self._excluded = 0.0            # seconds spent counting, taken out of spans
        self._cmd = None
        self._origin = 0.0
        self._next_id = 0
        self._agg: dict = {}
        self._times: dict = {}
        self._layers: dict = {}
        self._counts: dict = {}
        self._counting: dict = {}
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        for module, attr, metric in SPANS:
            yield module, attr, metric, False
        for module, attr, metric in AGGREGATED:
            yield module, attr, metric, True

    def _install(self):
        for module, attr, metric, aggregated in self._targets():
            mod = importlib.import_module(f"fdsc.{module}")
            owner, name = mod, attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(mod, cls, None)
            if owner is None or name not in vars(owner):
                self.missing.append(f"{module}.{attr}")
                continue
            fn = vars(owner)[name]
            self._saved.append((owner, name, fn))
            wrap = self._wrap_aggregate if aggregated else self._wrap_span
            setattr(owner, name, wrap(fn, f"{module}.{attr}", module, metric,
                                      COUNTERS.get((module, attr))))
        gf2 = importlib.import_module("fdsc.gf2")
        if "_eliminate" in vars(gf2):
            self._saved.append((gf2, "_eliminate", gf2._eliminate))
            gf2._eliminate = self._wrap_elimination(gf2._eliminate)
        else:
            self.missing.append("gf2._eliminate")

    def _uninstall(self):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def command(self, cmd_id: str):
        """Trace one command under ``cmd_id``, which must be unique per run."""
        self._cmd = cmd_id
        self._origin = time.perf_counter()
        self._times[cmd_id] = defaultdict(float)
        self._layers[cmd_id] = defaultdict(float)
        self._counts[cmd_id] = defaultdict(int)
        self.missing.clear()
        excluded_at_start = self._excluded
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._counting[cmd_id] = self._excluded - excluded_at_start
            for (cmd, name), (count, total, metric) in self._agg.items():
                self.aggregates.append({"cmd": cmd, "name": name, "metric": metric,
                                        "count": count, "total_s": total})
            self._agg.clear()
            self._cmd = None

    # -- wrappers ----------------------------------------------------------

    def _add_count(self, key, value):
        counts = self._counts[self._cmd]
        counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value

    def _close(self, frame, t0, t1, layer, metric):
        """Pop ``frame``; return its duration and self time."""
        self._stack.pop()
        dur = (t1 - t0) - (self._excluded - frame[2])
        self_s = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        self._layers[self._cmd][layer] += self_s
        if metric:
            self._times[self._cmd][metric] += self_s
        return dur, self_s

    def _wrap_span(self, fn, name, layer, metric, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [tracer._next_id, 0.0, tracer._excluded]
            tracer._next_id += 1
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur, self_s = tracer._close(frame, t0, t1, layer, metric)
                tracer.spans.append({
                    "id": frame[0], "parent": parent, "cmd": tracer._cmd,
                    "name": name, "layer": layer,
                    "start": t0 - tracer._origin, "end": t1 - tracer._origin,
                    "dur": dur, "self": self_s})
            if counter is not None:
                c0 = time.perf_counter()
                counter(tracer._add_count, args, kwargs, result)
                tracer._excluded += time.perf_counter() - c0
            return result

        return wrapper

    def _wrap_aggregate(self, fn, name, layer, metric, counter):
        tracer = self
        count_key = CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0, tracer._excluded]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur, _ = tracer._close(frame, t0, t1, layer, metric)
                key = (tracer._cmd, name)
                count, total, _ = tracer._agg.get(key, (0, 0.0, metric))
                tracer._agg[key] = (count + 1, total + dur, metric)
                if count_key:
                    tracer._counts[tracer._cmd][count_key] += 1

        return wrapper

    def _wrap_elimination(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(data, *args, **kwargs):
            counts = tracer._counts[tracer._cmd]
            counts["gf2.elim_calls"] += 1
            counts["gf2.elim_words"] += int(data.shape[0]) * int(data.shape[1])
            return fn(data, *args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def command_summary(self, cmd_id: str) -> dict:
        """Self times by metric and by layer, counts, the root duration and
        the time spent computing the counts."""
        root = [s for s in self.spans if s["cmd"] == cmd_id and s["name"] == "cli.main"]
        return {"times": dict(self._times[cmd_id]),
                "layers": {layer: self._layers[cmd_id].get(layer, 0.0)
                           for layer in LAYERS},
                "counts": dict(self._counts[cmd_id]),
                "root_s": sum(s["dur"] for s in root),
                "counting_s": self._counting[cmd_id],
                "missing": list(self.missing)}
