"""Span tracing of the stabscope package from outside it.

install() wraps every public function of every stabscope module, in each
module namespace that binds it: `from .stabilizer import stabilizer_pure`
copies the name into classify, cli, equivalence and selftest, so wrapping
only the defining module would miss the calls made through those copies.
Each call records a span (id, name, parent, start, end) into per-thread
arrays kept in memory; spans started in a worker thread with no open span of
its own are parented to the innermost open span of the installing thread.
"""

import functools
import inspect
import itertools
import sys
import threading
from array import array
from time import perf_counter_ns

import numpy as np

# Per-layer metrics: name -> (unit, the end-to-end metric and workloads it
# should move).
PER_LAYER = {
    "cli.main.self_ms": ("ms", "latency_p50_ms on screen"),
    "io.resolve_state.self_ms": ("ms", "latency_p50_ms on screen"),
    "io.resolve_state.calls": ("count", "latency_p50_ms on screen"),
    "states.to_density.calls": ("count", "latency_tail_ms, peak_rss_mb on screen"),
    "states.to_density.self_ms": ("ms", "latency_tail_ms, peak_rss_mb on screen"),
    "states.to_density.computed_bytes": ("B", "latency_tail_ms, peak_rss_mb on screen"),
    "states.is_product.self_ms": ("ms", "latency_tail_ms on screen and canon"),
    "states.subset_purity.calls": ("count", "latency_tail_ms on screen and canon"),
    "local_unitary.haar_su2.calls": ("count", "req_per_s on equiv"),
    "local_unitary.haar_su2.self_ms": ("ms", "req_per_s on equiv"),
    "stabilizer.stabilizer_pure.calls": ("count", "latency_p50_ms on screen"),
    "stabilizer.stabilizer_pure.self_ms": ("ms", "latency_p50_ms on screen"),
    "stabilizer.stabilizer_pure.calls_per_request": ("calls/req", "latency_p50_ms on screen"),
    "stabilizer.stabilizer_density.calls": ("count", "req_per_s on density, latency_p50_ms on screen"),
    "stabilizer.stabilizer_density.direct_self_ms": ("ms", "req_per_s on density, latency_p50_ms on screen"),
    "stabilizer.stabilizer_density.projected_self_ms": ("ms", "req_per_s on density, latency_p50_ms on screen"),
    "stabilizer.stabilizer_density.cross_validated_calls": ("count", "req_per_s on density, latency_p50_ms on screen"),
    "stabilizer.principal_angles.self_ms": ("ms", "req_per_s on density"),
    "stabilizer.projection_dim.calls": ("count", "latency_p50_ms on screen and equiv"),
    "stabilizer.algebra_type.self_ms": ("ms", "latency_p50_ms on screen"),
    "invariants.invariant_fingerprint.calls": ("count", "latency_tail_ms on screen, req_per_s on equiv"),
    "invariants.invariant_fingerprint.self_ms": ("ms", "latency_tail_ms on screen, req_per_s on equiv"),
    "invariants.polynomial_invariant.calls": ("count", "latency_p50_ms on canon"),
    "invariants.polynomial_invariant.self_ms": ("ms", "latency_p50_ms on canon"),
    "equivalence.decide_equivalence.calls": ("count", "req_per_s, latency_tail_ms on equiv; latency_tail_ms on canon"),
    "equivalence.decide_equivalence.self_ms": ("ms", "req_per_s, latency_tail_ms on equiv; latency_tail_ms on canon"),
    "equivalence.lu_infidelity.calls": ("count", "req_per_s, latency_tail_ms on equiv; latency_tail_ms on canon"),
    "equivalence.lu_infidelity.self_ms": ("ms", "req_per_s, latency_tail_ms on equiv; latency_tail_ms on canon"),
    "equivalence.restarts_used": ("count", "req_per_s on equiv"),
    "equivalence.restarts_used.per_decision": ("count", "req_per_s on equiv"),
    "equivalence.screened_frac": ("ratio", "failed_frac on equiv"),
    "equivalence.certified_frac": ("ratio", "failed_frac on equiv"),
    "classify.classify.self_ms": ("ms", "latency_p50_ms, latency_tail_ms on canon"),
    "classify.canonicalize_ghz.self_ms": ("ms", "latency_p50_ms, latency_tail_ms on canon"),
    "classify.canonicalize_four_qubit.self_ms": ("ms", "latency_p50_ms, latency_tail_ms on canon"),
    "classify.confirm_searches": ("count", "latency_p50_ms, latency_tail_ms on canon"),
    "classify.ambiguous_frac": ("ratio", "failed_frac on canon"),
    "trace.overhead_frac": ("ratio", "untraced over traced req_per_s, minus one, after the first round"),
}

# What each call's result adds to its span.
ANNOTATORS = {
    # computed, not measured: one complex128 4^n matrix
    "states.to_density": lambda result: 16 * 4**result.n,
    "stabilizer.stabilizer_density": lambda result: (result.method, result.cross_validated),
    "equivalence.lu_infidelity": lambda result: result.restarts_used,
    "equivalence.decide_equivalence": lambda result: (result.status, result.restarts_used is None),
    "classify.classify": lambda result: (result.verdict, result.ambiguous),
}


class Tracer:
    """Records spans around the public functions of a package."""

    def __init__(self, annotators=ANNOTATORS):
        self.names: list[str] = []
        self.notes: dict[int, object] = {}
        self._annotators = annotators
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[tuple] = []
        self._main_stack: list[int] = []
        self._wrappers: dict = {}
        self._patched: list[tuple] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.buffer = tuple(array("q") for _ in range(5))
            self._buffers.append(local.buffer)
        return local.stack, local.buffer

    def _wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        annotate = self._annotators.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buffer = tracer._thread_state()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                for column, value in zip(buffer, (sid, idx, parent, t0, t1)):
                    column.append(value)
            if annotate is not None:
                tracer.notes[sid] = annotate(result)
            return result

        return traced

    def install(self, package: str = "stabscope") -> None:
        """Wrap the package's public functions; call from the thread that
        issues requests.  Installing again reuses the same wrappers."""
        self._main_stack = self._thread_state()[0]
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers = self._wrappers
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith(package):
                    continue
                if obj not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans(self) -> dict:
        """Every recorded span as arrays indexed by span id."""
        cols = [
            np.concatenate([np.frombuffer(buf[i], dtype=np.int64) for buf in self._buffers])
            if self._buffers else np.zeros(0, dtype=np.int64)
            for i in range(5)
        ]
        order = np.argsort(cols[0], kind="stable")
        sid, name, parent, start, end = (c[order] for c in cols)
        if not np.array_equal(sid, np.arange(sid.size)):
            raise RuntimeError("span ids are not contiguous; a span is still open")
        return {"name": name, "parent": parent, "start": start, "end": end}


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Spans are indexed 0..N-1 and parent holds the parent's index or -1.
    Children running concurrently in other threads may overlap, so their
    intervals are merged before they are subtracted.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0
    for i in kids.tolist():
        q = p[i]
        if q != current:
            current, reach = q, s[q]
        lo = max(s[i], reach)
        hi = min(e[i], e[q])
        if hi > lo:
            covered[q] += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans: dict, names: list, notes: dict, requests: int) -> dict:
    """The PER_LAYER values (all but trace.overhead_frac) of one traced run."""
    own = self_times(spans["start"], spans["end"], spans["parent"])
    index = {name: i for i, name in enumerate(names)}

    def ids(fn):
        if fn not in index:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(spans["name"] == index[fn])

    def calls(fn):
        return int(ids(fn).size)

    def self_ms(fn, keep=None):
        sel = ids(fn)
        if keep is not None:
            sel = [i for i in sel.tolist() if keep(notes.get(i))]
        return float(own[sel].sum()) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    dens = [notes.get(i) for i in ids("stabilizer.stabilizer_density").tolist()]
    decisions = [notes.get(i) for i in ids("equivalence.decide_equivalence").tolist()]
    searched = [d for d in decisions if d is not None and not d[1]]
    restarts = sum(notes.get(i) or 0 for i in ids("equivalence.lu_infidelity").tolist())
    reports = [notes.get(i) for i in ids("classify.classify").tolist()]
    family = [r for r in reports if r is not None and r[0] == "four_qubit_su2"]
    four = set(ids("classify.canonicalize_four_qubit").tolist())
    confirm = sum(1 for i in ids("equivalence.decide_equivalence").tolist() if spans["parent"][i] in four)
    return {
        "cli.main.self_ms": self_ms("cli.main"),
        "io.resolve_state.self_ms": self_ms("io.resolve_state"),
        "io.resolve_state.calls": calls("io.resolve_state"),
        "states.to_density.calls": calls("states.to_density"),
        "states.to_density.self_ms": self_ms("states.to_density"),
        "states.to_density.computed_bytes": sum(notes.get(i) or 0 for i in ids("states.to_density").tolist()),
        "states.is_product.self_ms": self_ms("states.is_product"),
        "states.subset_purity.calls": calls("states.subset_purity"),
        "local_unitary.haar_su2.calls": calls("local_unitary.haar_su2"),
        "local_unitary.haar_su2.self_ms": self_ms("local_unitary.haar_su2"),
        "stabilizer.stabilizer_pure.calls": calls("stabilizer.stabilizer_pure"),
        "stabilizer.stabilizer_pure.self_ms": self_ms("stabilizer.stabilizer_pure"),
        "stabilizer.stabilizer_pure.calls_per_request": ratio(calls("stabilizer.stabilizer_pure"), requests),
        "stabilizer.stabilizer_density.calls": len(dens),
        "stabilizer.stabilizer_density.direct_self_ms": self_ms(
            "stabilizer.stabilizer_density", lambda d: d is not None and d[0] == "direct"
        ),
        "stabilizer.stabilizer_density.projected_self_ms": self_ms(
            "stabilizer.stabilizer_density", lambda d: d is not None and d[0] == "projected"
        ),
        "stabilizer.stabilizer_density.cross_validated_calls": sum(1 for d in dens if d and d[1]),
        "stabilizer.principal_angles.self_ms": self_ms("stabilizer.principal_angles"),
        "stabilizer.projection_dim.calls": calls("stabilizer.projection_dim"),
        "stabilizer.algebra_type.self_ms": self_ms("stabilizer.algebra_type"),
        "invariants.invariant_fingerprint.calls": calls("invariants.invariant_fingerprint"),
        "invariants.invariant_fingerprint.self_ms": self_ms("invariants.invariant_fingerprint"),
        "invariants.polynomial_invariant.calls": calls("invariants.polynomial_invariant"),
        "invariants.polynomial_invariant.self_ms": self_ms("invariants.polynomial_invariant"),
        "equivalence.decide_equivalence.calls": len(decisions),
        "equivalence.decide_equivalence.self_ms": self_ms("equivalence.decide_equivalence"),
        "equivalence.lu_infidelity.calls": calls("equivalence.lu_infidelity"),
        "equivalence.lu_infidelity.self_ms": self_ms("equivalence.lu_infidelity"),
        "equivalence.restarts_used": restarts,
        "equivalence.restarts_used.per_decision": ratio(restarts, len(decisions)),
        "equivalence.screened_frac": ratio(len(decisions) - len(searched), len(decisions)),
        "equivalence.certified_frac": ratio(sum(1 for d in searched if d[0] == "equivalent"), len(searched)),
        "classify.classify.self_ms": self_ms("classify.classify"),
        "classify.canonicalize_ghz.self_ms": self_ms("classify.canonicalize_ghz"),
        "classify.canonicalize_four_qubit.self_ms": self_ms("classify.canonicalize_four_qubit"),
        "classify.confirm_searches": confirm,
        "classify.ambiguous_frac": ratio(sum(1 for r in family if r[1]), len(family)),
    }
