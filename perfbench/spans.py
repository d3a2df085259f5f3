"""Spans around the public functions of qdomains, installed from outside.

A span is (name, start, end, parent).  Spans live in memory while the traced
pass runs and are written once at the end.  A function is wrapped on its
defining module and on every qdomains module that imported it by name, so a
call is caught whichever name the caller used; the weight helpers are wrapped
only where they are imported, which counts them as seen from their callers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

# (defining module, function names, span name, wrap in the defining module too)
TARGETS = (
    ("qdomains.verify", ("run_suite",), "verify.suite", True),
    ("qdomains.fock", ("op_norm",), "fock.op_norm", True),
    ("qdomains.fock", ("rep_element",), "fock.rep_element", True),
    ("qdomains.fock", ("rep_generator",), "fock.rep_generator", True),
    ("qdomains.fock", ("verify_tw_ccr",), "fock.verify_tw_ccr", True),
    ("qdomains.quotient", ("quotient_norm_l1",), "quotient.l1", True),
    ("qdomains.quotient", ("quotient_norm_l2",), "quotient.l2", True),
    ("qdomains.quotient", ("build_slice", "slice_matrix", "slice_rank"), "quotient.slice", True),
    ("qdomains.qcombinatorics", ("sampled_monomial_sup",), "qcombinatorics.sampled_sup", True),
    ("qdomains.qcombinatorics", ("w_q", "ball_weight", "log_w_q", "log_ball_weight"),
     "qcombinatorics.weights", False),
    ("qdomains.qspace", ("multiply",), "qspace.multiply", True),
    ("qdomains.qspace", ("polydisk_norm", "ball_norm"), "qspace.norm", True),
    ("qdomains.qspace", ("weight_ratio_scan",), "qspace.weight_ratio_scan", True),
    ("qdomains.qspace", ("reversal_iso",), "qspace.reversal_iso", True),
    ("qdomains.freeseries", ("free_polydisk_norm", "taylor_norm", "free_ball_norm"),
     "freeseries.norm", True),
    ("qdomains.freeseries", ("concat_multiply",), "freeseries.multiply", True),
    ("qdomains.jsr", ("canonical_partials", "jsr_partials"), "jsr.partials", True),
    ("qdomains.jsr", ("jsr_extrapolate",), "jsr.extrapolate", True),
    ("qdomains.jsr", ("estimate_canonical_jsr",), "jsr.estimate", True),
    ("qdomains.parsing", ("parse_qelement", "parse_free_element"), "parsing.parse", True),
    ("qdomains.parsing", ("format_qelement", "format_free_element"), "parsing.format", True),
)

ROOT = "bench.pass"


class Tracer:
    """Collects spans and per-name counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, observe=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None, name_of=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe, name_of))

    def install(self, observers: dict | None = None) -> None:
        """Wrap every TARGETS function wherever a qdomains module holds it."""
        observers = observers or {}
        modules = [m for k, m in sorted(sys.modules.items()) if k == "qdomains" or k.startswith("qdomains.")]
        for mod_name, funcs, span_name, in_definer in TARGETS:
            definer = sys.modules[mod_name]
            for func in funcs:
                original = getattr(definer, func)
                wrapped = self.wrap(
                    original,
                    span_name,
                    observers.get(span_name),
                    (lambda args: f"verify.suite:{args[0]}") if span_name == "verify.suite" else None,
                )
                for mod in modules:
                    if mod is definer and not in_definer:
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        dur = self.durations()
        own = self.self_times()
        for i, nid in enumerate(self.name_id):
            rec = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += own[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": list(self.name_id),
                    "start": list(self.start),
                    "end": list(self.end),
                    "parent": list(self.parent),
                },
                fh,
            )
