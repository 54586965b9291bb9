"""In-memory span tracing around the simulator's layer entry points.

The benchmark installs these wrappers itself, so no simulator file
changes: each wrapped call appends one span (name, start, end, parent)
to flat arrays, and the arrays are written once, after measuring.
A layer's self time is its spans' durations minus the part of each
covered by its direct children; nesting is strict (one thread, calls
return before their callers), so child coverage is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _layer_points():
    """(span name, owner, attribute) for every wrapped entry point.

    The owner is a class (the method is wrapped for all instances) or a
    module (the function is wrapped where callers look it up).
    """
    from repro.core.defrost import DefrostDaemon
    from repro.core.fault import CoherentFaultHandler
    from repro.core.shootdown import ShootdownMechanism
    from repro.kernel.kernel import Kernel
    from repro.machine.machine import Machine
    from repro.machine.mmu import MMU
    from repro.replay import recorder, replayer
    from repro.replay.replayer import (
        FastReplayThreadProcess,
        ReplayThreadProcess,
    )
    from repro.runtime.executor import ThreadProcess
    from repro.sim.engine import Engine
    from repro.workloads.gauss import GaussianElimination
    from repro.workloads.matmul import MatrixMultiply
    from repro.workloads.synthetic import RoundRobinSharing

    points = [
        ("sim.step", Engine, "step"),
        ("runtime.interpret", ThreadProcess, "interpret"),
        ("machine.build", Machine, "__init__"),
        ("machine.translate", MMU, "translate"),
        ("machine.access", Machine, "access"),
        ("kernel.build", Kernel, "__init__"),
        ("core.fault", CoherentFaultHandler, "handle"),
        ("core.shootdown", ShootdownMechanism, "shoot_cpage"),
        ("core.defrost", DefrostDaemon, "run_once"),
        ("replay.record", recorder, "record_program"),
        # one entry point, two layers: exact and fast replay are
        # reported apart (see ``SpanLog.wrap``)
        ("replay.exact|replay.fast", replayer, "replay_trace"),
        # a replayed thread's per-op work, the counterpart of
        # ``ThreadProcess.interpret``; without these spans it would be
        # booked as engine dispatch
        ("replay.op", ReplayThreadProcess, "_resume"),
        ("replay.op", FastReplayThreadProcess, "_resume"),
    ]
    for program in (GaussianElimination, RoundRobinSharing, MatrixMultiply):
        points.append(("workloads.setup", program, "setup"))
        points.append(("workloads.verify", program, "verify"))
    return points


class SpanLog:
    """Flat span arrays plus the open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call.  A name ``"a|b"`` records
        ``b`` for calls made with ``mode="fast"`` and ``a`` otherwise."""
        exact_name, _, fast_name = name.partition("|")
        nid = self.name_index(exact_name)
        fast_nid = self.name_index(fast_name) if fast_name else nid
        clock = time.perf_counter
        ids, parents, starts, ends = (
            self.name_id, self.parent, self.start, self.end)
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(fast_nid if kwargs.get("mode") == "fast" else nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def self_times(
        self, lo: int, hi: int
    ) -> dict[str, tuple[int, float, float]]:
        """{name: (calls, self seconds, total seconds)} over spans
        ``lo``..``hi - 1``.

        The range must hold whole subtrees (a root span and everything
        recorded under it), as one benchmark unit does.
        """
        # slicing an array copies it, so no buffer export blocks appends
        nid = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        nested = parent >= 0
        coverage = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        own = dur - coverage
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        secs = np.bincount(nid, weights=own, minlength=k)
        totals = np.bincount(nid, weights=dur, minlength=k)
        return {
            name: (int(calls[i]), float(secs[i]), float(totals[i]))
            for i, name in enumerate(self.names) if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write every span once, as one ``.npz`` of parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Tracer:
    """Installs span wrappers on every layer entry point, and removes
    them again, so untraced and traced phases share one process."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, owner, attr in _layer_points():
            original = owner.__dict__.get(attr)
            if original is None:
                print(f"trace: {owner.__name__}.{attr} is gone; layer "
                      f"{name} reads 0", file=sys.stderr)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.log.wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
