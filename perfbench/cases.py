"""The benchmark's three workloads, as set-up and unit functions.

A workload's ``setup(seed)`` makes its inputs (and, for replay, records
the trace); it is what ``setup_s`` times.  ``checks(state)`` lists
correctness units run once after set-up, untimed.  ``units(state)``
lists one *pass*: the (label, callable) units whose summed median host
times make ``wall_s``.  Every unit returns the deterministic work
counters of :func:`unit_counters`, read from public simulator state
after the run, and drops its kernel and result before returning, so
the next unit's build never overlaps the previous unit's memory.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.analysis.costmodel import run_counters
from repro.policy.registry import make_policy
# the replay entry points are looked up on their modules at call time,
# so the traced run's wrappers see every call
from repro.replay import recorder, replayer
from repro.runtime.run import make_kernel, run_program
from repro.workloads.gauss import GaussianElimination, make_input
from repro.workloads.matmul import MatrixMultiply
from repro.workloads.synthetic import RoundRobinSharing

#: simulated outcome pinned per unit; ``events_executed`` is left out
#: because event batching may legitimately change it
FINGERPRINT = (
    "sim_time_ns", "faults", "replications", "migrations",
    "invalidations", "freezes", "shootdowns", "transfers",
    "local_words", "remote_words",
)

#: per workload: ``units`` maps a unit label to its pinned counters,
#: ``fast_fidelity`` bounds fast replay's deviation from exact replay
PINS = json.loads(
    (Path(__file__).resolve().parent / "fingerprints.json").read_text())

#: the 36-variant freeze grid of EXPERIMENTS.md's replay speedup table
T1_MS = (1, 2, 5, 10, 20, 50)
DEFROST_MS = (10, 20, 50)
THAW_ON_FAULT = (False, True)


def unit_counters(kernel, counters: dict) -> dict:
    """Deterministic per-unit work counters from public state.

    ``counters`` is :func:`repro.analysis.costmodel.run_counters` of the
    unit's result (the ``kernel.report()`` counts).
    """
    machine = kernel.machine
    coherent = kernel.coherent
    out = {key: counters[key] for key in FINGERPRINT}
    out.update(
        events=int(kernel.engine.events_executed),
        atc_hits=sum(m.atc.hits for m in machine.mmus),
        atc_misses=sum(m.atc.misses for m in machine.mmus),
        queue_delay_ns=int(sum(machine.queue_delay_ns)),
        queue_delay_ms=counters["queue_delay_ms"],
        ipis=counters["ipis"],
        shootdown_targets=coherent.shootdown.total_interrupted,
        defrost_runs=coherent.defrost.runs,
        batched_ops=0,
        windows=0,
    )
    return out


def _live_unit(make_program, n_processors: int, policy):
    def unit() -> dict:
        kernel = make_kernel(
            n_processors,
            policy=make_policy(policy) if policy else None,
        )
        result = run_program(kernel, make_program())
        return unit_counters(kernel, run_counters(result))
    return unit


class _Workload:
    """One benchmark workload: see the module docstring."""

    name = ""

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def checks(self, state: dict) -> list:
        return []

    def units(self, state: dict) -> list:
        raise NotImplementedError


class GaussLive(_Workload):
    """Section 5.1 Gauss 128x128 on 16 processors, paper freeze policy,
    each simulation on a fresh kernel and checked against the
    sequential reference elimination."""

    name = "gauss-live"

    def setup(self, seed: int) -> dict:
        # each unit's program draws this same matrix again from the seed
        # (well under a millisecond)
        make_input(128, seed)
        return {"seed": seed}

    def units(self, state: dict) -> list:
        def make_program():
            return GaussianElimination(n=128, seed=state["seed"])
        return [("gauss", _live_unit(make_program, 16, None))]


class PingpongProtocol(_Workload):
    """Section 4.1 strict round-robin write sharing under
    always-replicate: every turn faults, copies and shoots down."""

    name = "pingpong-protocol"

    def setup(self, seed: int) -> dict:
        # deterministic by construction: the seed changes nothing
        return {}

    def units(self, state: dict) -> list:
        def make_program():
            return RoundRobinSharing(
                n_threads=16, operations=2000, s_words=256, rho=0.25)
        return [("pingpong", _live_unit(make_program, 16, "always"))]


def variant_label(mode: str, t1: int, defrost: int, thaw: bool) -> str:
    return f"{mode} t1={t1}ms defrost={defrost}ms thaw_on_fault={int(thaw)}"


def grid():
    return list(itertools.product(T1_MS, DEFROST_MS, THAW_ON_FAULT))


class MatmulReplay(_Workload):
    """Matmul 128x128 on 8 processors with unpadded C rows, recorded
    once, then the 36-variant freeze grid replayed exactly and fast."""

    name = "matmul-replay"

    def setup(self, seed: int) -> dict:
        program = MatrixMultiply(n=128, n_threads=8, seed=seed,
                                 pad_c_rows=False)
        kernel = make_kernel(8)
        bundle, result = recorder.record_program(kernel, program)
        return {
            "bundle": bundle,
            "record": unit_counters(kernel, run_counters(result)),
            "trace_ops": sum(len(s) for s in bundle.streams),
        }

    def checks(self, state: dict) -> list:
        def checked_replay() -> dict:
            # raises ReplayError unless the replay reproduces the
            # recording run's sim time, events and every counter
            result = replayer.replay_trace(state["bundle"],
                                           check_expected=True)
            return _replay_counters(result)
        return [
            ("record", lambda: state["record"]),
            ("replay check_expected", checked_replay),
        ]

    def units(self, state: dict) -> list:
        bundle = state["bundle"]
        units = []
        for mode in ("exact", "fast"):
            for t1, defrost, thaw in grid():
                def unit(mode=mode, t1=t1, defrost=defrost, thaw=thaw):
                    result = replayer.replay_trace(
                        bundle, policy="freeze",
                        policy_args={"t1": t1 * 1e6,
                                     "thaw_on_fault": thaw},
                        defrost_period=defrost * 1e6, mode=mode,
                    )
                    return _replay_counters(result)
                units.append((variant_label(mode, t1, defrost, thaw), unit))
        return units


def _replay_counters(result) -> dict:
    out = unit_counters(result.kernel, result.counters)
    out["batched_ops"] = result.batched_ops
    out["windows"] = result.windows
    return out


def fast_fidelity(first: dict) -> tuple[float, float]:
    """(largest |fast - exact| / exact sim time in %, share of variant
    pairs with distinct exact sim times that fast mode orders the same
    way) over one full grid pass.  A pair fast mode ties counts as
    ordered differently."""
    exact, fast = [], []
    for t1, defrost, thaw in grid():
        exact.append(first[variant_label("exact", t1, defrost, thaw)]
                     ["sim_time_ns"])
        fast.append(first[variant_label("fast", t1, defrost, thaw)]
                    ["sim_time_ns"])
    dev = max(abs(f - e) / e for e, f in zip(exact, fast))
    pairs = agree = 0
    for i, j in itertools.combinations(range(len(exact)), 2):
        if exact[i] == exact[j]:
            continue
        pairs += 1
        if (exact[i] < exact[j]) == (fast[i] < fast[j]) and fast[i] != fast[j]:
            agree += 1
    return 100.0 * dev, agree / pairs


WORKLOADS = {w.name: w for w in (GaussLive(), PingpongProtocol(),
                                 MatmulReplay())}
