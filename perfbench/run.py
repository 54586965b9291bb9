#!/usr/bin/env python3
"""Host-performance benchmark of the PLATINUM simulator.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-live --seed 1 \\
        --seconds 30 --trace 0

One process, one thread, closed loop: each simulation starts when the
previous one ends.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs untraced for half the time, then with span wrappers
installed around the simulator's entry points for the other half, and
prints the per-layer metrics.  Every unit's simulated fingerprint is
checked against ``fingerprints.json``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Telemetry stays off throughout.

The host's speed wanders by a quarter over seconds and minutes, so the
end-to-end times are in reference seconds.  The benchmark times a fixed
pure-Python probe loop before and after the import, each set-up, and
every 0.4 s of units (once per second of units since the last probe),
and scales each step's host seconds by the probe's reference time over
the mean of the probes around it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# at most one thread of numerical library code besides the interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("gauss-live", "pingpong-protocol", "matmul-replay")
#: set-ups per run; ``setup_s`` reports their median
SETUP_REPS = 3
#: iterations of the probe loop (0.04 to 0.07 s on a 2.1 GHz Xeon)
PROBE_LOOPS = 600_000
#: the probe's host time on the reference host; a reference second is
#: a second of a host on which the probe takes this long
PROBE_REF_S = 0.05
#: host seconds of units between two probes, at most one unit over
PROBE_EVERY_S = 0.4


def probe_seconds() -> float:
    """Host time of a fixed pure-Python loop: the yardstick for the
    host's speed at that moment.  It is the benchmark's own code, so a
    change to the simulator cannot move it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - t0


def to_ref(secs: float, before: float, after: float) -> float:
    """Host seconds in reference seconds, given the probe times just
    before and just after them."""
    return secs * PROBE_REF_S / (0.5 * (before + after))


def ref_timed(fn):
    """(``fn()``, its host time in reference seconds)."""
    before = probe_seconds()
    t0 = time.perf_counter()
    out = fn()
    secs = time.perf_counter() - t0
    return out, to_ref(secs, before, probe_seconds())


class Runner:
    """Runs units, times them and counts failed ones.

    A unit fails when it raises, when its counters differ from the
    pinned fingerprint, or when they differ from the same unit's first
    run in this process (every counter must repeat exactly).
    """

    def __init__(self, pins: dict) -> None:
        self.pins = pins["units"]
        self.fidelity_bound = pins.get("fast_fidelity")
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, dict] = {}
        #: (label, host seconds, number of probes run before the unit)
        self.samples: list[tuple[str, float, int]] = []
        self.probes: list[float] = []
        self.last_probe = 0.0

    def probe(self) -> None:
        """Record the mean of one probe per second of units since the
        last probe (one to four): longer units average more of the
        host's speed."""
        gap = time.perf_counter() - self.last_probe if self.probes else 0.0
        n = min(4, max(1, round(gap)))
        self.probes.append(
            statistics.fmean(probe_seconds() for _ in range(n)))
        self.last_probe = time.perf_counter()

    def probe_due(self) -> None:
        if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe()

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def run(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed unit, counted
            traceback.print_exc()
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return
        finally:
            # drop the unit's kernel before the next unit builds one
            gc.collect()
        self.samples.append((label, elapsed, len(self.probes)))
        out["words"] = out["local_words"] + out["remote_words"]
        first = self.first.setdefault(label, out)
        pin = self.pins.get(label, {})
        wrong = [f"{k}={out.get(k)} (pinned {v})"
                 for k, v in pin.items() if out.get(k) != v]
        if wrong:
            self.fail(label, "fingerprint mismatch: " + ", ".join(wrong))
        elif first != out:
            self.fail(label, "counters differ from this unit's first run")

    def check_fidelity(self, fast_fidelity):
        """Fast-replay fidelity of the first pass, for workloads with a
        pinned bound (else None).  It may improve but not worsen; the
        check counts as one unit."""
        bound = self.fidelity_bound
        if bound is None:
            return None
        self.attempted += 1
        try:
            dev, agree = fast_fidelity(self.first)
        except KeyError as exc:
            self.fail("fast fidelity", f"no result for {exc}")
            return 0.0, 0.0
        if dev > bound["dev_pct_max"] or agree < bound["rank_agree_min"]:
            self.fail(
                "fast fidelity",
                f"fast_dev_pct {dev:.4f} (max {bound['dev_pct_max']:.4f}), "
                f"fast_rank_agree {agree:.4f} "
                f"(min {bound['rank_agree_min']:.4f})",
            )
        return dev, agree

    def pass_wall(self, units, ref: bool = False) -> float:
        """Host seconds of one pass: the sum, over units, of each unit's
        median.  With ``ref``, in reference seconds: each unit's time is
        scaled by the nearest probes before and after it."""
        probes = self.probes
        per_unit: dict[str, list[float]] = defaultdict(list)
        for label, secs, k in self.samples:
            if not ref:
                per_unit[label].append(secs)
            elif 0 < k < len(probes):
                per_unit[label].append(
                    to_ref(secs, probes[k - 1], probes[k]))
        return sum(statistics.median(per_unit[label]) if per_unit[label]
                   else 0.0 for label, _fn in units)


def measure(runner: Runner, units, seconds: float, span_log=None):
    """Run passes of ``units`` until ``seconds`` have gone, at least one
    whole pass, with probes before, between and after the units.  With
    a span log, returns each whole pass's span range."""
    if span_log is not None:
        units = [(label, span_log.wrap("bench.unit", fn))
                 for label, fn in units]
    start = time.perf_counter()
    ranges = []
    runner.probe()
    while not (ranges and time.perf_counter() - start >= seconds):
        lo = len(span_log) if span_log is not None else 0
        for label, fn in units:
            if ranges and time.perf_counter() - start >= seconds:
                break
            runner.run(label, fn)
            runner.probe_due()
        else:
            ranges.append((lo, len(span_log) if span_log is not None else 0))
    runner.probe()
    return ranges


def pass_counters(runner: Runner, units) -> dict:
    """Per-pass sums of every unit's deterministic counters."""
    total: dict = defaultdict(int)
    for label, _fn in units:
        for key, value in runner.first.get(label, {}).items():
            total[key] += value
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_repeated(workload, seed: int):
    """Set the workload up ``SETUP_REPS`` times; the last state is kept.
    Returns (state, median reference seconds)."""
    times = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        state, secs = ref_timed(lambda: workload.setup(seed))
        times.append(secs)
    return state, statistics.median(times)


def end_to_end(args, cases, runner, workload, state, import_s, setup_s):
    units = workload.units(state)
    measure(runner, units, args.seconds)
    counters = pass_counters(runner, units)
    wall = runner.pass_wall(units)
    wall_ref = runner.pass_wall(units, ref=True)
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "wall_ref_s": (wall_ref, "s"),
        "words_per_ref_s": (ratio(counters["words"], wall_ref), "words/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    shown = dict(metrics)
    shown["wall_s"] = (wall, "s")
    shown["words_per_s"] = (ratio(counters["words"], wall), "words/s")
    shown["probe_s"] = (statistics.median(runner.probes), "s")
    fidelity = runner.check_fidelity(cases.fast_fidelity)
    if fidelity is not None:
        shown["fast_dev_pct"] = (fidelity[0], "%")
        shown["fast_rank_agree"] = (fidelity[1], "ratio")
    shown["fail_ratio"] = (ratio(runner.failed, runner.attempted), "ratio")
    return metrics, shown


def per_layer(args, cases, runner, workload, state, seed):
    from spans import SpanLog, Tracer

    units = workload.units(state)
    measure(runner, units, args.seconds / 2)
    untraced_wall = runner.pass_wall(units)
    probe_s = statistics.median(runner.probes)
    dev, agree = runner.check_fidelity(cases.fast_fidelity) or (0.0, 0.0)

    log = SpanLog()
    tracer = Tracer(log)
    tracer.install()
    try:
        # one traced set-up for ``replay.record_pct``; the passes reuse the
        # untraced state, whose trace is already decoded
        log.wrap("bench.setup", workload.setup)(seed)
        gc.collect()
        setup_spans = log.self_times(0, len(log))
        ranges = measure(runner, units, args.seconds / 2, span_log=log)
    finally:
        tracer.remove()
    per_pass = [log.self_times(lo, hi) for lo, hi in ranges]
    log.write(SPAN_DIR / f"{workload.name}.spans.npz")

    # span call counts are work counts: every pass must repeat them
    runner.attempted += 1
    counts = [{name: v[0] for name, v in p.items()} for p in per_pass]
    if any(c != counts[0] for c in counts):
        runner.fail("span counts", "call counts differ between passes")
    # times come from the pass of median traced wall, so the reported
    # self times add up to the reported traced wall exactly
    walls = [p["bench.unit"][2] for p in per_pass]
    median_pass = per_pass[walls.index(statistics.median_low(walls))]

    def calls(name: str) -> int:
        return median_pass.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(median_pass.get(n, (0, 0.0, 0.0))[1] for n in names)

    def total_s(name: str) -> float:
        return median_pass.get(name, (0, 0.0, 0.0))[2]

    c = pass_counters(runner, units)
    traced_wall = total_s("bench.unit")
    trace_ops = state.get("trace_ops", 0)
    n_fast = sum(1 for label, _ in units if label.startswith("fast "))
    translates = calls("machine.translate")
    accesses = calls("machine.access")
    layer_self = {
        "sim.self_s": self_s("sim.step"),
        "runtime.self_s": self_s("runtime.interpret"),
        "machine.build_s": self_s("machine.build"),
        "machine.translate_s": self_s("machine.translate"),
        "machine.access_s": self_s("machine.access"),
        "kernel.build_s": self_s("kernel.build"),
        "core.fault_s": self_s("core.fault"),
        "core.shootdown_s": self_s("core.shootdown"),
        "core.defrost_s": self_s("core.defrost"),
        "workloads.setup_s": self_s("workloads.setup"),
        "workloads.verify_s": self_s("workloads.verify"),
        "replay.op_s": self_s("replay.op"),
        "replay.self_s": self_s("replay.exact", "replay.fast",
                                "replay.record"),
        "bench.unwrapped_s": self_s("bench.unit"),
    }
    # the result line carries shares of the traced wall (they add up to
    # 100 %): host speed wanders less into a share than into seconds
    total = sum(layer_self.values())
    print(f"layer self times + unwrapped = {total:.6f} s, traced wall "
          f"{traced_wall:.6f} s (gap {total - traced_wall:.3g} s)")
    setup_wall = setup_spans["bench.setup"][2]
    metrics = {
        name[:-2] + "_pct": (100.0 * ratio(secs, traced_wall), "%")
        for name, secs in layer_self.items()
    }
    metrics.update({
        "replay.exact_pct": (
            100.0 * ratio(total_s("replay.exact"), traced_wall), "%"),
        "replay.fast_pct": (
            100.0 * ratio(total_s("replay.fast"), traced_wall), "%"),
        "replay.record_pct": (100.0 * ratio(
            setup_spans.get("replay.record", (0, 0.0, 0.0))[2],
            setup_wall), "%"),
        "bench.wall_s": (untraced_wall, "s"),
        "bench.probe_s": (probe_s, "s"),
        "bench.traced_wall_s": (traced_wall, "s"),
        "bench.trace_overhead_pct": (
            100.0 * (ratio(traced_wall, untraced_wall) - 1.0), "%"),
        "sim.events": (c["events"], "count"),
        "sim.events_per_s": (ratio(c["events"], untraced_wall), "1/s"),
        "runtime.ops": (calls("runtime.interpret"), "count"),
        "runtime.retry_ratio": (ratio(translates, accesses), "ratio"),
        "machine.translates": (translates, "count"),
        "machine.accesses": (accesses, "count"),
        "machine.atc_hit_ratio": (
            ratio(c["atc_hits"], c["atc_hits"] + c["atc_misses"]), "ratio"),
        "machine.remote_word_ratio": (
            ratio(c["remote_words"], c["words"]), "ratio"),
        "machine.queue_delay_ms": (c["queue_delay_ms"], "sim_ms"),
        "core.faults": (calls("core.fault"), "count"),
        "core.shootdowns": (calls("core.shootdown"), "count"),
        "core.shootdown_targets": (c["shootdown_targets"], "count"),
        "core.defrost_runs": (calls("core.defrost"), "count"),
        "core.transfers": (c["transfers"], "count"),
        "replay.trace_ops": (trace_ops, "count"),
        "replay.windows": (c["windows"], "count"),
        "replay.batched_ops": (c["batched_ops"], "count"),
        "replay.batched_op_ratio": (
            ratio(c["batched_ops"], trace_ops * n_fast), "ratio"),
        "replay.fast_dev_pct": (dev, "%"),
        "replay.fast_rank_agree": (agree, "ratio"),
        "mmu.atc.hits": (c["atc_hits"], "count"),
        "mmu.atc.misses": (c["atc_misses"], "count"),
        "machine.local_words": (c["local_words"], "count"),
        "machine.remote_words": (c["remote_words"], "count"),
        "machine.queue_delay_ns": (c["queue_delay_ns"], "sim_ns"),
        "kernel.faults": (c["faults"], "count"),
        "kernel.replications": (c["replications"], "count"),
        "kernel.migrations": (c["migrations"], "count"),
        "kernel.invalidations": (c["invalidations"], "count"),
        "kernel.freezes": (c["freezes"], "count"),
        "kernel.shootdowns": (c["shootdowns"], "count"),
        "kernel.ipis": (c["ipis"], "count"),
    })
    shown = {name: (secs, "s") for name, secs in layer_self.items()}
    shown.update(metrics)
    return metrics, shown


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: simulator sources not found under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # importing the simulator is part of set-up
    cases, import_s = ref_timed(lambda: importlib.import_module("cases"))

    workload = cases.WORKLOADS[args.workload]
    state, setup_s = setup_repeated(workload, args.seed)
    runner = Runner(cases.PINS[workload.name])
    for label, fn in workload.checks(state):
        runner.run(label, fn)

    if args.trace:
        metrics, shown = per_layer(
            args, cases, runner, workload, state, args.seed)
    else:
        metrics, shown = end_to_end(
            args, cases, runner, workload, state, import_s, setup_s)
    print(f"workload {workload.name} seed {args.seed} "
          f"trace {args.trace}: {runner.attempted} units, "
          f"{runner.failed} failed")
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
