"""Cycle loop, phase clock and result assembly shared by every workload.

A run repeats *cycles* for ``--seconds``, and at least
:data:`MIN_CYCLES` of them.  Each cycle sets the workload up from its
seed, measures it and checks its outputs.  Every cycle of a run does
exactly the same work, so its outputs must repeat exactly.

* ``setup_s`` is the median of the run's set-up times.  A workload with
  a cheap set-up repeats it ``setups_per_cycle`` times in each cycle, so
  the median has enough samples.
* The work rate divides a cycle's work units by the sum, over the
  measured work's *phases* (one strategy run, arm, chunk of queries or
  checkpoint pass, each a few tenths of a second), of each phase's
  fastest time among the run's cycles.

With tracing on, cycles alternate plain / traced and come in pairs.
Traced cycles also record layer spans — one per coarse call into a
layer — and the work rate over plain and over traced cycles gives the
cost of that tracing.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import resource
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

__all__ = [
    "FAILED",
    "METRIC_NAME",
    "MIN_CYCLES",
    "PASSED",
    "CycleClock",
    "CycleResult",
    "best_phase_rate",
    "load_spec",
    "nearest_rank",
    "run_cycles",
    "summarize",
    "tail_percentile",
]

#: every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: fewest cycles in a plain run, whatever ``--seconds`` says.
MIN_CYCLES = 3
#: fewest cycles in a traced run: two plain, two traced.
MIN_TRACED_CYCLES = 4

#: gate outcomes; a gate that cannot run is ``"skipped:<reason>"``.
PASSED, FAILED = "passed", "failed"


def load_spec(root: str) -> dict:
    """The repository's ``BENCHMARK.json``: metric names and units."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- spans -------------------------------------------------------------------
class CycleClock:
    """Phase timings for one cycle, plus layer spans when ``traced``.

    Phases are timed in every cycle; they feed ``work_per_s``.  A span is
    ``(name, start, end)``, kept in memory; open one around each coarse
    call into a layer.  In a plain cycle :meth:`span` does nothing.
    """

    _untraced = nullcontext()

    def __init__(self, *, traced: bool) -> None:
        self.traced = traced
        self.phases: list[float] = []
        self.spans: list[tuple[str, float, float]] = []

    @contextmanager
    def phase(self, name: str):
        """Time one phase of the measured work; also a span named ``name``."""
        t0 = perf_counter()
        with self.span(name):
            yield
        self.phases.append(perf_counter() - t0)

    def span(self, name: str):
        return self._span(name) if self.traced else self._untraced

    @contextmanager
    def _span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, perf_counter()))

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end in self.spans if n == name]

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out


# -- percentiles -------------------------------------------------------------
#: tail percentiles tried, highest first...
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
#: ...the first with at least this many samples beyond it is used.
TAIL_MIN_BEYOND = 10


def nearest_rank(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the sample at rank ceil(pct/100 * n)."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(pct)) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def tail_percentile(n_samples: int) -> float:
    """Highest of :data:`TAIL_PERCENTILES` with :data:`TAIL_MIN_BEYOND`
    samples above it; the median (50) when none qualifies."""
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(Fraction(str(pct)) * n_samples / 100)
        if n_samples - rank >= TAIL_MIN_BEYOND:
            return pct
    return 50.0


# -- cycles ------------------------------------------------------------------
@dataclass
class CycleResult:
    """What one measured cycle produced."""

    #: work units done: pairs scored, queries routed or queries issued.
    units: int
    #: outputs that must repeat exactly at a fixed seed.
    quality: dict[str, float]
    #: per-layer counts and ratios (times come from the spans).
    layers: dict[str, float] = field(default_factory=dict)


@dataclass
class Cycle:
    clock: CycleClock
    setup_s: list[float]
    result: CycleResult
    gates: dict[str, str]


def run_cycles(workload, *, seconds: float, trace: bool) -> list[Cycle]:
    """Set up, measure and check ``workload`` until ``seconds`` are spent.

    A cycle starts only if one more cycle as long as the last still ends
    within ``seconds``, so a run overruns only to reach its minimum.
    ``workload`` has ``setup(clock)``, ``measure(clock) -> CycleResult``,
    ``check() -> {gate: outcome}``, ``teardown()`` and
    ``setups_per_cycle``; traced cycles set up once.
    """
    min_cycles = MIN_TRACED_CYCLES if trace else MIN_CYCLES
    cycles: list[Cycle] = []
    start = perf_counter()
    last = 0.0
    while (
        len(cycles) < min_cycles
        or perf_counter() - start + last <= seconds
        or (trace and len(cycles) % 2)
    ):
        began = perf_counter()
        clock = CycleClock(traced=trace and len(cycles) % 2 == 1)
        setups: list[float] = []
        n_setups = 1 if clock.traced else workload.setups_per_cycle
        try:
            for i in range(n_setups):
                if i:
                    workload.teardown()
                gc.collect()
                t0 = perf_counter()
                workload.setup(clock)
                setups.append(perf_counter() - t0)
            result = workload.measure(clock)
            gates = workload.check()
        finally:
            workload.teardown()
        cycles.append(Cycle(clock, setups, result, gates))
        last = perf_counter() - began
    return cycles


def best_phase_rate(cycles: list[Cycle]) -> float:
    """Work units per second of the sum of each phase's fastest time."""
    phases = zip(*(c.clock.phases for c in cycles))
    return cycles[0].result.units / sum(min(times) for times in phases)


def _merge_gates(cycles: list[Cycle]) -> dict[str, str]:
    """One outcome per gate: failed anywhere wins, then skipped, then passed."""

    def severity(outcome: str) -> int:
        return 2 if outcome == FAILED else int(outcome != PASSED)

    merged: dict[str, str] = {}
    for cycle in cycles:
        for name, outcome in cycle.gates.items():
            merged[name] = max(merged.get(name, PASSED), outcome, key=severity)
    first = cycles[0]
    same = all(
        c.result.quality == first.result.quality
        and c.result.units == first.result.units
        and len(c.clock.phases) == len(first.clock.phases)
        for c in cycles
    )
    merged["cycles_repeat_exactly"] = PASSED if same else FAILED
    return merged


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(cycles: list[Cycle], spec: dict, *, trace: bool):
    """``(result, gates)``: the result line's object and every gate outcome.

    A plain run reports every ``end_to_end`` metric, a traced run every
    ``per_layer`` one; layer names a workload never calls read 0.  A
    cycle that fails a gate counts its units as failed; cycles that do
    not repeat each other fail them all and report no figures.
    """
    gates = _merge_gates(cycles)
    attempted = sum(c.result.units for c in cycles)
    repeated = gates["cycles_repeat_exactly"] == PASSED
    failed = (
        sum(c.result.units for c in cycles if FAILED in c.gates.values())
        if repeated
        else attempted
    )
    plain = [c for c in cycles if not c.clock.traced]
    values: dict[str, float] = {}
    if repeated and not trace:
        values = {
            "setup_s": statistics.median(s for c in plain for s in c.setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "success_ratio": cycles[0].result.quality["success_ratio"],
        }
    elif repeated:
        traced = [c for c in cycles if c.clock.traced]
        plain_rate, traced_rate = best_phase_rate(plain), best_phase_rate(traced)
        values = {
            "bench.work_per_s_plain": plain_rate,
            "bench.work_per_s_traced": traced_rate,
            "bench.trace_overhead_pct": 100.0 * (1.0 - traced_rate / plain_rate),
        }
        layer_values = [{**c.clock.totals(), **c.result.layers} for c in traced]
        for name in {name for layers in layer_values for name in layers}:
            values[name] = statistics.median(
                layers.get(name, 0.0) for layers in layer_values
            )
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in metric_specs
    }
    result = {
        "correct": FAILED not in gates.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, gates
