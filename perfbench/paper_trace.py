"""paper-trace: the offline reproduction, trace -> columnar store -> alpha/rho.

Set-up streams a seeded monitor-node trace into a trace store.  The
measured work is every evaluation path the paper's figures use, each
reading the store block by block: the four batch strategies, the
streaming rules with both count backends, and a 2-worker partitioned
sliding-window run.  Work units are pairs scored, summed over runs.
"""

from __future__ import annotations

import os

from harness import FAILED, PASSED, CycleResult

from repro.core.strategies import (
    AdaptiveSlidingWindow,
    LazySlidingWindow,
    SlidingWindow,
    StaticRuleset,
)
from repro.core.streaming import StreamingRules
from repro.obs.registry import get_global_registry
from repro.parallel.partition import evaluate_store_partitioned, plan_shards
from repro.trace.store import TraceStoreError, TraceStoreReader, TraceStoreWriter
from repro.workload.tracegen import MonitorTraceConfig, MonitorTraceGenerator

SHAPES = {
    "full": {"n_pairs": 600_000, "block_size": 10_000, "chunk_pairs": 100_000},
    "tiny": {"n_pairs": 24_000, "block_size": 2_000, "chunk_pairs": 8_000},
}

_BATCH = (
    ("static", StaticRuleset),
    ("sliding", SlidingWindow),
    ("lazy", LazySlidingWindow),
    ("adaptive", AdaptiveSlidingWindow),
)
_PARTITION_WORKERS = 2


def _histogram_sum(name: str) -> float:
    """Seconds summed over every label of one global-registry histogram."""
    family = get_global_registry().family(name)
    if family is None:
        return 0.0
    return sum(child.sum for child in family.children().values())


def _pairs_scored(run) -> int:
    return sum(trial.result.n_total for trial in run.trials)


class PaperTrace:
    setups_per_cycle = 1
    keep_work_dir = False

    def __init__(
        self, *, seed: int, work_dir: str, n_pairs: int, block_size: int,
        chunk_pairs: int,
    ) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._setups = 0
        self.n_pairs = n_pairs
        self.block_size = block_size
        self.chunk_pairs = chunk_pairs
        self._runs: dict = {}

    def setup(self, clock) -> None:
        # a fresh file per set-up; the run's work directory is removed
        # once, at exit, so no deletion competes with the timed writes
        self._setups += 1
        self.path = os.path.join(self.work_dir, f"trace-{self._setups}.rts")
        generator = MonitorTraceGenerator(
            MonitorTraceConfig(block_size=self.block_size), seed=self.seed
        )
        with TraceStoreWriter(self.path, block_size=self.block_size) as writer:
            written = 0
            while written < self.n_pairs:
                n = min(self.chunk_pairs, self.n_pairs - written)
                with clock.span("workload.tracegen_s"):
                    arrays = generator.generate_pair_arrays(n)
                with clock.span("trace.store_append_s"):
                    writer.append(arrays.source, arrays.replier)
                written += n
            with clock.span("trace.store_append_s"):
                writer.close()

    def measure(self, clock) -> CycleResult:
        mine0 = _histogram_sum("repro_offline_mine_seconds")
        test0 = _histogram_sum("repro_offline_test_seconds")
        runs = {}
        with TraceStoreReader(self.path) as reader:
            with clock.phase("trace.store_read_s"):
                for block in reader.iter_blocks():
                    len(block)
            strategies = [(name, cls()) for name, cls in _BATCH] + [
                (f"streaming_{backend}", StreamingRules(backend=backend))
                for backend in ("exact", "lossy")
            ]
            for name, strategy in strategies:
                with clock.phase(f"core.{name}_s"):
                    runs[name] = strategy.run(reader.iter_blocks())
        with clock.phase("parallel.partition_s"):
            runs["partitioned"] = evaluate_store_partitioned(
                self.path, SlidingWindow(), workers=_PARTITION_WORKERS
            )
        self._runs = runs
        sliding = runs["sliding"]
        layers = {
            "core.sliding_alpha": sliding.average_coverage,
            "core.generations": sum(runs[name].n_generations for name, _ in _BATCH),
        }
        if clock.traced:
            layers["core.mine_s"] = _histogram_sum("repro_offline_mine_seconds") - mine0
            layers["core.test_s"] = _histogram_sum("repro_offline_test_seconds") - test0
        return CycleResult(
            units=sum(_pairs_scored(run) for run in runs.values()),
            quality={
                "success_ratio": sliding.average_success,
                "alpha": sliding.average_coverage,
            },
            layers=layers,
        )

    def check(self) -> dict[str, str]:
        gates = {}
        with TraceStoreReader(self.path) as reader:
            try:
                intact = reader.verify_blocks(strict=True)
            except TraceStoreError:
                intact = -1
            whole = intact == reader.n_blocks and reader.n_pairs == self.n_pairs
            gates["store_verify_strict"] = PASSED if whole else FAILED
            n_blocks = reader.n_blocks
            shards = plan_shards(
                SlidingWindow(), n_blocks, _PARTITION_WORKERS,
                block_pairs=reader.block_pairs(),
            )
        if len(shards) < 2:
            gates["partitioned_equals_serial"] = (
                f"skipped:{n_blocks} blocks plan one shard"
            )
        else:
            same = self._runs["partitioned"] == self._runs["sliding"]
            gates["partitioned_equals_serial"] = PASSED if same else FAILED
        return gates

    def teardown(self) -> None:
        self._runs = {}
