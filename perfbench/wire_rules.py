"""wire-rules: the deployed servent's forwarding path, in process.

Set-up wires a ``WireNetwork`` of ``StreamingRuleServent`` nodes (the
servent the live daemon runs) over a degree-4 random-regular topology.
Each node keeps lossy streaming rule counts and journals every learned
pair to its own ``PersistentState`` write-ahead log (``fsync="never"``,
so the disk's flush latency stays out of the figures).  The measured
work issues an ``interest_plan`` of queries through ``query_from`` —
Gnutella encode/decode, per-hop rule lookups, WAL appends — and then
checkpoints every node.  Work units are queries issued.
"""

from __future__ import annotations

import os

import numpy as np
from harness import FAILED, PASSED, CycleResult, nearest_rank, tail_percentile

from repro.core.streaming import StreamingRules
from repro.live import StreamingRuleServent, interest_plan, make_vocabulary
from repro.network.servent import SharedFile
from repro.network.topology import random_regular
from repro.network.wirenet import WireNetwork
from repro.obs.registry import MetricsRegistry
from repro.persist.snapshot import fingerprint_counts
from repro.persist.state import PersistentState

SHAPES = {
    "full": {"n_nodes": 200, "n_queries": 4000, "n_terms": 400},
    "tiny": {"n_nodes": 24, "n_queries": 120, "n_terms": 48},
}

_DEGREE = 4
_TOP_K = 2
_MAX_TTL = 7
#: queries per timed phase (a few tenths of a second).
_CHUNK = 250


def _rules() -> StreamingRules:
    # the live daemon's rule settings, on the lossy backend
    return StreamingRules(min_support_count=2, window_pairs=512, backend="lossy")


class WireRules:
    setups_per_cycle = 2
    #: On a virtualised ext4 disk, deleting a run's thousands of small
    #: node state files slowed later file creation for minutes, and with
    #: it the next runs' set-ups; so a run leaves them in place.
    keep_work_dir = True

    def __init__(
        self, *, seed: int, work_dir: str, n_nodes: int, n_queries: int,
        n_terms: int,
    ) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._setups = 0
        self.n_nodes = n_nodes
        self.n_queries = n_queries
        self.n_terms = n_terms
        self._net: WireNetwork | None = None
        self._registry: MetricsRegistry | None = None
        self._plan: list[tuple[int, str]] = []

    def _state_dir(self, node: int) -> str:
        return os.path.join(self.state_root, f"node-{node:03d}")

    def setup(self, clock) -> None:
        # every set-up journals into fresh directories, none deleted
        self._setups += 1
        self.state_root = os.path.join(self.work_dir, f"state-{self._setups}")
        rng = np.random.default_rng(self.seed)
        topology = random_regular(self.n_nodes, _DEGREE, rng=rng)
        vocabulary = make_vocabulary(self.n_terms)
        self._plan = interest_plan(self.n_nodes, vocabulary, self.n_queries, rng)
        rules = _rules()
        # traced cycles count WAL bytes in the program's own persist metrics
        self._registry = MetricsRegistry() if clock.traced else None
        with clock.span("network.wirenet_build_s"):
            net = WireNetwork(topology, max_ttl=_MAX_TTL)
            for node in range(self.n_nodes):
                # node i is the only provider of vocabulary[i::n]
                library = [
                    SharedFile(index=j, name=f"{term} track{j}.mp3", size=1 << 20)
                    for j, term in enumerate(vocabulary[node :: self.n_nodes])
                ]
                net.servents[node] = StreamingRuleServent(
                    100_000 + node,
                    rules=rules,
                    top_k=_TOP_K,
                    library=library,
                    max_ttl=_MAX_TTL,
                    persist=PersistentState(
                        self._state_dir(node),
                        fsync="never",
                        label=str(node),
                        registry=self._registry,
                    ),
                )
            for u, v in topology.edges():
                net.servents[u].connect(v)
                net.servents[v].connect(u)
        self._net = net

    def measure(self, clock) -> CycleResult:
        net = self._net
        answered = 0
        for start in range(0, len(self._plan), _CHUNK):
            with clock.phase("network.wirenet.queries"):
                for node, term in self._plan[start : start + _CHUNK]:
                    with clock.span("network.wirenet.query"):
                        hits, _frames = net.query_from(node, term)
                    answered += hits > 0
        layers = {}
        if clock.traced:
            latencies = clock.durations("network.wirenet.query")
            tail = tail_percentile(len(latencies))
            layers = {
                "network.wirenet.query_p50_ms": nearest_rank(latencies, 50) * 1e3,
                "network.wirenet.query_p99_ms": nearest_rank(latencies, tail) * 1e3,
                "network.wirenet.query_tail_pct": tail,
                "network.wirenet.query_samples": len(latencies),
                "persist.wal_bytes": self._registry.total(
                    "repro_persist_wal_bytes_total"
                ),
            }
        with clock.phase("persist.checkpoint_s"):
            for servent in net.servents:
                servent.persist.checkpoint(servent.counts)
        routed = sum(s.stats.queries_rule_routed for s in net.servents)
        flooded = sum(s.stats.queries_flooded for s in net.servents)
        alpha = routed / (routed + flooded)
        frames = net.frames_delivered / len(self._plan)
        layers.update(
            {
                "live.rule_routed_share": alpha,
                "network.wirenet.frames_per_query": frames,
                "core.streaming.sketch_rules": sum(
                    s.counts.n_rules() for s in net.servents
                ),
            }
        )
        return CycleResult(
            units=len(self._plan),
            quality={
                "success_ratio": answered / len(self._plan),
                "alpha": alpha,
                "msgs_per_query": frames,
            },
            layers=layers,
        )

    def check(self) -> dict[str, str]:
        """Every node recovered from its state directory has its live counts."""
        rules = _rules()
        mismatched = 0
        for node, servent in enumerate(self._net.servents):
            servent.persist.close()
            state = PersistentState(self._state_dir(node), fsync="never")
            try:
                counts, _info = state.recover(rules)
            finally:
                state.close()
            mismatched += fingerprint_counts(counts) != fingerprint_counts(
                servent.counts
            )
        return {"recovered_counts_match_live": PASSED if not mismatched else FAILED}

    def teardown(self) -> None:
        if self._net is not None:
            for servent in self._net.servents:
                servent.persist.close()
        self._net = None
