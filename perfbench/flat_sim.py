"""flat-sim: the paper's online claim on the flat overlay with churn.

Set-up builds two identical seeded ``Overlay`` worlds, one with flooding
policies (the reference) and one with association routing.  The measured
work is ``run_workload`` on each; the association arm warms its rule
tables first.  Work units are queries routed, warm-up included.

``TrafficStats.coverage_alpha`` reads 0 here because
``AssociationRoutingPolicy`` never marks a query rule-covered, so this
workload reports no alpha.
"""

from __future__ import annotations

from harness import FAILED, PASSED, CycleResult

from repro.metrics.traffic import TrafficStats
from repro.network.overlay import Overlay, OverlayConfig
from repro.routing import AssociationRoutingPolicy, FloodingPolicy

SHAPES = {
    "full": {"n_nodes": 1000, "n_flood": 1000, "n_queries": 1500, "warmup": 1500},
    "tiny": {"n_nodes": 200, "n_flood": 100, "n_queries": 200, "warmup": 200},
}

_CHURN_RATE = 0.002
#: the ``traffic`` experiment's band: association success may trail
#: flooding's by at most this much.
_SUCCESS_BAND = 0.10
#: queries per timed phase (a few tenths of a second each).
_CHUNK = 250
_COUNTERS = ("n_queries", "n_succeeded", "total_messages", "total_duplicates")


def _run_in_chunks(clock, name: str, overlay, n_queries: int, *, warmup: int):
    """``overlay.run_workload(n_queries, warmup=warmup)``, one phase per chunk.

    The overlay draws every query and churn event from its own rng
    streams in order, so chunked calls route exactly the queries one
    call would.  Returns the measured chunks' ``TrafficStats`` counters
    summed (the running hop/message statistics stay empty).
    """
    total = TrafficStats()
    plan = [(0, min(_CHUNK, warmup - w)) for w in range(0, warmup, _CHUNK)]
    plan += [(min(_CHUNK, n_queries - q), 0) for q in range(0, n_queries, _CHUNK)]
    for n, warm in plan:
        with clock.phase(name):
            stats = overlay.run_workload(n, warmup=warm)
        for counter in _COUNTERS:
            setattr(total, counter, getattr(total, counter) + getattr(stats, counter))
    return total


def _flooding(node_id, overlay):
    return FloodingPolicy(node_id, overlay)


def _association(node_id, overlay):
    # the ``traffic`` experiment's association factory
    return AssociationRoutingPolicy(node_id, overlay, top_k=2, window=2048)


class FlatSim:
    #: a set-up takes about 0.6 s, so three give the median its samples
    setups_per_cycle = 3
    keep_work_dir = False

    def __init__(
        self, *, seed: int, work_dir: str, n_nodes: int, n_flood: int,
        n_queries: int, warmup: int,
    ) -> None:
        self.seed = seed
        self.config = OverlayConfig(n_nodes=n_nodes, churn_rate=_CHURN_RATE)
        self.n_flood = n_flood
        self.n_queries = n_queries
        self.warmup = warmup
        self._overlays: dict = {}
        self._stats: dict = {}

    def setup(self, clock) -> None:
        for arm, factory in (("flooding", _flooding), ("association", _association)):
            with clock.span("network.overlay_build_s"):
                overlay = Overlay(self.config, seed=self.seed)
                overlay.install_policies(factory)
            self._overlays[arm] = overlay

    def measure(self, clock) -> CycleResult:
        self._stats["flooding"] = _run_in_chunks(
            clock, "network.engine.flooding_run_s", self._overlays["flooding"],
            self.n_flood, warmup=0,
        )
        assoc = self._stats["association"] = _run_in_chunks(
            clock, "routing.association_run_s", self._overlays["association"],
            self.n_queries, warmup=self.warmup,
        )
        overlay = self._overlays["association"]
        policies = [overlay.node(i).policy for i in range(overlay.n_nodes)]
        fallbacks = sum(p.fallback_count for p in policies)
        routed = fallbacks + sum(p.rule_resolved_count for p in policies)
        return CycleResult(
            units=self.n_flood + self.n_queries + self.warmup,
            quality={
                "success_ratio": assoc.success_rate,
                "msgs_per_query": assoc.messages_per_query,
            },
            layers={
                "routing.association.msgs_per_query": assoc.messages_per_query,
                "routing.association.fallback_share": fallbacks / routed,
                "network.engine.duplicates_per_query": (
                    assoc.total_duplicates / assoc.n_queries
                ),
            },
        )

    def check(self) -> dict[str, str]:
        gap = self._stats["association"].success_rate - self._stats[
            "flooding"
        ].success_rate
        return {
            "association_success_within_band": (
                PASSED if gap >= -_SUCCESS_BAND else FAILED
            )
        }

    def teardown(self) -> None:
        self._overlays = {}
        self._stats = {}
