"""hier-sim: the two-tier super-peer simulator, five arms on one world.

Set-up builds the five arms of ``repro.experiments.hier.hier_arm_stats``
through their public constructors: the seed ``SuperPeerNetwork``
baseline and one ``HierNetwork`` per mode.  Every arm draws the same
world and the same queries from the seed.  The measured work is
``run_workload`` on each arm; work units are queries routed, warm-up
included.
"""

from __future__ import annotations

from harness import FAILED, PASSED, CycleResult

from repro.experiments.hier import amortized_messages_per_query
from repro.network.hier import HIER_MODES, HierConfig, HierNetwork
from repro.network.superpeer import SuperPeerConfig, SuperPeerNetwork

SHAPES = {
    "full": {"n_superpeers": 120, "n_queries": 1500, "warmup": 3000},
    "tiny": {"n_superpeers": 12, "n_queries": 60, "warmup": 120},
}

#: the substrate and tier tuning of ``benchmarks/bench_hier.py``.
_SUBSTRATE = dict(
    leaves_per_superpeer=20,
    superpeer_degree=4,
    n_categories=40,
    files_per_category=250,
    library_size=60,
    interests_per_peer=4,
    superpeer_ttl=4,
)
_TIER = {"rule_top_k": 5, "digest_top_k": 5}


class HierSim:
    setups_per_cycle = 1
    keep_work_dir = False

    def __init__(
        self, *, seed: int, work_dir: str, n_superpeers: int, n_queries: int,
        warmup: int,
    ) -> None:
        self.seed = seed
        self.substrate = dict(_SUBSTRATE, n_superpeers=n_superpeers)
        self.n_queries = n_queries
        self.warmup = warmup
        self._arms: dict = {}
        self._stats: dict = {}

    def setup(self, clock) -> None:
        with clock.span("network.superpeer_build_s"):
            self._arms["baseline"] = SuperPeerNetwork(
                SuperPeerConfig(**self.substrate), seed=self.seed
            )
        for mode in HIER_MODES:
            with clock.span("network.hier_build_s"):
                self._arms[mode] = HierNetwork(
                    HierConfig(mode=mode, **self.substrate, **_TIER), seed=self.seed
                )

    def measure(self, clock) -> CycleResult:
        for arm, net in self._arms.items():
            with clock.phase(f"network.hier.{arm}_run_s"):
                self._stats[arm] = net.run_workload(self.n_queries, warmup=self.warmup)
        sp = self._stats["superpeer-rules"]
        control = self._arms["superpeer-rules"].control_messages
        msgs = amortized_messages_per_query(sp, control)
        return CycleResult(
            units=len(self._arms) * (self.n_queries + self.warmup),
            quality={
                "success_ratio": sp.success_rate,
                "alpha": sp.coverage_alpha,
                "msgs_per_query": msgs,
            },
            layers={
                "routing.superpeer_rules.alpha": sp.coverage_alpha,
                "network.hier.msgs_per_query": msgs,
                "routing.superpeer_rules.control_msgs_per_query": control / sp.n_queries,
                "network.hier.duplicates_per_query": sp.total_duplicates / sp.n_queries,
            },
        )

    def check(self) -> dict[str, str]:
        baseline, flood = self._stats["baseline"], self._stats["flood"]
        fields = ("total_messages", "n_succeeded", "total_hits", "total_duplicates")
        same = all(getattr(flood, f) == getattr(baseline, f) for f in fields)
        sp = self._stats["superpeer-rules"]
        return {
            "flood_equals_seed_baseline": PASSED if same else FAILED,
            "superpeer_rules_success_ge_baseline": (
                PASSED if sp.success_rate >= baseline.success_rate else FAILED
            ),
        }

    def teardown(self) -> None:
        self._arms = {}
        self._stats = {}
