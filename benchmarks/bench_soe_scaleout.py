"""E7 — §IV/Fig. 3 [13]: distributed plans and communication-aware joins.

Paper claims: distributed plans "can lead to strong speedup results
compared to single machine execution ... if the plans are specifically
tailored for a clustered execution in combination with efficient
communication algorithms".

Measured shape: (a) per-node work for a partitioned aggregation drops
near-linearly with the node count (the simulated-cluster equivalent of
speedup); (b) the communication volume ranking of the three join
strategies: co-located < broadcast < repartition for a large fact table
and small dimension table, each pinned to its exact bytes and messages.
"""

from __future__ import annotations

import pytest

from repro.soe.engine import SoeEngine

FACT_ROWS = 30_000
DIM_ROWS = 64

#: (bytes shipped, messages) per join strategy on the 4-node landscape,
#: the traffic EXPERIMENTS.md records: any plan change that moves it fails
TRAFFIC = {
    "broadcast": (3_824, 12),
    "repartition": (355_440, 16),
    "colocated": (304, 4),
}


def build(nodes: int, fact_key: str = "id") -> SoeEngine:
    soe = SoeEngine(node_count=nodes)
    soe.create_table("fact", ["id", "k", "v"], [fact_key], partition_count=2 * nodes)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=2 * nodes)
    soe.load("fact", [[i, i % DIM_ROWS, 1.0] for i in range(FACT_ROWS)])
    soe.load("dim", [[i, f"g{i % 4}"] for i in range(DIM_ROWS)])
    return soe


@pytest.mark.benchmark(group="E7-scaleout-aggregate")
@pytest.mark.parametrize("nodes", [1, 2, 4, 8, 16])
def test_aggregate_scaleout(benchmark, reporter, nodes):
    soe = build(nodes)

    def run():
        rows, cost = soe.aggregate(
            "fact", group_by=["k"], aggregates=[("sum", "v")]
        )
        return rows, cost

    rows, cost = benchmark(run)
    # measure per-node load on one fresh landscape (the benchmark loop
    # accumulates rows_processed across iterations)
    fresh = build(nodes)
    fresh.aggregate("fact", group_by=["k"], aggregates=[("sum", "v")])
    loads = fresh.stats.node_load()
    reporter(
        "E7",
        nodes=nodes,
        max_rows_per_node=max(loads.values()),
        ideal=FACT_ROWS // nodes,
        bytes_shipped=cost.bytes_shipped,
    )
    assert len(rows) == DIM_ROWS


@pytest.mark.benchmark(group="E7-join-strategies")
@pytest.mark.parametrize("strategy", ["broadcast", "repartition"])
def test_join_strategy_costs(benchmark, reporter, strategy):
    soe = build(4)  # fact partitioned on id, join on k: genuine shuffle

    def run():
        soe.cluster.reset_stats()
        return soe.join(
            "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy
        )

    rows, cost = benchmark.pedantic(run, rounds=3, iterations=1)
    reporter(
        "E7",
        strategy=strategy,
        bytes_shipped=cost.bytes_shipped,
        messages=cost.messages,
        simulated_network_seconds=round(cost.simulated_network_seconds, 6),
    )
    assert len(rows) == 4
    assert (cost.bytes_shipped, cost.messages) == TRAFFIC[strategy]


@pytest.mark.benchmark(group="E7-join-strategies")
def test_join_colocated_cost(benchmark, reporter):
    soe = build(4, fact_key="k")  # co-partitioned on the join key

    def run():
        soe.cluster.reset_stats()
        return soe.join(
            "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="colocated"
        )

    rows, cost = benchmark.pedantic(run, rounds=3, iterations=1)
    reporter(
        "E7",
        strategy="colocated",
        bytes_shipped=cost.bytes_shipped,
        messages=cost.messages,
    )
    assert len(rows) == 4
    assert (cost.bytes_shipped, cost.messages) == TRAFFIC["colocated"]


def test_strategy_cost_ordering(benchmark, reporter):
    """The headline ordering the coordinator's auto mode relies on."""
    shuffle_soe = benchmark.pedantic(lambda: build(4), rounds=1, iterations=1)
    costs = {}
    for strategy in ("broadcast", "repartition"):
        shuffle_soe.cluster.reset_stats()
        _rows, cost = shuffle_soe.join(
            "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy
        )
        costs[strategy] = cost.bytes_shipped
    colocated_soe = build(4, fact_key="k")
    _rows, cost = colocated_soe.join(
        "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="colocated"
    )
    costs["colocated"] = cost.bytes_shipped
    reporter("E7", metric="bytes-shipped-ordering", **costs)
    assert costs["colocated"] < costs["broadcast"] < costs["repartition"]
