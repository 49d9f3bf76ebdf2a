"""End-to-end tests for the deployed SOE landscape."""

import pytest

from repro.errors import ClusterError, CoordinationError, ReproError
from repro.soe.engine import SoeEngine


def test_aggregate_matches_ground_truth(small_soe):
    rows, cost = small_soe.aggregate(
        "readings", group_by=["region"], aggregates=[("count", None), ("sum", "value")]
    )
    as_dict = {row[0]: (row[1], row[2]) for row in rows}
    assert as_dict["r0"][0] == 200
    total = sum(count for count, _sum in as_dict.values())
    assert total == 600
    assert cost.strategy == "partial-aggregate"
    assert cost.tasks >= 2


def test_filtered_aggregate(small_soe):
    rows, _cost = small_soe.aggregate(
        "readings",
        aggregates=[("count", None)],
        filters=[("value", ">=", 50.0)],
    )
    assert rows[0][0] == 300


def test_column_names_are_case_insensitive(small_soe):
    lower, _ = small_soe.aggregate("readings", ["region"], [("sum", "value")])
    upper, _ = small_soe.aggregate("READINGS", ["REGION"], [("sum", "VALUE")])
    assert upper == lower


def test_front_door_rejects_bad_names_and_ops_with_typed_errors(small_soe):
    upper, _ = small_soe.aggregate(
        "readings", aggregates=[("count", None)], filters=[("VALUE", ">=", 50.0)]
    )
    assert upper == [[300]]
    small_soe.create_table("regions", ["region", "zone"], ["region"])
    small_soe.load("regions", [["r0", "z0"], ["r1", "z1"]])
    bad_calls = [
        lambda: small_soe.aggregate("readings", filters=[("value", "!!", 1)]),
        lambda: small_soe.aggregate("readings", filters=[("nope", ">", 1)]),
        lambda: small_soe.aggregate("readings", aggregates=[("sum", "nope")]),
        lambda: small_soe.aggregate("readings", group_by=["nope"]),
        lambda: small_soe.join(
            "readings", "regions", "region", "region", "nope", [("sum", "value")]
        ),
    ]
    for call in bad_calls:
        with pytest.raises(ReproError):
            call()


def test_insert_visibility_eventual_vs_strong(small_soe):
    before, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    small_soe.insert("readings", [[10_000, "r0", 1.0]])
    eventual, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    assert eventual == before  # OLAP nodes are stale
    strong, _ = small_soe.aggregate(
        "readings", aggregates=[("count", None)], consistency="strong"
    )
    assert strong[0][0] == before[0][0] + 1


def test_catch_up_all(small_soe):
    small_soe.insert("readings", [[10_001, "r1", 2.0]])
    small_soe.catch_up_all()
    eventual, _ = small_soe.aggregate("readings", aggregates=[("count", None)])
    assert eventual[0][0] == 601


def test_delete_through_log(small_soe):
    small_soe.delete("readings", "sensor_id", 5)
    strong, _ = small_soe.aggregate(
        "readings", aggregates=[("count", None)], consistency="strong"
    )
    assert strong[0][0] == 599


def test_join_strategies_agree():
    soe = SoeEngine(node_count=3)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=6)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=6)
    soe.load("fact", [[i % 20, float(i)] for i in range(400)])
    soe.load("dim", [[i, f"g{i % 4}"] for i in range(20)])
    results = {}
    for strategy in ("broadcast", "repartition", "colocated"):
        rows, cost = soe.join(
            "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy
        )
        results[strategy] = sorted(map(tuple, rows))
        assert cost.strategy == strategy
    assert results["broadcast"] == results["repartition"] == results["colocated"]


def test_join_strategies_agree_on_every_aggregate():
    soe = SoeEngine(node_count=3)
    # co-partitioned on the join key, so the colocated plan is valid
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=6)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=6)
    soe.load(
        "fact",
        [
            [None if i % 11 == 0 else i % 20, None if i % 7 == 0 else float(i)]
            for i in range(400)
        ],
    )
    # NULL group values for keys 0, 5, 10, 15; key 3 appears twice
    # a NULL dim key joins nothing, not even the NULL fact keys
    soe.load(
        "dim",
        [[i, None if i % 5 == 0 else f"g{i % 4}"] for i in range(20)]
        + [[3, "g9"], [None, "gn"]],
    )
    aggregates = [
        ("count", None),
        ("count", "v"),
        ("sum", "v"),
        ("avg", "v"),
        ("min", "v"),
        ("max", "v"),
    ]
    results = {}
    for strategy in ("broadcast", "repartition", "colocated"):
        rows, _cost = soe.join(
            "fact", "dim", "k", "k", "grp", aggregates, strategy=strategy
        )
        results[strategy] = sorted(map(tuple, rows), key=repr)
    assert results["broadcast"] == results["repartition"] == results["colocated"]
    by_group = {row[0]: row for row in results["broadcast"]}
    assert set(by_group) == {None, "g0", "g1", "g2", "g3", "g9"}
    assert by_group["g9"][1] == 20 - sum(1 for i in range(3, 400, 20) if i % 11 == 0)


def test_join_aggregate_columns_are_case_insensitive():
    soe = SoeEngine(node_count=2)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=4)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=4)
    soe.load("fact", [[i % 4, float(i)] for i in range(40)])
    soe.load("dim", [[i, f"g{i % 2}"] for i in range(4)])
    for strategy in ("broadcast", "repartition", "colocated"):
        lower, _ = soe.join("fact", "dim", "k", "k", "grp", [("max", "v")], strategy=strategy)
        upper, _ = soe.join("FACT", "DIM", "K", "K", "GRP", [("max", "V")], strategy=strategy)
        assert upper == lower == [["g0", 38.0], ["g1", 39.0]]


def test_communication_costs_order_by_strategy():
    # fact is partitioned on id, NOT on the join key k: repartition must
    # genuinely shuffle, broadcast ships only the small dim table.
    soe = SoeEngine(node_count=4)
    soe.create_table("fact", ["id", "k", "v"], ["id"], partition_count=8)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=8)
    soe.load("fact", [[i, i % 50, 1.0] for i in range(2000)])
    soe.load("dim", [[i, f"g{i % 3}"] for i in range(50)])
    costs = {}
    results = {}
    for strategy in ("broadcast", "repartition"):
        soe.cluster.reset_stats()
        rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy=strategy)
        costs[strategy] = cost.bytes_shipped
        results[strategy] = sorted(map(tuple, rows))
    assert results["broadcast"] == results["repartition"]
    assert costs["broadcast"] < costs["repartition"]

    # the shuffle ships each fact column once, however many aggregates
    # read it: a second aggregate over v adds only its partial states
    _rows, two_aggregates = soe.join(
        "fact", "dim", "k", "k", "grp", [("sum", "v"), ("avg", "v")], strategy="repartition"
    )
    states_shipped = 4 * 3  # workers x groups
    assert two_aggregates.bytes_shipped - costs["repartition"] <= 16 * states_shipped

    # when both sides ARE hash-partitioned on the join key, a co-located
    # plan ships only the final partial states — the cheapest of all.
    aligned = SoeEngine(node_count=4)
    aligned.create_table("fact", ["k", "v"], ["k"], partition_count=8)
    aligned.create_table("dim", ["k", "grp"], ["k"], partition_count=8)
    aligned.load("fact", [[i % 50, 1.0] for i in range(2000)])
    aligned.load("dim", [[i, f"g{i % 3}"] for i in range(50)])
    _rows, colocated_cost = aligned.join(
        "fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="colocated"
    )
    assert colocated_cost.bytes_shipped <= costs["broadcast"]


def test_auto_strategy_picks_colocated_when_aligned():
    soe = SoeEngine(node_count=2)
    soe.create_table("fact", ["k", "v"], ["k"], partition_count=4)
    soe.create_table("dim", ["k", "grp"], ["k"], partition_count=4)
    soe.load("fact", [[i % 10, 1.0] for i in range(100)])
    soe.load("dim", [[i, "g"] for i in range(10)])
    _rows, cost = soe.join("fact", "dim", "k", "k", "grp", [("sum", "v")], strategy="auto")
    assert cost.strategy == "colocated"


def test_replication_survives_node_failure():
    soe = SoeEngine(node_count=3, replication=2)
    soe.create_table("t", ["k", "v"], ["k"], partition_count=6)
    soe.load("t", [[i, float(i)] for i in range(300)])
    baseline, _ = soe.aggregate("t", aggregates=[("count", None)])
    soe.cluster.kill("worker0")
    after, _ = soe.aggregate("t", aggregates=[("count", None)])
    assert after == baseline


def test_unreplicated_failure_is_detected():
    soe = SoeEngine(node_count=2, replication=1)
    soe.create_table("t", ["k"], ["k"], partition_count=4)
    soe.load("t", [[i] for i in range(10)])
    soe.cluster.kill("worker0")
    with pytest.raises(CoordinationError):
        soe.aggregate("t", aggregates=[("count", None)])


def test_statistics_snapshot(small_soe):
    small_soe.aggregate("readings", aggregates=[("count", None)])
    stats = small_soe.statistics()
    assert stats["nodes"] == 4  # coordinator + 3 workers
    assert stats["log_tail"] == 0
    assert sum(stats["stats"]["node_load"].values()) >= 600


def test_engine_validation():
    with pytest.raises(Exception):
        SoeEngine(node_count=0)
    with pytest.raises(Exception):
        SoeEngine(node_count=2, node_modes=["olap"])


def test_assignments_spread_across_replicas():
    soe = SoeEngine(node_count=3, replication=2)
    soe.create_table("t", ["k"], ["k"], partition_count=6)
    soe.load("t", [[i] for i in range(600)])
    assignments = soe.coordinator._assignments("t")
    # with 2 replicas per partition the scan load spreads over all workers
    assert len(assignments) == 3
    counts = sorted(len(v) for v in assignments.values())
    assert counts == [2, 2, 2]
