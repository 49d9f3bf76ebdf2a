"""Tests for the SOE task-kernel code generation."""

from repro.soe.codegen import (
    compile_aggregate_kernel,
    estimate_states_bytes,
    finalize_groups,
    merge_group_states,
    run_partial_aggregate,
)
from repro.soe.partitions import PrepackagedPartition
from repro.soe.tasks import AggregateSpec, Filter


def make_partition(rows):
    partition = PrepackagedPartition("t", 0, ["g", "v"])
    partition.append_rows(rows)
    return partition


def test_partial_aggregate_groups_and_filters():
    partition = make_partition([["a", 1.0], ["a", 2.0], ["b", 10.0], ["b", None]])
    groups = run_partial_aggregate(
        [partition],
        filters=[Filter("v", ">", 0.5)],
        group_by=["g"],
        aggregates=[AggregateSpec("count"), AggregateSpec("sum", "v")],
    )
    assert groups[("a",)] == [2, 3.0]
    assert groups[("b",)] == [1, 10.0]


def test_null_filter_column_drops_row():
    partition = make_partition([["a", None]])
    groups = run_partial_aggregate(
        [partition], [Filter("v", ">", 0)], ["g"], [AggregateSpec("count")]
    )
    assert groups == {}


def test_kernel_cache_reuses_compiled_function():
    signature_args = (
        ("g", "v"),
        (Filter("v", ">", 1),),
        ("g",),
        (AggregateSpec("sum", "v"),),
    )
    first = compile_aggregate_kernel(*signature_args)
    second = compile_aggregate_kernel(*signature_args)
    assert first is second
    assert "def _kernel" in first.generated_source


def test_kernel_cache_keys_on_shape_not_constants():
    columns, group_by = ("g", "v"), ("g",)
    aggregates = (AggregateSpec("sum", "v"),)
    first = compile_aggregate_kernel(columns, (Filter("v", ">", 1),), group_by, aggregates)
    second = compile_aggregate_kernel(columns, (Filter("v", ">", 2),), group_by, aggregates)
    assert first is second


def test_probe_folds_each_match_into_the_payload_group():
    partition = PrepackagedPartition("fact", 0, ["k", "v"])
    partition.append_rows([[1, 2.0], [2, 5.0], [1, None], [None, 7.0], [3, 1.0]])
    dim_hash = {1: [("x",), ("y",)], 2: [("x",)]}
    groups = run_partial_aggregate(
        [partition],
        [],
        [],
        [AggregateSpec("count"), AggregateSpec("sum", "v")],
        probe=("k", dim_hash),
    )
    # key 1 matches twice, so its rows count in both groups; keys 3 and
    # NULL have no match and drop out
    assert groups == {("x",): [3, 7.0], ("y",): [2, 2.0]}


def test_merge_group_states_all_ops():
    aggregates = [
        AggregateSpec("count"),
        AggregateSpec("sum", "v"),
        AggregateSpec("min", "v"),
        AggregateSpec("max", "v"),
        AggregateSpec("avg", "v"),
    ]
    left = {("a",): [2, 5.0, 1.0, 4.0, [5.0, 2]]}
    right = {("a",): [1, 7.0, 0.5, 9.0, [7.0, 1]], ("b",): [1, 1.0, 1.0, 1.0, [1.0, 1]]}
    merged = merge_group_states([left, right], aggregates)
    assert merged[("a",)] == [3, 12.0, 0.5, 9.0, [12.0, 3]]
    assert merged[("b",)][0] == 1


def test_finalize_rows_sorted_and_avg_computed():
    aggregates = [AggregateSpec("avg", "v")]
    rows = finalize_groups({("b",): [[6.0, 2]], ("a",): [[3.0, 3]]}, aggregates)
    assert rows == [["a", 1.0], ["b", 3.0]]


def test_estimate_states_bytes_counts_strings():
    size = estimate_states_bytes({("region-name",): [1, 2.0]})
    assert size > 32
