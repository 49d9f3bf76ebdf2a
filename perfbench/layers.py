"""Per-layer tracing from outside the program.

:func:`patches` builds a wrapper for the public entry points of each
layer (the names in :data:`LAYERS`) so that every call opens a span in a
:class:`repro.obs.Tracer`; :func:`traced` installs them and restores the
originals on exit. A name is
wrapped where its caller looks it up: ``repro.core.database`` binds
``parse``, ``plan_select``, ``execute_plan`` and ``merge_table`` at
import time, so those are wrapped in that module's namespace, not in the
module that defines them.

:func:`layer_metrics` turns the spans into ``<layer>.calls_per_op`` and
``<layer>.self_ms_per_op`` (span time minus the time of its child spans,
found through ``parent_id``) plus a few named counts taken from span
tags. Layers a workload never calls report zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from typing import Any, Callable, Iterator

from repro.obs import Tracer

#: span name of the harness's per-operation root span
OP_SPAN = "op"

#: layer -> entry points as (module[:class], attribute)
LAYERS: dict[str, list[tuple[str, str]]] = {
    "sql.parser": [("repro.core.database", "parse"), ("repro.core.session", "parse")],
    "sql.plancache": [
        ("repro.sql.plancache", "fingerprint"),
        ("repro.sql.plancache:PlanCache", "get"),
        ("repro.sql.plancache", "instantiate"),
    ],
    "sql.planner": [("repro.core.database", "plan_select")],
    "analysis.plancheck": [
        ("repro.analysis.plancheck", "verify_entry"),
        ("repro.analysis.plancheck", "entry_seal"),
    ],
    "sql.executor": [("repro.core.database", "execute_plan")],
    "sql.expressions.evaluate": [
        ("repro.sql.executor", "evaluate"),
        ("repro.core.database", "evaluate"),
    ],
    "sql.expressions.rows": [("repro.sql.expressions:Batch", "rows")],
    "columnstore.table.column_array": [
        ("repro.columnstore.table:TablePartition", "column_array")
    ],
    "columnstore.table.visible_positions": [
        ("repro.columnstore.table:TablePartition", "visible_positions")
    ],
    "columnstore.table.write": [
        ("repro.columnstore.table:ColumnTable", "insert"),
        ("repro.columnstore.table:ColumnTable", "update_at"),
        ("repro.columnstore.table:ColumnTable", "delete_at"),
    ],
    "columnstore.merge": [("repro.core.database", "merge_table")],
    "transaction.manager": [
        ("repro.transaction.manager:TransactionManager", "begin"),
        ("repro.transaction.manager:TransactionManager", "commit"),
    ],
    "qos.governor": [("repro.qos.governor:ResourceGovernor", "charge")],
    "soe.coordinator": [
        ("repro.soe.services.coordinator:Coordinator", "run_aggregate"),
        ("repro.soe.services.coordinator:Coordinator", "run_join"),
    ],
    "soe.query_service": [("repro.soe.services.query_service:QueryService", "execute")],
    "soe.codegen": [
        ("repro.soe.services.query_service", "run_partial_aggregate"),
        ("repro.soe.services.coordinator", "merge_group_states"),
        ("repro.soe.services.coordinator", "finalize_groups"),
    ],
    "soe.cluster.transfer": [("repro.soe.cluster:SimulatedCluster", "transfer")],
    "soe.transaction_broker": [
        ("repro.soe.services.transaction_broker:TransactionBroker", "submit")
    ],
    "soe.shared_log": [("repro.soe.services.shared_log:SharedLog", "append")],
    "soe.replication.catch_up": [("repro.soe.replication:DataNode", "catch_up")],
}


def _tag_rows(_args: tuple, result: Any) -> dict[str, Any]:
    return {"rows": len(result)}


def _tag_values(_args: tuple, result: Any) -> dict[str, Any]:
    return {"values": len(result)}


def _tag_lookup(_args: tuple, result: Any) -> dict[str, Any]:
    return {"lookups": 1, "hits": int(result is not None)}


def _tag_merged(_args: tuple, result: Any) -> dict[str, Any]:
    return {"rows_merged": result.rows_merged}


def _tag_plan(_args: tuple, result: Any) -> dict[str, Any]:
    cost = result[1]
    return {"tasks": cost.tasks, "retries": cost.retries}


def _tag_transfer(args: tuple, result: Any) -> dict[str, Any]:
    # (cluster, source, target, payload_bytes) -> simulated seconds
    shipped = args[1] != args[2]
    return {"bytes": args[3] if shipped else 0, "sim_s": result if shipped else 0.0}


def _tag_applied(_args: tuple, result: Any) -> dict[str, Any]:
    return {"applied": result}


#: entry point -> tagger(args, result) recording a named count on its span
TAGGERS: dict[tuple[str, str], Callable[[tuple, Any], dict[str, Any]]] = {
    ("repro.sql.plancache:PlanCache", "get"): _tag_lookup,
    ("repro.core.database", "execute_plan"): _tag_rows,
    ("repro.columnstore.table:TablePartition", "column_array"): _tag_values,
    ("repro.core.database", "merge_table"): _tag_merged,
    ("repro.soe.services.coordinator:Coordinator", "run_aggregate"): _tag_plan,
    ("repro.soe.services.coordinator:Coordinator", "run_join"): _tag_plan,
    ("repro.soe.cluster:SimulatedCluster", "transfer"): _tag_transfer,
    ("repro.soe.replication:DataNode", "catch_up"): _tag_applied,
}


def _owner(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap(tracer: Tracer, layer: str, fn: Callable[..., Any], tagger: Any) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(layer) as span:
            result = fn(*args, **kwargs)
            if tagger is not None:
                span.tag(**tagger(args, result))
            return result

    return wrapper


def _wrap_query_service(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """QueryService.execute: rows processed is a delta of its counter."""

    @functools.wraps(fn)
    def wrapper(service: Any, *args: Any, **kwargs: Any) -> Any:
        with tracer.span("soe.query_service") as span:
            before = service.rows_processed
            result = fn(service, *args, **kwargs)
            span.tag(rows=service.rows_processed - before)
            return result

    return wrapper


Patch = tuple[Any, str, Any, Any]  # (owner, attribute, original, wrapper)


def patches(tracer: Tracer) -> list[Patch]:
    """A span wrapper for every entry point, recording into ``tracer``."""
    out: list[Patch] = []
    for layer, entries in LAYERS.items():
        for target, attribute in entries:
            owner = _owner(target)
            original = owner.__dict__[attribute]
            if layer == "soe.query_service":
                wrapper = _wrap_query_service(tracer, original)
            else:
                wrapper = _wrap(tracer, layer, original, TAGGERS.get((target, attribute)))
            out.append((owner, attribute, original, wrapper))
    return out


@contextlib.contextmanager
def traced(installed: list[Patch]) -> Iterator[None]:
    """Install the wrappers; restore the originals on exit."""
    try:
        for owner, attribute, _original, wrapper in installed:
            setattr(owner, attribute, wrapper)
        yield
    finally:
        for owner, attribute, original, _wrapper in installed:
            setattr(owner, attribute, original)


def layer_metrics(spans: list[Any], ops: int) -> dict[str, float]:
    """calls/self-time per layer and the named counts, all per operation."""
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_seconds[span.parent_id] = (
                child_seconds.get(span.parent_id, 0.0) + span.duration_seconds
            )
    calls = dict.fromkeys(LAYERS, 0)
    self_seconds = dict.fromkeys(LAYERS, 0.0)
    tags: dict[str, float] = {}
    for span in spans:
        if span.name not in calls:
            continue
        calls[span.name] += 1
        self_seconds[span.name] += span.duration_seconds - child_seconds.get(
            span.span_id, 0.0
        )
        for key, value in span.tags.items():
            # an ``error`` tag names the exception a call raised, e.g. the
            # executor's ReplanSignal under adaptive planning; it is not a
            # count and stays only in the spans file
            if isinstance(value, (int, float)):
                tag = f"{span.name}.{key}"
                tags[tag] = tags.get(tag, 0.0) + value
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_ms_per_op"] = self_seconds[layer] * 1000.0 / ops
    lookups = tags.get("sql.plancache.lookups", 0.0)
    out["sql.plancache.hit_ratio"] = (
        tags.get("sql.plancache.hits", 0.0) / lookups if lookups else 0.0
    )
    rows_returned = tags.get("sql.executor.rows", 0.0)
    decoded = tags.get("columnstore.table.column_array.values", 0.0)
    out["sql.executor.rows_returned_per_op"] = rows_returned / ops
    out["columnstore.table.decoded_values_per_row_returned"] = (
        decoded / rows_returned if rows_returned else 0.0
    )
    out["columnstore.merge.rows_merged_per_op"] = (
        tags.get("columnstore.merge.rows_merged", 0.0) / ops
    )
    out["qos.governor.charges_per_op"] = calls["qos.governor"] / ops
    out["soe.coordinator.tasks_per_op"] = tags.get("soe.coordinator.tasks", 0.0) / ops
    out["soe.coordinator.retries_per_op"] = (
        tags.get("soe.coordinator.retries", 0.0) / ops
    )
    out["soe.query_service.rows_processed_per_op"] = (
        tags.get("soe.query_service.rows", 0.0) / ops
    )
    out["soe.cluster.transfer.sim_ms_per_op"] = (
        tags.get("soe.cluster.transfer.sim_s", 0.0) * 1000.0 / ops
    )
    out["soe.cluster.transfer.bytes_per_op"] = (
        tags.get("soe.cluster.transfer.bytes", 0.0) / ops
    )
    out["soe.replication.entries_applied_per_op"] = (
        tags.get("soe.replication.catch_up.applied", 0.0) / ops
    )
    return out
