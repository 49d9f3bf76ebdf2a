"""Per-task code generation for the SOE query service (§IV.A).

"During runtime the engine compiles the SQL statement into C code and
translates it into an executable binary format" — the query services
receive tasks and compile them before execution. Here each task shape
(columns, filter columns and ops, group-by, aggregates, probe column) is
turned into one fused Python loop, compiled once, and cached; later tasks
of the same shape reuse the binary whatever their filter constants (the
cache is what makes repeated partition tasks cheap, mirroring the paper's
compiled-plan reuse).

The join probes run the same template: a kernel with a probe column looks
each surviving row's key up in a shipped dim hash and folds the row once
per match into the group that the matched payload names. This module is
the only place that creates, folds, combines and finalises SOE aggregate
states.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.soe.cluster import value_bytes
from repro.soe.partitions import PrepackagedPartition
from repro.soe.tasks import FILTER_OPS, AggregateSpec, Filter

#: group key tuple -> list of aggregate states
GroupStates = dict[tuple, list[Any]]

#: join key -> payload tuples of the matching dim rows
ProbeHash = dict[Any, list[tuple]]

_KERNEL_CACHE: dict[tuple, Callable[..., GroupStates]] = {}


def _signature(
    columns: tuple[str, ...],
    filters: tuple[Filter, ...],
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
    probe_column: str | None,
) -> tuple:
    # filter constants are read from ``_consts`` at run time, so they are
    # not part of the kernel's shape
    return (
        columns,
        tuple((f.column, f.op) for f in filters),
        group_by,
        tuple((a.op, a.column) for a in aggregates),
        probe_column,
    )


def _state_source(aggregates: tuple[AggregateSpec, ...], pad: str) -> list[str]:
    """Source that binds ``_st`` to group ``_k``'s states, creating them."""
    inits = ", ".join(
        "0" if a.op == "count" else "[0.0, 0]" if a.op == "avg" else "None"
        for a in aggregates
    )
    return [
        f"{pad}_st = _groups.get(_k)",
        f"{pad}if _st is None:",
        f"{pad}    _st = [{inits}]",
        f"{pad}    _groups[_k] = _st",
    ]


def _fold_source(
    aggregates: tuple[AggregateSpec, ...], value_of: dict[str, str], pad: str
) -> list[str]:
    """Source that folds the current row into ``_st``."""
    lines: list[str] = []
    for index, aggregate in enumerate(aggregates):
        state = f"_st[{index}]"
        if aggregate.column is None:  # count(*)
            lines.append(f"{pad}{state} += 1")
            continue
        value = value_of[aggregate.column]
        body = {
            "count": [f"{state} += 1"],
            "sum": [f"{state} = {value} if {state} is None else {state} + {value}"],
            "avg": [f"{state}[0] += {value}", f"{state}[1] += 1"],
            "min": [f"if {state} is None or {value} < {state}: {state} = {value}"],
            "max": [f"if {state} is None or {value} > {state}: {state} = {value}"],
        }[aggregate.op]
        lines.append(f"{pad}if {value} is not None:")
        lines.extend(f"{pad}    {statement}" for statement in body)
    return lines


def compile_aggregate_kernel(
    columns: tuple[str, ...],
    filters: tuple[Filter, ...],
    group_by: tuple[str, ...],
    aggregates: tuple[AggregateSpec, ...],
    probe_column: str | None = None,
) -> Callable[..., GroupStates]:
    """Generate (or fetch) the fused partial-aggregation kernel.

    The kernel signature is ``kernel(*column_lists, _consts, _groups,
    _probe)``: it scans row-at-a-time over the supplied column lists,
    applies the filters inline, and accumulates into ``_groups``. With a
    ``probe_column`` each surviving row looks its value up in the
    ``_probe`` hash and is folded once per match into the group that the
    matched payload tuple names (``group_by`` is then unused); a row
    without a match is dropped.
    """
    signature = _signature(columns, filters, group_by, aggregates, probe_column)
    cached = _KERNEL_CACHE.get(signature)
    if cached is not None:
        return cached

    variable_of = {name: f"c_{index}" for index, name in enumerate(columns)}
    value_of = {name: f"v_{variable}" for name, variable in variable_of.items()}
    lines = [
        f"def _kernel({', '.join(variable_of.values())}, _consts, _groups, _probe):",
        f"    for _i in range(len({variable_of[columns[0]]})):",
    ]
    needed = {probe_column, *group_by, *(f.column for f in filters)}
    needed.update(a.column for a in aggregates)
    for name in columns:
        if name in needed:
            lines.append(f"        {value_of[name]} = {variable_of[name]}[_i]")
    for index, filter_spec in enumerate(filters):
        value = value_of[filter_spec.column]
        op = FILTER_OPS[filter_spec.op]
        lines.append(f"        if {value} is None or not ({value} {op} _consts[{index}]):")
        lines.append("            continue")
    if probe_column is None:
        pad = " " * 8
        key = ", ".join(value_of[name] for name in group_by)
        lines.append(f"{pad}_k = ({key},)" if group_by else f"{pad}_k = ()")
    else:
        pad = " " * 12
        lines.append(f"        _ms = _probe.get({value_of[probe_column]})")
        lines.append("        if not _ms:")
        lines.append("            continue")
        lines.append("        for _k in _ms:")
    lines.extend(_state_source(aggregates, pad))
    lines.extend(_fold_source(aggregates, value_of, pad))
    lines.append("    return _groups")
    source = "\n".join(lines)
    namespace: dict[str, Any] = {}
    exec(compile(source, "<soe-task-kernel>", "exec"), namespace)  # noqa: S102
    kernel = namespace["_kernel"]
    kernel.generated_source = source  # type: ignore[attr-defined]
    _KERNEL_CACHE[signature] = kernel
    return kernel


def run_partial_aggregate(
    partitions: list[PrepackagedPartition],
    filters: list[Filter],
    group_by: list[str],
    aggregates: list[AggregateSpec],
    probe: tuple[str, ProbeHash] | None = None,
) -> GroupStates:
    """Compile the task kernel and run it over the local partitions.

    ``probe`` is ``(fact key column, dim hash)`` for a join probe task;
    each joined row is then grouped by the matched dim payload.
    """
    groups: GroupStates = {}
    if not partitions:
        return groups
    columns = tuple(partitions[0].columns)
    probe_column, probe_hash = probe if probe is not None else (None, None)
    kernel = compile_aggregate_kernel(
        columns, tuple(filters), tuple(group_by), tuple(aggregates), probe_column
    )
    consts = [f.value for f in filters]
    for partition in partitions:
        column_lists = [partition.column_list(name) for name in columns]
        kernel(*column_lists, consts, groups, probe_hash)
    return groups


def merge_group_states(
    parts: list[GroupStates], aggregates: list[AggregateSpec]
) -> GroupStates:
    """Combine partial states from several nodes (the reduce step)."""
    merged: GroupStates = {}
    for part in parts:
        for key, states in part.items():
            target = merged.get(key)
            if target is None:
                merged[key] = [_clone(state) for state in states]
                continue
            for index, aggregate in enumerate(aggregates):
                target[index] = _combine(aggregate.op, target[index], states[index])
    return merged


def _clone(state: Any) -> Any:
    return list(state) if isinstance(state, list) else state


def _combine(op: str, left: Any, right: Any) -> Any:
    if op == "count":
        return (left or 0) + (right or 0)
    if op == "avg":
        return [left[0] + right[0], left[1] + right[1]]
    if left is None:
        return _clone(right)
    if right is None:
        return left
    if op == "sum":
        return left + right
    if op == "min":
        return min(left, right)
    return max(left, right)


def finalize_groups(
    groups: GroupStates, aggregates: list[AggregateSpec]
) -> list[list[Any]]:
    """States → output rows: group key columns then aggregate values."""
    rows: list[list[Any]] = []
    for key in sorted(groups, key=lambda k: tuple(map(repr, k))):
        states = groups[key]
        row = list(key)
        for aggregate, state in zip(aggregates, states):
            if aggregate.op == "avg":
                row.append(state[0] / state[1] if state[1] else None)
            else:
                row.append(state)
        rows.append(row)
    return rows


def estimate_states_bytes(groups: GroupStates) -> int:
    """Approximate shipped size of a partial-aggregate result."""
    return sum(
        sum(map(value_bytes, key)) + 16 * len(states)
        for key, states in groups.items()
    )
