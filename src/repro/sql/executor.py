"""The vectorised (column-at-a-time) execution engine.

**Paper mapping:** Section II.A / Figure 2 — the "vectorized engine for
OLAP and mixed workloads" at the heart of the HANA core. **Role in the
query path:** last stage of parse → plan → execute; it receives the
:class:`~repro.sql.planner.QueryPlan` produced by
:mod:`repro.sql.planner` and materialises the result batch the
:class:`~repro.core.database.Database` facade turns into a
:class:`~repro.core.result.QueryResult`.

Operators consume and produce whole :class:`Batch` objects; expression
evaluation is NumPy-vectorised. At the leaves, scans

* prune partitions with range-boundary analysis and the database's
  registered *semantic pruning hooks* (the aging mechanism of Section III),
* rewrite ``CONTAINS(column, 'terms')`` conjuncts into inverted-index
  probes when a text index exists (Section II.C),
* apply MVCC visibility and any pushed-down predicate per partition.

The same scan (:func:`scan_partitions`) finds the rows of UPDATE and
DELETE, on column and row tables alike.

**Observability:** every plan-node dispatch passes through
:func:`_execute_node`, which hands the node to ``context.profiler`` when
one is installed (``session.profile(sql)`` — see
:mod:`repro.obs.profiler`); row counters additionally feed
:mod:`repro.obs` when collectors are enabled. Both hooks are per-node
(never per-row) and no-ops by default.

**Adaptivity:** the same per-node boundary feeds
:func:`repro.sql.feedback.observe_actual` — actual row counts of signed
scans and joins go to the database's cardinality feedback store, and a
>10× estimate blow-out raises
:class:`~repro.sql.feedback.ReplanSignal` for mid-query
re-optimization. Completed scans are memoised on
``context.scan_cache`` — keyed by signature *plus* bound literal
values and column subset, so same-shape scans with different
constants never share a batch — and a re-planned attempt resumes
from them instead of re-reading (and re-charging) the data. See
``docs/OPTIMIZER.md``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import obs
from repro.columnstore.partition import CompositePartitioning, RangePartitioning
from repro.errors import PlanError
from repro.sql import ast
from repro.sql import feedback as fb
from repro.sql.context import ExecutionContext
from repro.sql.expressions import Batch, evaluate, is_null_mask
from repro.sql.functions import narrow_to_array
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SortNode,
    SubqueryScanNode,
    UnionNode,
)


def execute(plan: QueryPlan, context: ExecutionContext) -> Batch:
    """Run a planned query; the result batch's keys are the output names."""
    batch = _execute_node(plan.root, context)
    # drop hidden sort columns
    visible = {name: batch.columns[name] for name in plan.output_names}
    return Batch(visible, len(batch))


def _execute_node(node: PlanNode, context: ExecutionContext) -> Batch:
    """Dispatch one plan node, recording it when a profiler is installed.

    This boundary is also the adaptive loop's measurement point: signed
    nodes report their actual row count to the feedback store and may
    raise :class:`~repro.sql.feedback.ReplanSignal` on a >10× estimate
    blow-out (see :func:`repro.sql.feedback.observe_actual`).
    """
    profiler = context.profiler
    if profiler is None:
        batch = _dispatch_node(node, context)
        _observe(node, batch, context)
        return batch
    with profiler.operator(node) as operator:
        batch = _dispatch_node(node, context)
        operator.rows = len(batch)
        _observe(node, batch, context)
        return batch


def _observe(node: PlanNode, batch: Batch, context: ExecutionContext) -> None:
    """Feed the node's actual row count to the adaptive loop — unless the
    scan flagged the batch as exempt: a memo-served scan would
    double-record the count it already reported when first materialised
    (and could re-raise the very blow-out that triggered the re-plan),
    and a governor-truncated scan would record a degraded count as a true
    cardinality, biasing future estimates low."""
    if context.feedback_exempt:
        context.feedback_exempt = False
        return
    fb.observe_actual(node, len(batch), context)


def _dispatch_node(node: PlanNode, context: ExecutionContext) -> Batch:
    if isinstance(node, ScanNode):
        return _execute_scan(node, context)
    if isinstance(node, SubqueryScanNode):
        inner = _execute_node(node.plan, context)
        renamed = {
            f"{node.alias}.{name}": inner.columns[name] for name in node.columns
        }
        return Batch(renamed, len(inner))
    if isinstance(node, FilterNode):
        child = _execute_node(node.child, context)
        mask = np.asarray(evaluate(node.predicate, child, context), dtype=bool)
        return child.filter(mask)
    if isinstance(node, JoinNode):
        return _execute_join(node, context)
    if isinstance(node, AggregateNode):
        return _execute_aggregate(node, context)
    if isinstance(node, ProjectNode):
        child = _execute_node(node.child, context)
        columns: dict[str, np.ndarray] = {}
        for expr, name in list(node.items) + list(node.hidden):
            columns[name] = np.asarray(evaluate(expr, child, context))
        return Batch(columns, len(child))
    if isinstance(node, SortNode):
        child = _execute_node(node.child, context)
        order = _sort_order(child, node.keys)
        return child.take(order)
    if isinstance(node, DistinctNode):
        child = _execute_node(node.child, context)
        codes = _row_codes(child, child.names)
        _uniques, first_positions = np.unique(codes, return_index=True)
        return child.take(np.sort(first_positions))
    if isinstance(node, LimitNode):
        child = _execute_node(node.child, context)
        start = node.offset or 0
        stop = start + node.limit if node.limit is not None else len(child)
        return child.take(np.arange(start, min(stop, len(child))))
    if isinstance(node, UnionNode):
        target_names = node.input_names[0]
        parts = []
        for input_node, names in zip(node.inputs, node.input_names):
            batch = _execute_node(input_node, context)
            parts.append(
                Batch(
                    {
                        target: batch.columns[source]
                        for target, source in zip(target_names, names)
                    },
                    len(batch),
                )
            )
        merged = Batch.concat(parts)
        if node.distinct:
            codes = _row_codes(merged, merged.names)
            _uniques, first_positions = np.unique(codes, return_index=True)
            merged = merged.take(np.sort(first_positions))
        return merged
    raise PlanError(f"vectorised engine cannot execute {type(node).__name__}")


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def _execute_scan(node: ScanNode, context: ExecutionContext) -> Batch:
    """Scan with per-query memoisation keyed by signature + bound values.

    The memo exists for mid-query re-optimization: when a
    :class:`~repro.sql.feedback.ReplanSignal` aborts an attempt, the
    re-planned attempt finds identical scans (same table, predicate,
    constants, and columns — possibly under a different alias) already
    materialised and resumes from them — no re-read, no double governor
    charge. The key must be *value*-inclusive: the literal-stripped
    signature alone would collide same-shape scans with different
    constants (a self-join's two sides) or different column needs, which
    is a wrong-results bug, not a cache miss. Truncated (governor-
    degraded) scans are never memoised.
    """
    if not node.table:  # FROM-less SELECT: one virtual row
        return Batch({}, 1)
    cache = context.scan_cache
    key = _scan_memo_key(node)
    if cache is None or key is None:
        return _execute_scan_uncached(node, context)
    cached = cache.get(key)
    if cached is not None:
        columns, length = cached
        context.bump("scans_reused")
        obs.count("sql.executor.scans_reused")
        context.feedback_exempt = True  # count was recorded when materialised
        return Batch(
            {f"{node.alias}.{name}": array for name, array in columns.items()}, length
        )
    batch = _execute_scan_uncached(node, context)
    if not context.feedback_exempt:  # a truncated batch is not the scan's output
        cache[key] = (
            {key_.split(".", 1)[1]: array for key_, array in batch.columns.items()},
            len(batch),
        )
    return batch


def _scan_memo_key(node: ScanNode) -> str | None:
    """Value-inclusive memo key: signature + bound literals + columns."""
    if node.signature is None:
        return None
    values = ";".join(
        repr(literal.value) for literal in _predicate_literals(node.predicate)
    )
    return f"{node.signature}|vals={values}|cols={','.join(sorted(node.columns))}"


def _predicate_literals(expr: ast.Expr | None) -> list[ast.Literal]:
    """Literal leaves of a predicate, in deterministic traversal order."""
    if expr is None:
        return []
    out: list[ast.Literal] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.Literal):
            out.append(node)
            return
        for child in node.children():
            walk(child)

    walk(expr)
    return out


def _execute_scan_uncached(node: ScanNode, context: ExecutionContext) -> Batch:
    database = context.database
    if database is None:
        raise PlanError("scan requires a database in the execution context")
    table = database.catalog.table(node.table)
    if getattr(table, "is_virtual", False):
        return _scan_virtual(node, table, context)
    parts = [batch for _ordinal, _positions, batch in scan_partitions(node, table, context)]
    if not parts:
        empty = {
            f"{node.alias}.{name.lower()}": np.empty(0, dtype=object)
            for name in node.columns
        }
        return Batch(empty, 0)
    return Batch.concat(parts)


def scan_partitions(
    node: ScanNode, table: Any, context: ExecutionContext
) -> list[tuple[int, np.ndarray, Batch]]:
    """Scan a base table partition by partition.

    Returns, per partition it reads rows from, the ordinal, the
    positions that survive the predicate and the batch of
    ``node.columns`` at those positions. SELECT concatenates the
    batches; UPDATE and DELETE write back through the positions. A row
    table scans as its own single partition. Everything is read before
    the caller writes, so a DML statement never sees the row versions
    it inserts.
    """
    conjuncts = ast.split_conjuncts(node.predicate)
    ordinals = _prune_partitions(table, conjuncts, context)
    index_positions = _contains_probe(node, table, conjuncts, context.database)

    governor = context.governor
    parts: list[tuple[int, np.ndarray, Batch]] = []
    for ordinal in ordinals:
        if governor is not None and governor.should_stop:
            context.feedback_exempt = True  # remaining partitions dropped
            break
        partition = table.partitions[ordinal]
        positions = partition.visible_positions(context.snapshot_cid, context.own_tid)
        if index_positions is not None:
            # the index learns of rows on commit: this transaction's own
            # versions stay in for the predicate to test
            allowed = index_positions.get(partition.name, set())
            keep = np.fromiter(
                (int(p) in allowed for p in positions), dtype=bool, count=len(positions)
            )
            positions = positions[keep | (partition.created.view()[positions] < 0)]
            if len(positions) == 0:
                continue
        if governor is not None:
            # batch-granular yield point: truncate instead of overshooting
            # the soft row budget, then charge what survives
            remaining = governor.remaining_rows()
            if remaining is not None and len(positions) > remaining:
                positions = positions[:remaining]
                context.feedback_exempt = True  # degraded, not a true count
            governor.charge(
                rows=len(positions),
                bytes_=len(positions) * 8 * max(len(node.columns), 1),
            )
        if len(positions) == 0:
            continue
        columns = {
            f"{node.alias}.{name.lower()}": partition.column_at(name, positions)
            for name in node.columns
        }
        batch = Batch(columns, len(positions))
        context.bump("rows_scanned", len(positions))
        obs.count("sql.executor.rows_scanned", len(positions))
        if node.predicate is not None:
            mask = np.asarray(evaluate(node.predicate, batch, context), dtype=bool)
            batch = batch.filter(mask)
            positions = positions[mask]
        parts.append((ordinal, positions, batch))
    return parts


def _simple_filter_triples(
    conjuncts: list[ast.Expr],
) -> list[tuple[str, str, Any]]:
    """Conjuncts of the form column <op> literal, as pushdown triples."""
    triples = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        if conjunct.op not in ("=", "<>", "<", "<=", ">", ">="):
            continue
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            triples.append((left.name, conjunct.op, right.value))
        elif isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(
                conjunct.op, conjunct.op
            )
            triples.append((right.name, flipped, left.value))
    return triples


def _scan_virtual(node: ScanNode, table: Any, context: ExecutionContext) -> Batch:
    """Scan a federated virtual table, pushing simple filters to the source."""
    if node.predicate is not None:
        triples = _simple_filter_triples(ast.split_conjuncts(node.predicate))
        rows = table.scan_with_filters(triples)
    else:
        rows = table.scan(context.snapshot_cid, context.own_tid)
    governor = context.governor
    if governor is not None:
        remaining = governor.remaining_rows()
        if remaining is not None and len(rows) > remaining:
            rows = rows[:remaining]
            context.feedback_exempt = True  # degraded, not a true count
        governor.charge(
            rows=len(rows),
            bytes_=len(rows) * 8 * max(len(table.schema.column_names), 1),
        )
    names = [name.lower() for name in table.schema.column_names]
    columns = {
        f"{node.alias}.{name}": narrow_to_array([row[index] for row in rows])
        for index, name in enumerate(names)
    }
    batch = Batch(columns, len(rows))
    context.bump("rows_scanned", len(rows))
    obs.count("sql.executor.rows_scanned", len(rows))
    if node.predicate is not None:
        mask = np.asarray(evaluate(node.predicate, batch, context), dtype=bool)
        batch = batch.filter(mask)
    return batch


def _prune_partitions(
    table: Any, conjuncts: list[ast.Expr], context: ExecutionContext
) -> list[int]:
    """Range pruning plus the database's semantic (aging) pruning hooks."""
    ordinals = list(range(len(table.partitions)))
    spec = table.partitioning
    if isinstance(spec, (RangePartitioning, CompositePartitioning)):
        low, high = _column_bounds(conjuncts, spec.column)
        if low is not None or high is not None:
            survivors = set(spec.prune(low, high))
            pruned = [o for o in ordinals if o in survivors]
            context.bump("partitions_pruned", len(ordinals) - len(pruned))
            obs.count("sql.executor.partitions_pruned", len(ordinals) - len(pruned), kind="range")
            ordinals = pruned
    database = context.database
    for hook in getattr(database, "pruning_hooks", []):
        kept = hook(table, conjuncts, context)
        if kept is not None:
            pruned = [o for o in ordinals if o in kept]
            context.bump("partitions_pruned", len(ordinals) - len(pruned))
            obs.count("sql.executor.partitions_pruned", len(ordinals) - len(pruned), kind="semantic")
            ordinals = pruned
    return ordinals


def _column_bounds(
    conjuncts: list[ast.Expr], column: str
) -> tuple[Any, Any]:
    """Derive [low, high] bounds on ``column`` from simple conjuncts."""
    low: Any = None
    high: Any = None

    def tighten(new_low: Any = None, new_high: Any = None) -> None:
        nonlocal low, high
        if new_low is not None and (low is None or new_low > low):
            low = new_low
        if new_high is not None and (high is None or new_high < high):
            high = new_high

    for conjunct in conjuncts:
        if isinstance(conjunct, ast.Between):
            if _is_column(conjunct.operand, column) and isinstance(conjunct.low, ast.Literal) and isinstance(conjunct.high, ast.Literal) and not conjunct.negated:
                tighten(conjunct.low.value, conjunct.high.value)
        if not isinstance(conjunct, ast.BinaryOp):
            continue
        left, op, right = conjunct.left, conjunct.op, conjunct.right
        if isinstance(right, ast.Literal) and _is_column(left, column):
            value = right.value
        elif isinstance(left, ast.Literal) and _is_column(right, column):
            value = left.value
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        else:
            continue
        if op == "=":
            tighten(value, value)
        elif op in ("<", "<="):
            tighten(new_high=value)
        elif op in (">", ">="):
            tighten(new_low=value)
    return low, high


def _is_column(expr: ast.Expr, column: str) -> bool:
    return isinstance(expr, ast.ColumnRef) and expr.name == column.lower()


def _contains_probe(
    node: ScanNode,
    table: Any,
    conjuncts: list[ast.Expr],
    database: Any,
) -> dict[str, set[int]] | None:
    """Resolve CONTAINS conjuncts against a registered inverted index.

    Returns allowed positions per partition name, or ``None`` when no
    indexed CONTAINS conjunct exists (the expression evaluator's fallback
    handles the predicate instead).
    """
    indexes = getattr(database, "text_indexes", {})
    result: dict[str, set[int]] | None = None
    for conjunct in conjuncts:
        if not (
            isinstance(conjunct, ast.FunctionCall)
            and conjunct.name == "CONTAINS"
            and len(conjunct.args) == 2
            and isinstance(conjunct.args[0], ast.ColumnRef)
            and isinstance(conjunct.args[1], ast.Literal)
        ):
            continue
        column = conjunct.args[0].name
        index = indexes.get((table.name, column))
        if index is None:
            continue
        hits = index.lookup_positions(str(conjunct.args[1].value))
        if result is None:
            result = hits
        else:
            result = {
                name: result.get(name, set()) & hits.get(name, set())
                for name in set(result) | set(hits)
            }
    return result


# --------------------------------------------------------------------------
# join
# --------------------------------------------------------------------------


def _execute_join(node: JoinNode, context: ExecutionContext) -> Batch:
    left = _execute_node(node.left, context)
    right = _execute_node(node.right, context)

    if node.kind == "cross" and not node.equi:
        joined = _cross_join(left, right)
    else:
        joined = _hash_join(left, right, node, context)
    if node.residual is not None:
        mask = np.asarray(evaluate(node.residual, joined, context), dtype=bool)
        joined = joined.filter(mask)
    return joined


def _cross_join(left: Batch, right: Batch) -> Batch:
    n_left, n_right = len(left), len(right)
    left_index = np.repeat(np.arange(n_left), n_right)
    right_index = np.tile(np.arange(n_right), n_left)
    columns: dict[str, np.ndarray] = {}
    for key, array in left.columns.items():
        columns[key] = array[left_index]
    for key, array in right.columns.items():
        columns[key] = array[right_index]
    return Batch(columns, n_left * n_right)


def _key_tuples(batch: Batch, exprs: list[ast.Expr], context: ExecutionContext) -> list[tuple]:
    arrays = [np.asarray(evaluate(expr, batch, context)) for expr in exprs]
    normalised = []
    for array in arrays:
        if array.dtype.kind == "f":
            normalised.append([None if v != v else float(v) for v in array])
        elif array.dtype == object:
            normalised.append([None if v is None else v for v in array])
        else:
            normalised.append([v.item() if isinstance(v, np.generic) else v for v in array])
    return list(zip(*normalised)) if normalised else [()] * len(batch)


def _hash_join(
    left: Batch, right: Batch, node: JoinNode, context: ExecutionContext
) -> Batch:
    left_keys = _key_tuples(left, [pair[0] for pair in node.equi], context)
    right_keys = _key_tuples(right, [pair[1] for pair in node.equi], context)

    build: dict[tuple, list[int]] = {}
    for position, key in enumerate(right_keys):
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(position)

    left_positions: list[int] = []
    right_positions: list[int] = []
    unmatched_left: list[int] = []
    for position, key in enumerate(left_keys):
        matches = build.get(key) if not any(part is None for part in key) else None
        if matches:
            left_positions.extend([position] * len(matches))
            right_positions.extend(matches)
        elif node.kind == "left":
            unmatched_left.append(position)

    left_index = np.asarray(left_positions, dtype=np.int64)
    right_index = np.asarray(right_positions, dtype=np.int64)
    columns: dict[str, np.ndarray] = {}
    for key, array in left.columns.items():
        columns[key] = array[left_index]
    for key, array in right.columns.items():
        columns[key] = array[right_index]
    matched = Batch(columns, len(left_index))
    context.bump("join_rows", len(left_index))
    obs.count("sql.executor.join_rows", len(left_index))

    if node.kind != "left" or not unmatched_left:
        return matched

    pad_index = np.asarray(unmatched_left, dtype=np.int64)
    pad_columns: dict[str, np.ndarray] = {}
    for key, array in left.columns.items():
        pad_columns[key] = array[pad_index]
    for key, array in right.columns.items():
        if array.dtype.kind == "f":
            pad_columns[key] = np.full(len(pad_index), np.nan)
        elif array.dtype == object:
            pad = np.empty(len(pad_index), dtype=object)
            pad[:] = None
            pad_columns[key] = pad
        else:
            pad_columns[key] = np.full(len(pad_index), np.nan)
    return Batch.concat([matched, Batch(pad_columns, len(pad_index))])


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def _factorize(array: np.ndarray) -> tuple[np.ndarray, list[Any]]:
    """Map values to dense codes; NaN/None become their own group."""
    codes = np.empty(len(array), dtype=np.int64)
    uniques: list[Any] = []
    seen: dict[Any, int] = {}
    if array.dtype.kind == "f":
        values: list[Any] = [None if v != v else float(v) for v in array]
    elif array.dtype == object:
        values = list(array)
    else:
        values = [v.item() if isinstance(v, np.generic) else v for v in array]
    for index, value in enumerate(values):
        code = seen.get(value)
        if code is None:
            code = len(uniques)
            seen[value] = code
            uniques.append(value)
        codes[index] = code
    return codes, uniques


def _row_codes(batch: Batch, names: list[str]) -> np.ndarray:
    """Dense row codes over several columns (for DISTINCT and grouping)."""
    if not names:
        return np.zeros(len(batch), dtype=np.int64)
    combined = np.zeros(len(batch), dtype=np.int64)
    for name in names:
        codes, uniques = _factorize(batch.columns[name])
        combined = combined * max(len(uniques), 1) + codes
    # re-densify
    _unique_values, dense = np.unique(combined, return_inverse=True)
    return dense


def _execute_aggregate(node: AggregateNode, context: ExecutionContext) -> Batch:
    child = _execute_node(node.child, context)
    length = len(child)

    group_arrays = [
        np.asarray(evaluate(expr, child, context)) for expr, _name in node.group
    ]
    if node.group:
        per_column = [_factorize(array) for array in group_arrays]
        combined = np.zeros(length, dtype=np.int64)
        for codes, uniques in per_column:
            combined = combined * max(len(uniques), 1) + codes
        unique_codes, first_positions, group_ids = np.unique(
            combined, return_index=True, return_inverse=True
        )
        group_count = len(unique_codes)
    else:
        group_ids = np.zeros(length, dtype=np.int64)
        first_positions = np.array([0], dtype=np.int64) if length else np.empty(0, dtype=np.int64)
        group_count = 1  # global aggregate always yields one row

    columns: dict[str, np.ndarray] = {}
    for array, (_expr, name) in zip(group_arrays, node.group):
        if length:
            columns[name] = array[first_positions]
        else:
            columns[name] = array[:0]
    if node.group and length == 0:
        group_count = 0

    for call, name in node.aggregates:
        columns[name] = _compute_aggregate(call, child, group_ids, group_count, context)

    out_length = group_count if (not node.group or length) else 0
    return Batch(columns, out_length)


def _compute_aggregate(
    call: ast.FunctionCall,
    child: Batch,
    group_ids: np.ndarray,
    group_count: int,
    context: ExecutionContext,
) -> np.ndarray:
    name = call.name.upper()
    if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
        return np.bincount(group_ids, minlength=group_count).astype(np.int64)

    values = np.asarray(evaluate(call.args[0], child, context))
    null_mask = is_null_mask(values)
    valid = ~null_mask

    if name == "COUNT":
        if call.distinct:
            out = np.zeros(group_count, dtype=np.int64)
            seen: set[tuple[int, Any]] = set()
            for index in np.flatnonzero(valid):
                key = (int(group_ids[index]), values[index] if values.dtype == object else values[index].item())
                if key not in seen:
                    seen.add(key)
                    out[group_ids[index]] += 1
            return out
        return np.bincount(group_ids[valid], minlength=group_count).astype(np.int64)

    numeric = values.astype(np.float64) if values.dtype != object else np.array(
        [np.nan if v is None else float(v) for v in values], dtype=np.float64
    ) if name in ("SUM", "AVG", "STDDEV", "VAR", "MEDIAN") else values

    if name in ("SUM", "AVG", "STDDEV", "VAR", "MEDIAN"):
        clean = np.where(valid, numeric, 0.0)
        sums = np.bincount(group_ids, weights=clean, minlength=group_count)
        counts = np.bincount(group_ids[valid], minlength=group_count).astype(np.float64)
        if name == "SUM":
            result = np.asarray(sums, dtype=np.float64)
            result[counts == 0] = np.nan
            return result
        if name == "AVG":
            with np.errstate(invalid="ignore", divide="ignore"):
                return sums / counts
        if name in ("STDDEV", "VAR"):
            squares = np.bincount(group_ids, weights=clean * clean, minlength=group_count)
            with np.errstate(invalid="ignore", divide="ignore"):
                variance = squares / counts - (sums / counts) ** 2
                variance = np.maximum(variance, 0.0)
            return np.sqrt(variance) if name == "STDDEV" else variance
        # MEDIAN: gather per group
        out = np.full(group_count, np.nan)
        for group in range(group_count):
            members = numeric[(group_ids == group) & valid]
            if len(members):
                out[group] = float(np.median(members))
        return out

    if name in ("MIN", "MAX"):
        if values.dtype != object:
            fill = np.inf if name == "MIN" else -np.inf
            clean = np.where(valid, values.astype(np.float64), fill)
            out = np.full(group_count, fill)
            if name == "MIN":
                np.minimum.at(out, group_ids, clean)
            else:
                np.maximum.at(out, group_ids, clean)
            out[np.isinf(out)] = np.nan
            if values.dtype.kind in "iu" and not np.isnan(out).any():
                return out.astype(np.int64)
            return out
        out_obj = np.empty(group_count, dtype=object)
        out_obj[:] = None
        for index in np.flatnonzero(valid):
            group = group_ids[index]
            current = out_obj[group]
            value = values[index]
            if current is None or (value < current if name == "MIN" else value > current):
                out_obj[group] = value
        return out_obj

    raise PlanError(f"unknown aggregate function {name}")


# --------------------------------------------------------------------------
# sort
# --------------------------------------------------------------------------


def _sort_order(batch: Batch, keys: list[tuple[str, bool]]) -> np.ndarray:
    """Stable multi-key argsort honouring per-key direction; NULLs last."""
    order = np.arange(len(batch))
    for name, ascending in reversed(keys):
        array = batch.columns[name][order]
        if array.dtype == object:
            def sort_key(i: int, a: np.ndarray = array) -> tuple:
                value = a[i]
                return (value is None, value)

            local = sorted(range(len(array)), key=sort_key)
            if not ascending:
                non_null = [i for i in local if array[i] is not None]
                nulls = [i for i in local if array[i] is None]
                local = non_null[::-1] + nulls
            order = order[np.asarray(local, dtype=np.int64)]
        else:
            values = array.astype(np.float64, copy=False) if array.dtype.kind == "f" else array
            if array.dtype.kind == "f":
                nan_mask = np.isnan(values)
                filler = np.inf if ascending else -np.inf
                values = np.where(nan_mask, filler, values)
            local = np.argsort(values if ascending else -values.astype(np.float64), kind="stable")
            order = order[local]
    return order
