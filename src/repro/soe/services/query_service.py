"""v2lqp: the local query-processing executable (§IV.B, Figure 3).

"At the core is the SAP HANA SOE local query processing executable (v2lqp)
which contains a query and a data service." The query service executes
every coordinator task that touches data, compiling its kernel first (see
:mod:`repro.soe.codegen`): partial aggregates and the probes of all three
join strategies run the same compiled kernel, a probe with its dim hash as
an input. One hash builder serves ``build_hash`` and ``join_bucket``; it
drops NULL keys, so NULL joins nothing under any strategy. The data
service (:class:`~repro.soe.replication.DataNode`) owns the partitions and
applies the shared log.

**Role in the query path:** the leaf executor of the SOE — the v2dqp
coordinator's task DAG lands here, one task at a time, and only partial
results travel back.

**Observability:** every task dispatch counts into
``soe.query_service.tasks`` and the ``soe.query_service.task_seconds``
latency histogram (labelled by task kind and node), the per-node numbers
the v2stats service reads to spot hotspots.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro import obs
from repro.errors import CoordinationError
from repro.soe.cluster import value_bytes
from repro.soe.codegen import (
    GroupStates,
    ProbeHash,
    estimate_states_bytes,
    run_partial_aggregate,
)
from repro.soe.partitions import PrepackagedPartition, route_row
from repro.soe.replication import DataNode
from repro.soe.tasks import AggregateSpec, Filter, Task


class QueryService:
    """Executes tasks on one node's local data."""

    def __init__(self, node_id: str, data_node: DataNode) -> None:
        self.node_id = node_id
        self.data_node = data_node
        self.tasks_executed = 0
        self.rows_processed = 0

    # -- task entry point ------------------------------------------------------

    def execute(self, task: Task, inputs: dict[int, Any]) -> Any:
        """Run one task; ``inputs`` maps input task id → its result."""
        self.tasks_executed += 1
        obs.count("soe.query_service.tasks", kind=task.kind, node=self.node_id)
        with obs.latency("soe.query_service.task_seconds", kind=task.kind, node=self.node_id):
            # pin the task's partitions so a concurrent partition move
            # cannot trim a retained donor copy out from under this scan
            with self.data_node.pinned(
                task.params.get("table"), task.params.get("partitions", ())
            ):
                if task.kind == "partial_aggregate":
                    return self._aggregate(task, self._local_partitions(task.params))
                if task.kind == "build_hash":
                    return self._build_hash(task)
                if task.kind == "join_partial":
                    # the broadcast / co-located probe: the fact partitions
                    # against the dim hash shipped in as the task's input
                    probe = (task.params["fact_key"], inputs[task.inputs[0]])
                    return self._aggregate(task, self._local_partitions(task.params), probe)
                if task.kind == "scan_ship":
                    return self._scan_ship(task)
                if task.kind == "join_bucket":
                    fact, dim_hash = self._shuffled_bucket(task, inputs)
                    return self._aggregate(task, [fact], (fact.columns[0], dim_hash))
                raise CoordinationError(
                    f"query service cannot execute task kind {task.kind!r}"
                )

    # -- kernels ------------------------------------------------------------------

    def _local_partitions(self, params: dict[str, Any]) -> list[PrepackagedPartition]:
        store = self.data_node.store
        return [store.partition(params["table"], pid) for pid in params["partitions"]]

    def _aggregate(
        self,
        task: Task,
        partitions: list[PrepackagedPartition],
        probe: tuple[str, ProbeHash] | None = None,
    ) -> GroupStates:
        """Run the compiled task kernel over ``partitions``; a join probe
        passes ``(fact key column, dim hash)``."""
        params = task.params
        self.rows_processed += sum(len(p) for p in partitions)
        return run_partial_aggregate(
            partitions,
            [Filter(*f) if not isinstance(f, Filter) else f for f in params.get("filters", [])],
            list(params.get("group_by", [])),
            [AggregateSpec(*a) if not isinstance(a, AggregateSpec) else a for a in params["aggregates"]],
            probe,
        )

    def _build_hash(self, task: Task) -> ProbeHash:
        """Materialise a (small) table side as key → payload rows."""
        params = task.params
        table_hash: ProbeHash = {}
        for partition in self._local_partitions(params):
            self.rows_processed += len(partition)
            key_pos = partition.columns.index(params["key_column"].lower())
            payload_pos = [partition.columns.index(c.lower()) for c in params["columns"]]
            _hash_rows(partition.rows(), key_pos, payload_pos, table_hash)
        return table_hash

    def _scan_ship(self, task: Task) -> list[list[tuple]]:
        """Project local rows for repartitioning into one bucket per
        worker, routed on the first projected column (the join key)."""
        params = task.params
        buckets: list[list[tuple]] = [[] for _ in range(params["buckets"])]
        for partition in self._local_partitions(params):
            self.rows_processed += len(partition)
            positions = [partition.columns.index(c.lower()) for c in params["columns"]]
            for row in partition.rows():
                shipped = tuple(row[p] for p in positions)
                buckets[route_row(shipped, [0], params["buckets"])].append(shipped)
        return buckets

    def _shuffled_bucket(
        self, task: Task, inputs: dict[int, Any]
    ) -> tuple[PrepackagedPartition, ProbeHash]:
        """A worker's repartition-join inputs: its shipped fact rows as one
        partition in join-key, first-arrival order (the order the kernel
        folds them in, so float answers do not depend on the shuffle), and
        a hash of its shipped ``(dim key, group)`` rows."""
        params = task.params
        by_key: dict[Any, list[tuple]] = {}
        for input_id in params["fact_inputs"]:
            for row in inputs[input_id]:
                by_key.setdefault(row[0], []).append(row)
        fact = PrepackagedPartition("bucket", params["bucket"], params["columns"])
        for rows in by_key.values():
            fact.append_rows(rows)
        dim_hash: ProbeHash = {}
        for input_id in task.inputs:
            if input_id not in params["fact_inputs"]:
                _hash_rows(inputs[input_id], 0, [1], dim_hash)
        return fact, dim_hash

    # -- result sizing (for network accounting) -------------------------------------

    @staticmethod
    def result_bytes(result: Any) -> int:
        if isinstance(result, dict):
            first = next(iter(result.values()), None)
            if isinstance(first, list) and first and isinstance(first[0], tuple):
                # hash table: key -> payload tuples
                return sum(
                    value_bytes(key) + sum(sum(map(value_bytes, row)) for row in rows)
                    for key, rows in result.items()
                )
            return estimate_states_bytes(result)
        # shipped rows: a scan_ship bucket
        return sum(sum(map(value_bytes, row)) for row in result)


def _hash_rows(
    rows: Iterable[Sequence[Any]],
    key_pos: int,
    payload_pos: list[int],
    table_hash: ProbeHash,
) -> None:
    """Add rows to a join hash as key → payload tuples. A NULL key joins
    nothing, so its row is dropped."""
    for row in rows:
        key = row[key_pos]
        if key is not None:
            table_hash.setdefault(key, []).append(tuple(row[p] for p in payload_pos))
