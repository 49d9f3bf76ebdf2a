"""v2lqp: the local query-processing executable (§IV.B, Figure 3).

"At the core is the SAP HANA SOE local query processing executable (v2lqp)
which contains a query and a data service." The query service executes
coordinator tasks against the node-local prepackaged partitions, compiling
each task's kernel first (see :mod:`repro.soe.codegen`): partial
aggregates and join probes run the same compiled kernel, a probe with the
shipped dim hash as its input, so this service holds no aggregate-state
code of its own. The data service
(:class:`~repro.soe.replication.DataNode`) owns the partitions and applies
the shared log.

**Role in the query path:** the leaf executor of the SOE — the v2dqp
coordinator's task DAG lands here, one task at a time, and only partial
results travel back.

**Observability:** every task dispatch counts into
``soe.query_service.tasks`` and the ``soe.query_service.task_seconds``
latency histogram (labelled by task kind and node), the per-node numbers
the v2stats service reads to spot hotspots.
"""

from __future__ import annotations

from typing import Any

from repro import obs
from repro.errors import CoordinationError
from repro.soe.cluster import value_bytes
from repro.soe.codegen import (
    GroupStates,
    ProbeHash,
    estimate_states_bytes,
    run_partial_aggregate,
)
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
                    return self._partial_aggregate(task)
                if task.kind == "build_hash":
                    return self._build_hash(task)
                if task.kind == "join_partial":
                    # the broadcast / co-located probe: the fact partitions
                    # against the dim hash shipped in as the task's input
                    probe = (task.params["fact_key"], inputs[task.inputs[0]])
                    return self._partial_aggregate(task, probe)
                if task.kind == "scan_ship":
                    return self._scan_ship(task)
                raise CoordinationError(
                    f"query service cannot execute task kind {task.kind!r}"
                )

    # -- kernels ------------------------------------------------------------------

    def _local_partitions(self, table: str, partition_ids: list[int]) -> list[Any]:
        store = self.data_node.store
        return [store.partition(table, pid) for pid in partition_ids]

    def _partial_aggregate(
        self, task: Task, probe: tuple[str, ProbeHash] | None = None
    ) -> GroupStates:
        """Run the compiled task kernel over the local partitions; a join
        probe passes ``(fact key column, shipped dim hash)``."""
        params = task.params
        partitions = self._local_partitions(params["table"], params["partitions"])
        self.rows_processed += sum(len(p) for p in partitions)
        return run_partial_aggregate(
            partitions,
            [Filter(*f) if not isinstance(f, Filter) else f for f in params.get("filters", [])],
            list(params.get("group_by", [])),
            [AggregateSpec(*a) if not isinstance(a, AggregateSpec) else a for a in params["aggregates"]],
            probe,
        )

    def _build_hash(self, task: Task) -> dict[Any, list[tuple]]:
        """Materialise a (small) table side as key → rows."""
        params = task.params
        partitions = self._local_partitions(params["table"], params["partitions"])
        key_column = params["key_column"]
        payload_columns = params["columns"]
        table_hash: dict[Any, list[tuple]] = {}
        for partition in partitions:
            self.rows_processed += len(partition)
            key_pos = partition.columns.index(key_column.lower())
            payload_pos = [partition.columns.index(c.lower()) for c in payload_columns]
            for row in partition.rows():
                key = row[key_pos]
                if key is None:
                    continue
                table_hash.setdefault(key, []).append(
                    tuple(row[p] for p in payload_pos)
                )
        return table_hash

    def _scan_ship(self, task: Task) -> list[tuple]:
        """Project local rows for repartitioning (ships whole tuples)."""
        params = task.params
        partitions = self._local_partitions(params["table"], params["partitions"])
        columns = params["columns"]
        out: list[tuple] = []
        for partition in partitions:
            self.rows_processed += len(partition)
            positions = [partition.columns.index(c.lower()) for c in columns]
            for row in partition.rows():
                out.append(tuple(row[p] for p in positions))
        return out

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
        if isinstance(result, list):
            return sum(sum(map(value_bytes, row)) for row in result)
        return 64
