"""v2dqp: the distributed query coordinator (§IV.B, Figure 3).

**Role in the query path:** the SOE entry point for distributed reads —
a client's aggregate/join query arrives here, becomes a task DAG, and
fans out to the v2lqp query services before partial results merge back.

Translates every query into one task DAG (see :mod:`repro.soe.tasks`) that
:meth:`Coordinator._run_dag` runs: it dispatches each task to the query
service on its node and charges each cross-node input transfer to the
cluster's network model. The coordinator itself builds no hash, routes no
row and runs no kernel; its only local tasks are the broadcast ``collect``
and the final ``merge_aggregate`` of the partial states. "These plans can
lead to strong speedup results compared to single machine execution ... if
the plans are specifically tailored for a clustered execution in
combination with efficient communication algorithms" [13] — hence the
three join strategies (broadcast, repartition, co-located) whose
communication volumes benchmark E7 compares.

**Observability:** every distributed plan runs inside
:meth:`Coordinator._plan`, the single place where ``PlanCost.wall_seconds``
is measured (via :func:`repro.obs.timed`) and where per-strategy request
counters and latency histograms feed v2stats — wall-time accounting
cannot drift between the aggregate and the three join code paths.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import obs
from repro.errors import (
    CoordinationError,
    DeadlineExceededError,
    NodeUnavailableError,
    TransferDroppedError,
)
from repro.soe.cluster import SimulatedCluster
from repro.soe.codegen import finalize_groups, merge_group_states
from repro.soe.services.catalog_service import CatalogService
from repro.soe.services.query_service import QueryService
from repro.soe.services.transaction_broker import TransactionBroker
from repro.soe.tasks import AggregateSpec, Filter, TaskDag
from repro.util.retry import RetryPolicy, SimulatedClock


@dataclass(frozen=True)
class AggregateQuery:
    """Scan + filter + group-by aggregation over one SOE table."""

    table: str
    group_by: tuple[str, ...] = ()
    aggregates: tuple[AggregateSpec, ...] = ()
    filters: tuple[Filter, ...] = ()
    consistency: str = "eventual"  # "eventual" | "strong"


@dataclass(frozen=True)
class JoinQuery:
    """Fact ⋈ dim with aggregation grouped by a dim column."""

    fact_table: str
    dim_table: str
    fact_key: str
    dim_key: str
    group_column: str            # on the dim table
    aggregates: tuple[AggregateSpec, ...]
    strategy: str = "auto"       # auto | broadcast | repartition | colocated
    consistency: str = "eventual"


@dataclass
class PlanCost:
    """What a distributed plan cost."""

    bytes_shipped: int = 0
    messages: int = 0
    simulated_network_seconds: float = 0.0
    wall_seconds: float = 0.0
    tasks: int = 0
    strategy: str = ""
    #: transient-failure recoveries charged to this plan (resends + re-runs)
    retries: int = 0
    #: partition reads served by a replica because the primary was down
    failovers: int = 0
    #: True when any partition was served by a replica that still lagged
    #: the log (within the coordinator's staleness bound)
    degraded: bool = False
    #: how many times the plan was re-optimized mid-query — strategy-body
    #: re-plans against fresh cluster state (mirrors the SQL path's
    #: ``QueryResult.reoptimizations``; see docs/OPTIMIZER.md)
    reoptimizations: int = 0

    def as_dict(self) -> dict[str, float | str]:
        return {
            "bytes_shipped": float(self.bytes_shipped),
            "messages": float(self.messages),
            "simulated_network_seconds": self.simulated_network_seconds,
            "wall_seconds": self.wall_seconds,
            "tasks": float(self.tasks),
            "strategy": self.strategy,
            "retries": float(self.retries),
            "failovers": float(self.failovers),
            "degraded": float(self.degraded),
            "reoptimizations": float(self.reoptimizations),
        }


@dataclass
class Coordinator:
    """The v2dqp service instance.

    **Failure awareness:** every strategy body runs under
    :meth:`_recover` — a transient failure (dead node, dropped transfer,
    chaos crash) triggers a bounded re-plan-and-retry with exponential
    backoff charged to the *simulated* clock. Re-planning recomputes
    :meth:`_assignments` against current liveness, which is how a
    partition read fails over from a dead primary to a live replica
    (within ``staleness_bound`` committed transactions of the log tail;
    a stale-but-bounded serve marks the plan ``degraded``). A per-query
    ``deadline_seconds`` budget on the simulated clock aborts hopeless
    queries with :class:`~repro.errors.DeadlineExceededError`. Counters:
    ``soe.coordinator.retries`` / ``failovers`` / ``degraded_reads`` /
    ``failover_catch_ups`` / ``deadline_aborts``.
    """

    node_id: str
    cluster: SimulatedCluster
    catalog: CatalogService
    broker: TransactionBroker
    query_services: dict[str, QueryService] = field(default_factory=dict)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    clock: SimulatedClock = field(default_factory=SimulatedClock)
    #: replica failover for partition reads (the benchmark's control knob)
    failover: bool = True
    #: max committed-but-unapplied transactions a failover replica may
    #: serve with; beyond it the replica is caught up first
    staleness_bound: int = 0
    #: per-query budget on the simulated clock (None = no deadline)
    deadline_seconds: float | None = None
    #: optional repro.qos CircuitBreaker guarding cluster transfers; once
    #: open, transfers fail fast with the non-retryable CircuitOpenError
    #: instead of paying the resend schedule against a down network
    transfer_breaker: Any = None
    _deadline_at: float | None = field(default=None, init=False, repr=False)

    def register_query_service(self, service: QueryService) -> None:
        self.query_services[service.node_id] = service

    # -- helpers -------------------------------------------------------------------

    @contextmanager
    def _plan(self, strategy: str) -> Iterator[PlanCost]:
        """One distributed plan execution: the single wall-clock.

        Yields the :class:`PlanCost` the strategy fills in; on exit the
        measured wall time lands on ``cost.wall_seconds`` and — when
        observability is enabled — on the ``soe.coordinator.plan_seconds``
        histogram and the ``soe.coordinator.plans`` counter (per strategy),
        the numbers v2stats reads.
        """
        cost = PlanCost(strategy=strategy)
        self._deadline_at = (
            self.clock.now + self.deadline_seconds
            if self.deadline_seconds is not None
            else None
        )
        with obs.timed("soe.coordinator.plan_seconds", strategy=strategy) as timer:
            yield cost
        cost.wall_seconds = timer.seconds
        obs.count("soe.coordinator.plans", strategy=strategy)
        obs.count("soe.coordinator.bytes_shipped", cost.bytes_shipped, strategy=strategy)
        obs.count("soe.coordinator.tasks", cost.tasks, strategy=strategy)

    def _check_deadline(self) -> None:
        """Abort the query once the simulated clock passes its budget.
        :class:`DeadlineExceededError` is a plain ``CoordinationError`` —
        deliberately *not* retryable, so it punches through recovery."""
        if self._deadline_at is not None and self.clock.now > self._deadline_at:
            obs.count("soe.coordinator.deadline_aborts")
            raise DeadlineExceededError(
                f"query exceeded its {self.deadline_seconds}s deadline "
                f"(simulated clock {self.clock.now:.6f})"
            )

    def _charge(self, seconds: float) -> None:
        """Charge simulated seconds to the query clock, then enforce the
        deadline — network time and backoff spend the same budget."""
        self.clock.advance(seconds)
        self._check_deadline()

    def _recover(self, cost: PlanCost, body: Any) -> Any:
        """Plan-level recovery: re-run the whole strategy body on any
        transient failure. Re-running re-plans — :meth:`_assignments`
        recomputes against *current* liveness, so the retry lands on live
        replicas instead of the node that just died."""

        def on_retry(_attempt: int, _exc: Exception) -> None:
            self._check_deadline()
            cost.retries += 1
            # each retry re-plans the strategy body against current
            # liveness: a mid-query re-optimization in PlanCost terms
            cost.reoptimizations += 1
            obs.count("soe.coordinator.retries")

        return self.retry_policy.call(body, clock=self.clock, on_retry=on_retry)

    def _transfer(
        self, source: str, target: str, payload_bytes: int, cost: PlanCost
    ) -> float:
        """One charged transfer with bounded resend: a dropped message
        (chaos) is resent under the retry policy rather than failing the
        whole plan; every resend pays backoff on the simulated clock."""
        last: TransferDroppedError | None = None
        for attempt, delay in self.retry_policy.schedule():
            if attempt:
                self._charge(delay)
                cost.retries += 1
                obs.count("soe.coordinator.retries")
            try:
                if self.transfer_breaker is not None:
                    seconds = self.transfer_breaker.call(
                        lambda: self.cluster.transfer(source, target, payload_bytes)
                    )
                else:
                    seconds = self.cluster.transfer(source, target, payload_bytes)
            except TransferDroppedError as exc:
                last = exc
                continue
            if source != target:
                cost.bytes_shipped += payload_bytes
                cost.messages += 1
                cost.simulated_network_seconds += seconds
                self._charge(seconds)
            return seconds
        assert last is not None
        raise last

    def _service_for(self, node_id: str) -> QueryService:
        """Resolve the v2lqp service on a node through the availability
        seam (liveness gate; scheduled chaos crashes fire here)."""
        self.cluster.node(node_id).check_available("v2lqp")
        service = self.query_services.get(node_id)
        if service is None:
            raise CoordinationError(f"no query service on {node_id}")
        return service

    def _assignments(
        self, table: str, cost: PlanCost | None = None
    ) -> dict[str, list[int]]:
        """node id → partition ids it will scan (one replica per partition,
        spread across hosts; dead primaries fail over when enabled)."""
        placement = self.catalog.placement_of(table)
        assignments: dict[str, list[int]] = {}
        for partition_id, nodes in placement.items():
            chosen = self._choose_host(table, partition_id, nodes, cost)
            assignments.setdefault(chosen, []).append(partition_id)
        return assignments

    def _choose_host(
        self,
        table: str,
        partition_id: int,
        replicas: list[str],
        cost: PlanCost | None,
    ) -> str:
        """Pick the serving replica for one partition. The deterministic
        primary is ``replicas[partition_id % len(replicas)]``; a dead
        primary fails over to a live replica — caught up first when it
        lags more than ``staleness_bound``, marked degraded otherwise."""
        primary = replicas[partition_id % len(replicas)]
        if self.cluster.node(primary).alive:
            return primary
        if not self.failover:
            raise NodeUnavailableError(
                primary,
                f"primary {primary} of {table}#{partition_id} is down "
                "and failover is disabled",
            )
        alive = [n for n in replicas if self.cluster.node(n).alive]
        if not alive:
            raise CoordinationError(f"no live replica of {table}#{partition_id}")
        fallback = alive[partition_id % len(alive)]
        obs.count("soe.coordinator.failovers")
        if cost is not None:
            cost.failovers += 1
        service = self.query_services.get(fallback)
        if service is not None:
            staleness = service.data_node.staleness()
            if staleness > self.staleness_bound:
                service.data_node.catch_up()
                obs.count("soe.coordinator.failover_catch_ups")
            elif staleness > 0:
                if cost is not None:
                    cost.degraded = True
                obs.count("soe.coordinator.degraded_reads")
        return fallback

    def _ensure_fresh(self, tables: list[str], consistency: str) -> None:
        """Strong consistency: ask the broker for "additional updates to be
        considered" — force OLAP nodes serving the query to catch up."""
        if consistency != "strong":
            return
        target = self.broker.current_lsn
        involved: set[str] = set()
        for table in tables:
            involved.update(self._assignments(table))
        for node_id in involved:
            service = self.query_services[node_id]
            if service.data_node.mode == "olap":
                service.data_node.catch_up(target)

    def _run_dag(self, dag: TaskDag, cost: PlanCost) -> dict[int, Any]:
        """Run every task of a plan in dependency order: the one place
        that dispatches tasks to query services and charges the transfer
        of each input from its producer's node to its consumer's."""
        results: dict[int, Any] = {}
        # a result sent to several consumers (the broadcast hash) is sized once
        sizes: dict[int, int] = {}
        for task in dag.topological_order():
            inputs: dict[int, Any] = {}
            for input_id in task.inputs:
                producer = dag.tasks[input_id]
                result = results[input_id]
                if producer.kind == "scan_ship":
                    # a shuffle edge carries only the consumer's bucket;
                    # an empty bucket ships nothing
                    result = result[task.params["bucket"]]
                    if result:
                        payload = QueryService.result_bytes(result)
                        self._transfer(producer.node_id, task.node_id, payload, cost)
                else:
                    if input_id not in sizes:
                        sizes[input_id] = QueryService.result_bytes(result)
                    self._transfer(producer.node_id, task.node_id, sizes[input_id], cost)
                inputs[input_id] = result
            if task.kind == "merge_aggregate":
                results[task.task_id] = [inputs[input_id] for input_id in task.inputs]
            elif task.kind == "collect":
                # the broadcast gather: one dim hash from the hosts' pieces
                union: dict[Any, list[tuple]] = {}
                for input_id in task.inputs:
                    for key, rows in inputs[input_id].items():
                        union.setdefault(key, []).extend(rows)
                results[task.task_id] = union
            else:
                results[task.task_id] = self._service_for(task.node_id).execute(
                    task, inputs
                )
            cost.tasks += 1
        return results

    def _merge(
        self,
        dag: TaskDag,
        partial_ids: list[int],
        aggregates: tuple[AggregateSpec, ...],
        cost: PlanCost,
    ) -> list[list[Any]]:
        """Finish a plan: merge the partial states at the coordinator, run
        the whole DAG, and finalise the merged groups into rows."""
        merge = dag.add("merge_aggregate", self.node_id, {}, partial_ids)
        results = self._run_dag(dag, cost)
        merged = merge_group_states(results[merge.task_id], list(aggregates))
        return finalize_groups(merged, list(aggregates))

    # -- aggregate queries -----------------------------------------------------------

    def run_aggregate(self, query: AggregateQuery) -> tuple[list[list[Any]], PlanCost]:
        """Partial aggregation at the data, merge at the coordinator."""
        with self._plan("partial-aggregate") as cost:
            rows = self._recover(cost, lambda: self._aggregate_body(query, cost))
        return rows, cost

    def _aggregate_body(self, query: AggregateQuery, cost: PlanCost) -> list[list[Any]]:
        self._ensure_fresh([query.table], query.consistency)
        dag = TaskDag()
        partial_ids = []
        for node_id, partition_ids in self._assignments(query.table, cost).items():
            params = {
                "table": query.table,
                "partitions": partition_ids,
                "filters": list(query.filters),
                "group_by": list(query.group_by),
                "aggregates": list(query.aggregates),
            }
            partial_ids.append(dag.add("partial_aggregate", node_id, params).task_id)
        return self._merge(dag, partial_ids, query.aggregates, cost)

    # -- join queries ---------------------------------------------------------------------

    def run_join(self, query: JoinQuery) -> tuple[list[list[Any]], PlanCost]:
        strategy = query.strategy
        if strategy == "auto":
            strategy = self._choose_join_strategy(query)
        bodies = {
            "broadcast": self._join_broadcast_body,
            "repartition": self._join_repartition_body,
            "colocated": self._join_colocated_body,
        }
        body = bodies.get(strategy)
        if body is None:
            raise CoordinationError(f"unknown join strategy {strategy!r}")
        with self._plan(strategy) as cost:

            def attempt() -> list[list[Any]]:
                self._ensure_fresh(
                    [query.fact_table, query.dim_table], query.consistency
                )
                return body(query, cost)

            rows = self._recover(cost, attempt)
        return rows, cost

    def _choose_join_strategy(self, query: JoinQuery) -> str:
        fact_meta = self.catalog.table(query.fact_table)
        dim_meta = self.catalog.table(query.dim_table)
        co_partitioned = (
            fact_meta.partition_count == dim_meta.partition_count
            and fact_meta.key_columns == [query.fact_key]
            and dim_meta.key_columns == [query.dim_key]
        )
        if co_partitioned and self._placement_aligned(query):
            return "colocated"
        dim_rows = self._table_rows(query.dim_table)
        fact_rows = self._table_rows(query.fact_table)
        return "broadcast" if dim_rows * 10 <= fact_rows else "repartition"

    def _placement_aligned(self, query: JoinQuery) -> bool:
        fact_nodes = self.catalog.placement_of(query.fact_table)
        dim_nodes = self.catalog.placement_of(query.dim_table)
        return all(
            set(fact_nodes[pid]) & set(dim_nodes.get(pid, []))
            for pid in fact_nodes
        )

    def _table_rows(self, table: str) -> int:
        total = 0
        for node_id, partition_ids in self._assignments(table).items():
            store = self.query_services[node_id].data_node.store
            total += sum(len(store.partition(table, pid)) for pid in partition_ids)
        return total

    def _add_build_hash(
        self, dag: TaskDag, node_id: str, partition_ids: list[int], query: JoinQuery
    ) -> int:
        """A task hashing dim partitions as join key → group column."""
        params = {
            "table": query.dim_table,
            "partitions": partition_ids,
            "key_column": query.dim_key,
            "columns": [query.group_column],
        }
        return dag.add("build_hash", node_id, params).task_id

    def _add_probe(
        self,
        dag: TaskDag,
        node_id: str,
        partition_ids: list[int],
        query: JoinQuery,
        hash_id: int,
    ) -> int:
        """A task probing fact partitions against task ``hash_id``'s dim hash."""
        params = {
            "table": query.fact_table,
            "partitions": partition_ids,
            "fact_key": query.fact_key,
            "aggregates": list(query.aggregates),
        }
        return dag.add("join_partial", node_id, params, [hash_id]).task_id

    def _join_broadcast_body(self, query: JoinQuery, cost: PlanCost) -> list[list[Any]]:
        """Gather the dim hash at the coordinator, broadcast it to every
        fact host and probe there."""
        dag = TaskDag()
        build_ids = [
            self._add_build_hash(dag, node_id, partition_ids, query)
            for node_id, partition_ids in self._assignments(query.dim_table, cost).items()
        ]
        gather = dag.add("collect", self.node_id, {}, build_ids).task_id
        probe_ids = [
            self._add_probe(dag, node_id, partition_ids, query, gather)
            for node_id, partition_ids in self._assignments(query.fact_table, cost).items()
        ]
        return self._merge(dag, probe_ids, query.aggregates, cost)

    def _join_repartition_body(self, query: JoinQuery, cost: PlanCost) -> list[list[Any]]:
        """Ship both sides hashed on the join key to worker nodes, one
        bucket per worker, and join each bucket on its worker."""
        workers = [
            node_id
            for node_id in sorted(self.query_services)
            if not self.failover or self.cluster.node(node_id).alive
        ]
        if not workers:
            raise CoordinationError("no live workers for a repartition join")
        dag = TaskDag()

        def ship(table: str, columns: list[str]) -> list[int]:
            # scan_ship routes each projected row on columns[0], the join key
            ship_ids = []
            for node_id, partition_ids in self._assignments(table, cost).items():
                params = {
                    "table": table,
                    "partitions": partition_ids,
                    "columns": columns,
                    "buckets": len(workers),
                }
                ship_ids.append(dag.add("scan_ship", node_id, params).task_id)
            return ship_ids

        agg_columns = [a.column for a in query.aggregates if a.column is not None]
        fact_columns = list(dict.fromkeys([query.fact_key] + agg_columns))
        fact_ids = ship(query.fact_table, fact_columns)
        dim_ids = ship(query.dim_table, [query.dim_key, query.group_column])
        join_ids = [
            dag.add(
                "join_bucket",
                worker,
                {
                    "bucket": bucket,
                    "columns": fact_columns,
                    "fact_inputs": fact_ids,
                    "aggregates": list(query.aggregates),
                },
                fact_ids + dim_ids,
            ).task_id
            for bucket, worker in enumerate(workers)
        ]
        return self._merge(dag, join_ids, query.aggregates, cost)

    def _join_colocated_body(self, query: JoinQuery, cost: PlanCost) -> list[list[Any]]:
        """Both sides hash-partitioned on the join key with aligned
        placement: join entirely node-locally, ship only partial states."""
        dag = TaskDag()
        probe_ids = []
        for node_id, partition_ids in self._assignments(query.fact_table, cost).items():
            build = self._add_build_hash(dag, node_id, partition_ids, query)
            probe_ids.append(self._add_probe(dag, node_id, partition_ids, query, build))
        return self._merge(dag, probe_ids, query.aggregates, cost)
