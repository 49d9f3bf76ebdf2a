"""v2catalog: schema catalog + data discovery (§IV.B, Figure 3).

"A catalog service stores and provides schema and metadata information, a
data discovery service keeps track of the location of the corresponding
horizontal table partitions."

**Role in the query path:** consulted once per distributed plan — the
v2dqp coordinator asks it which nodes host which partitions
(:meth:`CatalogService.placement_of`) before building the task DAG; it
never touches row data itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.racecheck import track_fields
from repro.errors import CoordinationError


@dataclass
class SoeTableMeta:
    """Schema + partitioning metadata of one SOE table."""

    name: str
    columns: list[str]
    key_columns: list[str]
    partition_count: int

    @property
    def key_positions(self) -> list[int]:
        return [self.columns.index(column) for column in self.key_columns]


@track_fields("_tables", "_placement")
@dataclass
class CatalogService:
    """Schemas plus partition → hosting-node discovery."""

    _tables: dict[str, SoeTableMeta] = field(default_factory=dict)
    #: (table, partition_id) -> node ids hosting a replica
    _placement: dict[tuple[str, int], list[str]] = field(default_factory=dict)
    #: guards both maps — registration and (re)placement race with the
    #: cluster manager's rebalancing thread
    _lock: threading.Lock = field(
        # a lambda, not `threading.Lock` itself: the factory must be
        # looked up at *instance* creation so sanitizer/scheduler lock
        # layers installed after this module imported still wrap it
        default_factory=lambda: threading.Lock(),
        repr=False,
        compare=False,
    )
    #: optional membership FencingGuard: when installed, swap_placement —
    #: the ownership flip's commit point — requires a current-epoch token
    fencing: Any = field(default=None, repr=False, compare=False)

    # -- schema -------------------------------------------------------------

    def register_table(self, meta: SoeTableMeta) -> None:
        with self._lock:
            if meta.name in self._tables:
                raise CoordinationError(f"SOE table {meta.name!r} already exists")
            self._tables[meta.name] = meta

    def table(self, name: str) -> SoeTableMeta:
        with self._lock:
            meta = self._tables.get(name)
        if meta is None:
            raise CoordinationError(f"unknown SOE table {name!r}")
        return meta

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def tables(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    # -- data discovery ----------------------------------------------------------

    def place_partition(self, table: str, partition_id: int, node_id: str) -> None:
        with self._lock:
            nodes = self._placement.setdefault((table, partition_id), [])
            if node_id not in nodes:
                nodes.append(node_id)

    def swap_placement(
        self,
        table: str,
        partition_id: int,
        from_node: str,
        to_node: str,
        fence: Any = None,
    ) -> None:
        """Atomically retarget one replica slot from ``from_node`` to
        ``to_node`` — a single lock region, so discovery never observes a
        window with zero owners (or with both) during a partition move.
        This is the ownership flip's commit point: the movement protocol
        treats a completed swap as committed and everything before it as
        rollback-able. On a leased partition the swap must present the
        new-epoch ``fence`` token (validated before the catalog lock, so
        the lease lock never nests inside it) — a stale mover cannot
        retarget the catalog."""
        if self.fencing is not None:
            self.fencing.check_partition(table, partition_id, fence)
        with self._lock:
            nodes = self._placement.get((table, partition_id))
            if not nodes or from_node not in nodes:
                raise CoordinationError(
                    f"{from_node} does not host {table}#{partition_id}"
                )
            if to_node in nodes:
                nodes.remove(from_node)
            else:
                nodes[nodes.index(from_node)] = to_node

    def nodes_of(self, table: str, partition_id: int) -> list[str]:
        with self._lock:
            nodes = self._placement.get((table, partition_id))
            if nodes:
                return list(nodes)
        raise CoordinationError(
            f"partition {table}#{partition_id} is not placed anywhere"
        )

    def placement_of(self, table: str) -> dict[int, list[str]]:
        """partition id → hosting nodes, for every *placed* partition."""
        self.table(table)
        with self._lock:
            return {
                partition_id: list(nodes)
                for (t, partition_id), nodes in sorted(self._placement.items())
                if t == table and nodes
            }

    def partitions_on(self, table: str, node_id: str) -> list[int]:
        """Partition ids of ``table`` hosted on ``node_id``."""
        with self._lock:
            return sorted(
                partition_id
                for (t, partition_id), nodes in self._placement.items()
                if t == table and node_id in nodes
            )
