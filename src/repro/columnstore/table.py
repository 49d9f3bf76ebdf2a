"""The in-memory column table: partitions of main+delta fragments with MVCC.

A :class:`ColumnTable` is the unit the SQL layer, the engines, and the SOE
all operate on. Each horizontal partition pairs

* per-column :class:`~repro.columnstore.column.MainColumn` /
  :class:`~repro.columnstore.column.DeltaColumn` fragments, and
* two MVCC stamp vectors (``created`` / ``deleted``) spanning main+delta.

Writes are append-only: an UPDATE is a delete of the old version plus an
insert of the new one; the delta merge (:mod:`repro.columnstore.merge`)
compacts committed state into a fresh main fragment.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.columnstore.column import DeltaColumn, MainColumn
from repro.columnstore.partition import PartitionSpec, SinglePartition
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.types import DataType
from repro.errors import (
    ColumnNotFoundError,
    SchemaError,
    WriteConflictError,
)
from repro.transaction.manager import Transaction
from repro.transaction.mvcc import INF_CID, visible_mask
from repro.util.arrays import GrowableInt64

#: Events delivered to table change listeners.
EVENT_INSERT = "insert"
EVENT_DELETE = "delete"

ChangeListener = Callable[[str, "TablePartition", list[int], list[list[Any]]], None]


class TablePartition:
    """One horizontal partition: fragments + MVCC stamps."""

    def __init__(
        self,
        schema: TableSchema,
        name: str,
        sorted_dictionaries: bool = True,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.schema = schema
        self.name = name
        self.sorted_dictionaries = sorted_dictionaries
        self.metadata: dict[str, Any] = metadata or {}
        #: storage tier: "hot" (in-memory) or "extended" (file-backed)
        self.tier = "hot"
        from repro.columnstore.dictionary import AppendDictionary

        self.main: dict[str, MainColumn] = {
            spec.name.lower(): MainColumn(
                spec.dtype,
                dictionary=None if sorted_dictionaries else AppendDictionary(),
            )
            for spec in schema.columns
        }
        self.delta: dict[str, DeltaColumn] = {
            spec.name.lower(): DeltaColumn(spec.dtype) for spec in schema.columns
        }
        self.created = GrowableInt64()
        self.deleted = GrowableInt64()
        #: simulated page reads charged when the partition is not hot
        self.cold_reads = 0
        #: extended-storage backing file when evicted (see repro.aging.tiering)
        self.storage_path: str | None = None
        self.is_loaded = True

    # -- sizes ---------------------------------------------------------------

    @property
    def n_main(self) -> int:
        first = next(iter(self.main.values()), None)
        return len(first) if first is not None else 0

    @property
    def n_delta(self) -> int:
        first = next(iter(self.delta.values()), None)
        return len(first) if first is not None else 0

    def __len__(self) -> int:
        return self.n_main + self.n_delta

    # -- schema evolution (flexible tables) -----------------------------------

    def add_column(self, spec: ColumnSpec) -> None:
        """Add a column backfilled with NULLs (flexible tables, §II.H)."""
        key = spec.name.lower()
        if key in self.main:
            return
        null_main = MainColumn.build(
            spec.dtype, [None] * self.n_main, sorted_dictionary=self.sorted_dictionaries
        )
        self.main[key] = null_main
        delta = DeltaColumn(spec.dtype)
        delta.extend([None] * self.n_delta)
        self.delta[key] = delta

    # -- writes ---------------------------------------------------------------

    def insert_row(self, values: Sequence[Any], txn: Transaction) -> int:
        """Append one coerced row to the delta; returns its position."""
        self._touch()
        for spec in self.schema.columns:
            self.delta[spec.name.lower()].append(values[self.schema.position(spec.name)])
        position = self.created.append(txn.stamp)
        self.deleted.append(INF_CID)
        txn.record_insert(self.created, position)
        return position

    def bulk_load(self, rows: Iterable[Sequence[Any]], cid: int) -> int:
        """Load already-committed rows (recovery, merge, data movement)."""
        count = 0
        deltas = [self.delta[spec.name.lower()] for spec in self.schema.columns]
        for row in rows:
            for column, value in zip(deltas, row):
                column.append(value)
            self.created.append(cid)
            self.deleted.append(INF_CID)
            count += 1
        return count

    def mark_deleted(self, position: int, txn: Transaction) -> None:
        """Delete a row version (first-writer-wins conflict detection)."""
        self._touch()
        current = self.deleted[position]
        if current != INF_CID:
            raise WriteConflictError(
                f"row {position} of partition {self.name!r} is already "
                f"deleted or locked by another transaction"
            )
        self.deleted[position] = txn.stamp
        txn.record_delete(self.deleted, position)

    # -- reads ----------------------------------------------------------------

    def visible_positions(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        """Positions visible under the given snapshot."""
        self._touch()
        mask = visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)
        return np.flatnonzero(mask)

    def column_array(self, name: str) -> np.ndarray:
        """Decode a column (main + delta) to an analysis array."""
        self._touch()
        key = name.lower()
        if key not in self.main:
            raise ColumnNotFoundError(self.name, name)
        main = self.main[key].array()
        delta = self.delta[key].array()
        if len(delta) == 0:
            return main
        if len(main) == 0:
            return delta
        if main.dtype != delta.dtype:
            main = main.astype(object) if main.dtype == object or delta.dtype == object else main.astype(np.float64)
            delta = delta.astype(main.dtype)
        return np.concatenate([main, delta])

    def column_at(self, name: str, positions: np.ndarray) -> np.ndarray:
        """A column at the given positions, as an analysis array."""
        return self.column_array(name)[positions]

    def values_at(self, name: str, positions: np.ndarray) -> list[Any]:
        """Exact Python values of a column at the given positions."""
        self._touch()
        key = name.lower()
        if key not in self.main:
            raise ColumnNotFoundError(self.name, name)
        positions = np.asarray(positions, dtype=np.int64)
        n_main = self.n_main
        out: list[Any] = [None] * len(positions)
        in_main = positions < n_main
        main_positions = positions[in_main]
        if len(main_positions):
            decoded = self.main[key].values_at(main_positions)
            for slot, value in zip(np.flatnonzero(in_main), decoded):
                out[slot] = value
        delta_positions = positions[~in_main] - n_main
        if len(delta_positions):
            decoded = self.delta[key].values_at(delta_positions)
            for slot, value in zip(np.flatnonzero(~in_main), decoded):
                out[slot] = value
        return out

    def rows_at(self, positions: np.ndarray, columns: Sequence[str] | None = None) -> list[list[Any]]:
        """Materialise full rows (exact values) at the given positions."""
        names = list(columns) if columns is not None else self.schema.column_names
        per_column = [self.values_at(name, positions) for name in names]
        return [list(row) for row in zip(*per_column)] if per_column and len(positions) else []

    # -- stats / tiering --------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate in-memory footprint of all fragments."""
        total = sum(column.memory_bytes() for column in self.main.values())
        total += sum(column.memory_bytes() for column in self.delta.values())
        total += len(self.created) * 16
        return total

    def _touch(self) -> None:
        if self.tier != "hot":
            self.cold_reads += 1
            if not self.is_loaded:
                from repro.aging.tiering import reload_partition

                reload_partition(self)


class ColumnTable:
    """A named, partitioned, MVCC-versioned column-store table."""

    def __init__(
        self,
        name: str,
        schema: TableSchema,
        partitioning: PartitionSpec | None = None,
        flexible: bool = False,
        sorted_dictionaries: bool = True,
    ) -> None:
        self.name = name
        self.schema = schema
        self.partitioning = partitioning or SinglePartition()
        self.flexible = flexible
        self.sorted_dictionaries = sorted_dictionaries
        self.partitions: list[TablePartition] = [
            TablePartition(schema, part_name, sorted_dictionaries)
            for part_name in self.partitioning.partition_names()
        ]
        self._listeners: list[ChangeListener] = []
        #: merge statistics, filled by repro.columnstore.merge
        self.merge_stats: dict[str, Any] = {}

    # -- pickling (physical savepoints, SOFORT-style recovery) ---------------

    def __getstate__(self) -> dict[str, Any]:
        """Listeners are runtime wiring (text indexes etc.), not data."""
        state = dict(self.__dict__)
        state["_listeners"] = []
        return state

    # -- listeners ---------------------------------------------------------------

    def on_change(self, listener: ChangeListener) -> None:
        """Register a committed-change listener (e.g. the text indexer)."""
        self._listeners.append(listener)

    def _notify(
        self, event: str, partition: TablePartition, positions: list[int], rows: list[list[Any]]
    ) -> None:
        for listener in self._listeners:
            listener(event, partition, positions, rows)

    # -- schema (flexible tables) ---------------------------------------------------

    def ensure_columns(self, row: Mapping[str, Any], default_dtype: DataType) -> None:
        """Create columns referenced by ``row`` that do not exist yet.

        This is the flexible-table behaviour of Section II.H: "metadata
        about unknown columns are automatically created as soon as records
        with values for new columns are inserted".
        """
        if not self.flexible:
            unknown = [key for key in row if not self.schema.has_column(key)]
            if unknown:
                raise SchemaError(
                    f"table {self.name!r} is not flexible; unknown columns {unknown}"
                )
            return
        for key in row:
            if not self.schema.has_column(key):
                spec = ColumnSpec(key, default_dtype)
                self.schema.add_column(spec)
                for partition in self.partitions:
                    partition.add_column(spec)

    # -- writes -------------------------------------------------------------------

    def insert(self, row: Sequence[Any] | Mapping[str, Any], txn: Transaction) -> tuple[int, int]:
        """Insert one row; returns ``(partition ordinal, position)``."""
        values = self.schema.coerce_row(row)
        ordinal = self.partitioning.route(values, self.schema)
        partition = self.partitions[ordinal]
        position = partition.insert_row(values, txn)
        txn.log_redo({"op": "insert", "table": self.name, "row": values})
        txn.on_commit(
            lambda _cid, p=partition, pos=position, vals=values: self._notify(
                EVENT_INSERT, p, [pos], [vals]
            )
        )
        return ordinal, position

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]], txn: Transaction) -> int:
        """Insert many rows; returns the count."""
        count = 0
        for row in rows:
            self.insert(row, txn)
            count += 1
        return count

    def delete_at(self, ordinal: int, position: int, txn: Transaction) -> None:
        """Delete the row version at (partition, position)."""
        partition = self.partitions[ordinal]
        row = partition.rows_at(np.asarray([position]))
        partition.mark_deleted(position, txn)
        txn.log_redo({"op": "delete", "table": self.name, "row": row[0]})
        txn.on_commit(
            lambda _cid, p=partition, pos=position, vals=row: self._notify(
                EVENT_DELETE, p, [pos], vals
            )
        )

    def update_at(
        self,
        ordinal: int,
        position: int,
        changes: Mapping[str, Any],
        txn: Transaction,
    ) -> tuple[int, int]:
        """Update = delete old version + insert the changed row."""
        partition = self.partitions[ordinal]
        old_row = partition.rows_at(np.asarray([position]))[0]
        new_row = list(old_row)
        for column_name, value in changes.items():
            new_row[self.schema.position(column_name)] = value
        self.delete_at(ordinal, position, txn)
        return self.insert(new_row, txn)

    # -- reads --------------------------------------------------------------------

    def row_count(self, snapshot_cid: int, own_tid: int = 0) -> int:
        """Visible row count under a snapshot."""
        return sum(
            len(partition.visible_positions(snapshot_cid, own_tid))
            for partition in self.partitions
        )

    def scan_rows(
        self,
        snapshot_cid: int,
        own_tid: int = 0,
        columns: Sequence[str] | None = None,
        partitions: Sequence[int] | None = None,
    ) -> list[list[Any]]:
        """Materialise all visible rows (exact values)."""
        ordinals = list(partitions) if partitions is not None else range(len(self.partitions))
        rows: list[list[Any]] = []
        for ordinal in ordinals:
            partition = self.partitions[ordinal]
            positions = partition.visible_positions(snapshot_cid, own_tid)
            rows.extend(partition.rows_at(positions, columns))
        return rows

    def find_rows(
        self,
        predicate: Callable[[list[Any]], bool],
        snapshot_cid: int,
        own_tid: int = 0,
    ) -> list[tuple[int, int, list[Any]]]:
        """(ordinal, position, row) of visible rows matching ``predicate``.

        A convenience row-at-a-time path for point operations; set scans go
        through the SQL executor's vectorised path instead.
        """
        matches = []
        for ordinal, partition in enumerate(self.partitions):
            positions = partition.visible_positions(snapshot_cid, own_tid)
            rows = partition.rows_at(positions)
            for position, row in zip(positions, rows):
                if predicate(row):
                    matches.append((ordinal, int(position), row))
        return matches

    # -- stats ---------------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate total footprint."""
        return sum(partition.memory_bytes() for partition in self.partitions)

    def delta_rows(self) -> int:
        """Rows currently sitting in delta fragments (merge pressure)."""
        return sum(partition.n_delta for partition in self.partitions)

    def statistics(self) -> dict[str, Any]:
        """Monitoring snapshot used by the admin/monitoring surface."""
        return {
            "table": self.name,
            "partitions": len(self.partitions),
            "main_rows": sum(p.n_main for p in self.partitions),
            "delta_rows": self.delta_rows(),
            "memory_bytes": self.memory_bytes(),
            "flexible": self.flexible,
            "columns": len(self.schema.columns),
        }
