"""A classical row store, kept for OLTP point access and as a baseline.

Figure 2 of the paper shows "Column / Row" under the in-memory store: HANA
keeps a row engine beside the column engine. In this reproduction the row
store mainly serves benchmark E2 (column vs. row analytics) and internal
bookkeeping tables; it shares the MVCC machinery with the column store.
Towards the SQL layer a row table looks like an unpartitioned column
table — one partition, itself — so SELECT, UPDATE and DELETE run through
the same scan (:func:`repro.sql.executor.scan_partitions`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.columnstore.partition import SinglePartition
from repro.core.schema import TableSchema
from repro.errors import WriteConflictError
from repro.transaction.manager import Transaction
from repro.transaction.mvcc import INF_CID, visible_mask
from repro.util.arrays import GrowableInt64


class RowTable:
    """Row-oriented MVCC table: a list of tuples plus stamp vectors."""

    def __init__(self, name: str, schema: TableSchema) -> None:
        self.name = name
        self.schema = schema
        self.rows: list[list[Any]] = []
        self.created = GrowableInt64()
        self.deleted = GrowableInt64()
        self.partitioning = SinglePartition()
        self.partitions = [self]

    def __len__(self) -> int:
        return len(self.rows)

    # -- writes ---------------------------------------------------------------

    def insert(self, row: Sequence[Any] | Mapping[str, Any], txn: Transaction) -> int:
        """Append one row; returns its position."""
        values = self.schema.coerce_row(row)
        self.rows.append(values)
        position = self.created.append(txn.stamp)
        self.deleted.append(INF_CID)
        txn.record_insert(self.created, position)
        return position

    def insert_many(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]], txn: Transaction) -> int:
        count = 0
        for row in rows:
            self.insert(row, txn)
            count += 1
        return count

    def delete_at(self, ordinal: int, position: int, txn: Transaction) -> None:
        """Delete a row version (same conflict rule as the column store).

        ``ordinal`` is the partition ordinal, always 0 here.
        """
        if self.deleted[position] != INF_CID:
            raise WriteConflictError(f"row {position} already deleted or locked")
        self.deleted[position] = txn.stamp
        txn.record_delete(self.deleted, position)

    def update_at(
        self, ordinal: int, position: int, changes: Mapping[str, Any], txn: Transaction
    ) -> tuple[int, int]:
        """Update = delete old version + append the changed row."""
        new_row = list(self.rows[position])
        for column_name, value in changes.items():
            new_row[self.schema.position(column_name)] = value
        self.delete_at(ordinal, position, txn)
        return ordinal, self.insert(new_row, txn)

    # -- reads ----------------------------------------------------------------

    def visible_positions(self, snapshot_cid: int, own_tid: int = 0) -> np.ndarray:
        mask = visible_mask(self.created.view(), self.deleted.view(), snapshot_cid, own_tid)
        return np.flatnonzero(mask)

    def values_at(self, name: str, positions: np.ndarray) -> list[Any]:
        """Exact Python values of a column at the given positions."""
        index = self.schema.position(name)
        return [self.rows[int(p)][index] for p in positions]

    def column_at(self, name: str, positions: np.ndarray) -> np.ndarray:
        """A column at the given positions, as an analysis array typed
        over those rows only."""
        from repro.sql.functions import narrow_to_array

        return narrow_to_array(self.values_at(name, positions))

    def scan(self, snapshot_cid: int, own_tid: int = 0) -> list[list[Any]]:
        """All visible rows — a full row-at-a-time scan."""
        return [self.rows[int(p)] for p in self.visible_positions(snapshot_cid, own_tid)]

    def select(
        self,
        predicate: Callable[[list[Any]], bool],
        snapshot_cid: int,
        own_tid: int = 0,
    ) -> list[list[Any]]:
        """Filtered scan, row at a time (the row-store access pattern)."""
        return [
            row
            for row in self.scan(snapshot_cid, own_tid)
            if predicate(row)
        ]

    def aggregate_sum(self, column: str, snapshot_cid: int, own_tid: int = 0) -> float:
        """Row-at-a-time SUM over one column (benchmark E2 baseline)."""
        position = self.schema.position(column)
        total = 0.0
        for row in self.scan(snapshot_cid, own_tid):
            value = row[position]
            if value is not None:
                total += value
        return total

    def memory_bytes(self) -> int:
        """Approximate footprint: every row materialised, uncompressed."""
        total = len(self.created) * 16
        for row in self.rows:
            for value in row:
                total += len(value) + 49 if isinstance(value, str) else 28
        return total
