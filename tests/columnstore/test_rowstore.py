"""Tests for the row store."""

import pytest

from repro.columnstore.rowstore import RowTable
from repro.core import types
from repro.core.schema import schema
from repro.errors import WriteConflictError
from repro.transaction.manager import TransactionManager


@pytest.fixture
def setup():
    manager = TransactionManager()
    table = RowTable("r", schema(("id", types.INTEGER), ("v", types.DOUBLE)))
    return manager, table


def test_insert_scan_round_trip(setup):
    manager, table = setup
    txn = manager.begin()
    table.insert_many([[1, 1.5], [2, 2.5]], txn)
    manager.commit(txn)
    assert table.scan(manager.last_committed_cid) == [[1, 1.5], [2, 2.5]]


def test_select_predicate(setup):
    manager, table = setup
    txn = manager.begin()
    table.insert_many([[1, 1.0], [2, 5.0]], txn)
    manager.commit(txn)
    rows = table.select(lambda row: row[1] > 2, manager.last_committed_cid)
    assert rows == [[2, 5.0]]


def test_aggregate_sum_skips_nulls(setup):
    manager, table = setup
    txn = manager.begin()
    table.insert_many([[1, 1.0], [2, None], [3, 2.0]], txn)
    manager.commit(txn)
    assert table.aggregate_sum("v", manager.last_committed_cid) == 3.0


def test_delete_conflict(setup):
    manager, table = setup
    txn = manager.begin()
    table.insert([1, 1.0], txn)
    manager.commit(txn)
    first = manager.begin()
    table.delete_at(0, 0, first)
    second = manager.begin()
    with pytest.raises(WriteConflictError):
        table.delete_at(0, 0, second)


def test_mvcc_isolation(setup):
    manager, table = setup
    txn = manager.begin()
    table.insert([1, 1.0], txn)
    reader = manager.begin()
    manager.commit(txn)
    assert table.scan(reader.snapshot_cid, reader.tid) == []
