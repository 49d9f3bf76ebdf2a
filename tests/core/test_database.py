"""Tests for the Database facade."""

import pytest

from repro.core import types
from repro.core.database import Database
from repro.core.schema import schema
from repro.errors import DuplicateObjectError, PlanError, TableNotFoundError


def test_programmatic_create_and_drop():
    db = Database()
    db.create_table("t", schema(("a", types.INTEGER)))
    assert db.catalog.has_table("t")
    db.drop_table("t")
    assert not db.catalog.has_table("t")


def test_create_if_not_exists_and_duplicate():
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    db.execute("CREATE TABLE IF NOT EXISTS t (a INT)")
    with pytest.raises(DuplicateObjectError):
        db.execute("CREATE TABLE t (a INT)")


def test_drop_if_exists():
    db = Database()
    db.execute("DROP TABLE IF EXISTS ghost")
    with pytest.raises(TableNotFoundError):
        db.execute("DROP TABLE ghost")


def test_flexible_table_via_sql():
    db = Database()
    db.execute("CREATE FLEXIBLE TABLE f (id INT)")
    db.execute("INSERT INTO f (id, color) VALUES (1, 'red')")
    db.execute("INSERT INTO f (id, shape) VALUES (2, 'round')")
    rows = db.query("SELECT id, color, shape FROM f ORDER BY id").rows
    assert rows == [[1, "red", None], [2, None, "round"]]


def test_merge_delta_statement_reports_stats():
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("MERGE DELTA OF t")
    assert result.rows[0][0] == 2  # rows merged
    assert db.table("t").delta_rows() == 0


def test_merge_all():
    db = Database()
    db.execute("CREATE TABLE a (x INT)")
    db.execute("CREATE TABLE b (x INT)")
    db.execute("INSERT INTO a VALUES (1)")
    db.execute("INSERT INTO b VALUES (1), (2)")
    stats = db.merge_all()
    assert stats.rows_merged == 3


def test_transaction_statements_rejected_at_database_level():
    db = Database()
    with pytest.raises(PlanError):
        db.execute("BEGIN")


def test_dml_autocommit_rolls_back_on_error():
    db = Database()
    db.execute("CREATE TABLE t (a INT NOT NULL)")
    with pytest.raises(Exception):
        db.execute("INSERT INTO t VALUES (1), (NULL)")
    assert db.query("SELECT COUNT(*) FROM t").scalar() == 0


def test_statistics_snapshot():
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1)")
    stats = db.statistics()
    assert stats["commits"] >= 1
    assert any(entry["table"] == "t" for entry in stats["tables"])


def test_range_partitioned_table_via_sql_prunes():
    db = Database()
    db.execute(
        "CREATE TABLE events (y INT, v DOUBLE) PARTITION BY RANGE(y) BOUNDARIES (2013, 2015)"
    )
    db.execute(
        "INSERT INTO events VALUES (2012, 1.0), (2013, 2.0), (2014, 3.0), (2015, 4.0)"
    )
    table = db.table("events")
    assert [len(p) for p in table.partitions] == [1, 2, 1]
    from repro.sql.executor import execute as run
    from repro.sql.parser import parse
    from repro.sql.planner import plan_select

    plan = plan_select(parse("SELECT SUM(v) FROM events WHERE y >= 2015"), db.catalog)
    context = db._context(None, None)
    batch = run(plan, context)
    assert batch.rows() == [[4.0]]
    assert context.metrics["partitions_pruned"] == 2

    # UPDATE and DELETE find their rows through the same pruning scan
    from repro import obs

    registry, _ = obs.enable()
    assert db.execute("UPDATE events SET v = 0 WHERE y >= 2015").rowcount == 1
    assert db.execute("DELETE FROM events WHERE y < 2013").rowcount == 1
    # y >= 2015 skips two partitions; y < 2013 skips the one from 2015 on
    assert registry.get("sql.executor.partitions_pruned", kind="range").value == 3
    assert db.query("SELECT y, v FROM events ORDER BY y").rows == [
        [2013, 2.0],
        [2014, 3.0],
        [2015, 0.0],
    ]


def test_session_default_parameters_flow_into_queries():
    from repro.core.session import Session

    db = Database()
    session = Session(db, parameters={"currency_rates": {("USD", "EUR"): 0.5}})
    assert session.query("SELECT CONVERT_CURRENCY(10, 'USD', 'EUR') AS v").scalar() == 5.0
    # per-call parameters override session defaults
    assert session.query(
        "SELECT CONVERT_CURRENCY(10, 'USD', 'EUR') AS v",
        currency_rates={("USD", "EUR"): 2.0},
    ).scalar() == 20.0


def test_database_level_default_parameters():
    db = Database()
    db.parameters["unit_factors"] = {("kg", "g"): 1000.0}
    assert db.query("SELECT CONVERT_UNIT(3, 'kg', 'g') AS v").scalar() == 3000.0


def test_error_hierarchy_is_catchable_at_the_root():
    from repro import errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
            if issubclass(obj, errors.ReproError):
                assert issubclass(obj, errors.ReproError)
    db = Database()
    import pytest as _pytest

    with _pytest.raises(errors.ReproError):
        db.query("SELECT * FROM nope")
    with _pytest.raises(errors.ReproError):
        db.execute("SELECT !!!")
