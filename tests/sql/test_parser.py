"""Tests for the SQL parser."""

import datetime as dt

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.parser import parse, parse_expression


def test_simple_select_shape():
    stmt = parse("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY bee DESC LIMIT 5 OFFSET 2")
    assert isinstance(stmt, ast.SelectStatement)
    assert [item.alias for item in stmt.items] == [None, "bee"]
    assert stmt.from_table.name == "t"
    assert stmt.limit == 5 and stmt.offset == 2
    assert stmt.order_by[0][1] is False


def test_star_and_qualified_star():
    stmt = parse("SELECT *, t.* FROM t")
    assert isinstance(stmt.items[0].expr, ast.Star)
    assert stmt.items[1].expr.table == "t"


def test_joins():
    stmt = parse(
        "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y CROSS JOIN d, e"
    )
    kinds = [j.kind for j in stmt.joins]
    assert kinds == ["inner", "left", "cross", "cross"]


def test_group_by_having():
    stmt = parse("SELECT x, COUNT(*) FROM t GROUP BY x HAVING COUNT(*) > 2")
    assert len(stmt.group_by) == 1
    assert stmt.having is not None


def test_subquery_in_from():
    stmt = parse("SELECT s.a FROM (SELECT a FROM t) s")
    assert stmt.from_table.subquery is not None
    assert stmt.from_table.alias == "s"


def test_expression_precedence():
    expr = parse_expression("1 + 2 * 3")
    assert str(expr) == "(1 + (2 * 3))"
    expr = parse_expression("NOT a = 1 AND b = 2 OR c = 3")
    assert str(expr) == "(((NOT (a = 1)) AND (b = 2)) OR (c = 3))"


def test_between_in_like_isnull():
    assert isinstance(parse_expression("a BETWEEN 1 AND 2"), ast.Between)
    in_list = parse_expression("a NOT IN (1, 2)")
    assert isinstance(in_list, ast.InList) and in_list.negated
    assert isinstance(parse_expression("a LIKE 'x%'"), ast.BinaryOp)
    null_check = parse_expression("a IS NOT NULL")
    assert isinstance(null_check, ast.IsNull) and null_check.negated


def test_case_expression():
    expr = parse_expression("CASE WHEN a > 1 THEN 'big' ELSE 'small' END")
    assert isinstance(expr, ast.CaseWhen)
    assert len(expr.branches) == 1


def test_date_and_timestamp_literals():
    assert parse_expression("DATE '2014-05-01'").value == dt.date(2014, 5, 1)
    assert parse_expression("TIMESTAMP '2014-05-01T10:00:00'").value == dt.datetime(2014, 5, 1, 10)


def test_function_calls_and_distinct():
    expr = parse_expression("COUNT(DISTINCT x)")
    assert expr.distinct
    star = parse_expression("COUNT(*)")
    assert isinstance(star.args[0], ast.Star)


def test_contains_predicate():
    expr = parse_expression("CONTAINS(body, 'fast database')")
    assert isinstance(expr, ast.FunctionCall)
    assert expr.name == "CONTAINS"


def test_insert_forms():
    stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    assert stmt.columns == ["a", "b"]
    assert len(stmt.rows) == 2
    sel = parse("INSERT INTO t SELECT a, b FROM s")
    assert sel.select is not None


def test_update_delete():
    stmt = parse("UPDATE t SET a = a + 1, b = 'x' WHERE a < 5")
    assert len(stmt.assignments) == 2
    stmt = parse("DELETE FROM t")
    assert stmt.where is None


def test_create_table_full():
    stmt = parse(
        "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20) NOT NULL, "
        "amount DECIMAL(10, 2) DEFAULT 0, PRIMARY KEY (id)) "
        "PARTITION BY HASH(id) PARTITIONS 4"
    )
    assert stmt.partition_kind == "hash"
    assert stmt.partition_count == 4
    assert stmt.columns[1].length == 20
    assert not stmt.columns[1].nullable
    assert stmt.columns[2].scale == 2


def test_create_range_partitioned():
    stmt = parse("CREATE TABLE t (y INT) PARTITION BY RANGE(y) BOUNDARIES (2013, 2015)")
    assert stmt.partition_kind == "range"
    assert stmt.partition_boundaries == [2013, 2015]


def test_create_variants():
    assert parse("CREATE ROW TABLE r (a INT)").store == "row"
    assert parse("CREATE FLEXIBLE TABLE f (a INT)").flexible
    assert parse("CREATE TABLE IF NOT EXISTS t (a INT)").if_not_exists


def test_drop_and_merge():
    assert parse("DROP TABLE IF EXISTS t").if_exists
    assert parse("MERGE DELTA OF t").table == "t"


def test_transaction_statements():
    assert parse("BEGIN").action == "begin"
    assert parse("COMMIT WORK").action == "commit"
    assert parse("ROLLBACK;").action == "rollback"


def test_negative_number_literal_folds():
    assert parse_expression("-5").value == -5


def test_errors():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT FROM")
    with pytest.raises(SqlSyntaxError):
        parse("SELECT 1 extra garbage ,")
    with pytest.raises(SqlSyntaxError):
        parse("SELECT (SELECT 1)")
    with pytest.raises(SqlSyntaxError):
        parse_expression("a NOT = 1")
    for malformed in ("SELECT 1e", "SELECT 2E+", "INSERT INTO t VALUES (2E, 'y')"):
        with pytest.raises(SqlSyntaxError):
            parse(malformed)
