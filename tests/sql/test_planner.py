"""Tests for the logical planner and its rewrites."""

import pytest

from repro.core.database import Database
from repro.errors import PlanError
from repro.sql.parser import parse
from repro.sql.planner import (
    AggregateNode,
    FilterNode,
    JoinNode,
    ProjectNode,
    ScanNode,
    explain,
    plan_select,
)


@pytest.fixture
def catalog():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b INT, c VARCHAR)")
    database.execute("CREATE TABLE s (a INT, d VARCHAR)")
    return database.catalog


def plan_of(sql, catalog):
    return plan_select(parse(sql), catalog)


def find(node, node_type):
    found = []

    def visit(current):
        if isinstance(current, node_type):
            found.append(current)
        for child in current.children():
            visit(child)

    visit(node)
    return found


def test_single_table_predicate_pushed_into_scan(catalog):
    plan = plan_of("SELECT a FROM t WHERE b > 1 AND c = 'x'", catalog)
    scans = find(plan.root, ScanNode)
    assert len(scans) == 1
    assert scans[0].predicate is not None
    assert not find(plan.root, FilterNode)


def test_join_predicates_split_per_side(catalog):
    plan = plan_of(
        "SELECT t.a FROM t JOIN s ON t.a = s.a WHERE t.b > 1 AND s.d = 'x'",
        catalog,
    )
    scans = {scan.alias: scan for scan in find(plan.root, ScanNode)}
    assert scans["t"].predicate is not None
    assert scans["s"].predicate is not None
    joins = find(plan.root, JoinNode)
    assert len(joins) == 1
    assert len(joins[0].equi) == 1


def test_implicit_join_upgraded_from_cross(catalog):
    plan = plan_of("SELECT t.a FROM t, s WHERE t.a = s.a", catalog)
    joins = find(plan.root, JoinNode)
    assert joins[0].kind == "inner"
    assert len(joins[0].equi) == 1


def test_aggregate_extraction_and_having(catalog):
    plan = plan_of(
        "SELECT c, SUM(a) AS s FROM t GROUP BY c HAVING SUM(a) > 10 ORDER BY s",
        catalog,
    )
    aggregates = find(plan.root, AggregateNode)
    assert len(aggregates) == 1
    assert len(aggregates[0].aggregates) == 1  # SUM(a) shared by item/having
    filters = find(plan.root, FilterNode)
    assert len(filters) == 1  # the HAVING


def test_expression_over_aggregate(catalog):
    plan = plan_of("SELECT SUM(a) / COUNT(*) AS avg_a FROM t", catalog)
    aggregate = find(plan.root, AggregateNode)[0]
    assert len(aggregate.aggregates) == 2
    assert plan.output_names == ["avg_a"]


def test_order_by_ordinal_and_hidden_key(catalog):
    plan = plan_of("SELECT a, b FROM t ORDER BY 2", catalog)
    project = find(plan.root, ProjectNode)[0]
    assert project.hidden == []

    plan = plan_of("SELECT a FROM t ORDER BY c", catalog)
    project = find(plan.root, ProjectNode)[0]
    assert len(project.hidden) == 1
    assert plan.output_names == ["a"]


def test_duplicate_output_names_are_disambiguated(catalog):
    plan = plan_of("SELECT a, a FROM t", catalog)
    assert plan.output_names == ["a", "a_2"]


def test_star_expansion_order(catalog):
    plan = plan_of("SELECT * FROM t JOIN s ON t.a = s.a", catalog)
    assert plan.output_names == ["a", "b", "c", "a_2", "d"]


def test_having_without_group_rejected(catalog):
    with pytest.raises(PlanError):
        plan_of("SELECT a FROM t HAVING a > 1", catalog)


def test_order_by_ordinal_out_of_range(catalog):
    with pytest.raises(PlanError):
        plan_of("SELECT a FROM t ORDER BY 5", catalog)


def test_ambiguous_column_rejected(catalog):
    with pytest.raises(PlanError):
        plan_of("SELECT 1 FROM t JOIN s ON t.a = s.a WHERE a > 1", catalog)


def test_explain_renders_tree(catalog):
    plan = plan_of("SELECT c, SUM(a) FROM t WHERE b > 0 GROUP BY c", catalog)
    rendered = explain(plan)
    assert "Scan t" in rendered
    assert "Aggregate" in rendered
    assert "Project" in rendered


def test_explain_labels_match_profiler(catalog):
    union = explain(plan_of("SELECT a FROM t UNION ALL SELECT a FROM s", catalog))
    assert "Union[all]" in union
    assert "Scan <virtual row>" in explain(plan_of("SELECT 1 AS x", catalog))
