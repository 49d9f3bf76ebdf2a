"""Resource governor: soft degradation, hard cutoffs, engine integration."""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.errors import BudgetExceededError, QosError
from repro.qos import QueryBudget, ResourceGovernor
from repro.util.retry import SimulatedClock


def make_db(rows: int = 50) -> Database:
    db = Database()
    db.execute("CREATE TABLE t (id INT, grp VARCHAR, val INT)")
    db.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'g{i % 5}', {i * 10})" for i in range(rows))
    )
    return db


def run(db: Database, sql: str, budget: QueryBudget | None):
    """Run ``sql`` under ``budget``; returns (rows, degraded, reasons)."""
    result = db.execute(sql, budget=budget)
    return result.rows, result.degraded, result.degraded_reasons


# -- budget validation ---------------------------------------------------------


def test_budget_rejects_hard_below_soft():
    with pytest.raises(QosError):
        QueryBudget(soft_rows=10, hard_rows=5)
    with pytest.raises(QosError):
        QueryBudget(soft_bytes=100, hard_bytes=50)
    with pytest.raises(QosError):
        QueryBudget(soft_seconds=1.0, hard_seconds=0.5)
    with pytest.raises(QosError):
        QueryBudget(soft_rows=-1)
    with pytest.raises(QosError):
        QueryBudget(seconds_per_row=-0.1)


def test_unbudgeted_governor_never_stops():
    gov = ResourceGovernor()
    gov.charge(rows=10_000, bytes_=10**9)
    assert not gov.should_stop
    assert gov.remaining_rows() is None


# -- soft limits (degradation) -------------------------------------------------


def test_soft_rows_latches_degraded():
    gov = ResourceGovernor(QueryBudget(soft_rows=5))
    for _ in range(4):
        gov.charge(rows=1)
    assert not gov.should_stop
    gov.charge(rows=1)
    assert gov.should_stop
    assert gov.degraded_reasons == ["rows"]
    # latched: further charges don't raise, reason recorded once
    gov.charge(rows=1)
    assert gov.degraded_reasons == ["rows"]


def test_soft_bytes_and_seconds_record_their_reasons():
    clock = SimulatedClock()
    gov = ResourceGovernor(
        QueryBudget(soft_bytes=16, soft_seconds=1.0, seconds_per_row=0.6),
        clock=clock,
    )
    gov.charge(rows=1, bytes_=20)  # bytes latch; 0.6s elapsed
    assert gov.degraded_reasons == ["bytes"]
    gov.charge(rows=1)  # 1.2s elapsed — seconds latch too
    assert gov.degraded_reasons == ["bytes", "seconds"]


def test_remaining_rows_tracks_soft_budget():
    gov = ResourceGovernor(QueryBudget(soft_rows=10))
    assert gov.remaining_rows() == 10
    gov.charge(rows=7)
    assert gov.remaining_rows() == 3
    gov.charge(rows=7)
    assert gov.remaining_rows() == 0


def test_seconds_per_row_advances_shared_clock():
    clock = SimulatedClock()
    gov = ResourceGovernor(QueryBudget(seconds_per_row=0.25), clock=clock)
    gov.charge(rows=8)
    assert clock.now == pytest.approx(2.0)
    assert gov.elapsed_seconds == pytest.approx(2.0)


# -- hard limits ---------------------------------------------------------------


def test_hard_rows_raises():
    gov = ResourceGovernor(QueryBudget(hard_rows=3))
    gov.charge(rows=3)
    with pytest.raises(BudgetExceededError):
        gov.charge(rows=1)


def test_hard_seconds_raises_on_simulated_time():
    gov = ResourceGovernor(
        QueryBudget(hard_seconds=1.0, seconds_per_row=0.3)
    )
    gov.charge(rows=3)  # 0.9s — fine
    with pytest.raises(BudgetExceededError, match="seconds"):
        gov.charge(rows=1)


def test_soft_then_hard_in_one_budget():
    gov = ResourceGovernor(QueryBudget(soft_rows=2, hard_rows=4))
    gov.charge(rows=2)
    assert gov.should_stop
    gov.charge(rows=2)  # at the hard limit, not over
    with pytest.raises(BudgetExceededError):
        gov.charge(rows=1)


# -- engine integration --------------------------------------------------------
# Budgets are enforced by the vectorised engine behind Database.execute;
# the volcano engine is an E6 reference without them. The single-valued
# ``engine`` parameter keeps the test ids stable.


@pytest.mark.parametrize("engine", ["vectorized"])
def test_soft_budget_returns_degraded_prefix(engine):
    db = make_db()
    rows, degraded, reasons = run(
        db, "SELECT id FROM t", QueryBudget(soft_rows=10)
    )
    assert degraded
    assert "rows" in reasons
    assert 1 <= len(rows) <= 10
    # the truncated answer is a prefix of the full answer
    full, full_degraded, _ = run(db, "SELECT id FROM t", None)
    assert not full_degraded
    assert [list(r) for r in rows] == [list(r) for r in full[: len(rows)]]


@pytest.mark.parametrize("engine", ["vectorized"])
def test_hard_budget_raises_through_execute(engine):
    db = make_db()
    with pytest.raises(BudgetExceededError):
        run(db, "SELECT id FROM t", QueryBudget(hard_rows=5))


@pytest.mark.parametrize("engine", ["vectorized"])
def test_generous_budget_leaves_result_untouched(engine):
    db = make_db()
    budgeted, degraded, _ = run(
        db, "SELECT id, val FROM t", QueryBudget(soft_rows=10_000)
    )
    plain, _, _ = run(db, "SELECT id, val FROM t", None)
    assert not degraded
    assert [list(r) for r in budgeted] == [list(r) for r in plain]


def test_degraded_flag_survives_aggregation_pipeline():
    db = make_db()
    result = db.execute(
        "SELECT grp, COUNT(*) FROM t GROUP BY grp",
        budget=QueryBudget(soft_rows=2),
    )
    assert result.degraded
    assert len(result.rows) <= 2


def test_repr_marks_degraded_results():
    db = make_db()
    result = db.execute("SELECT id FROM t", budget=QueryBudget(soft_rows=3))
    assert "degraded=True" in repr(result)
