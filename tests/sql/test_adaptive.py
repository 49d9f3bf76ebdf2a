"""Adaptive execution: mid-query re-optimization and feedback-aware plans.

End-to-end coverage of the loop described in docs/OPTIMIZER.md: a cold
plan whose estimate is off by more than 10x aborts mid-query with a
:class:`~repro.sql.feedback.ReplanSignal`, the database re-plans with the
just-recorded actuals and resumes (memoised scans are not re-read), and
the next execution of the same shape needs no re-optimization because the
feedback store now knows the real cardinalities.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.database import Database
from repro.errors import BudgetExceededError
from repro.qos import QueryBudget

#: a 2-conjunct equality predicate gets static selectivity 0.15 * 0.15,
#: so a table where every row matches blows the estimate by ~44x
BLOWOUT_SQL = "SELECT COUNT(*) FROM skewed WHERE a = 1 AND b = 2"


def skewed_db(rows: int = 100) -> Database:
    db = Database()
    db.execute("CREATE TABLE skewed (id INT, a INT, b INT)")
    db.execute(
        "INSERT INTO skewed VALUES " + ", ".join(f"({i}, 1, 2)" for i in range(rows))
    )
    return db


class TestMidQueryReoptimization:
    def test_cold_blowout_replans_once_and_answers_correctly(self):
        db = skewed_db()
        result = db.execute(BLOWOUT_SQL)
        assert result.scalar() == 100
        assert result.reoptimizations == 1

    def test_warm_execution_needs_no_replan(self):
        db = skewed_db()
        db.execute(BLOWOUT_SQL)  # records actual=100 for the scan signature
        warm = db.execute("SELECT COUNT(*) FROM skewed WHERE a = 9 AND b = 9")
        assert warm.scalar() == 0
        assert warm.reoptimizations == 0  # estimate now observed, not static

    def test_adaptive_planning_can_be_disabled(self):
        db = skewed_db()
        db.adaptive_planning = False
        result = db.execute(BLOWOUT_SQL)
        assert result.scalar() == 100
        assert result.reoptimizations == 0

    def test_replans_are_bounded_by_max_reoptimizations(self):
        db = skewed_db()
        db.max_reoptimizations = 0
        result = db.execute(BLOWOUT_SQL)
        assert result.scalar() == 100
        assert result.reoptimizations == 0

    def test_completed_scans_are_reused_across_the_replan(self):
        db = skewed_db()
        registry, _ = obs.enable()
        result = db.execute(BLOWOUT_SQL)
        assert result.reoptimizations == 1
        # the aborted attempt's scan is memoised on the context and the
        # re-planned attempt resumes from it instead of re-reading
        assert registry.counter("sql.executor.scans_reused").value >= 1

    def test_replan_counters_are_reported(self):
        db = skewed_db()
        registry, _ = obs.enable()
        db.execute(BLOWOUT_SQL)
        assert registry.counter("sql.reopt.triggered").value == 1
        assert registry.counter("sql.reopt.replans").value == 1


class TestFeedbackDrivenReordering:
    def _two_table_db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE big (k INT, v INT)")
        db.execute("CREATE TABLE small (k INT, tag VARCHAR)")
        db.execute(
            "INSERT INTO big VALUES "
            + ", ".join(f"({i % 20}, {i})" for i in range(400))
        )
        # every small row matches the predicate, but the *static* planner
        # only sees 40 rows x 0.15 selectivity; feedback learns 40
        db.execute(
            "INSERT INTO small VALUES " + ", ".join(f"({i % 20}, 'x')" for i in range(40))
        )
        return db

    def test_observed_cardinalities_flip_the_join_order(self):
        db = self._two_table_db()
        sql = (
            "SELECT COUNT(*) FROM big JOIN small ON big.k = small.k "
            "WHERE small.tag = 'x'"
        )
        registry, _ = obs.enable()
        cold = db.execute(sql)
        warm = db.execute(sql)  # planned again with observed cardinalities
        assert cold.scalar() == warm.scalar() == 800
        assert registry.counter("sql.planner.reorders").value >= 1

    def test_reordering_never_changes_answers(self):
        db = self._two_table_db()
        sql = (
            "SELECT big.v, small.tag FROM big JOIN small ON big.k = small.k "
            "WHERE small.tag = 'x' AND big.v < 100 ORDER BY big.v"
        )
        first = db.execute(sql).rows
        again = db.execute(sql).rows
        assert first == again and len(first) > 0


class TestScanMemoCorrectness:
    """The per-query scan memo must never conflate distinct scans.

    Its key includes the bound literal values and the column subset on
    top of the literal-stripped signature — a self-join's two sides share
    a predicate *shape* but not (necessarily) constants or columns, and
    serving one side's batch for the other is a wrong-results bug.
    """

    def _db(self) -> Database:
        db = Database()
        db.execute("CREATE TABLE t (id INT, x INT, y VARCHAR)")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, {i % 3}, 'v{i}')" for i in range(30))
        )
        return db

    def test_self_join_with_different_literals(self):
        # x is a function of id, so no row has both x = 1 and x = 2
        db = self._db()
        result = db.execute(
            "SELECT a.id, b.id FROM t a JOIN t b ON a.id = b.id "
            "WHERE a.x = 1 AND b.x = 2"
        )
        assert result.rows == []

    def test_self_join_with_equal_literals_still_shares(self):
        db = self._db()
        result = db.execute(
            "SELECT COUNT(*) FROM t a JOIN t b ON a.id = b.id "
            "WHERE a.x = 1 AND b.x = 1"
        )
        assert result.scalar() == 10  # ids 1, 4, ..., 28

    def test_self_join_with_different_column_subsets(self):
        # both scans share shape and constants but need different columns;
        # serving the (id, x) batch for the (id, x, y) side would lose y
        db = self._db()
        result = db.execute(
            "SELECT a.x, b.y FROM t a JOIN t b ON a.id = b.id "
            "WHERE a.x >= 0 AND b.x >= 0 ORDER BY a.id LIMIT 2"
        )
        assert result.rows == [[0, "v0"], [1, "v1"]]


class TestFeedbackHygiene:
    """Only true, complete row counts may enter the feedback store."""

    def _scan_samples(self, db: Database) -> dict[str, int]:
        data = db.feedback.as_dict()
        return {
            signature: count
            for signature, count in data["samples"].items()
            if signature.startswith("scan:skewed|")
        }

    def test_memoised_scan_does_not_double_record(self):
        db = skewed_db()
        result = db.execute(BLOWOUT_SQL)
        assert result.reoptimizations == 1
        # the re-planned attempt served the scan from the memo; recording
        # it again would double-weight the EWMA and could re-trigger the
        # very blow-out that caused the re-plan
        samples = self._scan_samples(db)
        assert samples and all(count == 1 for count in samples.values()), samples

    def test_truncated_scan_is_not_recorded(self):
        db = skewed_db()
        result = db.execute(BLOWOUT_SQL, budget=QueryBudget(soft_rows=5))
        assert result.degraded
        # the governor cut the scan short: 5 rows is a degraded answer,
        # not the table's cardinality — recording it would bias future
        # estimates low and churn plan-cache versions
        assert self._scan_samples(db) == {}


class TestGovernorInterplay:
    def test_degraded_governor_suppresses_replanning(self):
        db = skewed_db()
        result = db.execute(BLOWOUT_SQL, budget=QueryBudget(soft_rows=5))
        assert result.degraded
        # a truncated answer must not be thrown away for a better plan
        assert result.reoptimizations == 0

    def test_replanning_time_is_charged_against_the_budget(self):
        db = skewed_db()
        registry, _ = obs.enable()
        result = db.execute(BLOWOUT_SQL, budget=QueryBudget(hard_rows=10_000))
        assert result.reoptimizations == 1
        assert registry.counter("qos.planning_charges").value == 1

    def test_replan_charge_can_itself_exceed_a_hard_budget(self):
        db = skewed_db()
        with pytest.raises(BudgetExceededError):
            db.execute(BLOWOUT_SQL, budget=QueryBudget(hard_seconds=0.004))

    def test_within_budget_adaptive_query_still_degrades_softly(self):
        db = skewed_db()
        result = db.execute(
            BLOWOUT_SQL, budget=QueryBudget(soft_rows=5, hard_rows=10_000)
        )
        assert result.degraded and "rows" in result.degraded_reasons
