"""Resource governor: per-query budgets with graceful degradation.

Admission control bounds *how many* queries run; the governor bounds
*how much* each one may consume once running — the Data Volume
Management motivation of keeping the working set governed so the system
degrades predictably instead of falling over. Each query carries a
:class:`QueryBudget` of rows produced, estimated bytes, and operator
seconds (on the shared :class:`~repro.util.retry.SimulatedClock`), with
two thresholds per dimension:

* crossing a **soft limit** latches the governor ``degraded``: the
  executors stop producing further rows and the partial answer is
  returned with ``QueryResult.degraded`` set — the same surfacing
  contract as the coordinator's staleness-bounded failover reads
  (``PlanCost.degraded``);
* crossing a **hard limit** raises
  :class:`~repro.errors.BudgetExceededError` — terminal, not retryable,
  because re-running the query spends the same budget again.

Checks happen at the vectorized scan boundary (``sql/executor.py``),
the one engine behind ``Database.execute``; the volcano and compiled
engines are benchmark references and take no budget. Charged
amounts and limits are plain integers/floats on simulated time:
identical query + identical budget → identical degradation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import BudgetExceededError, QosError
from repro.util.retry import SimulatedClock


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource caps. ``None`` disables a dimension.

    ``seconds_per_row`` is the simulated operator cost charged per row
    at each yield point, so time budgets bite deterministically without
    a wall clock.
    """

    soft_rows: int | None = None
    hard_rows: int | None = None
    soft_bytes: int | None = None
    hard_bytes: int | None = None
    soft_seconds: float | None = None
    hard_seconds: float | None = None
    seconds_per_row: float = 0.0

    def __post_init__(self) -> None:
        for soft, hard, label in (
            (self.soft_rows, self.hard_rows, "rows"),
            (self.soft_bytes, self.hard_bytes, "bytes"),
            (self.soft_seconds, self.hard_seconds, "seconds"),
        ):
            if soft is not None and soft < 0:
                raise QosError(f"soft_{label} must be >= 0")
            if hard is not None and hard < 0:
                raise QosError(f"hard_{label} must be >= 0")
            if soft is not None and hard is not None and hard < soft:
                raise QosError(f"hard_{label} must be >= soft_{label}")
        if self.seconds_per_row < 0:
            raise QosError("seconds_per_row must be >= 0")


class ResourceGovernor:
    """Charges consumption against a :class:`QueryBudget`.

    One governor per query execution. ``charge()`` is called from the
    executor's scan boundary; once a soft limit latches, ``should_stop``
    tells the engine to stop producing and the reason is kept for the
    result's ``degraded_reasons``. Hard limits raise immediately.
    """

    def __init__(
        self,
        budget: QueryBudget | None = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        self.budget = budget or QueryBudget()
        self.clock = clock or SimulatedClock()
        self.rows = 0
        self.bytes = 0
        self.started_at = self.clock.now
        self.degraded = False
        self.degraded_reasons: list[str] = []

    # -- charging -----------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        return self.clock.now - self.started_at

    @property
    def should_stop(self) -> bool:
        """True once any soft limit has latched: produce no more rows."""
        return self.degraded

    def _degrade(self, reason: str) -> None:
        if reason not in self.degraded_reasons:
            self.degraded_reasons.append(reason)
        if not self.degraded:
            self.degraded = True
            obs.count("qos.degraded", reason=reason)

    def _exceed(self, reason: str) -> None:
        obs.count("qos.budget_exceeded", reason=reason)
        raise BudgetExceededError(
            f"query exceeded hard budget ({reason}): "
            f"rows={self.rows} bytes={self.bytes} "
            f"seconds={self.elapsed_seconds:.6f}"
        )

    def charge(self, rows: int = 0, bytes_: int = 0) -> None:
        """Account ``rows`` produced / ``bytes_`` materialised and check
        every dimension — hard limits raise, soft limits latch."""
        self.rows += rows
        self.bytes += bytes_
        if rows and self.budget.seconds_per_row:
            self.clock.advance(rows * self.budget.seconds_per_row)
        b = self.budget
        if b.hard_rows is not None and self.rows > b.hard_rows:
            self._exceed("rows")
        if b.hard_bytes is not None and self.bytes > b.hard_bytes:
            self._exceed("bytes")
        if b.hard_seconds is not None and self.elapsed_seconds > b.hard_seconds:
            self._exceed("seconds")
        if b.soft_rows is not None and self.rows >= b.soft_rows:
            self._degrade("rows")
        if b.soft_bytes is not None and self.bytes >= b.soft_bytes:
            self._degrade("bytes")
        if b.soft_seconds is not None and self.elapsed_seconds >= b.soft_seconds:
            self._degrade("seconds")

    def charge_planning(self, seconds: float) -> None:
        """Charge (simulated) optimizer time against the same budget.

        Mid-query re-optimization is not free: the database charges each
        re-planning pass here before building the new plan, so a query
        near its time budget degrades or raises instead of burning the
        remaining budget on planning work (``docs/OPTIMIZER.md``).
        """
        if seconds:
            self.clock.advance(seconds)
        obs.count("qos.planning_charges")
        self.charge(0, 0)

    def remaining_rows(self) -> int | None:
        """Rows producible before the *soft* row limit latches, or
        ``None`` when unbounded — lets vectorized scans truncate a batch
        instead of overshooting."""
        if self.budget.soft_rows is None:
            return None
        return max(0, self.budget.soft_rows - self.rows)

    def snapshot(self) -> dict[str, Any]:
        return {
            "rows": self.rows,
            "bytes": self.bytes,
            "elapsed_seconds": self.elapsed_seconds,
            "degraded": self.degraded,
            "degraded_reasons": list(self.degraded_reasons),
        }
