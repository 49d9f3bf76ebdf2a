"""Overload protection & graceful degradation (``repro.qos``).

The paper's Figure 1 claims *density*: one system serving OLTP, OLAP,
streaming, and background work for "millions of users". Density without
protection is fragility — an OLAP burst starves OLTP, an unbounded ESP
source grows queues forever, a flapping node is retried at full cost.
This package is the protection layer, four components deep:

* :class:`~repro.qos.admission.AdmissionController` — per-class weighted
  queues, bounded depth, deterministic load shedding
  (:class:`~repro.errors.AdmissionRejectedError`, retryable), smooth
  weighted round-robin scheduling, v2stats hotspot placement penalty;
* :class:`~repro.qos.governor.ResourceGovernor` — per-query budgets
  (rows / bytes / simulated seconds) checked at the vectorised
  executor's scan boundary; soft limit → ``degraded`` partial result, hard limit →
  :class:`~repro.errors.BudgetExceededError`;
* :class:`~repro.qos.breaker.CircuitBreaker` — failure-rate tripping
  with cool-down on the simulated clock, wrapped around the federation
  scan, cluster transfer, and shared-log append seams; open breakers
  fail fast with the non-retryable
  :class:`~repro.errors.CircuitOpenError`;
* :class:`~repro.qos.backpressure.BoundedBuffer` — bounded
  inter-operator stream buffers with drop-oldest / drop-newest / block
  policies and watermark metrics.

Everything runs on :class:`~repro.util.retry.SimulatedClock` and is
threaded through :mod:`repro.obs` (``qos.*`` counters/gauges), so
overload behaviour composes with :mod:`repro.chaos` fault schedules
bit-for-bit deterministically.
"""

from repro.qos.admission import (
    DEFAULT_WEIGHTS,
    QUERY_CLASSES,
    AdmissionConfig,
    AdmissionController,
    Ticket,
)
from repro.qos.backpressure import POLICIES, BoundedBuffer
from repro.qos.breaker import (
    STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
    Transition,
)
from repro.qos.governor import QueryBudget, ResourceGovernor

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "BoundedBuffer",
    "BreakerConfig",
    "CircuitBreaker",
    "DEFAULT_WEIGHTS",
    "POLICIES",
    "QUERY_CLASSES",
    "QueryBudget",
    "ResourceGovernor",
    "STATE_CODES",
    "Ticket",
    "Transition",
]
