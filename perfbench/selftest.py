"""Self-test of the benchmark harness, at tiny data sizes.

    python3 perfbench/selftest.py

1. Every workload, untraced and traced, prints every metric that applies
   to it and ends with a passing JSON result line.
2. The p99 rule: reported with 10 samples beyond it, omitted with fewer.
   A layer call that raised (its span carries an ``error`` tag) is still
   counted as a call. An interval timed while the speed probe ran at half
   the reference speed counts half its wall time.
3. A deliberately corrupted answer in each workload is caught by its
   correctness check and fails the run.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
from repro.core.result import QueryResult  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.obs import Tracer  # noqa: E402

SCALE = 0.05
SEED = 3

COMMON = {
    "setup_s", "throughput_ops_s", "query_p50_ms", "error_rate", "peak_rss_mb",
    "wall_setup_s", "wall_throughput_ops_s", "machine_speed",
}
APPLIES = {
    "oltp_orders": COMMON | {"lookup_p50_ms", "write_p50_ms", "store_bytes_per_row"},
    "olap_adhoc": COMMON | {"store_bytes_per_row"},
    "soe_scaleout": COMMON | {"write_p50_ms", "soe_sim_network_ms", "soe_bytes_per_query"},
}
EXERCISED = {
    "oltp_orders": [
        "sql.parser", "sql.plancache", "sql.executor", "sql.expressions.evaluate",
        "sql.expressions.rows", "columnstore.table.column_array",
        "columnstore.table.visible_positions", "columnstore.table.write",
        "transaction.manager",
    ],
    "olap_adhoc": [
        "sql.parser", "sql.plancache", "sql.planner", "analysis.plancheck",
        "sql.executor", "sql.expressions.evaluate", "sql.expressions.rows",
        "columnstore.table.column_array", "columnstore.table.visible_positions",
        "qos.governor",
    ],
    "soe_scaleout": [
        "soe.coordinator", "soe.query_service", "soe.codegen", "soe.cluster.transfer",
        "soe.transaction_broker", "soe.shared_log", "soe.replication.catch_up",
    ],
}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run_cli(workload: str, trace: int) -> tuple[int, dict[str, str], dict[str, Any]]:
    out = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
            "--scale", str(SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, _value, unit, _clock = line.split()
            printed[name] = unit
    return out.returncode, printed, json.loads(lines[-1]) if lines else {}


def check_emission(spec: dict[str, Any]) -> None:
    for workload in APPLIES:
        code, printed, result = run_cli(workload, 0)
        expect(code == 0 and result.get("correct") is True, f"{workload} untraced passes")
        missing = APPLIES[workload] - set(printed)
        expect(not missing, f"{workload} prints every applicable metric {sorted(missing)}")
        gated = {m["name"] for m in spec["end_to_end"]}
        expect(set(result.get("metrics", {})) == gated, f"{workload} JSON has the gated metrics")

        code, printed, result = run_cli(workload, 1)
        expect(code == 0 and result.get("correct") is True, f"{workload} traced passes")
        metrics = result.get("metrics", {})
        layer_names = {m["name"] for m in spec["per_layer"]}
        expect(set(metrics) == layer_names, f"{workload} JSON has every per-layer metric")
        idle = [
            layer for layer in EXERCISED[workload]
            if metrics.get(f"{layer}.calls_per_op", {}).get("value", 0) <= 0
        ]
        expect(not idle, f"{workload} traced run reaches its layers {idle}")


def check_p99_rule() -> None:
    enough, _ = harness.latency_metrics({"lookup": [0.001] * 1000})
    short, _ = harness.latency_metrics({"lookup": [0.001] * 999})
    expect("lookup_p99_ms" in enough, "p99 reported with 10 samples beyond it")
    expect("lookup_p99_ms" not in short, "p99 omitted with fewer than 10 beyond it")


def check_raised_span() -> None:
    tracer = Tracer(capacity=10)
    try:
        with tracer.span("sql.executor"):
            raise LookupError("replan")
    except LookupError:
        pass
    metrics = layers.layer_metrics(tracer.spans(), 1)
    expect(metrics["sql.executor.calls_per_op"] == 1, "a layer call that raised is counted")


def check_rescaling() -> None:
    scaled = harness.Scaled()
    slow = 2.0 * harness.REFERENCE_PROBE_S
    scaled.add(1.0, slow, slow)
    scaled.add(1.0, harness.REFERENCE_PROBE_S, harness.REFERENCE_PROBE_S)
    expect(scaled.references == [0.5, 1.0], "intervals rescale by the probe's speed")
    expect(harness.probe_seconds() > 0, "the speed probe runs")


def corrupted_run(workload_name: str, corrupt: Callable[[Any], Callable[[], None]]) -> int:
    """Run a tiny untraced workload with one answer corrupted; failures."""
    workload = WORKLOADS[workload_name](SEED, SCALE)
    workload.setup()
    restore = corrupt(workload)
    try:
        warm = harness.run_ops(workload.warm_ops())
        loop = harness.closed_loop(workload, 1.0)
    finally:
        restore()
    return warm.failed + loop.failed


def perturb_lookup(_workload: Any) -> Callable[[], None]:
    original = Session.execute
    state = {"done": False}

    def execute(session: Session, sql: str, parameters: Any = None) -> QueryResult:
        result = original(session, sql, parameters)
        if not state["done"] and "WHERE order_id =" in sql and sql.startswith("SELECT"):
            state["done"] = True
            row = list(result.rows[0])
            row[4] += 0.01
            return QueryResult(result.columns, [row])
        return result

    Session.execute = execute
    return lambda: setattr(Session, "execute", original)


def perturb_adhoc(workload: Any) -> Callable[[], None]:
    original = workload.db.execute

    def execute(sql: str, **kwargs: Any) -> QueryResult:
        result = original(sql, **kwargs)
        return QueryResult(result.columns, result.rows + result.rows[:1] or [[None]])

    workload.db.execute = execute
    return lambda: delattr(workload.db, "execute")


def perturb_aggregate(workload: Any) -> Callable[[], None]:
    original = workload.soe.aggregate
    state = {"done": False}

    def aggregate(*args: Any, **kwargs: Any) -> Any:
        rows, cost = original(*args, **kwargs)
        if not state["done"] and rows:
            state["done"] = True
            rows = [[rows[0][0], rows[0][1] + 1, rows[0][2]]] + rows[1:]
        return rows, cost

    workload.soe.aggregate = aggregate
    return lambda: delattr(workload.soe, "aggregate")


def check_corruption() -> None:
    for name, corrupt in (
        ("oltp_orders", perturb_lookup),
        ("olap_adhoc", perturb_adhoc),
        ("soe_scaleout", perturb_aggregate),
    ):
        failed = corrupted_run(name, corrupt)
        expect(failed >= 1, f"{name}: corrupted answer caught ({failed} failed)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_p99_rule()
    check_raised_span()
    check_rescaling()
    check_corruption()
    check_emission(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
