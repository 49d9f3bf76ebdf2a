"""Closed-loop runner, metrics and run metadata.

One client, one process, no threads: the next operation is issued only
after the previous one returned. Only the front-door call is timed;
generating the operation and checking its answer are not. Throughput is
completed operations per second of that timed (busy) time.

On a shared host the CPU runs Python code up to twice as slowly in
stretches from a fraction of a second to minutes. So the loop is cut
into windows of ``WINDOW_S`` busy time, each bracketed by a run of a
fixed pure-Python probe kernel that owes nothing to the program. Each
window's busy time is rescaled by ``REFERENCE_PROBE_S`` over the probes'
mean time: ``throughput_ops_s`` and ``setup_s`` are what the run would
have measured at the speed where the probe takes ``REFERENCE_PROBE_S``.
The unscaled figures are printed beside them.
"""

from __future__ import annotations

import copy
import ctypes
import gc
import gzip
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import layers
from repro.obs import Tracer

#: set-ups per untraced run, one before each equal slice of the timed
#: loop; ``setup_s`` is their median, so it samples the whole run
SETUPS = 7
#: traced runs issue a fixed number of operations, so their per-operation
#: counts repeat exactly under one seed: this many traced (and as many
#: untraced) per ``--seconds``
TRACED_OPS_PER_SECOND = {"oltp_orders": 150, "olap_adhoc": 30, "soe_scaleout": 40}
#: busy time between two speed probes in the timed loop
WINDOW_S = 0.25
#: seconds the probe kernel takes at the reference speed: a fixed figure
#: between its fast (about 1.1 ms) and slow (about 2.3 ms) times on the
#: 2-vCPU Xeon host the benchmark was tuned on
REFERENCE_PROBE_S = 0.002
#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
#: the tracer holds every span of a run; a run that would evict one fails
TRACER_CAPACITY = 20_000_000

#: unit of each metric that is printed but not listed in BENCHMARK.json;
#: the listed ones take their unit from there
UNITS: dict[str, str] = {
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "error_rate": "fraction",
    "store_bytes_per_row": "B/row",
    "soe_sim_network_ms": "ms",
    "soe_bytes_per_query": "bytes",
    "wall_throughput_ops_s": "ops/s",
    "wall_setup_s": "s",
    "machine_speed": "ratio",
}
#: the metrics read off the SOE's simulated network clock
SIMULATED = {"soe_sim_network_ms", "soe.cluster.transfer.sim_ms_per_op"}
#: wall-clock measurements rescaled to the probe's reference speed
RESCALED = {"throughput_ops_s", "setup_s"}
#: units of wall-clock measurements (``ratio`` is ``trace.overhead_ratio``)
WALL_UNITS = {"s", "ms", "ops/s", "ratio"}

try:
    _MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: freed heap may stay resident
    _MALLOC_TRIM = None

_PROBE_TABLE = {key: (key * 7919) % 65521 for key in range(4096)}
_PROBE_KEYS = list(_PROBE_TABLE)


def clock_of(name: str, unit: str) -> str:
    """``reference``, ``wall``, ``simulated`` or ``none`` (a count or a size)."""
    if name in SIMULATED:
        return "simulated"
    if name in RESCALED:
        return "reference"
    return "wall" if unit in WALL_UNITS else "none"


def _probe_kernel() -> int:
    # dict lookups, branches, method calls and int arithmetic on tables
    # built at import: it allocates nothing that outlives a statement, so
    # the program's heap does not change its speed
    table, total = _PROBE_TABLE, 0
    for _ in range(4):
        for key in _PROBE_KEYS:
            value = table[key]
            if value & 1:
                total += value.bit_length()
            else:
                total ^= key
    return total


def probe_seconds() -> float:
    """Time of one probe-kernel run now, with the collector off.

    An untimed run first brings the probe's tables back into the CPU
    caches, so the time does not depend on how much of them the program
    evicted (that cost up to 3% on ``soe_scaleout``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_kernel()
        started = time.perf_counter()
        _probe_kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class Scaled:
    """Timed intervals, as measured and rescaled to the reference speed."""

    walls: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)

    def add(self, wall: float, before: float, after: float) -> None:
        """One interval of ``wall`` seconds between probes ``before`` and ``after``."""
        self.walls.append(wall)
        self.references.append(wall * REFERENCE_PROBE_S * 2.0 / (before + after))
        self.probes.extend((before, after))


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    busy_seconds: float = 0.0
    samples: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def absorb(self, other: "LoopResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


def run_ops(
    ops: Any, tracer: Tracer | None = None, result: LoopResult | None = None
) -> LoopResult:
    """Issue ``ops`` one after another; time the calls, check the answers."""
    result = result if result is not None else LoopResult()
    for op in ops:
        result.attempted += 1
        started = time.perf_counter()
        try:
            if tracer is None:
                answer = op.call()
            else:
                with tracer.span(layers.OP_SPAN, cls=op.cls):
                    answer = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result.busy_seconds += time.perf_counter() - started
            result.failed += 1
            result.errors.append(f"{op.cls}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - started
        result.busy_seconds += elapsed
        try:
            problem = None if op.check(answer) else "wrong answer"
        except Exception as exc:  # a checker crash is a wrong answer
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            result.samples.setdefault(op.cls, []).append(elapsed)
        else:
            result.failed += 1
            result.errors.append(f"{op.cls}: {problem}")
    return result


def closed_loop(
    workload: Any, seconds: float, result: LoopResult | None = None
) -> LoopResult:
    """Operations until ``result`` holds ``seconds`` of busy time."""
    result = result if result is not None else LoopResult()

    def ops() -> Any:
        while result.busy_seconds < seconds:
            yield workload.next_op()

    return run_ops(ops(), result=result)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_metrics(samples: dict[str, list[float]]) -> tuple[dict[str, float], dict[str, int]]:
    """p50 for every class; p99 where 10 samples lie beyond it."""
    metrics: dict[str, float] = {}
    counts: dict[str, int] = {}
    for cls in ("lookup", "query", "write"):
        values = samples.get(cls)
        if not values:
            continue
        counts[cls] = len(values)
        metrics[f"{cls}_p50_ms"] = statistics.median(values) * 1000.0
        if len(values) * 0.01 >= TAIL_SAMPLES:
            metrics[f"{cls}_p99_ms"] = percentile(values, 0.99) * 1000.0
    return metrics, counts


def reset_peak_rss() -> None:
    """Restart the kernel's high-water mark of resident memory (Linux)."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own git directory, read without git."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, workload: Any, seed: int, traced: bool) -> dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "traced": traced,
        "clients": 1,
        "loop": "closed",
    }


def release(workload: Any, base: set[str]) -> None:
    """Drop everything set-up built: every attribute beyond ``base``.

    The freed heap is handed back to the kernel, so that the next memory
    peak counts what the program holds, not what the allocator kept of a
    released instance (it kept a varying 1-5 MB on ``oltp_orders``).
    """
    for name in set(vars(workload)) - base:
        delattr(workload, name)
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def timed_setup(workload: Any, scaled: Scaled) -> None:
    before = probe_seconds()
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    scaled.add(elapsed, before, probe_seconds())


def calibrated_loop(
    workload: Any, seconds: float, result: LoopResult, scaled: Scaled
) -> None:
    """:func:`closed_loop` in windows of ``WINDOW_S`` busy time, each
    bracketed by speed probes, adding each window's busy time to ``scaled``."""
    before = probe_seconds()
    while result.busy_seconds < seconds:
        busy = result.busy_seconds
        closed_loop(workload, min(seconds, busy + WINDOW_S), result)
        after = probe_seconds()
        scaled.add(result.busy_seconds - busy, before, after)
        before = after


def untraced_run(
    workload: Any, seconds: float
) -> tuple[dict[str, float], LoopResult, dict[str, Any]]:
    """Set up, warm up, then run the timed loop in ``SETUPS`` slices.

    Before each slice a spare instance of the workload is set up, timed
    and released again: a second copy of the data exists only while it is
    being set up, never during a slice. The memory peak is the highest of
    the slices' peaks. Set-ups and the loop are timed against the speed
    probe (see the module docstring).
    """
    base = set(vars(workload))
    spare = copy.copy(workload)
    workload.setup()
    total = run_ops(workload.warm_ops())
    if hasattr(workload, "costs"):
        workload.costs.clear()
    loop = LoopResult()
    busy, setups = Scaled(), Scaled()
    peak, cpu, wall = 0.0, 0.0, 0.0
    for part in range(1, SETUPS + 1):
        timed_setup(spare, setups)
        release(spare, base)  # also starts every slice from the same collector state
        reset_peak_rss()
        cpu -= time.process_time()
        wall -= time.perf_counter()
        calibrated_loop(workload, seconds * part / SETUPS, loop, busy)
        cpu += time.process_time()
        wall += time.perf_counter()
        peak = max(peak, peak_rss_mb())
    total.absorb(loop)
    metrics, counts = latency_metrics(loop.samples)
    metrics["throughput_ops_s"] = loop.completed / sum(busy.references)
    metrics["wall_throughput_ops_s"] = loop.completed / loop.busy_seconds
    metrics["machine_speed"] = REFERENCE_PROBE_S / statistics.median(busy.probes)
    metrics["error_rate"] = total.failed / total.attempted
    metrics["setup_s"] = statistics.median(setups.references)
    metrics["wall_setup_s"] = statistics.median(setups.walls)
    metrics["peak_rss_mb"] = peak
    if hasattr(workload, "store_bytes_per_row"):
        metrics["store_bytes_per_row"] = workload.store_bytes_per_row()
    if hasattr(workload, "costs"):
        metrics["soe_sim_network_ms"] = statistics.median(
            cost.simulated_network_seconds * 1000.0 for cost in workload.costs
        )
        metrics["soe_bytes_per_query"] = statistics.median(
            cost.bytes_shipped for cost in workload.costs
        )
    # near 1.0 when the loop was never off the CPU: a slow run then ran
    # slower on the CPU, it did not wait for it
    info = {
        "samples": counts,
        "setup_runs_s": setups.walls,
        "loop_cpu_over_wall": cpu / wall,
        "probes": len(busy.probes) // 2,
    }
    return metrics, total, info


def plan_cache_evictions(workload: Any) -> int:
    db = getattr(workload, "db", None)
    return db.plan_cache.stats()["evictions"] if db is not None else 0


def traced_run(
    workload: Any, seconds: float, spans_path: Path | None
) -> tuple[dict[str, float], LoopResult]:
    """A fixed number of operations, alternately traced and untraced.

    Alternating puts the traced and the untraced operations on the same
    stretch of the workload, so ``trace.overhead_ratio`` compares like
    with like; the wrappers are installed around each traced operation
    only, outside its timing.
    """
    workload.setup()
    total = run_ops(workload.warm_ops())
    count = max(20, int(TRACED_OPS_PER_SECOND[workload.name] * seconds))
    tracer = Tracer(capacity=TRACER_CAPACITY)
    wrappers = layers.patches(tracer)
    traced, plain = LoopResult(), LoopResult()
    evictions = 0
    for _ in range(count):
        before = plan_cache_evictions(workload)
        op = workload.next_op()
        with layers.traced(wrappers):
            run_ops([op], tracer, traced)
        evictions += plan_cache_evictions(workload) - before
        run_ops([workload.next_op()], None, plain)
    spans = tracer.spans()
    if len(spans) >= TRACER_CAPACITY:
        raise RuntimeError("tracer capacity reached: spans were evicted")
    total.absorb(traced)
    total.absorb(plain)
    ops = max(1, traced.completed)
    metrics = layers.layer_metrics(spans, ops)
    metrics["sql.plancache.evictions_per_op"] = evictions / ops
    metrics["trace.overhead_ratio"] = (traced.completed / traced.busy_seconds) / (
        plain.completed / plain.busy_seconds
    )
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(spans_path, "wt") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict(), default=str) + "\n")
    return metrics, total
