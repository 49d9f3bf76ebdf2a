"""Front-door benchmark: one closed-loop client against the HANA core or the SOE.

    python3 perfbench/run.py --workload oltp_orders --seed 1 --seconds 10 --trace 0

``--trace 0`` measures end to end with no instrumentation; ``--trace 1``
wraps every layer's entry points in spans and reports per-layer
metrics. Every metric is printed as ``metric <name> = <value> <unit>
[<clock>]``; the last line is one JSON object with the metrics that
``BENCHMARK.json`` lists for the mode. The run exits 1 when any answer
was wrong or any operation failed, and 2 when the program's sources are
missing. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["oltp_orders", "olap_adhoc", "soe_scaleout"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="data-size factor (1.0 = documented sizes)"
    )
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` on the path; fail fast without it."""
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: program sources not found at {source.parent}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    load_program()
    import harness
    from scenarios import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    gated = [metric["name"] for metric in spec[section]]
    units = dict(harness.UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    traced = bool(args.trace)
    meta = harness.metadata(ROOT, workload, args.seed, traced)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        spans_path = OUT_DIR / f"{tag}-spans.jsonl.gz"
        metrics, total = harness.traced_run(workload, args.seconds, spans_path)
        meta["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, total, info = harness.untraced_run(workload, args.seconds)
        meta.update(info)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    described = {}
    for name in sorted(metrics):
        unit = units[name]
        clock = harness.clock_of(name, unit)
        described[name] = {"value": metrics[name], "unit": unit, "clock": clock}
        print(f"metric {name} = {metrics[name]!r} {unit} [{clock}]")
    print(f"operations attempted={total.attempted} failed={total.failed}")
    for error in total.errors[:20]:
        print(f"error {error}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({"meta": meta, "metrics": described}, indent=1, sort_keys=True)
    )

    missing = [name for name in gated if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    correct = total.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": total.attempted,
                "failed": total.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": described[name]["unit"]}
                    for name in gated
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
