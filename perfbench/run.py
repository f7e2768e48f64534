"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Every metric is printed by name with its unit and
direction; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``).
Exits non-zero without a result when the program cannot be found or
the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(ROOT / "src"))


def _spec() -> dict:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    from perfbench import flows

    if args.workload not in flows.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(flows.WORKLOADS)})", file=sys.stderr)
        return 2
    flows.quiet_logs()
    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        outcome = flows.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(flows.WORK, ignore_errors=True)

    tally = outcome.tally
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in outcome.lines:
        print(line)
    metrics = {}
    for entry in wanted:
        value, unit = outcome.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} measured in {unit}, "
                             f"BENCHMARK.json says {entry['unit']}")
        print(f"{entry['name']:36s} {value:14.6g} {unit:6s} ({entry['better']} is better)")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(f"{'error_rate':36s} {tally.error_rate:14.6g} {'ratio':6s} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    correct = tally.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
