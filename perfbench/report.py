"""Summarise perfbench/results/*.json.

    python3 perfbench/report.py                    # spreads, medians, overhead
    python3 perfbench/report.py --write-reference  # seed-0 digests -> reference.json
    python3 perfbench/report.py --spans FILE       # per-op split of one traced run

For each workload and metric: the run count, the median, and the spread,
the distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`).  Tracing overhead is the median
traced pass wall time (`trace.wall_s`) minus the median untraced `wall_s`.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def load(source: str | None):
    runs = []
    for p in sorted(RESULTS.glob("*.json")):
        rec = json.loads(p.read_text())
        if source is None or rec["env"]["source_sha256"].startswith(source):
            runs.append(rec)
    return runs


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summary(runs) -> None:
    table = defaultdict(lambda: defaultdict(list))
    for rec in runs:
        env = rec["env"]
        for name, m in rec["metrics"].items():
            table[(env["workload"], env["trace"])][name].append(m["value"])
        if rec["faults"] or rec["failed_frac"]:
            print(f"! {env['workload']} seed {env['seed']} trace {env['trace']}: "
                  f"failed_frac {rec['failed_frac']}, faults {rec['faults']}")
    for (workload, trace), metrics in sorted(table.items()):
        print(f"\n{workload} (trace {int(trace)})")
        for name, vals in metrics.items():
            print(f"  {name:32s} n={len(vals):3d}  median={statistics.median(vals):<14.6g}"
                  f" spread={spread(vals):.4f}")
    for workload in sorted({w for w, _ in table}):
        plain = table.get((workload, False), {}).get("wall_s")
        traced = table.get((workload, True), {}).get("trace.wall_s")
        if plain and traced:
            d = statistics.median(traced) - statistics.median(plain)
            print(f"\ntracing overhead on {workload}: {d:+.3f} s "
                  f"({d / statistics.median(plain):+.1%} of wall_s)")


def write_reference(runs) -> None:
    ref = {}
    for rec in runs:
        if rec["env"]["seed"] == 0 and not rec["faults"] and not rec["failed_frac"]:
            ref[rec["env"]["workload"]] = {r["id"]: r["digest"] for r in rec["ops"][0]}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"reference digests for {sorted(ref)}")


def spans_breakdown(path: Path) -> None:
    """Time per span name inside each op of the first pass, as a share of
    the op's `cli.main` span; a span nested in one of its own name counts
    once."""
    with gzip.open(path, "rt") as fh:
        print(f"run {json.loads(fh.readline())['run_id']}")
        spans = [json.loads(line) for line in fh]
    per_op = defaultdict(lambda: defaultdict(float))
    for s in spans:
        name, t0, t1, parent, pass_index, op_id = s[:6]
        if pass_index != 0:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            per_op[op_id][name] += t1 - t0
    for op_id, times in per_op.items():
        total = times.get("cli.main", 0.0)
        print(f"\n{op_id}: {total:.3f} s")
        for name, t in sorted(times.items(), key=lambda kv: -kv[1]):
            if name != "cli.main":
                print(f"  {name:28s} {t:9.3f} s  {t / total:6.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="summarise benchmark results")
    ap.add_argument("--source", help="only runs whose source_sha256 starts with this")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--spans", type=Path, help="a results/*.spans.jsonl.gz file")
    a = ap.parse_args(argv)
    if a.spans:
        spans_breakdown(a.spans)
        return 0
    runs = load(a.source)
    if a.write_reference:
        write_reference(runs)
    else:
        summary(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
