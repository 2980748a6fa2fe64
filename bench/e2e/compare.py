#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark (standard library only).

    python3 bench/e2e/compare.py --base ../parent --change . [--pairs 10] [--seed 1]
                                 [--workload NAME ...] [--trace 0|1] [--json out.json]

Runs `python3 bench/e2e/run.py` of each checkout in --pairs parent/change
pairs per workload, alternating which side runs first; pair i of both sides
uses seed --seed + i.  For every metric it reports each side's median and
quartiles, how many pairs the change won (ties count for neither), and a
verdict:

  gain        the change won at least 9 of 10 pairs and the medians differ by
              more than the parent's interquartile range
  regression  the change's median is worse than the parent's by more than the
              metric's BENCHMARK.json bound
  unresolved  the run-to-run spread (IQR / median, either side) is wider than
              the bound, and not every change run beat every parent run
  same        none of the above

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics plus the
simulated ones from the run ledgers.  A simulated metric that repeats exactly
on the parent (closed-loop workloads; equal to 1e-9 relative) gets bound 0
and the verdict same, better or worse.  With --trace 1 they are the per_layer
metrics, which have no bound (gain or same only).  Exits 1 on any regression
or worse.  Claim a gain on the default seed and again on the held-out seed
(--seed 7919).
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# Simulated ledger metrics where higher is better; the others are costs.
SIM_DIRECTIONS = {"sim_items_per_s": "higher", "service.chip_occupancy": "higher"}
# Window totals divided by an item count differ in the last bits from run
# to run; simulated values closer than this count as equal.
EXACT_REL = 1e-9


def run_side(checkout, workload, seed, trace):
    """One run.py invocation; returns its full ledger for `workload`."""
    ledger = (checkout / ".bench_build" / "e2e" / "compare-ledger.json").resolve()
    ledger.unlink(missing_ok=True)
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--ledger", str(ledger)]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if r.returncode != 0 or not ledger.exists():
        sys.exit(f"compare.py: {checkout}: {workload} seed {seed} failed (exit {r.returncode})")
    return json.loads(ledger.read_text())[workload]["metrics"]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def same_value(a, b):
    """Equal up to floating-point summation order."""
    return abs(a - b) <= EXACT_REL * max(abs(a), abs(b))


def verdict(base, change, better, bound):
    """Apply the gain / regression / unresolved rules to one metric."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    row = {"base": [b1, bm, b3], "change": [c1, cm, c3], "wins": wins, "pairs": len(base)}
    if bound == 0:  # a simulated metric that repeats exactly: any move counts
        row["verdict"] = ("same" if same_value(bm, cm)
                          else "better" if sign * (cm - bm) > 0 else "worse")
        return row
    if wins >= math.ceil(0.9 * len(base)) and sign * (cm - bm) > b3 - b1:
        row["verdict"] = "gain"
        return row
    if bound is None:
        row["verdict"] = "same"
        return row
    worse = sign * (bm - cm) / abs(bm) if bm else 0.0
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "same"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="checkout with the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="repeatable (default: all)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", type=Path, help="also write the report as JSON")
    args = ap.parse_args()
    if args.pairs < 10:
        print("compare.py: fewer than 10 pairs cannot support a gain claim", file=sys.stderr)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {}
    for w in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                checkout = args.base if side == "base" else args.change
                runs[side].append(run_side(checkout, w, args.seed + i, args.trace))
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

        metrics = [(m["name"], m["better"], m.get("bound")) for m in listed]
        if not args.trace:
            for name, m in sorted(runs["base"][0].items()):
                values = [r[name]["value"] for r in runs["base"]]
                if m["clock"] == "sim" and all(same_value(v, values[0]) for v in values):
                    metrics.append((name, SIM_DIRECTIONS.get(name, "lower"), 0.0))
        rows = {}
        for name, better, bound in metrics:
            if not all(name in r for r in runs["base"] + runs["change"]):
                continue
            base = [r[name]["value"] for r in runs["base"]]
            change = [r[name]["value"] for r in runs["change"]]
            rows[name] = verdict(base, change, better, bound)
            rows[name]["unit"] = runs["base"][0][name]["unit"]
            rows[name]["bound"] = bound
        report[w] = rows

        print(f"\n== {w}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}")
        print(f"  {'metric':34s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
              f"{'wins':>6s} {'bound':>6s}  verdict")
        for name, r in rows.items():
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)
            bound = "-" if r["bound"] is None else f"{r['bound']:g}"
            print(f"  {name:34s} {fmt(r['base']):>32s} {fmt(r['change']):>32s} "
                  f"{r['wins']:>3d}/{r['pairs']:<2d} {bound:>6s}  {r['verdict']} [{r['unit']}]")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1))
    return 1 if any(r["verdict"] in ("regression", "worse") for rows in report.values()
                    for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
