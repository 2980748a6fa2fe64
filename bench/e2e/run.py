#!/usr/bin/env python3
"""One-command runner of the CoFHEE end-to-end benchmark.

    python3 bench/e2e/run.py                     # all four workloads, seed 1
    python3 bench/e2e/run.py --workload cryptonets_graph --seed 3 --trace 0
    python3 bench/e2e/run.py --workload host_bfv --trace 1   # per-layer ledger + Chrome trace

Builds bench/e2e (and with it the repo's cofhee library) under .bench_build/
at the repo root, runs cofhee_e2e, prints every metric by name with its
value, unit, clock and direction, and checks every output: a run whose
outputs did not all decrypt correctly exits 1.

With --workload, the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; metrics holds BENCHMARK.json's
end_to_end metrics (--trace 0) or its per_layer metrics (--trace 1).  The full
ledger of the run (every metric the binary measured) is written to --ledger
when given; compare.py reads it from there.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "cofhee_e2e"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date (a no-op when it is)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SRC), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                log(f"run.py: build step failed: {' '.join(cmd)}")
                log((BUILD / "build.log").read_text()[-4000:])
                if not (BUILD / "cofhee_e2e").exists():
                    # A failed first configure must not leave a cache that
                    # makes the next attempt skip configuring.
                    shutil.rmtree(BUILD, ignore_errors=True)
                return False
    return True


def run_binary(workload, seed, seconds, trace):
    """Run one workload; returns the binary's ledger dict, or None."""
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    ledger.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--json", str(ledger)]
    if trace:
        cmd += ["--trace", str(out_dir / f"{workload}-seed{seed}.trace.json")]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    if not ledger.exists():
        log(f"run.py: {workload} exited {rc} without a result")
        return None
    return json.loads(ledger.read_text())


def print_ledger(result, directions):
    print(f"\n== {result['workload']} (seed {result['seed']}, {result['seconds']} s, "
          f"{'traced' if result['traced'] else 'untraced'}): "
          f"{result['attempted']} items, {result['failed']} failed")
    for name, m in sorted(result["metrics"].items()):
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>14s} {m['unit']:8s} {m['clock']:5s} "
              f"{directions.get(name, '')}")


def summary_line(result, wanted):
    """The last stdout line: exactly the metrics BENCHMARK.json lists for this mode."""
    metrics, ok = {}, result["correct"]
    for spec in wanted:
        m = result["metrics"].get(spec["name"])
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            log(f"run.py: metric {spec['name']} missing from {result['workload']}")
            ok = False
            continue
        if m["unit"] != spec["unit"]:
            log(f"run.py: {spec['name']} measured in {m['unit']}, BENCHMARK.json says {spec['unit']}")
            ok = False
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": bool(ok), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    # Part of the BENCHMARK.json command interface only: the run length is
    # fixed by run_seconds, the length the bounds were fitted at.
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help=f"must be {spec['run_seconds']} (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--ledger", type=Path, help="copy the full ledger JSON here")
    args = ap.parse_args()
    if args.seconds != spec["run_seconds"]:
        ap.error(f"--seconds must be {spec['run_seconds']}, BENCHMARK.json's run_seconds")

    if not build():
        return 1
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    lines, ledgers = {}, {}
    for w in [args.workload] if args.workload else names:
        result = run_binary(w, args.seed, spec["run_seconds"], args.trace)
        if result is None:
            return 1
        print_ledger(result, directions)
        ledgers[w] = result
        lines[w] = summary_line(result, wanted)
    if args.ledger:
        args.ledger.write_text(json.dumps(ledgers, indent=1))
    ok = all(line["correct"] for line in lines.values())
    print(json.dumps(lines[args.workload] if args.workload else lines), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
