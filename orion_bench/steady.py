#!/usr/bin/env python3
"""Steadiness tool: run two sets of the benchmark, alternating run by run,
and print each metric's spread so bounds are set from measured noise.

    python3 orion_bench/steady.py --workload paper_sweep --runs 10
    python3 orion_bench/steady.py --workload served_mixed --runs 5 \\
        --other ../parent-checkout

Set A is this checkout. Set B is --other (another checkout of the same
or of a parent commit) or, by default, this checkout again. Run i of
both sets uses seed --first-seed + i; the set that goes first alternates.
With --other, each checkout builds into its own .bench_build
(CARGO_TARGET_DIR is dropped), so two checkouts never share one build
directory.

For every end-to-end metric it prints, per set, the median, quartiles
(statistics.quantiles(n=4)), min and max, the spread (quartile distance
over median), and the ratio of B's median to A's, against the bound in
BENCHMARK.json. Host provenance of each run (nproc, loadavg before and
after, build, memory-latency probe) is kept in the JSON written to
.bench_run/steady-<workload>.json.
"""
import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(checkout, workload, seed, seconds, env):
    cmd = [sys.executable, "orion_bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"steady.py: run failed in {checkout}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = checkout / ".bench_run" / workload / "details.json"
    prov = json.loads(details.read_text()).get("provenance", {})
    return result, prov


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--other", help="second checkout (default: this one)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {"A": ROOT, "B": pathlib.Path(args.other or ROOT).resolve()}
    runs = {"A": [], "B": []}
    env = dict(os.environ)
    if args.other:
        env.pop("CARGO_TARGET_DIR", None)
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            result, prov = run_once(sets[name], args.workload,
                                    args.first_seed + i, seconds, env)
            runs[name].append({"seed": args.first_seed + i,
                               "result": result, "provenance": prov})
            ok = result["correct"] and result["failed"] == 0
            print(f"run {i} set {name}: correct={ok} "
                  f"load={prov.get('loadavg_before', '?').split()[0]}->"
                  f"{prov.get('loadavg_after', '?').split()[0]} "
                  f"mem={prov.get('mem_latency_ns', 0):.1f}ns",
                  file=sys.stderr)

    table = {}
    print(f"{'metric':<14} {'set':<3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} "
          f"{'bound':>6} {'B/A':>7}")
    for metric in bounds:
        row = {}
        for name in ("A", "B"):
            vals = [r["result"]["metrics"][metric]["value"]
                    for r in runs[name]]
            row[name] = summary(vals)
        ratio = row["B"]["median"] / row["A"]["median"]
        table[metric] = dict(row, ratio=ratio, bound=bounds[metric])
        for name in ("A", "B"):
            s = row[name]
            flag = ""
            if s["spread"] > bounds[metric]:
                flag = " OVER"
            elif s["spread"] > bounds[metric] / 3:
                flag = " >1/3"
            print(f"{metric:<14} {name:<3} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['min']:>12.6g} "
                  f"{s['max']:>12.6g} {s['spread']:>7.3f} "
                  f"{bounds[metric]:>6.2f} "
                  f"{ratio if name == 'B' else 1.0:>7.3f}{flag}")
    out = ROOT / ".bench_run" / f"steady-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "runs": runs, "summary": table}, indent=1))
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
