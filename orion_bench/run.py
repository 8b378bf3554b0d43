#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 orion_bench/run.py --workload paper_sweep --seed 1 \\
        --seconds 10 --trace 0
    python3 orion_bench/run.py --selftest
    python3 orion_bench/run.py --regen-pins

The build goes to $CARGO_TARGET_DIR (default .bench_build) and scratch
files to .bench_run, both under the checkout root. The last line of
standard output is the harness's JSON result.
"""
import argparse
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGETS = ["orion_perf", "orion_perf_selftest", "orion_served", "orion_sim"]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("run.py: no repository sources next to the benchmark")
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    # Configure every time: it is cheap, and cmake refuses a build
    # directory whose cache belongs to another checkout's sources, which
    # would otherwise be rebuilt and measured in place of these.
    subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(out), "-j", "3", "--target"]
                   + TARGETS, check=True, stdout=sys.stderr, timeout=840)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--regen-pins", action="store_true")
    args = ap.parse_args()
    try:
        out = build()
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit(f"run.py: build failed: {e}")

    perf = str(out / "orion_perf")
    if args.selftest:
        sys.exit(subprocess.run([str(out / "orion_perf_selftest")]).returncode)
    if args.regen_pins:
        pins = subprocess.run([perf, "--print-pins"], check=True,
                              stdout=subprocess.PIPE, text=True).stdout
        (BENCH / "pins.txt").write_text(pins)
        return
    if not args.workload:
        sys.exit("run.py: --workload is required")
    cmd = [perf, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", str(BENCH / "pins.txt"),
           "--run-dir", os.path.join(".bench_run", args.workload),
           "--served", str(out / "orion" / "tools" / "orion_served"),
           "--sim", str(out / "orion" / "tools" / "orion_sim")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=175)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
