#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, the way the benchmark
is accepted: N runs per workload, each with another --seed; per metric
the distance between the first and third quartile as a share of the
median, compared with the metric's bound in BENCHMARK.json.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--same-seed] [--workload NAME]...

With --same-seed every run uses --first-seed: what is left is the host's
noise alone.

Run from the repository root. Exits non-zero when a spread (setup_s
excepted, as in the acceptance rule) exceeds its bound or a run is not
correct. A spread above a third of its bound is flagged `wide`.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    t0 = time.time()
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: not correct "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            series = values[m["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            verdict = "ok"
            if spread > m["bound"] and m["name"] != "setup_s":
                verdict, ok = "EXCEEDS BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "wide"
            print(f"{w}/{m['name']}: median {med:.6g} {m['unit']}, "
                  f"min {min(series):.6g}, max {max(series):.6g}, "
                  f"spread {100 * spread:.2f} % of bound {100 * m['bound']:.0f} %: {verdict}",
                  flush=True)
    print(f"# {args.runs} seeds x {len(workloads)} workload(s) in {time.time() - t0:.0f} s")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
