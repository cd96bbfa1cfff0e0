#!/usr/bin/env python3
"""Runs the benchmark on every workload once per seed and reports each
end-to-end metric's median and quartile spread (IQR / median), the
statistic its bound in BENCHMARK.json is checked against.

    python3 ede-benchmark/spread.py [--seeds 10] [--first-seed 1] [--json OUT] [--records DIR]

Run it from the repository root; it uses the command BENCHMARK.json
names, with that file's run_seconds. With --records, every run also
writes its ede.bench.v1 record into DIR, and the report adds the spread
of the raw wall-clock throughput next to the probe-normalised one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="write every run's result here")
    ap.add_argument("--records", help="keep every run's ede.bench.v1 record here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    runs = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs[name] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            if args.records:
                cmd += ["--out", args.records]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            runs[name].append({"seed": seed, **result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'workload':12} {'metric':12} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            med, s = spread([r["metrics"][m["name"]]["value"] for r in runs[w["name"]]])
            print(f"{w['name']:12} {m['name']:12} {med:12.6g} {s:8.4f} {m['bound']:6.2f}")
        if args.records:
            raw = []
            for r in runs[w["name"]]:
                path = os.path.join(args.records, f"{w['name']}-seed{r['seed']}-trace0.json")
                rec = json.load(open(path))
                units = rec["attempted"] / (len(rec["setup_walls_s"]) + rec["samples"])
                raw.append(units / statistics.median(rec["sample_walls_s"]))
            med, s = spread(raw)
            print(f"{w['name']:12} {'wall units/s':12} {med:12.6g} {s:8.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
