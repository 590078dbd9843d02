#!/usr/bin/env python3
"""Run-to-run statistics for the perfbench benchmark.

Run from the repository root. Two subcommands:

  spread       runs one workload once per seed and prints, for each
               end-to-end metric, the median and the interquartile range
               as a share of the median next to the metric's bound from
               BENCHMARK.json.

                 python3 perfbench/stats.py spread --workload heatmap --seeds 1-10

  sensitivity  checks that the benchmark sees a real slowdown and stays
               quiet on none. For each workload it alternates runs of the
               unchanged server (A), a second unchanged set (A') and
               two planted slowdowns (geostatd -workers 1, and -workers 1
               -max-inflight 1), and flags a metric as worse when a side's
               median is worse than A's by more than the metric's bound.
               A/A' must flag nothing.

                 python3 perfbench/stats.py sensitivity --workloads heatmap,stats --runs 5
"""

import argparse
import json
import statistics
import subprocess
import sys


def bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(cfg, workload, seed, extra=()):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0", *extra]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: run not correct:\n{out.stderr}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def iqr_share(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(metric, base, new):
    """Share by which new's median is worse than base's (negative = better)."""
    b, n = statistics.median(base), statistics.median(new)
    if metric["better"] == "lower":
        return (n - b) / b
    return (b - n) / b


def spread(cfg, args):
    runs = [run_once(cfg, args.workload, s) for s in seeds(args.seeds)]
    print(f"{args.workload}: {len(runs)} runs")
    ok = True
    for m in cfg["end_to_end"]:
        vals = [r[m["name"]] for r in runs]
        share = iqr_share(vals)
        flag = ""
        if m["name"] != "setup_s" and share > m["bound"]:
            flag, ok = "  SPREAD ABOVE BOUND", False
        elif m["name"] != "setup_s" and share > m["bound"] / 3:
            flag = "  spread above bound/3"
        print(f"  {m['name']:22s} median {statistics.median(vals):12.4f} {m['unit']:9s}"
              f" iqr/median {share:7.4f} bound {m['bound']}{flag}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return ok


# Sensitivity sides: the unchanged server twice, and two planted slowdowns
# made with existing geostatd flags, so no program edit is needed.
SIDES = {
    "A": (),
    "A'": (),
    "workers=1": ("--server-workers", "1"),
    "workers=1,max-inflight=1": ("--server-workers", "1", "--server-max-inflight", "1"),
}


def sensitivity(cfg, args):
    ok = True
    tp = [m for m in cfg["end_to_end"] if m["name"] == "throughput_ops_s"][0]
    for w in args.workloads.split(","):
        runs = {side: [] for side in SIDES}
        order = list(SIDES)
        for i in range(args.runs):
            for side in (order if i % 2 == 0 else order[::-1]):
                runs[side].append(run_once(cfg, w, 1000 + i, SIDES[side]))
        for side in order[1:]:
            flagged = []
            for m in cfg["end_to_end"]:
                d = worse(m, [r[m["name"]] for r in runs["A"]], [r[m["name"]] for r in runs[side]])
                if d > m["bound"]:
                    flagged.append(f"{m['name']} worse by {d:.1%} (bound {m['bound']:.0%})")
            print(f"{w} A vs {side}: " + ("; ".join(flagged) if flagged else "nothing flagged"))
            if side == "A'" and flagged:
                ok = False
        a = statistics.median(r["throughput_ops_s"] for r in runs["A"])
        for side in order[1:]:
            b = statistics.median(r["throughput_ops_s"] for r in runs[side])
            print(f"{w} throughput_ops_s median: A {a:.3f}, {side} {b:.3f} ({(a - b) / a:+.1%} lower, bound {tp['bound']:.0%})")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    t = sub.add_parser("sensitivity")
    t.add_argument("--workloads", default="heatmap,stats")
    t.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    cfg = bench()
    ok = spread(cfg, args) if args.cmd == "spread" else sensitivity(cfg, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
