#!/usr/bin/env python3
"""Same-host A/B comparison of a baseline revision against the working tree.

Run from the repository root:

    python3 simbench/ab.py --base HEAD~1 --pairs 10
    python3 simbench/ab.py --base main --workloads ds-fanin-2k,scalable-10k

The baseline is checked out in a git worktree under .bench_build/ab/ and
gets this tree's simbench/ copied over it, so both sides run identical
benchmark code and settings; the worktree is removed at the end. For
each workload the script runs --pairs pairs of `simbench/run.sh --trace 0`,
pair i with seed i, alternating which side runs first. For every end-to-end metric it prints each side's median
and quartiles, the change's win fraction (ties count for neither) and a
verdict:

  gain        at least ten pairs ran, the change wins at least 9/10 of
              them and the medians differ by more than the baseline's own
              quartile spread;
  regression  the change's median is worse than the baseline's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the baseline's spread is wider than the bound and the runs
              do not separate completely;
  same        otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# expected.json records ds-resilient-1k's outputs for seeds 1..10; pair i
# runs seed i, so every pair is checked against a recording.
RECORDED_SEEDS = 10


def run(cmd, cwd):
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"ab: {' '.join(cmd)} in {cwd} exited {p.returncode}")
    return p.stdout


def bench(side_root, workload, seed, seconds):
    out = run(["bash", "simbench/run.sh", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"], side_root)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"ab: {side_root}: {workload} seed {seed} produced wrong outputs")
    return {k: v["value"] for k, v in result["metrics"].items()}, json.loads(lines[-2])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    mb, mc = statistics.median(base), statistics.median(change)
    qb = quartiles(base)
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    win_frac = wins / len(base)
    worse = (mc - mb) if lower else (mb - mc)
    separated = (max(change) < min(base)) if lower else (min(change) > max(base))
    if len(base) >= 10 and win_frac >= 0.9 and abs(mc - mb) > qb[1] - qb[0]:
        v = "gain"
    elif worse > metric["bound"] * mb:
        v = "regression"
    elif (qb[1] - qb[0]) > metric["bound"] * mb and not separated:
        v = "unresolved"
    else:
        v = "same"
    return mb, qb, mc, quartiles(change), win_frac, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="baseline git revision")
    ap.add_argument("--workloads", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=RECORDED_SEEDS,
                    help=f"pairs per workload, one seed each (1..{RECORDED_SEEDS}, the seeds with recorded outputs)")
    args = ap.parse_args()
    if not 1 <= args.pairs <= RECORDED_SEEDS:
        ap.error(f"--pairs must be in 1..{RECORDED_SEEDS}")

    root = os.getcwd()
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    rev = run(["git", "rev-parse", "--verify", args.base + "^{commit}"], root).strip()
    base_root = os.path.join(root, ".bench_build", "ab", rev[:12])
    run(["git", "worktree", "add", "--detach", base_root, rev], root)
    shutil.copytree(os.path.join(root, "simbench"), os.path.join(base_root, "simbench"), dirs_exist_ok=True)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), base_root)

    try:
        for w in workloads:
            base, change = {m: [] for m in metrics}, {m: [] for m in metrics}
            hosts = {}
            for i in range(args.pairs):
                seed = i + 1
                order = [("base", base_root), ("change", root)]
                if i % 2:
                    order.reverse()
                for side, side_root in order:
                    values, details = bench(side_root, w, seed, spec["run_seconds"])
                    hosts[side] = details["host"]
                    for m in metrics:
                        (base if side == "base" else change)[m].append(values[m])
                print(f"# {w} pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr, flush=True)
            print(f"{w}  ({args.pairs} pairs)")
            for side in ("base", "change"):
                print(f"  {side:<6} {json.dumps(hosts[side])}")
            print(f"  {'metric':<12} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} {'wins':>6}  verdict")
            for m, spec_m in metrics.items():
                mb, qb, mc, qc, wf, v = verdict(spec_m, base[m], change[m])
                print(f"  {m:<12} {mb:>12.5g} [{qb[0]:.5g}, {qb[1]:.5g}] {mc:>12.5g} [{qc[0]:.5g}, {qc[1]:.5g}] {wf:>6.2f}  {v}")
    finally:
        run(["git", "worktree", "remove", "--force", base_root], root)


if __name__ == "__main__":
    main()
