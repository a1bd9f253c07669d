#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark against a base revision.

    python3 .github/perf_ab.py --base REV

Checks REV out into a temporary git worktree, then runs every workload
BENCHMARK.json lists 10 times per side, through each tree's own
perfbench/run.py, at the benchmark's run_seconds with seeds 1-10. Each
tree builds into its own .bench_build (CARGO_TARGET_DIR is cleared), and
the side that runs first alternates from pair to pair. The change side
is this checkout's working tree.

Prints every run's result line, then one row per end-to-end metric and
workload: each side's median and quartiles, and how much worse the
change's median is than the base's. Under every row whose verdict is
not ok, it also prints each side's per-run values in seed order, so a
split of the runs into modes shows without reading the result lines.
Exits 1 when a run is incorrect or
fails to finish, when the change fails a larger share of its operations
than the base, or when a metric's median is worse than the base's by
more than the metric's bound. A metric whose base runs spread (quartile
distance over median) wider than its bound is printed as unresolved
instead, and then fails only when every change run is worse than every
base run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_side(tree: Path, workload: str, seed: int, seconds: float):
    """One perfbench run in `tree`: its result JSON, or None when none came."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    return json.loads(lines[-1])


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def rel(x: float, base: float) -> float:
    if base == 0:
        return 0.0 if x == 0 else float("inf")
    return x / abs(base)


def judge(metric: dict, base: list, change: list) -> tuple:
    """(verdict, how much worse the change's median is, base spread)."""
    b1, bmed, b3 = quartiles(base)
    cmed = statistics.median(change)
    worse = rel(cmed - bmed if metric["better"] == "lower" else bmed - cmed, bmed)
    spread = rel(b3 - b1, bmed)
    if spread <= metric["bound"]:
        return ("ok" if worse <= metric["bound"] else "REGRESSED"), worse, spread
    if metric["better"] == "lower":
        every_run_worse = min(change) > max(base)
    else:
        every_run_worse = max(change) < min(base)
    return ("REGRESSED (every run worse)" if every_run_worse else "unresolved"), worse, spread


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rev = subprocess.run(["git", "rev-parse", "--verify", args.base + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if rev.returncode != 0:
        print(f"perf_ab: unknown revision {args.base!r}", file=sys.stderr)
        return 2
    sha = rev.stdout.strip()
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]

    scratch = Path(tempfile.mkdtemp(prefix="perf_ab-"))
    base_tree = scratch / "base"
    subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), sha],
                   cwd=ROOT, check=True, stdout=sys.stderr)
    trees = {"base": base_tree, "change": ROOT}
    runs = {(w, side): [] for w in workloads for side in trees}
    failures = []
    try:
        for w in workloads:
            for seed in range(1, PAIRS + 1):
                order = ("base", "change") if seed % 2 else ("change", "base")
                for side in order:
                    r = run_side(trees[side], w, seed, seconds)
                    print(f"{w} seed {seed} {side}: {json.dumps(r)}", flush=True)
                    if r is None or r["correct"] is not True:
                        failures.append(f"{w} seed {seed} {side}: incorrect or unfinished run")
                    if r is not None:
                        runs[(w, side)].append(r)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)], cwd=ROOT)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\nbase {sha[:12]} vs this checkout: {PAIRS} pairs per workload, "
          f"{seconds:g} s per run, seeds 1-{PAIRS}")
    print(f"{'workload':<8} {'metric':<17} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        if not runs[(w, "base")] or not runs[(w, "change")]:
            continue
        share = {}
        for side in trees:
            attempted = sum(r["attempted"] for r in runs[(w, side)])
            failed = sum(r["failed"] for r in runs[(w, side)])
            share[side] = failed / attempted if attempted else 0.0
        if share["change"] > share["base"]:
            failures.append(f"{w}: failed share {share['change']:.4f} > base {share['base']:.4f}")
        for m in bench["end_to_end"]:
            cols = {}
            values = {}
            for side in trees:
                values[side] = [r["metrics"][m["name"]]["value"] for r in runs[(w, side)]]
                q1, med, q3 = quartiles(values[side])
                cols[side] = f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
            verdict, worse, spread = judge(m, values["base"], values["change"])
            print(f"{w:<8} {m['name']:<17} {cols['base']:<32} {cols['change']:<32} "
                  f"{worse:>+8.1%} {spread:>7.1%} {m['bound']:>6.0%}  {verdict}")
            if verdict != "ok":
                for side in trees:
                    print(f"{'':<8} {side + ' runs:':<17} "
                          + " ".join(f"{v:.4g}" for v in values[side]))
            if verdict.startswith("REGRESSED"):
                failures.append(f"{w} {m['name']}: median {worse:+.1%} worse, bound {m['bound']:.0%}")
    for f in failures:
        print(f"FAIL {f}")
    print("perf_ab: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
