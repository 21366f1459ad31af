#!/usr/bin/env python3
"""Compares a change against its parent on one perfbench workload.

Usage, with each commit checked out in its own tree (``git worktree add``
or ``git archive``):

    python3 tools/bench_compare.py --parent ../parent --change . \\
        --workload degraded_repair --pairs 10 --seconds 20

Each tree's ``perfbench/run.py`` builds its perfbench (Release) into its
own build directory, ``<out>/parent`` and ``<out>/change`` (``--out``,
default ``.bench_compare``), passed as ``CARGO_TARGET_DIR``; the first run
of each side builds it, the rest find it built. N pairs run on seeds
first..first+N-1 (``--first-seed``, default 1), alternating which side runs
first. For every end-to-end metric in BENCHMARK.json the report gives each
side's median and quartiles, the pairs the change won (ties count for
neither), and a verdict:

* ``improved``  -- the change won at least 9 of every 10 pairs and the
  medians differ, in its favour, by more than the parent's interquartile
  range;
* ``worse``     -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- neither, and the parent's own interquartile range is
  wider than the bound (unless every change run beats every parent run),
  so the runs cannot tell "within bound" from a regression;
* ``within bound`` -- otherwise.

It exits 1 if any run failed (a failed build or output check) or any metric
is worse, 2 on a usage error. ``--self-test`` checks the verdict rules on
fixed numbers and runs nothing. Standard library only, like check_docs.py.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Verdict for one metric; parent[i] and change[i] are pair i's runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    iqr = p3 - p1
    gap = sign * (cm - pm)  # > 0: the change's median is better
    rel = gap / abs(pm) if pm else 0.0
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if 10 * wins >= 9 * len(parent) and gap > iqr:
        result = "improved"
    elif rel < -bound:
        result = "worse"
    elif pm and iqr / abs(pm) > bound and not all_better:
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "ratio": cm / pm if pm else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "verdict": result,
    }


def self_test() -> int:
    up = [100.0 + i for i in range(10)]
    cases = [
        # A clear gain: every pair won, gap far beyond the parent's IQR.
        ("improved", up, [150.0 + i for i in range(10)], "higher", 0.2),
        ("improved", up, [60.0 + i for i in range(10)], "lower", 0.2),
        # Won every pair, but by less than the parent's IQR (4.5).
        ("within bound", up, [101.0 + i for i in range(10)], "higher", 0.2),
        # 8 of 10 pairs is not 9 of 10, whatever the gap.
        ("within bound", up, [150.0] * 8 + [90.0] * 2, "higher", 0.2),
        # Ties count for neither side.
        ("within bound", up, list(up), "lower", 0.2),
        # 25% worse against a 20% bound, for either direction.
        ("worse", up, [x * 1.25 for x in up], "lower", 0.2),
        ("worse", up, [x * 0.75 for x in up], "higher", 0.2),
        # 10% worse: inside the bound.
        ("within bound", up, [x * 1.1 for x in up], "lower", 0.2),
        # The parent's IQR (about 50% of its median) exceeds the bound.
        ("unresolved", [50.0, 150.0] * 5, [110.0, 90.0] * 5, "lower", 0.2),
        # ...unless every change run beats every parent run.
        ("within bound", [50.0, 150.0] * 5, [40.0, 45.0] * 5, "lower", 0.2),
    ]
    failures = 0
    for want, parent, change, better, bound in cases:
        got = verdict(parent, change, better, bound)["verdict"]
        if got != want:
            failures += 1
            print(f"self-test: want {want!r}, got {got!r} for {better}-better "
                  f"parent={parent} change={change}")
    # Quartiles interpolate: 1..5 gives (2, 3, 4).
    if quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) != (2.0, 3.0, 4.0):
        failures += 1
        print("self-test: quartiles of 1..5 are not (2, 3, 4)")
    if failures:
        return 1
    print(f"bench_compare self-test: OK ({len(cases) + 1} checks)")
    return 0


def run_once(tree: pathlib.Path, build_root: pathlib.Path, workload: str,
             seed: int, seconds: float) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_root))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", type=pathlib.Path)
    parser.add_argument("--change", type=pathlib.Path)
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(".bench_compare"))
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload) or args.pairs < 1:
        parser.error("--parent, --change, --workload and --pairs >= 1 "
                     "are required")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    builds = {side: (args.out / side).resolve() for side in trees}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(trees[side], builds[side], args.workload, seed,
                              args.seconds)
            result["seed"] = seed
            runs[side].append(result)
            metrics = {k: round(v["value"], 3)
                       for k, v in result.get("metrics", {}).items()}
            print(f"pair {i + 1} seed {seed} {side}: correct="
                  f"{result.get('correct')} failed={result.get('failed')} "
                  f"{metrics}", file=sys.stderr)

    bad_runs = [(side, r["seed"]) for side in runs for r in runs[side]
                if not r.get("correct") or r.get("failed") or r["exit"] != 0]
    print(f"{args.workload}: {args.pairs} pairs at --seconds {args.seconds}, "
          f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
    print(f"{'metric':<26} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'ratio':>6} {'wins':>6}  verdict")
    worse = False
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        try:
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            print(f"{name:<26} missing from some run")
            worse = True
            continue
        v = verdict(parent, change, metric["better"], metric["bound"])
        worse = worse or v["verdict"] == "worse"
        cell = "{median:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"{name:<26} {cell.format(**v['parent']):<30} "
              f"{cell.format(**v['change']):<30} {v['ratio']:>6.3f} "
              f"{v['wins']:>3}/{v['pairs']:<2}  {v['verdict']}")
    if bad_runs:
        print(f"failed runs (build or output checks): {bad_runs}")
    return 1 if bad_runs or worse else 0


if __name__ == "__main__":
    sys.exit(main())
