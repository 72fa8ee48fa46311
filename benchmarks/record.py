"""Run perfbench, record every run in ``PERF_HISTORY.jsonl`` and compare two checkouts.

Record one checkout (this one by default)::

    python benchmarks/record.py --workload sbox_verdict --seed 1 --seconds 15 --pairs 10

Compare a parent checkout (first root) with a change (second root)::

    git worktree add ../parent HEAD^1
    python benchmarks/record.py --root ../parent --root . \\
        --workload sbox_verdict --workload sharded_wide --workload design_sweep \\
        --seed 1 --seconds 5 --pairs 3

For each workload, every root runs ``<root>/perfbench/run.py --trace 0``
``--pairs`` times, with ``PYTHONPATH=<root>/src``.  With two roots the
order alternates: pair *i* runs the first root first when *i* is even.
Then every root runs once with ``--trace 1`` for its per-layer metrics.

Each (root, workload) appends one line to this checkout's
``PERF_HISTORY.jsonl``: the root's git sha and dirty flag, perfbench's host
facts, every end-to-end value with its median and quartiles, and the
traced run's per-layer metrics.  Lines are appended only once every run
has finished with ``correct: true`` and ``failed: 0``; a run that does not
stops the script, names the root, workload and run, and appends nothing.

With two roots, each end-to-end metric is judged by the ``better`` and
``bound`` of ``BENCHMARK.json``: ``worse`` when the second root's median
moves the wrong way by more than the bound, ``unresolved`` when the first
root's interquartile spread is wider than the bound (unless every run of
the second root reads better than every run of the first), else ``ok``.
The script exits 1 when a metric is ``worse`` or a run failed.

Uses the standard library only and never imports ``repro``.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
HISTORY = HERE / "PERF_HISTORY.jsonl"
DECLARED = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric for metric in DECLARED["end_to_end"]}
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]

#: Lines of a failed run's stderr quoted in the error.
STDERR_TAIL = 20


class RunError(Exception):
    """A perfbench run that exited non-zero or did not pass its checks."""


def git_facts(root: Path) -> dict:
    """The root's HEAD sha and whether its tracked tree differs from it."""

    def git(*args):
        done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if status is None else bool(status)}


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int, label: str):
    """One perfbench run: ``(info, result)``, its ``perfbench:`` line and result line."""
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
    if done.returncode != 0:
        raise RunError(f"{label}: perfbench exited {done.returncode}; stderr tail:\n{tail}")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        info = next(json.loads(line[len("perfbench:"):]) for line in reversed(lines)
                    if line.startswith("perfbench:"))
    except (IndexError, StopIteration, ValueError) as error:
        raise RunError(f"{label}: unreadable perfbench output ({error}); stderr tail:\n{tail}")
    if result.get("correct") is not True or result.get("failed") != 0:
        raise RunError(f"{label}: correct={result.get('correct')}, failed={result.get('failed')}"
                       f" of {result.get('attempted')}; perfbench: {json.dumps(info)}")
    return info, result


def spread(values) -> dict:
    """Median and quartiles of ``values``."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def record(workload, args, facts, started, runs, traced) -> dict:
    """The history line of one (root, workload)."""
    results = [result for _, result in runs] + [traced[1]]
    end_to_end = {}
    for name in END_TO_END:
        values = [result["metrics"][name]["value"] for _, result in runs]
        end_to_end[name] = {"values": values, **spread(values)}
    return {
        "schema": 2,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        **facts,
        "host": runs[0][0].get("host"),
        "created_utc": started,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "correct": all(result["correct"] for result in results),
        "end_to_end": end_to_end,
        "per_layer": {name: metric["value"] for name, metric in traced[1]["metrics"].items()},
    }


def verdict(name: str, first: dict, second: dict):
    """``(relative change, relative spread of first, verdict)`` of one metric."""
    better, bound = END_TO_END[name]["better"], END_TO_END[name]["bound"]
    sign = 1.0 if better == "higher" else -1.0
    base = first["median"]
    change = (second["median"] - base) / base if base else 0.0
    width = (first["q3"] - first["q1"]) / base if base else 0.0
    dominates = min(sign * v for v in second["values"]) > max(sign * v for v in first["values"])
    if width > bound and not dominates:
        return change, width, "unresolved"
    if sign * change < -bound:
        return change, width, "worse"
    return change, width, "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat for several; default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to run; give two to compare (default: this one)")
    args = parser.parse_args(argv)
    roots = [root.resolve() for root in args.root or [HERE]]
    if len(roots) > 2 or args.pairs < 1:
        parser.error("give one or two --root and --pairs >= 1")
    workloads = args.workload or WORKLOADS
    facts = [git_facts(root) for root in roots]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    lines, rows = [], []
    try:
        for workload in workloads:
            runs = [[] for _ in roots]
            for pair in range(args.pairs):
                order = range(len(roots)) if pair % 2 == 0 else reversed(range(len(roots)))
                for side in order:
                    label = f"{roots[side]} {workload} run {pair + 1}/{args.pairs}"
                    runs[side].append(
                        perfbench(roots[side], workload, args.seed, args.seconds, 0, label))
                    ops = runs[side][-1][1]["metrics"]["ops_per_s"]["value"]
                    print(f"record: {label}: ops_per_s {ops:.3f}", file=sys.stderr)
            records = []
            for side, root in enumerate(roots):
                traced = perfbench(root, workload, args.seed, args.seconds, 1,
                                   f"{root} {workload} traced run")
                records.append(record(workload, args, facts[side], started, runs[side], traced))
            lines += records
            if len(records) == 2:
                first, second = (r["end_to_end"] for r in records)
                rows += [(f"{workload}.{name}", first[name]["median"], second[name]["median"],
                          *verdict(name, first[name], second[name])) for name in END_TO_END]
    except RunError as error:
        print(f"record: {error}\nrecord: nothing appended to {HISTORY}", file=sys.stderr)
        return 1

    with open(HISTORY, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"record: appended {len(lines)} line(s) to {HISTORY}", file=sys.stderr)
    if not rows:
        return 0
    print(f"{'metric':<30} {'first':>12} {'second':>12} {'change':>8} {'spread':>8}  verdict")
    for name, first, second, change, width, word in rows:
        print(f"{name:<30} {first:>12.4g} {second:>12.4g} {change:>+8.1%} {width:>8.1%}  {word}")
    worse = [name for name, *_, word in rows if word == "worse"]
    if worse:
        print(f"record: worse beyond the bound: {', '.join(worse)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
