"""``benchmarks/record.py``: run order, history lines, refusals and the A/B verdict.

Every root here is a temporary checkout whose ``perfbench/run.py`` is a stub
that prints canned ``perfbench:`` and result lines; the recorder itself is
copied into a temporary checkout, so no test touches this repository's
``PERF_HISTORY.jsonl``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in DECLARED["end_to_end"]]
PER_LAYER = {metric["name"]: 0.5 for metric in DECLARED["per_layer"]}
HOST = {"nproc": 2, "affinity": [0, 1], "python": "3.x", "numpy": "2.x"}

#: The perfbench stand-in.  ``stub.json`` next to it sets, per root, the
#: exit code and verdict of the workloads in ``bad`` (all by default) and
#: a list of values per end-to-end metric; the n-th untraced run of the
#: root reports the n-th value (cycling).  Every call is logged to
#: ``calls.jsonl`` beside the roots.
STUB = """\
import json, sys
from pathlib import Path
import repro

root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
workload, trace = args[args.index("--workload") + 1], args[args.index("--trace") + 1]
config = json.loads((root / "stub.json").read_text())
log = root.parent / "calls.jsonl"
calls = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
runs = sum(c["root"] == root.name and c["trace"] == "0" for c in calls)
with open(log, "a") as handle:
    handle.write(json.dumps({"root": root.name, "workload": workload, "trace": trace,
                             "repro": repro.__file__}) + "\\n")
bad = config["bad"] is None or workload in config["bad"]
print("perfbench:", json.dumps({"host": config["host"]}))
if bad and config["exit"]:
    print("stub stderr boom", file=sys.stderr)
    sys.exit(config["exit"])
if trace == "1":
    metrics = config["per_layer"]
else:
    metrics = {name: values[runs % len(values)] for name, values in config["values"].items()}
print(json.dumps({
    "correct": config["correct"] or not bad, "attempted": 10,
    "failed": config["failed"] if bad else 0,
    "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
}))
"""

BASE = {"setup_s": 0.25, "ops_per_s": 40.0, "traces_per_s": 1e6,
        "latency_p50_s": 0.02, "latency_tail_s": 0.05, "peak_rss_mb": 50.0}


def make_root(tmp_path: Path, name: str, exit=0, correct=True, failed=0, bad=None,
              **values) -> Path:
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("")
    (root / "perfbench" / "run.py").write_text(STUB)
    metrics = {metric: [value] for metric, value in BASE.items()}
    metrics.update(values)
    config = {"exit": exit, "correct": correct, "failed": failed, "bad": bad, "host": HOST,
              "values": metrics, "per_layer": PER_LAYER}
    (root / "stub.json").write_text(json.dumps(config))
    return root


@pytest.fixture
def checkout(tmp_path):
    here = tmp_path / "checkout"
    (here / "benchmarks").mkdir(parents=True)
    shutil.copy(REPO / "benchmarks" / "record.py", here / "benchmarks")
    shutil.copy(REPO / "BENCHMARK.json", here)
    return here


def record(checkout, *roots, pairs=2, workloads=("sbox_verdict",)):
    """Run the recorder: ``(completed process, history lines)``."""
    command = [sys.executable, str(checkout / "benchmarks" / "record.py"),
               "--seed", "3", "--seconds", "0.5", "--pairs", str(pairs)]
    for workload in workloads:
        command += ["--workload", workload]
    for root in roots:
        command += ["--root", str(root)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    history = checkout / "PERF_HISTORY.jsonl"
    lines = history.read_text().splitlines() if history.exists() else []
    return done, [json.loads(line) for line in lines]


def calls(tmp_path):
    return [json.loads(line) for line in (tmp_path / "calls.jsonl").read_text().splitlines()]


def verdicts(stdout: str) -> dict:
    """``workload.metric -> verdict`` from the printed table."""
    rows = [line.split() for line in stdout.splitlines()[1:]]
    return {row[0]: row[-1] for row in rows}


def test_runs_alternate_parent_and_change_then_trace_each_root(checkout, tmp_path):
    parent, change = make_root(tmp_path, "parent"), make_root(tmp_path, "change")
    done, lines = record(checkout, parent, change, pairs=4,
                         workloads=("sbox_verdict", "design_sweep"))
    assert done.returncode == 0, done.stderr
    abba = [("parent", "0"), ("change", "0"), ("change", "0"), ("parent", "0")] * 2
    order = abba + [("parent", "1"), ("change", "1")]
    assert [(c["workload"], c["root"], c["trace"]) for c in calls(tmp_path)] == [
        (workload, root, trace) for workload in ("sbox_verdict", "design_sweep")
        for root, trace in order
    ]
    assert [(line["workload"], line["attempted"]) for line in lines] == [
        ("sbox_verdict", 50), ("sbox_verdict", 50), ("design_sweep", 50), ("design_sweep", 50)]


def test_each_run_imports_repro_from_its_own_root(checkout, tmp_path):
    parent, change = make_root(tmp_path, "parent"), make_root(tmp_path, "change")
    done, _ = record(checkout, parent, change)
    assert done.returncode == 0, done.stderr
    for call in calls(tmp_path):
        expected = tmp_path / call["root"] / "src" / "repro" / "__init__.py"
        assert Path(call["repro"]).resolve() == expected.resolve()


def test_history_line_fields(checkout, tmp_path):
    root = make_root(tmp_path, "solo", ops_per_s=[10.0, 30.0, 20.0])
    git = ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                         text=True).stdout.strip()

    done, lines = record(checkout, root, pairs=3)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""  # one root: no comparison table
    (line,) = lines
    assert line["workload"] == "sbox_verdict"
    assert (line["seed"], line["seconds"]) == (3, 0.5)
    assert (line["git_sha"], line["git_dirty"]) == (sha, False)
    assert line["host"] == HOST
    assert line["created_utc"].endswith("+00:00")
    assert (line["attempted"], line["failed"], line["correct"]) == (40, 0, True)
    assert set(line["end_to_end"]) == set(END_TO_END)
    assert line["end_to_end"]["ops_per_s"] == {
        "values": [10.0, 30.0, 20.0], "median": 20.0, "q1": 15.0, "q3": 25.0}
    assert line["end_to_end"]["setup_s"]["values"] == [0.25] * 3
    assert line["per_layer"] == PER_LAYER

    (root / "stub.json").write_text((root / "stub.json").read_text() + "\n")
    _, lines = record(checkout, root, pairs=1)
    assert lines[-1]["git_dirty"] is True


@pytest.mark.parametrize(
    "failure, message",
    [({"exit": 3}, "perfbench exited 3"),
     ({"correct": False}, "correct=False, failed=0 of 10"),
     ({"failed": 1}, "correct=True, failed=1 of 10")],
)
def test_a_failed_run_stops_the_script_and_appends_nothing(checkout, tmp_path, failure,
                                                            message):
    # The first workload passes; the change fails on the second.
    parent = make_root(tmp_path, "parent")
    change = make_root(tmp_path, "change", bad=["design_sweep"], **failure)
    done, lines = record(checkout, parent, change, workloads=("sbox_verdict", "design_sweep"))
    assert done.returncode == 1
    assert lines == []
    assert f"{change.resolve()} design_sweep run 1/2: {message}" in done.stderr
    assert "nothing appended" in done.stderr
    if "exit" in failure:
        assert "stub stderr boom" in done.stderr
    # The failure stops the script: no run after it.
    assert [(c["workload"], c["root"]) for c in calls(tmp_path)][-2:] == [
        ("design_sweep", "parent"), ("design_sweep", "change")]
    assert len(calls(tmp_path)) == 8


def test_halved_ops_per_s_fails_and_names_the_metric(checkout, tmp_path):
    parent = make_root(tmp_path, "parent")
    change = make_root(tmp_path, "change", ops_per_s=[20.0])
    done, lines = record(checkout, parent, change, workloads=("design_sweep",))
    assert done.returncode == 1
    assert verdicts(done.stdout)["design_sweep.ops_per_s"] == "worse"
    assert "worse beyond the bound: design_sweep.ops_per_s" in done.stderr
    assert len(lines) == 2  # the records are kept; only the verdict fails


@pytest.mark.parametrize(
    "values",
    [{},
     {"ops_per_s": [80.0], "traces_per_s": [2e6], "latency_p50_s": [0.01],
      "latency_tail_s": [0.025], "setup_s": [0.1], "peak_rss_mb": [30.0]}],
    ids=["identical", "improved"],
)
def test_identical_and_improved_results_pass(checkout, tmp_path, values):
    parent, change = make_root(tmp_path, "parent"), make_root(tmp_path, "change", **values)
    done, _ = record(checkout, parent, change)
    assert done.returncode == 0, done.stderr
    assert verdicts(done.stdout) == {f"sbox_verdict.{name}": "ok" for name in END_TO_END}


@pytest.mark.parametrize(
    "metric, value, verdict",
    [("latency_p50_s", 0.04, "worse"),
     ("latency_tail_s", 0.03, "ok"),
     ("peak_rss_mb", 60.0, "worse"),
     ("peak_rss_mb", 55.0, "ok"),
     ("traces_per_s", 0.5e6, "worse"),
     ("traces_per_s", 2e6, "ok")],
)
def test_each_metric_is_judged_in_its_own_direction(checkout, tmp_path, metric, value, verdict):
    parent = make_root(tmp_path, "parent")
    change = make_root(tmp_path, "change", **{metric: [value]})
    done, _ = record(checkout, parent, change)
    assert verdicts(done.stdout)[f"sbox_verdict.{metric}"] == verdict
    assert done.returncode == (1 if verdict == "worse" else 0)


def test_a_wide_parent_spread_is_unresolved(checkout, tmp_path):
    parent = make_root(tmp_path, "parent", ops_per_s=[20.0, 40.0, 60.0])
    slower = make_root(tmp_path, "slower", ops_per_s=[25.0])
    done, _ = record(checkout, parent, slower, pairs=3)
    assert done.returncode == 0, done.stderr
    assert verdicts(done.stdout)["sbox_verdict.ops_per_s"] == "unresolved"

    # Unless every run of the change beats every run of the parent.
    faster = make_root(tmp_path, "faster", ops_per_s=[70.0])
    done, _ = record(checkout, parent, faster, pairs=3)
    assert verdicts(done.stdout)["sbox_verdict.ops_per_s"] == "ok"
