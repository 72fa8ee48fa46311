"""The repository benchmark: design verdicts per second, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sbox_verdict --seed 1 --seconds 30 --trace 0

One op is one design taken to its verdict through ``repro.flow.DesignFlow``;
a single client sends ops in a closed loop (the next op starts when the
previous one has finished).  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` replays the workload with spans recorded
around each module's public calls and prints the per-layer metrics.  Every
op's verdict is checked against the paper's claims, and path-identity
guards run outside the timed phase.  The last line of standard output is
the result object.  See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""

import time

# Set-up time (``setup_s``) counts from here.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, Iterator, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sbox_verdict", "sharded_wide", "design_sweep")

#: Extra set-ups run in child processes; ``setup_s`` is the median of
#: these and the benchmark's own set-up.
SETUP_PROBES = 6

#: A set-up probe takes under 2 s.  One that runs past this is stuck (a
#: forked pool worker has been seen to hang in a futex wait, about once in
#: a few hundred probes): it is killed with everything it started and run
#: again, at most ``PROBE_RETRIES`` times in a run.
PROBE_TIMEOUT_S = 30
PROBE_RETRIES = 2

#: Per-layer metrics that come from the parent-side traced run even on
#: ``sharded_wide`` (everything else there comes from the in-process
#: replay, because engine workers are invisible to the parent's spans).
PARENT_SIDE = ("engine.map_s", "engine.shards", "flow.other_s", "store.get_s",
               "store.put_s", "store.hit_ratio", "store.bytes_written")

#: ``(metric, layer)`` of the self-time-per-op metrics.
SELF_TIME = (
    ("core.synthesis_s", "core.synthesis"),
    ("core.verify_s", "core.verify"),
    ("sabl.map_s", "sabl.map"),
    ("layout.place_route_s", "layout.place_route"),
    ("kernel.compile_s", "kernel.compile"),
    ("kernel.energies_s", "kernel.energies"),
    ("power.acquire_s", "power.acquire"),
    ("power.dpa_s", "power.dpa"),
    ("assess.update_s", "assess.update"),
    ("assess.finalize_s", "assess.finalize"),
    ("engine.map_s", "engine.map"),
    ("store.get_s", "store.get"),
    ("store.put_s", "store.put"),
    ("flow.other_s", "flow.op"),
)

#: The metrics this benchmark declares, with their units.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


#: Seconds :func:`calibration` takes on the reference host (its median on a
#: shared 2-vCPU virtual machine, Python 3.11.7, numpy 2.4.6).  End-to-end
#: times are reported at this host speed; see :func:`host_scaled`.
REFERENCE_CALIBRATION_S = 0.05


@dataclass
class Record:
    op: object
    latency: float
    outcome: object
    calibration: float = 0.0


def host_facts() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def calibration(cpu: Optional[int] = None) -> float:
    """Seconds of a fixed interpreter-and-numpy loop that runs no repository
    code: a gauge of how fast the shared host is right now.

    The host's speed drifts by up to 1.5x within seconds and for minutes at
    a time, in every op class at once (see ``perfbench/README.md``); timing
    this loop next to the ops lets the benchmark take that drift out.
    ``cpu`` pins the loop to that CPU: the two CPUs drift independently.
    """
    import numpy

    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        tick = time.perf_counter()
        total = 0
        for value in range(375_000):
            total += value * value % 7
        array = numpy.arange(100_000, dtype=numpy.float64)
        for _ in range(30):
            array = numpy.sqrt(array * 1.0001 + 1.0)
            numpy.sort(array[::-1])
        return time.perf_counter() - tick
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, allowed)


def op_calibration(op) -> float:
    """The calibration that goes with ``op``: on the CPU the benchmark runs
    on for a serial op, the mean over every CPU for a parallel one, whose
    workers run on all of them."""
    if op.config.execution.workers < 2:
        return calibration()
    cpus = sorted(os.sched_getaffinity(0))
    return statistics.fmean(calibration(cpu) for cpu in cpus)


def host_scaled(blocks: List[List[Record]]) -> List[float]:
    """Each op's latency at the reference host speed.

    An op's latency is scaled by ``REFERENCE_CALIBRATION_S`` over the median
    calibration of its block, which ran interleaved with the block's ops.
    """
    scaled = []
    for block in blocks:
        factor = REFERENCE_CALIBRATION_S / statistics.median(r.calibration for r in block)
        scaled += [r.latency * factor for r in block]
    return scaled


# -------------------------------------------------------------------- set-up


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first op: imports, pool or store, the op list.

    Returns ``(blocks, first)``: an endless iterator of op blocks and its
    first block, already built.
    """
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if workload == "sharded_wide":
        cpus = len(os.sched_getaffinity(0))
        if cpus < workloads.SHARDED_WORKERS:
            raise workloads.BenchError(
                f"sharded_wide needs {workloads.SHARDED_WORKERS} CPUs, this process "
                f"may use {cpus}; refusing to record oversubscribed numbers"
            )
        from multiprocessing import resource_tracker

        from repro.engine import warm_pool

        # Shared-memory results register with a resource tracker process.
        # Started here, before the pool forks, it is the one tracker every
        # worker inherits; otherwise each worker spawns its own, which
        # outlives the terminated worker.  ``stop_children`` ends it.
        resource_tracker.ensure_running()
        warm_pool(workloads.SHARDED_WORKERS)
    workdir.mkdir(parents=True)
    blocks = workloads.iter_blocks(workload, seed, str(workdir))
    return blocks, next(blocks)


def workdir_of(workload: str, pid: int) -> Path:
    """The scratch directory of the benchmark process ``pid``."""
    return ROOT / ".perfbench_work" / f"{workload}-{pid}"


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL ``process`` and every process in its group, then wait for them."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group has already exited
        pass
    process.communicate()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def probe_setup(workload: str, seed: int) -> Tuple[List[Tuple[float, float]], int]:
    """``(set-up seconds, calibration seconds)`` of ``SETUP_PROBES`` fresh
    benchmark processes, and how many stuck probes were killed and re-run.

    Each probe runs in a session of its own, so a stuck one is killed
    together with its pool workers and resource tracker.
    """
    probes, retried = [], 0
    while len(probes) < SETUP_PROBES:
        probe = subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = probe.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException as error:
            kill_group(probe)
            shutil.rmtree(workdir_of(workload, probe.pid), ignore_errors=True)
            if not isinstance(error, subprocess.TimeoutExpired):
                raise
            retried += 1
            if retried > PROBE_RETRIES:
                raise RuntimeError(f"{retried} set-up probes stuck past {PROBE_TIMEOUT_S} s")
            continue
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {probe.returncode}: {err[-500:]}")
        setup_s, calibration_s = out.split()[-2:]
        probes.append((float(setup_s), float(calibration_s)))
    return probes, retried


# ------------------------------------------------------------------- running


def run_block(block: List[object], tracer=None, calibrate: bool = False) -> List[Record]:
    """Run one block of ops in a closed loop, one client.

    Only ``execute`` is timed: the verdict check after each op is outside
    its latency, and so is the :func:`calibration` before it (``calibrate``).
    """
    import workloads

    records = []
    for op in block:
        calibration_s = op_calibration(op) if calibrate else 0.0
        span = None
        if tracer is not None:
            tracer.op = op.index
            span = tracer.begin("flow.op")
        tick = time.perf_counter()
        try:
            flow = workloads.execute(op)
        except Exception as error:  # an op that raises is a failed op
            flow, reason = None, f"{type(error).__name__}: {error}"
        latency = time.perf_counter() - tick
        if span is not None:
            tracer.end(span)
        if flow is None:
            outcome = workloads.Outcome(ok=False, reason=reason)
        else:
            outcome = workloads.check(op, flow)
        records.append(Record(op, latency, outcome, calibration_s))
    return records


def timed_blocks(first: List[object], rest: Iterator[List[object]], seconds: float):
    """Whole blocks until ``seconds`` of wall time have passed."""
    started = time.perf_counter()
    yield first
    for block in rest:
        if time.perf_counter() - started >= seconds:
            return
        yield block


def guard(workload: str, records: List[Record]) -> None:
    """Path-identity guards, run after the timed phase."""
    import workloads

    if workload == "sharded_wide":
        # The first 2-S-box op of each kind: the cheapest serial re-run.
        for kind in ("tvla", "traces"):
            first = next(
                r for r in records
                if r.op.kind == kind and r.op.config.scenario.params["sboxes"] == 2
                and r.outcome.ok
            )
            workloads.sharded_guard(first.op, first.outcome)
    elif workload == "design_sweep":
        writers = {r.op.index: r.outcome for r in records if r.op.repeat_of is None}
        for record in records:
            if record.op.repeat_of is not None and record.outcome.ok:
                workloads.hit_guard(record.op, record.outcome, writers)


def summary(records: List[Record]) -> Dict[str, object]:
    failures = [f"op {r.op.index}: {r.outcome.reason}" for r in records if not r.outcome.ok]
    ranks = [rank for r in records for rank in r.outcome.ranks]
    return {
        "ops": len(records),
        "constant_power_ops": sum(r.op.expect_leak is False for r in records),
        "leaking_ops": sum(r.op.expect_leak is True for r in records),
        "unpredicted_ops": sum(r.op.expect_leak is None for r in records),
        "store_hit_ops": sum(r.op.repeat_of is not None for r in records),
        "dpa_rank_median": statistics.median(ranks) if ranks else None,
        "failures": failures[:5],
    }


def result_line(correct: bool, records: List[Record], metrics: Dict[str, float], kind: str) -> str:
    """The result object; ``metrics`` must be exactly the declared ``kind`` set."""
    units = {metric["name"]: metric["unit"] for metric in DECLARED[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from the declared {sorted(units)}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": len(records),
            "failed": sum(not r.outcome.ok for r in records),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def output_path(kind: str, workload: str, seed: int) -> Path:
    """A fresh file under ``.perfbench_out`` for this run's ``kind`` records."""
    path = ROOT / ".perfbench_out" / f"{kind}-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(exist_ok=True)
    path.unlink(missing_ok=True)
    return path


def write_ops(path: Path, blocks: List[List[Record]]) -> None:
    """One line per op: its block, kind, design and latency."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, block in enumerate(blocks):
            for r in block:
                row = {
                    "block": number,
                    "op": r.op.index,
                    "kind": r.op.kind,
                    "design": r.op.label,
                    "sboxes": r.op.config.scenario.params.get("sboxes", 1),
                    "router": r.op.config.layout.router,
                    "repeat_of": r.op.repeat_of,
                    "latency_s": r.latency,
                    "calibration_s": r.calibration,
                    "ok": r.outcome.ok,
                }
                handle.write(json.dumps(row) + "\n")


def mixed(records: List[Record]) -> bool:
    return {True, False} <= {r.op.expect_leak for r in records}


# ----------------------------------------------------------- end-to-end run


def end_to_end(workload: str, seed: int, seconds: float, first, rest, own_setup) -> str:
    """Every end-to-end time is scaled to the reference host speed
    (:func:`host_scaled`); the ``perfbench:`` line keeps the raw figures."""
    blocks = [run_block(block, calibrate=True) for block in timed_blocks(first, rest, seconds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    records = [record for block in blocks for record in block]
    guard(workload, records)
    probes, probes_retried = probe_setup(workload, seed)
    probes.insert(0, own_setup)
    setups = [setup_s * REFERENCE_CALIBRATION_S / calibration_s for setup_s, calibration_s in probes]
    ops_path = output_path("ops", workload, seed)
    write_ops(ops_path, blocks)

    latencies = sorted(host_scaled(blocks))
    count = len(latencies)
    if count < 11:
        raise RuntimeError(f"only {count} ops ran; the tail needs at least 11")
    # The highest percentile with at least ten ops beyond it.
    tail_rank = count - 10
    busy = sum(latencies)
    info = summary(records)
    info.update(
        blocks=len(blocks),
        tail_percentile=round(100.0 * tail_rank / count, 1),
        tail_ops_beyond=count - tail_rank,
        raw_latency_p50_s=statistics.median(r.latency for r in records),
        raw_setup_runs_s=[round(setup_s, 4) for setup_s, _ in probes],
        setup_probes_retried=probes_retried,
        calibration_p50_s=statistics.median(r.calibration for r in records),
        host=host_facts(),
        ops_file=str(ops_path.relative_to(ROOT)),
    )
    print("perfbench:", json.dumps(info))
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": count / busy,
        "traces_per_s": sum(r.op.traces for r in records) / busy,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[tail_rank - 1],
        "peak_rss_mb": peak_rss_mb,
    }
    correct = all(r.outcome.ok for r in records) and mixed(records)
    return result_line(correct, records, metrics, "end_to_end")


# ---------------------------------------------------------------- traced run


def layer_metrics(tracer, records: List[Record]) -> Dict[str, float]:
    count = len(records)
    self_time = tracer.self_times()
    metrics = {name: self_time.get(layer, 0.0) / count for name, layer in SELF_TIME}
    simulated = tracer.counts["kernel.traces"]
    kernel_time = sum(tracer.durations("kernel.energies").values())
    metrics["kernel.tps"] = simulated / kernel_time if kernel_time else 0.0
    metrics["kernel.fold_share"] = tracer.counts["kernel.folded"] / simulated if simulated else 0.0
    metrics["engine.shards"] = tracer.counts["engine.shards"] / count
    lookups = tracer.counts["store.lookups"]
    metrics["store.hit_ratio"] = tracer.counts["store.hits"] / lookups if lookups else 0.0
    return metrics


def run_traced(block: List[object], tracer) -> List[Record]:
    tracer.install()
    try:
        return run_block(block, tracer)
    finally:
        tracer.uninstall()


def traced(workload: str, seed: int, seconds: float, first, rest, workdir: Path) -> str:
    """Per-layer run: every block runs untraced and traced, in alternating
    order; ``design_sweep`` adds a third arm with the program's tracing off.
    Each arm has its own store, so hits and misses repeat exactly."""
    import workloads
    from repro.engine.store import ArtifactStore
    from repro.flow.config import ObservabilityConfig
    from tracing import Tracer

    sweep = workload == "design_sweep"
    traced_store = str(workdir / "store-traced")
    plain_store = str(workdir / "store-plain")

    def traced_arm(block):
        if sweep:
            block = [workloads.with_store(op, traced_store) for op in block]
        return run_traced(block, tracer)

    def plain_arm(block):
        return run_block(
            [workloads.with_obs(workloads.with_store(op, plain_store), ObservabilityConfig())
             for op in block]
        )

    tracer = Tracer()
    arms = {"untraced": run_block, "traced": traced_arm}
    if sweep:
        arms["plain"] = plain_arm
    results: Dict[str, List[Record]] = {name: [] for name in arms}
    ran = []
    for index, block in enumerate(timed_blocks(first, rest, seconds)):
        ran.append(block)
        order = list(arms) if index % 2 == 0 else list(reversed(arms))
        for name in order:
            results[name] += arms[name](block)

    def wall(name):
        return sum(r.latency for r in results[name])

    records = [record for arm in results.values() for record in arm]
    metrics = layer_metrics(tracer, results["traced"])
    metrics["bench.trace_overhead_ratio"] = wall("traced") / wall("untraced")
    metrics["obs.overhead_ratio"] = wall("untraced") / wall("plain") if sweep else 1.0
    metrics["store.bytes_written"] = (
        ArtifactStore(traced_store).stats()["bytes"] / len(results["traced"]) if sweep else 0.0
    )
    metrics["engine.parallel_eff"] = 0.0
    spans_path = output_path("spans", workload, seed)
    tracer.write(str(spans_path), "traced")

    if workload == "sharded_wide":
        # Engine workers are invisible to the parent's spans: replay the
        # first block in-process with the engine off, which does the same
        # circuits' kernel and assess work where the spans can see it.
        replay = Tracer()
        replayed = run_traced([workloads.with_execution(op) for op in ran[0]], replay)
        replay.write(str(spans_path), "replay")
        records += replayed
        engine_wall = tracer.durations("engine.map")
        metrics["engine.parallel_eff"] = sum(r.latency for r in replayed) / (
            workloads.SHARDED_WORKERS * sum(engine_wall[op.index] for op in ran[0])
        )
        metrics.update(
            (name, value)
            for name, value in layer_metrics(replay, replayed).items()
            if name not in PARENT_SIDE
        )

    info = summary(records)
    info.update(blocks=len(ran), host=host_facts(), spans=str(spans_path.relative_to(ROOT)))
    print("perfbench:", json.dumps(info))
    correct = all(r.outcome.ok for r in records) and mixed(records)
    return result_line(correct, records, metrics, "per_layer")


# ---------------------------------------------------------------------- main


def stop_children() -> None:
    """End the worker pool, then the resource tracker, and wait for both.

    The tracker stops when its pipe closes, which needs the pool's workers
    (they hold the pipe too) gone first.
    """
    if "repro.engine" in sys.modules:
        sys.modules["repro.engine"].shutdown_pools()
    if "multiprocessing.resource_tracker" in sys.modules:
        sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    main_pid = os.getpid()

    def terminated(signum, frame):
        # SIGTERM unwinds through the ``finally`` below, so the pool and
        # the tracker are stopped on that path out too.  A worker forked
        # after this was installed dies as it would have without it.
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    workdir = workdir_of(args.workload, main_pid)
    try:
        blocks, first = setup(args.workload, args.seed, workdir)
        # Installed only now, after the warm pool has forked: its workers
        # keep the default SIGTERM, which ends them even when they are
        # stuck where a Python-level handler never gets to run.
        signal.signal(signal.SIGTERM, terminated)
        own_setup = (time.perf_counter() - _STARTED, calibration())
        if args.setup_probe:
            print(*own_setup)
            return 0
        if args.trace:
            line = traced(args.workload, args.seed, args.seconds, first, blocks, workdir)
        else:
            line = end_to_end(args.workload, args.seed, args.seconds, first, blocks, own_setup)
    except RuntimeError as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 2
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
