"""The benchmark: one seeded workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Every timing is CPU time of this process (`time.process_time`).  The ops
are single-threaded and do no I/O, so CPU time is their service time; wall
time on a shared machine also counts preemption by other tenants.  Host
load still slows CPU time, by 30-50% within seconds and as much over
minutes, so every timing is rescaled by the speed of a fixed calibration
kernel run just before and just after it (see speed.py): the metrics read
as CPU times on a machine of fixed speed.  Each op runs in several passes
spread over the run (at least three, or two for exact-solve), and an op's
latency is the median of its rescaled timings.  In the timed phase every op
starts from a full garbage collection, and an op shorter than SHORT_OP_S is
timed over a batch of back-to-back calls after one warm-up call, so that no
timing hinges on what the op before it left behind.  The report line also
gives the raw figures (the least raw timing of each op, and all raw
timings).

Set-up imports the library from src/ of this checkout and generates the
seeded inputs, several times, each between two calibrations; `setup_s` is
the median of the rescaled times.  The timed phase runs whole passes over
the workload's op list, each op starting when the previous one ended, until
another pass would overrun --seconds of wall time (at least the workload's
minimum number of passes).  Each op runs under a fixed deadline
enforced with SIGALRM in this thread; an overrun, an exception (such as
RecursionError) or a wrong answer fails the op without stopping the run.
Answers are checked after each op, outside its timing.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one plain pass and
one pass with spans around every call into the library (see tracing.py),
plus, for detect-nearmiss, the slow and failing probe instances, and prints
the per-layer metrics (raw CPU time of the one traced pass).  The last line
of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it is a report with sample counts, input sizes
and the environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLOCK = time.process_time
DEADLINE_S = 10.0   # wall time, enforced with SIGALRM
SETUP_REPS = 5
SHORT_OP_S = 0.005  # timed ops shorter than this are timed in batches
MAX_BATCH = 100
LIBRARY_MODULES = ("model", "detector", "bounds", "constructions", "oracle")
SPANS_DIR = ROOT / ".perfbench"


class Overrun(BaseException):
    """Raised in the running op when its deadline passes."""


def _on_alarm(signum, frame):
    raise Overrun()


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    kinds: dict = field(default_factory=dict)   # failure kind -> count
    notes: dict = field(default_factory=dict)   # observed defect -> count
    first_wrong: str = ""
    failed_ops: set = field(default_factory=set)   # keys of ops that failed at least once
    overruns: set = field(default_factory=set)     # positions of overrun timings
    calls: int = 0                                 # library call chains run

    def count(self, table: dict, key: str) -> None:
        table[key] = table.get(key, 0) + 1


def run_op(op, tally: Tally, tracer=None, deadline_s: float = DEADLINE_S,
           batch: bool = False) -> str:
    """Run one op under the deadline, check its answer, and tally it.

    With `batch`, an op whose call took less than SHORT_OP_S is timed again
    over a batch of back-to-back calls lasting about SHORT_OP_S, and its
    timing is their mean: the first call is its warm-up, so the timing does
    not hinge on what the previous op left in the caches.

    Returns "ok", "wrong", "Overrun" or the exception's type name."""
    tally.attempted += 1
    if tracer is not None:
        tracer.active = True
    start = CLOCK()
    outcome = "ok"
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            answer = op.run()
            tally.calls += 1
            elapsed = CLOCK() - start
            if batch and elapsed < SHORT_OP_S:
                calls = min(MAX_BATCH, math.ceil(SHORT_OP_S / max(elapsed, 1e-6)))
                start = CLOCK()
                for _ in range(calls):
                    answer = op.run()
                elapsed = (CLOCK() - start) / calls
                tally.calls += calls
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Overrun:
        outcome, elapsed = "Overrun", deadline_s
        tally.overruns.add(len(tally.latencies))
    except Exception as exc:  # the op failed; the run goes on
        outcome, elapsed = type(exc).__name__, CLOCK() - start
    finally:
        if tracer is not None:
            tracer.active = False
    tally.latencies.append(elapsed)
    if outcome == "ok":
        verdict = op.check(answer)
        for note in verdict.notes:
            tally.count(tally.notes, note)
        if verdict.wrong is not None:
            outcome = "wrong"
            tally.wrong += 1
            tally.first_wrong = tally.first_wrong or f"{op.key}: {verdict.wrong}"
    if outcome != "ok":
        tally.failed += 1
        tally.failed_ops.add(op.key)
        tally.count(tally.kinds, outcome)
    return outcome


def load_library():
    """Import the library from src/ of this checkout, freshly each time."""
    src = ROOT / "src"
    if not (src / "rainbow_stars" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "rainbow_stars" or m.startswith("rainbow_stars.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"rainbow_stars.{name}") for name in LIBRARY_MODULES})


def set_up(name: str, seed: int, tiny: bool):
    """Import plus seeded input generation, SETUP_REPS times, each between
    two calibration points; the last one is used.  Returns (lib, workload,
    raw seconds of each repetition, their speed factors)."""
    times, log = [], speed.SpeedLog()
    for rep in range(SETUP_REPS):
        log.calibrate(rep)
        start = CLOCK()
        lib = load_library()
        workload = workloads.build(name, lib, random.Random(f"{name}/{seed}"), tiny)
        times.append(CLOCK() - start)
    log.calibrate(SETUP_REPS)
    return lib, workload, times, [log.scale(rep) for rep in range(SETUP_REPS)]


def run_passes(workload, tally: Tally, seconds: float, tracer=None, passes=None,
               log: speed.SpeedLog | None = None) -> float:
    """Whole passes over the op list; returns the summed op time.  With a
    speed log (the timed phase), short ops are batched (see run_op), each op
    starts from a full garbage collection (so the collector's state does not
    depend on which op ran before), and a calibration point is taken before
    any op that follows CALIBRATE_EVERY_S of CPU time since the last point,
    and after the last op."""
    done, spent, last_point = 0, 0.0, None
    wall = time.perf_counter()
    while True:
        before = len(tally.latencies)
        for op in workload.ops:
            if log is not None and (last_point is None
                                    or CLOCK() - last_point >= speed.CALIBRATE_EVERY_S):
                log.calibrate(len(tally.latencies))
                last_point = CLOCK()
            if log is not None:
                gc.collect()
            run_op(op, tally, tracer, batch=log is not None)
        spent += sum(tally.latencies[before:])
        done += 1
        used = time.perf_counter() - wall
        if passes is not None:
            stop = done >= passes
        else:
            stop = done >= workload.min_passes and used + used / done > seconds
        if stop:
            if log is not None:
                log.calibrate(len(tally.latencies))
            return spent


def rescaled(tally: Tally, log: speed.SpeedLog) -> list[float]:
    """Each timing rescaled to the reference speed; overruns stay at the
    deadline."""
    return [t if k in tally.overruns else t * log.scale(k)
            for k, t in enumerate(tally.latencies)]


def ops_per_s(tally: Tally, spent: float) -> float:
    return (tally.attempted - tally.failed) / spent if spent > 0 else 0.0


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[-1], f"max of {len(ordered)} (fewer than 11 samples)"
    return ordered[-11], f"p{100 * (len(ordered) - 10) / len(ordered):.2f}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(lib) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "dense_threshold": lib.model.DEFAULT_DENSE_THRESHOLD,
            "deadline_s": DEADLINE_S, "loop": "closed, 1 client, 1 thread"}


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    lib, workload, setup_times, setup_scales = set_up(name, seed, tiny)
    setup_rescaled = [t * f for t, f in zip(setup_times, setup_scales)]
    tally = Tally()
    signal.signal(signal.SIGALRM, _on_alarm)
    report = {"workload": name, "seed": seed, "inputs_sha256": workload.digest(),
              "inputs": workload.sizes, "environment": environment(lib),
              "setup_s_samples": [round(t, 6) for t in setup_rescaled],
              "setup_s_raw_samples": [round(t, 6) for t in setup_times]}
    if not trace:
        wall, log = time.perf_counter(), speed.SpeedLog()
        spent = run_passes(workload, tally, seconds, log=log)
        report["timed_wall_s"] = time.perf_counter() - wall
        report["timed_cpu_s"] = spent
        report["speed"] = log.summary()
        width = len(workload.ops)
        timings = rescaled(tally, log)
        best = [statistics.median(timings[k::width]) for k in range(width)]
        op_tail, percentile = tail(best)
        metrics = {
            "setup_s": (statistics.median(setup_rescaled), "s"),
            "ops_per_s": ((width - len(tally.failed_ops)) / sum(best), "1/s"),
            "op_p50_ms": (1000 * statistics.median(best), "ms"),
            "op_tail_ms": (1000 * op_tail, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        raw_best = [min(tally.latencies[k::width]) for k in range(width)]
        all_tail, all_percentile = tail(tally.latencies)
        report["raw_timings"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": (width - len(tally.failed_ops)) / sum(raw_best),
            "op_p50_ms": 1000 * statistics.median(raw_best),
            "op_tail_ms": 1000 * tail(raw_best)[0],
            "all_ops_per_s": ops_per_s(tally, spent),
            "all_op_p50_ms": 1000 * statistics.median(tally.latencies),
            "all_op_tail_ms": 1000 * all_tail, "all_tail_percentile": all_percentile}
        report.update({"op_samples": width, "op_tail_percentile": percentile,
                       "passes": len(tally.latencies) // width, "calls": tally.calls})
        if workload.name == "detect-nearmiss":
            report["ladder_best_s"] = {op.key: t for op, t in zip(workload.ops, best)}
    else:
        metrics = trace_metrics(lib, workload, tally, seed, tiny, report)
    report.update({"failed_frac": tally.failed / tally.attempted, "failure_kinds": tally.kinds,
                   "observed_defects": tally.notes, "first_wrong": tally.first_wrong})
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
              if not trace else metrics}
    return result, report


def trace_metrics(lib, workload, tally: Tally, seed: int, tiny: bool, report: dict) -> dict:
    plain = Tally()
    plain_spent = run_passes(workload, plain, 0, passes=1)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced = Tally()
        traced_spent = run_passes(workload, traced, 0, tracer=tracer, passes=1)
        timed_spans = len(tracer.spans)
        probes = {}
        if workload.name == "detect-nearmiss":
            for op in workloads.nearmiss_probes(lib, tiny):
                probe_tally = Tally()
                outcome = run_op(op, probe_tally, tracer)
                probes[op.key] = (f"{probe_tally.latencies[0]:.3f} s" if outcome == "ok"
                                  else outcome)
    finally:
        tracer.uninstall()
    peak = 0.0
    if workload.largest_text is not None:
        tracemalloc.start()
        try:
            lib.model.parse_edge_list(workload.largest_text)
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    tracer.write(SPANS_DIR / f"spans-{workload.name}-{seed}.jsonl")
    for part in (plain, traced):
        tally.latencies += part.latencies
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += part.wrong
        tally.first_wrong = tally.first_wrong or part.first_wrong
        for table, other in ((tally.kinds, part.kinds), (tally.notes, part.notes)):
            for key, value in other.items():
                table[key] = table.get(key, 0) + value
    report.update({"probes": probes, "spans": len(tracer.spans),
                   "untraced_pass_s": plain_spent, "traced_pass_s": traced_spent})
    return tracing.layer_metrics(tracer.spans, timed_spans, traced.notes.get("false_exact", 0),
                                 peak, ops_per_s(plain, plain_spent),
                                 ops_per_s(traced, traced_spent))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        rows.append((name, report, result))
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={report['failed_frac']:.4f}")
        samples = {"setup_s": len(report["setup_s_samples"]), "peak_rss_mb": 1}
        for metric, entry in result["metrics"].items():
            count = samples.get(metric, report.get("op_samples", ""))
            extra = f" ({report['op_tail_percentile']})" if metric == "op_tail_ms" else ""
            print(f"   {metric:32s} {entry['value']:>14.6g} {entry['unit']:6s} n={count}{extra}")
    print(json.dumps({"all": {name: result for name, _, result in rows}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
