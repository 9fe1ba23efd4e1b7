"""Benchmark of the bbgroups library: one workload per run, one client in a
closed loop, single process and thread.

    python3 perfbench/run.py --workload bb_centralizer --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload's
traced task set once untraced and once with spans on every layer entry point,
and prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md
for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WALL_LIMIT_S = 150.0  # stop measuring early rather than overrun the run limit
MAX_ERRORS_SHOWN = 5


def load_library():
    src = ROOT / "src"
    if not (src / "bbgroups" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bbgroups package under {src}")
    sys.path.insert(0, str(src))
    import bbgroups
    import bbgroups.cli  # noqa: F401  (makes bbgroups.cli an attribute)

    for n, poly in workloads.POLYS:
        if not bbgroups.gf.is_irreducible(list(poly), 2):
            raise SystemExit(f"perfbench: GF(2^{n}) polynomial {poly} is not irreducible")
    return bbgroups


def nearest_rank(sorted_vals: list[float], p: float) -> float:
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals)) - 1)]


@dataclass
class Batch:
    raw: list[float] = field(default_factory=list)  # wall seconds per task
    scaled: list[float] = field(default_factory=list)  # the same at probe.NOMINAL_S speed
    muls: list[int | None] = field(default_factory=list)  # None for a failed task
    failed: int = 0


class Loop:
    """Closed loop over tasks 0, 1, 2, ...; the speed probe runs between
    tasks and the checks run after them, both outside the timing."""

    def __init__(self, wl: workloads.Workload, deadline: float):
        self.wl = wl
        self.deadline = deadline
        self.probe = probe.SpeedProbe()
        self.errors = 0

    def setup(self, reps: int) -> tuple[float, float]:
        """Median (scaled, raw) seconds of reps fresh set-ups; the last one
        stays in use."""
        scaled, raw = [], []
        for _ in range(reps):
            before = self.probe.sample()
            t0 = time.perf_counter()
            self.wl.setup()
            dt = time.perf_counter() - t0
            raw.append(dt)
            scaled.append(dt * probe.SpeedProbe.scale(before, self.probe.sample()))
            self.wl.check_setup()
        return statistics.median(scaled), statistics.median(raw)

    def measure(self, tasks: int, seconds: float = 0.0, tracer: tracing.Tracer | None = None) -> Batch:
        """Tasks 0, 1, ...: at least `tasks`, then on until `seconds` of
        timed wall time and a whole cycle."""
        wl = self.wl
        run = wl.run if tracer is None else tracer.wrap(tracing.ROOT, wl.run)
        out = Batch()
        timed = 0.0
        before = self.probe.sample()
        k = 0
        while k < tasks or timed < seconds or k % wl.cycle:
            if time.monotonic() > self.deadline:
                print(f"perfbench: wall limit reached after {k} tasks", file=sys.stderr)
                break
            inp = wl.inputs(k)
            if tracer is not None:
                tracer.current[0] = k
            err = None
            t0 = time.perf_counter()
            try:
                result = run(inp)
            except Exception as e:  # a library error fails this task only
                err = e
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.current[0] = -1
            after = self.probe.sample()
            out.raw.append(dt)
            out.scaled.append(dt * probe.SpeedProbe.scale(before, after))
            before = after
            timed += dt
            m = None
            if err is None:
                try:
                    m = wl.check(inp, result)
                except Exception as e:  # CheckFailed, or a malformed report
                    err = e
            if err is not None:
                out.failed += 1
                self.errors += 1
                if self.errors <= MAX_ERRORS_SHOWN:
                    print(f"perfbench: task {k} failed: {type(err).__name__}: {err}", file=sys.stderr)
            out.muls.append(m)
            k += 1
        return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(loop: Loop, seconds: float):
    wl = loop.wl
    setup_s, setup_raw = loop.setup(wl.setup_reps)
    b = loop.measure(wl.min_tasks, seconds)
    n = len(b.scaled)
    srt = sorted(b.scaled)
    raw = sorted(b.raw)
    counted = [m for m in b.muls[: wl.min_tasks] if m is not None]
    beyond = sum(1 for x in srt if x > nearest_rank(srt, 0.9))
    print(
        f"{wl.name}: {n} tasks; p50/p90 over {n} samples ({beyond} above p90); setup median of "
        f"{wl.setup_reps}; muls_per_task over the first {len(counted)} tasks; "
        f"wall (unscaled) setup {setup_raw:.4f} s, p50 {nearest_rank(raw, 0.5) * 1e3:.3f} ms, "
        f"p90 {nearest_rank(raw, 0.9) * 1e3:.3f} ms; probe median {loop.probe.median() * 1e6:.1f} us "
        f"(nominal {probe.NOMINAL_S * 1e6:.1f} us)"
    )
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "task_p50_ms": metric(nearest_rank(srt, 0.5) * 1e3, "ms"),
        "task_p90_ms": metric(nearest_rank(srt, 0.9) * 1e3, "ms"),
        "tasks_per_s": metric(n / sum(srt), "1/s"),
        "muls_per_task": metric(statistics.fmean(counted) if counted else 0.0, "count"),
        "success_ratio": metric((n - b.failed) / n, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return n, b.failed, metrics


def traced(loop: Loop, bb, seed: int):
    """The trace_tasks task set untraced, then traced; per-layer metrics."""
    wl = loop.wl
    loop.setup(1)
    plain = loop.measure(wl.trace_tasks)
    tracer = tracing.Tracer()
    tracer.install(bb)
    loop.probe.samples.clear()
    try:
        tracer.span(tracing.SETUP, wl.setup)
        wl.check_setup()
        spanned = loop.measure(wl.trace_tasks, tracer=tracer)
    finally:
        tracer.uninstall()
    # Span times are scaled like the end-to-end ones, by the probe's median
    # over the traced phase.
    speed = probe.NOMINAL_S / loop.probe.median()
    child_ns = tracer.child_cost_ns()
    summary = tracing.Summary(tracer, child_ns)
    out = tracing.layer_metrics(summary, speed)
    out["trace.child_cost_ns"] = (child_ns * speed, "ns")
    ok = True
    span_muls = [summary.task_muls.get(k) for k in range(len(spanned.muls))]
    if not (plain.muls == spanned.muls == span_muls):
        print("perfbench: traced mul counts differ from the untraced run", file=sys.stderr)
        ok = False
    layer_sum = sum(v for k, (v, _) in out.items() if k.endswith(".self_ms") or k == "cli.other_ms")
    if not math.isclose(layer_sum, out["trace.task_ms"][0], rel_tol=1e-9, abs_tol=1e-9):
        print("perfbench: layer self times do not add up to the task time", file=sys.stderr)
        ok = False
    zetas = out["bray.zeta_calls"][0]
    out["bray.useful_sample_ratio"] = (wl.rank / zetas if wl.rank and zetas else 0.0, "ratio")
    out["trace.overhead_ratio"] = (sum(spanned.scaled) / sum(plain.scaled), "ratio")
    tracer.write(
        ROOT / ".perfbench_out" / f"trace-{wl.name}",
        {"workload": wl.name, "seed": seed, "tasks": len(spanned.raw), "clock": "perf_counter_ns"},
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{wl.name}: traced {len(spanned.raw)} tasks, {len(tracer.end)} spans, wall untraced "
        f"{sum(plain.raw):.3f} s vs traced {sum(spanned.raw):.3f} s, time scale {speed:.3f}, peak RSS {rss:.0f} MB"
    )
    metrics = {k: metric(v, u) for k, (v, u) in sorted(out.items())}
    return len(plain.raw) + len(spanned.raw), plain.failed + spanned.failed, metrics, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + WALL_LIMIT_S
    bb = load_library()
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](bb, args.seed, workdir)
        loop = Loop(wl, deadline)
        if args.trace:
            attempted, failed, metrics, ok = traced(loop, bb, args.seed)
        else:
            attempted, failed, metrics = end_to_end(loop, args.seconds)
            ok = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    result = {"correct": ok and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
