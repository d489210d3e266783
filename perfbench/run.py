#!/usr/bin/env python3
"""The repo benchmark: one seeded workload per run, checked and measured.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-cold --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``sweep-cold``   figure-suite grids on a fresh storeless session
``dse-stream``   a streamed 2,000-candidate DSE sample, no store
``store-warm``   record a sweep into a fresh store, then rerun it warm
``serve-mixed``  a closed-loop client against ``repro serve --tcp``

``--trace 0`` reports the end-to-end metrics: set-up time, layer
evaluations and requests per second, exact p50/p90 request latency and
peak RSS (p99 is printed, not reported: on a shared two-vCPU host its
run-to-run spread on ``serve-mixed`` exceeds any allowed bound).  The
in-process workloads report run times at a reference host speed,
measured by a calibration loop run between iterations
(``hostspeed.py``); the raw figures are printed above the result.

``--trace 1`` first runs the workload untraced for half the time, then
replays the same iterations (or request counts) with every layer
boundary wrapped from outside (``tracing.py``), and reports each
layer's self time, share of wall and calls, the work ratios, the
unattributed remainder and the tracing overhead (traced minus untraced
wall for the same work).

Every run checks its outputs outside the timed window: a seeded subset
of its layer evaluations (plus a fixed anchor set) is recomputed on the
scalar kernel and must match winner, score and candidate count
bit-for-bit; store reruns and server answers must equal a storeless
in-process session.  A digest of the run's simulated results is printed
so two commits can be compared for bit-identical output.  The last line
of stdout is the JSON result; the exit status is 1 on any mismatch and
2 when the program cannot be found or fails to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import hostspeed  # the script's own directory is first on sys.path

ROOT = Path(__file__).resolve().parent.parent

#: Environment knobs of the program that would change what is measured.
_PROGRAM_KNOBS = ("REPRO_KERNEL", "REPRO_PARALLEL", "REPRO_FAULTS",
                  "REPRO_CACHE", "REPRO_STORE", "REPRO_CACHE_MAX_ENTRIES")

#: Fresh-interpreter set-up samples per run (the median is reported).
SETUP_SAMPLES = 5


def _quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of a sorted, non-empty list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _setup_seconds(code: str, work: Path) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    samples = []
    for index in range(SETUP_SAMPLES):
        path = work / f"setup-{index}.db"
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", code.format(path=str(path))],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls in 50 ms steps.
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            status = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"set-up interpreter exited {status}")
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
    return statistics.median(samples)


def _end_to_end(run, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metrics; run times at the reference host speed
    when the run took calibration samples, raw otherwise.

    Set-up time stays raw: process start-up is mostly kernel and file
    work, which the calibration loop does not track.
    """
    scale = hostspeed.time_scale(run.calibrations)
    ordered = sorted(run.latencies)
    window = run.window * scale
    return {
        "setup_s": (setup_s, "s"),
        "evals_per_s": (run.evals / window, "1/s"),
        "requests_per_s": (len(ordered) / window, "1/s"),
        "latency_p50_ms": (_quantile(ordered, 0.50) * 1e3 * scale, "ms"),
        "latency_p90_ms": (_quantile(ordered, 0.90) * 1e3 * scale, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def _extra(run) -> dict:
    extra = {"work.layer_evals": run.evals,
             "work.dse_candidates": run.dse_candidates,
             "cache.evictions": run.evictions}
    for phase, (window, _evals, spans) in run.phases.items():
        extra[f"phase.{phase}_s"] = window
        for name, seconds in spans.items():
            extra[f"phase.{phase}.{name}"] = seconds
    return extra


def _overhead(traced_s: float, traced, untraced_s: float, untraced) -> float:
    """Traced minus untraced wall for the same work, both at the
    reference host speed."""
    return (traced_s * hostspeed.time_scale(traced.calibrations)
            - untraced_s * hostspeed.time_scale(untraced.calibrations))


def measure_in_process(name: str, seed: int, seconds: float, trace: bool,
                       work: Path):
    """(run, metrics, digest) for an in-process workload."""
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name](work)
    if not trace:
        setup_s = _setup_seconds(workload.setup_code, work)
        run = Run()
        kept = workload.run_iterations(seed, run, seconds=seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _end_to_end(run, setup_s, rss_mb)
        return run, metrics, workload.check(seed, kept, run)
    untraced = Run()
    workload.run_iterations(seed, untraced, seconds=seconds / 2)
    tracer = Tracer()
    run = Run()
    run.tracer = tracer
    tracer.install()
    try:
        kept = workload.run_iterations(seed, run, count=untraced.iterations)
    finally:
        tracer.remove()
    metrics = per_layer_metrics(
        tracer, run.window,
        _overhead(run.window, run, untraced.window, untraced), _extra(run))
    return run, metrics, workload.check(seed, kept, run)


def measure_serve(seed: int, seconds: float, trace: bool, work: Path):
    """(run, metrics, digest) for ``serve-mixed``."""
    import serve
    from tracing import Tracer, per_layer_metrics
    from workloads import Run

    deck = serve.make_deck(seed)
    run = Run()
    if not trace:
        store = work / "serve.db"
        serve.prepare_store(store)
        spawn_times = []
        for index in range(SETUP_SAMPLES):
            proc, port, spawn_s = serve.spawn_server(ROOT, store)
            spawn_times.append(spawn_s)
            if index < SETUP_SAMPLES - 1:
                serve.stop_server(proc)
        setup_s = statistics.median(spawn_times)
        try:
            answers = serve.warm_up(port, deck)
            load = serve.closed_loop(port, deck, seconds=seconds)
            rss_mb = serve.peak_rss_mb(proc.pid)
        finally:
            code = serve.stop_server(proc)
        if code != 0:
            run.fail(f"server exited {code} on SIGTERM")
        serve.check_load(load, answers, deck, run)
        serve.check_references(seed, deck, answers, run)
        metrics = _end_to_end(run, setup_s, rss_mb)
        return run, metrics, serve.answers_digest(answers)

    store = work / "serve-untraced.db"
    serve.prepare_store(store)
    server = serve.InProcessServer(store)
    try:
        answers = serve.warm_up(server.port, deck)
        untraced = serve.closed_loop(server.port, deck, seconds=seconds / 2)
    finally:
        server.stop()
    store = work / "serve-traced.db"
    serve.prepare_store(store)
    server = serve.InProcessServer(store)
    tracer = Tracer()
    try:
        serve.warm_up(server.port, deck)
        tracer.install()
        try:
            load = serve.closed_loop(server.port, deck,
                                     counts=untraced.per_client)
        finally:
            tracer.remove()
        run.evictions = server.session.cache_stats.evictions
    finally:
        server.stop()
    serve.check_load(load, answers, deck, run)
    serve.check_references(seed, deck, answers, run)
    request_seconds = sum(seconds for _, seconds, _ in load.samples)
    extra = _extra(run)
    extra["netserve.queue_wait_s"] = (
        request_seconds - tracer.inclusive_s("netserve.handle")
        - tracer.inclusive_s("netserve.decode"))
    extra["netserve.rejected"] = load.busy
    extra["netserve.timeouts"] = sum(
        1 for _, _, terminal in load.samples
        if terminal.get("event") == "timeout")
    metrics = per_layer_metrics(
        tracer, request_seconds,
        load.window - untraced.window, extra)
    return run, metrics, serve.answers_digest(answers)


def _print_trace_table(metrics: dict) -> None:
    from tracing import CALL_NAMES, SPANS

    print(f"{'layer span':<22} {'self s':>10} {'share %':>8} {'calls':>10}")
    shown = set()
    for span in SPANS:
        names = (span + "_s", span + "_share", CALL_NAMES.get(span,
                                                           span + "_calls"))
        shown.update(names)
        seconds, share, calls = (metrics[name][0] for name in names)
        if seconds or calls:
            print(f"{span:<22} {seconds:>10.4f} {share:>8.2f} {calls:>10.0f}")
    print(f"{'(unattributed)':<22} {metrics['trace.unattributed_s'][0]:>10.4f}"
          f" {metrics['trace.unattributed_share'][0]:>8.2f}")
    print(f"traced wall {metrics['trace.wall_s'][0]:.4f} s; tracing overhead "
          f"{metrics['trace.overhead_s'][0]:+.4f} s against the untraced "
          f"run of the same work")
    for name, (value, unit) in metrics.items():
        if name not in shown and not name.startswith("trace."):
            print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one seeded benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=("sweep-cold", "dse-stream", "store-warm",
                                 "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the whole run, servers included (they inherit it): the
    # calibration loop then sees the same CPU as the work it scales, and
    # a client and its server never hand off across CPUs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for knob in _PROGRAM_KNOBS:
        os.environ.pop(knob, None)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            outcome = measure_serve(args.seed, args.seconds, bool(args.trace),
                                    work)
        else:
            outcome = measure_in_process(args.workload, args.seed,
                                         args.seconds, bool(args.trace), work)
    except Exception:  # the program failed to run: no result line
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    run, metrics, output_digest = outcome

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.latencies)} requests, {run.evals} layer evaluations, "
          f"{run.dse_candidates} DSE candidates in {run.window:.3f} s "
          f"of measured window")
    for phase in ("record", "warm"):
        if phase in run.phases:
            window, evals, spans = run.phases[phase]
            print(f"{phase} phase: {evals} layer evaluations in "
                  f"{window:.3f} s = {evals / window:.1f} evaluations/s")
            top = sorted(spans.items(), key=lambda item: -item[1])[:4]
            if top:
                print("  largest self times: " + ", ".join(
                    f"{name} {100 * seconds / window:.1f}%"
                    for name, seconds in top))
    if run.calibrations:
        scale = hostspeed.time_scale(run.calibrations)
        print(f"host speed: calibration loop median "
              f"{1e3 * hostspeed.REFERENCE_S / scale:.2f} ms against "
              f"{1e3 * hostspeed.REFERENCE_S:.2f} ms reference; times "
              f"below are raw, reported metrics are scaled by {scale:.4f}")
    ordered = sorted(run.latencies)
    print(f"raw: {run.evals / run.window:.1f} layer evaluations/s, "
          f"{len(ordered) / run.window:.1f} requests/s, latency "
          f"p50 {1e3 * _quantile(ordered, 0.5):.3f} ms, "
          f"p90 {1e3 * _quantile(ordered, 0.9):.3f} ms, "
          f"p99 {1e3 * _quantile(ordered, 0.99):.3f} ms "
          f"over {len(ordered)} samples")
    if args.trace:
        _print_trace_table(metrics)
    print(f"digest {args.workload} seed={args.seed} {output_digest}")
    for message in run.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    attempted = len(run.latencies) + run.checks + run.busy_attempts
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
