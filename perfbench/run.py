"""The repository's benchmark: compile, execute, serve and shard.

Run from the repository root::

    python3 perfbench/run.py --workload exec-large --seed 1 --seconds 12 --trace 0

It drives the six paper applications (EP, Frac, Tomcatv, SP, Simple,
Fibro) through the public entry points -- ``Service.compile``,
``CompiledProgram.execute``, the serving daemon and the ``mp-shard``
backend -- and checks every reply against the reference interpreter.
Workloads (see ``workloads.py``): ``compile-cold``, ``exec-large``,
``serve-small`` and ``shard-exec``.

One run is three kinds of process, so that each number measures only
what it names:

1. a reference process runs the live-output guard and computes every
   reference output the run will need;
2. with ``--trace 0``, ``SETUP_REPEATS - 1`` processes each set the
   workload up from a cold start and exit (``setup_s`` is the median);
3. the measured process sets up once more, then runs whole cycles of
   the workload for ``--seconds``.  With ``--trace 1`` it instead counts
   a cold compile of each census request, then alternates untraced
   cycles with cycles that have layer spans on (``layers.py``).

Each child runs in a process group of its own that is killed and waited
for on every way out, and the resource tracker the spawn start method
launches is stopped before exit: a run leaves no process behind.

Earlier lines of output are a human-readable run record (host
signature, cc path, seed, sizes, sample counts, tail percentile, one row
per app and the geometric mean); the last line is the JSON result.
Scratch files (artifact caches, the Chrome trace, the record) go under
``.perfbench/`` in the current directory.

Seeds 1-10 were used while this benchmark was written; seed 9001 is
held out for confirming later claims.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)
if SRC not in sys.path:
    sys.path.insert(1, SRC)

HELD_OUT_SEED = 9001

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metric -> unit.  Metrics of a layer a workload does not
#: exercise read 0 there.
LAYER_UNITS = {
    "ir.normalize_ms": "ms",
    "ir.statements": "count",
    "deps.asdg_ms": "ms",
    "fusion.plan_ms": "ms",
    "fusion.clusters": "count",
    "fusion.contracted": "count",
    "fusion.live_bytes": "bytes",
    "scalarize.ms": "ms",
    "scalarize.codegen_ms": "ms",
    "scalarize.code_bytes": "bytes",
    "service.hit_ms": "ms",
    "service.hit_ratio": "ratio",
    "service.compile_calls": "count",
    "exec.codegen_np_ms": "ms",
    "exec.c_ms": "ms",
    "exec.native.cc_ms": "ms",
    "exec.mp_shard_ms": "ms",
    "exec.mp_shard.overhead_x": "x",
    "exec.mp_shard.leaked_segments": "count",
    "parallel.exchanges": "count",
    "parallel.halo_bytes": "bytes",
    "daemon.queue_wait_ms": "ms",
    "daemon.dispatch_ms": "ms",
    "daemon.overhead_ms": "ms",
    "daemon.shed_frac": "ratio",
    "daemon.coalesced_frac": "ratio",
    "daemon.worker_compiles": "count",
    "daemon.restarts": "count",
    "daemon.leaked_segments": "count",
    "tune.prior_rel_err": "ratio",
    "obs.trace_overhead": "x",
}

#: The whole run must end within this many seconds.
RUN_BUDGET_S = 170.0


def _in_own_group(target, *args) -> None:
    """Child entry point: a process group of its own, so that the parent
    can stop the child and everything it forked in one signal."""
    os.setpgrp()
    target(*args)


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` is still running (zombies,
    which have ended, do not count)."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return False
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _stop_group(process) -> None:
    """Kill whatever is left of the child's process group and wait until
    all of it has ended."""
    if process.pid is None:
        return
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.join()
    give_up = time.monotonic() + 10.0
    while _group_alive(process.pid) and time.monotonic() < give_up:
        time.sleep(0.02)


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it.

    The spawn start method launches it on the first child, and nothing
    else stops it: it would outlive the run.  Every child has ended when
    this runs, so closing its pipe ends it.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    give_up = time.monotonic() + 10.0
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > give_up:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.02)


def _spawn(ctx, target, args, deadline: float, what: str) -> None:
    process = ctx.Process(target=_in_own_group, args=(target,) + tuple(args))
    process.start()
    try:
        process.join(max(1.0, deadline - time.monotonic()))
        timed_out = process.is_alive()
    finally:
        _stop_group(process)
    if timed_out:
        raise RuntimeError("%s did not finish in time" % what)
    if process.exitcode != 0:
        raise RuntimeError("%s failed (exit code %s)" % (what, process.exitcode))


def _references(ctx, workload, path: str, deadline: float) -> None:
    import oracle

    requests = list(workload.warm) + [r for cycle in workload.cycles for r in cycle]
    keys = sorted({r.ref_key for r in requests})
    combos = sorted({(r.app, r.level) for r in requests + list(workload.census)})
    _spawn(ctx, oracle.compute_references, (keys, combos, path), deadline,
           "reference process")


def _child(ctx, role, args, refs_path, work_dir, index, deadline):
    import drivers

    run_dir = os.path.join(work_dir, "%s-%d" % (role, index))
    os.makedirs(run_dir)
    out_path = os.path.join(run_dir, "result.json")
    _spawn(
        ctx,
        drivers.child_main,
        (role, args.workload, args.seed, args.seconds, bool(args.trace),
         refs_path, out_path, run_dir, time.monotonic()),
        deadline,
        "%s process %d" % (role, index),
    )
    with open(out_path) as handle:
        return json.load(handle)


def _record_lines(args, workload, result, setup_samples):
    import workloads

    sizes = {
        "compile-cold": "n, m seeded in %s" % (workloads.COLD_RANGE,),
        "exec-large": "n = m = %d" % workloads.LARGE_N,
        "serve-small": "n = m = %d warm, new bindings in %s"
        % (workloads.SMALL_N, workloads.SMALL_RANGE),
        "shard-exec": "n = m = %d, procs = %d"
        % (workloads.SHARD_N, workloads.SHARD_PROCS),
    }[workload.name]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "host": result["host"],
        "cc": result["cc"],
        "sizes": sizes,
        "clients": workload.clients,
        "samples": result["samples"],
        "cycles": result["cycles"],
        "pool_exhausted": result["pool_exhausted"],
        "latency_tail_percentile": result["tail_percentile"],
        "setup_samples_s": setup_samples,
        "fail_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "leaked_segments": result["leaked_segments"],
        "peak_rss_kb": result.get("peak_rss_kb"),
        "apps": result["apps"],
        "latencies_ms": result["latencies_ms"],
    }
    if "prior" in result:
        record["tune_prior"] = result["prior"]
    if "traced_apps" in result:
        record["traced_apps"] = result["traced_apps"]
        record["trace_file"] = result["trace_file"]
    # The per-request latencies stay in the record file only.
    summary = {k: v for k, v in record.items() if k != "latencies_ms"}
    lines = ["record: " + json.dumps(summary, sort_keys=True)]
    lines.append(
        "%-10s %8s %7s %10s" % ("app", "requests", "failed", "p50_ms")
    )
    for app, row in result["apps"]["rows"].items():
        lines.append(
            "%-10s %8d %7d %10.3f"
            % (app, row["requests"], row["failed"], row["p50_ms"])
        )
    lines.append("%-10s %27.3f" % ("geomean", result["apps"]["geomean_p50_ms"]))
    lines.append(
        "samples=%d tail=p%g fail_frac=%.4g"
        % (result["samples"], result["tail_percentile"], record["fail_frac"])
    )
    return lines, record


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_BUDGET_S
    out_root = os.path.abspath(".perfbench")
    work_dir = os.path.join(
        out_root, "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    )
    os.makedirs(os.path.join(work_dir, "tmp"))
    # Host-compiler scratch files and kernel copies stay in the checkout.
    os.environ["TMPDIR"] = os.path.join(work_dir, "tmp")
    ctx = multiprocessing.get_context("spawn")
    workload = workloads.build(args.workload, args.seed, args.seconds)
    try:
        refs_path = os.path.join(work_dir, "refs.pickle")
        _references(ctx, workload, refs_path, deadline)
        setup_samples = []
        if not args.trace:
            import drivers

            for index in range(drivers.SETUP_REPEATS - 1):
                setup_samples.append(
                    _child(ctx, "setup", args, refs_path, work_dir, index,
                           deadline)["setup_s"]
                )
        result = _child(ctx, "measure", args, refs_path, work_dir, 0, deadline)
        setup_samples.append(result["setup_s"])
        if "trace_file" in result:
            kept = os.path.join(
                out_root, "trace-%s-s%d.json" % (args.workload, args.seed)
            )
            shutil.move(result["trace_file"], kept)
            result["trace_file"] = kept
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)

    lines, record = _record_lines(args, workload, result, setup_samples)
    record_path = os.path.join(
        out_root, "record-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
    )
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)

    if args.trace:
        values = dict.fromkeys(LAYER_UNITS, 0.0)
        values.update(result["per_layer"])
        leak_metric = {
            "serve-small": "daemon.leaked_segments",
            "shard-exec": "exec.mp_shard.leaked_segments",
        }.get(args.workload)
        if leak_metric:
            values[leak_metric] = float(result["leaked_segments"])
        if "prior" in result:
            values["tune.prior_rel_err"] = result["prior"]["median_rel_err"]
        units = LAYER_UNITS
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup_samples))
        units = E2E_UNITS
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            "perfbench: no repro sources at %s; run from a full checkout\n" % SRC
        )
        sys.exit(2)
    try:
        sys.exit(main())
    except RuntimeError as error:
        sys.stderr.write("perfbench: %s\n" % error)
        sys.exit(1)
