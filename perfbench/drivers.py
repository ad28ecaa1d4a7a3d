"""Set-up, the measured phase and the traced run, inside one process.

:func:`child_main` runs in a process spawned by ``run.py``, so set-up
starts from a cold interpreter, a cold artifact cache and an empty
native-kernel memo.  Every request is a closed loop: a client sends the
next request only after the previous reply has been checked against its
reference.  Latency runs from the call until that check has passed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from typing import Dict, List

import oracle
import workloads

#: Set-up-only processes per untraced run (the measured process sets up
#: too, so ``setup_s`` is the median of this many plus one).
SETUP_REPEATS = 3


# -- helpers -----------------------------------------------------------------


def _source(app: str) -> str:
    from repro.benchsuite import get_benchmark

    return get_benchmark(app).source


def _status_kb(pid) -> int:
    """A live process's peak RSS (VmHWM) in KiB; 0 if unreadable."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def tail(latencies: List[float], pct: float) -> float:
    """The ``pct`` percentile by nearest rank."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- runners -----------------------------------------------------------------


class InProcessRunner:
    """compile-cold and exec-large: ``Service.compile`` + ``execute``."""

    #: Whether the census also times an in-process execute per request
    #: (the base of ``daemon.overhead_ms`` and ``exec.mp_shard.overhead_x``).
    time_census = False

    def __init__(self, workload, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        #: combo -> median in-process execute time (ms), from the census.
        self.inprocess_ms: Dict[str, float] = {}

    def _service(self, tag: str, persistent: bool = True):
        from repro.service import Service

        return Service(
            cache_dir=os.path.join(self.work_dir, "cache-" + tag),
            persistent=persistent,
            trace=False,
        )

    @staticmethod
    def _compile(service, request, backend=None):
        return service.compile(
            _source(request.app),
            level=request.level,
            config=request.config_dict,
            backend=backend or request.backend,
        )

    def _execute(self, compiled, metrics=None):
        return compiled.execute()

    def setup(self, refs) -> None:
        self.service = self._service("main")
        if self.workload.warm:
            for request in self.workload.warm:
                _checked(self.call(request, None), refs[request.ref_key], request)
        else:
            # Load every lazily imported pipeline module before timing.
            scratch = self._service("imports", persistent=False)
            for app in workloads.APPS:
                config = dict(workloads.binding(app, 8, 8))
                scratch.compile(_source(app), level="c2", config=config).execute()

    def clients(self):
        return [None] * self.workload.clients

    def call(self, request, _client):
        compiled = self._compile(self.service, request)
        started = time.perf_counter()
        result = self._execute(compiled)
        return result.scalars, result.arrays, time.perf_counter() - started

    def census(self, requests) -> Dict[str, float]:
        """Cold-compile and run each census request in a throwaway
        service: live bytes, plus the in-process execute time (on the
        in-process backend) that daemon and mp-shard times are set
        against."""
        service = self._service("census", persistent=False)
        live = 0
        for request in requests:
            compiled = self._compile(service, request)
            result = self._execute(compiled, service.metrics)
            live += sum(a.nbytes for a in result.arrays.values())
            if not self.time_census:
                continue
            local = compiled
            if request.backend == "mp-shard":
                local = self._compile(service, request, backend="codegen_np")
            times = []
            for _ in range(5):
                started = time.perf_counter()
                local.execute()
                times.append(time.perf_counter() - started)
            self.inprocess_ms[request.combo] = 1000 * statistics.median(times)
        return {
            "fusion.live_bytes": float(live),
            "parallel.exchanges": float(service.metrics.counter("comm.exchanges")),
            "parallel.halo_bytes": float(service.metrics.counter("comm.bytes")),
        }

    def scrape(self) -> Dict[str, float]:
        """Daemon /metrics values; none in process."""
        return {}

    def live_pids(self) -> List[int]:
        return []

    def teardown(self) -> None:
        pass


class ShardRunner(InProcessRunner):
    """shard-exec: warm artifacts run through the mp-shard backend."""

    time_census = True

    def _execute(self, compiled, metrics=None):
        from repro.exec import mp_shard

        result, _report = mp_shard.execute_sharded(
            compiled.scalar_program,
            procs=workloads.SHARD_PROCS,
            local_backend="codegen_np",
            metrics=metrics,
        )
        return result


class DaemonRunner(InProcessRunner):
    """serve-small: two ``DaemonClient`` connections to a 2-worker daemon."""

    time_census = True

    def setup(self, refs) -> None:
        from repro.daemon import Daemon, DaemonClient, DaemonConfig

        self.daemon = Daemon(
            DaemonConfig(
                workers=2,
                cache_dir=os.path.join(self.work_dir, "cache-daemon"),
            ),
            trace=False,
        )
        self.daemon.start()
        self._clients = [
            DaemonClient(port=self.daemon.port) for _ in range(self.workload.clients)
        ]
        # Both clients send the warm set at once so each worker is
        # likely to load every warm artifact before timing starts.
        errors = []

        def warm(client):
            try:
                for request in self.workload.warm:
                    _checked(self.call(request, client), refs[request.ref_key], request)
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=warm, args=(c,)) for c in self._clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def clients(self):
        return self._clients

    def call(self, request, client):
        from repro.benchsuite import get_benchmark

        reply = client.execute(
            _source(request.app),
            config=request.config_dict,
            level=request.level,
            backend=request.backend,
            want_arrays=get_benchmark(request.app).check_arrays,
        )
        return reply["scalars"], reply["arrays"], None

    def scrape(self) -> Dict[str, float]:
        """Counters and timer sums/counts from the daemon's /metrics."""
        values = {}
        for line in self._clients[0].metrics().splitlines():
            if line.startswith("#") or '{name="' not in line:
                continue
            family, rest = line.split('{name="', 1)
            name, rest = rest.split('"', 1)
            if "le=" in rest:
                continue
            values["%s:%s" % (family, name)] = float(rest.rsplit(" ", 1)[1])
        return values

    def live_pids(self) -> List[int]:
        return list(self.daemon.pool.worker_pids())

    def teardown(self) -> None:
        for client in getattr(self, "_clients", []):
            client.close()
        if getattr(self, "daemon", None) is not None:
            self.daemon.stop(drain=True)


RUNNERS = {
    "compile-cold": InProcessRunner,
    "exec-large": InProcessRunner,
    "serve-small": DaemonRunner,
    "shard-exec": ShardRunner,
}


def _checked(outcome, ref, request) -> None:
    scalars, arrays, _ = outcome
    problem = oracle.mismatch(ref, scalars, arrays)
    if problem is not None:
        raise RuntimeError("set-up request %s: %s" % (request.combo, problem))


# -- the measured phase ------------------------------------------------------


class Feed:
    """Hands out the pool's requests; stops at a cycle boundary once the
    deadline has passed or the pool is used up."""

    def __init__(self, cycles) -> None:
        self.cycles = cycles
        self.cycle = 0
        self.position = 0
        self.deadline = 0.0
        self.stop_after = 0
        #: Called once the phase's minimum cycles have been handed out.
        self.on_quota = None
        self.exhausted = False
        self._lock = threading.Lock()

    def start(self, seconds: float, cycles: int) -> None:
        """Begin a phase: at least ``cycles`` whole cycles, then until
        ``seconds`` have passed."""
        self.deadline = time.perf_counter() + seconds
        self.stop_after = self.cycle + cycles

    def next(self):
        """(cycle index, request), or None when the phase is over."""
        with self._lock:
            if self.position == 0:
                if self.cycle >= len(self.cycles):
                    self.exhausted = True
                    return None
                if (
                    self.cycle >= self.stop_after
                    and time.perf_counter() >= self.deadline
                ):
                    return None
            item = (self.cycle, self.cycles[self.cycle][self.position])
            self.position += 1
            if self.position == len(self.cycles[self.cycle]):
                self.cycle += 1
                self.position = 0
                if self.cycle == self.stop_after and self.on_quota is not None:
                    self.on_quota()
            return item


def run_phase(runner, feed: Feed, refs, seconds: float, cycles: int = 1) -> List[dict]:
    """Run whole cycles for about ``seconds``; one sample per request."""
    samples: List[dict] = []
    lock = threading.Lock()

    def client_loop(client):
        while True:
            item = feed.next()
            if item is None:
                return
            cycle, request = item
            started = time.perf_counter()
            error = None
            call_s = exec_s = None
            try:
                scalars, arrays, exec_s = runner.call(request, client)
                call_s = time.perf_counter() - started
                error = oracle.mismatch(refs[request.ref_key], scalars, arrays)
            except Exception as exc:  # noqa: BLE001 - a failed request
                error = "%s: %s" % (type(exc).__name__, exc)
            ended = time.perf_counter()
            with lock:
                samples.append(
                    {
                        "request": request,
                        "cycle": cycle,
                        "start": started,
                        "end": ended,
                        "latency_s": ended - started,
                        "call_s": call_s,
                        "exec_s": exec_s,
                        "error": error,
                    }
                )

    clients = runner.clients()
    feed.start(seconds, cycles)
    if len(clients) == 1:
        client_loop(clients[0])
    else:
        threads = [threading.Thread(target=client_loop, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return samples


def p50(samples) -> float:
    """Median request latency in seconds, smoothed: the mean of the
    samples between the 40th and 60th percentiles.

    The apps' latencies form separate bands, and the plain median is one
    sample at the edge of two of them, so one outlier moves it; over
    ten runs on a shared host the band mean spread 5-19% where the plain
    median spread 12-20%.
    """
    ordered = sorted(s["latency_s"] for s in samples)
    low = int(0.4 * len(ordered))
    return statistics.fmean(ordered[low : max(int(0.6 * len(ordered)), low + 1)])


def _latencies_by_type(workload, samples) -> Dict[str, List[float]]:
    """Every measured latency (ms) by request type, for the record."""
    by_type: Dict[str, List[float]] = {}
    for sample in samples:
        request = sample["request"]
        label = request.combo + ("" if request in workload.warm else "/new")
        by_type.setdefault(label, []).append(1000 * sample["latency_s"])
    return by_type


def end_to_end(workload, samples) -> Dict[str, float]:
    ok = [s for s in samples if s["error"] is None]
    tail_value = tail([s["latency_s"] for s in samples], workload.tail_pct)
    # Throughput: the median over whole cycles of checked replies per
    # second of the cycle's wall time, so one slow stretch of a shared
    # host moves one cycle, not the figure.
    rates = []
    for cycle in sorted({s["cycle"] for s in samples}):
        mine = [s for s in samples if s["cycle"] == cycle]
        wall = max(s["end"] for s in mine) - min(s["start"] for s in mine)
        rates.append(sum(1 for s in mine if s["error"] is None) / wall)
    return {
        "latency_p50_ms": 1000 * p50(samples),
        "latency_tail_ms": 1000 * tail_value,
        "throughput_rps": statistics.median(rates),
        "verified_frac": len(ok) / len(samples),
    }


def app_rows(samples) -> Dict[str, object]:
    rows = {}
    for app in workloads.APPS:
        mine = [s for s in samples if s["request"].app == app]
        if not mine:
            continue
        rows[app] = {
            "requests": len(mine),
            "failed": sum(1 for s in mine if s["error"] is not None),
            "p50_ms": 1000 * statistics.median(s["latency_s"] for s in mine),
        }
    return {
        "rows": rows,
        "geomean_p50_ms": geomean(row["p50_ms"] for row in rows.values()),
    }


def prior_error(runner, samples) -> Dict[str, object]:
    """``repro.tune.space.predict_cost`` beside the measured execute time."""
    from repro.tune.space import Plan, predict_cost

    by_combo: Dict[str, list] = {}
    for sample in samples:
        if sample["exec_s"] is not None and sample["error"] is None:
            by_combo.setdefault(sample["request"], []).append(sample["exec_s"])
    rows = {}
    for request, times in sorted(by_combo.items()):
        compiled = runner._compile(runner.service, request)
        predicted_ms = predict_cost(
            compiled.scalar_program, Plan(request.level, request.backend)
        ) / 1000.0
        measured_ms = 1000 * statistics.median(times)
        rows[request.combo] = {
            "predicted_ms": predicted_ms,
            "measured_ms": measured_ms,
            "rel_err": abs(predicted_ms - measured_ms) / measured_ms,
        }
    errors = [row["rel_err"] for row in rows.values()]
    return {
        "rows": rows,
        "median_rel_err": statistics.median(errors) if errors else 0.0,
    }


def _daemon_layer(runner, scraped, samples) -> Dict[str, float]:
    """Daemon metrics over the traced cycles: ``scraped`` holds the
    /metrics deltas they summed to."""

    def delta(key):
        return scraped.get(key, 0.0)

    def mean_ms(timer):
        count = delta("repro_timer_seconds_count:" + timer)
        return 1000 * delta("repro_timer_seconds_sum:" + timer) / count if count else 0.0

    requests = delta("repro_counter_total:daemon.requests")
    overheads = [
        1000 * s["call_s"] - runner.inprocess_ms[s["request"].combo]
        for s in samples
        if s["call_s"] is not None and s["request"].combo in runner.inprocess_ms
        and s["request"] in runner.workload.warm
    ]
    return {
        "daemon.queue_wait_ms": mean_ms("daemon.queue_wait"),
        "daemon.dispatch_ms": mean_ms("daemon.dispatch"),
        "daemon.overhead_ms": statistics.median(overheads) if overheads else 0.0,
        "daemon.shed_frac": delta("repro_counter_total:daemon.shed") / requests
        if requests else 0.0,
        "daemon.coalesced_frac": delta("repro_counter_total:daemon.coalesced")
        / requests if requests else 0.0,
        "daemon.worker_compiles": delta("repro_counter_total:daemon.worker_compiles"),
        "daemon.restarts": delta("repro_counter_total:daemon.worker_restarts"),
    }


# -- process entry point -----------------------------------------------------


def child_main(role, name, seed, seconds, trace, refs_path, out_path, work_dir, t_launch):
    """``role`` is "setup" (set up, report, tear down) or "measure"."""
    shm_before = _shm_entries()
    workload = workloads.build(name, seed, seconds)
    refs = oracle.load_references(refs_path)
    runner = RUNNERS[name](workload, work_dir)
    out: Dict[str, object] = {}
    layer = None
    if role == "measure" and trace:
        from layers import LayerTrace

        # Set-up is traced too: its cold compiles make the cc calls.
        layer = LayerTrace()
        layer.install()
    try:
        runner.setup(refs)
        out["setup_s"] = time.monotonic() - t_launch
        if role == "measure":
            out.update(_measure(runner, workload, refs, seconds, layer, work_dir))
    finally:
        if layer is not None:
            layer.remove()
        runner.teardown()
    leaked = len(_shm_entries() - shm_before)
    out["leaked_segments"] = leaked
    with open(out_path, "w") as handle:
        json.dump(out, handle, default=str)


def _measure(runner, workload, refs, seconds, layer, work_dir):
    from repro.exec import native
    from repro.tune.tunedb import machine_signature

    out: Dict[str, object] = {
        "host": machine_signature(),
        "cc": native.find_cc(),
    }
    feed = Feed(workload.cycles)
    if layer is None:
        # Peak RSS after a fixed number of cycles (the tail's minimum):
        # artifact caches grow with every binding served, so a faster
        # commit would otherwise read as a larger one.  The largest of
        # this process, every child that has exited (mp-shard ranks, cc)
        # and every live child (daemon workers).
        peaks_kb: Dict[str, int] = {}

        def probe():
            peaks_kb.update(
                self=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                exited_children=resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss,
                live_children=max(
                    [0] + [_status_kb(pid) for pid in runner.live_pids()]
                ),
            )

        feed.on_quota = probe
        cycles = workloads.min_cycles(len(workload.cycles[0]), workload.tail_pct)
        samples = run_phase(runner, feed, refs, seconds, cycles)
        out["peak_rss_kb"] = peaks_kb
        metrics = end_to_end(workload, samples)
        metrics["peak_rss_mb"] = max(peaks_kb.values()) / 1024.0
        out["metrics"] = metrics
        traced_samples = []
    else:
        from layers import census_metrics, timing_metrics
        from repro.obs.export import write_chrome_trace

        setup_spans = layer.take()
        per_layer = runner.census(workload.census)
        census_spans = layer.take()
        layer.remove()
        per_layer.update(census_metrics(census_spans, setup_spans))
        # Untraced and traced cycles alternate, so drift on a shared host
        # falls on both sides of obs.trace_overhead alike.
        samples, traced_samples, spans = [], [], []
        scraped: Dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while not feed.exhausted and (
            not traced_samples or time.perf_counter() < deadline
        ):
            samples += run_phase(runner, feed, refs, 0.0)
            before = runner.scrape()
            layer.install()
            try:
                traced_samples += run_phase(runner, feed, refs, 0.0)
                spans += layer.take()
            finally:
                layer.remove()
            for key, value in runner.scrape().items():
                scraped[key] = scraped.get(key, 0.0) + value - before.get(key, 0.0)
        per_layer.update(timing_metrics(spans))
        if isinstance(runner, DaemonRunner):
            per_layer.update(_daemon_layer(runner, scraped, traced_samples))
        if isinstance(runner, ShardRunner):
            ratios = []
            for request in workload.cycles[0]:
                shard = [
                    s["exec_s"] for s in traced_samples
                    if s["request"] == request and s["exec_s"] is not None
                ]
                ratios.append(
                    1000 * statistics.median(shard) / runner.inprocess_ms[request.combo]
                )
            per_layer["exec.mp_shard.overhead_x"] = geomean(ratios)
        per_layer["obs.trace_overhead"] = p50(traced_samples) / p50(samples)
        trace_path = os.path.join(work_dir, "trace.json")
        write_chrome_trace(setup_spans + census_spans + spans, trace_path)
        out["trace_file"] = trace_path
        out["per_layer"] = per_layer
        out["traced_apps"] = app_rows(traced_samples)
    if workload.name == "exec-large":
        out["prior"] = prior_error(runner, samples)
    all_samples = samples + traced_samples
    out.update(
        attempted=len(all_samples),
        failed=sum(1 for s in all_samples if s["error"] is not None),
        failures=[
            {"request": s["request"].combo, "config": s["request"].config_dict,
             "error": s["error"]}
            for s in all_samples if s["error"] is not None
        ][:50],
        samples=len(samples),
        tail_percentile=workload.tail_pct,
        latencies_ms=_latencies_by_type(workload, samples),
        cycles=feed.cycle,
        pool_exhausted=feed.exhausted,
        apps=app_rows(samples),
    )
    return out
