"""Seeded request generation for the benchmark's four workloads.

A workload is a list of *cycles*; a cycle is one balanced pass over the
workload's request mix (every app, level and backend it covers, in a
seeded order).  The measured phase runs whole cycles until its time is
up, so every run sees the same mix whatever its length.  Cycles that
carry new config bindings draw them without replacement, so a binding
is never requested twice in one run.

A request is only what a user of the compiler would send: program,
config binding, level and backend.  Reference outputs are keyed by
``(app, config)``, which is all they depend on.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, NamedTuple, Tuple

from repro.benchsuite import ALL_BENCHMARKS, get_benchmark
from repro.fusion import ALL_LEVELS

APPS: Tuple[str, ...] = tuple(bench.name for bench in ALL_BENCHMARKS)
LEVELS: Tuple[str, ...] = tuple(level.name for level in ALL_LEVELS)

#: exec-large: out of L2 (one 512 x 512 float array is 2 MiB).
LARGE_N = 512
#: exec-large levels: the default, and the level where CSE applies.
LARGE_LEVELS = ("c2", "c2+f4+cse")
#: serve-small: the warm binding (8 KiB per array) and the range new
#: bindings are drawn from.
SMALL_N = 32
SMALL_RANGE = (16, 48)
#: serve-small: one request in this many carries a new binding.
NEW_BINDING_EVERY = 10
#: shard-exec: the size every mp-shard request runs at.  Sharded EP
#: swings 100-250 ms run to run at n = 32 and 40; at 24 every app holds
#: within a few percent.
SHARD_N = 24
SHARD_PROCS = 2
#: compile-cold: range of the seeded n and m.
COLD_RANGE = (16, 64)
#: compile-cold census binding (counts must not depend on the seed).
CENSUS_N = 32


class Request(NamedTuple):
    app: str
    level: str
    backend: str
    #: The full config binding as sorted items (hashable).
    config: Tuple[Tuple[str, int], ...]

    @property
    def config_dict(self) -> Dict[str, int]:
        return dict(self.config)

    @property
    def ref_key(self) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
        return (self.app, self.config)

    @property
    def combo(self) -> str:
        return "%s/%s/%s" % (self.app, self.level, self.backend)


class Workload(NamedTuple):
    name: str
    why: str
    clients: int
    #: The percentile ``latency_tail_ms`` reports: the highest of p75,
    #: p90, p95 and p99 with at least 10 samples beyond it in a run of
    #: this length here.  It is fixed per workload so that two commits
    #: compare the same percentile; a run lasts until it has the samples.
    tail_pct: float
    #: Requests compiled (and run once) in set-up.
    warm: List[Request]
    #: Requests the traced run compiles from a cold cache to count IR
    #: statements, clusters, contracted arrays, code and live bytes.
    census: List[Request]
    #: The pool of cycles the measured phase draws from, in order.
    cycles: List[List[Request]]


def binding(app: str, n: int, m: int) -> Tuple[Tuple[str, int], ...]:
    config = dict(get_benchmark(app).default_config)
    config.update(n=n, m=m)
    return tuple(sorted(config.items()))


def _pairs(lo: int, hi: int, exclude=()) -> List[Tuple[int, int]]:
    return [
        (n, m)
        for n in range(lo, hi + 1)
        for m in range(lo, hi + 1)
        if (n, m) not in exclude
    ]


def min_cycles(cycle_len: int, tail_pct: float) -> int:
    """Whole cycles needed for 10 samples beyond ``tail_pct``."""
    return math.ceil(math.ceil(10 / (1 - tail_pct / 100.0)) / cycle_len)


def _pool(seconds: int, cycle_s: float, cycle_len: int, tail_pct: float) -> int:
    """Cycles to generate for runs of ``cycle_s`` per cycle or slower
    (a faster run ends when the pool does), never fewer than the tail
    needs.  Each new binding costs a reference run before timing."""
    return max(
        math.ceil(seconds / cycle_s) + 2, min_cycles(cycle_len, tail_pct) + 2
    )


def _shuffled_cycles(rng: random.Random, requests: List[Request], count: int):
    cycles = []
    for _ in range(count):
        cycle = list(requests)
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


def compile_cold(rng: random.Random, seconds: int) -> Workload:
    pool = _pool(seconds, 0.8, len(APPS) * len(LEVELS), 95.0)
    fresh = {app: rng.sample(_pairs(*COLD_RANGE), pool) for app in APPS}
    cycles = []
    for index in range(pool):
        cycle = [
            Request(app, level, "codegen_np", binding(app, *fresh[app][index]))
            for app in APPS
            for level in LEVELS
        ]
        rng.shuffle(cycle)
        cycles.append(cycle)
    census = [
        Request(app, level, "codegen_np", binding(app, CENSUS_N, CENSUS_N))
        for app in APPS
        for level in LEVELS
    ]
    return Workload(
        "compile-cold",
        "every request names a new binding, so each misses the cache: "
        "the compile pipeline and cache writes, almost no execution",
        1,
        95.0,
        [],
        census,
        cycles,
    )


def exec_large(rng: random.Random, seconds: int) -> Workload:
    warm = [
        Request(app, level, backend, binding(app, LARGE_N, LARGE_N))
        for app in APPS
        for backend in ("codegen_np", "c")
        for level in LARGE_LEVELS
    ]
    return Workload(
        "exec-large",
        "warm artifacts at 2 MiB per array: generated code and the memory "
        "traffic contraction removes, every compile a cache read",
        1,
        90.0,
        warm,
        warm,
        _shuffled_cycles(rng, warm, _pool(seconds, 0.7, len(warm), 90.0)),
    )


def serve_small(rng: random.Random, seconds: int) -> Workload:
    base = [
        Request(app, "c2", backend, binding(app, SMALL_N, SMALL_N))
        for app in APPS
        for backend in ("codegen_np", "c")
    ]
    pool = _pool(seconds, 0.4, len(base) * NEW_BINDING_EVERY, 99.0)
    # New bindings go to codegen_np only: a ``c`` miss also runs the
    # host cc (150-300 ms beside the daemon on two CPUs), which made
    # compiler time half of each cycle and throughput swing 16% between
    # runs.  So each app's np requests carry two new bindings per cycle.
    fresh = {
        app: rng.sample(
            _pairs(*SMALL_RANGE, exclude={(SMALL_N, SMALL_N)}), 2 * pool
        )
        for app in APPS
    }
    cycles = []
    for index in range(pool):
        cycle = []
        for request in base:
            if request.backend == "c":
                cycle.extend([request] * NEW_BINDING_EVERY)
                continue
            cycle.extend([request] * (NEW_BINDING_EVERY - 2))
            for pair in fresh[request.app][2 * index : 2 * index + 2]:
                cycle.append(request._replace(config=binding(request.app, *pair)))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return Workload(
        "serve-small",
        "two daemon clients, in-cache sizes, one request in ten a new "
        "binding: protocol, admission, shm transport and per-call overhead",
        2,
        99.0,
        base,
        base,
        cycles,
    )


def shard_exec(rng: random.Random, seconds: int) -> Workload:
    warm = [
        Request(app, "c2", "mp-shard", binding(app, SHARD_N, SHARD_N))
        for app in APPS
    ]
    return Workload(
        "shard-exec",
        "warm mp-shard runs on 2 ranks with codegen_np locally: fork, "
        "halo exchange and the rank combine",
        1,
        75.0,
        warm,
        warm,
        _shuffled_cycles(rng, warm, _pool(seconds, 0.3, len(warm), 75.0)),
    )


BUILDERS = {
    "compile-cold": compile_cold,
    "exec-large": exec_large,
    "serve-small": serve_small,
    "shard-exec": shard_exec,
}


def build(name: str, seed: int, seconds: int) -> Workload:
    """The workload ``name`` for this seed; same seed, same requests."""
    return BUILDERS[name](random.Random("%s/%d" % (name, seed)), seconds)
