"""Multi-process sharded execution: the communication model, executed.

``mp-shard`` partitions every region across worker *processes* laid out
on a :class:`~repro.parallel.distribution.ProcessorGrid`, runs each
worker's clamped sub-region through kernels the local backend
(``codegen_np`` by default — ``py`` and ``c`` work too) builds once per
program before the fork (:mod:`repro.exec.shard_kernels`), and moves
halo data between workers through ``multiprocessing.shared_memory``
using exactly the exchange schedules :mod:`repro.parallel.commopt`
derives:

* **message vectorization** is implicit — each planned copy is one whole
  border strip written as a single contiguous segment write;
* **redundancy elimination** — events ``eliminate_redundant`` drops are
  genuinely never executed (``comm.eliminated`` counts them);
* **message combining** — events ``combine_messages`` groups share one
  segment region and one barrier round-trip (``comm.combined``);
* **pipelining** — posts happen at the schedule's post point, before the
  intervening nests execute, and the wait lands at the consuming nest.

The driver walk is *lockstep deterministic*: every worker performs the
same walk over the same program, so barrier sequences, segment names and
exchange ordinals agree without any coordination messages.  Scalar state
is replicated (sequential control flow evaluates everywhere); reduction
results and contraction-corner scalars are broadcast through a small
pickle segment so the replicas never diverge.

Two situations cannot execute clamped and fall back to whole-nest
execution on rank 0 (gather → execute → scatter, counted under
``comm.fallback_nests``): a statement reading, across a cut dimension,
an array an earlier statement of the same nest wrote (a true fusion-made
recurrence — the §5.5 ``FAVOR_COMM`` policy exists to avoid creating
these), and circular-buffer (partially contracted) arrays cut along
their buffered dimension.  A program with a boundary statement runs
whole in the calling process before any fork (``comm.fallback_programs``).

Bit-identity with the single-process oracle is a design invariant, not a
tolerance: clamped nests compute the same elementwise values (halos hold
the pre-statement values normal form reads), and reductions materialize
per-point operands into a scratch array that rank 0 folds over the full
region in the oracle's own order, so even non-associative float
reductions match the oracle bitwise.

Measured traffic is validated against the analytic model by
:mod:`repro.parallel.validate`; the byte accounting (``comm.bytes``)
counts exactly what the model prices — border-strip elements at the
model's 8 bytes/element — while reduction and fallback traffic is kept
apart under ``comm.reduce_bytes`` / ``comm.gather_bytes``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import sys
import time
import traceback
import uuid
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exec.shard_kernels import (
    KERNEL_BACKENDS,
    KernelTable,
    NodeKernels,
    kernel_table,
    scalar_value,
)
from repro.interp.evalexpr import eval_scalar
from repro.parallel.commopt import ALL_COMM_OPTS, CommOptions
from repro.parallel.distribution import ProcessorGrid
from repro.parallel.shard import (
    ELEM_BYTES,
    RunPlan,
    ShardError,
    plan_run,
    program_fallback_reason,
    program_rank,
)
from repro.scalarize.emit_common import DTYPES, validate_inputs
from repro.scalarize.loopnest import (
    LoopNest,
    ReductionLoop,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
)
from repro.util.errors import (
    BackendUnavailableError,
    InterpError,
    ReproError,
)

Bounds = Tuple[Tuple[int, int], ...]

_SCALAR_DEFAULTS = {"float": 0.0, "integer": 0, "boolean": False}

_SCAL_SEG_BYTES = 1 << 20
_BARRIER_TIMEOUT_S = 120.0

#: Counters every run reports (zero when nothing happened).
_COUNTERS = (
    "comm.exchanges",
    "comm.bytes",
    "comm.combined",
    "comm.eliminated",
    "comm.fallback_nests",
    "comm.fallback_programs",
    "comm.reduce_bytes",
    "comm.gather_bytes",
    "mp_shard.kernels_built",
    "mp_shard.worker_compiles",
)


def default_procs() -> int:
    """Worker count when the caller does not say: $REPRO_PROCS or ≤4."""
    env = os.environ.get("REPRO_PROCS", "")
    if env.strip():
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


# -- report types ----------------------------------------------------------


class ExchangeRecord:
    """One executed wire message, with planned and measured bytes."""

    __slots__ = (
        "ordinal",
        "arrays",
        "events",
        "planned_bytes",
        "model_bytes",
        "corner_bytes",
        "measured_bytes",
        "post_point",
        "wait_point",
        "duration_us",
    )

    def __init__(self, ordinal: int, arrays: Tuple[str, ...],
                 events: List[dict], planned_bytes: int, model_bytes: int,
                 corner_bytes: int, post_point: int, wait_point: int) -> None:
        self.ordinal = ordinal
        self.arrays = arrays
        self.events = events
        self.planned_bytes = planned_bytes
        self.model_bytes = model_bytes
        self.corner_bytes = corner_bytes
        self.measured_bytes = 0
        self.post_point = post_point
        self.wait_point = wait_point
        self.duration_us = 0.0

    def __repr__(self) -> str:
        return (
            "ExchangeRecord(#%d %s planned=%dB measured=%dB model=%dB"
            "+%dB corner)" % (
                self.ordinal, "+".join(self.arrays), self.planned_bytes,
                self.measured_bytes, self.model_bytes, self.corner_bytes,
            )
        )


class CommReport:
    """Everything the validation harness compares against the model."""

    def __init__(self, procs: int, grid_shape: Tuple[int, ...],
                 records: List[ExchangeRecord], counters: Dict[str, int]) -> None:
        self.procs = procs
        self.grid_shape = grid_shape
        self.records = records
        self.counters = counters

    @property
    def exchanges(self) -> int:
        return len(self.records)

    @property
    def measured_bytes(self) -> int:
        return sum(record.measured_bytes for record in self.records)

    @property
    def model_bytes(self) -> int:
        return sum(record.model_bytes for record in self.records)


# -- geometry helpers ------------------------------------------------------


def _shape_of(bounds: Bounds) -> Tuple[int, ...]:
    return tuple(max(hi - lo + 1, 1) for lo, hi in bounds)


def _elements(bounds: Bounds) -> int:
    count = 1
    for lo, hi in bounds:
        count *= max(0, hi - lo + 1)
    return count


def _index(alloc: Bounds, box: Bounds) -> Tuple[slice, ...]:
    """Numpy index of ``box`` inside an array allocated over ``alloc``."""
    return tuple(
        slice(blo - alo, bhi - alo + 1)
        for (alo, _ahi), (blo, bhi) in zip(alloc, box)
    )


def _intersect(a: Bounds, b: Bounds) -> Optional[Bounds]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


# -- the worker ------------------------------------------------------------


class _Worker:
    """One shard: local arrays, replicated scalars, the lockstep walk."""

    def __init__(self, rank: int, program: ScalarProgram, table: KernelTable,
                 options: CommOptions, sid: str, barrier,
                 inputs: Optional[Mapping[str, np.ndarray]]) -> None:
        self.rank = rank
        self.program = program
        self.table = table
        self.layout = layout = table.layout
        self.options = options
        self.sid = sid
        self.barrier = barrier
        self.scalars: Dict[str, object] = {
            name: _SCALAR_DEFAULTS[kind]
            for name, kind in program.scalars.items()
        }
        self.local_bounds: Dict[str, Bounds] = {}
        self.locals: Dict[str, np.ndarray] = {}
        for name, (bounds, kind) in layout.allocs.items():
            local = layout.local_alloc(rank, name)
            self.local_bounds[name] = local
            array = np.zeros(_shape_of(local), dtype=DTYPES[kind])
            if inputs and name in inputs:
                box = _intersect(local, bounds)
                if box is not None:
                    array[_index(local, box)] = np.asarray(inputs[name])[
                        _index(bounds, box)
                    ]
            self.locals[name] = array
        self.segments: Dict[str, object] = {}
        self.plan_cache: Dict[object, Tuple[RunPlan, str]] = {}
        #: Plans this execute computed; rank 0 hands them back so the
        #: next execute's ranks inherit them with the kernel table.
        self.new_plans: Dict[object, RunPlan] = {}
        self.next_seg = 0
        self.next_ordinal = 0
        self.measured: Dict[int, int] = {}
        self.records: List[ExchangeRecord] = []
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        self._inflight: Dict[int, float] = {}
        self._steps = 0

    # -- shared memory -----------------------------------------------------

    def _segment(self, name: str, size: int):
        """Rank 0 creates, the others attach.

        Every rank shares the coordinator's resource tracker, whose
        registry is a set: an attach re-registers a name rank 0 already
        registered, and rank 0's ``unlink`` clears it once for all.
        """
        seg = self.segments.get(name)
        if seg is not None:
            return seg
        size = max(size, 1)
        if self.rank == 0:
            seg = shared_memory.SharedMemory(name=name, create=True, size=size)
            self.barrier.wait(_BARRIER_TIMEOUT_S)
        else:
            self.barrier.wait(_BARRIER_TIMEOUT_S)
            seg = shared_memory.SharedMemory(name=name)
        self.segments[name] = seg
        return seg

    def close(self) -> None:
        for seg in self.segments.values():
            try:
                seg.close()
            except (OSError, BufferError):
                pass
            if self.rank == 0:
                try:
                    seg.unlink()
                except OSError:
                    pass

    def _bcast(self, owner: int, payload: Optional[dict]) -> dict:
        """Owner → everyone, through the pickle segment, double-fenced."""
        seg = self._segment(self.sid + "_scal", _SCAL_SEG_BYTES)
        if self.rank == owner:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if len(blob) + 8 > seg.size:
                raise ShardError("scalar broadcast of %dB too large" % len(blob))
            struct.pack_into("<Q", seg.buf, 0, len(blob))
            seg.buf[8:8 + len(blob)] = blob
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        (length,) = struct.unpack_from("<Q", seg.buf, 0)
        out = pickle.loads(bytes(seg.buf[8:8 + length]))
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        return out

    def _region_env(self) -> Dict[str, int]:
        env = dict(self.layout.env)
        env.update(
            (name, int(value))
            for name, value in self.scalars.items()
            if isinstance(value, (int, np.integer))
            and not isinstance(value, bool)
        )
        return env

    # -- exchange execution ------------------------------------------------

    def _write_message(self, seg, message, ordinal: int) -> None:
        written = 0
        for planned_event in message.events:
            dtype = DTYPES[self.layout.allocs[planned_event.event.array][1]]
            for copy in planned_event.copies:
                own = self.layout.owned_box(self.rank, copy.box)
                if own is None:
                    continue
                slot = np.ndarray(
                    _shape_of(copy.box), dtype=dtype,
                    buffer=seg.buf, offset=copy.offset_bytes,
                )
                slot[_index(copy.box, own)] = self.locals[
                    planned_event.event.array
                ][_index(self.local_bounds[planned_event.event.array], own)]
                written += _elements(own) * ELEM_BYTES
        if written:
            self.measured[ordinal] = self.measured.get(ordinal, 0) + written
            self.counters["comm.bytes"] += written

    def _read_message(self, seg, message) -> None:
        for planned_event in message.events:
            name = planned_event.event.array
            dtype = DTYPES[self.layout.allocs[name][1]]
            local = self.local_bounds[name]
            for copy in planned_event.copies:
                sub = _intersect(copy.box, local)
                if sub is None:
                    continue
                slot = np.ndarray(
                    _shape_of(copy.box), dtype=dtype,
                    buffer=seg.buf, offset=copy.offset_bytes,
                )
                self.locals[name][_index(local, sub)] = slot[
                    _index(copy.box, sub)
                ]

    # -- run execution -----------------------------------------------------

    def _plan_for(self, run: Sequence[SNode], env: Mapping[str, int],
                  bounds: Tuple[Bounds, ...]) -> Tuple[RunPlan, str]:
        key = (repr(self.options), tuple(id(node) for node in run), bounds)
        entry = self.plan_cache.get(key)
        if entry is None:
            plan = self.table.plans.get(key)
            if plan is None:
                fallback = tuple(
                    index for index, node in enumerate(run)
                    if self.table.node(node).whole is not None
                )
                plan = plan_run(run, self.layout, env, self.options, fallback)
                self.new_plans[key] = plan
            name = "%s_x%d" % (self.sid, self.next_seg)
            self.next_seg += 1
            entry = (plan, name)
            self.plan_cache[key] = entry
        return entry

    def _exec_run(self, run: Sequence[SNode]) -> None:
        env = self._region_env()
        bounds = tuple(tuple(node.region.concrete_bounds(env)) for node in run)
        plan, seg_name = self._plan_for(run, env, bounds)
        seg = (
            self._segment(seg_name, plan.segment_bytes)
            if plan.segment_bytes else None
        )
        posts: Dict[int, List] = {}
        waits: Dict[int, List] = {}
        ordinals: Dict[int, int] = {}
        for message in plan.messages:
            posts.setdefault(message.post_point, []).append(message)
            waits.setdefault(message.wait_point, []).append(message)
            ordinals[message.index] = self.next_ordinal
            self.next_ordinal += 1
        if self.rank == 0:
            self.counters["comm.exchanges"] += len(plan.messages)
            self.counters["comm.combined"] += plan.combined
            self.counters["comm.eliminated"] += plan.eliminated
            self.counters["comm.fallback_nests"] += len(plan.fallback_indices)
            for message in plan.messages:
                self.records.append(
                    ExchangeRecord(
                        ordinals[message.index],
                        message.arrays,
                        [
                            {
                                "array": pe.event.array,
                                "dim": pe.event.dim,
                                "direction": pe.event.direction,
                                "width": pe.event.width,
                                "nest_index": pe.event.nest_index,
                                "event_bytes": pe.event.bytes,
                                "pairs": len(pe.copies),
                                "clipped": pe.clipped,
                                "planned_bytes": pe.bytes,
                                "model_bytes": pe.model_bytes,
                                "corner_bytes": pe.corner_bytes,
                            }
                            for pe in message.events
                        ],
                        message.size_bytes,
                        message.model_bytes,
                        message.corner_bytes,
                        message.post_point,
                        message.wait_point,
                    )
                )
        fallback = set(plan.fallback_indices)
        for step in range(len(run) + 1):
            post_here = posts.get(step)
            wait_here = waits.get(step)
            if post_here or wait_here:
                now = time.perf_counter()
                for message in post_here or ():
                    self._inflight[ordinals[message.index]] = now
                    self._write_message(seg, message, ordinals[message.index])
                self.barrier.wait(_BARRIER_TIMEOUT_S)
                for message in wait_here or ():
                    self._read_message(seg, message)
                self.barrier.wait(_BARRIER_TIMEOUT_S)
                if self.rank == 0 and wait_here:
                    done = time.perf_counter()
                    for message in wait_here:
                        ordinal = ordinals[message.index]
                        for record in self.records:
                            if record.ordinal == ordinal:
                                record.duration_us = (
                                    done - self._inflight.get(ordinal, now)
                                ) * 1e6
            if step < len(run):
                node = run[step]
                if not _elements(bounds[step]):
                    # As in the oracle: an empty nest does nothing, an
                    # empty reduction loop is an error.
                    if isinstance(node, ReductionLoop):
                        raise InterpError("reduction over an empty region")
                elif step in fallback:
                    self._exec_fallback(node, bounds[step], seg_name, step)
                else:
                    self._exec_clamped(node, bounds[step], seg_name, step)

    # -- node execution ----------------------------------------------------

    def _exec_clamped(self, node: SNode, bounds: Bounds,
                      seg_prefix: str, step: int) -> None:
        entry = self.table.node(node)
        clamp = self.layout.clamp(self.rank, bounds)
        buffers = {
            name: (self.locals[name], self.local_bounds[name])
            for name in entry.arrays
        }
        scratch = (
            self._scratch(entry, bounds, "%s_r%d" % (seg_prefix, step))
            if entry.reductions else {}
        )
        buffers.update((name, (view, bounds)) for name, view in scratch.items())
        values: Dict[str, object] = {}
        if clamp is not None:
            values = entry.block.run(clamp, buffers, self.scalars)
            self.counters["comm.reduce_bytes"] += (
                len(scratch) * _elements(clamp) * ELEM_BYTES
            )
        if scratch:
            # Rank 0 folds the assembled per-point operands over the full
            # region in the oracle's order, then broadcasts.
            self.barrier.wait(_BARRIER_TIMEOUT_S)
            payload = None
            if self.rank == 0:
                folded = entry.fold.run(
                    bounds,
                    {name: (view, bounds) for name, view in scratch.items()},
                    self.scalars,
                )
                payload = {
                    target: scalar_value(folded[target])
                    for _name, _kind, target in entry.reductions
                }
            self.scalars.update(self._bcast(0, payload))
        if entry.corner:
            structure = (
                node.structure if isinstance(node, LoopNest)
                else tuple(range(1, len(bounds) + 1))
            )
            owner = self.layout.corner_owner(bounds, structure)
            payload = None
            if self.rank == owner:
                payload = {
                    name: scalar_value(values[name]) for name in entry.corner
                }
            self.scalars.update(self._bcast(owner, payload))

    def _scratch(self, entry: NodeKernels, bounds: Bounds,
                 name: str) -> Dict[str, np.ndarray]:
        """Full-region scratch arrays, one per reduction, in one segment."""
        full = _elements(bounds)
        seg = self._segment(name, len(entry.reductions) * full * ELEM_BYTES)
        return {
            scratch: np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind],
                buffer=seg.buf, offset=index * full * ELEM_BYTES,
            )
            for index, (scratch, kind, _target) in enumerate(entry.reductions)
        }

    def _exec_fallback(self, node: SNode, bounds: Bounds,
                       seg_prefix: str, step: int) -> None:
        """Gather → execute the whole nest on rank 0 → scatter."""
        entry = self.table.node(node)
        allocs = self.layout.allocs
        offsets: Dict[str, int] = {}
        cursor = 0
        for name in entry.arrays:
            offsets[name] = cursor
            cursor += _elements(allocs[name][0]) * ELEM_BYTES
        seg = self._segment("%s_f%d" % (seg_prefix, step), cursor)
        views = {
            name: np.ndarray(
                _shape_of(allocs[name][0]), dtype=DTYPES[allocs[name][1]],
                buffer=seg.buf, offset=offsets[name],
            )
            for name in entry.arrays
        }
        for name in entry.arrays:
            own = self.layout.owned_box(self.rank, allocs[name][0])
            if own is None:
                continue
            views[name][_index(allocs[name][0], own)] = (
                self.locals[name][_index(self.local_bounds[name], own)]
            )
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        payload = None
        if self.rank == 0:
            self.counters["comm.gather_bytes"] += cursor
            values = entry.whole.run(
                bounds,
                {name: (views[name], allocs[name][0]) for name in entry.arrays},
                self.scalars,
            )
            payload = {
                name: scalar_value(values[name])
                for name in entry.corner + [t for _n, _k, t in entry.reductions]
            }
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        for name in entry.written:
            local = self.local_bounds[name]
            if _elements(local) > 0:
                self.locals[name][...] = np.reshape(
                    views[name][_index(allocs[name][0], local)],
                    self.locals[name].shape,
                )
        self.barrier.wait(_BARRIER_TIMEOUT_S)
        self.scalars.update(self._bcast(0, payload))

    # -- the walk ----------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > 50_000_000:
            raise ShardError("step limit exceeded (runaway loop?)")

    def execute_body(self, body: Sequence[SNode]) -> None:
        index = 0
        while index < len(body):
            node = body[index]
            self._tick()
            if isinstance(node, (LoopNest, ReductionLoop)):
                end = index
                while end < len(body) and isinstance(
                    body[end], (LoopNest, ReductionLoop)
                ):
                    end += 1
                self._exec_run(body[index:end])
                index = end
                continue
            if isinstance(node, ScalarAssign):
                self.scalars[node.target] = eval_scalar(node.rhs, self.scalars)
            elif isinstance(node, SeqLoop):
                lo = int(eval_scalar(node.lo, self.scalars))
                hi = int(eval_scalar(node.hi, self.scalars))
                iterator = (
                    range(lo, hi - 1, -1) if node.downto else range(lo, hi + 1)
                )
                for value in iterator:
                    self.scalars[node.var] = value
                    self.execute_body(node.body)
            elif isinstance(node, SIf):
                if bool(eval_scalar(node.cond, self.scalars)):
                    self.execute_body(node.then_body)
                else:
                    self.execute_body(node.else_body)
            elif isinstance(node, SWhile):
                while bool(eval_scalar(node.cond, self.scalars)):
                    self._tick()
                    self.execute_body(node.body)
            else:
                raise ShardError("cannot execute %r sharded" % (node,))
            index += 1

    def finish(self, out_names: Mapping[str, str]) -> dict:
        """Write owned boxes to the output segments; return the summary."""
        for name, seg_name in out_names.items():
            bounds, kind = self.layout.allocs[name]
            seg = self.segments.get(seg_name)
            if seg is None:
                seg = shared_memory.SharedMemory(name=seg_name)
                self.segments[seg_name] = seg
            view = np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind], buffer=seg.buf
            )
            own = self.layout.owned_box(self.rank, bounds)
            if own is not None:
                view[_index(bounds, own)] = self.locals[name][
                    _index(self.local_bounds[name], own)
                ]
        summary = {
            "rank": self.rank,
            "measured": self.measured,
            "counters": dict(self.counters),
        }
        if self.rank == 0:
            summary["plans"] = self.new_plans
            summary["scalars"] = {
                name: self.scalars[name] for name in self.program.scalars
            }
            summary["records"] = [
                {
                    "ordinal": record.ordinal,
                    "arrays": record.arrays,
                    "events": record.events,
                    "planned_bytes": record.planned_bytes,
                    "model_bytes": record.model_bytes,
                    "corner_bytes": record.corner_bytes,
                    "post_point": record.post_point,
                    "wait_point": record.wait_point,
                    "duration_us": record.duration_us,
                }
                for record in self.records
            ]
        return summary


def _worker_main(rank: int, program: ScalarProgram, table: KernelTable,
                 options: CommOptions, sid: str, barrier, inputs,
                 out_names: Mapping[str, str], result_queue,
                 error_queue) -> None:
    compiles = [0]

    def audit(event: str, _args) -> None:
        # Kernels are built before the fork; count any code generation
        # that still happens in a rank (compile() or a cc spawn).
        if event in ("compile", "subprocess.Popen"):
            compiles[0] += 1

    sys.addaudithook(audit)
    worker = None
    try:
        worker = _Worker(rank, program, table, options, sid, barrier, inputs)
        worker.execute_body(program.body)
        worker.counters["mp_shard.worker_compiles"] = compiles[0]
        result_queue.put(worker.finish(out_names))
    except BaseException as exc:
        message = str(exc) if isinstance(exc, InterpError) else None
        error_queue.put((rank, traceback.format_exc(), message))
        try:
            barrier.abort()
        except (ValueError, OSError):
            pass
    finally:
        if worker is not None:
            # rank 0 owns unlinking of lockstep segments; output segments
            # belong to the coordinator, so drop them from the registry
            # before closing to avoid double-unlink races.
            for seg_name in list(out_names.values()):
                seg = worker.segments.pop(seg_name, None)
                if seg is not None:
                    try:
                        seg.close()
                    except (OSError, BufferError):
                        pass
            worker.close()


# -- the coordinator -------------------------------------------------------


def _single_process(program: ScalarProgram, initial_arrays, local_backend,
                    procs: int, grid: ProcessorGrid):
    from repro.exec.backends import execute

    result = execute(program, local_backend, initial_arrays=initial_arrays)
    return result, CommReport(
        procs, grid.shape, [], {name: 0 for name in _COUNTERS}
    )


def execute_sharded(
    program: ScalarProgram,
    initial_arrays=None,
    procs: Optional[int] = None,
    local_backend: str = "codegen_np",
    comm_options: Optional[CommOptions] = None,
    metrics=None,
    tracer=None,
):
    """Run ``program`` sharded over ``procs`` workers.

    Returns ``(ExecutionResult, CommReport)``.  The report carries one
    :class:`ExchangeRecord` per executed wire message with planned,
    model, corner and measured byte counts — the raw material of the
    measured-vs-modeled validation in :mod:`repro.parallel.validate`.
    """
    from repro.exec.backends import ExecutionResult, get_backend

    local_backend = get_backend(local_backend).name
    if local_backend == "mp-shard":
        raise ReproError("mp-shard cannot be its own local backend")
    if local_backend not in KERNEL_BACKENDS:
        raise ReproError(
            "mp-shard runs its blocks on %s, not %r"
            % (", ".join(KERNEL_BACKENDS), local_backend)
        )
    if procs is None:
        procs = default_procs()
    if procs < 1:
        raise ReproError("procs must be positive, got %d" % procs)
    rank = max(program_rank(program), 1)
    grid = ProcessorGrid(procs, rank)
    options = comm_options if comm_options is not None else ALL_COMM_OPTS
    initial_arrays = validate_inputs(program, initial_arrays)
    started = time.perf_counter()
    whole_program = program_fallback_reason(program) is not None
    if procs == 1 or not grid.cut_dimensions() or whole_program:
        result, report = _single_process(
            program, initial_arrays, local_backend, procs, grid
        )
        report.counters["comm.fallback_programs"] = int(whole_program)
        _emit_obs(report, metrics, tracer, time.perf_counter() - started)
        return result, report

    table, built = kernel_table(program, grid, local_backend)
    layout = table.layout
    sid = "rs%s" % uuid.uuid4().hex[:10]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        raise BackendUnavailableError(
            "mp-shard needs fork() to share its kernels with the ranks"
        )
    barrier = ctx.Barrier(procs)
    result_queue = ctx.Queue()
    error_queue = ctx.Queue()
    # One tracker for every rank: started here, before the fork, or each
    # rank would start its own and report the segments it attached to
    # as leaked (see _Worker._segment).
    resource_tracker.ensure_running()

    out_names: Dict[str, str] = {}
    out_segments = []
    try:
        for index, name in enumerate(sorted(layout.allocs)):
            bounds, kind = layout.allocs[name]
            size = max(
                1,
                int(np.prod(_shape_of(bounds)))
                * np.dtype(DTYPES[kind]).itemsize,
            )
            seg = shared_memory.SharedMemory(
                name="%s_o%d" % (sid, index), create=True, size=size
            )
            out_segments.append(seg)
            out_names[name] = seg.name
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(
                    worker_rank, program, table, options, sid, barrier,
                    initial_arrays, out_names, result_queue, error_queue,
                ),
            )
            for worker_rank in range(procs)
        ]
        for process in workers:
            process.start()
        summaries = []
        deadline = time.monotonic() + _BARRIER_TIMEOUT_S + 60
        failure = None
        while len(summaries) < procs and time.monotonic() < deadline:
            if failure is None and not error_queue.empty():
                failure = error_queue.get()
                break
            if not any(p.is_alive() for p in workers) and result_queue.empty():
                break
            try:
                summaries.append(result_queue.get(timeout=0.25))
            except Exception:
                continue
        for process in workers:
            process.join(timeout=5 if failure is None else 1)
            if process.is_alive():
                process.terminate()
        failures = [failure] if failure is not None else []
        while not error_queue.empty():
            failures.append(error_queue.get())
        for _rank, _text, message in failures:
            if message is not None:
                raise InterpError(message)
        if failures:
            failed_rank, text, _message = failures[0]
            raise ReproError(
                "mp-shard worker %d failed:\n%s" % (failed_rank, text)
            )
        if len(summaries) != procs:
            raise ReproError(
                "mp-shard collected %d/%d worker results" % (
                    len(summaries), procs
                )
            )
        arrays: Dict[str, np.ndarray] = {}
        for name, seg_name in out_names.items():
            bounds, kind = layout.allocs[name]
            seg = next(s for s in out_segments if s.name == seg_name)
            arrays[name] = np.ndarray(
                _shape_of(bounds), dtype=DTYPES[kind], buffer=seg.buf
            ).copy()
    finally:
        for seg in out_segments:
            try:
                seg.close()
                seg.unlink()
            except OSError:
                pass

    rank0 = next(s for s in summaries if s["rank"] == 0)
    table.plans.update(rank0["plans"])
    records = [
        ExchangeRecord(
            raw["ordinal"], tuple(raw["arrays"]), raw["events"],
            raw["planned_bytes"], raw["model_bytes"], raw["corner_bytes"],
            raw["post_point"], raw["wait_point"],
        )
        for raw in rank0["records"]
    ]
    for record, raw in zip(records, rank0["records"]):
        record.duration_us = raw["duration_us"]
    measured_total: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for summary in summaries:
        for ordinal, nbytes in summary["measured"].items():
            measured_total[ordinal] = measured_total.get(ordinal, 0) + nbytes
        for name, value in summary["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for record in records:
        record.measured_bytes = measured_total.get(record.ordinal, 0)
    counters["mp_shard.kernels_built"] = built
    report = CommReport(procs, grid.shape, records, counters)
    scalars = dict(rank0["scalars"])
    result = ExecutionResult(arrays, scalars)
    _emit_obs(report, metrics, tracer, time.perf_counter() - started)
    return result, report


def _emit_obs(report: CommReport, metrics, tracer, elapsed_s: float) -> None:
    if metrics is not None:
        for name, value in report.counters.items():
            if value:
                metrics.incr(name, value)
        for record in report.records:
            metrics.observe("comm.exchange", record.duration_us / 1e6)
    if tracer is not None and getattr(tracer, "enabled", False):
        for record in report.records:
            tracer.record(
                "comm.exchange",
                record.duration_us,
                ordinal=record.ordinal,
                arrays="+".join(record.arrays),
                planned_bytes=record.planned_bytes,
                measured_bytes=record.measured_bytes,
                model_bytes=record.model_bytes,
                corner_bytes=record.corner_bytes,
                post_point=record.post_point,
                wait_point=record.wait_point,
            )


def execute_mp_shard(
    program: ScalarProgram,
    initial_arrays=None,
    procs: Optional[int] = None,
    local_backend: str = "codegen_np",
    comm_options: Optional[CommOptions] = None,
    metrics=None,
    tracer=None,
):
    """Backend-registry entry point: result only, report discarded."""
    result, _report = execute_sharded(
        program,
        initial_arrays=initial_arrays,
        procs=procs,
        local_backend=local_backend,
        comm_options=comm_options,
        metrics=metrics,
        tracer=tracer,
    )
    return result
