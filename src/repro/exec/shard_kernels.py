"""Shard kernels: every node the mp-shard walk runs, built once per program.

The sharded walk (:mod:`repro.exec.mp_shard`) runs three kinds of code
on a block of a loop nest or reduction:

* the node itself over a worker's clamp box, or — for a node that must
  run whole (:func:`repro.parallel.shard.nest_fallback_reason`) — over
  the full region on rank 0;
* for a node that reduces, its *materialized* variant instead: each
  reduce statement becomes an elementwise store of its operand into a
  scratch array, in place in the body so earlier contraction scalars
  still feed it;
* the rank-0 *fold* of the assembled full-region scratch arrays into
  the accumulators, in the oracle's own order.

Each becomes a kernel program (see :mod:`repro.scalarize.emit_common`):
region bounds, allocation bases and extents are runtime integers and the
scalars it touches are arguments, so one compiled kernel serves every
rank, block and time step.  The local backend's kernel entry point
renders it once; ``codegen_py``/``codegen_np`` ``compile()`` each kernel
once and ``c`` compiles the whole table as one translation unit with one
``cc`` run.  :func:`kernel_table` caches the table on the program
object, so the coordinator builds it before forking, every rank
inherits it, and warm executes of the same program build nothing.  The
table also keeps the exchange plans earlier executes derived, which
rank 0 hands back with its result.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ir import expr as ir
from repro.parallel.distribution import ProcessorGrid
from repro.parallel.shard import (
    ShardLayout,
    exec_nodes,
    nest_fallback_reason,
)
from repro.scalarize.codegen_np import vector_split
from repro.scalarize.emit_common import (
    DTYPES,
    infer_expr_kind,
    int_config_env,
    kernel_alloc,
    kernel_region,
)
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ReductionLoop,
    ScalarProgram,
    SNode,
)

Bounds = Tuple[Tuple[int, int], ...]

#: Local backends with a kernel entry point.
KERNEL_BACKENDS = ("codegen_np", "codegen_py", "c")

_RED_PREFIX = "__shard_red"


def scalar_value(value: object) -> object:
    """A plain Python scalar (what the single-process emitters compute
    with), so kernels see the same types whichever rank produced it."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


class Kernel:
    """One compiled kernel program, callable on any block."""

    __slots__ = ("arrays", "scalars", "_call")

    def __init__(self, arrays: Sequence[str], scalars: Sequence[str],
                 call) -> None:
        self.arrays = tuple(arrays)
        self.scalars = tuple(scalars)
        self._call = call

    def run(self, bounds: Bounds,
            buffers: Mapping[str, Tuple[np.ndarray, Bounds]],
            scalars: Mapping[str, object]) -> Dict[str, object]:
        """Run over ``bounds``; returns every scalar's final value.

        ``buffers`` maps each array to ``(ndarray, allocation bounds)``;
        the arrays are updated in place.
        """
        ints = [value for bound in bounds for value in bound]
        arrays = []
        for name in self.arrays:
            array, alloc = buffers[name]
            arrays.append(array)
            for (lo, _hi), extent in zip(alloc, array.shape):
                ints += (lo, extent)
        values = self._call(
            arrays, ints, [scalar_value(scalars[name]) for name in self.scalars]
        )
        return dict(zip(self.scalars, values))


class NodeKernels:
    """Everything the walk needs to run one node sharded.

    ``block`` runs on each rank's clamp box (materialized when the node
    reduces) and ``fold`` on rank 0; a node that must run whole has only
    ``whole``.  ``reductions`` lists ``(scratch array, kind, accumulator)``
    per reduce statement; ``corner`` the contraction scalars whose final
    value the rank owning the last index point broadcasts.
    """

    __slots__ = ("block", "fold", "whole", "arrays", "written",
                 "reductions", "corner")

    def __init__(self) -> None:
        self.block: Optional[Kernel] = None
        self.fold: Optional[Kernel] = None
        self.whole: Optional[Kernel] = None
        self.arrays: Tuple[str, ...] = ()
        self.written: Tuple[str, ...] = ()
        self.reductions: List[Tuple[str, str, str]] = []
        self.corner: List[str] = []


def _scalar_names(node: SNode) -> List[str]:
    """Every scalar a node reads or writes."""
    names = set()
    exprs: List[ir.IRExpr] = []
    if isinstance(node, LoopNest):
        for stmt in node.body:
            exprs.append(stmt.rhs)
            if stmt.scalar_target is not None:
                names.add(stmt.scalar_target)
    else:
        exprs.append(node.operand)
        names.add(node.target)
    for expr in exprs:
        names.update(
            sub.name for sub in expr.walk() if isinstance(sub, ir.ScalarRef)
        )
    return sorted(names)


def _array_names(node: SNode) -> List[str]:
    names = set()
    if isinstance(node, LoopNest):
        for stmt in node.body:
            if stmt.target is not None:
                names.add(stmt.target)
            names.update(ref.name for ref in stmt.rhs.array_refs())
    else:
        names.update(ref.name for ref in node.operand.array_refs())
    return sorted(names)


def _on_region(node: SNode, body=None) -> SNode:
    """``node`` over the symbolic kernel region (optionally a new body)."""
    region = kernel_region(node.region.rank)
    if isinstance(node, ReductionLoop):
        return ReductionLoop(node.target, node.op, region, node.operand)
    return LoopNest(
        region, node.structure, node.body if body is None else body,
        cluster_id=node.cluster_id, carried_depth=node.carried_depth,
    )


def _materialized(node: SNode, reductions) -> SNode:
    """Reduce statements turned into scratch stores (see module doc)."""
    if isinstance(node, ReductionLoop):
        rank = node.region.rank
        return LoopNest(
            kernel_region(rank), tuple(range(1, rank + 1)),
            [ElemAssign(reductions[0][0], None, node.operand)],
            carried_depth=0,
        )
    scratch = iter(reductions)
    body = [
        ElemAssign(next(scratch)[0], None, stmt.rhs)
        if stmt.reduce_op is not None else stmt
        for stmt in node.body
    ]
    return _on_region(node, body)


def _fold(node: SNode, reductions, partial) -> SNode:
    """Accumulate each full-region scratch array into its accumulator.

    The fold keeps the node's loop structure and serial prefix (element
    loops when the node has no vector form), so every backend
    accumulates in the order it would have for the node itself.
    """
    rank = node.region.rank
    zeros = (0,) * rank
    region = kernel_region(rank)
    if isinstance(node, ReductionLoop):
        return ReductionLoop(
            node.target, node.op, region, ir.ArrayRef(reductions[0][0], zeros)
        )
    ops = [stmt.reduce_op for stmt in node.body if stmt.reduce_op is not None]
    return LoopNest(
        region,
        node.structure,
        [
            ElemAssign(None, target, ir.ArrayRef(scratch, zeros), reduce_op=op)
            for (scratch, _kind, target), op in zip(reductions, ops)
        ],
        carried_depth=(
            node.carried_depth if vector_split(node, partial) is not None
            else None
        ),
    )


def _node_entry(node: SNode, array_kinds: Mapping[str, str],
                scalar_kinds: Mapping[str, str]) -> NodeKernels:
    """A node's walk metadata (its kernels are filled in later)."""
    entry = NodeKernels()
    entry.arrays = tuple(_array_names(node))
    if isinstance(node, ReductionLoop):
        kind = infer_expr_kind(node.operand, array_kinds, scalar_kinds)
        entry.reductions.append((_RED_PREFIX + "0", kind, node.target))
        return entry
    entry.written = tuple(sorted(
        {stmt.target for stmt in node.body if stmt.target is not None}
    ))
    for index, stmt in enumerate(node.body):
        if stmt.reduce_op is not None:
            kind = infer_expr_kind(stmt.rhs, array_kinds, scalar_kinds)
            entry.reductions.append(
                ("%s%d" % (_RED_PREFIX, index), kind, stmt.scalar_target)
            )
        elif stmt.is_contracted and stmt.scalar_target not in entry.corner:
            entry.corner.append(stmt.scalar_target)
    return entry


class KernelTable:
    """The layout and every node's kernels for one (program, grid,
    local backend)."""

    def __init__(self, program: ScalarProgram, grid: ProcessorGrid,
                 local_backend: str) -> None:
        self.layout = ShardLayout(
            program, grid, int_config_env(program.configs)
        )
        array_kinds = {
            name: kind for name, (_region, kind) in program.array_allocs.items()
        }
        self.nodes: Dict[int, NodeKernels] = {}
        #: Exchange plans by (comm options, run, bounds), filled in by
        #: the executes that first meet them.
        self.plans: Dict[tuple, object] = {}
        programs: List[ScalarProgram] = []
        slots: List[Tuple[NodeKernels, str]] = []

        def add(entry: NodeKernels, attr: str, node: SNode,
                scratch: Mapping[str, str]) -> None:
            kinds = {
                name: array_kinds[name] for name in _array_names(node)
                if name in array_kinds
            }
            kinds.update(scratch)
            allocs = {}
            for slot, name in enumerate(sorted(kinds)):
                alloc = program.array_allocs.get(name)
                rank = alloc[0].rank if alloc else node.region.rank
                allocs[name] = (kernel_alloc(slot, rank), kinds[name])
            programs.append(ScalarProgram(
                program.name + "__kernel",
                {},
                allocs,
                {
                    name: program.scalars.get(name, "float")
                    for name in _scalar_names(node)
                },
                [node],
                partial={
                    name: spec for name, spec in program.partial.items()
                    if name in allocs
                },
            ))
            slots.append((entry, attr))

        for node in exec_nodes(program.body):
            entry = _node_entry(node, array_kinds, program.scalars)
            scratch = {name: kind for name, kind, _t in entry.reductions}
            if nest_fallback_reason(node, self.layout, program.partial):
                add(entry, "whole", _on_region(node), {})
            elif scratch:
                reductions = entry.reductions
                add(entry, "block", _materialized(node, reductions), scratch)
                add(entry, "fold", _fold(node, reductions, program.partial),
                    scratch)
            else:
                add(entry, "block", _on_region(node), {})
            self.nodes[id(node)] = entry
        for (entry, attr), kernel in zip(
            slots, _compile(programs, local_backend)
        ):
            setattr(entry, attr, kernel)
        #: Kernels this table compiled.
        self.built = len(programs)

    def node(self, node: SNode) -> NodeKernels:
        return self.nodes[id(node)]


def _compile(programs: Sequence[ScalarProgram],
             local_backend: str) -> List[Kernel]:
    """Render and compile every kernel program for ``local_backend``."""
    if local_backend == "c":
        calls = _native_calls(programs)
    else:
        if local_backend == "codegen_np":
            from repro.scalarize.codegen_np import render_numpy_kernel as render
        else:
            from repro.scalarize.codegen_py import (
                render_python_kernel as render,
            )
        calls = []
        for program in programs:
            namespace: Dict[str, object] = {}
            source = render(program)
            exec(compile(source, "<repro-shard-kernel>", "exec"), namespace)
            calls.append(namespace["kernel"])
    return [
        Kernel(sorted(program.array_allocs), sorted(program.scalars), call)
        for program, call in zip(programs, calls)
    ]


def _native_calls(programs: Sequence[ScalarProgram]) -> list:
    """One translation unit, one ``cc`` run; a call per ``repro_k<i>``."""
    from repro.exec import native
    from repro.scalarize.codegen_c import render_c_kernels

    if not programs:
        return []
    first = native.kernel_for_source(
        render_c_kernels(programs), entry="repro_k0"
    )
    calls = []
    for index, program in enumerate(programs):
        lib = native.NativeKernel(first.path, "repro_k%d" % index)
        dtypes = [
            np.dtype(DTYPES[program.scalars[name]])
            for name in sorted(program.scalars)
        ]
        calls.append(_native_call(lib, dtypes))
    return calls


def _native_call(lib, dtypes: Sequence[np.dtype]):
    """Adapt an entry point to the kernel calling convention: int64
    arguments in ``bufs[0]``, one-element scalar buffers written back."""

    def call(arrays, ints, values):
        scalars = [
            np.array([value], dtype=dtype)
            for value, dtype in zip(values, dtypes)
        ]
        lib.run([np.array(ints, dtype=np.int64)] + arrays + scalars)
        return [buf[0] for buf in scalars]

    return call


_TABLES: "weakref.WeakKeyDictionary[ScalarProgram, Dict[tuple, KernelTable]]" = (
    weakref.WeakKeyDictionary()
)
_TABLES_LOCK = threading.Lock()


def kernel_table(program: ScalarProgram, grid: ProcessorGrid,
                 local_backend: str) -> Tuple[KernelTable, int]:
    """The cached kernel table, and how many kernels this call built.

    ``local_backend`` is one of :data:`KERNEL_BACKENDS`.
    """
    key = (grid.shape, local_backend)
    with _TABLES_LOCK:
        tables = _TABLES.setdefault(program, {})
        table = tables.get(key)
        if table is not None:
            return table, 0
        table = tables[key] = KernelTable(program, grid, local_backend)
    return table, table.built
