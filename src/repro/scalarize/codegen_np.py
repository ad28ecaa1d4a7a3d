"""Whole-region NumPy code generation.

A third execution back end: compile each fused cluster to slice
operations over entire regions instead of element loops.  The legality
analysis is the carry information the scalarizer attaches to every nest
(:attr:`~repro.scalarize.loopnest.LoopNest.carried_depth`, computed by
:func:`repro.fusion.loopstruct.serial_depth`):

* ``carried_depth == 0`` — no intra-cluster dependence is loop-carried,
  so the nest is a dependence-free sweep.  Distributing it statement by
  statement and executing each statement as one whole-region slice
  operation preserves every dependence: zero-distance dependences are
  preserved by statement order (a statement's full-region write completes
  before the next statement reads), and there are no others.
* ``0 < carried_depth < rank`` — the outermost ``carried_depth`` loops
  carry dependences and are peeled as serial Python loops; the inner
  loops are dependence-free and collapse to slices, one hyperplane at a
  time (e.g. the Figure 1 tridiagonal solve: serial in ``i``, vectorized
  over ``j``).
* ``carried_depth == rank`` (or ``None``, for hand-built nests with no
  carry analysis) — every level carries a dependence; fall back to the
  element loops of :class:`~repro.scalarize.codegen_py.PyGenerator`.

Nests touching partially contracted arrays (circular buffers indexed
modulo their depth) also fall back to element loops: modular indexing has
no contiguous slice form.

Contraction scalars inside a vectorized nest become whole-region
temporaries (the value at *every* index point, materialized with
``np.broadcast_to``); after the nest body the scalar is restored from the
"corner" — the index of the nest's final iteration, ``-1`` along
ascending dimensions and ``0`` along descending ones — so subsequent
reads outside the nest observe exactly the value serial execution would
have left behind.

Reductions evaluate their operand over the whole region and fold it with
``np.sum``/``np.prod``/``np.max``/``np.min``, mirroring the interpreters
(:mod:`repro.interp.evalexpr`); empty regions raise
:class:`~repro.util.errors.InterpError` exactly as the interpreter does.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize.codegen_py import PyGenerator
from repro.scalarize.emit_common import NP_INTRINSICS, bound_text, index_text
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ReductionLoop,
    ScalarProgram,
    loop_variable,
)
from repro.util.errors import ScalarizationError


def _nest_array_names(nest: LoopNest) -> List[str]:
    names = []
    for stmt in nest.body:
        if stmt.target is not None:
            names.append(stmt.target)
        for node in stmt.rhs.walk():
            if isinstance(node, ir.ArrayRef):
                names.append(node.name)
    return names


def vector_split(
    nest: LoopNest, partial: Optional[Dict[str, Tuple[int, int]]] = None
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The legal (serial prefix, vectorized dims) split for a nest.

    ``None`` means the nest must run as element loops: unknown carry
    depth, every level carried, or modular (circular-buffer) indexing.
    Otherwise returns ``(serial_levels, vdims)``: the outermost
    ``carried_depth`` signed structure entries that must stay serial
    loops, and the array dimensions (1-based, ascending) proved
    dependence-free by the carry analysis — the dimensions a vectorizer
    may collapse to slices and a tile engine may shard across workers.
    """
    if nest.carried_depth is None or nest.carried_depth >= nest.rank:
        return None
    if partial and any(name in partial for name in _nest_array_names(nest)):
        return None
    serial_levels = tuple(nest.structure[: nest.carried_depth])
    vdims = tuple(
        sorted(abs(d) for d in nest.structure[nest.carried_depth :])
    )
    return serial_levels, vdims


class ShardPlan(NamedTuple):
    """How one loop nest may be sharded into tiles (see Definition 2).

    The proof obligation is discharged by the carry analysis: every
    intra-cluster dependence (flow, anti and output, from the cluster's
    unconstrained distance vectors) is carried by one of the
    ``serial_levels`` loops, so along the ``shardable_dims`` no
    dependence has a non-zero component and tiles may execute in any
    order — or concurrently — between serial iterations.

    ``mode`` is ``"parallel"`` (one kernel sweeps all statements per
    tile), ``"per-statement"`` (statement-level barriers because a
    statement reads an array another statement of the same nest writes
    at a non-zero offset along a shardable dimension), or ``"serial"``
    (``reason`` says why the nest must not be tiled at all).

    ``halo`` maps each shardable dimension to the widest constant
    reference offset along it — the number of neighbor elements a tile
    reads beyond its own bounds, exactly the strip widths
    :func:`repro.parallel.comm.analyze_run` accounts border-exchange
    bytes for.
    """

    serial_levels: Tuple[int, ...]
    shardable_dims: Tuple[int, ...]
    mode: str
    reason: Optional[str]
    halo: Dict[int, int]
    hazard_arrays: Tuple[str, ...]

    @property
    def parallel(self) -> bool:
        return self.mode != "serial"


def _serial_plan(reason: str) -> ShardPlan:
    return ShardPlan((), (), "serial", reason, {}, ())


def shard_plan(
    nest: LoopNest, partial: Optional[Dict[str, Tuple[int, int]]] = None
) -> ShardPlan:
    """Decide how (and whether) a nest may execute as parallel tiles."""
    split = vector_split(nest, partial)
    if split is None:
        if nest.carried_depth is None:
            return _serial_plan("carried depth unknown (hand-built nest)")
        if nest.carried_depth >= nest.rank:
            return _serial_plan("every loop level carries a dependence")
        return _serial_plan("touches a circular-buffer array")
    serial_levels, vdims = split
    body = nest.body
    if any(stmt.reduce_op is not None for stmt in body):
        # Tiling a fused reduction would reassociate the fold and break
        # bit-identity with the whole-region backend.
        return _serial_plan("fused reduction folds over the region")

    written = {stmt.target for stmt in body if stmt.target is not None}
    halo: Dict[int, int] = {dim: 0 for dim in vdims}
    hazard_arrays = set()
    for stmt in body:
        for ref in stmt.rhs.array_refs():
            crosses = False
            for dim in vdims:
                width = abs(ref.offset[dim - 1])
                if width:
                    halo[dim] = max(halo[dim], width)
                    crosses = True
            if crosses and ref.name in written:
                hazard_arrays.add(ref.name)

    contracted = [
        stmt for stmt in body if stmt.reduce_op is None and stmt.is_contracted
    ]
    if contracted:
        if hazard_arrays:
            return _serial_plan(
                "contraction scalars mixed with cross-tile reads of "
                "nest-written arrays"
            )
        # The corner restore is recomputed at the final index point after
        # the sweep; that is only the value serial execution leaves behind
        # if no later statement overwrites an array the scalar reads.
        for index, stmt in enumerate(body):
            if stmt.reduce_op is None and stmt.is_contracted:
                later = {
                    s.target for s in body[index + 1 :] if s.target is not None
                }
                if any(ref.name in later for ref in stmt.rhs.array_refs()):
                    return _serial_plan(
                        "contraction scalar reads an array a later "
                        "statement overwrites"
                    )
        return ShardPlan(serial_levels, vdims, "parallel", None, halo, ())
    if hazard_arrays:
        return ShardPlan(
            serial_levels,
            vdims,
            "per-statement",
            None,
            halo,
            tuple(sorted(hazard_arrays)),
        )
    return ShardPlan(serial_levels, vdims, "parallel", None, halo, ())


def program_shard_plans(
    program: ScalarProgram,
) -> List[Tuple[LoopNest, ShardPlan]]:
    """Per-nest shardability metadata for a whole scalarized program."""
    return [
        (nest, shard_plan(nest, program.partial))
        for nest in program.loop_nests()
    ]


class _VectorContext:
    """Rendering context for one vectorized region.

    ``region`` supplies the bounds, ``vdims`` is the set of vectorized
    array dimensions (1-based); the remaining dimensions are indexed by
    their serial loop variables.  Slice results keep one axis per
    vectorized dimension, in ascending dimension order.
    """

    def __init__(self, region: Region, vdims: Sequence[int]) -> None:
        self.region = region
        self.vdims = sorted(vdims)
        self._axis = {dim: k for k, dim in enumerate(self.vdims)}

    def axis_of(self, dim: int) -> int:
        return self._axis[dim]

    @property
    def rank(self) -> int:
        return len(self.vdims)


class NumpyGenerator(PyGenerator):
    """Emits whole-region slice operations where carry analysis allows."""

    # -- loop nests --------------------------------------------------------

    def _emit_nest(self, nest: LoopNest, depth: int) -> None:
        plan = self._vector_plan(nest)
        if plan is None:
            super()._emit_nest(nest, depth)
            return
        serial_levels, ctx = plan
        inner = self._emit_loop_headers(nest.region, serial_levels, depth)

        needs_guard = any(
            stmt.reduce_op is not None or stmt.is_contracted
            for stmt in nest.body
        )
        emptiness = self._region_emptiness(ctx)
        if emptiness == "empty":
            # The vectorized dims are statically empty: the nest body never
            # executes (slice assignments would be no-ops, but reductions
            # and corner restores must not run at all).
            if serial_levels:
                self._emit("pass", inner)
            return
        if needs_guard and emptiness == "unknown":
            self._emit("if %s:" % self._nonempty_cond(ctx), inner)
            inner += 1

        corner_targets: List[str] = []
        for stmt in nest.body:
            self._emit_vector_stmt(stmt, nest, ctx, inner)
            if stmt.reduce_op is None and stmt.is_contracted:
                if stmt.scalar_target not in corner_targets:
                    corner_targets.append(stmt.scalar_target)
        corner = ", ".join(
            "-1" if self._dim_direction(nest, dim) > 0 else "0"
            for dim in ctx.vdims
        )
        for name in corner_targets:
            self._emit("%s = %s[%s]" % (name, name, corner), inner)

    def _vector_plan(self, nest: LoopNest):
        """The (serial prefix, vector context) for a nest, or ``None``.

        ``None`` means the nest must run as element loops: unknown carry
        depth, every level carried, or modular (circular-buffer) indexing.
        """
        split = vector_split(nest, self._program.partial)
        if split is None:
            return None
        serial_levels, vdims = split
        return serial_levels, _VectorContext(nest.region, vdims)

    @staticmethod
    def _dim_direction(nest: LoopNest, dim: int) -> int:
        for signed in nest.structure:
            if abs(signed) == dim:
                return 1 if signed > 0 else -1
        raise ScalarizationError("dimension %d not in structure" % dim)

    def _region_emptiness(self, ctx: _VectorContext) -> str:
        """'nonempty' / 'empty' / 'unknown' for the vectorized dims."""
        verdict = "nonempty"
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            extent = hi - lo
            if not extent.is_constant:
                verdict = "unknown"
            elif extent.const < 0:
                return "empty"
        return verdict

    def _nonempty_cond(self, ctx: _VectorContext) -> str:
        clauses = []
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            if not (hi - lo).is_constant:
                clauses.append("%s >= %s" % (bound_text(hi), bound_text(lo)))
        return " and ".join(clauses)

    def _emit_vector_stmt(
        self, stmt: ElemAssign, nest: LoopNest, ctx: _VectorContext, depth: int
    ) -> None:
        value = self._vexpr(stmt.rhs, ctx)
        if stmt.reduce_op is not None:
            folded = self._vector_fold(
                stmt.reduce_op,
                stmt.scalar_target,
                self._broadcast(value, ctx),
            )
            self._emit("%s = %s" % (stmt.scalar_target, folded), depth)
        elif stmt.is_contracted:
            # Materialize the scalar's value at every index point so the
            # corner restore (and any vector read downstream) is well
            # defined even when the RHS contains no array reference.
            self._emit(
                "%s = %s" % (stmt.scalar_target, self._broadcast(value, ctx)),
                depth,
            )
        else:
            target = self._vector_element(
                stmt.target, (0,) * nest.rank, ctx
            )
            self._emit("%s = %s" % (target, value), depth)

    @staticmethod
    def _vector_fold(op: str, accumulator: str, region_value: str) -> str:
        if op == "+":
            return "%s + np.sum(%s)" % (accumulator, region_value)
        if op == "*":
            return "%s * np.prod(%s)" % (accumulator, region_value)
        if op == "max":
            return "np.maximum(%s, np.max(%s))" % (accumulator, region_value)
        if op == "min":
            return "np.minimum(%s, np.min(%s))" % (accumulator, region_value)
        raise ScalarizationError("unknown reduction operator %r" % op)

    def _broadcast(self, value: str, ctx: _VectorContext) -> str:
        return "np.broadcast_to(np.asarray(%s), %s)" % (
            value,
            self._shape_text(ctx),
        )

    def _shape_text(self, ctx: _VectorContext) -> str:
        extents = []
        for dim in ctx.vdims:
            lo, hi = ctx.region.dims[dim - 1]
            extents.append(bound_text(hi - lo, 1))
        return "(%s,)" % ", ".join(extents)

    # -- reductions --------------------------------------------------------

    _REDUCERS = {"+": "np.sum", "*": "np.prod", "max": "np.max", "min": "np.min"}

    def _emit_reduction(self, node: ReductionLoop, depth: int) -> None:
        touches_wrapped = self._program.partial and any(
            isinstance(n, ir.ArrayRef) and n.name in self._program.partial
            for n in node.operand.walk()
        )
        if touches_wrapped:
            super()._emit_reduction(node, depth)
            return
        self._emit_empty_reduction_guard(node.region, depth)
        ctx = _VectorContext(node.region, range(1, node.region.rank + 1))
        reducer = self._REDUCERS.get(node.op)
        if reducer is None:
            raise ScalarizationError("unknown reduction operator %r" % node.op)
        value = self._broadcast(self._vexpr(node.operand, ctx), ctx)
        self._emit("%s = %s(%s)" % (node.target, reducer, value), depth)

    # -- vector expression rendering ---------------------------------------

    def _vector_element(self, array: str, offset, ctx: _VectorContext) -> str:
        indices = []
        for dim, (off, base) in enumerate(
            zip(offset, self._bases[array]), start=1
        ):
            shift = off - base
            if dim in ctx._axis:
                lo, hi = ctx.region.dims[dim - 1]
                indices.append(
                    "%s:%s" % (bound_text(lo, shift), bound_text(hi, shift + 1))
                )
            else:
                indices.append(index_text(loop_variable(dim), shift))
        return "%s[%s]" % (array, ", ".join(indices))

    def _index_grid(self, dim: int, ctx: _VectorContext) -> str:
        lo, hi = ctx.region.dims[dim - 1]
        grid = "np.arange(%s, %s)" % (bound_text(lo), bound_text(hi, 1))
        if ctx.rank == 1:
            return grid
        shape = ["1"] * ctx.rank
        shape[ctx.axis_of(dim)] = "-1"
        return "%s.reshape(%s)" % (grid, ", ".join(shape))

    def _vexpr(self, expr: ir.IRExpr, ctx: _VectorContext) -> str:
        if isinstance(expr, ir.ArrayRef):
            return self._vector_element(expr.name, expr.offset, ctx)
        if isinstance(expr, ir.IndexRef):
            if expr.dim in ctx._axis:
                return self._index_grid(expr.dim, ctx)
            return loop_variable(expr.dim)
        if isinstance(expr, (ir.Const, ir.ScalarRef)):
            return self._expr(expr)
        if isinstance(expr, ir.BinOp):
            left = self._vexpr(expr.left, ctx)
            right = self._vexpr(expr.right, ctx)
            # Mirror repro.interp.evalexpr.apply_binop operator for
            # operator so slice results match the interpreters.
            if expr.op in ("and", "or"):
                return "np.logical_%s(%s, %s)" % (expr.op, left, right)
            if expr.op == "^":
                return "np.power(np.asarray(%s, dtype=np.float64), %s)" % (
                    left,
                    right,
                )
            op = "==" if expr.op == "=" else expr.op
            return "(%s %s %s)" % (left, op, right)
        if isinstance(expr, ir.UnOp):
            if expr.op == "not":
                return "np.logical_not(%s)" % self._vexpr(expr.operand, ctx)
            return "(%s%s)" % (expr.op, self._vexpr(expr.operand, ctx))
        if isinstance(expr, ir.Call):
            args = ", ".join(self._vexpr(a, ctx) for a in expr.args)
            if expr.name in ("floor", "ceil"):
                return "np.asarray(np.%s(%s)).astype(np.int64)" % (
                    expr.name,
                    args,
                )
            fn = NP_INTRINSICS.get(expr.name)
            if fn is None:
                raise ScalarizationError("unknown intrinsic %r" % expr.name)
            return "%s(%s)" % (fn, args)
        raise ScalarizationError("cannot render %r" % expr)


def render_numpy(
    program: ScalarProgram, env: Optional[Dict[str, int]] = None
) -> str:
    """Render a scalarized program as vectorized NumPy source."""
    return NumpyGenerator(program, env).render()


def render_numpy_kernel(program: ScalarProgram) -> str:
    """Render a kernel program as slice operations (see
    :meth:`repro.scalarize.codegen_py.PyGenerator.render_kernel`)."""
    return NumpyGenerator(program).render_kernel()


def execute_numpy(
    program: ScalarProgram, env: Optional[Dict[str, int]] = None, inputs=None
):
    """Compile and run the vectorized NumPy code; returns (arrays, scalars).

    ``inputs`` optionally seeds named arrays with initial contents of the
    allocation-region shape instead of zeros.
    """
    source = render_numpy(program, env)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<repro-codegen-np>", "exec"), namespace)
    return namespace["run"](inputs)
