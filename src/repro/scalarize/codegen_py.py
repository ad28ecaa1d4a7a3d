"""Python code generation: compile a scalarized program to executable code.

A second back end besides the C printer: emits a self-contained Python
function (explicit loops over numpy arrays, exactly the loop structure the
scalarizer chose) and ``exec``-utes it.  Runs much faster than the
tree-walking interpreter and cross-validates code generation — the tests
require codegen output, interpreter output and reference semantics to agree.

The vectorizing back end (:mod:`repro.scalarize.codegen_np`) subclasses
:class:`PyGenerator`, overriding loop-nest and reduction emission with
whole-region slice operations; everything the two back ends must agree on
lives in :mod:`repro.scalarize.emit_common`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir import expr as ir
from repro.ir.region import Region
from repro.scalarize.emit_common import (
    DTYPES,
    PY_INTRINSICS,
    SCALAR_INIT,
    bound_text,
    index_text,
    infer_expr_kind,
    int_config_env,
    kernel_int_names,
    reduce_init_literal,
)
from repro.scalarize.loopnest import (
    ElemAssign,
    LoopNest,
    ReductionLoop,
    SBoundary,
    ScalarAssign,
    ScalarProgram,
    SeqLoop,
    SIf,
    SNode,
    SWhile,
    loop_variable,
)
from repro.util.errors import ScalarizationError


class PyGenerator:
    """Emits a Python module whose ``run()`` returns the final state."""

    def __init__(
        self, program: ScalarProgram, env: Optional[Dict[str, int]] = None
    ) -> None:
        self._program = program
        self._lines: List[str] = []
        self._bases: Dict[str, Tuple[int, ...]] = {}
        #: Config environment for evaluating region bounds at generation
        #: time (allocations, halo fills) — the codegen analogue of the
        #: interpreter's ``_int_env()``.
        self._env: Dict[str, int] = (
            dict(env) if env is not None else int_config_env(program.configs)
        )

    def _preamble(self) -> List[str]:
        return [
            "import math",
            "import numpy as np",
            "",
            "from repro.util.errors import InterpError",
            "",
            "def run(_inputs=None):",
        ]

    def render(self) -> str:
        self._lines = self._preamble()
        self._emit_config_bindings()
        self._emit_allocations()
        self._emit_body(self._program.body, 1)
        self._emit_return()
        return "\n".join(self._lines) + "\n"

    def render_kernel(self) -> str:
        """Render a kernel program as ``kernel(_arrays, _ints, _scalars)``.

        See :func:`repro.scalarize.emit_common.kernel_int_names` for the
        argument convention: arrays update in place, and the kernel
        returns the final value of every scalar it was passed.
        """
        self._lines = self._preamble()[:-1]
        self._emit("def kernel(_arrays, _ints, _scalars):", 0)
        arrays = sorted(self._program.array_allocs)
        for name in arrays:
            region, _kind = self._program.array_allocs[name]
            self._bases[name] = tuple(lo for lo, _hi in region.dims)
        scalars = sorted(self._program.scalars)
        for names, source in (
            (arrays, "_arrays"),
            (kernel_int_names(self._program), "_ints"),
            (scalars, "_scalars"),
        ):
            if names:
                self._emit("(%s,) = %s" % (", ".join(names), source))
        self._emit_body(self._program.body, 1)
        self._emit("return (%s)" % "".join(name + ", " for name in scalars))
        return "\n".join(self._lines) + "\n"

    def _region_free_variables(self) -> set:
        """Names referenced symbolically by any region bound in the program."""
        regions = [region for region, _kind in self._program.array_allocs.values()]

        def visit(body) -> None:
            for node in body:
                region = getattr(node, "region", None)
                if region is not None:
                    regions.append(region)
                for attr in ("body", "then_body", "else_body"):
                    inner = getattr(node, attr, None)
                    if isinstance(inner, list):
                        visit(inner)

        visit(self._program.body)
        names = set()
        for region in regions:
            for lo, hi in region.dims:
                names.update(lo.free_variables())
                names.update(hi.free_variables())
        return names

    def _emit_config_bindings(self) -> None:
        """Bind configuration scalars that region bounds reference by name.

        Loop headers, slices and guards render symbolic bounds textually
        (e.g. ``range(1, n + 1)``), so those names must exist in the
        generated function.  Loop variables are assigned by their own
        loops; only configuration bindings need materializing.
        """
        free = self._region_free_variables()
        for name in sorted(free & set(self._env)):
            self._emit("%s = %d" % (name, self._env[name]))

    # ------------------------------------------------------------------

    def _emit(self, text: str, depth: int = 1) -> None:
        self._lines.append("    " * depth + text)

    def _emit_allocations(self) -> None:
        for name, (region, kind) in self._program.array_allocs.items():
            bounds = region.concrete_bounds(self._env)
            shape = tuple(max(hi - lo + 1, 1) for lo, hi in bounds)
            self._bases[name] = tuple(lo for lo, _hi in bounds)
            self._emit(
                "%s = np.zeros(%r, dtype=np.%s)" % (name, shape, DTYPES[kind])
            )
            self._emit(
                "if _inputs is not None and %r in _inputs: "
                "%s[...] = _inputs[%r]" % (name, name, name)
            )
        for name, kind in self._program.scalars.items():
            self._emit("%s = %s" % (name, SCALAR_INIT[kind]))

    def _emit_return(self) -> None:
        arrays = ", ".join(
            "%r: %s" % (name, name) for name in self._program.array_allocs
        )
        scalars = ", ".join(
            "%r: %s" % (name, name) for name in self._program.scalars
        )
        self._emit("return ({%s}, {%s})" % (arrays, scalars))

    # ------------------------------------------------------------------

    def _emit_body(self, body: List[SNode], depth: int) -> None:
        if not body:
            self._emit("pass", depth)
            return
        for node in body:
            if isinstance(node, LoopNest):
                self._emit_nest(node, depth)
            elif isinstance(node, ReductionLoop):
                self._emit_reduction(node, depth)
            elif isinstance(node, SBoundary):
                self._emit_boundary(node, depth)
            elif isinstance(node, ScalarAssign):
                self._emit(
                    "%s = %s" % (node.target, self._expr(node.rhs)), depth
                )
            elif isinstance(node, SeqLoop):
                lo = self._expr(node.lo)
                hi = self._expr(node.hi)
                if node.downto:
                    header = "for %s in range(%s, %s - 1, -1):" % (
                        node.var,
                        lo,
                        hi,
                    )
                else:
                    header = "for %s in range(%s, %s + 1):" % (node.var, lo, hi)
                self._emit(header, depth)
                self._emit_body(node.body, depth + 1)
            elif isinstance(node, SIf):
                self._emit("if %s:" % self._expr(node.cond), depth)
                self._emit_body(node.then_body, depth + 1)
                if node.else_body:
                    self._emit("else:", depth)
                    self._emit_body(node.else_body, depth + 1)
            elif isinstance(node, SWhile):
                self._emit("while %s:" % self._expr(node.cond), depth)
                self._emit_body(node.body, depth + 1)
            else:
                raise ScalarizationError("cannot emit %r" % node)

    def _emit_loop_headers(self, region: Region, structure, depth: int) -> int:
        for level, signed_dim in enumerate(structure):
            dim = abs(signed_dim)
            lo, hi = region.dims[dim - 1]
            var = loop_variable(dim)
            lo_text = str(lo).replace(" ", "")
            hi_text = str(hi).replace(" ", "")
            if signed_dim > 0:
                header = "for %s in range(%s, %s + 1):" % (var, lo_text, hi_text)
            else:
                header = "for %s in range(%s, %s - 1, -1):" % (
                    var,
                    hi_text,
                    lo_text,
                )
            self._emit(header, depth + level)
        return depth + len(structure)

    def _emit_nest(self, nest: LoopNest, depth: int) -> None:
        inner = self._emit_loop_headers(nest.region, nest.structure, depth)
        for stmt in nest.body:
            value = self._expr(stmt.rhs)
            if stmt.reduce_op is not None:
                self._emit(
                    "%s = %s"
                    % (
                        stmt.scalar_target,
                        self._fold(stmt.reduce_op, stmt.scalar_target, value),
                    ),
                    inner,
                )
            elif stmt.is_contracted:
                self._emit("%s = %s" % (stmt.scalar_target, value), inner)
            else:
                self._emit(
                    "%s = %s"
                    % (self._element(stmt.target, (0,) * nest.rank), value),
                    inner,
                )

    def _reduction_kind(self, node: ReductionLoop) -> str:
        array_kinds = {
            name: kind for name, (_region, kind) in self._program.array_allocs.items()
        }
        return infer_expr_kind(node.operand, array_kinds, self._program.scalars)

    def _emit_empty_reduction_guard(self, region: Region, depth: int) -> None:
        """Raise on reductions over empty regions, as the interpreter does.

        Constant bounds are decided at generation time; symbolic bounds
        (dynamic regions) emit a runtime check.
        """
        clauses: List[str] = []
        statically_empty = False
        for lo, hi in region.dims:
            extent = hi - lo
            if extent.is_constant:
                if extent.const < 0:
                    statically_empty = True
            else:
                clauses.append("%s < %s" % (bound_text(hi), bound_text(lo)))
        message = "reduction over an empty region"
        if statically_empty:
            self._emit("raise InterpError(%r)" % message, depth)
        elif clauses:
            self._emit("if %s:" % " or ".join(clauses), depth)
            self._emit("raise InterpError(%r)" % message, depth + 1)

    def _emit_reduction(self, node: ReductionLoop, depth: int) -> None:
        self._emit_empty_reduction_guard(node.region, depth)
        init = reduce_init_literal(node.op, self._reduction_kind(node))
        self._emit("%s = %s" % (node.target, init), depth)
        structure = tuple(range(1, node.region.rank + 1))
        inner = self._emit_loop_headers(node.region, structure, depth)
        value = self._expr(node.operand)
        self._emit(
            "%s = %s" % (node.target, self._fold(node.op, node.target, value)),
            inner,
        )

    def _emit_boundary(self, node: SBoundary, depth: int) -> None:
        """Halo fill as per-plane numpy copies (bounds are constant or
        config-dependent; the config environment resolves the latter)."""
        bounds = node.region.concrete_bounds(self._env)
        bases = self._bases[node.array]
        region, _kind = self._program.array_allocs[node.array]
        alloc = region.concrete_bounds(self._env)
        for dim, ((lo, hi), (alo, ahi)) in enumerate(zip(bounds, alloc)):
            lo_raw = lo - bases[dim]
            hi_raw = hi - bases[dim]
            extent = ahi - alo + 1
            period = hi_raw - lo_raw + 1
            for raw in range(0, lo_raw):
                src = self._boundary_source(node.kind, raw, lo_raw, hi_raw, period)
                self._emit_plane_copy(node.array, dim, raw, src, len(bounds), depth)
            for raw in range(hi_raw + 1, extent):
                src = self._boundary_source(node.kind, raw, lo_raw, hi_raw, period)
                self._emit_plane_copy(node.array, dim, raw, src, len(bounds), depth)

    @staticmethod
    def _boundary_source(kind: str, raw: int, lo: int, hi: int, period: int) -> int:
        if kind == "wrap":
            return lo + ((raw - lo) % period)
        if raw < lo:
            return 2 * lo - 1 - raw
        return 2 * hi + 1 - raw

    def _emit_plane_copy(
        self, array: str, dim: int, dest: int, source: int, rank: int, depth: int
    ) -> None:
        dest_idx = ", ".join(
            str(dest) if d == dim else ":" for d in range(rank)
        )
        src_idx = ", ".join(
            str(source) if d == dim else ":" for d in range(rank)
        )
        self._emit("%s[%s] = %s[%s]" % (array, dest_idx, array, src_idx), depth)

    @staticmethod
    def _fold(op: str, accumulator: str, value: str) -> str:
        if op == "+":
            return "%s + %s" % (accumulator, value)
        if op == "*":
            return "%s * %s" % (accumulator, value)
        if op in ("max", "min"):
            return "%s(%s, %s)" % (op, accumulator, value)
        raise ScalarizationError("unknown reduction operator %r" % op)

    # ------------------------------------------------------------------

    def _element(self, array: str, offset) -> str:
        wrap = self._program.partial.get(array)
        indices = []
        for dim, (off, base) in enumerate(
            zip(offset, self._bases[array]), start=1
        ):
            if wrap is not None and dim == wrap[0]:
                if off:
                    indices.append(
                        "(%s %+d) %% %d" % (loop_variable(dim), off, wrap[1])
                    )
                else:
                    indices.append("%s %% %d" % (loop_variable(dim), wrap[1]))
                continue
            indices.append(index_text(loop_variable(dim), off - base))
        return "%s[%s]" % (array, ", ".join(indices))

    def _expr(self, expr: ir.IRExpr) -> str:
        if isinstance(expr, ir.Const):
            if isinstance(expr.value, float) and math.isinf(expr.value):
                return "math.inf" if expr.value > 0 else "-math.inf"
            return repr(expr.value)
        if isinstance(expr, ir.ScalarRef):
            return expr.name
        if isinstance(expr, ir.IndexRef):
            return loop_variable(expr.dim)
        if isinstance(expr, ir.ArrayRef):
            return self._element(expr.name, expr.offset)
        if isinstance(expr, ir.BinOp):
            op = {"=": "==", "^": "**"}.get(expr.op, expr.op)
            return "(%s %s %s)" % (self._expr(expr.left), op, self._expr(expr.right))
        if isinstance(expr, ir.UnOp):
            if expr.op == "not":
                return "(not %s)" % self._expr(expr.operand)
            return "(%s%s)" % (expr.op, self._expr(expr.operand))
        if isinstance(expr, ir.Call):
            if expr.name == "mod":
                # Floored modulo, matching the interpreter's np.mod (the
                # sign follows the divisor; math.fmod follows the dividend).
                left, right = expr.args
                return "(%s %% %s)" % (self._expr(left), self._expr(right))
            fn = PY_INTRINSICS.get(expr.name)
            if fn is None:
                if expr.name == "sign":
                    (arg,) = expr.args
                    text = self._expr(arg)
                    return "(0.0 if %s == 0 else math.copysign(1.0, %s))" % (
                        text,
                        text,
                    )
                raise ScalarizationError("unknown intrinsic %r" % expr.name)
            return "%s(%s)" % (fn, ", ".join(self._expr(a) for a in expr.args))
        raise ScalarizationError("cannot render %r" % expr)


def render_python(
    program: ScalarProgram, env: Optional[Dict[str, int]] = None
) -> str:
    """Render a scalarized program as executable Python source.

    ``env`` supplies integer bindings for region bounds that reference
    configuration scalars; it defaults to the program's own config table.
    """
    return PyGenerator(program, env).render()


def render_python_kernel(program: ScalarProgram) -> str:
    """Render a kernel program as element loops (see ``render_kernel``)."""
    return PyGenerator(program).render_kernel()


def execute_python(
    program: ScalarProgram, env: Optional[Dict[str, int]] = None, inputs=None
):
    """Compile and run the generated Python; returns (arrays, scalars).

    ``arrays`` maps array names to numpy arrays over their allocation
    regions (same layout as :class:`repro.interp.storage.Storage`).
    ``inputs`` optionally seeds named arrays with initial contents of that
    same allocation-region shape instead of zeros.
    """
    source = render_python(program, env)
    namespace: Dict[str, object] = {}
    exec(compile(source, "<repro-codegen>", "exec"), namespace)
    return namespace["run"](inputs)
