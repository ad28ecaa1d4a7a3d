"""C code generation from the scalarized program.

The emitted code mirrors what the ZPL compiler hands to its back-end C
compiler: one loop nest per fusible cluster, contracted arrays as scalars,
reductions as accumulation loops.  It renders in two modes:

* **inspection** (:func:`render_c`) — the historical static translation
  unit with a ``void <name>_main(void)`` driver, used for documentation
  and differential reading in tests (the Figure 6 compiler-output
  methodology infers optimizer behaviour from exactly this output);
* **module** (:func:`render_c_module`) — an executable translation unit
  exposing ``int repro_run(void **bufs)``, compiled by the host ``cc``
  and loaded via ``ctypes`` by the native ``c`` backend
  (:mod:`repro.exec.native`).  Arrays and scalars travel through a flat
  buffer vector in the deterministic order :func:`c_abi` defines; a
  nonzero return signals a runtime error (1 = reduction over an empty
  region, mirroring the interpreter's ``InterpError``).

Emission is kind-typed end to end: ``double`` / ``int64_t`` /
``unsigned char`` storage matching ``emit_common.DTYPES``, typed
reduction accumulators with per-kind identities, floored integer and
float modulo helpers, and exactly the ``min``/``max``/``sign`` tie and
zero semantics of the Python element loops — the serial C output is
required to be *bit-identical* to :mod:`codegen_py` (see
``tests/test_fuzz_differential.py``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.scalarize.emit_common import infer_expr_kind, kernel_int_names
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

#: Element-kind -> C storage type.  Must stay layout-compatible with
#: ``emit_common.DTYPES`` (float64 / int64 / bool_): the native backend
#: passes numpy buffers by pointer with zero copies.
_C_TYPES = {"float": "double", "integer": "int64_t", "boolean": "unsigned char"}

#: ``INT64_MIN`` cannot be written as one literal: C parses
#: ``-9223372036854775808`` as unary minus applied to an out-of-range
#: positive constant.
_C_INT64_MIN = "(-9223372036854775807LL - 1)"
_C_INT64_MAX = "9223372036854775807LL"

#: Helper functions emitted into the translation unit on first use.
#: ``repro_mod``/``repro_imod`` are floored modulo (sign of the divisor,
#: and a zero result takes the divisor's sign) — exactly CPython's float
#: ``%`` and ``np.mod``, where C's ``fmod``/``%`` truncate toward zero.
#: ``repro_sign`` mirrors ``codegen_py``'s ``0.0 if x == 0 else
#: copysign(1.0, x)`` (plain ``copysign`` is wrong at zero).
_HELPERS = {
    "repro_mod": [
        "static double repro_mod(double a, double b) {",
        "    double r = fmod(a, b);",
        "    if (r != 0.0) {",
        "        if ((r < 0.0) != (b < 0.0)) {",
        "            r += b;",
        "        }",
        "    } else {",
        "        r = copysign(0.0, b);",
        "    }",
        "    return r;",
        "}",
    ],
    "repro_imod": [
        "static int64_t repro_imod(int64_t a, int64_t b) {",
        "    int64_t r = a % b;",
        "    if (r != 0 && ((r < 0) != (b < 0))) {",
        "        r += b;",
        "    }",
        "    return r;",
        "}",
    ],
    "repro_iabs": [
        "static int64_t repro_iabs(int64_t a) {",
        "    return (a < 0) ? -a : a;",
        "}",
    ],
    "repro_sign": [
        "static double repro_sign(double a) {",
        "    return (a == 0.0) ? 0.0 : copysign(1.0, a);",
        "}",
    ],
}
_HELPER_ORDER = ("repro_mod", "repro_imod", "repro_iabs", "repro_sign")

#: Reduction identities per accumulator kind (the C spelling of
#: ``emit_common.reduce_init_literal``): integer accumulators start from
#: integer identities, float accumulators from float ones — initializing
#: an ``int64_t`` product with ``1.0`` or a max with ``-DBL_MAX`` is the
#: divergence class PR 1 fixed for the Python emitters.
_C_FLOAT_REDUCE_INIT = {
    "+": "0.0",
    "*": "1.0",
    "max": "-INFINITY",
    "min": "INFINITY",
}
_C_INT_REDUCE_INIT = {
    "+": "0",
    "*": "1",
    "max": _C_INT64_MIN,
    "min": _C_INT64_MAX,
}

#: Fold steps.  The min/max comparison keeps the *accumulator* on ties,
#: matching the Python fold ``min(acc, value)`` bit for bit (including
#: -0.0/+0.0 ties and NaN propagation order).
_REDUCE_STEP = {
    "+": "%s += %s;",
    "*": "%s *= %s;",
    "max": "%s = (%s > %s) ? %s : %s;",
    "min": "%s = (%s < %s) ? %s : %s;",
}


def _c_reduce_init(op: str, kind: str) -> str:
    table = (
        _C_INT_REDUCE_INIT
        if kind in ("integer", "boolean")
        else _C_FLOAT_REDUCE_INIT
    )
    init = table.get(op)
    if init is None:
        raise ScalarizationError("unknown reduction operator %r" % op)
    return init


def _translation_unit(lines: List[str], helpers: set) -> str:
    """The standard header, the helpers in use, then ``lines``."""
    header = [
        "/* generated by repro (array-level fusion + contraction) */",
        "#include <math.h>",
        "#include <stdint.h>",
        "",
    ]
    for name in _HELPER_ORDER:
        if name in helpers:
            header.extend(_HELPERS[name])
            header.append("")
    return "\n".join(header + lines) + "\n"


class AbiEntry(NamedTuple):
    """One slot of the ``repro_run(void **bufs)`` buffer vector."""

    name: str
    role: str  #: "array" or "scalar"
    kind: str  #: element kind ("float" / "integer" / "boolean")
    shape: Tuple[int, ...]  #: allocation-region shape; () for scalars
    bases: Tuple[int, ...]  #: lower bound per dimension (symbolic in kernels)


def c_abi(program: ScalarProgram) -> List[AbiEntry]:
    """The buffer order of the compiled entry point, as data.

    Both the emitter (:func:`render_c_module`) and the runner
    (:mod:`repro.exec.native`) derive the ABI from this one function, so
    they cannot drift: arrays in sorted name order, then scalars in
    sorted name order.  Scalars travel as one-element buffers and are
    written back on return.
    """
    from repro.scalarize.emit_common import int_config_env

    env = int_config_env(program.configs)
    entries: List[AbiEntry] = []
    for name in sorted(program.array_allocs):
        region, kind = program.array_allocs[name]
        shape: List[int] = []
        bases: List[int] = []
        for lo, hi in region.dims:
            lo_value = lo.substitute(env)
            extent = (hi - lo + 1).substitute(env)
            if not (lo_value.is_constant and extent.is_constant):
                raise ScalarizationError(
                    "array %s has a non-constant allocation region %s"
                    % (name, region)
                )
            bases.append(lo_value.const)
            shape.append(max(extent.const, 1))
        entries.append(AbiEntry(name, "array", kind, tuple(shape), tuple(bases)))
    for name in sorted(program.scalars):
        entries.append(AbiEntry(name, "scalar", program.scalars[name], (), ()))
    return entries


class CGenerator:
    """Renders a :class:`ScalarProgram` as a C translation unit."""

    def __init__(self, program: ScalarProgram, module: bool = False) -> None:
        self._program = program
        self._module = module
        self._seq_counter = 0
        self._lines: List[str] = []
        # Array base offsets: name -> list of constant lower bounds.
        self._bases: Dict[str, List[int]] = {}
        self._helpers: set = set()
        self._array_kinds = {
            name: kind for name, (_r, kind) in program.array_allocs.items()
        }
        from repro.scalarize.emit_common import int_config_env

        self._env = int_config_env(program.configs)

    def render(self) -> str:
        self._lines = []
        self._bases = {}
        self._helpers = set()
        if self._module:
            self._render_module()
        else:
            self._render_inspection()
        return _translation_unit(self._lines, self._helpers)

    # ------------------------------------------------------------------

    def _render_inspection(self) -> None:
        self._emit_declarations()
        self._emit("void %s_main(void) {" % self._program.name)
        self._emit_body(self._program.body, 1)
        self._emit("}")

    def _render_module(self) -> None:
        self._emit("int repro_run(void **_bufs) {")
        for name in sorted(self._region_free_config_names()):
            self._emit("const int64_t %s = %d;" % (name, self._env[name]), 1)
        self._emit_entry_body(c_abi(self._program), 0)

    def _render_kernel(self, entry: str) -> None:
        """One kernel function (see :func:`render_c_kernels`)."""
        self._emit("int %s(void **_bufs) {" % entry)
        self._emit("const int64_t *_ints = (const int64_t *) _bufs[0];", 1)
        for index, name in enumerate(kernel_int_names(self._program)):
            self._emit("const int64_t %s = _ints[%d];" % (name, index), 1)
        abi = [
            AbiEntry(
                name, "array", kind,
                tuple(hi - lo + 1 for lo, hi in region.dims),
                tuple(lo for lo, _hi in region.dims),
            )
            for name, (region, kind) in sorted(
                self._program.array_allocs.items()
            )
        ] + [
            AbiEntry(name, "scalar", kind, (), ())
            for name, kind in sorted(self._program.scalars.items())
        ]
        self._emit_entry_body(abi, 1)

    def _emit_entry_body(self, abi: List[AbiEntry], first_slot: int) -> None:
        """Buffer casts, scalar loads, the body and scalar write-backs;
        ``abi`` occupies ``_bufs`` from ``first_slot`` on."""
        for slot, entry in enumerate(abi, first_slot):
            if entry.role != "array":
                continue
            self._bases[entry.name] = list(entry.bases)
            self._emit(self._buffer_cast(entry, slot), 1)
        for slot, entry in enumerate(abi, first_slot):
            if entry.role != "scalar":
                continue
            ctype = _C_TYPES[entry.kind]
            self._emit(
                "%s %s = *(%s *) _bufs[%d];" % (ctype, entry.name, ctype, slot),
                1,
            )
        dims = self._loop_dims_needed()
        if dims:
            self._emit(
                "int64_t %s;" % ", ".join(loop_variable(d) for d in dims), 1
            )
        self._emit_body(self._program.body, 1)
        for slot, entry in enumerate(abi, first_slot):
            if entry.role != "scalar":
                continue
            ctype = _C_TYPES[entry.kind]
            self._emit(
                "*(%s *) _bufs[%d] = %s;" % (ctype, slot, entry.name), 1
            )
        self._emit("return 0;", 1)
        self._emit("}")

    @staticmethod
    def _buffer_cast(entry: AbiEntry, slot: int) -> str:
        """Zero-copy pointer-to-array cast for one buffer slot.

        Multi-dimensional arrays cast to pointer-to-row types and index
        with plain ``A[i][j]``; kernel extents are runtime arguments, which
        makes the row type variably modified (C99).
        """
        ctype = _C_TYPES[entry.kind]
        tail = "".join("[%s]" % e for e in entry.shape[1:])
        if tail:
            return "%s (*%s)%s = (%s (*)%s) _bufs[%d];" % (
                ctype,
                entry.name,
                tail,
                ctype,
                tail,
                slot,
            )
        return "%s *%s = (%s *) _bufs[%d];" % (ctype, entry.name, ctype, slot)

    def _region_free_config_names(self) -> set:
        """Config names referenced symbolically by any region bound.

        Mirrors ``PyGenerator._region_free_variables``: loop headers and
        empty-reduction guards render symbolic bounds textually, so the
        names must exist as constants in the translation unit.
        """
        regions = [
            region for region, _kind in self._program.array_allocs.values()
        ]

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
        return names & set(self._env)

    def _loop_dims_needed(self) -> List[int]:
        """Every loop-variable dimension the body references.

        Reduction loops and boundary fills use the same ``_i<d>``
        variables as the fused nests; collecting only nest ranks would
        leave a reduction-only program with undeclared loop variables.
        """
        dims: set = set()

        def visit(body) -> None:
            for node in body:
                if isinstance(node, LoopNest):
                    dims.update(range(1, node.rank + 1))
                elif isinstance(node, ReductionLoop):
                    dims.update(range(1, node.region.rank + 1))
                elif isinstance(node, SBoundary):
                    region, _kind = self._program.array_allocs[node.array]
                    dims.update(range(1, len(region.dims) + 1))
                for attr in ("body", "then_body", "else_body"):
                    inner = getattr(node, attr, None)
                    if isinstance(inner, list):
                        visit(inner)

        visit(self._program.body)
        return sorted(dims)

    # ------------------------------------------------------------------

    def _emit(self, text: str, depth: int = 0) -> None:
        self._lines.append("    " * depth + text)

    def _emit_declarations(self) -> None:
        for name in sorted(self._region_free_config_names()):
            self._emit("static const int64_t %s = %d;" % (name, self._env[name]))
        for name, (region, kind) in sorted(self._program.array_allocs.items()):
            extents = []
            bases = []
            for lo, hi in region.dims:
                lo_value = lo.substitute(self._env)
                extent = (hi - lo + 1).substitute(self._env)
                if not (lo_value.is_constant and extent.is_constant):
                    raise ScalarizationError(
                        "array %s has a non-constant allocation region %s"
                        % (name, region)
                    )
                bases.append(lo_value.const)
                extents.append(extent.const)
            self._bases[name] = bases
            dims = "".join("[%d]" % max(e, 1) for e in extents)
            self._emit("static %s %s%s;" % (_C_TYPES[kind], name, dims))
        for name, kind in sorted(self._program.scalars.items()):
            self._emit("static %s %s;" % (_C_TYPES[kind], name))
        loop_vars = [loop_variable(d) for d in self._loop_dims_needed()]
        if loop_vars:
            self._emit("static int64_t %s;" % ", ".join(loop_vars))
        self._emit("")

    # ------------------------------------------------------------------

    def _kind(self, expr: ir.IRExpr) -> str:
        return infer_expr_kind(expr, self._array_kinds, self._program.scalars)

    def _emit_body(self, body: List[SNode], depth: int) -> None:
        for node in body:
            if isinstance(node, LoopNest):
                self._emit_loop_nest(node, depth)
            elif isinstance(node, ReductionLoop):
                self._emit_reduction(node, depth)
            elif isinstance(node, SBoundary):
                self._emit_boundary(node, depth)
            elif isinstance(node, ScalarAssign):
                self._emit(
                    "%s = %s;" % (node.target, self._expr(node.rhs)), depth
                )
            elif isinstance(node, SeqLoop):
                self._emit_seq_loop(node, depth)
            elif isinstance(node, SIf):
                self._emit("if (%s) {" % self._expr(node.cond), depth)
                self._emit_body(node.then_body, depth + 1)
                if node.else_body:
                    self._emit("} else {", depth)
                    self._emit_body(node.else_body, depth + 1)
                self._emit("}", depth)
            elif isinstance(node, SWhile):
                self._emit("while (%s) {" % self._expr(node.cond), depth)
                self._emit_body(node.body, depth + 1)
                self._emit("}", depth)
            else:
                raise ScalarizationError("cannot emit %r" % node)

    def _emit_loop_headers(self, region: Region, structure, depth: int) -> int:
        for level, signed_dim in enumerate(structure):
            dim = abs(signed_dim)
            lo, hi = region.dims[dim - 1]
            var = loop_variable(dim)
            if signed_dim > 0:
                header = "for (%s = %s; %s <= %s; %s++) {" % (
                    var,
                    self._linexpr(lo),
                    var,
                    self._linexpr(hi),
                    var,
                )
            else:
                header = "for (%s = %s; %s >= %s; %s--) {" % (
                    var,
                    self._linexpr(hi),
                    var,
                    self._linexpr(lo),
                    var,
                )
            self._emit(header, depth + level)
        return depth + len(structure)

    def _emit_loop_nest(self, nest: LoopNest, depth: int) -> None:
        inner = self._emit_loop_headers(nest.region, nest.structure, depth)
        for stmt in nest.body:
            target = (
                stmt.scalar_target
                if stmt.is_contracted
                else self._element(stmt.target, (0,) * nest.rank)
            )
            value = self._expr(stmt.rhs)
            if stmt.reduce_op is None:
                self._emit("%s = %s;" % (target, value), inner)
            elif stmt.reduce_op in ("+", "*"):
                self._emit(
                    _REDUCE_STEP[stmt.reduce_op] % (target, value), inner
                )
            else:
                self._emit(
                    _REDUCE_STEP[stmt.reduce_op]
                    % (target, value, target, value, target),
                    inner,
                )
        for level in range(len(nest.structure) - 1, -1, -1):
            self._emit("}", depth + level)

    def _emit_empty_reduction_guard(self, region: Region, depth: int) -> None:
        """Signal reductions over empty regions, as the interpreter does.

        Constant bounds are decided at generation time; symbolic bounds
        (dynamic regions) emit a runtime check.  The module entry point
        returns 1, which the native runner turns into the same
        ``InterpError`` the Python emitters raise.
        """
        clauses: List[str] = []
        statically_empty = False
        for lo, hi in region.dims:
            extent = hi - lo
            if extent.is_constant:
                if extent.const < 0:
                    statically_empty = True
            else:
                clauses.append(
                    "(%s) < (%s)" % (self._linexpr(hi), self._linexpr(lo))
                )
        if statically_empty:
            self._emit("return 1; /* reduction over an empty region */", depth)
        elif clauses:
            self._emit(
                "if (%s) { return 1; } /* reduction over an empty region */"
                % " || ".join(clauses),
                depth,
            )

    def _emit_reduction(self, node: ReductionLoop, depth: int) -> None:
        if self._module:
            self._emit_empty_reduction_guard(node.region, depth)
        kind = self._kind(node.operand)
        ctype = "double" if kind == "float" else "int64_t"
        self._emit("{", depth)
        self._emit(
            "%s _acc = %s;" % (ctype, _c_reduce_init(node.op, kind)), depth + 1
        )
        structure = tuple(range(1, node.region.rank + 1))
        inner = self._emit_loop_headers(node.region, structure, depth + 1)
        value = self._expr(node.operand)
        if node.op in ("+", "*"):
            self._emit(_REDUCE_STEP[node.op] % ("_acc", value), inner)
        else:
            self._emit(
                _REDUCE_STEP[node.op]
                % ("_acc", value, "_acc", value, "_acc"),
                inner,
            )
        for level in range(node.region.rank - 1, -1, -1):
            self._emit("}", depth + 1 + level)
        self._emit("%s = _acc;" % node.target, depth + 1)
        self._emit("}", depth)

    def _emit_boundary(self, node: SBoundary, depth: int) -> None:
        """Halo fill as element copy loops (bounds are constant or
        config-dependent; the config environment resolves the latter)."""
        bounds = node.region.concrete_bounds(self._env)
        bases = self._bases[node.array]
        region, _kind = self._program.array_allocs[node.array]
        alloc = region.concrete_bounds(self._env)
        rank = len(bounds)
        self._emit("/* %s %s */" % (node.kind, node.array), depth)
        for dim, ((lo, hi), (alo, ahi)) in enumerate(zip(bounds, alloc)):
            lo_raw = lo - bases[dim]
            hi_raw = hi - bases[dim]
            extent = ahi - alo + 1
            period = hi_raw - lo_raw + 1
            planes = list(range(0, lo_raw)) + list(range(hi_raw + 1, extent))
            for raw in planes:
                if node.kind == "wrap":
                    src = lo_raw + ((raw - lo_raw) % period)
                elif raw < lo_raw:
                    src = 2 * lo_raw - 1 - raw
                else:
                    src = 2 * hi_raw + 1 - raw
                inner = depth
                for d in range(rank):
                    if d == dim:
                        continue
                    var = loop_variable(d + 1)
                    other_extent = alloc[d][1] - alloc[d][0] + 1
                    self._emit(
                        "for (%s = 0; %s < %d; %s++) {"
                        % (var, var, other_extent, var),
                        inner,
                    )
                    inner += 1
                dest_idx = "".join(
                    "[%d]" % raw if d == dim else "[%s]" % loop_variable(d + 1)
                    for d in range(rank)
                )
                src_idx = "".join(
                    "[%d]" % src if d == dim else "[%s]" % loop_variable(d + 1)
                    for d in range(rank)
                )
                self._emit(
                    "%s%s = %s%s;" % (node.array, dest_idx, node.array, src_idx),
                    inner,
                )
                for level in range(inner - 1, depth - 1, -1):
                    self._emit("}", level)

    def _emit_seq_loop(self, node: SeqLoop, depth: int) -> None:
        # Match Python's ``for var in range(...)`` exactly: bounds are
        # evaluated once at entry, the variable holds the *final*
        # iteration's value after the loop (not one past it), and an
        # empty trip count leaves it untouched.  A private iterator
        # carries the stepping; the program variable is assigned inside.
        self._seq_counter += 1
        it = "_seq%d" % self._seq_counter
        cmp_op, step = (">=", "--") if node.downto else ("<=", "++")
        self._emit("{", depth)
        self._emit(
            "int64_t %s_hi = %s;" % (it, self._expr(node.hi)), depth + 1
        )
        self._emit(
            "for (int64_t %s = %s; %s %s %s_hi; %s%s) {"
            % (it, self._expr(node.lo), it, cmp_op, it, it, step),
            depth + 1,
        )
        self._emit("%s = %s;" % (node.var, it), depth + 2)
        self._emit_body(node.body, depth + 2)
        self._emit("}", depth + 1)
        self._emit("}", depth)

    # ------------------------------------------------------------------

    def _linexpr(self, expr: LinearExpr) -> str:
        return str(expr).replace(" ", "")

    def _element(self, array: str, offset) -> str:
        bases = self._bases[array]
        wrap = self._program.partial.get(array)
        indices = []
        for dim, (off, base) in enumerate(zip(offset, bases), start=1):
            if wrap is not None and dim == wrap[0]:
                depth = wrap[1]
                # Bias by depth so the C modulo of a negative index is safe.
                indices.append(
                    "[(%s + %d) %% %d]"
                    % (loop_variable(dim), off + depth, depth)
                )
                continue
            shift = off - base
            if isinstance(shift, LinearExpr):
                indices.append("[%s]" % self._linexpr(
                    LinearExpr.variable(loop_variable(dim)) + shift
                ))
            elif shift > 0:
                indices.append("[%s + %d]" % (loop_variable(dim), shift))
            elif shift < 0:
                indices.append("[%s - %d]" % (loop_variable(dim), -shift))
            else:
                indices.append("[%s]" % loop_variable(dim))
        return array + "".join(indices)

    def _helper(self, name: str) -> str:
        self._helpers.add(name)
        return name

    def _mod(self, left: ir.IRExpr, right: ir.IRExpr) -> str:
        if self._kind(left) == "float" or self._kind(right) == "float":
            fn = self._helper("repro_mod")
        else:
            fn = self._helper("repro_imod")
        return "%s(%s, %s)" % (fn, self._expr(left), self._expr(right))

    def _const(self, value) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            if value == float("inf"):
                return "INFINITY"
            if value == float("-inf"):
                return "-INFINITY"
            if value != value:
                return "NAN"
            return repr(value)
        if value == -(2 ** 63):
            return _C_INT64_MIN
        if value > 2 ** 31 - 1 or value < -(2 ** 31):
            return "%dLL" % value
        return str(value)

    def _expr(self, expr: ir.IRExpr) -> str:
        if isinstance(expr, ir.Const):
            return self._const(expr.value)
        if isinstance(expr, ir.ScalarRef):
            return expr.name
        if isinstance(expr, ir.IndexRef):
            return loop_variable(expr.dim)
        if isinstance(expr, ir.ArrayRef):
            return self._element(expr.name, expr.offset)
        if isinstance(expr, ir.BinOp):
            op = {"=": "==", "and": "&&", "or": "||"}.get(expr.op, expr.op)
            if expr.op == "^":
                return "pow(%s, %s)" % (
                    self._expr(expr.left),
                    self._expr(expr.right),
                )
            if expr.op == "%":
                # C's % truncates toward zero (and rejects doubles);
                # the canonical semantics is floored np.mod.
                return self._mod(expr.left, expr.right)
            if expr.op == "/":
                # Language division is float division; C would truncate
                # when both operands are integral.
                left, right = self._expr(expr.left), self._expr(expr.right)
                if (
                    self._kind(expr.left) != "float"
                    and self._kind(expr.right) != "float"
                ):
                    return "((double)(%s) / (double)(%s))" % (left, right)
                return "(%s / %s)" % (left, right)
            return "(%s %s %s)" % (
                self._expr(expr.left),
                op,
                self._expr(expr.right),
            )
        if isinstance(expr, ir.UnOp):
            op = "!" if expr.op == "not" else expr.op
            return "(%s%s)" % (op, self._expr(expr.operand))
        if isinstance(expr, ir.Call):
            if expr.name == "mod":
                return self._mod(expr.args[0], expr.args[1])
            if expr.name == "abs":
                (arg,) = expr.args
                fn = (
                    "fabs"
                    if self._kind(arg) == "float"
                    else self._helper("repro_iabs")
                )
                return "%s(%s)" % (fn, self._expr(arg))
            if expr.name == "sign":
                (arg,) = expr.args
                return "%s(%s)" % (
                    self._helper("repro_sign"),
                    self._expr(arg),
                )
            if expr.name in ("min", "max"):
                # Ternary operand order mirrors Python's min/max: the
                # *second* argument wins only on a strict comparison, so
                # ties (and NaN comparisons) keep the first argument —
                # bit-identical to codegen_py.
                cmp = "<" if expr.name == "min" else ">"
                a, b = (self._expr(arg) for arg in expr.args)
                return "((%s %s %s) ? %s : %s)" % (b, cmp, a, b, a)
            return "%s(%s)" % (
                expr.name,
                ", ".join(self._expr(a) for a in expr.args),
            )
        raise ScalarizationError("cannot render expression %r" % expr)


def render_c(program: ScalarProgram) -> str:
    """Render a scalarized program as C source text (inspection mode)."""
    return CGenerator(program).render()


def render_c_module(program: ScalarProgram) -> str:
    """Render an executable translation unit for the native backend.

    The unit exposes ``int repro_run(void **bufs)``; buffers arrive in
    :func:`c_abi` order (arrays over their allocation regions, then
    one-element scalar buffers, both name-sorted).  Returns 0 on
    success, 1 on a reduction over an empty region.
    """
    return CGenerator(program, module=True).render()


def render_c_kernels(programs: Sequence[ScalarProgram]) -> str:
    """One translation unit holding ``int repro_k<i>(void **bufs)`` for
    the ``i``-th kernel program (see
    :func:`repro.scalarize.emit_common.kernel_int_names`).

    ``bufs[0]`` points at the int64 arguments; arrays in sorted-name
    order follow, then one-element scalar buffers the kernel writes
    back.  Returns 0, or 1 on a reduction over an empty region.
    """
    lines: List[str] = []
    helpers: set = set()
    for index, program in enumerate(programs):
        generator = CGenerator(program, module=True)
        generator._render_kernel("repro_k%d" % index)
        lines += generator._lines + [""]
        helpers |= generator._helpers
    return _translation_unit(lines, helpers)
