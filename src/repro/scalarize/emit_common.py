"""Helpers shared by the executable-Python code generators.

Both back ends — the element-loop emitter (:mod:`codegen_py`) and the
whole-region slice emitter (:mod:`codegen_np`) — agree on dtype mapping,
scalar initialization, intrinsic spelling, reduction identities and the
slice/offset translation that turns a region bound plus a constant
reference offset into a storage index.  This module centralizes those
rules so the two emitters cannot drift apart, and so they match the
interpreters in :mod:`repro.interp`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir import expr as ir
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.util.errors import InputError, ScalarizationError

#: Element-kind -> numpy dtype attribute name (matches interp.storage).
DTYPES = {"float": "float64", "integer": "int64", "boolean": "bool_"}

#: Element-kind -> initial value literal for declared scalars.
SCALAR_INIT = {"float": "0.0", "integer": "0", "boolean": "False"}

#: Scalar-context intrinsic spelling (element loops; ``mod`` is rendered
#: inline as floored ``%`` to match ``np.mod``, see ``codegen_py._expr``).
PY_INTRINSICS = {
    "sqrt": "math.sqrt",
    "exp": "math.exp",
    "log": "math.log",
    "sin": "math.sin",
    "cos": "math.cos",
    "tan": "math.tan",
    "atan": "math.atan",
    "abs": "abs",
    "floor": "math.floor",
    "ceil": "math.ceil",
    "min": "min",
    "max": "max",
    "pow": "math.pow",
}

#: Vector-context intrinsic spelling (whole-slice operations; mirrors
#: ``repro.interp.evalexpr._INTRINSICS`` so codegen_np matches the
#: interpreters element for element).
NP_INTRINSICS = {
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "atan": "np.arctan",
    "abs": "np.abs",
    "min": "np.minimum",
    "max": "np.maximum",
    "pow": "np.power",
    "mod": "np.mod",
    "sign": "np.sign",
}

_INT64_MIN = "-9223372036854775808"
_INT64_MAX = "9223372036854775807"

_FLOAT_REDUCE_INIT = {"+": "0.0", "*": "1.0", "max": "-math.inf", "min": "math.inf"}
_INT_REDUCE_INIT = {"+": "0", "*": "1", "max": _INT64_MIN, "min": _INT64_MAX}


def reduce_init_literal(op: str, kind: str) -> str:
    """The reduction identity literal for an accumulator of ``kind``.

    Integer accumulators must start from integer identities: ``0.0 +
    np.int64`` silently floats an integer reduction, which is the
    interpreter/codegen divergence this helper exists to prevent.
    """
    table = _INT_REDUCE_INIT if kind in ("integer", "boolean") else _FLOAT_REDUCE_INIT
    init = table.get(op)
    if init is None:
        raise ScalarizationError("unknown reduction operator %r" % op)
    return init


_KIND_RANK = {"boolean": 0, "integer": 1, "float": 2}


def join_kinds(left: str, right: str) -> str:
    """The wider of two element kinds (numpy promotion order)."""
    return left if _KIND_RANK[left] >= _KIND_RANK[right] else right


def infer_expr_kind(
    expr: ir.IRExpr,
    array_kinds: Mapping[str, str],
    scalar_kinds: Mapping[str, str],
) -> str:
    """Infer the element kind an IR expression evaluates to.

    Mirrors the numpy promotion the interpreters perform, so reduction
    accumulators can be initialized with the kind the reduction will
    actually produce (not the declared kind of wherever the value lands).
    """
    if isinstance(expr, ir.Const):
        if isinstance(expr.value, bool):
            return "boolean"
        if isinstance(expr.value, int):
            return "integer"
        return "float"
    if isinstance(expr, ir.ScalarRef):
        return scalar_kinds.get(expr.name, "float")
    if isinstance(expr, ir.ArrayRef):
        return array_kinds.get(expr.name, "float")
    if isinstance(expr, ir.IndexRef):
        return "integer"
    if isinstance(expr, ir.BinOp):
        if expr.op in ("/", "^"):
            return "float"
        if expr.op in ("<", "<=", ">", ">=", "=", "!=", "and", "or"):
            return "boolean"
        return join_kinds(
            infer_expr_kind(expr.left, array_kinds, scalar_kinds),
            infer_expr_kind(expr.right, array_kinds, scalar_kinds),
        )
    if isinstance(expr, ir.UnOp):
        if expr.op == "not":
            return "boolean"
        return infer_expr_kind(expr.operand, array_kinds, scalar_kinds)
    if isinstance(expr, ir.Call):
        if expr.name in ("floor", "ceil"):
            return "integer"
        if expr.name in ("abs", "min", "max", "mod", "sign"):
            kind = "boolean"
            for arg in expr.args:
                kind = join_kinds(
                    kind, infer_expr_kind(arg, array_kinds, scalar_kinds)
                )
            return kind
        return "float"
    if isinstance(expr, ir.Reduce):
        return infer_expr_kind(expr.operand, array_kinds, scalar_kinds)
    return "float"


def int_config_env(configs: Mapping[str, object]) -> Dict[str, int]:
    """Integer-valued configuration bindings for region-bound evaluation.

    The same filter as :meth:`repro.ir.program.IRProgram.config_env`:
    region bounds are affine over integers, so only integral configs can
    appear in them.
    """
    env: Dict[str, int] = {}
    for name, value in configs.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            env[name] = value
        elif isinstance(value, float) and value.is_integer():
            env[name] = int(value)
    return env


def validate_inputs(program, inputs):
    """Check per-request initial arrays against a scalarized program.

    Every backend shares one contract: a seeded value must name a real
    (non-contracted) array, match its allocation-region shape exactly
    (halo included — the layout an :class:`ExecutionResult` returns),
    and carry a dtype safely castable to the declared element kind.
    Violations raise :class:`repro.util.errors.InputError` (a
    ``ReproError``) with the offending name spelled out, instead of a
    raw numpy broadcast/cast surprise deep inside a generated kernel.

    Returns the inputs as ndarrays, or None when ``inputs`` is None.
    """
    if inputs is None:
        return None
    import numpy as np

    env = int_config_env(program.configs)
    checked = {}
    for name, value in inputs.items():
        alloc = program.array_allocs.get(name)
        if alloc is None:
            raise InputError(
                "cannot seed unknown array %r (have: %s)"
                % (name, ", ".join(sorted(program.array_allocs)) or "none")
            )
        region, kind = alloc
        value = np.asarray(value)
        try:
            bounds = region.concrete_bounds(env)
        except Exception:
            bounds = None  # dynamic allocation bounds: shape checked at run
        if bounds is not None:
            shape = tuple(max(hi - lo + 1, 1) for lo, hi in bounds)
            if value.shape != shape:
                raise InputError(
                    "initial value for %r has shape %s, allocation needs %s"
                    % (name, value.shape, shape)
                )
        dtype = np.dtype(DTYPES[kind])
        if value.dtype != dtype and not np.can_cast(
            value.dtype, dtype, casting="safe"
        ):
            raise InputError(
                "initial value for %r has dtype %s, array is %s (%s) and "
                "the cast is not value-preserving"
                % (name, value.dtype, dtype, kind)
            )
        checked[name] = value
    return checked


def slice_start_stop(
    lo: int, hi: int, offset: int, base: int
) -> Tuple[int, int]:
    """Translate region bounds + reference offset to storage slice indices.

    The same translation :meth:`repro.interp.storage.Storage.slice_view`
    performs: element ``p`` of the region read at ``offset`` lives at raw
    storage index ``p + offset - base``.
    """
    return lo + offset - base, hi + offset - base + 1


def bound_text(bound: LinearExpr, shift: int = 0) -> str:
    """Render an affine region bound (plus a constant shift) as Python source.

    Constant bounds fold to a plain literal; symbolic bounds (dynamic
    regions inside sequential loops) render as an expression over the loop
    variables, e.g. ``i + 1``.
    """
    shifted = bound + shift
    if shifted.is_constant:
        return str(shifted.const)
    return "(%s)" % str(shifted).replace(" ", "")


def index_text(var: str, shift) -> str:
    """A loop variable plus a storage shift, as Python source.

    Integer shifts render as ``_i1 +2``; symbolic shifts (kernels whose
    allocation bases are runtime arguments) render through
    :func:`bound_text`, e.g. ``(-_b0_1+_i1+1)``.
    """
    if isinstance(shift, LinearExpr):
        if not shift.is_constant:
            return bound_text(LinearExpr.variable(var) + shift)
        shift = shift.const
    return "%s %+d" % (var, shift) if shift else var


# -- kernel programs -------------------------------------------------------
#
# A *kernel program* is a one-node ScalarProgram whose node region and
# allocation regions are symbolic, so one rendered kernel serves every
# block it is called on.  Its entry point takes three arguments:
#
# * the arrays, in sorted-name order, updated in place;
# * the integers :func:`kernel_int_names` lists: the node region's
#   ``_lo<d>``/``_hi<d>``, then per array slot and dimension the base
#   ``_b<slot>_<d>`` and extent ``_e<slot>_<d>`` of the buffer passed;
# * every scalar the node reads or writes, in sorted-name order; the
#   kernel returns their final values in the same order.


def kernel_region(rank: int) -> Region:
    """The symbolic node region ``[_lo1.._hi1, ...]`` of a kernel."""
    return Region([
        (LinearExpr.variable("_lo%d" % d), LinearExpr.variable("_hi%d" % d))
        for d in range(1, rank + 1)
    ])


def kernel_alloc(slot: int, rank: int) -> Region:
    """The symbolic allocation region of the array in ``slot``."""
    dims = []
    for d in range(1, rank + 1):
        base = LinearExpr.variable("_b%d_%d" % (slot, d))
        extent = LinearExpr.variable("_e%d_%d" % (slot, d))
        dims.append((base, base + extent - 1))
    return Region(dims)


def kernel_int_names(program) -> List[str]:
    """The integer arguments of a kernel program, in argument order."""
    (node,) = program.body
    names = []
    for d in range(1, node.region.rank + 1):
        names += ["_lo%d" % d, "_hi%d" % d]
    for slot, name in enumerate(sorted(program.array_allocs)):
        for d in range(1, program.array_allocs[name][0].rank + 1):
            names += ["_b%d_%d" % (slot, d), "_e%d_%d" % (slot, d)]
    return names
