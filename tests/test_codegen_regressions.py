"""Regression tests for interpreter/codegen divergences.

Each test pins one historical divergence between the loop interpreter and
the generated-code back ends:

1. ``mod`` rendered as ``math.fmod`` (truncated, sign of the dividend)
   while the interpreter uses ``np.mod`` (floored, sign of the divisor) —
   they differ whenever the operands' signs differ.
2. Reduction accumulators initialized with float literals (``0.0``,
   ``-math.inf``) regardless of the reduced values' kind, silently
   promoting integer reductions to float.
3. Reductions over empty regions raising ``InterpError`` in the
   interpreters but silently returning the identity in generated code.
4. Allocation and halo-fill bounds evaluated with an empty environment,
   crashing on region bounds that reference configuration scalars.
"""

import numpy as np
import pytest

from repro.exec import BACKENDS, execute
from repro.fusion import ALL_LEVELS, BASELINE, plan_program
from repro.interp import run_reference
from repro.ir import normalize_source
from repro.ir.linexpr import LinearExpr
from repro.ir.region import Region
from repro.ir import expr as ir
from repro.scalarize import scalarize
from repro.scalarize.codegen_c import render_c
from repro.scalarize.codegen_np import render_numpy
from repro.scalarize.codegen_py import render_python
from repro.scalarize.loopnest import ElemAssign, LoopNest, SBoundary, ScalarProgram
from repro.util.errors import InterpError

#: Every backend; mp-shard at explicit worker counts (id ``mp-shard`` is
#: procs=2) so sharded coverage does not depend on the host's CPU count.
BACKEND_CASES = [
    pytest.param(name, {}, id=name) for name in sorted(BACKENDS)
    if name != "mp-shard"
] + [
    pytest.param(
        "mp-shard", {"procs": procs},
        id="mp-shard" if procs == 2 else "mp-shard-p%d" % procs,
    )
    for procs in (1, 2, 4)
]


def compile_at(source, level):
    program = normalize_source(source)
    return program, scalarize(program, plan_program(program, level))


# -- 1: floored vs truncated modulo -----------------------------------------

MOD_SOURCE = """
program modprog;
config n : integer = 4;
region R = [1..n];
var A, B : [R] float;
var s, t : float;
begin
  t := 0.0 - 3.0;
  s := mod(t, 5.0);
  [R] B := Index1 - 3.0;
  [R] A := mod(B, 5.0);
end;
"""


@pytest.mark.parametrize("backend,options", BACKEND_CASES)
def test_mod_is_floored_on_negative_operands(backend, options):
    program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    reference = run_reference(program)
    assert float(reference.scalars["s"]) == 2.0  # np.mod(-3.0, 5.0)
    result = execute(scalar_program, backend, **options)
    assert float(result.scalars["s"]) == 2.0
    # Element-wise: mod(-2..1, 5) = [3, 4, 0, 1] under floored semantics.
    assert np.allclose(result.arrays["A"], reference.arrays["A"])
    assert np.allclose(result.arrays["A"], [3.0, 4.0, 0.0, 1.0])


def test_generated_mod_never_uses_fmod():
    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    assert "fmod" not in render_python(scalar_program)
    assert "fmod" not in render_numpy(scalar_program)


def test_c_mod_emission_matches_golden():
    # The C back end used to map ``mod`` straight to ``fmod`` (truncated,
    # sign of the dividend); canonical semantics is floored ``np.mod``.
    # Golden-pin the whole translation unit so the helper and its call
    # sites cannot silently regress.
    import os

    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    rendered = render_c(scalar_program)
    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "c_mod.golden.c"
    )
    with open(golden_path) as handle:
        assert rendered == handle.read()


def test_c_mod_is_floored_helper():
    _program, scalar_program = compile_at(MOD_SOURCE, BASELINE)
    rendered = render_c(scalar_program)
    # fmod may appear only inside the floored-mod helper definition.
    assert "repro_mod(" in rendered
    for line in rendered.splitlines():
        if "fmod" in line:
            assert "double r = fmod(a, b);" in line
    # The % binop and the mod intrinsic both route through the helper.
    assert "repro_mod(t, 5.0)" in rendered


def test_c_mod_helper_omitted_when_unused():
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, BASELINE)
    assert "repro_mod" not in render_c(scalar_program)


# -- 2: reduction identities follow the reduced kind ------------------------

INT_REDUCE_SOURCE = """
program intred;
config n : integer = 4;
region R = [1..n];
var K : [R] integer;
var k, m : integer;
begin
  [R] K := Index1 - 10;
  k := max<< [R] K;
  m := +<< [R] K;
end;
"""


@pytest.mark.parametrize("backend,options", BACKEND_CASES)
@pytest.mark.parametrize("level", ALL_LEVELS, ids=lambda l: l.name)
def test_integer_reductions_stay_integral(backend, options, level):
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, level)
    result = execute(scalar_program, backend, **options)
    for name, expected in (("k", -6), ("m", -30)):
        value = result.scalars[name]
        assert isinstance(
            value, (int, np.integer)
        ), "%s reduction became %r on %s" % (name, type(value), backend)
        assert int(value) == expected


def test_integer_reduction_init_literals_are_integral():
    _program, scalar_program = compile_at(INT_REDUCE_SOURCE, BASELINE)
    for source in (render_python(scalar_program), render_numpy(scalar_program)):
        assert "-math.inf" not in source
        assert "k = 0.0" not in source and "m = 0.0" not in source


# -- 3: empty-region reductions raise everywhere ----------------------------

EMPTY_REDUCE_SOURCE = """
program emptyred;
config n : integer = 4;
region R = [1..n];
region E = [3..2];
var A : [R] float;
var s : float;
begin
  [R] A := 1.0;
  s := +<< [E] A;
end;
"""


def test_empty_reduction_raises_in_reference():
    with pytest.raises(InterpError, match="empty region"):
        run_reference(normalize_source(EMPTY_REDUCE_SOURCE))


def empty_reduction_program(lo=3, hi=2):
    """A hand-built program with a :class:`ReductionLoop` over [lo..hi].

    Source programs lower reductions into fused reduction statements;
    ``ReductionLoop`` appears for programmatically built scalar programs,
    and the interpreter raises on empty regions while generated code used
    to silently return the identity.
    """
    from repro.scalarize.loopnest import ReductionLoop

    region = Region([(LinearExpr(1), LinearExpr(4))])
    nest = LoopNest(
        region,
        (1,),
        [ElemAssign("A", None, ir.Const(1.0))],
        carried_depth=0,
    )
    reduce_region = Region([(LinearExpr(lo), LinearExpr(hi))])
    loop = ReductionLoop("s", "+", reduce_region, ir.ArrayRef("A", (0,)))
    return ScalarProgram(
        "emptyloop",
        {},
        {"A": (region, "float")},
        {"s": "float"},
        [nest, loop],
    )


@pytest.mark.parametrize("backend,options", BACKEND_CASES)
def test_empty_reduction_loop_raises_on_every_backend(backend, options):
    with pytest.raises(InterpError, match="empty region"):
        execute(empty_reduction_program(), backend, **options)


@pytest.mark.parametrize("backend,options", BACKEND_CASES)
def test_nonempty_reduction_loop_still_works(backend, options):
    result = execute(empty_reduction_program(2, 4), backend, **options)
    assert float(result.scalars["s"]) == 3.0


def test_empty_reduction_guard_is_emitted():
    program = empty_reduction_program()
    for source in (render_python(program), render_numpy(program)):
        assert "raise InterpError" in source


# -- 4: config-dependent region bounds --------------------------------------


def config_bound_program():
    """A scalarized program whose allocation bounds reference a config.

    Source-level normalization folds configs into bounds, so this only
    arises for programmatically built ScalarPrograms — which the code
    generators must still handle by evaluating bounds under the program's
    configuration environment.
    """
    n = LinearExpr.variable("n")
    region = Region([(LinearExpr(1), n)])
    halo = Region([(LinearExpr(0), n + 1)])
    nest = LoopNest(
        region,
        (1,),
        [ElemAssign("A", None, ir.BinOp("*", ir.IndexRef(1), ir.Const(2.0)))],
        carried_depth=0,
    )
    return ScalarProgram(
        "configbounds",
        {"n": 5},
        {"A": (halo, "float")},
        {},
        [nest, SBoundary(region, "wrap", "A")],
    )


@pytest.mark.parametrize("backend,options", BACKEND_CASES)
def test_config_dependent_bounds_execute(backend, options):
    result = execute(config_bound_program(), backend, **options)
    array = result.arrays["A"]
    assert array.shape == (7,)  # halo [0..n+1] with n = 5
    assert np.allclose(array[1:6], [2.0, 4.0, 6.0, 8.0, 10.0])
    # wrap boundary: A[0] mirrors A[5] (period 5), A[6] mirrors A[1]
    assert array[0] == 10.0 and array[6] == 2.0


def test_config_dependent_bounds_render():
    program = config_bound_program()
    for source in (render_python(program), render_numpy(program)):
        assert "np.zeros((7,)" in source


def test_explicit_env_overrides_configs():
    result_source = render_python(config_bound_program(), env={"n": 3})
    assert "np.zeros((5,)" in result_source
