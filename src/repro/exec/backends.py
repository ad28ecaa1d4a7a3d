"""The execution-backend registry.

Six ways to execute a scalarized program, one calling convention:

``interp``
    The tree-walking loop interpreter (:mod:`repro.interp.loop_interp`).
    Slowest; the semantic anchor every code generator is tested against.

``codegen_py`` (alias ``codegen``, ``py``)
    Generated Python element loops (:mod:`repro.scalarize.codegen_py`),
    ``exec``-uted.  Same iteration order as the interpreter without the
    per-node dispatch overhead.

``codegen_np`` (alias ``numpy``, ``np``)
    Generated whole-region NumPy slice operations
    (:mod:`repro.scalarize.codegen_np`), vectorizing every loop level the
    carry analysis proves dependence-free.

``np-par`` (alias ``np_par``, ``par``)
    The tile-parallel engine (:mod:`repro.parallel.engine`): each
    dependence-free sweep is sharded into tiles executed on a worker
    pool, with shardability proved from the same carry analysis.
    Accepts ``workers=`` / ``tile_shape=`` options (or a prebuilt
    ``engine=``).

``c`` (alias ``cc``, ``native``)
    Host-compiled C (:mod:`repro.exec.native`): the fused loop nests
    render as one translation unit, compile with the system ``cc`` and
    run via ``ctypes`` — contracted arrays live in registers, not NumPy
    temporaries.  Needs a C compiler on the machine; without one it
    raises :class:`repro.util.errors.BackendUnavailableError` (probe
    with :func:`repro.exec.native.cc_available`).

``mp-shard`` (alias ``mp_shard``, ``shard``)
    The multi-process sharded backend (:mod:`repro.exec.mp_shard`):
    regions are block-partitioned across worker *processes* on a
    :class:`repro.parallel.distribution.ProcessorGrid`, each worker runs
    its clamped sub-regions through kernels one of ``codegen_np``,
    ``codegen_py`` or ``c`` builds once per program before the fork
    (``local_backend=``, default ``codegen_np``), and halos move through
    ``multiprocessing.shared_memory`` on exactly the exchange schedules
    :mod:`repro.parallel.commopt` derives.  Accepts ``procs=`` (default
    ``$REPRO_PROCS`` or up to 4) and ``comm_options=`` (a
    :class:`repro.parallel.commopt.CommOptions`).  Results are
    bit-identical to ``codegen_np``.

All of them return an :class:`ExecutionResult`: plain dicts of final
array and scalar state, directly comparable across back ends.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Optional

import numpy as np

from repro.scalarize.loopnest import ScalarProgram
from repro.util.errors import ReproError

#: Optional per-request inputs: array name -> initial contents (allocation
#: region layout, the same shape an :class:`ExecutionResult` returns).
InitialArrays = Optional[Mapping[str, np.ndarray]]


class ExecutionResult(NamedTuple):
    """Final program state: array name -> ndarray, scalar name -> value."""

    arrays: Dict[str, np.ndarray]
    scalars: Dict[str, object]


class Backend(NamedTuple):
    name: str
    description: str
    execute: Callable[..., ExecutionResult]
    #: Human-readable hint for the keyword options this backend accepts
    #: (shown by ``repro backends``); empty: positional inputs only.
    options: str = ""


def _run_interp(
    program: ScalarProgram, initial_arrays: InitialArrays = None
) -> ExecutionResult:
    from repro.interp import run_scalarized

    storage = run_scalarized(program, initial_arrays)
    return ExecutionResult(storage.snapshot(), dict(storage.scalars))


def _run_codegen_py(
    program: ScalarProgram, initial_arrays: InitialArrays = None
) -> ExecutionResult:
    from repro.scalarize.codegen_py import execute_python

    arrays, scalars = execute_python(program, inputs=initial_arrays)
    return ExecutionResult(dict(arrays), dict(scalars))


def _run_codegen_np(
    program: ScalarProgram, initial_arrays: InitialArrays = None
) -> ExecutionResult:
    from repro.scalarize.codegen_np import execute_numpy

    arrays, scalars = execute_numpy(program, inputs=initial_arrays)
    return ExecutionResult(dict(arrays), dict(scalars))


def _run_np_par(
    program: ScalarProgram,
    initial_arrays: InitialArrays = None,
    workers: Optional[int] = None,
    tile_shape=None,
    engine=None,
) -> ExecutionResult:
    from repro.parallel.engine import TileEngine, execute_numpy_par

    if engine is None and (workers is not None or tile_shape is not None):
        engine = TileEngine(workers=workers, tile_shape=tile_shape)
    arrays, scalars = execute_numpy_par(
        program, inputs=initial_arrays, engine=engine
    )
    return ExecutionResult(dict(arrays), dict(scalars))


def _run_c(
    program: ScalarProgram, initial_arrays: InitialArrays = None
) -> ExecutionResult:
    from repro.exec.native import execute_c

    arrays, scalars = execute_c(program, inputs=initial_arrays)
    return ExecutionResult(dict(arrays), dict(scalars))


def _run_mp_shard(
    program: ScalarProgram,
    initial_arrays: InitialArrays = None,
    procs: Optional[int] = None,
    local_backend: str = "codegen_np",
    comm_options=None,
    metrics=None,
    tracer=None,
) -> ExecutionResult:
    from repro.exec.mp_shard import execute_mp_shard

    return execute_mp_shard(
        program,
        initial_arrays=initial_arrays,
        procs=procs,
        local_backend=local_backend,
        comm_options=comm_options,
        metrics=metrics,
        tracer=tracer,
    )


BACKENDS: Dict[str, Backend] = {
    "interp": Backend("interp", "tree-walking loop interpreter", _run_interp),
    "codegen_py": Backend(
        "codegen_py", "generated Python element loops", _run_codegen_py
    ),
    "codegen_np": Backend(
        "codegen_np", "generated whole-region NumPy slices", _run_codegen_np
    ),
    "np-par": Backend(
        "np-par",
        "tile-parallel NumPy sweeps on a worker pool",
        _run_np_par,
        options="workers=N, tile_shape=N|NxM, engine=TileEngine",
    ),
    "c": Backend(
        "c", "host-compiled C loop nests (cc + ctypes)", _run_c
    ),
    "mp-shard": Backend(
        "mp-shard",
        "multi-process sharding with modeled halo exchanges",
        _run_mp_shard,
        options="procs=N, local_backend=NAME, comm_options=CommOptions",
    ),
}

#: Historical and short spellings accepted wherever a backend is named.
ALIASES: Dict[str, str] = {
    "codegen": "codegen_py",
    "py": "codegen_py",
    "np": "codegen_np",
    "numpy": "codegen_np",
    "np_par": "np-par",
    "par": "np-par",
    "cc": "c",
    "native": "c",
    "mp_shard": "mp-shard",
    "shard": "mp-shard",
}

#: Canonical backend names only — aliases resolve to these but are not
#: repeated here, so CLI help and error messages stay de-duplicated.
BACKEND_CHOICES: List[str] = sorted(BACKENDS)


def aliases_of(name: str) -> List[str]:
    """The accepted alias spellings of a canonical backend name."""
    return sorted(
        alias for alias, target in ALIASES.items() if target == name
    )


def get_backend(name: str) -> Backend:
    """Resolve a backend by canonical name or alias, case-insensitively."""
    key = str(name).strip().lower()
    backend = BACKENDS.get(ALIASES.get(key, key))
    if backend is None:
        raise ReproError(
            "unknown backend %r (have: %s; aliases: %s)"
            % (
                name,
                ", ".join(BACKEND_CHOICES),
                ", ".join(
                    "%s=%s" % (alias, target)
                    for alias, target in sorted(ALIASES.items())
                ),
            )
        )
    return backend


def execute(
    program: ScalarProgram,
    backend: str = "interp",
    initial_arrays: InitialArrays = None,
    **options,
) -> ExecutionResult:
    """Execute a scalarized program on the named backend.

    ``initial_arrays`` seeds named arrays with starting contents instead of
    zeros; values must match the allocation-region shape the backend would
    itself allocate (exactly what a previous run's result holds).
    Unknown names, shape mismatches and unsafe dtype casts raise
    :class:`repro.util.errors.InputError` before anything executes.
    Keyword ``options`` pass through to the backend (``np-par`` takes
    ``workers=``, ``tile_shape=`` or ``engine=``); backends reject
    options they do not understand.
    """
    from repro.scalarize.emit_common import validate_inputs

    initial_arrays = validate_inputs(program, initial_arrays)
    return get_backend(backend).execute(program, initial_arrays, **options)
