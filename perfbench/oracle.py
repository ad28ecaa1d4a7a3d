"""Reference outputs, the output check and the live-output guard.

References come from :func:`repro.interp.array_interp.run_reference` on
the *unfused* normal form for the request's binding, never from the
compiler under test.  They are computed before any timing, in a process
of their own, so the reference interpreter's arrays never count in the
measured process's memory.

The check is relative: the ``c`` backend folds reductions serially while
the reference sums in NumPy's order, so float outputs may differ in the
last bits (SP's ``resid`` does).  Integer and boolean outputs must be
equal.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

#: Relative and absolute tolerance for float outputs.
RTOL = 1e-9
ATOL = 1e-12


def reference_outputs(app: str, config: Mapping[str, int]) -> Dict[str, dict]:
    """The app's checked scalars and arrays under reference semantics."""
    from repro.benchsuite import get_benchmark
    from repro.interp.array_interp import run_reference
    from repro.ir import normalize_source

    bench = get_benchmark(app)
    storage = run_reference(normalize_source(bench.source, dict(config)))
    return {
        "scalars": {name: storage.scalars[name] for name in bench.check_scalars},
        "arrays": {name: storage.arrays[name].copy() for name in bench.check_arrays},
    }


def live_output_problems(combos: Iterable[tuple]) -> List[str]:
    """Every ``(app, level)`` whose checked outputs would not survive.

    A checked array that contraction eliminates is absent from the
    result, so a backend could "win" by deleting dead work; such a
    workload program is rejected before anything is timed.
    """
    from repro.benchsuite import get_benchmark
    from repro.fusion import LEVELS_BY_NAME, plan_program
    from repro.ir import normalize_source

    problems = []
    for app, level in sorted(set(combos)):
        bench = get_benchmark(app)
        if not bench.check_scalars and not bench.check_arrays:
            problems.append("%s has no checked outputs" % app)
            continue
        program = normalize_source(bench.source, bench.test_config)
        missing = [s for s in bench.check_scalars if s not in program.scalars]
        plan = plan_program(program, LEVELS_BY_NAME[level])
        missing += sorted(set(bench.check_arrays) & plan.contracted_arrays())
        if missing:
            problems.append(
                "%s at %s loses checked outputs %s" % (app, level, missing)
            )
    return problems


def _reference_for(key):
    return reference_outputs(key[0], dict(key[1]))


def compute_references(keys, combos, path: str) -> None:
    """Process entry point: guard, then write ``{ref_key: outputs}``.

    The references run on two processes; nothing is timed yet.
    """
    problems = live_output_problems(combos)
    if problems:
        raise SystemExit("live-output guard: " + "; ".join(problems))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        refs = dict(zip(keys, pool.map(_reference_for, keys, chunksize=4)))
    with open(path, "wb") as handle:
        pickle.dump(refs, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load_references(path: str):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _close(actual, expected) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(
            float(actual), float(expected), rel_tol=RTOL, abs_tol=ATOL
        )
    return actual == expected


def mismatch(
    ref: Mapping[str, dict],
    scalars: Mapping[str, object],
    arrays: Mapping[str, np.ndarray],
) -> Optional[str]:
    """None when the reply matches the reference, else what differs."""
    for name, expected in ref["scalars"].items():
        if name not in scalars:
            return "scalar %s missing" % name
        if not _close(scalars[name], expected):
            return "scalar %s = %r, reference %r" % (name, scalars[name], expected)
    for name, expected in ref["arrays"].items():
        actual = arrays.get(name)
        if actual is None:
            return "array %s missing" % name
        actual = np.asarray(actual)
        if actual.shape != expected.shape:
            return "array %s shape %s, reference %s" % (
                name, actual.shape, expected.shape
            )
        if expected.dtype.kind == "f":
            same = np.allclose(actual, expected, rtol=RTOL, atol=ATOL)
        else:
            same = np.array_equal(actual, expected)
        if not same:
            return "array %s differs from the reference" % name
    return None
