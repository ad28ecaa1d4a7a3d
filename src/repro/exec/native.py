"""Native execution: compile the C emitter's output with the host cc.

The ``c`` backend closes the loop the paper's methodology implies: the
scalarizer's fused loop nests render as one C translation unit per
program (:func:`repro.scalarize.codegen_c.render_c_module`), the host C
compiler turns it into a shared object, and ``ctypes`` calls the
``int repro_run(void **bufs)`` entry point with zero-copy pointers into
the same numpy buffers every other backend uses.  Contracted arrays are
C locals, so the register-level contraction the paper measures is now
real machine code rather than NumPy per-op kernels.

Pieces:

* :func:`find_cc` / :func:`cc_available` — compiler discovery.  The
  ``REPRO_CC`` environment variable overrides (an *empty* value means
  "explicitly unavailable", which tests use to exercise degradation).
* :func:`compile_shared` — one ``cc -O2 -fPIC -shared`` invocation;
  flags are fixed (and recorded in the service fingerprint via
  :func:`repro.service.fingerprint.native_digest`).  ``-ffp-contract=off``
  keeps the compiler from fusing multiply-adds (bit-identity with the
  Python element loops is a test invariant), ``-fwrapv`` matches
  ``np.int64`` wraparound.
* :class:`NativeKernel` — a loaded shared object plus the marshalling
  that seeds allocation-region buffers (the ``Storage.seed_arrays``
  contract) and reads scalars back from one-element buffers.
* :func:`execute_c` — the registry-facing entry: renders, compiles
  (memoized per process by source hash), runs.  Cross-process ``.so``
  reuse lives in the service layer's artifact cache, not here.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.scalarize.codegen_c import AbiEntry, c_abi, render_c_module
from repro.scalarize.emit_common import DTYPES
from repro.scalarize.loopnest import ScalarProgram
from repro.util.errors import (
    BackendUnavailableError,
    InterpError,
    NativeCompileError,
)

#: Compile flags for every generated translation unit.  Recorded in the
#: native artifact fingerprint: changing them must re-key cached ``.so``s.
DEFAULT_CFLAGS: Tuple[str, ...] = (
    "-O2",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fwrapv",
)

#: Trailing link inputs (libm for sqrt/pow/copysign and friends).
LINK_FLAGS: Tuple[str, ...] = ("-lm",)

_CC_CANDIDATES = ("cc", "gcc", "clang")


def find_cc() -> Optional[str]:
    """Locate the host C compiler, or None when there is none.

    ``REPRO_CC`` overrides discovery entirely; setting it to an empty
    string declares the compiler unavailable (the clean way for tests to
    exercise the degraded path without doctoring ``PATH``).  Evaluated
    on every call so environment changes take effect immediately.
    """
    override = os.environ.get("REPRO_CC")
    if override is not None:
        return override or None
    for name in _CC_CANDIDATES:
        path = shutil.which(name)
        if path:
            return path
    return None


def cc_available() -> bool:
    """True when a host C compiler can be invoked."""
    return find_cc() is not None


_identity_memo: Dict[str, str] = {}


def compiler_identity(cc: Optional[str] = None) -> str:
    """A stable identity string for the compiler (path + version line).

    Feeds the native artifact fingerprint so a compiler upgrade re-keys
    every cached shared object.  Memoized per path.
    """
    cc = cc or find_cc()
    if cc is None:
        return "none"
    cached = _identity_memo.get(cc)
    if cached is not None:
        return cached
    try:
        proc = subprocess.run(
            [cc, "--version"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=30,
        )
        version = (proc.stdout or "").splitlines()[0].strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    identity = "%s (%s)" % (cc, version)
    _identity_memo[cc] = identity
    return identity


def compile_shared(source: str, cc: Optional[str] = None) -> bytes:
    """Compile one C translation unit to shared-object bytes.

    Raises :class:`BackendUnavailableError` when no compiler exists and
    :class:`NativeCompileError` (with the compiler's stderr) when the
    generated code is rejected — the latter is always an emitter bug.
    """
    cc = cc or find_cc()
    if cc is None:
        raise BackendUnavailableError(
            "the c backend needs a host C compiler "
            "(cc, gcc or clang on PATH, or REPRO_CC=/path/to/cc)"
        )
    with tempfile.TemporaryDirectory(prefix="repro-cc-") as tmp:
        c_path = os.path.join(tmp, "kernel.c")
        so_path = os.path.join(tmp, "kernel.so")
        with open(c_path, "w") as handle:
            handle.write(source)
        command = [cc, *DEFAULT_CFLAGS, "-o", so_path, c_path, *LINK_FLAGS]
        try:
            proc = subprocess.run(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=300,
            )
        except OSError as exc:
            raise BackendUnavailableError(
                "cannot invoke C compiler %r: %s" % (cc, exc)
            )
        if proc.returncode != 0:
            raise NativeCompileError(
                "C compilation failed (%s):\n%s"
                % (" ".join(command), proc.stderr.strip())
            )
        with open(so_path, "rb") as handle:
            return handle.read()


# -- loading and marshalling -------------------------------------------------

_scratch_dir_path: Optional[str] = None


def _scratch_dir() -> str:
    """Process-lifetime directory for shared objects loaded via ctypes.

    A loaded ``.so`` must outlive the dlopen, so per-call temporary
    directories will not do; one directory is created lazily and removed
    at interpreter exit.
    """
    global _scratch_dir_path
    if _scratch_dir_path is None:
        _scratch_dir_path = tempfile.mkdtemp(prefix="repro-native-")
        atexit.register(shutil.rmtree, _scratch_dir_path, ignore_errors=True)
    return _scratch_dir_path


class NativeKernel:
    """One ``int <entry>(void **bufs)`` function of a loaded shared object."""

    def __init__(self, so_path: str, entry: str = "repro_run") -> None:
        self.path = so_path
        self.entry = entry
        self._lib = ctypes.CDLL(so_path)
        self._fn = getattr(self._lib, entry)
        self._fn.restype = ctypes.c_int
        self._fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]

    def run(self, buffers: List[np.ndarray]) -> None:
        pointers = (ctypes.c_void_p * len(buffers))(
            *(buf.ctypes.data for buf in buffers)
        )
        status = self._fn(pointers)
        if status == 1:
            raise InterpError("reduction over an empty region")
        if status != 0:
            raise InterpError("native kernel returned status %d" % status)


def load_kernel(so_bytes: bytes, entry: str = "repro_run") -> NativeKernel:
    """Materialize shared-object bytes on disk and dlopen them."""
    digest = hashlib.sha256(so_bytes).hexdigest()[:24]
    path = os.path.join(_scratch_dir(), "kernel-%s.so" % digest)
    if not os.path.exists(path):
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(so_bytes)
        os.replace(tmp, path)
    return NativeKernel(path, entry)


def marshal_buffers(
    abi: List[AbiEntry], inputs=None
) -> Tuple[List[np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Allocate and seed the flat buffer vector for one kernel call.

    Arrays get zero-filled allocation-region buffers (seeded from
    ``inputs`` exactly like ``Storage.seed_arrays``); scalars get
    one-element buffers the kernel writes back on return.  Returns the
    ordered buffer list plus name-keyed views of both.
    """
    buffers: List[np.ndarray] = []
    arrays: Dict[str, np.ndarray] = {}
    scalars: Dict[str, np.ndarray] = {}
    for entry in abi:
        dtype = np.dtype(getattr(np, DTYPES[entry.kind]))
        if entry.role == "array":
            buf = np.zeros(entry.shape, dtype=dtype)
            if inputs is not None and entry.name in inputs:
                buf[...] = inputs[entry.name]
            arrays[entry.name] = buf
        else:
            buf = np.zeros(1, dtype=dtype)
            scalars[entry.name] = buf
        buffers.append(buf)
    return buffers, arrays, scalars


def run_kernel(
    kernel: NativeKernel, abi: List[AbiEntry], inputs=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """One marshalled call: returns (arrays, scalars) like the emitters."""
    buffers, arrays, scalar_bufs = marshal_buffers(abi, inputs)
    kernel.run(buffers)
    return arrays, {name: buf[0] for name, buf in scalar_bufs.items()}


# -- registry-facing execution ----------------------------------------------

#: Per-process JIT memo: (compiler, source hash) -> loaded kernel.  The
#: differential fuzz corpus compiles thousands of small programs; this
#: dedupes repeats within a process.  Cross-process reuse is the service
#: layer's job (content-addressed ``.so`` artifacts).
_kernel_memo: Dict[Tuple[str, str], NativeKernel] = {}


def _memo_key(source: str, cc: str) -> Tuple[str, str]:
    return (cc, hashlib.sha256(source.encode("utf-8")).hexdigest())


def cached_kernel(source: str, cc: str) -> Optional[NativeKernel]:
    """The already-loaded kernel for this (compiler, source), if any."""
    return _kernel_memo.get(_memo_key(source, cc))


def remember_kernel(source: str, cc: str, kernel: NativeKernel) -> None:
    """Prime the per-process memo (e.g. after a service-layer compile)."""
    _kernel_memo[_memo_key(source, cc)] = kernel


def kernel_for_source(
    source: str, cc: Optional[str] = None, entry: str = "repro_run"
) -> NativeKernel:
    """Compile (or reuse) the kernel for one rendered translation unit."""
    cc = cc or find_cc()
    if cc is None:
        raise BackendUnavailableError(
            "the c backend needs a host C compiler "
            "(cc, gcc or clang on PATH, or REPRO_CC=/path/to/cc)"
        )
    kernel = cached_kernel(source, cc)
    if kernel is None:
        kernel = load_kernel(compile_shared(source, cc), entry)
        remember_kernel(source, cc, kernel)
    if kernel.entry != entry:
        kernel = NativeKernel(kernel.path, entry)
    return kernel


def execute_c(
    program: ScalarProgram, inputs=None
) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Render, compile and run a scalarized program natively.

    Returns ``(arrays, scalars)`` in the same allocation-region layout
    as :func:`repro.scalarize.codegen_py.execute_python`.
    """
    kernel = kernel_for_source(render_c_module(program))
    return run_kernel(kernel, c_abi(program), inputs)
