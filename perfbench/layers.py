"""The traced run: spans around each layer's public functions.

Nothing inside ``src/`` is changed.  :class:`LayerTrace` swaps the
public entry points of each layer, at the names its callers look them
up by, for wrappers that open a :class:`repro.obs.Tracer` span around
the call and note what the call produced (statement counts, clusters,
code size, cache hit).  The spans stay in memory and are exported as
one Chrome trace at the end.

A layer's self time is its span's duration minus the time its child
spans cover.  The deps/fusion split reads the pipeline's own
``compile.deps`` timer from ``CompiledProgram.compile_timings``: the
dependence analysis runs inside ``plan_program``, so the fusion self
time is the ``fusion.plan`` span minus that timer.
"""

from __future__ import annotations

import functools
import statistics
from typing import Dict, List


def _statements(program) -> Dict[str, object]:
    return {"statements": len(program.array_statements())}


def _plan_counts(plan) -> Dict[str, object]:
    return {
        "clusters": sum(bp.cluster_count for bp in plan.block_plans.values()),
        "contracted": len(plan.contracted_arrays()),
    }


def _code_bytes(code) -> Dict[str, object]:
    return {"code_bytes": len(code.encode("utf-8")) if code else 0}


def _compile_result(compiled) -> Dict[str, object]:
    attrs = {"hit": bool(compiled.from_cache)}
    if not compiled.from_cache:
        attrs["deps_s"] = compiled.compile_timings.get("compile.deps", 0.0)
    return attrs


def _targets():
    """(owner, attribute, span name, result annotator) per wrapped call.

    Module functions are wrapped in the namespace their caller reads
    them from; methods on their class.
    """
    from repro.daemon import client
    from repro.exec import mp_shard, native
    from repro.service import compiled, service

    return [
        (service, "normalize_source", "ir.normalize", _statements),
        (service, "plan_program", "fusion.plan", _plan_counts),
        (service, "scalarize", "scalarize", None),
        (service, "render_numpy", "scalarize.codegen", _code_bytes),
        (service, "render_python", "scalarize.codegen", _code_bytes),
        (service, "render_c_module", "scalarize.codegen", _code_bytes),
        (native, "compile_shared", "exec.native.cc", None),
        (service.Service, "compile", "service.compile", _compile_result),
        (compiled.CompiledProgram, "execute", "exec", None),
        (mp_shard, "execute_sharded", "exec.mp_shard", None),
        (client.DaemonClient, "execute", "daemon.client", None),
    ]


class LayerTrace:
    """Installs and removes the layer wrappers; owns the tracer."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer(enabled=True, capacity=1 << 20)
        self._saved: List[tuple] = []

    def _wrap(self, func, name, annotate):
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "exec":
                backend = kwargs.get("backend") or (
                    args[2] if len(args) > 2 else None
                )
                span_name = "exec.%s" % (backend or args[0].backend)
            with tracer.span(span_name) as span:
                result = func(*args, **kwargs)
                if annotate is not None:
                    for key, value in annotate(result).items():
                        span.set(key, value)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, annotate in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self):
        """The spans recorded so far; the tracer starts empty again."""
        spans = self.tracer.spans()
        self.tracer.clear()
        return spans


def self_times_us(spans) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_total: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_total[span.parent_id] = (
                child_total.get(span.parent_id, 0.0) + span.duration_us
            )
    return {
        span.span_id: max(0.0, span.duration_us - child_total.get(span.span_id, 0.0))
        for span in spans
    }


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) / 1000.0 if values else 0.0


def timing_metrics(spans) -> Dict[str, float]:
    """Per-layer self times (ms, medians per call) and the cache hit ratio."""
    own = self_times_us(spans)
    by_id = {span.span_id: span for span in spans}

    def self_ms(name):
        return _median_ms(own[s.span_id] for s in spans if s.name == name)

    fusion_us = []
    deps_us = []
    for span in spans:
        if span.name != "fusion.plan":
            continue
        parent = by_id.get(span.parent_id)
        deps = 1e6 * (parent.attrs.get("deps_s", 0.0) if parent else 0.0)
        deps_us.append(deps)
        fusion_us.append(max(0.0, own[span.span_id] - deps))
    compiles = [s for s in spans if s.name == "service.compile"]
    hits = [s for s in compiles if s.attrs.get("hit")]
    return {
        "ir.normalize_ms": self_ms("ir.normalize"),
        "deps.asdg_ms": _median_ms(deps_us),
        "fusion.plan_ms": _median_ms(fusion_us),
        "scalarize.ms": self_ms("scalarize"),
        "scalarize.codegen_ms": self_ms("scalarize.codegen"),
        "service.hit_ms": _median_ms(s.duration_us for s in hits),
        "service.hit_ratio": len(hits) / len(compiles) if compiles else 0.0,
        "service.compile_calls": float(len(compiles)),
        "exec.codegen_np_ms": self_ms("exec.codegen_np"),
        "exec.c_ms": self_ms("exec.c"),
        "exec.mp_shard_ms": self_ms("exec.mp_shard"),
    }


def census_metrics(spans, setup_spans) -> Dict[str, float]:
    """Totals that must repeat exactly, from a cold compile of each census
    request, plus the median host-compiler call in set-up or census."""

    def total(name, key):
        return float(sum(s.attrs.get(key, 0) for s in spans if s.name == name))

    return {
        "ir.statements": total("ir.normalize", "statements"),
        "fusion.clusters": total("fusion.plan", "clusters"),
        "fusion.contracted": total("fusion.plan", "contracted"),
        "scalarize.code_bytes": total("scalarize.codegen", "code_bytes"),
        "exec.native.cc_ms": _median_ms(
            s.duration_us for s in spans + setup_spans if s.name == "exec.native.cc"
        ),
    }
