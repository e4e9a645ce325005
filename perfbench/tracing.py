"""Span recorders wrapped around the public functions of each cbdetect layer.

A traced run patches each function where its caller looks the name up
(``cbdetect.inference.power_leading`` rather than
``cbdetect.eigen.power_leading``), records one span per call in memory and
turns the spans into per-layer metrics at the end.  ``SparseMatrix.matvec``
is called hundreds of thousands of times per run, so it is counted and
timed in place instead of getting a span of its own; its time still counts
as child time of the span that called it.  Spans are timed with the same
CPU clock (``time.process_time``) as the end-to-end metrics.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from cbdetect import cli, eigen, inference, model, operators

# per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "model.generate_s": "s",
    "model.edges": "count",
    "model.write_s": "s",
    "model.file_mb": "MB",
    "model.read_s": "s",
    "operators.build_bprime_s": "s",
    "operators.bprime_nnz": "count",
    "operators.build_bethe_hessian_s": "s",
    "operators.h_nnz": "count",
    "operators.edge_index_s": "s",
    "eigen.power_leading_s": "s",
    "eigen.power_leading_iters": "count",
    "eigen.no_real_leader": "count",
    "eigen.smallest_symmetric_s": "s",
    "eigen.smallest_symmetric_iters": "count",
    "eigen.smallest_symmetric_capped": "count",
    "eigen.is_symmetric_s": "s",
    "eigen.gershgorin_upper_s": "s",
    "eigen.matvecs": "count",
    "eigen.matvec_us": "us",
    "eigen.matvec_bytes_computed": "B",
    "inference.bp_fixed_point_s": "s",
    "inference.bp_sweeps": "count",
    "inference.bp_sweep_ms": "ms",
    "inference.bp_capped": "count",
    "inference.population_dynamics_s": "s",
    "inference.popdyn_sweep_ms": "ms",
    "inference.detect_self_s": "s",
    "cli.detect_self_s": "s",
    "cli.gen_self_s": "s",
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by child spans and matvecs
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class Tracer:
    """In-memory span store; install() patches cbdetect, uninstall() restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.matvecs = 0
        self.matvec_seconds = 0.0
        self.matvec_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, time.process_time())
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.process_time()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child += span.seconds

    def wrap(self, name: str, fn, describe=None):
        """A traced stand-in for fn; describe(result, args) adds attributes to the span."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if describe is not None:
                span.attrs.update(describe(result, args))
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _matvec(self, orig):
        tracer = self

        def matvec(matrix, v):
            t = time.process_time()
            out = orig(matrix, v)
            dt = time.process_time() - t
            tracer.matvecs += 1
            tracer.matvec_seconds += dt
            # CSR storage read once plus the input and output vectors (computed, not measured)
            tracer.matvec_bytes += (
                matrix.values.nbytes + matrix.col_indices.nbytes + matrix.row_offsets.nbytes
                + 8 * (matrix.ncols + matrix.nrows)
            )
            if tracer.stack:
                tracer.spans[tracer.stack[-1]].child += dt
            return out

        return matvec

    def install(self) -> None:
        w = self.wrap
        nnz = lambda res, args: {"nnz": res.nnz}  # noqa: E731
        detect = w("inference.detect", inference.detect)
        generate = w("model.generate", model.generate, lambda res, args: {"edges": res.m})
        patches = [
            (model, "generate", generate),
            (cli, "generate", generate),
            (cli, "write_instance", w("model.write_instance", model.write_instance, _file_size)),
            (cli, "read_instance", w("model.read_instance", model.read_instance)),
            (inference, "build_bprime", w("operators.build_bprime", operators.build_bprime, nnz)),
            (inference, "build_bethe_hessian", w("operators.build_bethe_hessian", operators.build_bethe_hessian, nnz)),
            (inference, "power_leading", w("eigen.power_leading", eigen.power_leading, _power_result)),
            (inference, "smallest_symmetric", w("eigen.smallest_symmetric", eigen.smallest_symmetric, _symmetric_result)),
            (eigen, "gershgorin_upper", w("eigen.gershgorin_upper", eigen.gershgorin_upper)),
            (inference, "bp_fixed_point", w("inference.bp_fixed_point", inference.bp_fixed_point, _bp_result)),
            (cli, "population_dynamics", w("inference.population_dynamics", inference.population_dynamics, _popdyn_sweeps)),
            (inference, "detect", detect),
            (cli, "detect", detect),
            (cli, "main", w("cli.main", cli.main, lambda res, args: {"command": _command(args)})),
        ]
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)
        sm = operators.SparseMatrix
        self._patch(sm, "is_symmetric", w("eigen.is_symmetric", sm.is_symmetric))
        self._patch(sm, "matvec", self._matvec(sm.matvec))
        dei = operators.DirectedEdgeIndex
        from_instance = w("operators.edge_index", dei.from_instance.__func__)
        self._patch(dei, "from_instance", classmethod(from_instance))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": s.name, "parent": s.parent, "start": s.start,
                                     "end": s.end, "self_s": s.self_seconds, **s.attrs}) + "\n")
            fh.write(json.dumps({"name": "operators.SparseMatrix.matvec", "calls": self.matvecs,
                                 "seconds": self.matvec_seconds, "bytes_computed": self.matvec_bytes}) + "\n")

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics: times and counts per round, sizes per call, ratios as ratios."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        attr = defaultdict(float)
        for s in self.spans:
            name = s.name if s.name != "cli.main" else f"cli.{s.attrs.get('command')}"
            total[name] += s.seconds
            own[name] += s.self_seconds
            calls[name] += 1
            for key, value in s.attrs.items():
                if key != "command":
                    attr[f"{name}.{key}"] += value

        def per_call(key, name):
            return attr[key] / calls[name] if calls[name] else 0.0

        values = {
            "model.generate_s": total["model.generate"] / rounds,
            "model.edges": per_call("model.generate.edges", "model.generate"),
            "model.write_s": total["model.write_instance"] / rounds,
            "model.file_mb": per_call("model.write_instance.bytes", "model.write_instance") / 1e6,
            "model.read_s": total["model.read_instance"] / rounds,
            "operators.build_bprime_s": total["operators.build_bprime"] / rounds,
            "operators.bprime_nnz": per_call("operators.build_bprime.nnz", "operators.build_bprime"),
            "operators.build_bethe_hessian_s": total["operators.build_bethe_hessian"] / rounds,
            "operators.h_nnz": per_call("operators.build_bethe_hessian.nnz", "operators.build_bethe_hessian"),
            "operators.edge_index_s": total["operators.edge_index"] / rounds,
            "eigen.power_leading_s": total["eigen.power_leading"] / rounds,
            "eigen.power_leading_iters": attr["eigen.power_leading.iterations"] / rounds,
            "eigen.no_real_leader": attr["eigen.power_leading.no_real_leader"] / rounds,
            "eigen.smallest_symmetric_s": total["eigen.smallest_symmetric"] / rounds,
            "eigen.smallest_symmetric_iters": attr["eigen.smallest_symmetric.iterations"] / rounds,
            "eigen.smallest_symmetric_capped": attr["eigen.smallest_symmetric.capped"] / rounds,
            "eigen.is_symmetric_s": total["eigen.is_symmetric"] / rounds,
            "eigen.gershgorin_upper_s": total["eigen.gershgorin_upper"] / rounds,
            "eigen.matvecs": self.matvecs / rounds,
            "eigen.matvec_us": 1e6 * self.matvec_seconds / max(self.matvecs, 1),
            "eigen.matvec_bytes_computed": self.matvec_bytes / rounds,
            "inference.bp_fixed_point_s": total["inference.bp_fixed_point"] / rounds,
            "inference.bp_sweeps": attr["inference.bp_fixed_point.sweeps"] / rounds,
            "inference.bp_sweep_ms": 1e3 * total["inference.bp_fixed_point"] / max(attr["inference.bp_fixed_point.sweeps"], 1),
            "inference.bp_capped": attr["inference.bp_fixed_point.capped"] / rounds,
            "inference.population_dynamics_s": total["inference.population_dynamics"] / rounds,
            "inference.popdyn_sweep_ms": 1e3 * total["inference.population_dynamics"] / max(attr["inference.population_dynamics.sweeps"], 1),
            "inference.detect_self_s": own["inference.detect"] / rounds,
            "cli.detect_self_s": own["cli.detect"] / rounds,
            "cli.gen_self_s": own["cli.gen"] / rounds,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def _file_size(result, args) -> dict:
    return {"bytes": Path(args[1]).stat().st_size}


def _power_result(res, args) -> dict:
    capped = isinstance(res, eigen.NoRealLeader)
    return {"iterations": res.iterations, "no_real_leader": int(capped)}


def _symmetric_result(res, args) -> dict:
    return {"iterations": res.iterations, "capped": int(not res.converged)}


def _bp_result(res, args) -> dict:
    state = res[0]
    return {"sweeps": state.sweeps, "capped": int(not state.converged)}


def _popdyn_sweeps(result, args) -> dict:
    cfg = args[0]
    return {"sweeps": cfg.equilibration_sweeps + cfg.measurement_sweeps}


def _command(args) -> str:
    argv = args[0] if args else None
    return argv[0] if argv else "unknown"
