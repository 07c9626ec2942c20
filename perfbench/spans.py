"""Span tracing of poisson_grad from outside the package.

Each traced name is rebound where its caller looks it up (the solver's
binding of ``action``, the CLI's binding of ``certify``, a potential class's
``value`` method, ...) to a wrapper that records one span per call: name,
start, end, parent span and operation id.  Spans are kept in compact arrays
in memory and written out once, when the run ends.  ``uninstall`` puts every
original binding back, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# import_module, because the package re-exports the function ``action`` under
# its submodule's name
action, cli, expr, grid, potential, solver, verify = (
    importlib.import_module(f"poisson_grad.{name}")
    for name in ("action", "cli", "expr", "grid", "potential", "solver", "verify")
)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _minimize_iterations(args, kwargs, result) -> int:
    _, report = result
    return report.final.index


def _shifted(args, kwargs, result) -> int:
    _, shifts = result
    return int(shifts.any())


_POTENTIAL_CLASSES = (
    potential.CosineLattice,
    potential.ShiftedQuadratic,
    potential.LinearForcing,
    expr.ExpressionPotential,
)

# (owner, attribute, span name or None for count-only, counter, counter hook)
_BINDINGS = [
    *[(m, "node_coordinates", "grid.node_coordinates", None, None) for m in (grid, action, verify)],
    *[(m, "forward_diff", "grid.forward_diff", None, None) for m in (grid, action, verify)],
    *[(m, "laplacian", "grid.laplacian", None, None) for m in (grid, action)],
    *[(m, "solve_linear_poisson", "grid.solve_linear_poisson", None, None) for m in (grid, cli)],
    *[(c, "value", "potential.value", None, None) for c in _POTENTIAL_CLASSES],
    *[(c, "gradient", "potential.gradient", None, None) for c in _POTENTIAL_CLASSES],
    *[
        (cli, name, "potential.checks", None, None)
        for name in (
            "check_periodicity",
            "check_positivity",
            "check_gradient_growth",
            "check_grad_consistency",
        )
    ],
    (expr, "tokenize", "expr.parse", None, None),
    (expr, "parse", "expr.parse", None, None),
    (expr, "eval_value", "expr.eval_value", None, None),
    (expr, "eval_dual", "expr.eval_dual", None, None),
    (solver, "action", "action.action", None, None),
    (solver, "action_gradient", "action.action_gradient", None, None),
    (verify, "action_gradient", "action.action_gradient", None, None),
    (cli, "minimize", "solver.minimize", "solver.iterations", _minimize_iterations),
    (solver, "canonicalize", None, "solver.gauge_repricings", _shifted),
    (cli, "check_minimizing_bounds", "solver.audit", None, None),
    (cli, "certify", "verify.certify", None, None),
    (verify, "el_residual", "verify.el_residual", None, None),
    (verify, "boundary_check", "verify.boundary_check", None, None),
    (verify, "wirtinger_check", "verify.wirtinger_check", None, None),
    *[
        (cli, name, "cli.build", None, None)
        for name in (
            "load_config",
            "build_grid",
            "build_potential",
            "build_sampler",
            "build_solver_config",
            "build_init",
        )
    ],
    (cli, "write_field_csv", "cli.csv_write", "cli.csv_write.bytes", _file_bytes),
    (cli, "read_field_csv", "cli.csv_read", "cli.csv_read.bytes", _file_bytes),
    (cli, "write_report", "cli.report_write", "cli.report.bytes", _file_bytes),
]


class Tracer:
    """Records spans of the wrapped calls made while an operation is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str | None, counter: str | None, hook):
        nid = None if span is None else self._id(span)
        now = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nid is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.start)
                self.name.append(nid)
                self.parent.append(stack[-1] if stack else -1)
                self.op.append(self._op)
                self.end.append(0)
                stack.append(idx)
                self.start.append(now())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end[idx] = now()
                    stack.pop()
            if counter is not None:
                self.counters[counter] += hook(args, kwargs, result)
            return result

        return traced

    def install(self, op_id: int) -> None:
        """Rebind every traced name; spans recorded now belong to ``op_id``."""
        self._op = op_id
        for owner, attr, span, counter, hook in _BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter, hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._stack.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one operation run on one thread, so children
        never overlap each other.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (
            np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        ) * 1e-9
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - children
        calls = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=dur, minlength=len(self.names))
        own = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {
            name: {"calls": float(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )
