"""Outside-in span recorder for liebeq's layers.

The recorder wraps liebeq's public functions from outside the package: each
wrapper replaces every binding of the original function in every loaded
``liebeq`` module (``from .x import f`` makes one binding per importing
module), so calls made by name inside the package are traced as well.
``quadrature.integrate`` also wraps the integrand callback it receives, and
``least_squares`` (bound by name in ``liebeq.solver``) wraps its ``fun`` and
``jac`` callbacks.

Spans are kept in flat in-memory arrays while the batch runs.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# span names, one per layer boundary
OP = "op"
INTEGRATE = "quadrature.integrate"
INTEGRAND = "quadrature.integrand"
POTENTIAL = "radial_riesz.potential"
LIEB_L = "specfun.lieb_constant_L"
VERIFY = "solutions.verify"
CHECK = "identities.check"
MATRIX = "solver.matrix"
LSQ = "solver.lsq"
CALLBACK = "solver.callback"
PROBE = "solver.probe"

OK, NONCONVERGENT, RAISED = 0, 1, 2


class Recorder:
    """Spans (name, parent, start, end, status) in flat arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.status.append(OK)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, status: int = OK) -> None:
        self.end[idx] = perf_counter()
        self.status[idx] = status
        self._stack.pop()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "status": np.array(self.status, dtype=np.int8),
        }


def _traced(rec: Recorder, name: str, fn, nonconvergent=()):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except nonconvergent:
            rec.close(idx, NONCONVERGENT)
            raise
        except BaseException:
            rec.close(idx, RAISED)
            raise
        rec.close(idx)
        return out
    return wrapper


def _traced_callback(rec: Recorder, name: str, fn, points_counter=None):
    def callback(x, *args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(x, *args, **kwargs)
        finally:
            rec.close(idx)
            if points_counter:
                rec.counters[points_counter] += int(np.size(x))
    return callback


def _integrate_wrapper(rec: Recorder, integrate, nonconvergent):
    traced = _traced(rec, INTEGRATE, integrate, nonconvergent)

    def traced_integrate(f, *args, **kwargs):
        return traced(_traced_callback(rec, INTEGRAND, f, "quadrature.integrand.points"),
                      *args, **kwargs)
    return traced_integrate


def _lsq_wrapper(rec: Recorder, least_squares):
    traced = _traced(rec, LSQ, least_squares)

    def traced_least_squares(fun, *args, **kwargs):
        if callable(kwargs.get("jac")):
            kwargs["jac"] = _traced_callback(rec, CALLBACK, kwargs["jac"])
        result = traced(_traced_callback(rec, CALLBACK, fun), *args, **kwargs)
        rec.counters["solver.nfev"] += int(result.nfev)
        rec.counters["solver.njev"] += int(result.njev or 0)
        return result
    return traced_least_squares


def _liebeq_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liebeq" or name.startswith("liebeq."))]


class Installed:
    """Wrappers installed on every liebeq binding; ``remove`` restores them."""

    def __init__(self, rec: Recorder):
        import liebeq.identities as identities
        import liebeq.quadrature as quadrature
        import liebeq.radial_riesz as radial_riesz
        import liebeq.solutions as solutions
        import liebeq.solver as solver
        import liebeq.specfun as specfun

        self._saved: list = []
        nc = quadrature.NonConvergent
        self._rebind(quadrature.integrate,
                     _integrate_wrapper(rec, quadrature.integrate, nc))
        plain = [
            (radial_riesz.riesz_potential_radial, POTENTIAL),
            (specfun.lieb_constant_L, LIEB_L),
            (solutions.verify_solution, VERIFY),
            (identities.check_commutativity, CHECK),
            (identities.check_orthogonality, CHECK),
            (identities.check_composite, CHECK),
            (solver.product_integration_matrix, MATRIX),
            (solver.residual_on_points, PROBE),
        ]
        for fn, name in plain:
            self._rebind(fn, _traced(rec, name, fn, nc))
        self._rebind(solver.least_squares, _lsq_wrapper(rec, solver.least_squares))

    def _rebind(self, original, wrapper) -> None:
        found = 0
        for module in _liebeq_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._saved.append((module, attr, original))
                    found += 1
        if not found:
            raise RuntimeError(f"no liebeq binding of {original!r} to trace")

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer counts and times of one traced batch."""
    a = rec.arrays()
    names = list(a["names"])
    name, parent, status = a["name"], a["parent"], a["status"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    grand = np.where(has_parent, parent[np.maximum(parent, 0)], -1)
    grand_name = np.where(grand >= 0, name[np.maximum(grand, 0)], -1)

    def nid(span):
        return names.index(span) if span in names else -2

    def mask(span):
        return name == nid(span)

    def calls(span):
        return int(np.count_nonzero(mask(span)))

    def total(span, values=dur):
        return float(values[mask(span)].sum())

    integrate = mask(INTEGRATE)
    n_integrate = int(integrate.sum())
    integrand = mask(INTEGRAND)
    callback = mask(CALLBACK)
    return {
        "quadrature.integrate.calls": n_integrate,
        "quadrature.integrand.calls": calls(INTEGRAND),
        "quadrature.integrand.points": rec.counters["quadrature.integrand.points"],
        "quadrature.self_s": total(INTEGRATE, self_time),
        "quadrature.nonconvergent": int(np.count_nonzero(integrate & (status == NONCONVERGENT))),
        "quadrature.converged_ratio":
            float(np.count_nonzero(integrate & (status == OK)) / n_integrate) if n_integrate else 0.0,
        "radial_riesz.potential.calls": calls(POTENTIAL),
        "radial_riesz.integrand_s": float(dur[integrand & (grand_name == nid(POTENTIAL))].sum()),
        "radial_riesz.self_s": total(POTENTIAL, self_time),
        "specfun.lieb_constant_L.calls": calls(LIEB_L),
        "specfun.lieb_constant_L.s": total(LIEB_L),
        "solutions.verify.calls": calls(VERIFY),
        "solutions.verify.self_s": total(VERIFY, self_time),
        "identities.check.calls": calls(CHECK),
        "identities.integrand_s": float(dur[integrand & (grand_name == nid(CHECK))].sum()),
        "identities.self_s": total(CHECK, self_time),
        "solver.matrix_s": total(MATRIX),
        "solver.lsq_s": total(LSQ),
        "solver.lsq_self_s": total(LSQ, self_time),
        "solver.callback_s": float(dur[callback & (parent_name == nid(LSQ))].sum()),
        "solver.nfev": rec.counters["solver.nfev"],
        "solver.njev": rec.counters["solver.njev"],
        "solver.probe_s": total(PROBE),
    }
