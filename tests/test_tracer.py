"""The benchmark tracer (perfbench/spans.py) rebinds liebeq functions by
name; every binding it needs must exist, and remove() must restore them."""

import importlib.util
import sys
from pathlib import Path

import liebeq
import liebeq.cli  # noqa: F401  (the CLI holds by-name bindings too)
import liebeq.quadrature as quadrature
import liebeq.solver as solver
from liebeq import Domain1D, Params, SolverConfig, picard_solve

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "liebeq" or name.startswith("liebeq."))
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_installs_and_restores_every_binding():
    spans = _load_spans()
    before = _bindings()
    installed = spans.Installed(spans.Recorder())
    try:
        assert solver.least_squares is not before[("liebeq.solver", "least_squares")]
        assert quadrature.integrate is not before[("liebeq.quadrature", "integrate")]
        assert liebeq.check_commutativity is not before[("liebeq", "check_commutativity")]
    finally:
        installed.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


# At lam = 0.99 the accelerated sweeps cannot reach the rounding floor, so
# the finish runs behind solver.least_squares, the binding the tracer wraps
# to count its residual evaluations.
def test_tracer_records_the_finish():
    spans = _load_spans()
    finish = solver.least_squares
    rec = spans.Recorder()
    installed = spans.Installed(rec)
    try:
        _, trace = picard_solve(SolverConfig(domain=Domain1D.interval(-1.0, 1.0),
                                             grid_size=33), Params(1, 0.99))
    finally:
        installed.remove()
    assert "solver.lsq" in rec.names
    assert "solver.matrix" in rec.names  # the solve's one assembly is traced
    assert rec.counters["solver.nfev"] == trace.nfev > 0
    assert rec.counters["solver.njev"] == trace.njev > 0
    assert solver.least_squares is finish
