"""The benchmark tracer (perfbench/spans.py) rebinds liebeq functions by
name; every binding it needs must exist, and remove() must restore them."""

import importlib.util
import json
import sys
from pathlib import Path

import liebeq
import liebeq.cli  # noqa: F401  (the CLI holds by-name bindings too)
import liebeq.quadrature as quadrature
import liebeq.solver as solver

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


# Run in a new interpreter, where scipy is not loaded until the first solve
# that falls back to the trust-region finish imports it behind
# solver.least_squares.  At lam = 0.99 the accelerated sweeps cannot reach
# the rounding floor (the finish ends at a residual of 2.8e-14), so the
# finish runs.
_LAZY_SOLVE = """
import importlib.util, json, sys
import liebeq.solver as solver
from liebeq import Domain1D, Params, SolverConfig, picard_solve

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
loaded_before = "scipy.optimize" in sys.modules
shim = solver.least_squares
rec = spans.Recorder()
installed = spans.Installed(rec)
_, trace = picard_solve(SolverConfig(domain=Domain1D.interval(-1.0, 1.0), grid_size=33),
                        Params(1, 0.99))
installed.remove()
print(json.dumps({"loaded_before": loaded_before, "trace_nfev": trace.nfev,
                  "loaded_after": "scipy.optimize" in sys.modules,
                  "names": rec.names, "nfev": rec.counters["solver.nfev"],
                  "restored": solver.least_squares is shim}))
"""


def test_tracer_survives_the_lazy_scipy_import(fresh_python):
    proc = fresh_python("-c", _LAZY_SOLVE, str(SPANS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert not out["loaded_before"] and out["loaded_after"]
    assert "solver.lsq" in out["names"]
    assert "solver.matrix" in out["names"]  # the solve's one assembly is traced
    assert out["nfev"] == out["trace_nfev"] > 0
    assert out["restored"]
