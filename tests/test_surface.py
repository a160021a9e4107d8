"""The configuration surface, pinned: a new setting, option or flag has to
change this file on purpose, and a removed one stays refused."""

import dataclasses
import inspect

import pytest

from liebeq.cli import _build_parser
from liebeq.identities import (check_commutativity, check_composite, check_orthogonality,
                               cutoff_pair_integral, parse_form, solution_descriptor)
from liebeq.quadrature import QuadratureSpec
from liebeq.radial_riesz import riesz_potential_radial
from liebeq.regularity import Domain1D, decay_singularity_scan, translation_annihilation_check
from liebeq.solutions import lieb_solution, verify_solution
from liebeq.solver import SolverConfig, picard_solve
from liebeq.specfun import Params


def test_library_settings():
    assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["rel_tol", "singularities"]
    assert [f.name for f in dataclasses.fields(SolverConfig)] == \
        ["domain", "grid_size", "stop_tol"]
    assert list(inspect.signature(picard_solve).parameters) == ["config", "params"]
    assert list(inspect.signature(translation_annihilation_check).parameters) == \
        ["params", "points"]
    assert list(inspect.signature(riesz_potential_radial).parameters) == \
        ["f", "params", "r", "rel_tol"]
    assert list(inspect.signature(verify_solution).parameters) == \
        ["f", "params", "radii", "tolerance", "rel_tol"]
    assert list(inspect.signature(cutoff_pair_integral).parameters) == \
        ["f", "alpha", "g", "beta", "params", "R"]
    assert list(inspect.signature(decay_singularity_scan).parameters) == \
        ["f", "R_outer", "blowup_threshold"]


_G = Domain1D.interval(-1.0, 1.0)
_P = Params(1, 0.5)
_FL = solution_descriptor(lieb_solution(_P), _P, "lieb")
_D1 = parse_form("d1", 1)


@pytest.mark.parametrize("call", [
    lambda: QuadratureSpec(max_subdivisions=2000),
    lambda: SolverConfig(domain=_G, grading_exponent=2.0),
    lambda: SolverConfig(domain=_G, max_iters=200),
    lambda: picard_solve(SolverConfig(domain=_G, grid_size=33), Params(1, 0.5), init=1.0),
    lambda: translation_annihilation_check(Params(1, 0.5), [(1.0, 0.3)], h=1e-4),
    lambda: check_commutativity(_FL, _FL, 0, 0, _P, quad=QuadratureSpec()),
    lambda: check_orthogonality(_FL, 1, 0, _P, quad=QuadratureSpec()),
    lambda: check_composite(_FL, _FL, _D1, _D1, _P, quad=QuadratureSpec()),
    lambda: riesz_potential_radial(_FL.base, _P, 1.0, quad=QuadratureSpec()),
    lambda: verify_solution(_FL.base, _P, [1.0], quad=QuadratureSpec()),
    lambda: cutoff_pair_integral(_FL, 0, _FL, 0, _P, 1e2, quad=QuadratureSpec()),
], ids=["max_subdivisions", "grading_exponent", "max_iters", "init", "h",
        "commutativity_quad", "orthogonality_quad", "composite_quad",
        "potential_quad", "verify_quad", "cutoff_quad"])
def test_removed_keyword_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


_COMMON = ["--config", "--lambda", "--n", "--no-timestamp", "--out"]
_OPTIONS = {
    "constants": [],
    "verify-solution": ["--radii", "--rel-tol", "--tolerance", "--which"],
    "riesz": ["--amplitude", "--exponent", "--r", "--rel-tol", "--which"],
    "identity": ["--alpha", "--beta", "--f", "--form-lambda", "--form-omega", "--g",
                 "--kind", "--tolerance", "--zero-tolerance"],
    "corollary": ["--tolerance"],
    "regularity": ["--check", "--domain", "--m", "--nu", "--which"],
    "scan": ["--r-outer", "--threshold", "--which"],
    "solve": ["--a", "--b", "--grid-size", "--stop-tol"],
}


def test_cli_options():
    _, subparsers = _build_parser()
    got = {name: sorted(option for action in sub._actions if action.dest != "help"
                        for option in action.option_strings)
           for name, sub in subparsers.items()}
    assert got == {name: sorted(_COMMON + own) for name, own in _OPTIONS.items()}
