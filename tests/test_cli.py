import json
import math
from pathlib import Path

import pytest

import liebeq.quadrature as quadrature
from liebeq.cli import _exit_code, _overall_verdict, load_report, main
from liebeq.specfun import Params, lieb_constant_C


def run(args, capsys=None):
    code = main(args)
    return code


class TestConstants:
    def test_values_and_exit(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["constants", "--n", "4", "--lambda", "2",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        report = load_report(str(out))
        assert report["subcommand"] == "constants"
        assert report["params"] == {"n": 4, "lambda": 2.0,
                                    "p": 2 * 4 / (2 * 4 - 2.0)}
        values = {r["name"]: r["value"] for r in report["results"]}
        # round-trip is exact: the parsed float equals the library value
        assert values["lieb_constant_C"] == lieb_constant_C(Params(4, 2.0))
        assert values["lieb_constant_C"] == pytest.approx(1 / (8 * math.pi ** 3),
                                                          rel=1e-12)

    def test_schema_keys(self, tmp_path):
        out = tmp_path / "c.json"
        main(["constants", "--n", "1", "--lambda", "0.5",
              "--no-timestamp", "--out", str(out)])
        report = load_report(str(out))
        assert set(report) == {"subcommand", "params", "inputs", "results",
                               "verdict", "tolerances", "quadrature"}
        assert set(report["quadrature"]) == {"rel_tol", "err_estimates"}

    def test_timestamp_toggle(self, tmp_path):
        out = tmp_path / "c.json"
        main(["constants", "--n", "1", "--lambda", "0.5", "--out", str(out)])
        assert "timestamp" in load_report(str(out))


class TestVerifySolution:
    def test_singular_verified(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify-solution", "--which", "singular", "--n", "1",
                     "--lambda", "0.5", "--no-timestamp", "--out", str(out)])
        assert code == 0
        report = load_report(str(out))
        assert report["verdict"] == "Verified"
        assert report["results"][0]["verdict"] == "Verified"

    def test_invalid_lambda_is_usage_error(self, capsys):
        code = main(["verify-solution", "--n", "1", "--lambda", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_nonpositive_tolerance_is_usage_error(self, tol, capsys):
        # a negative tolerance would refute an exact solution
        code = main(["verify-solution", f"--tolerance={tol}", "--no-timestamp"])
        assert code == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err


    @pytest.mark.parametrize("which,option", [("lieb", "--abs-tol"), ("singular", "--rel-tol")])
    def test_infinite_quadrature_tolerance_is_usage_error(self, which, option, capsys):
        # an infinite tolerance would stop the quadrature at its first estimate
        code = main(["verify-solution", "--which", which, option, "inf", "--no-timestamp"])
        assert code == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("which,radii", [("singular", "-1,1"), ("lieb", "-1,1"),
                                             ("singular", "0,1"), ("lieb", "inf"),
                                             ("lieb", "nan"), ("singular", "1,inf")])
    def test_bad_radius_is_usage_error(self, which, radii, capsys):
        # no radius is dropped: the library's own check refuses it
        code = main(["verify-solution", "--which", which, f"--radii={radii}",
                     "--no-timestamp"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "radii must be nonnegative" in captured.err or "singular point" in captured.err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-solution", "--which", "lieb", "--n", "1",
                "--lambda", "0.5", "--radii", "0,1,2", "--no-timestamp"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_values(self, tmp_path):
        out = tmp_path / "r.json"
        main(["riesz", "--which", "lieb", "--n", "1", "--lambda", "0.5",
              "--r", "1.0", "--no-timestamp", "--out", str(out)])
        report = load_report(str(out))
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == report


class TestIdentity:
    def test_commutativity_exit_zero(self, tmp_path):
        out = tmp_path / "i.json"
        code = main(["identity", "--kind", "commutativity", "--f", "singular",
                     "--g", "lieb", "--n", "1", "--lambda", "0.5",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        assert load_report(str(out))["verdict"] == "Verified"

    def test_screen_rejected_exits_three(self, tmp_path):
        out = tmp_path / "na.json"
        code = main(["identity", "--kind", "commutativity", "--f", "singular",
                     "--g", "singular", "--alpha", "1", "--beta", "0",
                     "--n", "1", "--lambda", "0.5",
                     "--no-timestamp", "--out", str(out)])
        assert code == 3
        report = load_report(str(out))
        assert report["verdict"] == "NotApplicable"
        assert report["results"][0]["screen"]["convergent"] is False

    def test_composite(self, tmp_path):
        out = tmp_path / "comp.json"
        code = main(["identity", "--kind", "composite", "--f", "lieb",
                     "--g", "lieb", "--form-lambda", "d1 + d11",
                     "--form-omega", "d1 + d11", "--n", "1", "--lambda", "0.5",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        assert len(load_report(str(out))["results"]) == 5

    @pytest.mark.parametrize("option", [["--zero-tolerance", "-1"], ["--tolerance", "-1"]])
    def test_nonpositive_tolerance_is_usage_error(self, option, capsys):
        # Lambda_o of d11 is empty, so the composite-orthogonality integrals
        # are exactly 0; a negative tolerance would refute them
        code = main(["identity", "--kind", "composite", "--f", "lieb", "--g", "lieb",
                     "--form-lambda", "d11", "--form-omega", "d11", *option,
                     "--no-timestamp"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be positive and finite" in captured.err

    @pytest.mark.parametrize("form", ["d1 + ", "d1 + + d11", "d1 -", "+", "", "d1 +- d11"])
    def test_form_with_an_empty_term_is_usage_error(self, form, capsys):
        # only the empty text in front of a leading sign is not a term
        code = main(["identity", "--kind", "composite", "--f", "lieb", "--g", "lieb",
                     "--form-lambda", form, "--form-omega", "d1", "--no-timestamp"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot parse form term" in captured.err

    def test_unused_tolerance_is_still_checked(self, capsys):
        # commutativity reads no zero tolerance, but the report echoes it
        code = main(["identity", "--kind", "commutativity", "--zero-tolerance", "-1",
                     "--no-timestamp"])
        assert code == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err

    def test_quadrature_flags_reach_the_check(self, tmp_path):
        runs = {}
        for tol in ("1e-9", "1e-11"):
            out = tmp_path / f"tol{tol}.json"
            assert main(["identity", "--kind", "commutativity", "--f", "singular",
                         "--g", "lieb", "--rel-tol", tol, "--no-timestamp",
                         "--out", str(out)]) == 0
            runs[tol] = load_report(str(out))["quadrature"]
        assert runs["1e-11"]["rel_tol"] == 1e-11
        assert runs["1e-11"]["err_estimates"][0] < runs["1e-9"]["err_estimates"][0]


class TestRiesz:
    @pytest.mark.parametrize("args,code,verdicts", [
        (["--which", "singular", "--r", "0"], 3, ["NotApplicable"]),
        (["--which", "singular", "--r", "0,1"], 0, ["NotApplicable", "Computed"]),
        (["--which", "power", "--exponent", "3", "--r", "1"], 3, ["NotApplicable"]),
    ])
    def test_divergent_potential_is_not_applicable(self, tmp_path, args, code, verdicts):
        # a screen-rejected radius gets its own NotApplicable result; the
        # other radii are still computed
        out = tmp_path / "riesz.json"
        assert main(["riesz", "--n", "1", "--lambda", "0.5", *args,
                     "--no-timestamp", "--out", str(out)]) == code
        report = load_report(str(out))
        assert [r["verdict"] for r in report["results"]] == verdicts
        assert report["verdict"] == ("NotApplicable" if code == 3 else "Computed")
        for result in report["results"]:
            if result["verdict"] == "NotApplicable":
                assert result["value"] == "nan"
                assert "diverges" in result["message"]
            else:
                assert math.isfinite(result["value"])


    @pytest.mark.parametrize("args", [
        ["--which", "power", "--exponent", "0.7", "--amplitude", "inf"],
        ["--which", "power", "--exponent", "nan"],
        ["--which", "lieb", "--r", "nan"],
        ["--which", "lieb", "--r", "inf"],
    ])
    def test_non_finite_input_is_usage_error(self, args, capsys):
        # nothing that is not finite reaches the quadrature
        assert main(["riesz", "--n", "1", "--lambda", "0.5", *args, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


def test_nonconvergent_quadrature_is_one_error_line(monkeypatch, capsys):
    def integrate(*args, **kwargs):
        raise quadrature.NonConvergent("budget exhausted")

    monkeypatch.setattr(quadrature, "integrate", integrate)
    code = main(["verify-solution", "--which", "singular", "--n", "1",
                 "--lambda", "0.5", "--radii", "0.5,2", "--no-timestamp"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "liebeq: error: budget exhausted\n"


def test_report_verdict_names_the_failing_verdict():
    # Refuted only when some result is; otherwise the first failing verdict
    # in the order NonPositive, Failed, Inconclusive; every failure exits 1
    cases = [["Inconclusive"], ["Verified", "Failed"], ["NonPositive"],
             ["Refuted", "Inconclusive"]]
    overall = [_overall_verdict(verdicts) for verdicts in cases]
    assert overall == ["Inconclusive", "Failed", "NonPositive", "Refuted"]
    assert [_exit_code(v) for v in overall] == [1, 1, 1, 1]


class TestCorollaryAndScan:
    def test_corollary(self, tmp_path):
        out = tmp_path / "cor.json"
        code = main(["corollary", "--n", "3", "--lambda", "1",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0
        report = load_report(str(out))
        assert report["results"][0]["name"] == "cross-commutativity"

    def test_scan(self, tmp_path):
        out = tmp_path / "scan.json"
        code = main(["scan", "--which", "singular", "--n", "1", "--lambda",
                     "0.5", "--no-timestamp", "--out", str(out)])
        assert code == 0
        result = load_report(str(out))["results"][0]
        assert result["singular_points"] == [0.0]

    def test_regularity_kernel_growth(self, tmp_path):
        out = tmp_path / "reg.json"
        code = main(["regularity", "--check", "kernel-growth", "--n", "1",
                     "--lambda", "0.5", "--m", "4",
                     "--no-timestamp", "--out", str(out)])
        assert code == 0


    @pytest.mark.parametrize("option,message", [
        (["--step", "0"], "step h must be positive"),
        (["--step=-1e-4"], "step h must be positive"),
        (["--samples", "0"], "at least one"),
        (["--samples=-3"], "--samples must be at least one"),
    ])
    def test_translation_that_checks_nothing_is_usage_error(self, option, message, capsys):
        code = main(["regularity", "--check", "translation", *option, "--no-timestamp"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [
        (["scan", "--which", "singular", "--n", "1", "--lambda", "0.5", "--r-outer", "inf"],
         "R_outer must be positive and finite"),
        (["scan", "--which", "lieb", "--r-outer", "nan"], "R_outer must be positive and finite"),
        (["scan", "--which", "lieb", "--threshold", "nan"],
         "threshold must be positive and finite"),
        (["regularity", "--check", "norm", "--domain", "interval:0,inf"], "finite width"),
        (["regularity", "--check", "norm", "--domain", "ball:1,inf"], "finite width"),
        (["regularity", "--check", "norm", "--domain", "ball:1,nan"], "finite width"),
        (["regularity", "--check", "norm", "--domain", "interval:-1e308,1e308"], "finite width"),
        (["regularity", "--check", "norm", "--nu", "nan"], "nu = nan"),
        (["regularity", "--check", "kernel-growth", "--m", "-1"], "m = -1"),
        (["scan", "--which", "lieb", "--threshold=-1"], "threshold must be positive and finite"),
        (["scan", "--which", "lieb", "--threshold", "0"], "threshold must be positive and finite"),
    ])
    def test_input_that_is_not_finite_or_in_range_is_usage_error(self, args, message, capsys):
        # refused before any sampling, with a message that names the input
        code = main(args + ["--no-timestamp"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestSolve:
    def test_newton_scheme(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["solve", "--n", "1", "--lambda", "0.5", "--grid-size",
                     "65", "--no-timestamp", "--out", str(out)])
        assert code == 0
        result = load_report(str(out))["results"][0]
        assert result["verdict"] == "Converged"
        assert result["final_residual"] <= 1e-8

    @pytest.mark.parametrize("option,message", [
        (["--stop-tol", "nan"], "tolerance must be positive and finite"),
        (["--stop-tol", "inf"], "tolerance must be positive and finite"),
        (["--grading-exponent", "inf"], "grading_exponent must be finite"),
    ])
    def test_non_finite_solver_control_is_usage_error(self, option, message, capsys):
        code = main(["solve", "--grid-size", "33", *option, "--no-timestamp"])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_zero_max_iters_is_usage_error(self, capsys):
        code = main(["solve", "--grid-size", "65", "--max-iters", "0", "--no-timestamp"])
        assert code == 2
        assert "max_iters must be >= 1" in capsys.readouterr().err

    # one solve path: the removed scheme and damping options are usage errors
    @pytest.mark.parametrize("option", [["--scheme", "direct"], ["--damping", "0.5"]])
    def test_removed_solver_options_are_usage_errors(self, option, tmp_path):
        code = main(["solve", "--n", "1", "--lambda", "0.5", "--grid-size", "65",
                     *option, "--no-timestamp", "--out", str(tmp_path / "d.json")])
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nlambda=1.0\n# comment\n\n")
        out = tmp_path / "out.json"
        code = main(["constants", "--config", str(cfg), "--no-timestamp",
                     "--out", str(out)])
        assert code == 0
        assert load_report(str(out))["params"]["n"] == 3

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nlambda=1.0\n")
        out = tmp_path / "out.json"
        main(["constants", "--config", str(cfg), "--n", "2",
              "--no-timestamp", "--out", str(out)])
        report = load_report(str(out))
        assert report["params"]["n"] == 2
        assert report["params"]["lambda"] == 1.0

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("what is this\n")
        assert main(["constants", "--config", str(cfg)]) == 2

    def test_config_value_takes_the_option_type(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=1e3\n")
        out = tmp_path / "out.json"
        code = main(["scan", "--config", str(cfg), "--no-timestamp",
                     "--out", str(out)])
        assert code == 0
        assert load_report(str(out))["inputs"]["threshold"] == 1000.0

    def test_config_reaches_options_with_parser_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-size=33\n")
        out = tmp_path / "out.json"
        assert main(["solve", "--config", str(cfg), "--no-timestamp",
                     "--out", str(out)]) == 0
        assert len(load_report(str(out))["results"][0]["x"]) == 33

    @pytest.mark.parametrize("command,line", [("constants", "lamda=0.7"),
                                              ("constants", "threshold=1e3"),
                                              ("solve", "grid_size=abc")])
    def test_unknown_key_or_bad_value_is_usage_error(self, tmp_path, capsys,
                                                     command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert "config key" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"

# the README's CLI invocations; the golden files hold their --no-timestamp
# output, so any change to a printed number or key shows up byte for byte.
# After an intended change, regenerate a file with
#   python -m liebeq.cli <arguments> --no-timestamp > tests/golden/<name>.json
README_INVOCATIONS = {
    "constants": ["constants", "--n", "4", "--lambda", "2"],
    "verify_singular": ["verify-solution", "--which", "singular", "--n", "1",
                        "--lambda", "0.5", "--radii", "0.5,1,2,5"],
    "corollary": ["corollary", "--n", "3", "--lambda", "1"],
    "identity_orthogonality": ["identity", "--kind", "orthogonality", "--f", "lieb",
                               "--alpha", "1", "--beta", "0", "--n", "1",
                               "--lambda", "0.5"],
    "identity_composite": ["identity", "--kind", "composite", "--f", "lieb",
                           "--g", "lieb", "--form-lambda", "d1 + d11",
                           "--form-omega", "d1 + d11"],
    "regularity_kernel_growth": ["regularity", "--check", "kernel-growth", "--m", "4",
                                 "--n", "1", "--lambda", "0.5"],
    "scan_singular": ["scan", "--which", "singular", "--n", "1", "--lambda", "0.5"],
    "solve": ["solve", "--a", "-1", "--b", "1", "--lambda", "0.5",
              "--grid-size", "201"],
}

# paths the README invocations miss, with their exit codes: the series
# angular kernel (n = 2 and 3), the r = 0 potential, a
# NotApplicable identity and a potential that diverges at one radius
MORE_INVOCATIONS = {
    "verify_lieb_n2": (["verify-solution", "--which", "lieb", "--n", "2",
                        "--lambda", "1", "--radii", "0.5,1,2"], 0),
    "verify_singular_n3": (["verify-solution", "--which", "singular", "--n", "3",
                            "--lambda", "1.5", "--radii", "0.5,2"], 0),
    "riesz_lieb_r0": (["riesz", "--which", "lieb", "--n", "5", "--lambda", "2.5",
                       "--r", "0,0.5,2"], 0),
    "identity_commutativity_notapplicable": (
        ["identity", "--kind", "commutativity", "--f", "singular", "--g", "lieb",
         "--alpha", "1", "--beta", "1", "--n", "1", "--lambda", "0.5"], 3),
    "riesz_singular_r0": (["riesz", "--which", "singular", "--n", "1",
                           "--lambda", "0.5", "--r", "0,1"], 0),
    # the regularity paths: weighted norms (bounded, unbounded, n = 2 ball),
    # the translation check and a scan with no cluster
    "regularity_norm_lieb": (["regularity", "--check", "norm", "--which", "lieb",
                              "--n", "1", "--lambda", "0.5"], 0),
    "regularity_norm_singular_unbounded": (
        ["regularity", "--check", "norm", "--which", "singular", "--n", "1",
         "--lambda", "0.5", "--domain", "interval:-1,1", "--m", "1"], 0),
    "regularity_norm_lieb_n2": (["regularity", "--check", "norm", "--which", "lieb",
                                 "--n", "2", "--lambda", "1", "--domain", "ball:2,1.5",
                                 "--nu", "0.5"], 0),
    "regularity_translation": (["regularity", "--check", "translation", "--n", "2",
                                "--lambda", "1.3"], 0),
    "scan_lieb": (["scan", "--which", "lieb", "--n", "1", "--lambda", "0.5"], 0),
}
GOLDEN_RUNS = {**{name: (args, 0) for name, args in README_INVOCATIONS.items()},
               **MORE_INVOCATIONS}


def _json_leaves(node, path="$"):
    """(path, value) for every leaf of a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def golden_diff(got: bytes, name: str) -> str:
    """What moved against tests/golden/<name>.json: each JSON path whose value
    differs, with its old value, new value and relative change."""
    try:
        old = dict(_json_leaves(json.loads((GOLDEN / f"{name}.json").read_bytes())))
        new = dict(_json_leaves(json.loads(got)))
    except ValueError as exc:
        return f"{name}: output is not JSON ({exc})"
    lines = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if a == b:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        rel = f"  (relative change {abs(b - a) / abs(a):.3g})" if numbers and a else ""
        lines.append(f"  {path}: {a!r} -> {b!r}{rel}")
    return "\n".join([f"{name} moved from its golden at:"] + lines if lines else
                     [f"{name}: the same values, formatted differently"])


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_readme_invocation_matches_golden_bytes(name, capsys):
    args, expected_code = GOLDEN_RUNS[name]
    code = main(args + ["--no-timestamp"])
    assert code == expected_code
    out = capsys.readouterr().out.encode("utf-8")
    assert out == (GOLDEN / f"{name}.json").read_bytes(), golden_diff(out, name)


@pytest.mark.parametrize("module", ["liebeq", "liebeq.cli"])
def test_module_invocation_writes_golden_bytes(module, fresh_python):
    # a checkout without the console script runs the CLI as a module
    proc = fresh_python("-m", module, "constants", "--n", "4", "--lambda", "2",
                         "--no-timestamp")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "constants.json").read_bytes(), \
        golden_diff(proc.stdout, "constants")


def test_fresh_solve_writes_golden_bytes(fresh_python):
    proc = fresh_python("-m", "liebeq.cli", *README_INVOCATIONS["solve"], "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "solve.json").read_bytes(), \
        golden_diff(proc.stdout, "solve")


_PRINT_SCIPY = "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"


def test_import_loads_no_scipy(fresh_python):
    proc = fresh_python("-c", "import sys, liebeq, liebeq.cli; " + _PRINT_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"
    # nor does the README solve: its accelerated sweeps reach the rounding
    # floor, and only the trust-region finish needs scipy.optimize
    proc = fresh_python("-c", "; ".join([
        "import sys",
        "from liebeq.cli import main",
        f"assert main({README_INVOCATIONS['solve']!r} + ['--no-timestamp']) == 0",
        _PRINT_SCIPY]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"}\n[]\n")


def test_verify_and_identity_load_no_scipy(fresh_python):
    # the Gauss-Jacobi endpoint rules come from numpy, not scipy.special
    proc = fresh_python("-c", "; ".join([
        "import sys",
        "from liebeq import (Params, check_commutativity, lieb_solution, "
        "singular_solution, solution_descriptor, verify_solution)",
        "p = Params(3, 0.15)",
        "assert verify_solution(singular_solution(p), p, [0.5, 2.0]).verdict == 'Verified'",
        "fC = solution_descriptor(singular_solution(p), p, 'singular')",
        "fL = solution_descriptor(lieb_solution(p), p, 'lieb')",
        "assert check_commutativity(fC, fL, 0, 0, p).verdict == 'Verified'",
        _PRINT_SCIPY]))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"[]\n"
