import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import humbert
from humbert.catalog import DATA_DIR, load_catalog, save_catalog
from humbert.cli import main
from humbert.profiles import load_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines() if line]


class TestEval:
    def test_known_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "phi1", "--alpha", "1", "--beta", "1",
            "--gamma", "2", "--x", "0.5", "--y", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 1.3862943611198906) < 1e-11
        assert set(payload) == {"value", "diagonals", "est_error"}

    def test_near_the_edge_of_the_x_disk(self, capsys):
        # |x| = 0.93 is summed by rows, within the default budget
        code, out, _ = run(
            capsys, "eval", "psi1", "--alpha", "1/2", "--beta", "1/3",
            "--gamma1", "5/4", "--gamma2", "7/6", "--x", "0.93", "--y", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"value", "diagonals", "est_error"}
        assert payload["est_error"] <= 1e-12 * abs(payload["value"])

    def test_trivial_origin(self, capsys):
        code, out, _ = run(
            capsys, "eval", "phi3", "--beta", "1", "--gamma", "2",
            "--x", "0", "--y", "0",
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_rational_flags(self, capsys):
        code, out, _ = run(
            capsys, "eval", "phi2", "--beta1", "2/7", "--beta2", "3/8",
            "--gamma", "5/4", "--x", "1/10", "--y", "1/5",
        )
        assert code == 0
        assert json.loads(out)["value"] > 1.0

    def test_single_kind(self, capsys):
        code, out, _ = run(
            capsys, "eval", "kummer1f1", "--alpha", "1", "--gamma", "1",
            "--x", "0.3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(1.3498588075760032, rel=1e-11)
        assert "terms" in payload

    def test_term_budget_refusal_exit_2(self, capsys):
        code, out, err = run(
            capsys, "eval", "gauss2f1", "--alpha", "1/2", "--beta", "1/3",
            "--gamma", "5/4", "--x", "0.99",
        )
        assert (code, out) == (2, "")
        assert ("NoConvergence: Gauss2F1 at 0.99: no convergence within 500 "
                "terms; the tail bound needs 2139 terms") in err

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run(
            capsys, "eval", "phi1", "--alpha", "1", "--beta", "1",
            "--gamma", "2", "--x", "1.5", "--y", "0",
        )
        assert code == 2
        assert out == ""
        assert "DomainError" in err

    def test_unknown_kind_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "nosuch", "--x", "0")
        assert code == 2
        assert "unknown kind" in err

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "phi1", "--x", "0.1")
        assert code == 2
        assert "SignatureError" in err


class TestVerify:
    def test_formula_pass(self, capsys):
        code, out, err = run(
            capsys, "verify", "formula", "2.36",
            "--profile", "generic-A", "--n", "8",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["target"] == "2.36"
        assert report["status"] == "pass"
        assert report["settings"]["N"] == 8
        assert "1 pass" in err

    def test_identity_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "identity", "2.19", "--n", "6")
        assert code == 0
        (report,) = json_lines(out)
        assert report["status"] == "pass"

    def test_unknown_formula_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "formula", "9.99")
        assert code == 2
        assert "UnknownFormula" in err

    def test_missing_id_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "formula")
        assert code == 2
        assert "id is required" in err

    def test_unknown_profile_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "formula", "2.36", "--profile", "nope"
        )
        assert code == 2
        assert "unknown profile" in err

    def test_verify_all_emits_all_reports_sorted(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--n", "5")
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 70
        targets = [r["target"] for r in reports]
        assert targets == sorted(targets, key=lambda s: (len(s), s))
        assert {r["status"] for r in reports} == {"pass"}
        assert "70 reports" in err

    def test_deterministic_modulo_duration(self, capsys):
        _, first, _ = run(capsys, "verify", "formula", "2.40", "--n", "5")
        _, second, _ = run(capsys, "verify", "formula", "2.40", "--n", "5")

        def strip(text):
            return [
                {k: v for k, v in json.loads(line).items() if k != "duration"}
                for line in text.strip().splitlines()
            ]

        assert strip(first) == strip(second)

    def test_env_var_catalog_override(self, capsys, monkeypatch, tmp_path):
        catalog = load_catalog()
        small = tmp_path / "partial.json"
        save_catalog(catalog[:2], small)
        monkeypatch.setenv("HUMBERT_CATALOG", str(small))
        code, out, _ = run(capsys, "verify", "all", "--n", "4")
        assert code == 0
        reports = json_lines(out)
        # 2 formula reports + 35 identity reports
        assert len(reports) == 37

    def test_failing_formula_exit_1_with_its_witness(self, capsys,
                                                     monkeypatch, tmp_path):
        # 2.36 with its first outer factor (eps - alpha)_{i+j} moved by one
        entry = json.loads(json.dumps(load_catalog()[0]))
        assert entry["id"] == "2.36"
        entry["rhs"]["num"][0]["param"] = "eps - alpha + 1"
        path = tmp_path / "mutant.json"
        save_catalog([entry], path)
        monkeypatch.setenv("HUMBERT_CATALOG", str(path))
        code, out, err = run(capsys, "verify", "formula", "2.36", "--n", "8")
        assert code == 1
        (report,) = json_lines(out)
        assert report["status"] == "fail"
        assert report["mismatch"] == {"m": 0, "n": 1, "lhs": "2/5",
                                      "rhs": "-2/5", "diff": "4/5"}
        assert err == "1 reports: 0 pass, 1 fail, 0 error\n"

    def test_identities_load_as_a_formula_catalog(self, capsys, monkeypatch):
        # one schema: the identity file is a valid HUMBERT_CATALOG
        monkeypatch.setenv("HUMBERT_CATALOG", str(DATA_DIR / "identities.json"))
        code, out, _ = run(capsys, "verify", "all", "--n", "4")
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 70
        assert {r["status"] for r in reports} == {"pass"}


class TestIntegralCheck:
    def test_single_rep_with_grid_and_tol(self, capsys):
        code, out, _ = run(
            capsys, "integral-check", "4.1", "--grid", "3x3",
            "--tol", "1e-8",
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["status"] == "pass"
        assert len(report["settings"]["grid"]) == 9
        assert report["numeric"]["tolerance"] == 1e-8

    def test_unknown_rep_exit_2(self, capsys):
        code, _, err = run(capsys, "integral-check", "4.99")
        assert code == 2
        assert "UnknownFormula: unknown representation id '4.99'" in err

    def test_bad_grid_exit_2(self, capsys):
        code, _, err = run(capsys, "integral-check", "4.1", "--grid", "x")
        assert code == 2
        assert "grid" in err

    def test_constraint_violating_profile_exit_2(self, capsys, tmp_path):
        import json as _json

        from humbert.profiles import DATA_PATH

        config = _json.loads(DATA_PATH.read_text())
        config["profiles"]["generic-A"]["eps"] = "1/100"  # below alpha
        config["overrides"] = {}  # keep the sabotaged value in force
        bad = tmp_path / "config.json"
        bad.write_text(_json.dumps(config))
        code, _, err = run(
            capsys, "integral-check", "4.8", "--config", str(bad)
        )
        assert code == 2
        assert "ConstraintViolation: 4.8: requires eps - alpha > 0" in err

    def test_kernel_norm_past_float_range_exit_0(self, capsys, tmp_path):
        # Gamma(1200) / Gamma(600)^2 overflows a float; the check still runs
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"profiles": {"generic-A": {
            "alpha": "600", "beta": "1/3", "gamma": "1200"}}}))
        code, out, _ = run(
            capsys, "integral-check", "4.1", "--config", str(config)
        )
        assert code == 0
        (report,) = json_lines(out)
        assert report["status"] == "pass"

    def test_all_reports_failures_exit_1(self, capsys):
        code, out, err = run(capsys, "integral-check", "all")
        assert code == 1
        reports = json_lines(out)
        assert len(reports) == 20
        statuses = {r["target"]: r["status"] for r in reports}
        failing = {t for t, s in statuses.items() if s == "fail"}
        assert failing == {"4.14", "4.15"}
        for report in reports:
            if report["status"] == "fail":
                assert report["numeric"]["worst_point"] is not None
        assert "18 pass, 2 fail" in err


PHI1 = ("eval", "phi1", "--alpha", "1", "--beta", "1", "--gamma", "2")


# argv and environment templates; "{name}" stands for the path of the file
# written from BAD_FILES[name]
BAD_INPUTS = [
    (("verify", "formula", "2.36", "--n", "-1"), {}, "HumbertError"),
    (PHI1 + ("--x", "0.3", "--tol", "0"), {}, "HumbertError"),
    (PHI1 + ("--x", "0.3", "--tol", "nan"), {}, "HumbertError"),
    (PHI1 + ("--x", "0.3", "--tol", "inf"), {}, "HumbertError"),
    (PHI1 + ("--x", "abc"), {}, "SignatureError"),
    (PHI1 + ("--x", "0.3", "--y", "abc"), {}, "SignatureError"),
    (("eval", "phi1", "--alpha", "1/0", "--beta", "1",
      "--gamma", "2", "--x", "0.1"), {}, "SignatureError"),
    (("verify", "all", "--config", "{missing}"), {}, "FileNotFoundError"),
    (("verify", "formula", "2.36", "--config", "{notjson}"), {},
     "SignatureError"),
    (("verify", "formula", "2.36", "--config", "{scalar}"), {},
     "SignatureError"),
    (("integral-check", "4.1", "--config", "{missing}"), {},
     "FileNotFoundError"),
    (("integral-check", "4.1", "--tol", "nan"), {}, "HumbertError"),
    (("integral-check", "4.1", "--tol", "-1"), {}, "HumbertError"),
    (("verify", "formula", "2.36", "--config", "{profile_scalar}"), {},
     "SignatureError"),
    (("integral-check", "4.1", "--config", "{overrides_scalar}"), {},
     "SignatureError"),
    (("integral-check", "4.1", "--config", "{override_scalar}"), {},
     "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{notjson}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{scalar}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{non_object}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{missing_fields}"},
     "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{bad_symbols}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{duplicate}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{lhs_scalar}"}, "SignatureError"),
    (("verify", "all", "--config", "{errata_int}"), {}, "SignatureError"),
    (("verify", "all", "--config", "{errata_zero}"), {}, "SignatureError"),
    (("integral-check", "4.1", "--config", "{alpha_only}"), {},
     "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{sum_no_inner}"},
     "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{params_scalar}"},
     "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{ops_tag}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{ops_axis}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{ops_number}"}, "SignatureError"),
    (("verify", "all"), {"HUMBERT_CATALOG": "{ops_no_operand}"},
     "SignatureError"),
    (PHI1 + ("--x", "1e400"), {}, "DomainError"),
    (("eval", "phi1", "--x", "0.5", "--y", "0.1", "--alpha", "1e400",
      "--beta", "1/3", "--gamma", "5/4"), {}, "DomainError"),
] + [(("verify", "all"), {"HUMBERT_CATALOG": f"{{{name}}}"}, "SignatureError")
     for name in ("prefactor_key", "function_key", "axis_z", "axis_bivariate",
                  "sum_key", "inner_key", "factor_key", "ops_key", "step_key",
                  "transform_name", "factor_index_symbol")] + [
    # a cancelling single series is refused, not printed
    (("eval", "kummer1f1", "--alpha", "1/2", "--gamma", "5/4", "--x", "-50"),
     {}, "NoConvergence"),
    (("integral-check", "4.1", "--tol", "0"), {}, "HumbertError"),
    (("integral-check", "4.1", "--tol", "inf"), {}, "HumbertError"),
    (("eval", "kummer1f1", "--alpha", "1/2", "--gamma", "5/4", "--x", "0.5",
      "--y", "0.5"), {}, "HumbertError"),
    (("integral-check", "4.1", "--grid", "0x3"), {}, "HumbertError"),
    (("verify", "formula", "2.36", "--config", "{profile_symbol}"), {},
     "SignatureError"),
    (("integral-check", "4.1", "--config", "{override_symbol}"), {},
     "SignatureError"),
]

# inputs every report of a run refuses: exit 2, error reports on stdout
BAD_REPORTS = [
    (("verify", "all", "--n", "4", "--config", "{alpha_float}"),
     "SignatureError: parameter 'alpha' = 0.5 is not an exact rational"),
    (("integral-check", "4.1", "--config", "{alpha_huge}"),
     "DomainError: parameter alpha is beyond double range"),
]

_ENTRY = load_catalog()[0]
_PROFILE = {"alpha": "1/2"}
_OP = {"op": "H", "axis": "xy", "a": "alpha", "b": "eps"}
_GENERIC_A = load_config()["profiles"]["generic-A"]


def _ops_entry(step):
    return json.dumps([{**_ENTRY, "lhs": {
        "type": "ops", "ops": [step], "operand": _ENTRY["lhs"]}}])


def _edited(side, **keys):
    """The first catalog entry with keys added to (or replaced in) one side."""
    return json.dumps([{**_ENTRY, side: {**_ENTRY[side], **keys}}])


BAD_FILES = {
    "notjson": "{not json",
    "scalar": "5",
    "profile_scalar": json.dumps({"profiles": {"generic-A": 5}}),
    "overrides_scalar": json.dumps(
        {"profiles": {"generic-A": _PROFILE}, "overrides": 3}),
    "override_scalar": json.dumps(
        {"profiles": {"generic-A": _PROFILE}, "overrides": {"4.1": 7}}),
    "non_object": "[5]",
    "missing_fields": json.dumps([{"id": "2.36"}]),
    "bad_symbols": json.dumps([{**_ENTRY, "symbols": ["alpha"]}]),
    "duplicate": json.dumps([_ENTRY, _ENTRY]),
    "lhs_scalar": json.dumps([{**_ENTRY, "lhs": 5}]),
    "errata_int": json.dumps({"profiles": {"generic-A": _PROFILE},
                              "errata": 5}),
    "errata_zero": json.dumps({"profiles": {"generic-A": _PROFILE},
                               "errata": 0}),
    "alpha_only": json.dumps({"profiles": {"generic-A": _PROFILE}}),
    "sum_no_inner": json.dumps([{**_ENTRY, "lhs": {"type": "sum"}}]),
    "params_scalar": json.dumps(
        [{**_ENTRY, "lhs": {"type": "function", "params": 5}}]),
    "ops_tag": _ops_entry({**_OP, "op": "G"}),
    "ops_axis": _ops_entry({**_OP, "axis": "z"}),
    "ops_number": _ops_entry({**_OP, "a": 1}),
    "ops_no_operand": json.dumps(
        [{**_ENTRY, "lhs": {"type": "ops", "ops": [_OP]}}]),
    "prefactor_key": _edited("lhs", prefactor={"pow_one_minus_y": "beta"}),
    "function_key": _edited("lhs", transfrom_x="negate"),
    "axis_z": _edited("lhs", axis="z"),
    "axis_bivariate": _edited("lhs", axis="y"),
    "sum_key": _edited("rhs", sgn="(-1)^i"),
    "inner_key": _edited(
        "rhs", inner={**_ENTRY["rhs"]["inner"], "transfrom_y": "negate"}),
    "factor_key": _edited(
        "rhs", num=[{**f, "power": 2} for f in _ENTRY["rhs"]["num"]]),
    "factor_index_symbol": _edited(
        "rhs", den=[{"param": "gamma + i + j", "index": "i+j"}]),
    "ops_key": json.dumps([{**_ENTRY, "lhs": {
        "type": "ops", "ops": [], "operand": _ENTRY["lhs"], "note": ""}}]),
    "step_key": _ops_entry({**_OP, "repeat": 2}),
    "transform_name": _edited("lhs", transform_x="invert"),
    "alpha_float": json.dumps(
        {"profiles": {"generic-A": {**_GENERIC_A, "alpha": 0.5}}}),
    "alpha_huge": json.dumps(
        {"profiles": {"generic-A": {**_GENERIC_A, "alpha": "1e400"}}}),
    "profile_symbol": json.dumps(
        {"profiles": {"generic-A": {**_GENERIC_A, "zeta": "1/2"}}}),
    "override_symbol": json.dumps(
        {"profiles": {"generic-A": _GENERIC_A},
         "overrides": {"4.1": {"zeta": "1/2"}}}),
}


def _write_bad_files(tmp_path) -> dict:
    paths = {"missing": tmp_path / "absent.json"}
    for name, content in BAD_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(content)
    return paths


class TestBadInputs:
    # the ids keep the "argv<i>-<error>" form of the rows without an env
    @pytest.mark.parametrize(
        "argv, env, error", BAD_INPUTS,
        ids=[f"argv{i}-{error}" for i, (_, _, error) in enumerate(BAD_INPUTS)],
    )
    def test_exit_2_with_package_error(self, capsys, monkeypatch, tmp_path,
                                       argv, env, error):
        paths = _write_bad_files(tmp_path)
        for var, value in env.items():
            monkeypatch.setenv(var, value.format(**paths))
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"{error}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, detail", BAD_REPORTS,
                             ids=["float-parameter", "beyond-double-range"])
    def test_exit_2_with_error_reports(self, capsys, tmp_path, argv, detail):
        paths = _write_bad_files(tmp_path)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        reports = json_lines(out)
        assert reports and all(r["status"] == "error" and r["detail"] == detail
                               for r in reports)
        assert "Traceback" not in err


# Run in a fresh interpreter: the exact layer's imports and calls, then the
# package's names, resolved only once the numeric layer is seen to be absent.
EXACT_ONLY = """
import sys
import humbert
from humbert import cli

config = humbert.load_config()
humbert.load_catalog()
params = humbert.profile_params("generic-A", config)
humbert.verify_all(params, 2)
humbert.verify_all_identities(params, 2)
assert cli.main(["verify", "all", "--n", "2"]) == 0
loaded = {"numpy", "humbert.quadrature", "humbert.rows", "humbert.summation",
          "dataclasses"} & set(sys.modules)
assert not loaded, loaded

for name in humbert.__all__:
    getattr(humbert, name)
assert humbert.cross_check is humbert.quadrature.cross_check
try:
    humbert.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("humbert.no_such_name resolved")
"""


def test_exact_layer_loads_no_numeric_layer():
    src = str(Path(humbert.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", EXACT_ONLY],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
