import copy
import json
import os
import random
import re
from fractions import Fraction

import pytest

from humbert.catalog import (
    DATA_DIR,
    catalog_path,
    get_formula,
    load_catalog,
    load_errata,
    save_catalog,
    validate_entry,
    verify_all,
    verify_formula,
)
from humbert.errors import ArgumentError, SignatureError, UnknownFormula
from humbert.expressions import assemble_expression
from humbert.identities import (IDENTITIES, verify_all_identities,
                                verify_operator_identity)
from humbert.profiles import load_config
from humbert.reports import Mismatch, VerificationReport

from conftest import collapse_substitutions, plus_one_mutants


EXPECTED_IDS = tuple(f"2.{k}" for k in range(36, 71))


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


class TestCatalogShape:
    def test_ids_and_cardinality(self, catalog):
        ids = [entry["id"] for entry in catalog]
        assert sorted(ids, key=lambda s: (len(s), s)) == list(EXPECTED_IDS)
        assert len(ids) == len(set(ids)) == 35

    def test_exactly_34_in_sequence_printed_labels(self, catalog):
        in_seq = [e for e in catalog if e["printed_label"] == e["id"]]
        assert len(in_seq) == 34
        (odd,) = [e for e in catalog if e["printed_label"] != e["id"]]
        assert odd["id"] == "2.47"
        assert odd["printed_label"] == "2.4"
        assert odd["notes"]

    def test_symbols_field_matches_structure(self, catalog):
        from humbert.expressions import expression_symbols

        for entry in catalog:
            computed = expression_symbols(entry["lhs"]) | expression_symbols(
                entry["rhs"]
            )
            assert entry["symbols"] == sorted(computed), entry["id"]

    def test_shipped_entries_and_mutants_validate(self, catalog):
        # a sum over ij must take weight xy; no shipped formula or
        # identity, and no "+1" mutant of a sum, is of another shape
        entries = catalog + list(IDENTITIES.values())
        sums = [e for e in entries if e["rhs"]["type"] == "sum"]
        mutants = [m for e in sums for m in plus_one_mutants(e)]
        assert (len(entries), len(sums), len(mutants)) == (70, 33, 220)
        for entry in entries + mutants:
            validate_entry(entry)

    @pytest.mark.parametrize("name", ["decompositions", "identities"])
    def test_json_round_trip_is_byte_identical(self, name, tmp_path):
        shipped = DATA_DIR / f"{name}.json"
        entries = load_catalog(shipped)
        path = tmp_path / "roundtrip.json"
        save_catalog(entries, path)
        again = load_catalog(path)
        assert again == entries
        second = tmp_path / "second.json"
        save_catalog(again, second)
        assert path.read_bytes() == second.read_bytes()
        assert path.read_bytes() == shipped.read_bytes()

    def test_env_var_overrides_path(self, monkeypatch, tmp_path, catalog):
        small = tmp_path / "one.json"
        save_catalog(catalog[:1], small)
        monkeypatch.setenv("HUMBERT_CATALOG", str(small))
        assert catalog_path() == small
        assert len(load_catalog()) == 1

    # open() takes an int, a bool among them, for a file descriptor and
    # closes it: load_catalog(True) would close stdout, load_config(2)
    # stderr, and save_catalog([], 1) would write to stdout and close it
    @pytest.mark.parametrize("path", [True, 1, 2])
    @pytest.mark.parametrize("call", [
        load_catalog, load_errata, load_config,
        lambda path: save_catalog([], path),
    ], ids=["load_catalog", "load_errata", "load_config", "save_catalog"])
    def test_a_descriptor_is_not_a_path(self, call, path):
        with pytest.raises(ArgumentError) as raised:
            call(path)
        assert str(raised.value) == \
            f"path must be a str or os.PathLike, got {path!r}"
        for fd in (0, 1, 2):
            os.fstat(fd)

    def test_get_formula(self, catalog):
        assert get_formula("2.36")["id"] == "2.36"
        with pytest.raises(UnknownFormula):
            get_formula("9.99")


class TestVerification:
    def test_all_pass_profile_a(self, profile_a):
        reports = verify_all(profile_a, degree=6)
        assert len(reports) == 35
        assert all(r.status == "pass" for r in reports), [
            r.target for r in reports if r.status != "pass"
        ]

    def test_same_pass_pattern_profile_b(self, profile_b):
        reports = verify_all(profile_b, degree=6)
        assert len(reports) == 35
        assert all(r.status == "pass" for r in reports)

    def test_degree_invariance_on_samples(self, profile_a):
        for formula_id in ("2.36", "2.47", "2.54", "2.62", "2.70"):
            for degree in (4, 6, 8):
                report = verify_formula(formula_id, profile_a, degree=degree)
                assert report.status == "pass", (formula_id, degree)

    @pytest.mark.parametrize("degree", [-1, 2.0, True, "4"])
    def test_bad_degree_is_an_error_report(self, profile_a, degree):
        # every checking surface reports a degree bound that is not a
        # non-negative int, instead of raising from the triangle code
        detail = f"SignatureError: degree must be a non-negative int, " \
                 f"not {degree!r}"
        reports = [verify_formula("2.36", profile_a, degree),
                   verify_operator_identity("2.1", profile_a, degree),
                   *verify_all(profile_a, degree),
                   *verify_all_identities(profile_a, degree)]
        assert len(reports) == 72
        assert all(r.status == "error" and r.detail == detail
                   for r in reports)
        with pytest.raises(SignatureError, match="non-negative int"):
            assemble_expression(get_formula("2.36")["rhs"], profile_a, degree)

    def test_repeated_reports_share_their_settings(self, profile_a):
        # equal (N, variant) give one settings dict; a degree that is not
        # an int keeps its own, so True, 2.0 and [8] are not filed under
        # the int they equal (or raise as an unhashable key)
        first = verify_formula("2.36", profile_a, 4)
        again = verify_operator_identity("2.1", profile_a, 4)
        assert again.settings is first.settings
        assert first.settings == {"N": 4, "variant": "as-printed"}
        for degree in (True, 2.0, [8]):
            report = verify_formula("2.36", profile_a, degree)
            assert report.status == "error"
            assert report.settings == {"N": degree, "variant": "as-printed"}
            assert type(report.settings["N"]) is type(degree)

    def test_unknown_formula(self, profile_a):
        with pytest.raises(UnknownFormula):
            verify_formula("3.1", profile_a)

    def test_report_json_round_trip(self, profile_a):
        report = verify_formula("2.36", profile_a, degree=4)
        assert json.loads(report.to_json()) == report.to_dict()

    @pytest.mark.parametrize("rhs, detail", [
        ({"type": "sum"}, "sum inner must be an object"),
        ({"type": "ops", "ops": []}, "ops node needs a list ops"),
        ({"type": "function", "kind": "Phi1", "params": 5},
         "a function with a kind needs object params"),
        ({"type": "ops", "operand": {"type": "function", "kind": None},
          "ops": [{"op": ["H"], "axis": "xy", "a": "alpha", "b": "eps"}]},
         "ops step needs op H or Hbar"),
    ])
    def test_malformed_caller_catalog_is_an_error_report(
            self, catalog, profile_a, rhs, detail):
        # a caller-supplied catalog skips load_catalog; the verifier still
        # validates each entry and reports, never raises
        entry = {**get_formula("2.36", catalog), "rhs": rhs}
        report = verify_formula("2.36", profile_a, 4, catalog=[entry])
        assert report.status == "error"
        assert report.detail.startswith(f"SignatureError: {detail}")
        [report] = verify_all(profile_a, 4, catalog=[entry])
        assert report.status == "error"

    @pytest.mark.parametrize("formula_id, side, edit, detail", [
        ("2.39", "lhs", {"prefactor": {"pow_one_minus_y": "beta"}},
         "function prefactor has unknown keys ['pow_one_minus_y']"),
        ("2.36", "lhs", {"transfrom_x": "negate"},
         "function node has unknown keys ['transfrom_x']"),
        ("2.36", "lhs", {"axis": "z"}, "function axis must be 'x' or 'y'"),
        ("2.36", "lhs", {"axis": "x"}, "function axis must be 'x' or 'y'"),
        ("2.37", "rhs", {"sign": None, "sgn": "(-1)^i"},
         "sum node has unknown keys ['sgn']"),
        ("2.36", "lhs", {"transform_x": "invert"},
         "function transform_x must be one of"),
        ("2.39", "rhs", {"transform_y": "moebius_x"},
         "function transform_y must be one of"),
        ("2.36", "lhs", {"axis": "y"}, "function axis must be 'x' or 'y'"),
        ("2.55", "lhs", {"axis": "z"}, "function axis must be 'x' or 'y'"),
        ("2.36", "lhs", {"kind": "Phi9"}, "unknown kind 'Phi9'"),
        ("2.37", "rhs", {"sign": "(-1)^j"}, "sum sign must be one of"),
        ("2.37", "rhs", {"indices": "j"}, "sum indices must be one of"),
        ("2.37", "rhs", {"weight": "yx"}, "sum weight must be one of"),
        ("2.37", "rhs", {"weight": "x"},
         "a sum over ij needs weight 'xy', not 'x'"),
        ("2.37", "rhs", {"weight": "y", "indices": None},
         "a sum over ij needs weight 'xy', not 'y'"),
        ("2.37", "rhs", {"num": [{"param": "alpha - eps", "index": "j+i"}]},
         "sum num index must be one of"),
        ("2.37", "rhs", {"den": [{"param": "gamma + i", "index": "i+j"}]},
         "sum den param must not contain i or j, not 'gamma + i'"),
    ], ids=["prefactor-key", "function-key", "axis-z", "axis-on-bivariate",
            "sum-key", "x-transform-name", "y-transform-name",
            "axis-y-on-bivariate", "axis-z-on-single", "unknown-kind",
            "sum-sign", "sum-indices", "sum-weight", "sum-ij-weight-x",
            "sum-ij-weight-y", "sum-factor-index",
            "sum-factor-param-index"])
    def test_node_outside_its_schema_is_refused(
            self, catalog, profile_a, formula_id, side, edit, detail):
        # each edit states a formula other than the one the node computes;
        # the catalog's validator, the verifier and the assembler called
        # directly all refuse it
        entry = copy.deepcopy(get_formula(formula_id, catalog))
        entry[side].update(edit)
        entry[side] = {k: v for k, v in entry[side].items() if v is not None}
        with pytest.raises(SignatureError, match=re.escape(detail)):
            validate_entry(entry)
        with pytest.raises(SignatureError, match=re.escape(detail)):
            assemble_expression(entry[side], profile_a, 4)
        report = verify_formula(formula_id, profile_a, 4, catalog=[entry])
        assert report.status == "error"
        assert report.detail.startswith(f"SignatureError: {detail}")


class TestCollapseSuite:
    def test_at_least_twenty_full_collapses(self, catalog, profile_a):
        checked = []
        for entry in catalog:
            derived = collapse_substitutions(entry, profile_a)
            if derived is None:
                continue
            collapsed_params, _ = derived
            lhs = assemble_expression(entry["lhs"], collapsed_params, 8)
            rhs = assemble_expression(entry["rhs"], collapsed_params, 8)
            assert lhs == rhs, f"{entry['id']}: collapse left a residue"
            # the sum truly degenerates: its (0, 0) term, the inner
            # function at i = j = 0, already equals it
            leading = assemble_expression(
                {"type": "function", **entry["rhs"]["inner"]},
                {**collapsed_params, "i": 0, "j": 0}, 8)
            assert leading == rhs, f"{entry['id']}: tail terms survived"
            checked.append(entry["id"])
        assert len(checked) >= 20, checked

    def test_collapse_detects_known_families(self, catalog, profile_a):
        ids = {
            entry["id"]
            for entry in catalog
            if collapse_substitutions(entry, profile_a) is not None
        }
        # one representative per degeneration family
        for formula_id in ("2.36", "2.41", "2.44", "2.38", "2.62", "2.66",
                           "2.68", "2.56"):
            assert formula_id in ids


class TestMutationSensitivity:
    def _mutate(self, entry, rng):
        """Perturb one structural parameter expression by +1."""
        entry = copy.deepcopy(entry)
        rhs = entry["rhs"]
        spots = []
        for factor in rhs.get("num", []):
            spots.append(("num", factor))
        for factor in rhs.get("den", []):
            spots.append(("den", factor))
        inner = rhs["inner"]
        for slot in inner["params"]:
            spots.append(("inner", slot))
        where, spot = spots[rng.randrange(len(spots))]
        if where == "inner":
            inner["params"][spot] = f"{inner['params'][spot]} + 1"
        else:
            spot["param"] = f"{spot['param']} + 1"
        return entry, where

    def test_ten_random_mutations_detected_early(self, catalog, profile_a):
        rng = random.Random(20260819)
        sum_entries = [e for e in catalog if e["rhs"].get("type") == "sum"]
        detected = 0
        attempts = 0
        while detected < 10 and attempts < 40:
            attempts += 1
            entry = sum_entries[rng.randrange(len(sum_entries))]
            mutated, _ = self._mutate(entry, rng)
            report = verify_formula(
                mutated["id"], profile_a, degree=8, catalog=[mutated]
            )
            assert report.status in ("fail", "error"), mutated["id"]
            if report.status == "fail":
                m, n = report.mismatch["m"], report.mismatch["n"]
                assert m + n <= 3, (mutated["id"], report.mismatch)
                detected += 1
        assert detected == 10


class TestErrataOverlay:
    def test_side_by_side_reports(self, catalog, profile_a, tmp_path):
        # corrupt one stored entry, overlay the true version: the sweep must
        # show the as-printed failure and the corrected pass side by side
        corrupted = copy.deepcopy(catalog)
        target = next(e for e in corrupted if e["id"] == "2.36")
        correct = copy.deepcopy(target)
        target["rhs"]["num"][0]["param"] += " + 1"
        errata = {"2.36": correct}
        reports = verify_all(
            profile_a, degree=5, catalog=corrupted, errata=errata
        )
        assert len(reports) == 36
        by_variant = {
            r.settings["variant"]: r for r in reports if r.target == "2.36"
        }
        assert by_variant["as-printed"].status == "fail"
        assert by_variant["as-printed"].mismatch is not None
        assert by_variant["errata"].status == "pass"

    def test_shipped_errata_is_empty(self):
        assert load_errata() == {}

    def test_load_errata_from_path(self, tmp_path):
        path = tmp_path / "errata.json"
        entry = {
            "id": "2.36",
            "printed_label": "2.36",
            "lhs": {"type": "function", "kind": "Phi2",
                    "params": {"beta1": "beta1", "beta2": "beta2",
                               "gamma": "gamma"}},
            "rhs": {"type": "function", "kind": "Phi2",
                    "params": {"beta1": "beta1", "beta2": "beta2",
                               "gamma": "gamma"}},
            "symbols": ["beta1", "beta2", "gamma"],
            "notes": "",
        }
        path.write_text(json.dumps([entry]))
        assert "2.36" in load_errata(path)


class TestReportRecords:
    @pytest.mark.parametrize("mode, status, message", [
        ("symbolic", "pass", "unknown mode 'symbolic'"),
        ("exact", "skipped", "unknown status 'skipped'"),
        ("exact", "fail", "a fail report must carry a witness"),
    ])
    def test_malformed_report_is_refused(self, mode, status, message):
        with pytest.raises(ValueError) as raised:
            VerificationReport(target="2.36", mode=mode, status=status)
        assert str(raised.value) == message

    def test_reports_without_settings_do_not_share_a_dict(self):
        first = VerificationReport("2.36", "exact", "pass")
        second = VerificationReport(target="2.36", mode="exact",
                                    status="pass")
        assert first == second and first.settings == {}
        first.settings["variant"] = "a"
        assert second.settings == {} and first != second
        assert repr(second) == (
            "VerificationReport(target='2.36', mode='exact', status='pass', "
            "settings={}, duration=0.0, mismatch=None, numeric=None, "
            "detail=None)")
        with pytest.raises(TypeError):
            hash(second)

    def test_exact_witness_is_a_keyed_tuple(self, catalog, profile_a):
        # a fail keeps its witness as a Mismatch, read by key as the dict
        # it stands for and shared by the reports that find it again, and
        # its JSON is the dict form's, byte for byte
        entry = copy.deepcopy(catalog[0])
        entry["rhs"]["num"][0]["param"] += " + 1"
        report = verify_formula(entry["id"], profile_a, 8, catalog=[entry])
        again = verify_formula(entry["id"], profile_a, 8, catalog=[entry])
        witness = report.mismatch
        assert again.mismatch is witness
        assert type(witness) is Mismatch and report.status == "fail"
        assert list(witness.keys()) == ["m", "n", "lhs", "rhs", "diff"]
        assert witness["m"] + witness["n"] == 1 and witness.get("x") is None
        with pytest.raises(KeyError):
            witness["x"]
        as_dict = VerificationReport(
            report.target, report.mode, report.status, report.settings,
            report.duration, dict(witness), report.numeric, report.detail)
        assert as_dict.to_json() == report.to_json()
        assert as_dict.to_dict() == report.to_dict()
