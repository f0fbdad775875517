from fractions import Fraction

import pytest

from humbert import expressions, identities
from humbert.errors import PoleError, SignatureError, UnknownIdentity
from humbert.expressions import expression_symbols
from humbert.identities import (
    IDENTITIES,
    check_phi1_reconstruction,
    check_phi1_shift,
    verify_all_identities,
    verify_operator_identity,
)
from humbert.operators import apply_H
from humbert.scalars import SYMBOLS


EXPECTED_IDS = tuple(f"2.{k}" for k in range(1, 36))


class TestRegistryShape:
    """IDENTITIES maps each id to a catalog entry whose rhs is an ops node:
    lhs == ops(operand)."""

    def test_exactly_the_expected_ids(self):
        assert tuple(IDENTITIES) == EXPECTED_IDS

    def test_every_entry_well_formed(self):
        for identity_id, entry in IDENTITIES.items():
            assert set(entry) == {"id", "printed_label", "lhs", "rhs",
                                  "symbols", "notes"}
            assert entry["id"] == entry["printed_label"] == identity_id
            assert entry["notes"]
            assert entry["lhs"]["type"] == "function"
            rhs = entry["rhs"]
            assert set(rhs) == {"type", "ops", "operand"}
            assert rhs["type"] == "ops"
            assert rhs["operand"]["type"] == "function"
            assert rhs["ops"], "every identity applies at least one operator"
            for op in rhs["ops"]:
                assert set(op) == {"op", "axis", "a", "b"}
                assert op["op"] in ("H", "Hbar")
                assert op["axis"] in ("xy", "x", "y")
                assert op["a"] in SYMBOLS and op["b"] in SYMBOLS

    def test_identity_symbols_known(self):
        for entry in IDENTITIES.values():
            symbols = (expression_symbols(entry["lhs"])
                       | expression_symbols(entry["rhs"]))
            assert symbols and symbols <= set(SYMBOLS)
            assert entry["symbols"] == sorted(symbols)


class TestVerification:
    @pytest.mark.parametrize("identity_id", EXPECTED_IDS)
    def test_passes_on_profile_a(self, identity_id, profile_a):
        report = verify_operator_identity(identity_id, profile_a, degree=6)
        assert report.status == "pass", report.to_json()
        assert report.mode == "exact"
        assert report.settings["N"] == 6

    def test_all_pass_on_profile_b(self, profile_b):
        reports = verify_all_identities(profile_b, degree=6)
        assert len(reports) == 35
        assert all(r.status == "pass" for r in reports)

    def test_reports_sorted_and_distinct(self, profile_a):
        reports = verify_all_identities(profile_a, degree=4)
        targets = [r.target for r in reports]
        assert targets == sorted(
            targets, key=lambda s: tuple(int(p) for p in s.split(".")))
        assert len(set(targets)) == 35

    def test_unknown_identity(self, profile_a):
        with pytest.raises(UnknownIdentity):
            verify_operator_identity("2.99", profile_a)

    def test_ops_steps_read_the_module_operators(self, profile_a, monkeypatch):
        # a wrapper set on the module, as a tracer sets one, sees the steps
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return apply_H(*args, **kwargs)

        monkeypatch.setattr(expressions, "apply_H", counting)
        report = verify_operator_identity("2.1", profile_a, degree=4)
        assert report.status == "pass", report.to_json()
        assert len(calls) > 0


class TestShiftMechanics:
    @pytest.mark.parametrize("total", range(5))
    def test_lowering_shift_all_orders(self, total, profile_a):
        for i in range(total + 1):
            j = total - i
            assert check_phi1_shift(profile_a, 8, i, j) is None

    def test_lowering_shift_profile_b(self, profile_b):
        for i, j in [(1, 0), (0, 1), (2, 1), (2, 2)]:
            assert check_phi1_shift(profile_b, 8, i, j) is None

    def test_reconstruction(self, profile_a, profile_b):
        assert check_phi1_reconstruction(profile_a, 8) is None
        assert check_phi1_reconstruction(profile_b, 8) is None

    # a planted bug, the y-axis lowering action skipped, must come back as
    # a witness: the first differing cell and its two rationals
    @pytest.mark.parametrize("check, args", [
        (check_phi1_shift, (1, 1)),
        (check_phi1_reconstruction, ()),
    ])
    def test_a_mismatch_returns_its_witness(self, check, args, profile_a,
                                            monkeypatch):
        act = identities.delta_pochhammer_action
        monkeypatch.setattr(identities, "delta_pochhammer_action",
                            lambda s, which, k: s if which == "y"
                            else act(s, which, k))
        witness = check(profile_a, 6, *args)
        assert witness is not None
        m, n, a, b = witness
        assert type(m) is int and type(n) is int and m + n <= 6
        assert type(a) is str and type(b) is str
        assert Fraction(a) != Fraction(b)

    def test_reconstruction_weight_pole_is_a_pole_error(self, profile_a):
        # (eps)_{i+j} vanishes from i + j = 2 on, while (eps - alpha)_{i+j}
        # does not: the first such weight in row order is refused
        with pytest.raises(PoleError) as raised:
            check_phi1_reconstruction({**profile_a, "eps": -1}, 4)
        assert str(raised.value) == \
            "denominator Pochhammer vanishes at (i, j) = (0, 2)"

    @pytest.mark.parametrize("check, args", [
        (check_phi1_shift, (1, 1)),
        (check_phi1_reconstruction, ()),
    ])
    @pytest.mark.parametrize("drop, degree, text", [
        ("eps", 4, "symbol 'eps' unbound in 'eps'"),
        ("gamma", 4, "symbol 'gamma' unbound in 'gamma'"),
        (None, 2.0, "degree must be a non-negative int, not 2.0"),
        (None, -1, "degree must be a non-negative int, not -1"),
        (None, True, "degree must be a non-negative int, not True"),
    ])
    def test_bad_arguments_are_signature_errors(self, check, args, drop,
                                                degree, text, profile_a):
        params = {k: v for k, v in profile_a.items() if k != drop}
        with pytest.raises(SignatureError) as raised:
            check(params, degree, *args)
        assert str(raised.value) == text

    @pytest.mark.parametrize("i, j, text", [
        (-1, 0, "i must be a non-negative int, not -1"),
        (1.0, 0, "i must be a non-negative int, not 1.0"),
        (True, 0, "i must be a non-negative int, not True"),
        (0, -1, "j must be a non-negative int, not -1"),
        (1, 1.0, "j must be a non-negative int, not 1.0"),
        (1, True, "j must be a non-negative int, not True"),
    ])
    def test_bad_lowering_orders_are_signature_errors(self, i, j, text,
                                                      profile_a):
        with pytest.raises(SignatureError) as raised:
            check_phi1_shift(profile_a, 4, i, j)
        assert str(raised.value) == text
