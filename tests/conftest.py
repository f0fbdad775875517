import copy
from fractions import Fraction

import pytest

from humbert.profiles import load_config, profile_params


@pytest.fixture(scope="session")
def config():
    return load_config()


@pytest.fixture(scope="session")
def profile_a(config):
    return profile_params("generic-A", config)


@pytest.fixture(scope="session")
def profile_b(config):
    return profile_params("generic-B", config)


def collapse_substitutions(entry, params):
    """Derive the parameter substitution that collapses an expansion to its
    leading term, if the entry's numerator structure admits one.

    A numerator factor whose parameter is a pure difference of two symbols
    vanishes for every index >= 1 once the two symbols are set equal.  The
    collapse is complete when the vanishing factors jointly cover every
    outer index pair except (0, 0): one factor indexed by i+j suffices, or a
    pair of factors indexed by i and by j.  Returns (substituted params,
    n_factors) or None when no full collapse exists.
    """
    from humbert.expressions import parse_affine, expression_symbols

    rhs = entry["rhs"]
    if rhs.get("type") != "sum":
        return None
    lhs_symbols = set(expression_symbols(entry["lhs"]))
    new_params = dict(params)
    covered = set()
    n_factors = 0
    for factor in rhs.get("num", []):
        const, terms = parse_affine(factor["param"])
        if const != 0 or len(terms) != 2:
            continue
        coeffs = dict(terms)
        plus = [s for s, c in coeffs.items() if c == 1]
        minus = [s for s, c in coeffs.items() if c == -1]
        if len(plus) != 1 or len(minus) != 1:
            continue
        movable = [s for s in (plus[0], minus[0]) if s not in lhs_symbols]
        if not movable:
            continue
        move = movable[0]
        other = minus[0] if move == plus[0] else plus[0]
        new_params[move] = new_params[other]
        covered.add(factor["index"])
        n_factors += 1
    if "i+j" in covered or {"i", "j"} <= covered:
        return new_params, n_factors
    if rhs.get("indices") == "i" and "i" in covered:
        return new_params, n_factors
    return None


def plus_one_mutants(entry):
    """Every one-slot "+1" edit of a sum-type rhs, the benchmark's mutant
    family: an outer num or den factor's param, or an inner slot."""
    rhs = entry["rhs"]
    for key in ("num", "den"):
        for k in range(len(rhs.get(key, []))):
            mutant = copy.deepcopy(entry)
            mutant["rhs"][key][k]["param"] += " + 1"
            yield mutant
    for slot in rhs["inner"]["params"]:
        mutant = copy.deepcopy(entry)
        mutant["rhs"]["inner"]["params"][slot] += " + 1"
        yield mutant
