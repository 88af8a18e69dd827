"""Exact-arithmetic layer: exponent-difference reduction, and the
unit-fraction predicates that the stratum tests use as oracles."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conditional_unit_fraction, is_in_two_over_n, is_reduced, is_unit_fraction
from schwarz_atlas.exact import (
    ExponentTriple,
    ReductionWitness,
    exponent_differences,
    format_rational,
    k_from_p,
    parse_rational,
    reduce_parameters,
)


def test_unit_fraction_basics():
    assert is_unit_fraction(F(1, 3))
    assert not is_unit_fraction(F(2, 3))
    assert not is_unit_fraction(F(0))
    assert is_unit_fraction(F(1))
    assert not is_unit_fraction(F(-1, 4))


def test_unit_fraction_random_range():
    for n in range(1, 2000):
        assert is_unit_fraction(F(1, n))
        assert not is_unit_fraction(F(1, n) + 1 if n == 1 else F(n + 1, n))
    # a sparse sweep further out
    for n in (10**3, 10**4 + 7, 10**6):
        assert is_unit_fraction(F(1, n))


def test_conditional_unit_fraction():
    assert conditional_unit_fraction(F(-1, 12))
    assert conditional_unit_fraction(F(0))      # vacuous at the boundary
    assert not conditional_unit_fraction(F(5, 8))
    assert conditional_unit_fraction(F(1, 8))


def test_two_over_n():
    assert is_in_two_over_n(F(1, 5))   # 2/10
    assert is_in_two_over_n(F(2, 7))
    assert is_in_two_over_n(F(2))      # 2/1
    assert not is_in_two_over_n(F(3, 7))
    assert not is_in_two_over_n(F(0))


def test_k_from_p_values():
    assert k_from_p(3) == F(1, 6)
    assert k_from_p(4) == F(1, 4)
    assert k_from_p(10) == F(2, 5)
    with pytest.raises(ValueError):
        k_from_p(2)
    with pytest.raises(ValueError):
        k_from_p("4")


def test_k_from_p_round_trip():
    for p in range(3, 500):
        k = k_from_p(p)
        assert (1 - 2 * k) / 2 == F(1, p)
        # denominators like 2p never overflow
        assert k.denominator <= 2 * p


def test_exact_addition_two_ways():
    a, b = F(3517, 9041), F(-221, 7919)
    assert a + b == F(3517 * 7919 + (-221) * 9041, 9041 * 7919)


def test_rational_serialization():
    assert format_rational(F(-3, 7)) == "-3/7"
    assert format_rational(F(4, 2)) == "2"
    assert parse_rational("-3/7") == F(-3, 7)
    assert parse_rational(" 5 ") == F(5)
    for bad in ("1/0", "x", "0.5", "1e-3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_exponent_differences_forward():
    d = exponent_differences(F(1, 84), F(13, 84), F(1, 2))
    assert d.as_tuple() == (F(1, 2), F(1, 3), F(1, 7))
    assert is_reduced(d)


def test_reduce_identity_on_reduced_input():
    triple, witness = reduce_parameters(F(1, 84), F(13, 84), F(1, 2))
    assert triple.as_tuple() == (F(1, 2), F(1, 3), F(1, 7))
    assert witness.signs == (1, 1, 1)
    assert witness.shifts == (0, 0, 0)


def test_reduce_zero_case():
    triple, _ = reduce_parameters(F(1, 2), F(1, 2), F(1))
    assert triple.as_tuple() == (F(0), F(0), F(0))


def _from_differences(kappa, lam, mu):
    """(alpha, beta, gamma) whose raw differences are (kappa, lam, mu)."""
    gamma = 1 - kappa
    beta = (gamma - lam + mu) / 2
    return gamma - lam - beta, beta, gamma


def _rebuilt(raw, witness):
    return tuple(e * (d + s) for e, d, s in zip(witness.signs, raw, witness.shifts))


def test_reduce_keeps_the_parity_of_the_shifts():
    # one odd shift of 5/3 gives the icosahedral (2/3, 1/5, 1/5), a finite
    # group; the monodromy of (5/3, 1/5, 1/5) is that of (1/3, 1/5, 1/5)
    triple, witness = reduce_parameters(*_from_differences(F(5, 3), F(1, 5), F(1, 5)))
    assert triple.as_tuple() == (F(1, 3), F(1, 5), F(1, 5))
    assert sum(witness.shifts) % 2 == 0
    assert _rebuilt((F(5, 3), F(1, 5), F(1, 5)), witness) == triple.as_tuple()


def test_reduce_moves_a_reduced_triple_on_the_boundary():
    # (1/10, 1/10, 9/10) is reduced, but its canonical member is the one
    # with the 9/10 first
    triple, witness = reduce_parameters(*_from_differences(F(1, 10), F(1, 10), F(9, 10)))
    assert triple.as_tuple() == (F(9, 10), F(1, 10), F(1, 10))
    assert witness == ReductionWitness(signs=(-1, 1, -1), shifts=(-1, 0, -1))


def _search_oracle(alpha, beta, gamma, bound=3):
    """Independent exhaustive search: all shifts in [-bound, bound] whose
    sum is even, all sign patterns; collect every reduced candidate."""
    raw = exponent_differences(alpha, beta, gamma).as_tuple()
    found = []
    for shifts in itertools.product(range(-bound, bound + 1), repeat=3):
        if sum(shifts) % 2:
            continue
        for signs in itertools.product((1, -1), repeat=3):
            cand = ExponentTriple(*(e * (d + s) for e, d, s in zip(signs, raw, shifts)))
            if is_reduced(cand):
                found.append(cand.as_tuple())
    return found


def test_reduce_matches_search_oracle():
    for alpha, beta, gamma in ((F(-1, 2), F(1, 3), F(6, 7)),
                               _from_differences(F(5, 3), F(1, 5), F(1, 5)),
                               _from_differences(F(-7, 4), F(9, 5), F(1, 2))):
        triple, witness = reduce_parameters(alpha, beta, gamma)
        assert is_reduced(triple)
        assert triple.as_tuple() in _search_oracle(alpha, beta, gamma)
        # the witness reproduces the output from the raw differences
        raw = exponent_differences(alpha, beta, gamma).as_tuple()
        assert _rebuilt(raw, witness) == triple.as_tuple()
        assert sum(witness.shifts) % 2 == 0


def test_reduce_always_succeeds_on_moderate_inputs():
    vals = [F(n, d) for n in range(-3, 4) for d in (2, 3, 7)]
    for alpha in vals[::3]:
        for beta in vals[::4]:
            for gamma in vals[::5]:
                triple, witness = reduce_parameters(alpha, beta, gamma)
                k, l, m = triple.as_tuple()
                assert k >= 0 and l >= 0 and m >= 0
                assert k + l <= 1 and k + m <= 1 and l + m <= 1
                assert sum(witness.shifts) % 2 == 0
                raw = exponent_differences(alpha, beta, gamma).as_tuple()
                assert _rebuilt(raw, witness) == triple.as_tuple()


DIFFERENCES = st.builds(F, st.integers(-60, 60), st.integers(1, 12))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.tuples(DIFFERENCES, DIFFERENCES, DIFFERENCES),
       st.tuples(*[st.sampled_from((1, -1))] * 3),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-3, 3)))
def test_reduce_is_canonical_on_each_class(raw, signs, shifts):
    # sign flips and integer shifts with an even sum keep the class
    shifts = (shifts[0], shifts[1], 2 * shifts[2] - shifts[0] - shifts[1])
    moved = tuple(e * d + s for e, d, s in zip(signs, raw, shifts))
    triple, witness = reduce_parameters(*_from_differences(*raw))
    assert reduce_parameters(*_from_differences(*moved))[0] == triple
    assert is_reduced(triple)
    assert sum(witness.shifts) % 2 == 0
    assert _rebuilt(raw, witness) == triple.as_tuple()
