"""Stratum conditions, the enumerator, and the weight-vector comparator.

All expected values below were hand-evaluated from the closed forms before
being frozen here; everything is exact rational arithmetic.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conditional_unit_fraction, is_in_two_over_n, is_unit_fraction, passes
from schwarz_atlas import schwarzcond as sc
from schwarz_atlas.exact import format_rational
from schwarz_atlas.roots import RootSystemType


def T(fam, rank):
    return RootSystemType(fam, rank)


# --- individual conditions --------------------------------------------------

def conditions(rtype, k, *kinds):
    """The entries of check(rtype, k) whose kind is one of kinds."""
    return [c for c in sc.check(rtype, k)["conditions"] if c["kind"] in kinds]


def by_kind(rtype, k, *kinds):
    return {c["kind"]: c for c in conditions(rtype, k, *kinds)}


def test_toric_a_cases():
    conds = conditions(T("A", 7), F(1, 6), "toric_a")
    assert conds[0]["value"] == format_rational(F(1, 2)) and conds[0]["satisfied"]
    conds = conditions(T("A", 6), F(1, 6), "toric_a")
    assert conds[0]["value"] == format_rational(F(5, 12)) and not conds[0]["satisfied"]


def test_toric_de_cases():
    conds = conditions(T("E", 8), F(1, 6), "toric_de")
    values = {c["value"]: c["satisfied"] for c in conds}
    assert values[format_rational(F(2, 3))] is False           # d = 4
    assert values[format_rational(F(1, 6))] is True
    conds = conditions(T("D", 4), F(1, 4), "toric_de")
    assert len(conds) == 1 and conds[0]["value"] == format_rational(F(1, 4))
    assert conds[0]["satisfied"]


def test_mirror_identity_cases():
    conds = by_kind(T("E", 6), F(1, 4), "mirror", "identity")
    assert conds["identity"]["value"] == format_rational(F(1)) and conds["identity"]["satisfied"]
    conds = by_kind(T("A", 4), F(1, 6), "mirror", "identity")
    assert conds["identity"]["value"] == format_rational(F(-1, 12))
    assert conds["identity"]["vacuous"]
    assert conds["mirror"]["value"] == format_rational(F(1, 3)) and conds["mirror"]["satisfied"]


SPECIAL = ("special_a7_in_e7", "special_a8_in_e8", "special_d8_in_e8")


def test_special_point_cases():
    conds = conditions(T("E", 7), F(1, 6), *SPECIAL)
    assert len(conds) == 1
    assert conds[0]["value"] == format_rational(F(1, 6)) and conds[0]["satisfied"]
    conds = by_kind(T("E", 8), F(1, 6), *SPECIAL)
    assert conds["special_a8_in_e8"]["value"] == format_rational(F(1, 2))  # (9k-1), not halved
    assert conds["special_a8_in_e8"]["satisfied"]
    assert conds["special_d8_in_e8"]["value"] == format_rational(F(2, 3))
    assert not conds["special_d8_in_e8"]["satisfied"]
    assert conditions(T("A", 5), F(1, 4), *SPECIAL) == []


def test_hyperbolic_range_cases():
    def in_range(rtype, k):
        [cond] = conditions(rtype, k, "hyperbolic_range")
        return cond["satisfied"]

    assert not in_range(T("A", 7), F(1, 4))   # k = m boundary
    assert in_range(T("A", 2), F(2, 5))
    assert not in_range(T("A", 2), F(0))


def test_check_aggregates():
    assert sc.check(T("E", 6), F(1, 4))["passed"]
    assert not sc.check(T("A", 6), F(1, 6))["passed"]
    assert not sc.check(T("D", 6), F(1, 4))["passed"]
    rep = sc.check(T("A", 2), F(2, 5))
    assert rep["p"] == 10 and rep["passed"]


@pytest.mark.parametrize("k, p", [
    (F(1, 6), 3), (F(1, 4), 4), (F(49, 100), 100),
    # (1 - 2k)/2 is 1/2, 1, 0 and 3/10: no reflection order p >= 3
    (F(0), None), (F(-1, 2), None), (F(1, 2), None), (F(1, 5), None),
])
def test_check_records_only_orders_k_from_p_accepts(k, p):
    assert sc.check(T("D", 5), k)["p"] == p
    if p is not None:
        assert sc.k_from_p(p) == k


# --- the integer verdicts against a literal Fraction oracle ------------------

def _coxeter(fam, n):
    if fam == "A":
        return n + 1
    if fam == "D":
        return 2 * n - 2
    return {6: 12, 7: 18, 8: 30}[n]


def _m(fam, n):
    if fam == "A":
        return F(2, n + 1)
    if fam == "D":
        return F(1, n - 2)
    return F(1, n - 3)


def oracle(fam, n, k):
    """Every stratum condition at (type, k), evaluated literally: a list of
    (kind, value, satisfied, vacuous) in report order, and the verdict."""
    conds = [("hyperbolic_range", k, 0 < k < _m(fam, n), False)]
    if fam == "A":
        val = (n - 1) * k / 2
        conds.append(("toric_a", val, is_unit_fraction(val), False))
    else:
        seen = set()
        for d in (1, n - 3) if fam == "D" else (1, 2, n - 4):
            if d * k not in seen:
                seen.add(d * k)
                conds.append(("toric_de", d * k, is_unit_fraction(d * k), False))
    guarded = [("mirror", (1 - 2 * k) / 2), ("identity", (_coxeter(fam, n) * k - 1) / 2)]
    if (fam, n) == ("E", 7):
        guarded.append(("special_a7_in_e7", (8 * k - 1) / 2))
    if (fam, n) == ("E", 8):
        guarded += [("special_a8_in_e8", 9 * k - 1), ("special_d8_in_e8", (14 * k - 1) / 2)]
    conds += [(kind, val, conditional_unit_fraction(val), val <= 0) for kind, val in guarded]
    return conds, all(c[2] for c in conds)


ORACLE_TYPES = sorted(
    {("A", n) for n in range(1, 31)} | {("D", n) for n in range(4, 31)}
    | {("E", 6), ("E", 7), ("E", 8)})


def _k_values(fam, n):
    m, h = _m(fam, n), _coxeter(fam, n)
    return st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=400),
        st.sampled_from([F(0), F(1, 2), m, F(1, h), -m, 2 * m]),
        st.integers(3, 500).map(sc.k_from_p),
        st.integers(1, 60).map(lambda q: F(1, q)),
    )


# one k strategy per type, built once rather than on every draw
K_VALUES = {t: _k_values(*t) for t in ORACLE_TYPES}


@st.composite
def type_and_k(draw):
    fam, n = draw(st.sampled_from(ORACLE_TYPES))
    return fam, n, draw(K_VALUES[fam, n])


@settings(max_examples=800, deadline=None)
@given(type_and_k())
def test_integer_verdicts_match_fraction_oracle(case):
    fam, n, k = case
    want, verdict = oracle(fam, n, k)
    assert passes(T(fam, n), k) is verdict
    rep = sc.check(T(fam, n), k)
    assert rep["passed"] is verdict
    assert [(c["kind"], c["value"], c["satisfied"], c["vacuous"]) for c in rep["conditions"]] == [
        (kind, format_rational(val), good, vacuous) for kind, val, good, vacuous in want]


def test_integer_verdicts_on_the_scanned_grid():
    # every type and p the default enumeration scans, plus k = 1/2
    for rtype in sc._scan_types(13):
        fam, n = rtype.family, rtype.rank
        for k in [sc.k_from_p(p) for p in range(3, 201)] + [F(1, 2)]:
            assert passes(rtype, k) is oracle(fam, n, k)[1]


# --- enumeration and the reference table ------------------------------------

def test_enumeration_reproduces_reference_rows():
    res = sc.enumerate_solutions(3, 100, 13, False)
    assert list(res["rows"]) == ["3", "4", "6", "10"]
    assert res["rows"]["4"] == ["A2", "A3", "A5", "D4", "D5", "E6"]
    assert res["rows"]["10"] == ["A2"]
    assert res["rows"]["6"] == ["A2", "A3", "A4", "D4"]    # A5 fails the literal conditions
    assert "A5" in res["rows"]["3"]                         # and passes them at p = 3


def test_table_diff_is_exactly_the_two_anomalies():
    res = sc.enumerate_solutions(3, 100, 13, False)
    assert res["table_diff"] == {"extra": [[3, "A5"]], "missing": [[6, "A5"]]}
    assert res["documented_anomalies_only"] is True


@pytest.mark.parametrize("p_min, p_max, extra, missing", [
    (3, 5, [[3, "A5"]], []),
    (4, 12, [], [[6, "A5"]]),
])
def test_table_diff_counts_only_the_scanned_range(p_min, p_max, extra, missing):
    # an anomaly outside the p range is neither reported nor expected
    res = sc.enumerate_solutions(p_min, p_max, 13, False)
    assert res["table_diff"] == {"extra": extra, "missing": missing}
    assert res["documented_anomalies_only"] is True


def test_enumeration_monotone_in_p_max():
    small = sc.enumerate_solutions(3, 20, 13, False)["rows"]
    large = sc.enumerate_solutions(3, 60, 13, False)["rows"]
    for p, row in small.items():
        assert large[p] == row


def test_a_family_rows_brute_force_to_200():
    """For every A_n with 2 <= n <= 13, collect the p with a passing verdict."""
    ps = set()
    for p in range(3, 201):
        k = sc.k_from_p(p)
        for n in range(2, 14):
            if sc.check(T("A", n), k)["passed"]:
                ps.add(p)
    assert ps == {3, 4, 6, 10}


def test_a2_toric_divisibility():
    # (p-2) | 8 characterizes the A2 toric condition
    for p in range(3, 201):
        k = sc.k_from_p(p)
        [cond] = conditions(T("A", 2), k, "toric_a")
        assert cond["satisfied"] == (8 % (p - 2) == 0)


def test_k_half_flag():
    assert sc.enumerate_solutions(3, 10, 13, True)["k_half"] == ["A2"]
    assert "k_half" not in sc.enumerate_solutions(3, 10, 13, False)


def enumerate_oracle(p_min, p_max, rank_max, include_k_half):
    """enumerate_solutions as one loop that tries every type at every p,
    which the library cuts short once k = 1/2 - 1/p leaves a type's range."""
    tables = [(str(t), sc._table(t)) for t in sc._scan_types(rank_max)]
    rows, diff = {}, {"extra": [], "missing": []}
    for p in range(p_min, p_max + 1):
        k = sc.k_from_p(p)
        got = [name for name, table in tables if table.passes(k.numerator, k.denominator)]
        if got:
            rows[str(p)] = got
        want = {t for t in sc.KNOWN_TABLE.get(p, ()) if sc._type_rank(t) <= rank_max}
        diff["extra"] += [[p, t] for t in sorted(set(got) - want)]
        diff["missing"] += [[p, t] for t in sorted(want - set(got))]
    results = {"p_min": p_min, "p_max": p_max, "rank_max": rank_max, "rows": rows}
    k_half = [name for name, table in tables if include_k_half and table.passes(1, 2)]
    if k_half:
        results["k_half"] = k_half
    results["table_diff"] = diff
    results["documented_anomalies_only"] = diff == {
        kind: [[p, t] for p, t in cases if p_min <= p <= p_max and sc._type_rank(t) <= rank_max]
        for kind, cases in sc.DOCUMENTED_ANOMALIES.items()}
    return results


@pytest.mark.parametrize("include_k_half", [False, True])
@pytest.mark.parametrize("p_min, p_max", [(3, 300), (3, 5), (4, 12), (7, 300), (150, 300)])
def test_enumeration_matches_the_every_type_loop(p_min, p_max, include_k_half):
    for rank_max in range(2, 31):
        assert sc.enumerate_solutions(p_min, p_max, rank_max, include_k_half) == \
            enumerate_oracle(p_min, p_max, rank_max, include_k_half)


# --- weight vectors ----------------------------------------------------------

def weights(res):
    """The weight vector of a dm report as Fractions."""
    return [F(m) for m in res["mu"]["mu"]]


def test_mu_vector_examples():
    res = sc.dm(2, F(2, 5))
    assert weights(res) == [F(2, 5)] * 5 and sum(weights(res)) == 2
    assert not res["mu"]["degenerate"]
    mu = weights(sc.dm(3, F(1, 3)))
    assert mu[0] == mu[-1] == F(1, 3)
    res = sc.dm(5, F(1, 3))
    assert res["mu"]["degenerate"] and weights(res)[0] == 0
    assert res["verdict"] is None and "pairs" not in res


def test_dm_conditions_all_two_fifths():
    res = sc.dm(2, F(2, 5))
    assert res["verdict"] is True
    # every non-vacuous pair value is 1/5 = 2/10
    vals = {r["value"] for r in res["pairs"] if r["value"] != "vacuous"}
    assert vals == {"1/5"}


def test_dm_conditions_vacuous_pairs():
    # weights (1/2, 1/6 x6, 1/2): the end pairs with the middles sum to 2/3,
    # the end-end pair sums to 1 and is vacuous
    res = sc.dm(5, F(1, 6))
    assert weights(res) == [F(1, 2)] + [F(1, 6)] * 6 + [F(1, 2)]
    lookup = {tuple(r["pair"]): r["value"] for r in res["pairs"]}
    assert lookup[(0, 7)] == "vacuous"
    assert res["verdict"] is True


def test_three_identities_hold_symbolically():
    for n in range(2, 11):
        for p in (3, 4, 7, 10, 23, 60):
            k = sc.k_from_p(p)
            mu = weights(sc.dm(n, k))
            assert 1 - mu[0] - mu[1] == (n - 1) * k / 2
            assert (1 - mu[1] - mu[n + 1]) / 2 == (1 - 2 * k) / 2
            assert (1 - mu[0] - mu[n + 2]) / 2 == ((n + 1) * k - 1) / 2


def test_equivalence_scan():
    res = sc.dm_equivalence_scan(10, 60)
    assert res["identities_hold"] is True and res["verdicts_agree"] is True
    assert res["hidden_symmetry_cases"] == [[10, 2], [6, 3], [4, 5]]
    assert res["row_count"] == 9 * 58
    # degeneracy is exactly the complement of 0 < k < 2/(n+1)
    assert res["degenerate_cases"] == [
        [p, n] for n in range(2, 11) for p in range(3, 61)
        if not 0 < sc.k_from_p(p) < F(2, n + 1)]


def test_scan_examples():
    # the two verdicts the scan compares, one (n, p) at a time
    k = sc.k_from_p(10)
    assert sc.dm(2, k)["w_restricted"]["verdict"] and passes(T("A", 2), k)
    k = sc.k_from_p(3)
    assert not sc.dm(6, k)["w_restricted"]["verdict"] and not passes(T("A", 6), k)
    # the symmetric-but-failing case is flagged symmetric yet not a solution
    assert sc.dm(9, k)["hidden_symmetry"] and not passes(T("A", 9), k)
    assert [3, 9] not in sc.dm_equivalence_scan(10, 60)["hidden_symmetry_cases"]


# --- the integer weight side against the literal Fraction scan ----------------

def oracle_w_restricted(n, k):
    """The three subgroup-restricted pair conditions in Fraction arithmetic."""
    toric_val = (n - 1) * k / 2       # 1 - mu_0 - mu_1
    mirror_val = (1 - 2 * k) / 2      # (1 - mu_1 - mu_{n+1})/2
    ident_val = ((n + 1) * k - 1) / 2  # (1 - mu_0 - mu_{n+2})/2
    conds = [
        ("end_middle", toric_val, is_unit_fraction(toric_val) if toric_val > 0 else True),
        ("middle_middle", mirror_val, conditional_unit_fraction(mirror_val)),
        ("end_end", ident_val, conditional_unit_fraction(ident_val)),
    ]
    return all(c[2] for c in conds), conds


def oracle_scan(n_max, p_max):
    """The equivalence scan rebuilt literally: Fraction weight vectors, the
    displayed identities read per (n, p) against the values `check` reports
    for A_n, and the A_n verdict from `oracle`."""
    identities, agree, hidden, degenerate_cases = True, True, [], []
    for n in range(2, n_max + 1):
        for p in range(3, p_max + 1):
            k = F(p - 2, 2 * p)
            end = 1 - (n + 1) * k / 2
            mu = (end,) + (k,) * (n + 1) + (end,)
            shown = {c["kind"]: F(c["value"]) for c in sc.check(T("A", n), k)["conditions"]}
            identities = identities and (
                1 - mu[0] - mu[1] == shown["toric_a"]
                and (1 - mu[1] - mu[n + 1]) / 2 == shown["mirror"]
                and (1 - mu[0] - mu[n + 2]) / 2 == shown["identity"]
            )
            if any(not (0 < m < 1) for m in mu):
                degenerate_cases.append([p, n])
                continue
            dm_ok = oracle_w_restricted(n, k)[0]
            an_ok = oracle("A", n, k)[1]
            agree = agree and dm_ok == an_ok
            if k == F(2, n + 3) and dm_ok and an_ok:
                hidden.append([p, n])
    return {"identities_hold": identities, "verdicts_agree": agree,
            "hidden_symmetry_cases": hidden, "degenerate_cases": degenerate_cases,
            "row_count": (n_max - 1) * (p_max - 2)}


@pytest.mark.parametrize("n_max, p_max", [(10, 60), (2, 3), (4, 23), (7, 41)])
def test_integer_scan_matches_fraction_oracle_row_for_row(n_max, p_max):
    same_report(sc.dm_equivalence_scan(n_max, p_max), oracle_scan(n_max, p_max))


def oracle_dm(n, k):
    """The `schwarz dm` results read literally in Fraction arithmetic: the
    weight vector, every pair sum against the `exact` predicates, and
    k == 2/(n+3)."""
    end = 1 - (n + 1) * k / 2
    mu = (end,) + (k,) * (n + 1) + (end,)
    degenerate = any(not (0 < m < 1) for m in mu)
    res = {"mu": {"mu": [format_rational(m) for m in mu], "degenerate": degenerate},
           "k": format_rational(k)}
    if degenerate:
        res["verdict"] = None
        res["note"] = "degenerate weight vector (entry at 0 or 1)"
    else:
        pairs = []
        for i in range(len(mu)):
            for j in range(i + 1, len(mu)):
                if mu[i] + mu[j] >= 1:
                    pairs.append({"pair": [i, j], "value": "vacuous", "satisfied": True})
                    continue
                val = 1 - mu[i] - mu[j]
                good = is_in_two_over_n(val) if mu[i] == mu[j] else is_unit_fraction(val)
                pairs.append({"pair": [i, j], "value": format_rational(val), "satisfied": good})
        res["verdict"] = all(r["satisfied"] for r in pairs)
        res["pairs"] = pairs
    ok, conds = oracle_w_restricted(n, k)
    res["w_restricted"] = {"verdict": ok, "conditions": [
        {"kind": kind, "value": format_rational(val), "satisfied": good}
        for kind, val, good in conds]}
    res["hidden_symmetry"] = k == F(2, n + 3)
    return res


def same_report(got, want):
    # equal with the keys in the same order, which `--format text` prints
    assert list(got) == list(want)
    assert got == want


def test_dm_matches_fraction_oracle():
    for n in range(1, 31):
        for p in range(3, 121):
            k = sc.k_from_p(p)
            same_report(sc.dm(n, k), oracle_dm(n, k))


K_DRAWS = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=400),
    st.integers(3, 500).map(sc.k_from_p),
    st.integers(1, 60).map(lambda q: F(1, q)),
    st.integers(1, 60).map(lambda q: F(2, q)),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), K_DRAWS)
def test_dm_matches_fraction_oracle_on_drawn_k(n, k):
    same_report(sc.dm(n, k), oracle_dm(n, k))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 60), K_DRAWS)
def test_w_restricted_matches_fraction_oracle(n, k):
    got = sc.dm(n, k)["w_restricted"]
    want_ok, want = oracle_w_restricted(n, k)
    assert got["verdict"] is want_ok
    assert [(c["kind"], c["value"], c["satisfied"]) for c in got["conditions"]] == [
        (kind, format_rational(val), good) for kind, val, good in want]
