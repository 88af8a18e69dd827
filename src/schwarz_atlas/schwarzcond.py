"""Exact stratum conditions on the reflection coupling k, the solution-table
enumerator with its embedded reference table, and the (n+3)-point weight-vector
comparator on the projective line.

Everything here is exact; no floats enter at any point.  Each type's stratum
conditions are one table of integer rows, value = (c1*k + c0)/div, built once
per type: a verdict at k = a/b is an integer divisibility test, and `check`
is one pass over the rows that returns the report entries themselves, with
the exact p/q values.  `enumerate_solutions` is one pass over the orders in
range that returns the `schwarz enumerate` results: it implements the stated
conditions literally and diffs each order against the reference table as it
goes, so the two boundary anomalies are surfaced instead of patched on
either side.

The weight side is integer arithmetic too.  At k = a/b every weight of the
n+3 point vector has the denominator 2b, so degeneracy and k = 2/(n+3) are
comparisons of numerators, and the three pair conditions the subgroup
S_{n+1} x S_2 sees are rows of the same kind, derived from the weights rather
than copied from the A_n table.  `dm` is one integer pass over the two weight
numerators that returns the `schwarz dm` results, every pair verdict a
divisibility test.  `dm_equivalence_scan` is one pass that returns the
`schwarz dm-scan` results: the three displayed identities hold when those
derived rows are the A_n table's toric, mirror and identity rows as linear
forms, and the scan compares two independently built integer verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import format_rational, k_from_p
from .roots import (
    _SYSTEMS,
    RootSystemType,
    build,
    coxeter_number,
    hyperbolic_exponent,
    toric_distances,
)

__all__ = [
    "check",
    "enumerate_solutions",
    "KNOWN_TABLE",
    "dm",
    "dm_equivalence_scan",
]


# perfbench/tracer.py wraps `_system` to count lookups in `_SYSTEM_CACHE`;
# both names stand for roots.build and its one cache, which this module calls
# directly.
_SYSTEM_CACHE = _SYSTEMS
_system = build


@dataclass(frozen=True)
class _Row:
    """One stratum condition: value = (c1*k + c0)/div must be a unit fraction,
    and holds vacuously where value <= 0 when `guarded` ('if > 0')."""

    kind: str
    c1: int
    c0: int
    div: int
    guarded: bool
    detail: str

    def holds(self, a, b):
        """The verdict at k = a/b with b > 0.  The value is N/(div*b) with
        N = c1*a + c0*b, a unit fraction iff N > 0 and N divides div*b."""
        num = self.c1 * a + self.c0 * b
        if num <= 0:
            return self.guarded
        return self.div * b % num == 0

    def condition(self, k):
        """The report entry at the Fraction k."""
        a, b = k.numerator, k.denominator
        num = self.c1 * a + self.c0 * b
        return {"kind": self.kind, "value": format_rational(Fraction(num, self.div * b)),
                "satisfied": self.holds(a, b), "vacuous": self.guarded and num <= 0,
                "detail": self.detail}


# the special boundary points of E7 and E8; E8's (9k-1) is not halved
_SPECIAL_ROWS = {
    ("E", 7): (_Row("special_a7_in_e7", 8, -1, 2, True, "(8k-1)/2"),),
    ("E", 8): (_Row("special_a8_in_e8", 9, -1, 1, True, "(9k-1)"),
               _Row("special_d8_in_e8", 14, -1, 2, True, "(14k-1)/2")),
}


@dataclass(frozen=True)
class _Table:
    """Every stratum condition of one type, in the order a report lists them."""

    m: Fraction              # the hyperbolic range is 0 < k < m
    rows: tuple              # toric, mirror, identity, special

    def in_range(self, a, b):
        """0 < a/b < m for b > 0."""
        return 0 < a and a * self.m.denominator < self.m.numerator * b

    def holds(self, a, b):
        """Every row's verdict at k = a/b with b > 0, in integer arithmetic."""
        return all(row.holds(a, b) for row in self.rows)

    def passes(self, a, b):
        """Every condition at k = a/b with b > 0: the range and every row."""
        return self.in_range(a, b) and self.holds(a, b)


_TABLE_CACHE = {}


def _table(rtype):
    """The condition table of a type, built once from its root system."""
    if rtype not in _TABLE_CACHE:
        system = build(rtype)
        h = coxeter_number(system)
        if rtype.family == "A":
            n = rtype.rank
            toric = (_Row("toric_a", n - 1, 0, 2, False, f"(n-1)k/2 with n={n}"),)
        else:
            toric = tuple(_Row("toric_de", d, 0, 1, False, f"d*k with d={d}")
                          for d in dict.fromkeys(toric_distances(system)))
        _TABLE_CACHE[rtype] = _Table(
            m=hyperbolic_exponent(system),
            rows=toric + (
                _Row("mirror", -2, 1, 2, True, "(1-2k)/2"),
                _Row("identity", h, -1, 2, True, f"(hk-1)/2 with h={h}"),
            ) + _SPECIAL_ROWS.get((rtype.family, rtype.rank), ()),
        )
    return _TABLE_CACHE[rtype]


def check(rtype, k):
    """The `schwarz check` results of (rtype, k): the hyperbolic range
    0 < k < m (k = m flagged as the boundary), then every row of the type's
    table as a report entry, with an entry that repeats the one before it
    listed once (the toric values d*k at k = 0).  Records the reflection
    order p when (1-2k)/2 is exactly 1/p with p >= 3, the orders k_from_p
    accepts."""
    table = _table(rtype)
    k = Fraction(k)
    conditions = [{
        "kind": "hyperbolic_range", "value": format_rational(k),
        "satisfied": table.in_range(k.numerator, k.denominator), "vacuous": False,
        "detail": f"0 < k < {format_rational(table.m)}"
                  + (" (boundary k = m)" if k == table.m else ""),
    }]
    for row in table.rows:
        cond = row.condition(k)
        last = conditions[-1]
        if (cond["kind"], cond["value"]) != (last["kind"], last["value"]):
            conditions.append(cond)
    mirror = (1 - 2 * k) / 2
    return {
        "type": str(rtype),
        "k": format_rational(k),
        "p": mirror.denominator if mirror.numerator == 1 and mirror.denominator >= 3 else None,
        "conditions": conditions,
        "passed": all(c["satisfied"] for c in conditions),
    }


# reference solution table: reflection order p -> types of rank >= 2
KNOWN_TABLE = {
    3: ("A2", "A3", "A4", "A7", "D4", "D5", "D6", "E6", "E7"),
    4: ("A2", "A3", "A5", "D4", "D5", "E6"),
    6: ("A2", "A3", "A4", "A5", "D4"),
    10: ("A2",),
}

# the two boundary cases where the literal conditions and the reference table
# disagree; both sit on a degeneration (hk = 1, respectively k = m)
DOCUMENTED_ANOMALIES = {
    "extra": ((3, "A5"),),    # passes every stated condition, absent from the table
    "missing": ((6, "A5"),),  # listed, but k = m and the toric value is 2/3
}


def _type_rank(name):
    """Rank of a type string such as "A5" or "E8"."""
    return int(name[1:])


def _scan_types(rank_max):
    out = [RootSystemType("A", n) for n in range(2, rank_max + 1)]
    out += [RootSystemType("D", n) for n in range(4, rank_max + 1)]
    out += [RootSystemType("E", n) for n in (6, 7, 8) if n <= rank_max]
    return out


def enumerate_solutions(p_min, p_max, rank_max, include_k_half):
    """The `schwarz enumerate` results: for every p in range, the types of
    rank <= rank_max that pass every condition, as rows in ascending p that
    list at least one type (monotone in p_max by construction), and the types
    passing at k = 1/2 when asked for and any pass.

    The same pass diffs each p against the reference table entries of rank
    <= rank_max: extra are enumerated but not in the table, missing are in
    the table but not enumerated, and the run is clean when the diff is
    exactly the documented anomalies in the scanned range.  A type leaves
    the scan at the first p whose k = 1/2 - 1/p is past its range, since k
    grows with p.
    """
    tables = [(str(t), _table(t)) for t in _scan_types(rank_max)]
    rows, diff = {}, {"extra": [], "missing": []}
    live = tables
    for p in range(p_min, p_max + 1):
        k = k_from_p(p)
        a, b = k.numerator, k.denominator
        # k = 1/2 - 1/p > 0 grows with p, so a type whose range 0 < k < m
        # it has left never comes back
        live = [(name, table) for name, table in live if table.in_range(a, b)]
        got = [name for name, table in live if table.holds(a, b)]
        if got:
            rows[str(p)] = got
        want = {t for t in KNOWN_TABLE.get(p, ()) if _type_rank(t) <= rank_max}
        diff["extra"] += [[p, t] for t in sorted(set(got) - want)]
        diff["missing"] += [[p, t] for t in sorted(want - set(got))]
    results = {"p_min": p_min, "p_max": p_max, "rank_max": rank_max, "rows": rows}
    k_half = [name for name, table in tables if include_k_half and table.passes(1, 2)]
    if k_half:
        results["k_half"] = k_half
    results["table_diff"] = diff
    results["documented_anomalies_only"] = diff == {
        kind: [[p, t] for p, t in cases if p_min <= p <= p_max and _type_rank(t) <= rank_max]
        for kind, cases in DOCUMENTED_ANOMALIES.items()}
    return results


# ---------------------------------------------------------------------------
# weight vectors on the projective line (n+3 points)

def _weights(n, a, b):
    """The weight numerators over 2b at k = a/b (b > 0): the end weight
    1 - (n+1)k/2 of points 0 and n+2 and the middle weight k of points
    1..n+1; whether one lies outside (0, 1); and whether they are equal,
    which is k = 2/(n+3), a(n+3) = 2b."""
    end, middle = 2 * b - (n + 1) * a, 2 * a
    return end, middle, not (0 < end < 2 * b and 0 < middle < 2 * b), end == middle


def _pair_row(kind, u, v=None):
    """The guarded pair condition of two weights, each given doubled as
    (c1, c0) with 2*mu = c1*k + c0: 1 - mu_i - mu_j = (2 - u - v)/2 for weights
    in different orbits, and (1 - mu_i - mu_j)/2 = (1 - u)/2 for two weights u
    of one orbit, must be a unit fraction where positive."""
    if v is None:
        return _Row(kind, -u[0], 1 - u[1], 2, True, "(1 - mu_i - mu_j)/2")
    return _Row(kind, -u[0] - v[0], 2 - u[1] - v[1], 2, True, "1 - mu_i - mu_j")


def _dm_pair_rows(n):
    """The end-middle, middle-middle and end-end rows of the n+3 point weights,
    derived from the weights alone, not from the A_n stratum table: twice the
    end weight 1 - (n+1)k/2 is -(n+1)k + 2, twice the middle weight k is 2k."""
    end, middle = (-(n + 1), 2), (2, 0)
    return (_pair_row("end_middle", end, middle),
            _pair_row("middle_middle", middle),
            _pair_row("end_end", end))


def dm(n, k):
    """The `schwarz dm` results of (n, k): the n+3 weights
    mu_0 = mu_{n+2} = 1 - (n+1)k/2 and mu_1 = ... = mu_{n+1} = k, whose total
    is identically 2, with the degenerate flag set when one lies outside
    (0, 1); for a non-degenerate vector, every pair i < j and the verdict
    over them; the three pair conditions that the subgroup S_{n+1} x S_2 sees;
    and whether k = 2/(n+3), where all weights are equal.

    One integer pass over the two weight numerators at k = a/b.  A pair with
    num = 2b - w_i - w_j <= 0 holds vacuously (mu_i + mu_j >= 1); otherwise
    1 - mu_i - mu_j = num/(2b) must be 1/N, num | 2b, or 2/N where the two
    weights are equal, num | 4b.  Each pair class is decided once.  The
    subgroup rows keep the index classes {0, n+2} and {1..n+1} apart, so
    their end-middle row takes the 1/N branch even when the weights agree.
    """
    k = Fraction(k)
    a, b = k.numerator, k.denominator
    end, middle, degenerate, symmetric = _weights(n, a, b)
    end_text, k_text = format_rational(Fraction(end, 2 * b)), format_rational(k)
    results = {
        "mu": {"mu": [end_text] + [k_text] * (n + 1) + [end_text], "degenerate": degenerate},
        "k": k_text,
    }
    if degenerate:
        results["verdict"] = None
        results["note"] = "degenerate weight vector (entry at 0 or 1)"
    else:
        classes = {}
        for u, v in ((end, middle), (middle, middle), (end, end)):
            num = 2 * b - u - v
            classes[u, v] = classes[v, u] = (
                {"value": "vacuous", "satisfied": True} if num <= 0
                else {"value": format_rational(Fraction(num, 2 * b)),
                      "satisfied": (4 if u == v else 2) * b % num == 0})
        weights = (end,) + (middle,) * (n + 1) + (end,)
        results["verdict"] = all(c["satisfied"] for c in classes.values())
        results["pairs"] = [{"pair": [i, j], **classes[weights[i], weights[j]]}
                            for i in range(n + 3) for j in range(i + 1, n + 3)]
    conds = [row.condition(k) for row in _dm_pair_rows(n)]
    results["w_restricted"] = {
        "verdict": all(c["satisfied"] for c in conds),
        "conditions": [{key: c[key] for key in ("kind", "value", "satisfied")} for c in conds],
    }
    results["hidden_symmetry"] = symmetric
    return results


def dm_equivalence_scan(n_max, p_max):
    """The `schwarz dm-scan` results over every rank 2 <= n <= n_max and
    reflection order 3 <= p <= p_max: whether the three displayed identities
    hold, whether the subgroup-restricted weight verdict agrees with the A_n
    stratum check on every non-degenerate vector, the hidden-symmetry
    solutions and the degenerate vectors as [p, n], and the number of (n, p)
    scanned.

    The identities are checked once per n, as linear forms: the three pair
    rows that _dm_pair_rows derives from the weights must be the A_n table's
    toric, mirror and identity rows (c1, c0, div), and the table's identity
    row takes h from the built root system.  Everything else is integer
    arithmetic on k = a/b in lowest terms: every weight has the denominator
    2b, with numerator 2a in the middle and 2b - (n+1)a at the ends, each
    verdict is a divisibility test, and k = 2/(n+3) reads a(n+3) = 2b.
    """
    ns, ks = range(2, n_max + 1), [(p, k_from_p(p)) for p in range(3, p_max + 1)]
    identities, agree, hidden, degenerate_cases = True, True, [], []
    for n in ns:
        table = _table(RootSystemType("A", n))
        pair_rows = _dm_pair_rows(n)
        identities = identities and ([(r.c1, r.c0, r.div) for r in pair_rows]
                                     == [(r.c1, r.c0, r.div) for r in table.rows])
        for p, k in ks:
            a, b = k.numerator, k.denominator
            _, _, degenerate, symmetric = _weights(n, a, b)
            if degenerate:
                degenerate_cases.append([p, n])
                continue
            dm_ok = all(row.holds(a, b) for row in pair_rows)
            an_ok = table.passes(a, b)
            agree = agree and dm_ok == an_ok
            if symmetric and dm_ok and an_ok:
                hidden.append([p, n])
    return {
        "identities_hold": identities,
        "verdicts_agree": agree,
        "hidden_symmetry_cases": hidden,
        "degenerate_cases": degenerate_cases,
        "row_count": len(ns) * len(ks),
    }
