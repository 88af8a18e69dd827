"""Exact stratum conditions on the reflection coupling k, the solution-table
enumerator with its embedded reference table, and the (n+3)-point weight-vector
comparator on the projective line.

Everything here is exact; no floats enter at any point.  Each type's stratum
conditions are one table of integer rows, value = (c1*k + c0)/div, built once
per type: a verdict at k = a/b is an integer divisibility test, and the
reports add the exact p/q values.  The enumerator implements the stated
conditions literally, and the diff against the reference table deliberately
surfaces the two boundary anomalies instead of patching either side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import (
    conditional_unit_fraction,
    format_rational,
    is_in_two_over_n,
    is_unit_fraction,
    k_from_p,
)
from .roots import (
    _SYSTEMS,
    RootSystemType,
    build,
    coxeter_number,
    hyperbolic_exponent,
    toric_distances,
)

__all__ = [
    "StratumCondition",
    "SchwarzReport",
    "DMVector",
    "toric_condition",
    "mirror_identity_condition",
    "special_point_condition",
    "hyperbolic_range",
    "passes",
    "check",
    "enumerate_solutions",
    "EnumerationResult",
    "KNOWN_TABLE",
    "table_diff",
    "anomalies_in_range",
    "dm_mu_vector",
    "dm_conditions",
    "dm_w_restricted",
    "dm_equivalence_scan",
    "hidden_symmetry",
]


@dataclass(frozen=True)
class StratumCondition:
    kind: str
    value: Fraction
    satisfied: bool
    vacuous: bool = False
    detail: str = ""

    def as_dict(self):
        return {
            "kind": self.kind,
            "value": format_rational(self.value),
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "detail": self.detail,
        }


# perfbench/tracer.py wraps `_system` to count lookups in `_SYSTEM_CACHE`;
# both names stand for roots.build and its one cache, which this module calls
# directly.
_SYSTEM_CACHE = _SYSTEMS
_system = build


def _as_type(R):
    if isinstance(R, RootSystemType):
        return R
    return R.rtype


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
        a, b = k.numerator, k.denominator
        num = self.c1 * a + self.c0 * b
        return StratumCondition(
            kind=self.kind, value=Fraction(num, self.div * b), satisfied=self.holds(a, b),
            vacuous=self.guarded and num <= 0, detail=self.detail)


_SPECIAL_ROWS = {
    ("E", 7): (_Row("special_a7_in_e7", 8, -1, 2, True, "(8k-1)/2"),),
    ("E", 8): (_Row("special_a8_in_e8", 9, -1, 1, True, "(9k-1)"),
               _Row("special_d8_in_e8", 14, -1, 2, True, "(14k-1)/2")),
}


@dataclass(frozen=True)
class _Table:
    """Every stratum condition of one type, in the order a report lists them."""

    m: Fraction              # the hyperbolic range is 0 < k < m
    toric: tuple
    mirror_identity: tuple
    special: tuple

    @cached_property
    def rows(self):
        return self.toric + self.mirror_identity + self.special

    def in_range(self, a, b):
        """0 < a/b < m for b > 0."""
        return 0 < a and a * self.m.denominator < self.m.numerator * b

    def passes(self, a, b):
        """Every condition at k = a/b with b > 0, in integer arithmetic."""
        return self.in_range(a, b) and all(row.holds(a, b) for row in self.rows)


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
            toric=toric,
            mirror_identity=(
                _Row("mirror", -2, 1, 2, True, "(1-2k)/2"),
                _Row("identity", h, -1, 2, True, f"(hk-1)/2 with h={h}"),
            ),
            special=_SPECIAL_ROWS.get((rtype.family, rtype.rank), ()),
        )
    return _TABLE_CACHE[rtype]


def toric_condition(R, k):
    """Toric-stratum conditions: (n-1)k/2 for A_n, d*k per diagram distance d
    for D_n / E_n (duplicate values recorded once)."""
    k = Fraction(k)
    out, seen = [], set()
    for row in _table(_as_type(R)).toric:
        cond = row.condition(k)
        if cond.value not in seen:
            seen.add(cond.value)
            out.append(cond)
    return out


def mirror_identity_condition(R, k):
    """Mirror-stratum and identity-point conditions, both under the 'if > 0'
    guard: (1-2k)/2 and (hk-1)/2 with h the Coxeter number."""
    k = Fraction(k)
    return [row.condition(k) for row in _table(_as_type(R)).mirror_identity]


def special_point_condition(R, k):
    """Extra conditions at the special boundary points of E7 and E8.

    E7 contributes (8k-1)/2; E8 contributes (9k-1) -- not halved -- and
    (14k-1)/2.  All are guarded by 'if > 0'; other types contribute nothing.
    """
    k = Fraction(k)
    return [row.condition(k) for row in _table(_as_type(R)).special]


def hyperbolic_range(R, k):
    """0 < k < m, exact; k = m is flagged as the boundary case."""
    table = _table(_as_type(R))
    k = Fraction(k)
    boundary = k == table.m
    return StratumCondition(
        kind="hyperbolic_range", value=k, satisfied=table.in_range(k.numerator, k.denominator),
        detail=f"0 < k < {format_rational(table.m)}" + (" (boundary k = m)" if boundary else ""))


def passes(R, k):
    """check(R, k).passed, decided by integer tests on k = a/b alone."""
    k = Fraction(k)
    return _table(_as_type(R)).passes(k.numerator, k.denominator)


@dataclass(frozen=True)
class SchwarzReport:
    rtype: RootSystemType
    k: Fraction
    p: int | None
    conditions: tuple
    passed: bool

    def as_dict(self):
        return {
            "type": str(self.rtype),
            "k": format_rational(self.k),
            "p": self.p,
            "conditions": [c.as_dict() for c in self.conditions],
            "passed": self.passed,
        }


def check(R, k):
    """All stratum conditions for (R, k); records the reflection order p when
    (1-2k)/2 is exactly 1/p."""
    rtype = _as_type(R)
    k = Fraction(k)
    conds = (
        [hyperbolic_range(rtype, k)]
        + toric_condition(rtype, k)
        + mirror_identity_condition(rtype, k)
        + special_point_condition(rtype, k)
    )
    mirror_val = (1 - 2 * k) / 2
    p = mirror_val.denominator if mirror_val > 0 and mirror_val.numerator == 1 else None
    return SchwarzReport(
        rtype=rtype, k=k, p=p, conditions=tuple(conds),
        passed=all(c.satisfied for c in conds),
    )


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


def anomalies_in_range(p_min, p_max, rank_max):
    """The documented anomalies an enumeration over this range must report."""
    return {kind: tuple(x for x in cases
                        if p_min <= x[0] <= p_max and _type_rank(x[1]) <= rank_max)
            for kind, cases in DOCUMENTED_ANOMALIES.items()}


def _scan_types(rank_max):
    out = [RootSystemType("A", n) for n in range(2, rank_max + 1)]
    out += [RootSystemType("D", n) for n in range(4, rank_max + 1)]
    out += [RootSystemType("E", n) for n in (6, 7, 8) if n <= rank_max]
    return out


@dataclass(frozen=True)
class EnumerationResult:
    p_min: int
    p_max: int
    rank_max: int
    rows: dict                      # p -> tuple of type strings that pass
    k_half: tuple = ()              # types passing at k = 1/2 (no finite p)

    def as_dict(self):
        d = {
            "p_min": self.p_min,
            "p_max": self.p_max,
            "rank_max": self.rank_max,
            "rows": {str(p): list(v) for p, v in sorted(self.rows.items())},
        }
        if self.k_half:
            d["k_half"] = list(self.k_half)
        return d


def enumerate_solutions(p_min=3, p_max=100, rank_max=13, include_k_half=False):
    """Evaluate the conditions for every type and p in range; emits the rows
    with at least one passing type.  Monotone in p_max by construction."""
    if not (3 <= p_min <= p_max):
        raise ValueError(f"need 3 <= p_min <= p_max, got {p_min}, {p_max}")
    tables = [(str(t), _table(t)) for t in _scan_types(rank_max)]
    rows = {}
    for p in range(p_min, p_max + 1):
        k = k_from_p(p)
        passing = tuple(name for name, table in tables
                        if table.passes(k.numerator, k.denominator))
        if passing:
            rows[p] = passing
    k_half = ()
    if include_k_half:
        k_half = tuple(name for name, table in tables if table.passes(1, 2))
    return EnumerationResult(
        p_min=p_min, p_max=p_max, rank_max=rank_max, rows=rows, k_half=k_half)


def table_diff(result):
    """Symmetric difference of the enumeration against the reference table.

    extra: enumerated but not in the table; missing: in the table but not
    enumerated.  Only table entries in the scanned p and rank range count.
    The expected output is exactly the documented anomalies in that range.
    """
    extra, missing = [], []
    for p in sorted(set(result.rows) | set(KNOWN_TABLE)):
        if not (result.p_min <= p <= result.p_max):
            continue
        got = set(result.rows.get(p, ()))
        want = {t for t in KNOWN_TABLE.get(p, ()) if _type_rank(t) <= result.rank_max}
        extra.extend((p, t) for t in sorted(got - want))
        missing.extend((p, t) for t in sorted(want - got))
    return {"extra": tuple(extra), "missing": tuple(missing)}


# ---------------------------------------------------------------------------
# weight vectors on the projective line (n+3 points)

@dataclass(frozen=True)
class DMVector:
    mu: tuple
    degenerate: bool

    @property
    def total(self):
        return sum(self.mu)

    def as_dict(self):
        return {
            "mu": [format_rational(m) for m in self.mu],
            "degenerate": self.degenerate,
        }


def dm_mu_vector(n, k):
    """Weights mu_1 = ... = mu_{n+1} = k, mu_0 = mu_{n+2} = 1 - (n+1)k/2.

    The total is identically 2; entries outside the open interval (0, 1) set
    the degenerate flag instead of failing silently.
    """
    k = Fraction(k)
    end = 1 - (n + 1) * k / 2
    mu = (end,) + (k,) * (n + 1) + (end,)
    degenerate = any(not (0 < m < 1) for m in mu)
    return DMVector(mu=mu, degenerate=degenerate)


def dm_conditions(vec):
    """Pair conditions: mu_i + mu_j < 1 implies 1 - mu_i - mu_j is in 1/N for
    distinct weights and in 2/N for equal weights.

    Degenerate vectors are rejected: the hypotheses require all weights in
    (0, 1).  Returns (verdict, per-pair reports).
    """
    if vec.degenerate:
        raise ValueError("degenerate weight vector: entries must lie in (0, 1)")
    mu = vec.mu
    reports = []
    ok = True
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            s = mu[i] + mu[j]
            if s >= 1:
                reports.append(((i, j), "vacuous", True))
                continue
            val = 1 - s
            good = is_in_two_over_n(val) if mu[i] == mu[j] else is_unit_fraction(val)
            reports.append(((i, j), format_rational(val), good))
            ok = ok and good
    return ok, reports


def dm_w_restricted(n, k):
    """The three pair conditions seen by the subgroup S_{n+1} x S_2 of the
    full symmetric group: consecutive-middle, end-middle and end-end pairs.

    Index classes {1..n+1} and {0, n+2} are distinct orbits, so the end-middle
    pair uses the 1/N branch even when the weight values coincide.
    """
    k = Fraction(k)
    toric_val = (n - 1) * k / 2       # 1 - mu_0 - mu_1
    mirror_val = (1 - 2 * k) / 2      # (1 - mu_1 - mu_{n+1})/2
    ident_val = ((n + 1) * k - 1) / 2  # (1 - mu_0 - mu_{n+2})/2
    conds = [
        ("end_middle", toric_val,
         is_unit_fraction(toric_val) if toric_val > 0 else True),
        ("middle_middle", mirror_val, conditional_unit_fraction(mirror_val)),
        ("end_end", ident_val, conditional_unit_fraction(ident_val)),
    ]
    return all(c[2] for c in conds), conds


def hidden_symmetry(n, k):
    """True when the end weights equal the middle weights: k = 2/(n+3)."""
    return Fraction(k) == Fraction(2, n + 3)


def dm_equivalence_scan(n_max=10, p_max=60):
    """For every rank n <= n_max and reflection order p <= p_max: check the
    three displayed identities exactly, compare the subgroup-restricted weight
    verdict against the A_n stratum check on non-degenerate vectors, and flag
    the hidden-symmetry solutions.
    """
    if n_max > 10 or p_max > 60:
        raise ValueError("scan bounds exceed the supported (10, 60) range")
    rows = []
    hidden = []
    for n in range(2, n_max + 1):
        table = _table(RootSystemType("A", n))
        for p in range(3, p_max + 1):
            k = k_from_p(p)
            vec = dm_mu_vector(n, k)
            mu0, mu1, mun1, mun2 = vec.mu[0], vec.mu[1], vec.mu[n + 1], vec.mu[n + 2]
            identities_ok = (
                1 - mu0 - mu1 == (n - 1) * k / 2
                and (1 - mu1 - mun1) / 2 == (1 - 2 * k) / 2
                and (1 - mu0 - mun2) / 2 == ((n + 1) * k - 1) / 2
            )
            dm_ok, _ = dm_w_restricted(n, k)
            an_ok = table.passes(k.numerator, k.denominator)
            agree = None if vec.degenerate else (dm_ok == an_ok)
            sym = hidden_symmetry(n, k)
            if sym and not vec.degenerate and dm_ok and an_ok:
                hidden.append((p, n))
            rows.append({
                "n": n, "p": p, "k": format_rational(k),
                "identities_ok": identities_ok,
                "degenerate": vec.degenerate,
                "dm_verdict": dm_ok,
                "an_verdict": an_ok,
                "agree": agree,
                "mu_symmetric": sym,
            })
    return {"rows": rows, "hidden_symmetry_cases": tuple(hidden)}
