"""Exact stratum conditions on the reflection coupling k, the solution-table
enumerator with its embedded reference table, and the (n+3)-point weight-vector
comparator on the projective line.

Everything here is exact rational arithmetic; no floats enter at any point.
The enumerator implements the stated conditions literally, and the diff
against the reference table deliberately surfaces the two boundary anomalies
instead of patching either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    conditional_unit_fraction,
    format_rational,
    is_in_two_over_n,
    is_unit_fraction,
    k_from_p,
)
from .roots import (
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


_SYSTEM_CACHE = {}


def _system(rtype):
    if rtype not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[rtype] = build(rtype)
    return _SYSTEM_CACHE[rtype]


def _as_type(R):
    if isinstance(R, RootSystemType):
        return R
    return R.rtype


def toric_condition(R, k):
    """Toric-stratum conditions: (n-1)k/2 for A_n, d*k per diagram distance d
    for D_n / E_n (duplicate distances recorded once per distinct value)."""
    rtype = _as_type(R)
    k = Fraction(k)
    out = []
    if rtype.family == "A":
        val = (rtype.rank - 1) * k / 2
        out.append(StratumCondition(
            kind="toric_a", value=val, satisfied=is_unit_fraction(val),
            detail=f"(n-1)k/2 with n={rtype.rank}"))
        return out
    seen = set()
    for d in toric_distances(_system(rtype)):
        val = d * k
        if val in seen:
            continue
        seen.add(val)
        out.append(StratumCondition(
            kind="toric_de", value=val, satisfied=is_unit_fraction(val),
            detail=f"d*k with d={d}"))
    return out


def mirror_identity_condition(R, k):
    """Mirror-stratum and identity-point conditions, both under the 'if > 0'
    guard: (1-2k)/2 and (hk-1)/2 with h the Coxeter number."""
    rtype = _as_type(R)
    k = Fraction(k)
    h = coxeter_number(_system(rtype))
    mirror_val = (1 - 2 * k) / 2
    ident_val = (h * k - 1) / 2
    return [
        StratumCondition(
            kind="mirror", value=mirror_val,
            satisfied=conditional_unit_fraction(mirror_val),
            vacuous=mirror_val <= 0, detail="(1-2k)/2"),
        StratumCondition(
            kind="identity", value=ident_val,
            satisfied=conditional_unit_fraction(ident_val),
            vacuous=ident_val <= 0, detail=f"(hk-1)/2 with h={h}"),
    ]


def special_point_condition(R, k):
    """Extra conditions at the special boundary points of E7 and E8.

    E7 contributes (8k-1)/2; E8 contributes (9k-1) -- not halved -- and
    (14k-1)/2.  All are guarded by 'if > 0'; other types contribute nothing.
    """
    rtype = _as_type(R)
    k = Fraction(k)
    out = []
    specs = []
    if rtype.family == "E" and rtype.rank == 7:
        specs = [("special_a7_in_e7", (8 * k - 1) / 2, "(8k-1)/2")]
    elif rtype.family == "E" and rtype.rank == 8:
        specs = [
            ("special_a8_in_e8", 9 * k - 1, "(9k-1)"),
            ("special_d8_in_e8", (14 * k - 1) / 2, "(14k-1)/2"),
        ]
    for kind, val, detail in specs:
        out.append(StratumCondition(
            kind=kind, value=val, satisfied=conditional_unit_fraction(val),
            vacuous=val <= 0, detail=detail))
    return out


def hyperbolic_range(R, k):
    """0 < k < m, exact; k = m is flagged as the boundary case."""
    rtype = _as_type(R)
    k = Fraction(k)
    m = hyperbolic_exponent(_system(rtype))
    boundary = k == m
    return StratumCondition(
        kind="hyperbolic_range", value=k, satisfied=Fraction(0) < k < m,
        detail=f"0 < k < {format_rational(m)}" + (" (boundary k = m)" if boundary else ""))


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
    reports: tuple = field(repr=False)
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
    types = _scan_types(rank_max)
    rows = {}
    reports = []
    for p in range(p_min, p_max + 1):
        k = k_from_p(p)
        passing = []
        for rtype in types:
            rep = check(rtype, k)
            reports.append(rep)
            if rep.passed:
                passing.append(str(rtype))
        if passing:
            rows[p] = tuple(passing)
    k_half = ()
    if include_k_half:
        half = Fraction(1, 2)
        k_half = tuple(str(t) for t in types if check(t, half).passed)
    return EnumerationResult(
        p_min=p_min, p_max=p_max, rank_max=rank_max, rows=rows,
        reports=tuple(reports), k_half=k_half,
    )


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
        rtype = RootSystemType("A", n)
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
            an_report = check(rtype, k)
            agree = None if vec.degenerate else (dm_ok == an_report.passed)
            sym = hidden_symmetry(n, k)
            if sym and not vec.degenerate and dm_ok and an_report.passed:
                hidden.append((p, n))
            rows.append({
                "n": n, "p": p, "k": format_rational(k),
                "identities_ok": identities_ok,
                "degenerate": vec.degenerate,
                "dm_verdict": dm_ok,
                "an_verdict": an_report.passed,
                "agree": agree,
                "mu_symmetric": sym,
            })
    return {"rows": rows, "hidden_symmetry_cases": tuple(hidden)}
