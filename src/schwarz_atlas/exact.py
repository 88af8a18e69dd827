"""Exact rational arithmetic: parsing and formatting of rationals, the coupling
of a reflection order, and the exponent differences of the hypergeometric
equation with their reduction.

Everything in this module is exact; no floats enter or leave.  Rationals are
``fractions.Fraction`` throughout (arbitrary-precision, always in lowest terms
with positive denominator), serialized as "p/q" strings.

The reduction is in closed form: the projective monodromy of the Gauss
equation sees its exponent differences only up to sign changes and integer
shifts with an even sum, the shifts that integer moves of (alpha, beta,
gamma) make (Schwarz 1873; Vidunas, Funkcial. Ekvac. 52, 2009).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExponentTriple",
    "ReductionWitness",
    "parse_rational",
    "format_rational",
    "k_from_p",
    "exponent_differences",
    "reduce_parameters",
]


def parse_rational(text):
    """Parse "p/q" or a plain integer string into a Fraction.

    Decimal notation is rejected on purpose: the stratum conditions are exact
    and must never be fed rounded values.
    """
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise ValueError(f"expected an exact rational like '3/10', got {text!r}")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}") from exc


def format_rational(x):
    """Canonical "p/q" string (plain integer when the denominator is 1)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def k_from_p(p):
    """Solve (1 - 2k)/2 = 1/p for the coupling k, requiring integer p >= 3."""
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 3:
        raise ValueError(f"reflection order p must be >= 3, got {p}")
    return Fraction(p - 2, 2 * p)


@dataclass(frozen=True)
class ExponentTriple:
    """Exponent differences (kappa, lambda, mu) of a second-order Fuchsian scheme."""

    kappa: Fraction
    lam: Fraction
    mu: Fraction

    def as_tuple(self):
        return (self.kappa, self.lam, self.mu)


@dataclass(frozen=True)
class ReductionWitness:
    """Signs and integer shifts applied to the raw differences, in order."""

    signs: tuple
    shifts: tuple


def exponent_differences(alpha, beta, gamma):
    """Raw differences (1 - gamma, gamma - (alpha+beta), beta - alpha)."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return ExponentTriple(1 - gamma, gamma - (alpha + beta), beta - alpha)


def reduce_parameters(alpha, beta, gamma):
    """The canonical reduced member of the exponent-difference class.

    Each raw difference is shifted into [-1/2, 1/2) and then signed, so that
    it lies in [0, 1/2].  When those shifts add up to an odd number, the
    largest entry x (the first on ties, so a 1/2 when there is one) becomes
    1 - x, one more shift away: 1/2 stays 1/2, and any other x keeps the
    triple reduced because the others are at most x.  Every member of a class
    reduces to the same triple, and the witness's shifts add up to an even
    number.  A reduced input with no two entries adding up to 1 comes back
    unchanged, with the identity witness.  On that boundary it may come back
    as another reduced member of its class: (1/10, 1/10, 9/10) comes back as
    (9/10, 1/10, 1/10).
    """
    raw = exponent_differences(alpha, beta, gamma).as_tuple()
    shifts = [-math.floor(d + Fraction(1, 2)) for d in raw]
    signs = [1 if d + s >= 0 else -1 for d, s in zip(raw, shifts)]
    entries = [e * (d + s) for e, d, s in zip(signs, raw, shifts)]
    if sum(shifts) % 2:
        i = entries.index(max(entries))
        entries[i] = 1 - entries[i]
        shifts[i] -= signs[i]
        signs[i] = -signs[i]
    return ExponentTriple(*entries), ReductionWitness(signs=tuple(signs), shifts=tuple(shifts))
