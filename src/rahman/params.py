"""Parameter intake, validation, and every derived constant.

Four nonzero rationals p1..p4 drive the whole construction.  A handful
of their combinations occur as denominators throughout the formulas, so
those combinations are forbidden; ``validate`` enumerates exactly that
list and names the first offender.

Every derived constant is homogeneous of degree 0 in p1..p4, so both
work on the cleared integers P_i = p_i * L (L > 0 the lcm of the
denominators), and ``derive`` builds each constant as one Fraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .scalars import Rational, exact_rational, over_common_denominator, parse_rational

__all__ = [
    "ParameterSet",
    "DerivedParams",
    "ValidationError",
    "validate",
    "derive",
    "load_params_file",
]


class ValidationError(ValueError):
    """A forbidden parameter combination (zero denominator).

    ``expression`` names the combination that vanished, e.g. "p1+p2".
    """

    def __init__(self, expression: str):
        self.expression = expression
        super().__init__(f"zero denominator: {expression} = 0")


@dataclass(frozen=True)
class ParameterSet:
    """Four exact rationals.  Each field is stored as a Fraction; a float
    or bool raises ValueError, since it would carry round-off (or a
    truth value) into every derived constant."""

    p1: Rational
    p2: Rational
    p3: Rational
    p4: Rational

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4"):
            object.__setattr__(self, name, exact_rational(getattr(self, name), name))

    @classmethod
    def of(cls, p1, p2, p3, p4) -> "ParameterSet":
        return cls(p1, p2, p3, p4)

    def as_tuple(self):
        return (self.p1, self.p2, self.p3, self.p4)

    def dual(self) -> "ParameterSet":
        """Swap p2 and p3: the parameters whose plain side is this tilde side."""
        return ParameterSet(self.p1, self.p3, self.p2, self.p4)


@dataclass(frozen=True)
class DerivedParams:
    """All constants derived from a valid ParameterSet.

    ``eta`` and ``eta_t`` are the two weight triples (each sums to 1 and
    starts with 1/nu), and the properties ``k`` = nu eta_t and ``k_t`` =
    nu eta are read off them; ``theta`` and ``theta_t`` are the two basis
    normalization scalars with theta * theta_t = nu.
    """

    t: Rational
    u: Rational
    v: Rational
    w: Rational
    nu: Rational
    eta: tuple
    eta_t: tuple
    theta: Rational
    theta_t: Rational

    @property
    def k(self) -> tuple:
        return tuple(self.nu * e for e in self.eta_t)

    @property
    def k_t(self) -> tuple:
        return tuple(self.nu * e for e in self.eta)

    def dual(self) -> "DerivedParams":
        """The constants of the dual parameters, by swapping fields.

        derive(p.dual()) == derive(p).dual().  Nothing is derived again,
        so a corrupted constant stays corrupted on the dual.
        """
        return replace(
            self,
            u=self.v,
            v=self.u,
            eta=self.eta_t,
            eta_t=self.eta,
            theta=self.theta_t,
            theta_t=self.theta,
        )


def _cleared(p: ParameterSet) -> tuple:
    """(P1, P2, P3, P4); raise ValidationError on the first vanishing
    combination (L > 0, so it vanishes where that of the p_i does)."""
    (P1, P2, P3, P4), _ = over_common_denominator(p.as_tuple())
    checks = [
        (P1, "p1"),
        (P2, "p2"),
        (P3, "p3"),
        (P4, "p4"),
        (P1 + P2, "p1+p2"),
        (P1 + P3, "p1+p3"),
        (P2 + P4, "p2+p4"),
        (P3 + P4, "p3+p4"),
        (P1 + P2 + P3 + P4, "p1+p2+p3+p4"),
        (P1 * P4 - P2 * P3, "p1p4-p2p3"),
    ]
    for value, name in checks:
        if value == 0:
            raise ValidationError(name)
    return P1, P2, P3, P4


def validate(p: ParameterSet):
    """Raise ValidationError on the first vanishing denominator, else return p.

    The forbidden combinations are: any p_i = 0; the pair sums p1+p2,
    p1+p3, p2+p4, p3+p4; the total p1+p2+p3+p4; and the determinant
    p1*p4 - p2*p3.
    """
    _cleared(p)
    return p


def derive(p: ParameterSet) -> DerivedParams:
    """Compute every derived constant from a validated parameter set."""
    P1, P2, P3, P4 = _cleared(p)
    total = P1 + P2 + P3 + P4
    det = P2 * P3 - P1 * P4  # nonzero by validation
    a, b, c, dd = P1 + P2, P1 + P3, P2 + P4, P3 + P4
    nu = Fraction(a * b * c * dd, det * det)
    eta0 = 1 / nu
    return DerivedParams(
        t=Fraction(a * b, P1 * total),
        u=Fraction(b * dd, P3 * total),
        v=Fraction(a * c, P2 * total),
        w=Fraction(c * dd, P4 * total),
        nu=nu,
        eta=(eta0, Fraction(P1 * P2 * total, a * b * c), Fraction(P3 * P4 * total, b * c * dd)),
        eta_t=(eta0, Fraction(P1 * P3 * total, a * b * dd), Fraction(P2 * P4 * total, a * c * dd)),
        theta=Fraction(b * c, det),
        theta_t=Fraction(a * dd, det),
    )


class _Number(str):
    """A JSON number with a fraction or an exponent, as written."""
    __repr__ = str.__str__


def load_params_file(path) -> tuple:
    """Read a JSON parameter file: {"p": ["1","2","3","5"], "N": 4}.

    Returns (ParameterSet, N), N None if absent.  A "p" entry is a JSON
    string or a number read from its own text, as ``--p`` reads it; any
    other shape, or an N that is not a nonnegative JSON integer, raises ValueError.
    """
    with open(path) as handle:
        try:
            data = json.load(handle, parse_float=_Number)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or "p" not in data:
        raise ValueError('expected a JSON object with a "p" list')
    if not isinstance(data["p"], list):
        raise ValueError('"p" must be a list of 4 rationals')
    for x in data["p"]:
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            kind = {list: "an array", dict: "an object"}.get(type(x)) or json.dumps(x)
            raise ValueError(f'"p" entries must be JSON strings or numbers, got {kind}')
    values = [parse_rational(str(x)) for x in data["p"]]
    if len(values) != 4:
        raise ValueError(f"expected 4 parameters, got {len(values)}")
    n = data.get("N")
    if n is not None:
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"N must be an integer, got {n!r}")
        if n < 0:
            raise ValueError("N must be nonnegative")
    return ParameterSet(*values), n
