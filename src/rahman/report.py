"""Structured pass/fail reports shared by all verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import format_rational

__all__ = ["Report"]


@dataclass
class Report:
    """One verifier's outcome: its name, its checks, its first failure.

    As a context manager it records a ValueError or ArithmeticError raised
    by the checks (say NotTraceless on corrupted constants) as one failed
    check, so the verifier returns a failing Report instead of raising.
    """

    name: str
    checked: int = 0
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        data = {"name": self.name, "status": self.status, "checked": self.checked}
        if self.first_failure is not None:
            data["first_failure"] = self.first_failure
        return data

    def __enter__(self) -> "Report":
        return self

    def __exit__(self, kind, error, traceback) -> bool:
        if kind is None or not issubclass(kind, (ValueError, ArithmeticError)):
            return False
        self.check(False, f"raised {kind.__name__}: {error}")
        return True

    def check(self, condition: bool, describe) -> None:
        """Record one check; ``describe`` is a string or a thunk for one."""
        self.checked += 1
        if not condition and self.first_failure is None:
            self.first_failure = describe() if callable(describe) else describe

    def equal(self, left, right, context) -> None:
        """Record left == right; ``context`` is a string or a thunk for one."""
        self.check(left == right, lambda: _mismatch(context, left, right))

    def equal_over(self, left: int, right: int, den: int, context) -> None:
        """``equal`` on left/den and right/den, compared as integers; the
        Fractions are built only to describe a failure."""
        self.check(
            left == right,
            lambda: _mismatch(context, Fraction(left, den), Fraction(right, den)),
        )


def _mismatch(context, left, right) -> str:
    if callable(context):
        context = context()
    return f"{context}: {_text(left)} != {_text(right)}"


def _text(value) -> str:
    """``repr(value)``; a value whose repr exceeds Python's int-to-str digit
    limit is printed exactly as "num/den" if it is rational, and named by
    its type otherwise."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            return format_rational(value)
        return f"<{type(value).__name__} past the digit limit>"
