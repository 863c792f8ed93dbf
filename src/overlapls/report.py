"""Structured outcome of a single identity check, and exact, the one comparison of two exact sides.

The sides that exact compares are coefficient maps (dicts keyed by
exponent vectors, or by tuples of them) or ring elements; a failure's
witness lists the map entries that differ, or prints lhs - rhs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"
# The verification modes, the first being the default.
MODES = ("symbolic", "grid")


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class VerificationReport:
    """One identity check: what was checked, on which instance, and the verdict.

    A fail always carries a nonzero witness (the difference polynomial, an
    evaluation point, or a reason string); inapplicable carries the violated
    precondition.
    """

    identity: str
    instance: dict = field(default_factory=dict)
    mode: str = "symbolic"
    outcome: str = PASS
    witness: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome == PASS

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL

    @property
    def inapplicable(self) -> bool:
        return self.outcome == INAPPLICABLE

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "instance": self.instance,
            "mode": self.mode,
            "outcome": self.outcome,
            "witness": self.witness,
        }


def passed(identity: str, instance: dict, mode: str = "symbolic") -> VerificationReport:
    return VerificationReport(identity, instance, mode, PASS, "")

def failed(identity: str, instance: dict, witness: str, mode: str = "symbolic") -> VerificationReport:
    return VerificationReport(identity, instance, mode, FAIL, witness)

def inapplicable(identity: str, instance: dict, reason: str, mode: str = "symbolic") -> VerificationReport:
    return VerificationReport(identity, instance, mode, INAPPLICABLE, reason)


def exact(identity: str, instance: dict, lhs, rhs, mode: str = "symbolic") -> VerificationReport:
    """Compare two exact sides with ==, in either mode.

    The witness is built only on a failure: coefficients_differ when the
    sides are coefficient maps, str(lhs - rhs) otherwise.
    """
    check_mode(mode)
    if lhs == rhs:
        return passed(identity, instance, mode)
    witness = coefficients_differ(lhs, rhs) if isinstance(lhs, dict) else str(lhs - rhs)
    return failed(identity, instance, witness, mode)


def coefficients_differ(lhs: dict, rhs: dict) -> str:
    """Witness of two coefficient maps: the entries that differ, by key, the lhs entry first.

    Coefficients may be polynomials, which have no order, so only the keys
    are sorted, and each coefficient is printed with str.
    """
    diff = [(k, c) for k, c in lhs.items() if rhs.get(k) != c]
    diff += [(k, c) for k, c in rhs.items() if lhs.get(k) != c]
    diff.sort(key=operator.itemgetter(0))
    return "coefficients differ: [" + ", ".join(f"({k!r}, {c})" for k, c in diff) + "]"
