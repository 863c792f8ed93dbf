"""Structured outcome of a single identity check."""

from __future__ import annotations

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


def exact(identity: str, instance: dict, lhs, rhs, mode: str = "symbolic", witness=lambda lhs, rhs: str(lhs - rhs)) -> VerificationReport:
    """Compare two exact sides with ==, in either mode; witness(lhs, rhs) runs only on a failure."""
    check_mode(mode)
    if lhs == rhs:
        return passed(identity, instance, mode)
    return failed(identity, instance, witness(lhs, rhs), mode)
