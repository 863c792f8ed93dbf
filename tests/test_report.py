"""report.exact, the one exact comparison of two sides."""

import pytest

from overlapls import report
from overlapls.polyring import MultiPoly


def test_labels_symbolic_by_default():
    r = report.exact("ident", {"n": 1}, 2, 2)
    assert (r.identity, r.instance, r.mode, r.outcome, r.witness) == ("ident", {"n": 1}, "symbolic", "pass", "")


def test_witness_is_built_only_on_a_failure(monkeypatch):
    # maps get coefficients_differ, anything else lhs - rhs: each is built for a failure only
    calls = []
    differ = report.coefficients_differ
    monkeypatch.setattr(report, "coefficients_differ", lambda lhs, rhs: calls.append("maps") or differ(lhs, rhs))
    monkeypatch.setattr(MultiPoly, "__sub__", lambda self, other: calls.append("poly") or "x - 1")
    one, x = MultiPoly.var("x", 0), MultiPoly.var("x")
    assert report.exact("ident", {}, {(1,): 2}, {(1,): 2}, "grid").passed
    assert report.exact("ident", {}, x, x, "grid").passed and not calls
    r = report.exact("ident", {}, {(1,): 2, (2,): 1}, {(1,): 3, (2,): 1}, "grid")
    assert (r.outcome, r.mode, r.witness, calls) == ("fail", "grid", "coefficients differ: [((1,), 2), ((1,), 3)]", ["maps"])
    r = report.exact("ident", {}, x, one, "grid")
    assert (r.outcome, r.witness, calls) == ("fail", "x - 1", ["maps", "poly"])


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="unknown mode 'exact'"):
        report.exact("ident", {}, 1, 1, "exact")
