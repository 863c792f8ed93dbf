"""report.exact, the one exact comparison of two sides."""

import pytest

from overlapls import report


def test_labels_symbolic_by_default():
    r = report.exact("ident", {"n": 1}, 2, 2)
    assert (r.identity, r.instance, r.mode, r.outcome, r.witness) == ("ident", {"n": 1}, "symbolic", "pass", "")


def test_witness_is_built_only_on_a_failure():
    calls = []

    def witness(lhs, rhs):
        calls.append((lhs, rhs))
        return "sides differ"

    assert report.exact("ident", {}, 2, 2, "grid", witness).passed and not calls
    r = report.exact("ident", {}, 2, 3, "grid", witness)
    assert (r.outcome, r.mode, r.witness, calls) == ("fail", "grid", "sides differ", [(2, 3)])


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="unknown mode 'exact'"):
        report.exact("ident", {}, 1, 1, "exact")
