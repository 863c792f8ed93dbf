"""Fixtures shared by the test modules."""

import sys

import pytest


def clear_package_memos():
    """Empty every memo of the package, so that a run builds again each value it would cache."""
    for name, module in list(sys.modules.items()):
        if name == "overlapls" or name.startswith("overlapls."):
            for value in list(vars(module).values()):
                for f in [value, *(vars(value).values() if isinstance(value, type) else ())]:
                    if hasattr(f, "cache_clear"):
                        f.cache_clear()


@pytest.fixture
def fresh_memos():
    """Every memo of the package empty when the test starts and again when it ends.

    A test that refuses or patches a producer must see the producer run, not
    a value cached by an earlier test, and must leave no value built by the
    patched code behind.  Yields clear_package_memos, for a test that
    patches midway.
    """
    clear_package_memos()
    yield clear_package_memos
    clear_package_memos()
