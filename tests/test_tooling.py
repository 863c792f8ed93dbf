"""The package's memo list, its hand-written verdicts, the code-line counter of scripts/code_lines.py and scripts/bench_pairs.py."""

import ast
import importlib
import importlib.util
import pkgutil
import subprocess
from pathlib import Path

import overlapls

ROOT = Path(__file__).resolve().parent.parent

# Every memo the package keeps, by module and qualified name.  Each one has
# traffic on the verify workloads; adding a memo means adding it here.
KEPT_MEMOS = {
    "alternants.ls_alternant",
    "alternants.ls_alternant_xy",
    "polyring.VarSeq.splits",
    "polyring.VarSeq.terms",
    "schur._ls_strips",
    "schur._y_peel",
    "schur.kostka_map",
    "schur.schur_ssyt",
}


def package_memos() -> dict:
    """Every memoized function of overlapls, module functions and methods alike: each object with cache_info."""
    found = {}
    for info in pkgutil.iter_modules(overlapls.__path__):
        module = importlib.import_module(f"overlapls.{info.name}")
        for value in vars(module).values():
            for f in [value, *(vars(value).values() if isinstance(value, type) else ())]:
                if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                    found[f"{info.name}.{f.__qualname__}"] = f
    return found


def test_memos_are_the_kept_list():
    assert set(package_memos()) == KEPT_MEMOS


# Every function outside report.py that writes its own pass/fail verdict
# instead of comparing two exact sides through report.exact; adding one
# means adding it here.
HAND_WRITTEN_VERDICTS = {
    "identities._conclude",  # the grid loop over spot points, and the walk-split "terms differ" witness
}


def verdict_sites() -> set:
    """module.function of each top-level function or class of src/overlapls that calls report.passed or report.failed."""
    found = set()
    for path in sorted((ROOT / "src" / "overlapls").glob("*.py")):
        if path.name == "report.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("passed", "failed")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "report"
                ):
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_hand_written_verdicts_are_the_kept_list():
    assert verdict_sites() == HAND_WRITTEN_VERDICTS


def _code_lines_module():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string, not a docstring
# this line is text"""
        return os.sep + text
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    # counted: import, class, def, the two lines of the string, return
    assert _code_lines_module().code_lines(SAMPLE) == 6


def test_code_lines_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert _code_lines_module().main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    6  a.py\n    1  b.py\n    7  total\n"


def _bench_pairs_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_made_up_runs():
    parent_ops, change_ops = [100, 140, 120, 110, 130], [105, 150, 125, 108, 135]
    parent_ms, change_ms = [1.0, 1.0, 1.0, 1.0, 1.0], [0.9, 1.0, 1.1, 0.8, 1.0]
    pairs = [
        {"seed": seed, "parent": {"ops_per_s": po, "op_p50_ms": pm}, "change": {"ops_per_s": co, "op_p50_ms": cm}}
        for seed, po, co, pm, cm in zip(range(1, 6), parent_ops, change_ops, parent_ms, change_ms)
    ]
    got = _bench_pairs_module().summary(pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    assert got["ops_per_s"] == {
        "parent": {"median": 120, "q1": 110, "q3": 130},
        "change": {"median": 125, "q1": 108, "q3": 135},
        "change_wins": 4,
        "pairs": 5,
    }
    # lower is better here, and the two ties are no wins
    assert got["op_p50_ms"]["change_wins"] == 2
    assert got["op_p50_ms"]["change"] == {"median": 1.0, "q1": 0.9, "q3": 1.0}


def test_bench_pairs_quartiles_and_seeds():
    module = _bench_pairs_module()
    # inclusive quartiles interpolate between the values: q1 lies three quarters of the way from 1 to 4
    assert module.quartiles([1, 4, 5, 9]) == {"median": 4.5, "q1": 3.25, "q3": 6.0}
    assert module.quartiles([7]) == {"median": 7, "q1": 7, "q3": 7}
    assert module.parse_seeds("1-3,7,11-12") == [1, 2, 3, 7, 11, 12]


def test_bench_pairs_names_the_checkouts(tmp_path, monkeypatch):
    # git looks for no tree above tmp_path, wherever the temporary directories lie
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    module = _bench_pairs_module()
    plain = tmp_path / "plain"
    plain.mkdir()
    assert module.checkout_info(plain) == {"path": str(plain.resolve()), "head": None, "dirty": None}

    tree = tmp_path / "tree"
    tree.mkdir()
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tree, check=True)
    (tree / "a.txt").write_text("one\n")
    subprocess.run([*git, "add", "a.txt"], cwd=tree, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one"], cwd=tree, check=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True).stdout.strip()
    assert module.checkout_info(tree) == {"path": str(tree.resolve()), "head": head, "dirty": False}
    (tree / "a.txt").write_text("two\n")
    assert module.checkout_info(tree) == {"path": str(tree.resolve()), "head": head, "dirty": True}
