import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from overlapls import cli, identities
from overlapls.cli import main, parse_partition
from overlapls.partitions import Partition
from overlapls.render import (
    ferrers_ascii,
    ferrers_svg,
    walk_ascii,
    walk_svg,
)
from overlapls.walks import StaircaseWalk


def parse_walk_ascii(text: str) -> StaircaseWalk:
    """Recover the walk from its ASCII rendering (the 'walk:' line)."""
    for line in text.splitlines():
        if line.startswith("walk: "):
            return StaircaseWalk(line[len("walk: ") :].strip())
    raise ValueError("no walk line found")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, timeout=None, **env):
    """Run the CLI in a subprocess that imports overlapls from src, with extra environment variables.

    A run past timeout seconds raises subprocess.TimeoutExpired.
    """
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "overlapls.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParsePartition:
    def test_basic(self):
        assert parse_partition("9,6,1") == Partition((9, 6, 1))
        assert parse_partition("") == Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(Exception):
            parse_partition("1,2,3")


class TestOverlapCommand:
    def test_intro_instance(self):
        code, out, _ = run_cli("overlap", "--mu", "9,6,1", "--nu", "4,3,3,2", "--m", "3", "--n", "5")
        assert code == 0
        assert json.loads(out) == {"value": [4, 2, 2, 2, 2, 1], "sign": -1}

    def test_empty_inputs(self):
        code, out, _ = run_cli("overlap", "--mu", "", "--nu", "", "--m", "2", "--n", "0")
        assert code == 0
        assert json.loads(out) == {"value": [], "sign": 1}

    def test_infinite_with_witness(self):
        code, out, _ = run_cli(
            "overlap", "--mu", "10,8,1", "--nu", "4,2,2", "--m", "3", "--n", "6",
            "--infinite-witness",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["infinite"] is True
        assert payload["witness"]["labels"] == [4, 2, 3, 1, 1, -1, -1, 0, 0]

    def test_malformed_partition_usage_error(self):
        code, _, err = run_cli("overlap", "--mu", "1,2", "--nu", "", "--m", "2", "--n", "1")
        assert code == 2
        assert "error" in err


class TestEnumerateCommand:
    def test_fiber_count(self):
        code, out, _ = run_cli("enumerate", "pairs", "--lam", "2,1", "--m", "2", "--n", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 6  # C(4, 2)
        for entry in lines:
            assert set(entry) == {"mu", "nu", "sign"}

    def test_empty_lambda_1x1(self):
        code, out, _ = run_cli("enumerate", "pairs", "--lam", "", "--m", "1", "--n", "1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 2

    def test_walk_count_6x3(self):
        code, out, _ = run_cli("enumerate", "walks", "--n", "6", "--m", "3")
        assert code == 0
        assert len(out.splitlines()) == 84

    def test_subpairs(self):
        code, out, _ = run_cli(
            "enumerate", "subpairs", "--kappa", "", "--m", "1", "--n", "1", "--l", "0"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_subpairs_of_a_deep_box(self):
        code, out, err = run_cli(
            "enumerate", "subpairs", "--kappa", "", "--m", "1", "--n", "2000", "--l", "0"
        )
        assert code == 0, err
        assert "2001 items" in err and len(out.splitlines()) == 2001

    def test_oversized_lambda_usage_error(self):
        code, _, _ = run_cli("enumerate", "pairs", "--lam", "1,1,1", "--m", "1", "--n", "1")
        assert code == 2

    def test_rejected_input_leaves_out_file_untouched(self, tmp_path):
        target = tmp_path / "pairs.jsonl"
        target.write_text("kept\n")
        argv = ["enumerate", "pairs", "--lam", "1,1,1", "--m", "1", "--n", "1", "--out", str(target)]
        assert main(argv) == 2
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize("to_file", [False, True])
    def test_lines_are_written_as_produced(self, monkeypatch, capsys, tmp_path, to_file):
        def one_then_fail(n, m):
            yield StaircaseWalk("HV")
            raise ValueError("enumeration stopped")

        monkeypatch.setattr(cli, "enumerate_walks", one_then_fail)
        target = tmp_path / "walks.jsonl"
        argv = ["enumerate", "walks", "--n", "1", "--m", "1"]
        assert main(argv + (["--out", str(target)] if to_file else [])) == 2
        captured = capsys.readouterr()
        written = target.read_text() if to_file else captured.out
        assert written == '{"walk": "HV"}\n'
        assert "error: enumeration stopped" in captured.err


class TestRenderCommand:
    def test_intro_walk_labels(self):
        code, out, _ = run_cli(
            "render", "walk", "VHVHHHVH", "--labels", "4,2,2,2,2,1"
        )
        assert code == 0
        assert "labels: 4,2,2,2,2,1,0,0" in out

    def test_empty_partition(self):
        code, out, _ = run_cli("render", "partition", "")
        assert code == 0
        assert out.strip() == "(empty)"

    def test_walk_roundtrip(self):
        text = walk_ascii(StaircaseWalk("HVVHHHVHH"))
        assert parse_walk_ascii(text) == StaircaseWalk("HVVHHHVHH")

    def test_parse_needs_a_walk_line(self):
        with pytest.raises(ValueError, match="no walk line"):
            parse_walk_ascii(ferrers_ascii(Partition((2, 1))))

    def test_svg_outputs(self):
        svg = ferrers_svg(Partition((3, 1)))
        assert svg.startswith("<svg") and svg.count("<rect") == 4
        svg = walk_svg(StaircaseWalk("HVVHHHVHH"), (7, 4, 3, 3, 3, 1, 0, 0, 0))
        assert svg.startswith("<svg") and "<path" in svg and "<text" in svg

    def test_ascii_partition(self):
        assert ferrers_ascii(Partition((2, 1))) == "[][]\n[]"

    def test_bad_walk_word(self):
        code, _, _ = run_cli("render", "walk", "HXV")
        assert code == 2


# (lines, sha256) of `verify NAME --max-box 3 --vars 5 --mode grid --seed 1`: S u T of up to
# 10 letters, which no other pin reaches; measured while first-overlap-schur was cleared at spot points
SCHUR_GRID_PINS = {
    "first-overlap-schur": (100, "ce72c4bee39ee18ceac147f59934280e4487b573c759ac5583db07f25cced2e9"),
    "second-overlap-schur": (639, "bffe5ca87452ee238ac3b4f3ef039124df3823a4c739a859cfd58b304377f4ed"),
    "labeled-walk-schur": (639, "f10599419532d9810be2c0ff21ae7e863a401af2f26a81989f386b49bb310ffa"),
}

# (lines, sha256) of `verify NAME --max-box 4 --vars 8 --seed 1`, symbolic: the frontier of the two
# dominant-map checks, measured while both still compared two Schur polynomials
DOMINANT_MAP_PINS = {
    "factor-rule": (3858, "2c48d26d86493a950ad748e9d1ce89ab2d278104ab2bfc73053060a4cc344d12"),
    "complement-reciprocity": (1996, "0c19f65d1d3b81c293c8dc9e34f2dec19909daf4eca979587c9f5a2eea0cc183"),
}


class TestVerifyCommand:
    def test_counterexample(self):
        code, out, _ = run_cli("verify", "counterexample")
        assert code == 0
        payload = json.loads(out.splitlines()[0])
        assert payload["outcome"] == "pass"
        assert payload["witness"] == "y1*y2*y3"

    def test_grid_second_overlap_at_seven_vars(self):
        # grid mode evaluates LS at the spot points instead of expanding 9-variable LS polynomials
        code, _, err = run_cli("verify", "second-overlap", "--max-box", "0", "--vars", "7", "--mode", "grid")
        assert code == 0, err

    def test_unknown_name_usage_error(self):
        code, _, _ = run_cli("verify", "nonsense")
        assert code == 2

    def test_determinism(self):
        a = run_cli("verify", "laplace", "--seed", "5")
        b = run_cli("verify", "laplace", "--seed", "5")
        assert a == b and a[0] == 0

    def test_env_seed_fallback(self):
        from_env = run_cli("verify", "laplace", OVERLAP_LS_SEED="5")
        explicit = run_cli("verify", "laplace", "--seed", "5")
        assert from_env[1] == explicit[1]

    def test_env_seed_must_be_an_integer(self):
        code, _, err = run_cli("verify", "laplace", OVERLAP_LS_SEED="abc")
        assert code == 2
        assert err.startswith("error: ") and "OVERLAP_LS_SEED" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["second-overlap-schur", "labeled-walk-schur"])
    def test_union_schur_at_four_vars(self, name):
        # symbolic mode compares alternant coefficients instead of expanding 8-variable products
        code, _, err = run_cli("verify", name, "--max-box", "3", "--vars", "4")
        assert code == 0, err

    def test_main_entry_in_process(self, capsys):
        assert main(["verify", "counterexample"]) == 0
        captured = capsys.readouterr()
        assert "counterexample" in captured.out

    @pytest.mark.parametrize(
        "mode, digest",
        [
            # symbolic: the digest when symbolic split sums were still cleared as polynomials
            pytest.param("symbolic", "b459930ab274e0d958578849ca4025c1ad6f69d39136032732826bc88c1e9399", id="symbolic"),
            # grid: the digest before first-overlap-schur became the X-split sum with Y empty
            pytest.param("grid", "052ebbb86eec896c1fb2b35a88335d681c7a54fa169f4a64249500589ea8e63c", id="grid"),
        ],
    )
    def test_stdout_at_four_vars_is_pinned(self, capsys, mode, digest):
        assert main(["verify", "all", "--max-box", "3", "--vars", "4", "--mode", mode, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 5637
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name", list(SCHUR_GRID_PINS))
    def test_schur_grid_stdout_at_five_vars_is_pinned(self, capsys, name):
        lines, digest = SCHUR_GRID_PINS[name]
        assert main(["verify", name, "--max-box", "3", "--vars", "5", "--mode", "grid", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name", list(DOMINANT_MAP_PINS))
    def test_dominant_map_stdout_at_eight_vars_is_pinned(self, capsys, name):
        lines, digest = DOMINANT_MAP_PINS[name]
        assert main(["verify", name, "--max-box", "4", "--vars", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "walks", "--n", "-1", "--m", "2"),
        ("enumerate", "subpairs", "--kappa", "", "--m", "1", "--n", "-1", "--l", "0"),
        ("enumerate", "subpairs", "--kappa", "", "--m", "-1", "--n", "1", "--l", "1"),
        ("render", "walk", "HV", "--labels", "5,4,3"),
        ("verify", "first-overlap", "--max-box", "0", "--vars", "0"),
        ("verify", "all", "--max-box", "-1", "--vars", "1"),
        ("verify", "all", "--max-box", "1", "--vars", "-1"),
        ("verify", "dual-cauchy", "--max-box", "0", "--vars", "9", "--mode", "grid"),
        ("verify", "nope"),
        ("overlap", "--mu", "", "--nu", "", "--m", "-1", "--n", "2"),
    ],
)
def test_bad_input_is_usage_error(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    exact = {
        ("verify", "nope"): "error: unknown verifier 'nope'\n",
        ("overlap", "--mu", "", "--nu", "", "--m", "-1", "--n", "2"): (
            "error: rectangle dimensions must be non-negative\n"
        ),
    }
    if argv in exact:
        assert err == exact[argv]


def test_dual_cauchy_at_six_variables_finishes():
    # the two-alphabet polynomial expansion grew past 3.5 GB here and did not finish in 150 s
    code, _, err = run_cli("verify", "dual-cauchy", "--max-box", "0", "--vars", "6", "--mode", "grid", timeout=60)
    assert code == 0
    assert err == "49 checks, 0 failed\n"


def _verify_raising(monkeypatch, error):
    """verify with a verifier that raises error: a defect, so it keeps its traceback."""
    def broken(*args, **kwargs):
        raise error("internal defect")

    monkeypatch.setattr(identities, "run_catalog", broken)
    with pytest.raises(error, match="internal defect"):
        main(["verify", "counterexample"])


def test_verifier_value_error_is_not_a_usage_error(monkeypatch):
    _verify_raising(monkeypatch, ValueError)


def test_verifier_key_error_is_not_a_usage_error(monkeypatch):
    _verify_raising(monkeypatch, KeyError)


class TestOutputFile:
    def test_out_flag(self, tmp_path):
        target = tmp_path / "result.json"
        code = main([
            "overlap", "--mu", "9,6,1", "--nu", "4,3,3,2", "--m", "3", "--n", "5",
            "--out", str(target),
        ])
        assert code == 0
        assert json.loads(target.read_text()) == {"value": [4, 2, 2, 2, 2, 1], "sign": -1}

    @pytest.mark.parametrize(
        "argv",
        [
            ("overlap", "--mu", "1", "--nu", "1", "--m", "1", "--n", "1"),
            ("enumerate", "walks", "--n", "1", "--m", "1"),
            ("render", "partition", "2,1"),
            ("verify", "laplace"),
        ],
    )
    def test_unwritable_out_is_usage_error(self, tmp_path, argv):
        target = tmp_path / "missing" / "x"
        code, _, err = run_cli(*argv, "--out", str(target))
        assert code == 2
        assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
