import json
import random

import pytest

from eclc import scenarios, serialize_scenario
from eclc.cli import main
from gen import random_config

THREE_WORLDS = """scenario coherence
world w1 { energy=10.0, kappa=0.0, lambda=4 }
world w2 { energy=10.0, kappa=1.0, lambda=4 }
world w3 { energy=10.0, kappa=2.0, lambda=4 }
edge w1 -> w2 { deltaE=1.0 }
edge w2 -> w3 { deltaE=1.0 }
prop w1 : E
"""


@pytest.fixture
def three_worlds(tmp_path):
    path = tmp_path / "three.eclc"
    path.write_text(THREE_WORLDS)
    return path


class TestValidate:
    def test_ok(self, three_worlds, capsys):
        assert main(["validate", str(three_worlds)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK: 3 worlds, 2 edges")

    def test_semantic_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.eclc"
        path.write_text("world w1 { energy=1.0, kappa=0.0, lambda=1 }\nedge w1 -> zz { deltaE=1.0 }\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2:" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.eclc")]) == 1

    def test_undecodable_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.eclc"
        path.write_bytes(b"world w1 \xff\n")
        for command in ("validate", "fit"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_shipped_corpus_validates(self, capsys):
        for name in scenarios.NAMES:
            assert main(["validate", str(scenarios.path(name))]) == 0


class TestProve:
    def test_proved_prints_tree(self, capsys):
        code = main(["prove", str(scenarios.path("coherence")), "--sequent", "collapse", "--world", "w1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("lolli-left")
        assert "cost: gamma=" in out

    def test_depth_failure_exits_one(self, tmp_path, capsys):
        text = scenarios.read("coherence").replace(
            "world w1 { energy=92.0, kappa=0.0, lambda=8 }",
            "world w1 { energy=92.0, kappa=0.0, lambda=1 }",
        )
        path = tmp_path / "tight.eclc"
        path.write_text(text)
        assert main(["prove", str(path), "--sequent", "collapse", "--world", "w1"]) == 1
        assert "depth_exceeded" in capsys.readouterr().out

    def test_unknown_sequent_is_usage_error(self, capsys):
        assert main(["prove", str(scenarios.path("coherence")), "--sequent", "zzz", "--world", "w1"]) == 2

    def test_unknown_world_is_usage_error(self, capsys):
        assert main(["prove", str(scenarios.path("coherence")), "--sequent", "collapse", "--world", "zz"]) == 2

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["prove", str(scenarios.path("coherence"))]) == 2


class TestRun:
    def test_coherence_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenarios.path("coherence")), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
        per_world = (out / "per_world.csv").read_text().splitlines()
        assert len(per_world) == 4  # header + three worlds
        summary = capsys.readouterr().out.splitlines()[0]
        assert "rate=" in summary

    def test_reciprocity_row_count(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenarios.path("reciprocity")), "--out", str(out)]) == 0
        assert len((out / "trials.csv").read_text().splitlines()) == 101

    def test_json_only(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenarios.path("coherence")), "--out", str(out), "--format", "json"]) == 0
        assert (out / "report.json").exists()
        assert not (out / "per_world.csv").exists()
        assert not (out / "trials.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", str(scenarios.path("reciprocity")), "--out", str(out)]) == 0
        for name in ("report.json", "per_world.csv", "trials.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_flag_overrides_file_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenarios.path("reciprocity")), "--seed", "123", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 123

    def test_trials_override(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(scenarios.path("reciprocity")), "--trials", "10", "--out", str(out)]) == 0
        assert len((out / "trials.csv").read_text().splitlines()) == 21

    def test_env_seed_lowest_precedence(self, tmp_path, capsys, monkeypatch):
        bare = tmp_path / "bare.eclc"
        bare.write_text(
            "\n".join(
                line for line in scenarios.read("reciprocity").splitlines() if not line.startswith("seed")
            )
        )
        out = tmp_path / "out"
        monkeypatch.setenv("ECLC_SEED", "77")
        assert main(["run", str(bare), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 77
        # file seed beats the environment
        out2 = tmp_path / "out2"
        assert main(["run", str(scenarios.path("reciprocity")), "--out", str(out2)]) == 0
        assert json.loads((out2 / "report.json").read_text())["seed"] == 9

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        bare = tmp_path / "bare.eclc"
        bare.write_text(
            "\n".join(
                line for line in scenarios.read("reciprocity").splitlines() if not line.startswith("seed")
            )
        )
        monkeypatch.setenv("ECLC_SEED", "not-a-number")
        assert main(["run", str(bare), "--out", str(tmp_path / "out")]) == 1

    def test_unwritable_out_exits_one(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("a file, not a directory\n")
        assert main(["run", str(scenarios.path("coherence")), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_no_partial_output_on_config_error(self, tmp_path, capsys):
        # a coherence config whose frame is not a chain fails before any write
        path = tmp_path / "branchy.eclc"
        path.write_text(
            "scenario coherence\n"
            "world a { energy=1.0, kappa=0.0, lambda=1 }\n"
            "world b { energy=1.0, kappa=0.0, lambda=1 }\n"
            "world c { energy=1.0, kappa=0.0, lambda=1 }\n"
            "edge a -> b { deltaE=0.0 }\nedge a -> c { deltaE=0.0 }\n"
            "prop a : E\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert not out.exists()

    def test_parse_error_exits_before_writing(self, tmp_path, capsys):
        path = tmp_path / "broken.eclc"
        path.write_text("world w1 { energy=-3.0, kappa=0.0, lambda=1 }\n")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert not out.exists()


# Edits that reach the lexer's non-ASCII cases, undecodable bytes and
# formulas nested past the parser's bound.
FUZZ_PIECES = (
    "é", "²", "٣", "⊗", "⊸", b"\xff", "(" * 300, "!" * 300,
    "(", ")", "{", "}", "=", ",", "*", "-o", "|-", "->", "#", "\n", " ", "0", ".", "e", "x",
)


class TestNoTraceback:
    def test_mutated_scenario_files(self, tmp_path, capsys):
        rng = random.Random(20_261_018)
        path = tmp_path / "fuzz.eclc"
        for _ in range(300):
            data = serialize_scenario(random_config(rng)).encode()
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(data))
                if rng.random() < 0.7:
                    piece = rng.choice(FUZZ_PIECES)
                    data = data[:at] + (piece if isinstance(piece, bytes) else piece.encode()) + data[at:]
                else:
                    data = data[:at] + data[at + rng.randint(1, 8):]
            path.write_bytes(data)
            assert main(["validate", str(path)]) in (0, 1)


class TestFit:
    def test_with_header(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("kappa,pi\n0,1.0\n1,0.61\n2,0.19\n")
        assert main(["fit", str(path)]) == 0
        assert "rate=0.76315" in capsys.readouterr().out

    def test_without_header(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("0,1.0\n1,0.5\n")
        assert main(["fit", str(path)]) == 0

    def test_degenerate_data(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("0,1.0\n0,0.5\n")
        assert main(["fit", str(path)]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "none.csv")]) == 1


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_format_value(self, capsys):
        assert main(["run", "x.eclc", "--format", "yaml"]) == 2
