import errno
import glob
import json
import os
import random
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import eclc
from eclc import calculus, cli, observer, parse_scenario, scenarios, serialize_scenario, sim
from eclc.calculus import format_sequent
from eclc.cli import main
from eclc.dsl import parse_formula
from eclc.formula import MAX_FORMULA_NODES
from eclc.sim import ScenarioError, run_scenario, write_report
from gen import extreme_scenario_texts, random_config
from oracles import check_proof
from test_dsl import _shapes
from test_report_pins import accessibility_text

SRC = str(Path(eclc.__file__).resolve().parents[1])

THREE_WORLDS = """scenario coherence
world w1 { energy=10.0, kappa=0.0, lambda=4 }
world w2 { energy=10.0, kappa=1.0, lambda=4 }
world w3 { energy=10.0, kappa=2.0, lambda=4 }
edge w1 -> w2 { deltaE=1.0 }
edge w2 -> w3 { deltaE=1.0 }
prop w1 : E
"""


ZERO_COST_CHAIN = """scenario coherence
alpha = {alpha}
cost * = 0.0
world w1 {{ energy=1.0, kappa=0.0, lambda=4 }}
world w2 {{ energy=1.0, kappa=4.0, lambda=4 }}
world w3 {{ energy=1.0, kappa=4.0, lambda=4 }}
edge w1 -> w2 {{ deltaE=0.0 }}
edge w2 -> w3 {{ deltaE=0.0 }}
prop w1 : A
prop w1 : A
sequent s w1 -> w2 : A |- A
"""


INFINITE_COST_HOP = """scenario coherence
cost A = 1e308
world w0 {{ energy=10.0, kappa=0.0, lambda=4 }}
world w1 {{ energy=10.0, kappa={kappa}, lambda=4 }}
edge w0 -> w1 {{ deltaE=0.0 }}
prop w0 : A * A
prop w0 : B
"""


FLAT_PI_CHAIN = """scenario coherence
cost * = 0.0
world w0 { energy=10.0, kappa=0.5, lambda=4 }
world w1 { energy=10.0, kappa=1.0, lambda=4 }
world w2 { energy=10.0, kappa=2.0, lambda=4 }
edge w0 -> w1 { deltaE=0.0 }
edge w1 -> w2 { deltaE=0.0 }
prop w0 : A
prop w0 : ~Junk
"""


def banged_chain(lam):
    """The bundled accessibility file with !(A * B) at a w0 of capacity ``lam``,
    and that proposition's self-carry declared as the sequent ``carry``."""
    text = scenarios.read("accessibility").replace("prop w0 : Phi", "prop w0 : !(A * B)")
    text = text.replace("world w0 { energy=10.0, kappa=0.0, lambda=8 }", f"world w0 {{ energy=10.0, kappa=0.0, lambda={lam} }}")
    return text + "sequent carry w0 -> w1 : !(A * B) |- !(A * B)\n"


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
        with pytest.raises(KeyError, match="unknown scenario 'nope'; bundled: coherence, reciprocity, accessibility"):
            scenarios.path("nope")


class TestProve:
    def test_proved_prints_tree(self, capsys):
        code = main(["prove", str(scenarios.path("coherence")), "--sequent", "collapse", "--world", "w1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0].startswith("lolli-left")
        assert "cost: gamma=" in out

    def test_cost_line_prints_the_sums_that_decide(self, tmp_path, capsys):
        # kappa-scaled sums of these costs round the other way from the
        # unscaled ones at kappa 0.41, so only the unscaled ones agree with the verdict
        path = tmp_path / "costs.eclc"
        path.write_text(
            "scenario coherence\nalpha = 0.75\ncost A = 0.1\ncost B = 0.2\ncost C = 0.3\n"
            "world w1 { energy=10.0, kappa=0.41, lambda=4 }\n"
            "sequent split w1 -> w1 : C |- A, B\nsequent join w1 -> w1 : A, B |- C\n"
        )
        for name in ("split", "join"):
            main(["prove", str(path), "--sequent", name, "--world", "w1"])
            lines = capsys.readouterr().out.splitlines()
            cost = next(line for line in lines if line.startswith("cost: "))
            assert cost.endswith("(unscaled; these decide cost_valid)")
            gamma, delta = (float(field.split("=")[1]) for field in cost.split()[1:3])
            assert (gamma >= delta) == ("not proved: cost_invalid" not in lines)
            assert any(line.startswith("scaled: gamma=") for line in lines)

    def test_scaled_line_does_not_depend_on_order(self, tmp_path, capsys):
        # summed in written order, A, B, C printed 0.7845 and C, B, A 0.7845000000000001
        path = tmp_path / "orders.eclc"
        path.write_text(
            "scenario coherence\nalpha = 0.75\ncost A = 0.1\ncost B = 0.2\ncost C = 0.3\n"
            "world w1 { energy=10.0, kappa=0.41, lambda=4 }\n"
            "sequent written w1 -> w1 : A, B, C |- C, B, A\nsequent reversed w1 -> w1 : C, B, A |- A, B, C\n"
        )
        scaled = []
        for name in ("written", "reversed"):
            main(["prove", str(path), "--sequent", name, "--world", "w1"])
            scaled += [line for line in capsys.readouterr().out.splitlines() if line.startswith("scaled: ")]
        assert scaled == ["scaled: gamma=0.7845000000000001 delta=0.7845000000000001 (kappa=0.41, alpha=0.75)"] * 2

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

    def test_zero_costs_survive_an_overflowing_surcharge(self, tmp_path, capsys):
        # alpha * kappa overflows to inf at 1e308, and 0 * inf would be a
        # NaN surcharge that no budget covers, so everything would decohere
        outputs = []
        for alpha in ("1e308", "1e300"):
            path = tmp_path / f"zero-{alpha}.eclc"
            path.write_text(ZERO_COST_CHAIN.format(alpha=alpha))
            out = tmp_path / f"out-{alpha}"
            assert main(["run", str(path), "--out", str(out)]) == 0
            outputs.append((out / "per_world.csv").read_text())
            assert json.loads((out / "report.json").read_text())["fit"]["rate"] == 0.0
            assert main(["prove", str(path), "--sequent", "s", "--world", "w2"]) == 0
            assert "nan" not in capsys.readouterr().out
        assert outputs[0] == outputs[1]
        assert [line.split(",")[2] for line in outputs[0].splitlines()[1:]] == ["1.0", "1.0", "1.0"]

    @pytest.mark.parametrize(
        "kappa, pi",
        [("0.0", "pi=[1, 1] (no fit)"), ("1e-300", "pi=[1, 1] (no fit)"), ("1.0", "pi=[1, 0.5] rate=0.693147 r_squared=1")],
    )
    def test_a_flat_hop_carries_an_overflowing_cost(self, tmp_path, capsys, kappa, pi):
        # A * A costs inf, and inf - inf would be a NaN surcharge that no budget
        # covers; a flat hop scales by exactly 1, as does one whose 1 + alpha * kappa
        # rounds to 1, while a curved one still decoheres
        path = tmp_path / "inf.eclc"
        path.write_text(INFINITE_COST_HOP.format(kappa=kappa))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"coherence: {pi}"

    @pytest.mark.parametrize("name", scenarios.NAMES)
    def test_timings_change_no_report_and_no_stdout(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.delenv("ECLC_SEED", raising=False)
        argv = ["run", str(scenarios.path(name)), "--out", str(tmp_path)]
        runs = []
        for extra in ([], ["--timings"]):
            assert main(argv + extra) == 0
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            runs.append((files, *capsys.readouterr()))
        (plain, out, err), (timed, timed_out, timed_err) = runs
        assert len(plain) == 3 and timed == plain
        assert timed_out == out and err == ""
        assert re.fullmatch(r"timings: parse \d+\.\d{6} s, run \d+\.\d{6} s, write \d+\.\d{6} s\n", timed_err)

    def test_flat_chain_has_no_fit(self, tmp_path, capsys):
        # every kappa is 0, so no rate can be fitted
        path = tmp_path / "flat-kappa.eclc"
        path.write_text(re.sub("kappa=[0-9.]+", "kappa=0.0", FLAT_PI_CHAIN))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "coherence: pi=[0.5, 0.5, 0.5] (no fit)"
        assert json.loads((out / "report.json").read_text())["fit"] is None

    def test_non_finite_fit_is_written_null(self, tmp_path, capsys):
        # pi stays 0.5 at every world, so the fit's r_squared is -inf
        path = tmp_path / "flat.eclc"
        path.write_text(FLAT_PI_CHAIN)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert "r_squared=-inf" in capsys.readouterr().out
        fit = json.loads((out / "report.json").read_text(), parse_constant=lambda name: pytest.fail(name))["fit"]
        assert fit["r_squared"] is None

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

    def test_trials_bounded_in_file_and_flag(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("eclc.sim._measure_sequence", no_trials)
        out = tmp_path / "out"
        path = str(scenarios.path("reciprocity"))
        assert main(["run", path, "--trials", "100001", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: trials must be between 1 and 100000\n"
        big = tmp_path / "big.eclc"
        big.write_text(scenarios.read("reciprocity").replace("trials = ", "trials = 100001 #", 1))
        assert main(["run", str(big), "--out", str(out)]) == 1
        assert "trials must be between 1 and 100000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, edits, message",
        [
            ("reciprocity", {"noise = 0.8": "noise = 1e308"}, "11:1: noise must be between 0 and 100"),
            ("reciprocity", {"lambda=12": "lambda=1" + "0" * 400}, "13:36: lambda must be between 1 and 500"),
            ("reciprocity", {"seed = 9": "seed = " + "1" * 5000}, "10:8: seed out of range"),
            (
                "accessibility",
                {"lambda=8 }": "lambda=3000 }", "prop w0 : Phi": "prop w0 : !(A * B)"},
                "12:36: lambda must be between 1 and 500",
            ),
        ],
        ids=["huge-noise", "huge-lambda", "oversized-seed-literal", "deep-search"],
    )
    def test_out_of_range_settings_exit_one(self, tmp_path, capsys, kind, edits, message):
        text = scenarios.read(kind)
        for old, new in edits.items():
            text = text.replace(old, new, 1)
        path = tmp_path / "bad.eclc"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{path}:{message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "props, error",
        [
            (["!Quantum(qA, x)"], "error: no !Quantum(...) tokens declared at 'wA'\n"),
            (["!~Quantum(qA)"], "error: no !Quantum(...) tokens declared at 'wA'\n"),
            (["!Quantum(qA)", "!Quantum(qA, y)"], None),
        ],
        ids=["two-args", "non-coherent", "exact-and-two-args"],
    )
    def test_only_exact_quantum_tokens_are_measured(self, tmp_path, capsys, props, error):
        def write(name, props):
            shipped = "prop wA : !Quantum(qA)\nprop wA : !Quantum(qB)\n"
            text = scenarios.read("reciprocity").replace(shipped, "".join(f"prop wA : {p}\n" for p in props))
            path = tmp_path / name
            path.write_text(text)
            return str(path)

        out = tmp_path / "out"
        if error is not None:
            assert main(["run", write("bad.eclc", props), "--out", str(out)]) == 1
            assert capsys.readouterr().err == error
            assert not out.exists()
            return
        alone = tmp_path / "alone"
        assert main(["run", write("mixed.eclc", props), "--out", str(out)]) == 0
        assert main(["run", write("alone.eclc", ["!Quantum(qA)"]), "--out", str(alone)]) == 0
        assert (out / "trials.csv").read_bytes() == (alone / "trials.csv").read_bytes()

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

    def test_over_long_env_seed_is_cut_short(self, tmp_path, capsys, monkeypatch):
        # a long non-integer is echoed cut short, with its length
        bare = tmp_path / "bare.eclc"
        bare.write_text(
            "\n".join(
                line for line in scenarios.read("reciprocity").splitlines() if not line.startswith("seed")
            )
        )
        for value in ("x" * 5000, "\u00e9" * 5000, "1" * 4000 + "x"):
            monkeypatch.setenv("ECLC_SEED", value)
            assert main(["run", str(bare), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ECLC_SEED must be an integer, got ")
            assert err.endswith(f"... ({len(value)} characters)\n")
            assert len(err.encode()) < 120
        monkeypatch.setenv("ECLC_SEED", "not-a-number")
        assert main(["run", str(bare), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: ECLC_SEED must be an integer, got 'not-a-number'\n"
        assert not (tmp_path / "out").exists()

    def test_over_long_env_seed_out_of_range(self, tmp_path, capsys, monkeypatch):
        # an integer with more digits than Python converts is out of
        # range, and the message does not echo its digits
        bare = tmp_path / "bare.eclc"
        bare.write_text(
            "\n".join(
                line for line in scenarios.read("reciprocity").splitlines() if not line.startswith("seed")
            )
        )
        for value in ("1" * 5000, "-" + "7" * 5000):
            monkeypatch.setenv("ECLC_SEED", value)
            assert main(["run", str(bare), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: ECLC_SEED out of range\n"
        assert not (tmp_path / "out").exists()

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


class TestRewrite:
    """A run into an existing ``--out`` writes each file over the old one
    and cuts it to length."""

    def run(self, out, *flags):
        assert main(["run", str(scenarios.path("reciprocity")), "--out", str(out), *flags]) == 0

    def test_shorter_rerun_leaves_no_stale_tail(self, tmp_path, capsys):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        self.run(reused, "--trials", "120")
        self.run(reused, "--trials", "1")
        self.run(fresh, "--trials", "1")
        for name in ("report.json", "per_world.csv", "trials.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    def test_existing_report_keeps_its_inode_and_mode(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        path = out / "report.json"
        path.write_text("an older report\n")
        path.chmod(0o640)
        before = path.stat()
        self.run(out)
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert json.loads(path.read_text())["kind"] == "reciprocity"

    def test_symlinked_report_is_written_through(self, tmp_path, capsys):
        out, target = tmp_path / "out", tmp_path / "kept.json"
        out.mkdir()
        target.write_text("x" * 100_000)
        (out / "report.json").symlink_to(target)
        self.run(out)
        self.run(tmp_path / "fresh")
        assert (out / "report.json").is_symlink()
        assert target.read_bytes() == (tmp_path / "fresh" / "report.json").read_bytes()

    def test_report_linked_to_the_null_device_is_written(self, tmp_path, capsys):
        # a device cannot be cut to length, and need not be
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").symlink_to(os.devnull)
        self.run(out)
        assert (out / "report.json").is_symlink() and (out / "trials.csv").exists()

    def test_directory_in_place_of_report_exits_one(self, tmp_path, capsys):
        # a check based on file modes would not fail for root
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert main(["run", str(scenarios.path("reciprocity")), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.EISDIR)}\n"


# Edits that reach the lexer's non-ASCII cases, undecodable bytes and
# formulas nested past the parser's bound.
FUZZ_PIECES = (
    "é", "²", "٣", "⊗", "⊸", b"\xff", "(" * 300, "!" * 300,
    "(", ")", "{", "}", "=", ",", "*", "-o", "|-", "->", "#", "\n", " ", "0", ".", "e", "x",
)


class TestSearchBudget:
    @pytest.mark.parametrize("lam", [100, 500])
    def test_banged_chain_runs_within_the_budget(self, tmp_path, capsys, lam):
        # w0's self-carry of !(A * B) ends in search_budget_exceeded, so its
        # row has no proof depth; without a budget the run did not finish
        path = tmp_path / "banged.eclc"
        path.write_text(banged_chain(lam))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "per_world.csv").read_text().splitlines()
        assert rows[1] == "w0,0.0,1.0,1.0,0.0,0.0"
        capsys.readouterr()
        assert main(["prove", str(path), "--sequent", "carry", "--world", "w0"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "not proved: search_budget_exceeded"

    def test_memo_hit_applications_count_against_the_budget(self, tmp_path, capsys, monkeypatch):
        # w0's self-carry of !(B -o A) * (Phi * B & A) at lambda=64 tries
        # applications whose premises the memo answers; when only search
        # entries counted, it tried 112 million of them within the budget
        states, new_tables, applications = [], calculus._new_tables, calculus._applications
        tried = {}

        def counted(gamma, delta, key, tables):
            for application in applications(gamma, delta, key, tables):
                tried[id(tables)] = tried.get(id(tables), 0) + 1
                yield application

        monkeypatch.setattr(calculus, "_new_tables", lambda: states.append(new_tables()) or states[-1])
        monkeypatch.setattr(calculus, "_applications", counted)
        path = tmp_path / "extreme-75.eclc"
        path.write_text(extreme_scenario_texts(12, 200)[75])
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert tried and max(state[3] for state in states) > calculus.MAX_SEARCH_WORK
        for state in states:
            assert tried.get(id(state), 0) <= state[3] <= calculus.MAX_SEARCH_WORK + 1000

    def test_hopeless_antecedents_spend_no_budget(self, tmp_path, capsys, monkeypatch):
        # a valid accessibility file whose lambda=64 world meets 288 balanced
        # antecedent multisets; when each one that no depth proves got its own
        # search, 232 of them spent the whole budget and the run took over 90 s
        reasons = []

        def recorded(prove):
            return lambda *args: reasons.append((result := prove(*args)).failure_reason) or result

        for module in (calculus, observer, sim):
            monkeypatch.setattr(module, "prove", recorded(module.prove))
        path = tmp_path / "extreme-87.eclc"
        path.write_text(extreme_scenario_texts(20_261_019, 120)[87])
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert reasons and calculus.SEARCH_BUDGET_EXCEEDED not in reasons

    def test_signed_checks_leave_no_antecedent_search_to_the_budget(self, tmp_path, capsys, monkeypatch):
        # 29 of this file's lambda=64 antecedent searches each spent the whole budget (the run took
        # 23-28 s on a 2-CPU machine) while the sign-blind tally let one Classical atom cancel another:
        # a negative Classical needs a positive one of the same atom, as no link runs into a Quantum
        reasons = []

        def recorded(prove):
            return lambda *args: reasons.append((result := prove(*args)).failure_reason) or result

        for module in (calculus, observer, sim):
            monkeypatch.setattr(module, "prove", recorded(module.prove))
        path = tmp_path / "extreme-78.eclc"
        path.write_text(extreme_scenario_texts(12, 200)[78])
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert reasons and reasons.count(calculus.SEARCH_BUDGET_EXCEEDED) == 0
        gamma, delta = ["!(Entangled(a,b) -o B) & (<0.0>B -o <0.0>Phi)"], ["!Entangled(a,b) -o Classical(q0) -o Classical(q1)"]
        gamma, delta = (tuple(map(parse_formula, side)) for side in (gamma, delta))
        assert not calculus._refuted(calculus._tally(gamma), calculus._tally(delta)) and calculus._hopeless(gamma, delta)

    def test_an_antecedent_search_past_a_dead_spine_goal_proves(self, tmp_path, capsys, monkeypatch):
        # w1's lambda=64 antecedent search spent the whole budget when only the root's
        # first death turned on proof-only mode, and w1's access_fraction was 0.0
        results = {}

        def recorded(prove):
            return lambda seq, bound, *args: results.setdefault((format_sequent(seq), bound), prove(seq, bound, *args))

        for module in (calculus, observer, sim):
            monkeypatch.setattr(module, "prove", recorded(module.prove))
        path = tmp_path / "extreme-144.eclc"
        path.write_text(extreme_scenario_texts(10, 200)[144])
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        goal = "Quantum(q0) & Phi, ~R, !(!Phi * (Classical(q0) * B)) |- Classical(q0) * Quantum(q0) * (~R * B)"
        result = results[goal, 64]
        assert (result.proved, result.depth) == (True, 64)
        check_proof(result.tree, 64)
        seq, model = result.tree.sequent, parse_scenario(path.read_text()).cost_model
        assert [calculus.prove(seq, bound, model, 0.0).proved for bound in (6, 7)] == [False, True]
        w1 = json.loads((tmp_path / "out" / "report.json").read_text())["per_world"][1]
        assert (w1["world"], w1["access_fraction"], w1["entropy"]) == ("w1", 0.5, 1.0)


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

    def test_extreme_scenario_files(self, tmp_path, capsys, monkeypatch):
        # valid files at the edges of every field end in a result or a clean
        # error under run and under prove of each declared sequent; a small
        # work budget keeps every search short
        monkeypatch.setattr(calculus, "MAX_SEARCH_WORK", 20_000)
        for i, text in enumerate(extreme_scenario_texts(20_261_019, 120)):
            path = tmp_path / f"extreme-{i}.eclc"
            path.write_text(text)
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path), "--out", str(tmp_path / f"out-{i}")]) in (0, 1)
            for name, (src, _, _) in parse_scenario(text).sequents.items():
                assert main(["prove", str(path), "--sequent", name, "--world", src]) in (0, 1)
        capsys.readouterr()


class TestFit:
    def test_with_header(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("kappa,pi\n0,1.0\n1,0.61\n2,0.19\n")
        assert main(["fit", str(path)]) == 0
        assert "rate=0.76315" in capsys.readouterr().out

    def test_flat_points_print_a_positive_zero_rate(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("kappa,pi\n0,1\n1,1\n2,1\n")
        assert main(["fit", str(path)]) == 0
        assert capsys.readouterr().out == "rate=0.0 r_squared=1.0\n"

    def test_blank_rows_skipped(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("kappa,pi\n0,1.0\n\n1,0.61\n , \n2,0.19\n")
        assert main(["fit", str(path)]) == 0
        assert capsys.readouterr() == ("rate=0.7631517470916164 r_squared=0.9378714959015365\n", "")

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

    def test_non_finite_cells(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        for row in ("inf,0.5", "1,nan"):
            path.write_text(f"kappa,pi\n0,1.0\n{row}\n")
            assert main(["fit", str(path)]) == 1
            cells = row.split(",")
            assert capsys.readouterr() == ("", f"error: row 3: not finite: {cells}\n")
        path.write_text("0,1.0\n1e200,0.5\n")
        assert main(["fit", str(path)]) == 1
        assert "overflows" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_format_value(self, tmp_path, capsys):
        assert main(["run", "x.eclc", "--format", "yaml"]) == 2
        report = run_scenario(parse_scenario(THREE_WORLDS))
        with pytest.raises(ValueError, match="format must be json, csv, or both, got 'xml'"):
            write_report(report, tmp_path, fmt="xml")
        assert list(tmp_path.iterdir()) == []


# Inputs for the failure table; "{tmp}" stands for the test's directory.
FAILURE_FILES = {
    "expect.eclc": "world w1 { energy=1.0 kappa=0.0, lambda=1 }\n",
    "one-world.eclc": "scenario reciprocity\nworld wA { energy=10.0, kappa=0.0, lambda=12 }\nprop wA : !Quantum(qA)\n",
    "seedless.eclc": scenarios.read("reciprocity").replace("seed = 9\n", ""),
    "one-edge.eclc": scenarios.read("reciprocity").replace("edge wB -> wA { deltaE=1.0 }\n", ""),
    "unshared.eclc": scenarios.read("reciprocity").replace("prop wB : !Quantum(qA)\n", ""),
    "lone-coherence.eclc": "scenario coherence\nworld w { energy=1.0, kappa=0.0, lambda=1 }\nprop w : A\n",
    "lone-access.eclc": "scenario accessibility\nworld w { energy=1.0, kappa=0.0, lambda=1 }\nprop w : A\n"
    "observer o home=w horizon=1\n",
    "no-prop.eclc": scenarios.read("accessibility").replace("prop w0 : Phi\n", ""),
    "chain-and-cycle.eclc": THREE_WORLDS + "world c1 { energy=1.0, kappa=0.0, lambda=1 }\n"
    "world c2 { energy=1.0, kappa=0.0, lambda=1 }\nedge c1 -> c2 { deltaE=0.0 }\nedge c2 -> c1 { deltaE=0.0 }\n",
    # the exact cost of the side A, A passes the largest float
    "overflow.eclc": "scenario coherence\ncost A = 1e308\ncost B = 1.0\n"
    "world w1 { energy=10.0, kappa=0.0, lambda=4 }\nworld w2 { energy=10.0, kappa=1.0, lambda=4 }\n"
    "edge w1 -> w2 { deltaE=0.0 }\nprop w1 : A\nsequent s w1 -> w2 : A, A |- B\n",
    "taken": "a file, not a directory\n",
    "columns.csv": "kappa,pi\n0\n",
    "words.csv": "kappa,pi\n0,1\nx,2\n",
    "infinite.csv": "0,1\n1,inf\n",
    "one-point.csv": "kappa,pi\n0,1\n",
    "big-field.csv": "kappa,pi\n0,1\n1," + "1" * 200_000 + "\n",
}

COHERENCE = str(scenarios.path("coherence"))

# Every way a command fails: (argv, env) -> (exit code, stdout, stderr),
# byte for byte.
FAILURES = [
    pytest.param(
        ["validate", "{tmp}/nope.eclc"], {}, 1, "", "error: cannot read {tmp}/nope.eclc: No such file or directory\n",
        id="missing-file",
    ),
    pytest.param(["validate", "{tmp}"], {}, 1, "", "error: cannot read {tmp}: Is a directory\n", id="directory"),
    pytest.param(
        ["validate", "{tmp}/expect.eclc"], {}, 1, "", "{tmp}/expect.eclc:1:23: unexpected 'kappa'\n  expected: }\n",
        id="parse-error-expected",
    ),
    pytest.param(
        ["prove", COHERENCE, "--sequent", "zzz", "--world", "w1"], {}, 2, "",
        "usage error: unknown sequent 'zzz' (declared: hop1, hop2, collapse)\n",
        id="unknown-sequent",
    ),
    pytest.param(
        ["prove", COHERENCE, "--sequent", "collapse", "--world", "zz"], {}, 2, "", "usage error: unknown world 'zz'\n",
        id="unknown-world",
    ),
    # a gamma that costs inf passes the gate: prove fails in its search, and run ends cleanly
    pytest.param(
        ["prove", "{tmp}/overflow.eclc", "--sequent", "s", "--world", "w1"], {}, 1,
        "not proved: no_rule_applies\ncost: gamma=inf delta=1.0 (unscaled; these decide cost_valid)\n"
        "scaled: gamma=inf delta=1.0 (kappa=0.0, alpha=1.0)\n", "",
        id="prove-cost-overflow",
    ),
    pytest.param(
        ["run", "{tmp}/overflow.eclc", "--out", "{tmp}/ran", "--format", "json"], {}, 0,
        "coherence: pi=[1, 0] (no fit)\nwrote {tmp}/ran/report.json\n", "",
        id="run-cost-overflow",
    ),
    pytest.param(
        ["run", "{tmp}/one-world.eclc", "--out", "{tmp}/out"], {}, 1, "",
        "error: reciprocity scenario needs exactly two worlds, got 1\n",
        id="driver-error",
    ),
    pytest.param(
        ["run", "{tmp}/one-edge.eclc", "--out", "{tmp}/out"], {}, 1, "",
        "error: reciprocity scenario needs one edge in each direction\n",
        id="reciprocity-one-edge",
    ),
    pytest.param(
        ["run", "{tmp}/unshared.eclc", "--out", "{tmp}/out"], {}, 1, "", "error: !Quantum(qA) missing at 'wB'\n",
        id="reciprocity-unshared-token",
    ),
    pytest.param(
        ["run", "{tmp}/lone-coherence.eclc", "--out", "{tmp}/out"], {}, 1, "",
        "error: coherence scenario needs a chain of at least two worlds\n",
        id="coherence-one-world",
    ),
    pytest.param(
        ["run", "{tmp}/lone-access.eclc", "--out", "{tmp}/out"], {}, 1, "",
        "error: accessibility scenario needs a chain of at least two worlds\n",
        id="accessibility-one-world",
    ),
    pytest.param(
        ["run", "{tmp}/no-prop.eclc", "--out", "{tmp}/out"], {}, 1, "", "error: no proposition declared at 'w0'\n",
        id="accessibility-no-prop",
    ),
    pytest.param(
        ["run", "{tmp}/chain-and-cycle.eclc", "--out", "{tmp}/out"], {}, 1, "",
        "error: frame is not connected as a single chain\n",
        id="chain-and-cycle",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "x"}, 1, "",
        "error: ECLC_SEED must be an integer, got 'x'\n",
        id="bad-env-seed",
    ),
    # int() takes one sign at most, so a second sign is no integer at any length
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "+-5"}, 1, "",
        "error: ECLC_SEED must be an integer, got '+-5'\n",
        id="env-seed-two-signs",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "--5"}, 1, "",
        "error: ECLC_SEED must be an integer, got '--5'\n",
        id="env-seed-two-minus-signs",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "+-" + "7" * 5000}, 1, "",
        "error: ECLC_SEED must be an integer, got '+-" + "7" * 29 + "... (5002 characters)\n",
        id="env-seed-two-signs-over-long",
    ),
    # int() takes single underscores between digits, so this is an integer past its digit limit
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "1_" * 4400 + "1"}, 1, "",
        "error: ECLC_SEED out of range\n",
        id="env-seed-underscored-over-long",
    ),
    # int() strips blanks, but not the ASCII separator \x1c that str.strip() also strips
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "1" * 5000 + "\x1c"}, 1, "",
        "error: ECLC_SEED must be an integer, got '" + "1" * 31 + "... (5001 characters)\n",
        id="env-seed-over-long-trailing-separator",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "1__0"}, 1, "",
        "error: ECLC_SEED must be an integer, got '1__0'\n",
        id="env-seed-double-underscore",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "_1"}, 1, "",
        "error: ECLC_SEED must be an integer, got '_1'\n",
        id="env-seed-leading-underscore",
    ),
    pytest.param(
        ["run", COHERENCE, "--seed", "-1", "--out", "{tmp}/out"], {}, 1, "",
        "error: seed must fit in 64 unsigned bits, got -1\n",
        id="negative-seed",
    ),
    pytest.param(
        ["run", "{tmp}/seedless.eclc", "--out", "{tmp}/out"], {"ECLC_SEED": "1" * 4000}, 1, "",
        "error: seed must fit in 64 unsigned bits, got " + "1" * 32 + "... (4000 digits)\n",
        id="env-seed-4000-digits",
    ),
    pytest.param(
        ["run", COHERENCE, "--seed", "1" * 4000, "--out", "{tmp}/out"], {}, 1, "",
        "error: seed must fit in 64 unsigned bits, got " + "1" * 32 + "... (4000 digits)\n",
        id="flag-seed-4000-digits",
    ),
    pytest.param(
        ["run", COHERENCE, "--seed", str(1 << 64), "--out", "{tmp}/out"], {}, 1, "",
        "error: seed must fit in 64 unsigned bits, got 18446744073709551616\n",
        id="seed-just-over-64-bits",
    ),
    pytest.param(
        ["run", COHERENCE, "--out", "{tmp}/taken"], {}, 1, "", "error: cannot write {tmp}/taken: File exists\n",
        id="unwritable-out",
    ),
    pytest.param(
        ["fit", "{tmp}/columns.csv"], {}, 1, "", "error: row 2: need two columns (kappa, pi)\n", id="fit-columns"
    ),
    pytest.param(
        ["fit", "{tmp}/words.csv"], {}, 1, "", "error: row 3: not numeric: ['x', '2']\n", id="fit-not-numeric"
    ),
    pytest.param(
        ["fit", "{tmp}/infinite.csv"], {}, 1, "", "error: row 2: not finite: ['1', 'inf']\n", id="fit-not-finite"
    ),
    pytest.param(
        ["fit", "{tmp}/one-point.csv"], {}, 1, "", "error: need at least 2 points, got 1\n", id="fit-one-point"
    ),
    pytest.param(
        ["fit", "{tmp}/big-field.csv"], {}, 1, "", "error: row 3: field larger than field limit (131072)\n",
        id="fit-field-limit",
    ),
    pytest.param(
        ["prove", COHERENCE], {"COLUMNS": "80"}, 2, "",
        "usage: eclc prove [-h] --sequent SEQUENT --world WORLD path\n"
        "eclc prove: error: the following arguments are required: --sequent, --world\n",
        id="usage",
    ),
]


class TestFailures:
    @pytest.mark.parametrize("argv, env, code, out, err", FAILURES)
    def test_message_and_exit_code(self, tmp_path, capsys, monkeypatch, argv, env, code, out, err):
        for name, text in FAILURE_FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.delenv("ECLC_SEED", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        tmp = str(tmp_path)
        assert main([arg.replace("{tmp}", tmp) for arg in argv]) == code
        assert capsys.readouterr() == (out.replace("{tmp}", tmp), err.replace("{tmp}", tmp))
        assert not (tmp_path / "out").exists()


def run_child(argv, python=sys.executable, env=(), **kwargs):
    """Run ``eclc`` in a fresh interpreter, as the installed script does,
    with ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": SRC, **dict(env)}
    env.pop("ECLC_SEED", None)
    return subprocess.run([python, "-m", "eclc.cli", *argv], env=env, timeout=120, **kwargs)


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [["run", COHERENCE, "--out", "{tmp}/out"], ["prove", COHERENCE, "--sequent", "collapse", "--world", "w1"]],
        ids=["run", "prove"],
    )
    def test_exits_one_with_nothing_on_stderr(self, tmp_path, argv):
        # the read end is closed before the child starts, so its first
        # write to stdout fails every time
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_child([arg.replace("{tmp}", str(tmp_path)) for arg in argv], stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


class TestParserReuse:
    def test_options_do_not_leak_into_the_next_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ECLC_SEED", raising=False)
        path = str(scenarios.path("reciprocity"))
        argv = ["run", path, "--seed", "5", "--trials", "3", "--format", "json", "--out", str(tmp_path / "first")]
        assert main(argv) == 0
        assert main(["run", path, "--out", str(tmp_path / "second")]) == 0
        run_child(["run", path, "--out", str(tmp_path / "fresh")], check=True, capture_output=True)
        for name in ("report.json", "per_world.csv", "trials.csv"):
            assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_patched_run_scenario_takes_effect(self, tmp_path, capsys, monkeypatch):
        assert main(["run", COHERENCE, "--out", str(tmp_path / "a")]) == 0

        def refuse(config):
            raise ScenarioError("patched")

        monkeypatch.setattr(cli, "run_scenario", refuse)
        assert main(["run", COHERENCE, "--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == "error: patched\n"
        assert not (tmp_path / "b").exists()

    def test_parser_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for argv in (["validate", COHERENCE], ["prove", COHERENCE, "--sequent", "collapse", "--world", "w1"], []):
            main(argv)
        assert cli.build_parser.cache_info().misses == 1


def eclc_outputs(commands, out, python=sys.executable, env=()):
    """Run each ``eclc`` command line in a fresh ``python``; "{out}" in one
    stands for a directory of its own under ``out``.  Returns each command's
    exit code and stdout, with ``out`` masked, then every file written."""
    results = []
    for i, argv in enumerate(commands):
        argv = [arg.replace("{out}", str(out / str(i))) for arg in argv]
        proc = run_child(argv, python, env, capture_output=True)
        results.append((proc.returncode, proc.stdout.replace(str(out).encode(), b"{out}")))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return results, files


BUNDLED_RUNS = [["run", str(scenarios.path(name)), "--out", "{out}"] for name in scenarios.NAMES]


class TestHashSeed:
    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # truth_at orders antecedents by hash and _copies_refuted walks a
        # set, so string hashing must not reach what a command prints or writes
        rng = random.Random(2026)
        texts = [text for text in (accessibility_text(rng) for _ in range(12)) if "!" in text and "&" in text][:3]
        assert len(texts) == 3
        commands = list(BUNDLED_RUNS)
        for i, text in enumerate(texts):
            (tmp_path / f"gen{i}.eclc").write_text(text)
            commands.append(["run", str(tmp_path / f"gen{i}.eclc"), "--out", "{out}"])
        for name in scenarios.NAMES:
            for seq_name, (src, _, _) in parse_scenario(scenarios.read(name)).sequents.items():
                commands.append(["prove", str(scenarios.path(name)), "--sequent", seq_name, "--world", src])
        # a search stopped by its work budget stops at the same place
        (tmp_path / "banged.eclc").write_text(banged_chain(100))
        commands.append(["prove", str(tmp_path / "banged.eclc"), "--sequent", "carry", "--world", "w0"])
        first, second = (
            eclc_outputs(commands, tmp_path / f"hash{seed}", env={"PYTHONHASHSEED": str(seed)}) for seed in (0, 1)
        )
        # three bundled runs, three generated, three proves, and the budget failure
        assert [code for code, _ in first[0]] == [0] * 9 + [1]
        assert first[0][-1][1].startswith(b"not proved: search_budget_exceeded\n")
        assert first == second


def other_interpreters():
    """Each other CPython 3.10-3.13 that starts: ``python3.N`` on PATH, else
    a pyenv install.  A pyenv shim with no version behind it fails to start."""
    found = []
    for minor in range(10, 14):
        if minor == sys.version_info.minor:
            continue
        candidates = [shutil.which(f"python3.{minor}")]
        candidates += sorted(glob.glob(os.path.expanduser(f"~/.pyenv/versions/3.{minor}.*/bin/python3")))
        for python in filter(None, candidates):
            try:
                proc = subprocess.run(
                    [python, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, timeout=30
                )
            except OSError:
                continue
            if proc.returncode == 0 and proc.stdout.strip() == f"(3, {minor})".encode():
                found.append(python)
                break
    return found


# a valid file whose carry of 200 tensors over A has a proof of height 401 at lambda=500
TALL_CARRY = (
    "scenario accessibility\n"
    "world w0 { energy=1.0, kappa=0.0, lambda=500 }\n"
    "world w1 { energy=1.0, kappa=0.0, lambda=500 }\n"
    "edge w0 -> w1 { deltaE=0.0 }\n"
    "observer o0 home=w0 horizon=1\n"
    "prop w0 : {x}\n"
    "sequent carry w0 -> w1 : {x} |- {x}\n"
).replace("{x}", " * ".join(["A"] * 201))


class TestOtherInterpreters:
    def test_a_tall_proof_under_every_interpreter(self, tmp_path):
        # a recursive ProofTree.height ended both commands in RecursionError under 3.10 and 3.11
        (tmp_path / "tall.eclc").write_text(TALL_CARRY)
        path = str(tmp_path / "tall.eclc")
        commands = [["prove", path, "--sequent", "carry", "--world", "w0"], ["run", path, "--out", "{out}"]]
        for i, python in enumerate([sys.executable, *other_interpreters()]):
            (prove, run), files = eclc_outputs(commands, tmp_path / f"out{i}", python)
            assert (prove[0], run[0]) == (0, 0), python
            assert prove[1].splitlines()[-3] == b"proved: depth 401 (bound 500)"
            assert files["1/per_world.csv"].splitlines()[1:] == [b"w0,0.0,1.0,1.0,0.0,401.0", b"w1,0.0,1.0,1.0,0.0,401.0"]

    def test_tallest_api_formulas_under_every_interpreter(self):
        # the constructors bound a formula at MAX_FORMULA_NODES + 1 levels however
        # it is built, so prove at MAX_LAMBDA, coherence and format_formula walk the
        # tallest Bang chain and the tallest right-nested Tensor chain, a shape the
        # DSL's parentheses cannot reach, under every interpreter; without that
        # bound a 2,000-deep chain ends all three in RecursionError
        code = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from eclc import Atom, Bang, CostModel, Sequent, Tensor, coherence, format_formula, prove\n"
            "from eclc.formula import MAX_FORMULA_NODES\n"
            "from eclc.frame import MAX_LAMBDA\n"
            "bang = tensor = a = Atom('A')\n"
            "for _ in range(MAX_FORMULA_NODES):\n"
            "    bang, tensor = Bang(bang), Tensor(a, tensor)\n"
            "for phi in (bang, tensor):\n"
            "    r = prove(Sequent((phi,), (phi,)), MAX_LAMBDA, CostModel({}), 0.0)\n"
            "    print(r.proved, r.depth, r.failure_reason, coherence(phi), len(format_formula(phi)))\n"
        )
        # the Bang chain's search ends at its work budget before a proof is found
        expected = "False 0 search_budget_exceeded 1 201\nTrue 401 None 1 1199\n"
        for python in [sys.executable, *other_interpreters()]:
            proc = subprocess.run([python, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), python

    def test_dsl_formulas_at_the_bound_under_every_interpreter(self):
        # TestFormulaBound's shapes at MAX_FORMULA_NODES, parsed from DSL text, each
        # proved as X |- X at MAX_LAMBDA under zero costs and its proof rendered
        code = (
            f"import sys; sys.path.insert(0, {SRC!r})\n"
            "from eclc import Atom, CostModel, Sequent, prove, render_proof\n"
            "from eclc.calculus import _hopeless, _withs\n"
            "from eclc.dsl import parse_formula\n"
            "from eclc.frame import MAX_LAMBDA\n"
            f"for text in {_shapes(MAX_FORMULA_NODES)!r}:\n"
            "    phi = parse_formula(text)\n"
            "    r = prove(Sequent((phi,), (phi,)), MAX_LAMBDA, CostModel({}, default_cost=0.0), 0.0)\n"
            "    hopeless = _hopeless((phi,), (Atom('B'),))\n"
            "    print(r.proved, r.depth, r.failure_reason, len(render_proof(r.tree)) if r.proved else 0, hopeless, len((_withs(phi) or ((),))[0]))\n"
        )
        # parentheses, bangs, diamonds, tensors, lollis and &s (proved, depth, reason, rendered
        # length, whether _hopeless refutes phi |- B, and phi's & count): the bang and lolli
        # chains end at the work budget, and _withs walks the 100-& chain from its children
        expected = [
            "True 1 None 16 True 0",
            "False 0 search_budget_exceeded 0 True 0",
            "False 0 no_rule_applies 0 True 0",
            "True 401 None 573816 True 0",
            "False 0 search_budget_exceeded 0 True 0",
            "True 201 None 248016 False 100",
        ]
        for python in [sys.executable, *other_interpreters()]:
            proc = subprocess.run([python, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout.splitlines(), proc.stderr) == (0, expected, ""), python

    def test_bundled_reports_match_across_interpreters(self, tmp_path):
        pythons = other_interpreters()
        if not pythons:
            pytest.skip("no other CPython 3.10-3.13 found")
        # the reciprocity driver draws its jitters through random.py's rejection
        # loop by hand (sim._draw), so run it under several seeds, and at noise
        # 100, whose spans of 50,000 take 16 bits a draw and reject often
        text = scenarios.read("reciprocity").replace("noise = 0.8", "noise = 100")
        noisy = tmp_path / "noisy.eclc"
        noisy.write_text(re.sub(r"lambda=\d+", "lambda=500", text))
        reciprocity = str(scenarios.path("reciprocity"))
        commands = list(BUNDLED_RUNS)
        commands += [["run", reciprocity, "--seed", str(seed), "--out", "{out}"] for seed in range(5)]
        commands += [["run", str(noisy), "--trials", "300", "--out", "{out}"]]
        # and a sample of the extreme files: four accessibility, one coherence, one reciprocity
        for i, text in enumerate(extreme_scenario_texts(10, 6)):
            (tmp_path / f"extreme{i}.eclc").write_text(text)
            commands.append(["run", str(tmp_path / f"extreme{i}.eclc"), "--out", "{out}"])
        expected = eclc_outputs(commands, tmp_path / "here")
        assert [code for code, _ in expected[0]] == [0] * len(commands)
        for i, python in enumerate(pythons):
            assert eclc_outputs(commands, tmp_path / f"other{i}", python) == expected, python


class TestColdStart:
    def test_import_loads_no_dataclasses(self):
        # counted in modules, not seconds, so it cannot flake: dataclasses, what
        # it pulls in and its decorations were over half of eclc's import time.
        # -I -S: no environment or site hook imports any of them first; -B:
        # the child writes no bytecode into the source tree.
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
        code = f"import sys; sys.path.insert(0, {SRC!r}); import eclc.cli; print(sorted({heavy!r} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
