"""The benchmark's own test.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

Runs every workload at a tiny size, traced and untraced, and checks
that every metric BENCHMARK.json names is printed with its unit, that
a corrupted expected record makes items fail, that traced and untraced
repetitions write identical outputs, and that the benchmark refuses to
run without the program's sources.  The file name keeps it out of the
repository's own test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = ["--seed", "3", "--seconds", "0", "--scale", "0.05"]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    return proc, result


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def scratch(name: str) -> Path:
    path = HERE / ".work" / f"selftest-{os.getpid()}" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_benchmark_json_matches_the_benchmark():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_workload_prints_every_metric_with_its_unit():
    doc = spec()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in doc[key]}
        for workload in wl.WORKLOADS:
            proc, result = bench("--workload", workload, "--trace", trace, *TINY)
            assert proc.returncode == 0, proc.stderr
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            # traced and untraced repetitions are checked against each other
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
            for name, unit in wanted.items():
                assert any(line.split()[:1] == [name] and line.endswith(unit) for line in proc.stdout.splitlines())


def test_corrupted_expected_record_counts_as_failed():
    for workload in ("prove-corpus", "observer-chain"):
        golden = scratch(f"golden-{workload}")
        for path in wl.GOLDEN_DIR.iterdir():
            shutil.copy(path, golden / path.name)
        lines = (golden / f"{workload}.txt").read_text(encoding="utf-8").splitlines()
        records = [i for i, line in enumerate(lines) if not line.startswith("#")]
        sizes = [int(lines[i].split()[0]) for i in records]
        line = records[wl.selection(workload, 3, sizes, 0.05)[0]]
        fields = lines[line].split()
        fields[-1] = "N0" if fields[-1] == "P1" else "P1"
        lines[line] = " ".join(fields)
        (golden / f"{workload}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc, result = bench("--workload", workload, "--trace", "0", "--golden", str(golden), *TINY)
        assert proc.returncode == 0, proc.stderr
        assert not result["correct"] and result["failed"] > 0
        assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_sources():
    bare = scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, _ = bench("--workload", "prove-corpus", "--trace", "0", *TINY, cwd=bare, script=bare / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def teardown_module():
    shutil.rmtree(HERE / ".work" / f"selftest-{os.getpid()}", ignore_errors=True)


def main() -> int:
    failures = 0
    try:
        for name, test in list(globals().items()):
            if name.startswith("test_") and callable(test):
                try:
                    test()
                    print(f"PASS {name}")
                except Exception as exc:  # report every test, then fail
                    failures += 1
                    print(f"FAIL {name}: {exc!r}")
    finally:
        teardown_module()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
