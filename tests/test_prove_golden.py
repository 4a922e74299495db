"""The prover's first-found results on the benchmark's recorded corpus.

``bench/golden/prove-corpus.txt`` records (proved, depth,
failure_reason) for every pool case of the benchmark's prover corpus.
Reported depth is the height of the first proof found in the fixed rule
order, so this pins the search order as well as the verdicts.  Cases
whose recorded search is small are replayed here; the large ones are
left to the benchmark, which checks every item it runs.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from eclc import prove

BENCH = Path(__file__).resolve().parents[1] / "bench"
MAX_SEARCH_CALLS = 3000


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_found_results_match_golden_corpus():
    wl = _load_workloads()
    builder = wl.Builder()
    checked, mismatches = 0, []
    for line in wl.load_golden("prove-corpus"):
        calls, bound, case, record = line.split()
        if int(calls) > MAX_SEARCH_CALLS:
            continue
        seq, case_bound, model, kappa = wl.corpus_case(builder, int(case))
        assert case_bound == int(bound), f"case {case}: generated bound differs from the recorded one"
        got = wl.proof_record(prove(seq, case_bound, model, kappa))
        if got != record:
            mismatches.append((case, record, got))
        checked += 1
    assert checked > 4900
    assert not mismatches, f"{len(mismatches)} of {checked} cases differ, first: {mismatches[:5]}"


def test_bench_bindings_exist():
    """The benchmark's tracer and search counter wrap module-level names
    of the package from outside; installing both must find every name."""
    code = "import tracer, make_golden\ntracer.install(tracer.Tracer())\nwith make_golden.SearchCounter():\n    pass\n"
    path = os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
