"""The prover's first-found results on the benchmark's recorded corpus,
and the accessibility driver's reports on its recorded chains.

``bench/golden/prove-corpus.txt`` records (proved, depth,
failure_reason) for every pool case of the benchmark's prover corpus.
Reported depth is the height of the first proof found in the fixed rule
order, so this pins the search order as well as the verdicts.  Every
case is replayed here, the large ones included, and every proof tree
found passes the independent checker ``oracles.check_proof``.
``bench/golden/observer-chain.txt`` records a digest of the report
files of ``eclc run`` on every generated accessibility chain, and
``bench/golden/reciprocity-trials.txt`` one on the bundled reciprocity
file under every pool seed; every tenth item of each is replayed here.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from eclc import prove
from eclc.cli import main
from oracles import check_proof

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_found_results_match_golden_corpus():
    wl = _load_workloads()
    builder = wl.Builder()
    checked, trees, mismatches = 0, 0, []
    for line in wl.load_golden("prove-corpus"):
        _, bound, case, record = line.split()
        seq, case_bound, model, kappa = wl.corpus_case(builder, int(case))
        assert case_bound == int(bound), f"case {case}: generated bound differs from the recorded one"
        result = prove(seq, case_bound, model, kappa)
        got = wl.proof_record(result)
        if got != record:
            mismatches.append((case, record, got))
        if result.proved:
            # the independent checker accepts every proof the prover finds
            check_proof(result.tree, case_bound)
            trees += 1
        checked += 1
    assert checked == 5100 and trees == 927
    assert not mismatches, f"{len(mismatches)} of {checked} cases differ, first: {mismatches[:5]}"


def test_success_is_monotone_in_the_bound():
    """A case proved at its recorded bound b with depth h is proved with
    the same result, first-found tree included, at every bound from h to b."""
    wl = _load_workloads()
    builder = wl.Builder()
    cases = checks = 0
    for line in wl.load_golden("prove-corpus"):
        _, _, case, record = line.split()
        if record.startswith("P"):
            seq, bound, model, kappa = wl.corpus_case(builder, int(case))
            expected = prove(seq, bound, model, kappa)
            for lower in range(expected.depth, bound):
                assert prove(seq, lower, model, kappa) == expected, f"case {case} at bound {lower}"
                checks += 1
            cases += 1
    assert (cases, checks) == (927, 1621)


def test_observer_chain_reports_match_golden(tmp_path, capsys):
    wl = _load_workloads()
    builder = wl.Builder()
    golden = wl.load_golden("observer-chain")
    mismatches = []
    for index in range(0, len(golden), 10):
        path = tmp_path / f"chain-{index}.eclc"
        path.write_text(wl.observer_text(builder, index), encoding="utf-8")
        out = tmp_path / f"out-{index}"
        assert main(["run", str(path), "--out", str(out)]) == 0
        if wl.output_digest(out) != golden[index].split()[1]:
            mismatches.append(index)
    capsys.readouterr()
    assert len(golden) == 600
    assert not mismatches, f"{len(mismatches)} of 60 chains differ, first: {mismatches[:5]}"


def test_reciprocity_reports_match_golden(tmp_path, capsys):
    wl = _load_workloads()
    golden = wl.load_golden("reciprocity-trials")
    indices = range(0, len(golden), 10)
    mismatches = []
    for index, argv in zip(indices, wl.scenario_argvs("reciprocity-trials", indices, wl.Builder(), tmp_path)):
        out = tmp_path / f"out-{index}"
        assert main([*argv, "--out", str(out)]) == 0
        if wl.output_digest(out) != golden[index].split()[1]:
            mismatches.append(index)
    capsys.readouterr()
    assert len(golden) == 1000
    assert not mismatches, f"{len(mismatches)} of 100 items differ, first: {mismatches[:5]}"


def test_bench_bindings_exist():
    """The benchmark's tracer and search counter wrap module-level names
    of the package from outside; installing both must find every name.
    The golden ``nodes`` column counts every entry of the search, so the
    search must recurse through the module global that the counter wraps."""
    code = (
        "import tracer, make_golden\n"
        "from eclc import Atom, CostModel, Sequent, Tensor, prove\n"
        "tracer.install(tracer.Tracer())\n"
        "A, B = Atom('A'), Atom('B')\n"
        "with make_golden.SearchCounter() as counter:\n"
        "    result = prove(Sequent((A, B), (Tensor(A, B),)), 5, CostModel({}), 0.0)\n"
        "assert (result.proved, result.depth, counter.calls) == (True, 2, 4), (result, counter.calls)\n"
    )
    path = os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
