"""Record the expected outputs of every pool item in ``golden/``.

Run from the repository root, with the program at the commit whose
behaviour the benchmark pins:

    PYTHONPATH=src python3 bench/make_golden.py [WORKLOAD ...]

Each line starts with ``nodes``, the item's count of search calls,
which is the size batches are stratified by.  For the prover corpus it
goes on with the bound, the case number and (proved, depth,
failure_reason); a case that repeats an earlier one's sequent, bound,
cost model and kappa is skipped, so the pool holds distinct prover
calls only.  Every verdict at bound 5 is checked against the independent
enumeration oracle in ``tests/oracles.py``.  For the scenario workloads
it goes on with a
digest of the three report files, after checking that two runs of the
item write byte-identical files.  Digests cover floating-point output,
so they hold for the platform they were recorded on.  Any disagreement
stops the script before it writes anything.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
from pathlib import Path

import eclc.calculus as calculus
from eclc import prove
from eclc.cli import main as eclc_main

import workloads as wl

ROOT = wl.HERE.parent


class SearchCounter:
    """Counts calls of the prover's recursive search while installed."""

    def __init__(self) -> None:
        self.calls = 0

    def __enter__(self):
        search = self.search = calculus._search

        def counting_search(*args):
            self.calls += 1
            return search(*args)

        calculus._search = counting_search
        return self

    def __exit__(self, *exc) -> None:
        calculus._search = self.search


def corpus_lines() -> list[str]:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    lines = ["# nodes bound case record, one line per pool case"]
    disagreements = []
    seen = set()
    for number, (family, count) in enumerate(wl.CORPUS_FAMILIES):
        kept = 0
        for case in range(number * wl.CASE_STRIDE, (number + 1) * wl.CASE_STRIDE):
            seq, bound, model, kappa = wl.corpus_case(wl.Builder(), case)
            key = (tuple(sorted(map(repr, seq.gamma))), tuple(sorted(map(repr, seq.delta))), bound, repr(model), kappa)
            if key in seen:
                continue
            seen.add(key)
            with SearchCounter() as nodes:
                record = wl.proof_record(prove(seq, bound, model, kappa))
            lines.append(f"{nodes.calls} {bound} {case} {record}")
            if bound <= 5:
                want = oracles.cost_gate(
                    seq.gamma, seq.delta, model.atom_costs, model.default_cost
                ) and oracles.provable(seq.gamma, seq.delta, bound)
                if (record[0] == "P") != want:
                    disagreements.append((case, f"prover {record}, oracle provable={want}"))
            kept += 1
            if kept == count:
                break
        else:
            raise SystemExit(f"prove-corpus: fewer than {count} distinct {family} cases")
    if disagreements:
        raise SystemExit(f"prove-corpus: {len(disagreements)} disagreements, first {disagreements[:5]}")
    return lines


def scenario_lines(workload: str, work: Path) -> list[str]:
    indices = range(wl.POOL[workload])
    argvs = wl.scenario_argvs(workload, indices, wl.Builder(), work / "inputs")
    lines = [f"# nodes, digest of {', '.join(wl.OUTPUT_FILES)}; one line per pool item"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for j, argv in zip(indices, argvs):
            digests = []
            with SearchCounter() as nodes:
                for rerun in ("a", "b"):
                    out = work / rerun
                    if eclc_main(argv + ["--out", str(out)]) != 0:
                        raise SystemExit(f"{workload} item {j}: eclc run failed")
                    digests.append(wl.output_digest(out))
            if digests[0] != digests[1]:
                raise SystemExit(f"{workload} item {j}: reruns wrote different reports")
            lines.append(f"{nodes.calls // 2} {digests[0]}")
    return lines


def main(argv) -> int:
    chosen = argv or list(wl.WORKLOADS)
    work = wl.HERE / ".work" / f"golden-{os.getpid()}"
    try:
        for workload in chosen:
            lines = corpus_lines() if workload == "prove-corpus" else scenario_lines(workload, work)
            wl.GOLDEN_DIR.mkdir(exist_ok=True)
            (wl.GOLDEN_DIR / f"{workload}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"{workload}: {len(lines) - 1} records")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
