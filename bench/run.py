"""eclc benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports eclc from ``src/``.
The seed picks the batch's pool items and their expected outputs from
``golden/``; every repetition is a fresh interpreter (``worker.py``)
that builds the batch's inputs, runs every item in its own shuffled
order, and checks every output.  A run makes a number of repetitions
fixed by the workload and ``--seconds`` (``workloads.repetitions``),
two at a time, so that it lasts about ``--seconds`` on the reference
machine.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
repetitions alternate, and it holds the per-layer metrics instead.
Lines before it describe the run for a human reader.

The machine is shared, and its speed changes by up to a factor of two
from one minute to the next, which no statistic over a single run can
remove.  So every item is timed beside a fixed probe (``worker.probe``)
that runs just before and after it, and end-to-end times are scaled to
the reference speed at which the probe takes ``REFERENCE_PROBE_S``:
an item's scaled time is its time times ``REFERENCE_PROBE_S`` over the
mean of its two probe times.  An item's latency is the median of its
scaled times over the repetitions; set-up time is scaled by the probe
that ends it, and is a median too.  Per-layer times are not scaled:
they are the least over traced repetitions, and counts must agree
exactly between them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prove-corpus", "reciprocity-trials", "observer-chain")
# a run must end within 180 s, whatever --seconds asks for
DEADLINE_S = 170.0
# the probe's time at the reference speed end-to-end times are scaled to
REFERENCE_PROBE_S = 0.0005
# repetitions run at once: the machine's two CPUs were measured not to
# slow each other; with fewer CPUs the run takes longer, not different work
JOBS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

# Every per-layer metric with its unit.  Values are per batch, that is
# per fresh process running one workload batch.
PER_LAYER = (
    ("calculus.prove.calls", "count"),
    ("calculus.prove.s", "s"),
    ("calculus.prove.p50_ms", "ms"),
    ("calculus.prove.p99_ms", "ms"),
    ("calculus.prove.proved", "count"),
    ("calculus.prove.depth_exceeded", "count"),
    ("calculus.prove.no_rule_applies", "count"),
    ("calculus.prove.cost_invalid", "count"),
    ("calculus.prove.distinct_frac", "frac"),
    ("calculus.transition.calls", "count"),
    ("calculus.transition.self_s", "s"),
    ("calculus.measure.calls", "count"),
    ("calculus.measure.self_s", "s"),
    ("formula.nodes_built", "count"),
    ("formula.build_s", "s"),
    ("formula.cost.calls", "count"),
    ("formula.cost.s", "s"),
    ("formula.coherence.calls", "count"),
    ("formula.coherence.s", "s"),
    ("frame.copy.calls", "count"),
    ("frame.copy.s", "s"),
    ("frame.hop_distance.calls", "count"),
    ("frame.hop_distance.s", "s"),
    ("frame.accessible.calls", "count"),
    ("observer.valuation.calls", "count"),
    ("observer.valuation.self_s", "s"),
    ("observer.valuation.true_frac", "frac"),
    ("observer.prove_per_valuation", "ratio"),
    ("dsl.parse_scenario.s", "s"),
    ("dsl.lines_per_s", "lines/s"),
    ("metrics.fisher.s", "s"),
    ("metrics.s", "s"),
    ("sim.run_scenario.s", "s"),
    ("sim.run_scenario.self_s", "s"),
    ("sim.decohere.calls", "count"),
    ("sim.write_report.s", "s"),
    ("sim.report_bytes", "bytes"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail(latencies) -> tuple[float, float]:
    """(percentile, latency) of the highest percentile that still has ten
    samples beyond it, that is the eleventh slowest item."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - 11)
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def start(args, traced: bool, rep: int, work: Path) -> subprocess.Popen:
    """Start repetition ``rep``; it writes its result to ``rep-<rep>.json``
    and its error output to ``rep-<rep>.err`` in ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--plan", str(work / "plan.json"), "--traced", str(int(traced)),
        "--shuffle", str(args.seed * 1000 + rep),
        "--work", str(work / f"rep-{rep}"), "--result", str(work / f"rep-{rep}.json"),
        "--spawned", repr(time.monotonic()),
    ]
    with open(work / f"rep-{rep}.err", "w", encoding="utf-8") as err:
        return subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)


def repeat(args, kinds: list[bool], work: Path, deadline: float) -> list[dict]:
    """Run one repetition per entry of ``kinds`` (traced or not), JOBS at
    a time, and read their results; every process has ended when this
    returns or raises."""
    results: list = [None] * len(kinds)
    pending = list(range(len(kinds)))
    running: dict[int, subprocess.Popen] = {}
    try:
        while pending or running:
            while pending and len(running) < JOBS:
                rep = pending.pop(0)
                running[rep] = start(args, kinds[rep], rep, work)
            time.sleep(0.005)
            if time.monotonic() > deadline:
                raise BenchError(f"the repetitions did not finish within {DEADLINE_S:.0f} s of the start")
            for rep, proc in list(running.items()):
                if proc.poll() is None:
                    continue
                del running[rep]
                if proc.returncode != 0:
                    err = (work / f"rep-{rep}.err").read_text(encoding="utf-8")
                    raise BenchError(f"a repetition exited with {proc.returncode}:\n{err[-2000:]}")
                results[rep] = json.loads((work / f"rep-{rep}.json").read_text(encoding="utf-8"))
        return results
    finally:
        for proc in running.values():
            proc.kill()
            proc.wait()


def check(reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over all repetitions.  An item fails when it
    raised, exited non-zero or wrote other output than recorded, and
    also when a repetition's output differs from the first one's."""
    first = reps[0]["outputs"]
    attempted = failed = 0
    for rep in reps:
        attempted += len(rep["outputs"])
        failed += sum(not ok or out != ref for ok, out, ref in zip(rep["ok"], rep["outputs"], first))
    return attempted, failed


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured beside a probe that took ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe_s


def item_latencies(reps: list[dict]) -> list[float]:
    """Per item, the median scaled time over the repetitions."""
    per_rep = [[scaled(t, p) for t, p in zip(rep["item_s"], rep["probe_s"])] for rep in reps]
    return [statistics.median(times) for times in zip(*per_rep)]


def end_to_end(reps: list[dict], attempted: int, failed: int) -> tuple[dict, str]:
    latencies = item_latencies(reps)
    pct, tail_s = tail(latencies)
    values = {
        "setup_s": statistics.median(scaled(rep["setup_s"], rep["setup_probe_s"]) for rep in reps),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "ok_frac": 1.0 - failed / attempted,
    }
    note = f"item_tail_ms is p{pct:.4g} of {len(latencies)} items (median of {len(reps)} repetitions each)"
    return values, note


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer values over the traced repetitions; False when counts
    that the inputs fix differ between repetitions."""
    values, agree = {}, True
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            values[name] = sum(item_latencies(traced)) / sum(item_latencies(untraced)) - 1.0
            continue
        seen = [rep["layers"][name] for rep in traced]
        if unit in ("s", "ms"):
            values[name] = min(seen)
        elif unit == "lines/s":
            values[name] = max(seen)
        else:
            values[name] = seen[0]
            agree = agree and all(v == seen[0] for v in seen)
    return values, agree


def plan(args, wl) -> dict:
    """The batch's pool items with their golden records, picked by the seed.

    The workers receive these ready-made, so that reading and sorting
    the golden file is not charged to the program's set-up time."""
    rows = [line.split() for line in wl.load_golden(args.workload, args.golden)]
    picked = wl.selection(args.workload, args.seed, [int(row[0]) for row in rows], args.scale)
    return {"picked": picked, "rows": [rows[j] for j in picked]}


def run(args) -> dict:
    if not (ROOT / "src" / "eclc" / "__init__.py").is_file():
        raise BenchError(f"no eclc sources under {ROOT / 'src'}")
    if not (Path(args.golden) / f"{args.workload}.txt").is_file():
        raise BenchError(f"no expected outputs for {args.workload} in {args.golden}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl  # needs eclc on the path

    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "plan.json").write_text(json.dumps(plan(args, wl)), encoding="utf-8")
        started = time.monotonic()
        kinds = [bool(args.trace and rep % 2) for rep in range(wl.repetitions(args.workload, args.seconds))]
        reps: dict[bool, list[dict]] = {False: [], True: []}
        for traced, rep in zip(kinds, repeat(args, kinds, work, started + DEADLINE_S)):
            reps[traced].append(rep)
        elapsed = time.monotonic() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = check(reps[False] + reps[True])
    print(f"workload {args.workload}, seed {args.seed}, {len(reps[False])} untraced and "
          f"{len(reps[True])} traced repetitions in {elapsed:.1f} s")
    units = dict(END_TO_END)
    if args.trace:
        values, agree = per_layer(reps[True], reps[False])
        units = dict(PER_LAYER)
        if not agree:
            print("per-layer counts differ between traced repetitions of the same inputs", file=sys.stderr)
    else:
        values, note = end_to_end(reps[False], attempted, failed)
        agree = True
        print(note)
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"{attempted} items attempted, {failed} failed")
    return {
        "correct": failed == 0 and agree,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="batch size relative to the standard one")
    parser.add_argument("--golden", default=str(HERE / "golden"), help="directory of expected outputs")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
