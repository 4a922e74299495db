"""One repetition of a workload in a fresh interpreter.

Builds the inputs of the batch that ``run.py`` picked, runs the items
in an order shuffled by ``--shuffle``, times every item, checks every
output against the recorded expected output, and writes the figures as
JSON, in batch order.
``run.py`` starts one of these per repetition; it is not meant to be
run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import sys
import time
from pathlib import Path


def probe() -> None:
    """A fixed piece of interpreter work, independent of eclc, timed
    between items to gauge how fast the machine runs at that moment.

    Like eclc it builds and drops small tuples and dict entries, formats
    floats and sorts strings; it takes about half a millisecond on the
    reference machine.  It must never change: item times are scaled by
    its times."""
    table: dict = {}
    chain: tuple = ()
    for i in range(600):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i
        chain = (chain, i) if i & 7 else ()
    text = ",".join(f"{v:.6g}" for v in (math.exp(-i / 97.0) * i for i in range(300)))
    prefixes: dict = {}
    for word in sorted(text.split(",")):
        prefixes[word[:3]] = prefixes.get(word[:3], 0) + 1


def timed_probe(clock) -> float:
    gc.disable()  # the probe's time must not depend on eclc's live objects
    try:
        start = clock()
        probe()
        return clock() - start
    finally:
        gc.enable()


def run_batch(args, plan: dict, harness_s: float) -> dict:
    import eclc.cli

    import workloads as wl

    picked, rows = plan["picked"], plan["rows"]
    expected = [row[-1] for row in rows]
    work = Path(args.work)
    builder = wl.Builder()
    build_start = time.perf_counter()
    if args.workload == "prove-corpus":
        items = [wl.corpus_case(builder, int(row[2])) for row in rows]
        if any(item[1] != int(row[1]) for item, row in zip(items, rows)):
            raise SystemExit("prove-corpus: generated bounds differ from the recorded ones")
    else:
        out = str(work / "out")
        items = [argv + ["--out", out] for argv in wl.scenario_argvs(args.workload, picked, builder, work / "inputs")]
    build_s = time.perf_counter() - build_start

    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if args.workload == "prove-corpus":
        prove = eclc.prove

        def call(item):
            return prove(*item)

        describe = wl.proof_record
    else:
        call = eclc.cli.main

        def describe(code):
            return wl.output_digest(out) if code == 0 else f"exit {code}"

    order = list(range(len(items)))
    random.Random(args.shuffle).shuffle(order)
    clock = time.perf_counter
    item_s, outputs = [0.0] * len(items), [""] * len(items)
    setup_s = time.monotonic() - args.spawned - harness_s
    probes = []  # probes[i] ran just before the i-th item in run order
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for k in order:
            probes.append(timed_probe(clock))
            start = clock()
            try:
                raw = call(items[k])
            except Exception as exc:  # an item that raises counts as failed
                item_s[k] = clock() - start
                outputs[k] = f"raised {type(exc).__name__}"
                continue
            item_s[k] = clock() - start
            outputs[k] = describe(raw)
    probes.append(timed_probe(clock))
    # an item's probe time is the mean of the probes either side of it
    probe_s = [0.0] * len(items)
    for i, k in enumerate(order):
        probe_s[k] = (probes[i] + probes[i + 1]) / 2

    result = {
        "setup_s": setup_s,
        "item_s": item_s,
        "probe_s": probe_s,
        "setup_probe_s": probes[0],
        "outputs": outputs,
        "ok": [got == want for got, want in zip(outputs, expected)],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(builder.nodes, build_s)
    return result


def main(argv=None) -> int:
    # the harness's own start-up, which is not charged to set-up time
    harness_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--plan", required=True, help="the batch's pool items and golden records, as JSON")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shuffle", type=int, default=0, help="seed of the order the items run in")
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    result = run_batch(args, plan, time.monotonic() - harness_start)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
