"""Batch command-line front end.

Commands: ``validate`` checks a scenario file, ``prove`` runs proof
search on a named sequent, ``run`` executes a scenario and writes
report files, ``fit`` fits an exponential decay to a kappa,pi CSV.

Exit codes: 0 success, 1 runtime/validation failure (a CSV that
``fit`` cannot read, or a stdout closed by its reader, which prints
nothing), 2 usage error.  ``ECLC_SEED`` supplies a seed when neither
the command line nor the scenario file does.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
import time

from .calculus import _side_cost, curvature_cost, prove, render_proof
from .dsl import MAX_TRIALS, ParseError, ScenarioConfig, parse_scenario
from .metrics import fit_exponential
from .sim import ScenarioError, ScenarioReport, run_scenario, write_report

ENV_SEED = "ECLC_SEED"


class CliError(Exception):
    """``CliError(text, code)``: a failure that ``main`` reports by writing
    the text to stderr and returning the code (1, or 2 for a usage error)."""


def _read_text(path: str) -> str:
    """The file's UTF-8 text, or a CliError saying why it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"error: cannot read {path}: {getattr(exc, 'strerror', None) or exc}", 1) from None


def _load_config(path: str) -> ScenarioConfig:
    try:
        return parse_scenario(_read_text(path))
    except ParseError as exc:
        expected = f"\n  expected: {', '.join(exc.expected)}" if exc.expected else ""
        raise CliError(f"{path}:{exc.line}:{exc.column}: {exc.message}{expected}", 1) from None


def cmd_validate(args) -> int:
    config = _load_config(args.path)
    frame = config.frame
    print(f"OK: {len(frame.worlds)} worlds, {len(frame.edges)} edges, {len(config.observers)} observers")
    return 0


def cmd_prove(args) -> int:
    config = _load_config(args.path)
    if args.sequent not in config.sequents:
        known = ", ".join(config.sequents) or "none"
        raise CliError(f"usage error: unknown sequent {args.sequent!r} (declared: {known})", 2)
    if args.world not in config.frame.worlds:
        raise CliError(f"usage error: unknown world {args.world!r}", 2)
    _, _, seq = config.sequents[args.sequent]
    world = config.frame.world(args.world)
    model = config.cost_model
    result = prove(seq, world.lam, model, world.kappa)
    gamma_cost, delta_cost = _side_cost(seq.gamma, model), _side_cost(seq.delta, model)
    gamma_scaled, delta_scaled = (
        sum(curvature_cost(phi, model, world.kappa) for phi in side) for side in (seq.gamma, seq.delta)
    )
    if result.proved:
        print(render_proof(result.tree))
        print(f"proved: depth {result.depth} (bound {world.lam})")
    else:
        print(f"not proved: {result.failure_reason}")
    print(f"cost: gamma={gamma_cost!r} delta={delta_cost!r} (unscaled; these decide cost_valid)")
    print(f"scaled: gamma={gamma_scaled!r} delta={delta_scaled!r} (kappa={world.kappa!r}, alpha={model.alpha!r})")
    return 0 if result.proved else 1


def _cut(shown: str, count: str) -> str:
    """``shown`` whole up to 40 characters, else its first 32 and ``count``."""
    return shown if len(shown) <= 40 else f"{shown[:32]}... ({count})"


def _resolve_seed(args, config: ScenarioConfig) -> int | None:
    seed = config.seed if args.seed is None else args.seed
    env = os.environ.get(ENV_SEED)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:  # not an integer, or more digits than Python converts
            try:  # int() again, with each run of digits and single underscores cut to one digit
                int(re.sub(r"\d+(?:_\d+)*", "1", env))
                problem = "out of range"
            except ValueError:  # ascii() escapes, so one character is one byte
                problem = f"must be an integer, got {_cut(ascii(env), f'{len(env)} characters')}"
            raise ScenarioError(f"{ENV_SEED} {problem}") from None
    if seed is not None and not (0 <= seed < 1 << 64):
        shown = _cut(str(seed), f"{len(str(abs(seed)))} digits")
        raise ScenarioError(f"seed must fit in 64 unsigned bits, got {shown}")
    return seed


def _summary(report: ScenarioReport) -> str:
    if report.kind == "coherence":
        pis = ", ".join(f"{row.pi:.6g}" for row in report.per_world)
        if report.fit is not None:
            return f"coherence: pi=[{pis}] rate={report.fit.rate:.6g} r_squared={report.fit.r_squared:.6g}"
        return f"coherence: pi=[{pis}] (no fit)"
    if report.kind == "reciprocity":
        forward = [t for t in report.trials if t.direction == "forward"]
        reverse = [t for t in report.trials if t.direction == "reverse"]
        return (
            f"reciprocity: forward {sum(t.success for t in forward)}/{len(forward)}, "
            f"reverse {sum(t.success for t in reverse)}/{len(reverse)}, "
            f"fisher_p={report.fisher_p:.6g}"
        )
    access = ", ".join(f"{row.access_fraction:.6g}" for row in report.per_world)
    return f"accessibility: access=[{access}] final={report.per_world[-1].access_fraction:.6g}"


def cmd_run(args) -> int:
    start = time.perf_counter()
    config = _load_config(args.path)
    parsed = time.perf_counter()
    overrides = {"seed": _resolve_seed(args, config)}
    if args.trials is not None:
        if not 1 <= args.trials <= MAX_TRIALS:
            raise ScenarioError(f"trials must be between 1 and {MAX_TRIALS}")
        overrides["trials"] = args.trials
    report = run_scenario(config._replace(**overrides))
    ran = time.perf_counter()
    try:
        written = write_report(report, args.out, args.format)
    except OSError as exc:
        raise CliError(f"error: cannot write {args.out}: {exc.strerror or exc}", 1) from None
    if args.timings:  # stderr only: timings vary from run to run, and reports must not
        spans = (parsed - start, ran - parsed, time.perf_counter() - ran)
        print("timings: parse %.6f s, run %.6f s, write %.6f s" % spans, file=sys.stderr)
    print(_summary(report))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fit(args) -> int:
    import csv  # only this command reads CSV, so the others start without it
    reader = csv.reader(io.StringIO(_read_text(args.path)))
    points, row_no = [], 0
    try:
        for row_no, row in enumerate(reader, start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"row {row_no}: need two columns (kappa, pi)")
            try:
                point = (float(row[0]), float(row[1]))
            except ValueError:
                if row_no == 1:
                    continue  # header row
                raise ValueError(f"row {row_no}: not numeric: {row[:2]}") from None
            if not all(map(math.isfinite, point)):
                raise ValueError(f"row {row_no}: not finite: {row[:2]}")
            points.append(point)
        fit = fit_exponential(points)
    except csv.Error as exc:  # raised reading the row after the last one numbered
        raise CliError(f"error: row {row_no + 1}: {exc}", 1) from None
    except ValueError as exc:
        raise CliError(f"error: {exc}", 1) from None
    print(f"rate={fit.rate!r} r_squared={fit.r_squared!r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call, not at import, then reused.  The parser holds
    the ``cmd_*`` functions themselves, so patch the names they call, not them."""
    parser = argparse.ArgumentParser(
        prog="eclc",
        description="Resource-bounded linear-logic inference over weighted Kripke frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and check a scenario file")
    p_validate.add_argument("path")
    p_validate.set_defaults(func=cmd_validate)

    p_prove = sub.add_parser("prove", help="prove a named sequent under a world's capacity")
    p_prove.add_argument("path")
    p_prove.add_argument("--sequent", required=True, help="sequent name declared in the file")
    p_prove.add_argument("--world", required=True, help="world whose lambda and kappa apply")
    p_prove.set_defaults(func=cmd_prove)

    p_run = sub.add_parser("run", help="run the scenario and write report files")
    p_run.add_argument("path")
    p_run.add_argument("--seed", type=int, default=None, help="override the file seed")
    p_run.add_argument("--trials", type=int, default=None, help="override the file trial count")
    p_run.add_argument("--out", default=".", help="output directory (default: current)")
    p_run.add_argument("--format", choices=("json", "csv", "both"), default="both")
    p_run.add_argument("--timings", action="store_true", help="write the parse, run and write seconds to stderr")
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit exp(-rate*kappa) to a two-column kappa,pi CSV")
    p_fit.add_argument("path")
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except CliError as exc:
        text, code = exc.args
        print(text, file=sys.stderr)
        return code
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull at exit
        with open(os.devnull, "w") as sink:
            os.dup2(sink.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
