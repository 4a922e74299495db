"""Batch command-line front end.

Commands: ``validate`` checks a scenario file, ``prove`` runs proof
search on a named sequent, ``run`` executes a scenario and writes
report files, ``fit`` fits an exponential decay to a kappa,pi CSV.

Exit codes: 0 success, 1 runtime/validation failure, 2 usage error.
``ECLC_SEED`` supplies a seed when neither the command line nor the
scenario file does.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace

from .calculus import curvature_cost, prove, render_proof
from .dsl import ParseError, ScenarioConfig, parse_scenario
from .metrics import fit_exponential
from .sim import ScenarioError, ScenarioReport, run_scenario, write_report

ENV_SEED = "ECLC_SEED"


def _read_text(path: str) -> str | None:
    """The file's UTF-8 text, or None after reporting why it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        return None


def _load_config(path: str) -> ScenarioConfig | int:
    text = _read_text(path)
    if text is None:
        return 1
    try:
        return parse_scenario(text)
    except ParseError as exc:
        print(f"{path}:{exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
        if exc.expected:
            print(f"  expected: {', '.join(exc.expected)}", file=sys.stderr)
        return 1


def cmd_validate(args) -> int:
    config = _load_config(args.path)
    if isinstance(config, int):
        return config
    frame = config.frame
    print(f"OK: {len(frame.worlds)} worlds, {len(frame.edges)} edges, {len(config.observers)} observers")
    return 0


def cmd_prove(args) -> int:
    config = _load_config(args.path)
    if isinstance(config, int):
        return config
    if args.sequent not in config.sequents:
        known = ", ".join(config.sequents) or "none"
        print(f"usage error: unknown sequent {args.sequent!r} (declared: {known})", file=sys.stderr)
        return 2
    if args.world not in config.frame.worlds:
        print(f"usage error: unknown world {args.world!r}", file=sys.stderr)
        return 2
    _, _, seq = config.sequents[args.sequent]
    world = config.frame.world(args.world)
    model = config.cost_model
    result = prove(seq, world.lam, model, world.kappa)
    gamma_cost = sum(curvature_cost(phi, model, world.kappa) for phi in seq.gamma)
    delta_cost = sum(curvature_cost(phi, model, world.kappa) for phi in seq.delta)
    if result.proved:
        print(render_proof(result.tree))
        print(f"proved: depth {result.depth} (bound {world.lam})")
    else:
        print(f"not proved: {result.failure_reason}")
    print(f"cost: gamma={gamma_cost!r} delta={delta_cost!r} (kappa={world.kappa!r}, alpha={model.alpha!r})")
    return 0 if result.proved else 1


def _resolve_seed(args, config: ScenarioConfig) -> int | None:
    seed = None
    if args.seed is not None:
        seed = args.seed
    elif config.seed is not None:
        seed = config.seed
    else:
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ScenarioError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    if seed is not None and not (0 <= seed < 1 << 64):
        raise ScenarioError(f"seed must fit in 64 unsigned bits, got {seed}")
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
    config = _load_config(args.path)
    if isinstance(config, int):
        return config
    try:
        seed = _resolve_seed(args, config)
        overrides = {"seed": seed}
        if args.trials is not None:
            if args.trials < 1:
                raise ScenarioError("trials must be >= 1")
            overrides["trials"] = args.trials
        config = replace(config, **overrides)
        report = run_scenario(config)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        written = write_report(report, args.out, args.format)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(_summary(report))
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_fit(args) -> int:
    text = _read_text(args.path)
    if text is None:
        return 1
    points = []
    try:
        for row_no, row in enumerate(csv.reader(io.StringIO(text)), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"row {row_no}: need two columns (kappa, pi)")
            try:
                points.append((float(row[0]), float(row[1])))
            except ValueError:
                if row_no == 1:
                    continue  # header row
                raise ValueError(f"row {row_no}: not numeric: {row[:2]}") from None
        fit = fit_exponential(points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rate={fit.rate!r} r_squared={fit.r_squared!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p_run.set_defaults(func=cmd_run)

    p_fit = sub.add_parser("fit", help="fit exp(-rate*kappa) to a two-column kappa,pi CSV")
    p_fit.add_argument("path")
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
