"""Scenario file parser and serializer.

The format is line-oriented; ``#`` starts a comment.  Directives:

    scenario <kind>
    alpha = <real>
    kappa0 = <real>
    trials = <int>
    seed = <int>
    noise = <real>
    cost <atom> = <real>        (``cost * = <real>`` sets the default)
    world <id> { energy=<real>, kappa=<real>, lambda=<int> }
    edge <id> -> <id> { deltaE=<real> }
    prop <id> : <formula>
    observer <id> home=<id> horizon=<int>
    sequent <name> <id> -> <id> : <formulas> |- <formulas>

Formula syntax: atoms ``Name`` or ``Name(arg,...)``; ``!F`` and ``<r>F``
bind tightest; ``*`` (tensor) is left-associative; ``&`` binds below
``*``; ``-o`` is right-associative and loosest; parentheses group.
Atoms prefixed ``~`` are non-coherent, as are atoms whose name is in
the classical set (default: Classical, Decohered).  The Unicode
spellings of tensor and lolli are accepted as aliases.  A formula may
have at most MAX_FORMULA_NODES connectives and parentheses.

Lexical rules: identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``;
numbers are ASCII decimals with an optional fraction and exponent;
spaces, tabs and carriage returns separate tokens; any other character
is an error at its column.

Serialization is canonical: parse(serialize(c)) is structurally equal
to c, and serialize(parse(text)) is a fixed point after one pass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .calculus import Sequent
from .formula import (
    DEFAULT_CLASSICAL_ATOMS,
    Atom,
    Bang,
    CostModel,
    Diamond,
    Formula,
    Lolli,
    Tensor,
    With,
    format_formula,
    format_real,
)
from .frame import Frame, World
from .observer import Observer

SCENARIO_KINDS = ("coherence", "reciprocity", "accessibility")

_MAX_SEED = (1 << 64) - 1

# Most connectives (and parentheses) one formula may have.  The parser
# and the formula walkers recurse once per nesting level, so the bound
# keeps every input clear of the interpreter's recursion limit.
MAX_FORMULA_NODES = 200


class ParseError(Exception):
    """Syntax or semantic error with a 1-based source position."""

    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.message = message
        self.expected = tuple(expected)
        suffix = f" (expected: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"line {line}, column {column}: {message}{suffix}")


@dataclass
class ScenarioConfig:
    """Everything a simulation run needs, as parsed from one file."""

    frame: Frame
    cost_model: CostModel
    observers: list[Observer]
    sequents: dict[str, tuple[str, str, Sequent]]
    scenario_kind: str
    trials: int = 1
    seed: int | None = None
    kappa0: float = 1.0
    noise: float = 0.0


class _Token(NamedTuple):
    kind: str  # "ident", "number", punctuation text, or "end"
    text: str
    line: int
    col: int


# Blanks, then one token: a comment or the end of the line (no group),
# a number, an identifier, punctuation, or any other character (an error).
_LEX = re.compile(
    r"([ \t\r]*)(?:#.*|\Z"
    r"|([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(->|-o|\|-|[{}()=,:*&!~<>⊗⊸])"
    r"|(.))",
    re.DOTALL,
)
_ALIASES = {"⊗": "*", "⊸": "-o"}  # tensor, lolli


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    col = 1
    for blanks, number, ident, punct, other in _LEX.findall(text):
        col += len(blanks)
        if ident:
            tokens.append(_Token("ident", ident, line_no, col))
        elif punct:
            word = _ALIASES.get(punct, punct)
            tokens.append(_Token(word, word, line_no, col))
        elif number:
            tokens.append(_Token("number", number, line_no, col))
        elif other:
            raise ParseError(line_no, col, f"unexpected character {other!r}")
        else:
            break
        col += len(ident or punct or number)
    end_col = min(tokens[-1].col + len(tokens[-1].text) - 1, len(text)) if tokens else max(1, len(text))
    tokens.append(_Token("end", "", line_no, end_col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.connectives = 0  # in the formula being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def next_connective(self) -> _Token:
        """Consume a connective or ``(``; past MAX_FORMULA_NODES of them
        the formula is rejected, which bounds every recursive walk of it."""
        token = self.next()
        self.connectives += 1
        if self.connectives > MAX_FORMULA_NODES:
            raise ParseError(token.line, token.col, f"formula has more than {MAX_FORMULA_NODES} connectives")
        return token

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind:
            shown = token.text or "end of line"
            raise ParseError(token.line, token.col, f"unexpected {shown!r}", (what or kind,))
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "end"


def _parse_real(cursor: _Cursor, what: str) -> float:
    token = cursor.expect("number", what)
    value = float(token.text)
    if not math.isfinite(value):
        raise ParseError(token.line, token.col, f"{what} out of range")
    return value


def _parse_int(cursor: _Cursor, what: str) -> int:
    token = cursor.expect("number", what)
    if any(c in token.text for c in ".eE"):
        raise ParseError(token.line, token.col, f"{what} must be an integer", (what,))
    return int(token.text)


# Binary connectives: token -> (precedence, constructor, right-associative).
_BINARY = {"-o": (1, Lolli, True), "&": (2, With, False), "*": (3, Tensor, False)}


def _parse_formula(cursor: _Cursor, classical_atoms: frozenset[str], min_prec: int = 1) -> Formula:
    """Precedence climbing: operands are unary formulas, and each loop
    takes one binary connective that binds at least ``min_prec``."""
    left = _parse_unary(cursor, classical_atoms)
    while (op := _BINARY.get(cursor.peek().kind)) and op[0] >= min_prec:
        prec, make, right_assoc = op
        cursor.next_connective()
        left = make(left, _parse_formula(cursor, classical_atoms, prec if right_assoc else prec + 1))
    return left


def _parse_unary(cursor: _Cursor, classical_atoms) -> Formula:
    token = cursor.peek()
    if token.kind == "!":
        cursor.next_connective()
        return Bang(_parse_unary(cursor, classical_atoms))
    if token.kind == "<":
        cursor.next_connective()
        budget_tok = cursor.peek()
        budget = _parse_real(cursor, "diamond budget")
        if budget < 0:
            raise ParseError(budget_tok.line, budget_tok.col, "diamond budget must be >= 0")
        cursor.expect(">")
        return Diamond(budget, _parse_unary(cursor, classical_atoms))
    if token.kind == "~":
        cursor.next()
        return _parse_atom(cursor, classical_atoms, coherent=False)
    if token.kind == "(":
        cursor.next_connective()
        inner = _parse_formula(cursor, classical_atoms)
        cursor.expect(")")
        return inner
    if token.kind == "ident":
        return _parse_atom(cursor, classical_atoms, coherent=None)
    shown = token.text or "end of line"
    raise ParseError(token.line, token.col, f"unexpected {shown!r}", ("formula",))


def _parse_atom(cursor: _Cursor, classical_atoms, coherent: bool | None) -> Atom:
    name_tok = cursor.expect("ident", "atom name")
    args: list[str] = []
    if cursor.peek().kind == "(":
        cursor.next()
        args.append(cursor.expect("ident", "atom argument").text)
        while cursor.peek().kind == ",":
            cursor.next()
            args.append(cursor.expect("ident", "atom argument").text)
        cursor.expect(")")
    if coherent is None:
        coherent = name_tok.text not in classical_atoms
    return Atom(name_tok.text, tuple(args), coherent)


def parse_formula(text: str, classical_atoms: frozenset[str] = DEFAULT_CLASSICAL_ATOMS) -> Formula:
    """Parse a single formula; trailing input is an error."""
    cursor = _Cursor(_tokenize_line(text, 1))
    phi = _parse_formula(cursor, classical_atoms)
    tail = cursor.peek()
    if tail.kind != "end":
        raise ParseError(tail.line, tail.col, f"unexpected {tail.text!r} after formula")
    return phi


def _parse_formula_list(cursor: _Cursor, classical_atoms, stops: tuple[str, ...]) -> list[Formula]:
    formulas: list[Formula] = []
    if cursor.peek().kind in stops:
        return formulas
    while True:
        cursor.connectives = 0
        formulas.append(_parse_formula(cursor, classical_atoms))
        if cursor.peek().kind != ",":
            return formulas
        cursor.next()


class _ScenarioBuilder:
    def __init__(self, classical_atoms: frozenset[str]):
        self.classical_atoms = classical_atoms
        self.worlds: dict[str, World] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.atom_costs: dict[str, float] = {}
        self.default_cost: float | None = None
        self.alpha: float | None = None
        self.observers: list[Observer] = []
        self.observer_ids: set[str] = set()
        self.sequents: dict[str, tuple[str, str, Sequent]] = {}
        self.scenario_kind: str | None = None
        self.trials: int | None = None
        self.seed: int | None = None
        self.kappa0: float | None = None
        self.noise: float | None = None

    def require_world(self, token: _Token) -> str:
        if token.text not in self.worlds:
            raise ParseError(token.line, token.col, f"unknown world {token.text!r}")
        return token.text

    def set_once(self, attr: str, value, token: _Token) -> None:
        if getattr(self, attr) is not None:
            raise ParseError(token.line, token.col, f"duplicate {token.text!r} directive")
        setattr(self, attr, value)


# Directives ``<name> = <value>``: name -> (value parser, validity test, message if invalid).
_SCALARS = {
    "alpha": (_parse_real, lambda v: v > 0, "alpha must be > 0"),
    "kappa0": (_parse_real, lambda v: v >= 0, "kappa0 must be >= 0"),
    "trials": (_parse_int, lambda v: v >= 1, "trials must be >= 1"),
    "seed": (_parse_int, lambda v: 0 <= v <= _MAX_SEED, "seed must fit in 64 unsigned bits"),
    "noise": (_parse_real, lambda v: v >= 0, "noise must be >= 0"),
}


def _parse_directive(builder: _ScenarioBuilder, cursor: _Cursor) -> None:
    head = cursor.expect("ident", "directive")
    word = head.text

    if word == "world":
        id_tok = cursor.expect("ident", "world id")
        if id_tok.text in builder.worlds:
            raise ParseError(id_tok.line, id_tok.col, f"duplicate world id {id_tok.text!r}")
        cursor.expect("{")
        fields: dict[str, float | int] = {}
        while True:
            key_tok = cursor.expect("ident", "world attribute")
            if key_tok.text not in ("energy", "kappa", "lambda"):
                raise ParseError(
                    key_tok.line, key_tok.col, f"unknown world attribute {key_tok.text!r}",
                    ("energy", "kappa", "lambda"),
                )
            if key_tok.text in fields:
                raise ParseError(key_tok.line, key_tok.col, f"duplicate attribute {key_tok.text!r}")
            cursor.expect("=")
            if key_tok.text == "lambda":
                value: float | int = _parse_int(cursor, "lambda")
                if value < 1:
                    raise ParseError(key_tok.line, key_tok.col, "lambda must be >= 1")
            else:
                value = _parse_real(cursor, key_tok.text)
                if value < 0:
                    raise ParseError(key_tok.line, key_tok.col, f"{key_tok.text} must be >= 0")
            fields[key_tok.text] = value
            if cursor.peek().kind == ",":
                cursor.next()
                continue
            cursor.expect("}")
            break
        for needed in ("energy", "kappa", "lambda"):
            if needed not in fields:
                raise ParseError(head.line, head.col, f"world {id_tok.text!r} missing {needed!r}")
        builder.worlds[id_tok.text] = World(
            id_tok.text, float(fields["energy"]), float(fields["kappa"]), int(fields["lambda"])
        )
        return

    if word == "edge":
        src = builder.require_world(cursor.expect("ident", "source world"))
        cursor.expect("->")
        dst = builder.require_world(cursor.expect("ident", "target world"))
        if (src, dst) in builder.edges:
            raise ParseError(head.line, head.col, f"duplicate edge {src!r} -> {dst!r}")
        cursor.expect("{")
        key_tok = cursor.expect("ident", "deltaE")
        if key_tok.text != "deltaE":
            raise ParseError(key_tok.line, key_tok.col, f"unknown edge attribute {key_tok.text!r}", ("deltaE",))
        cursor.expect("=")
        delta_e = _parse_real(cursor, "deltaE")
        if delta_e < 0:
            raise ParseError(key_tok.line, key_tok.col, "deltaE must be >= 0")
        cursor.expect("}")
        builder.edges[(src, dst)] = delta_e
        return

    if word == "prop":
        wid = builder.require_world(cursor.expect("ident", "world id"))
        cursor.expect(":")
        phi = _parse_formula(cursor, builder.classical_atoms)
        builder.worlds[wid].props[phi] += 1
        return

    if word == "cost":
        token = cursor.peek()
        if token.kind == "*":
            cursor.next()
            cursor.expect("=")
            value = _parse_real(cursor, "default cost")
            if builder.default_cost is not None:
                raise ParseError(token.line, token.col, "duplicate default cost directive")
            builder.default_cost = value
            return
        atom_tok = cursor.expect("ident", "atom name")
        if atom_tok.text in builder.atom_costs:
            raise ParseError(atom_tok.line, atom_tok.col, f"duplicate cost for {atom_tok.text!r}")
        cursor.expect("=")
        value = _parse_real(cursor, "cost")
        if value < 0:
            raise ParseError(atom_tok.line, atom_tok.col, "cost must be >= 0")
        builder.atom_costs[atom_tok.text] = value
        return

    if word in _SCALARS:
        parse, valid, message = _SCALARS[word]
        cursor.expect("=")
        value = parse(cursor, word)
        if not valid(value):
            raise ParseError(head.line, head.col, message)
        builder.set_once(word, value, head)
        return

    if word == "observer":
        id_tok = cursor.expect("ident", "observer id")
        if id_tok.text in builder.observer_ids:
            raise ParseError(id_tok.line, id_tok.col, f"duplicate observer id {id_tok.text!r}")
        home_tok = cursor.expect("ident", "home")
        if home_tok.text != "home":
            raise ParseError(home_tok.line, home_tok.col, "expected home=<world>", ("home",))
        cursor.expect("=")
        home = builder.require_world(cursor.expect("ident", "home world"))
        horizon_tok = cursor.expect("ident", "horizon")
        if horizon_tok.text != "horizon":
            raise ParseError(horizon_tok.line, horizon_tok.col, "expected horizon=<int>", ("horizon",))
        cursor.expect("=")
        horizon = _parse_int(cursor, "horizon")
        if horizon < 0:
            raise ParseError(horizon_tok.line, horizon_tok.col, "horizon must be >= 0")
        builder.observer_ids.add(id_tok.text)
        builder.observers.append(Observer(id_tok.text, home, horizon))
        return

    if word == "sequent":
        name_tok = cursor.expect("ident", "sequent name")
        if name_tok.text in builder.sequents:
            raise ParseError(name_tok.line, name_tok.col, f"duplicate sequent name {name_tok.text!r}")
        src = builder.require_world(cursor.expect("ident", "source world"))
        cursor.expect("->")
        dst = builder.require_world(cursor.expect("ident", "target world"))
        cursor.expect(":")
        gamma = _parse_formula_list(cursor, builder.classical_atoms, stops=("|-",))
        cursor.expect("|-")
        delta = _parse_formula_list(cursor, builder.classical_atoms, stops=("end",))
        builder.sequents[name_tok.text] = (src, dst, Sequent(gamma, delta))
        return

    if word == "scenario":
        kind_tok = cursor.expect("ident", "scenario kind")
        if kind_tok.text not in SCENARIO_KINDS:
            raise ParseError(
                kind_tok.line, kind_tok.col, f"unknown scenario kind {kind_tok.text!r}", SCENARIO_KINDS
            )
        if builder.scenario_kind is not None:
            raise ParseError(head.line, head.col, "duplicate scenario directive")
        builder.scenario_kind = kind_tok.text
        return

    raise ParseError(
        head.line, head.col, f"unknown directive {word!r}",
        ("world", "edge", "prop", "cost", "alpha", "kappa0", "observer", "sequent",
         "scenario", "trials", "seed", "noise"),
    )


def parse_scenario(text: str, classical_atoms: frozenset[str] = DEFAULT_CLASSICAL_ATOMS) -> ScenarioConfig:
    """Parse a scenario file into a config; positions in errors are 1-based."""
    builder = _ScenarioBuilder(classical_atoms)
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, line_no)
        cursor = _Cursor(tokens)
        if cursor.at_end():
            continue
        _parse_directive(builder, cursor)
        tail = cursor.peek()
        if tail.kind != "end":
            raise ParseError(tail.line, tail.col, f"unexpected {tail.text!r} after directive")
    if not builder.worlds:
        raise ParseError(1, 1, "no worlds declared")
    frame = Frame(
        builder.worlds.values(),
        [(src, dst, delta_e) for (src, dst), delta_e in builder.edges.items()],
    )
    model = CostModel(
        atom_costs=builder.atom_costs,
        default_cost=1.0 if builder.default_cost is None else builder.default_cost,
        alpha=1.0 if builder.alpha is None else builder.alpha,
    )
    return ScenarioConfig(
        frame=frame,
        cost_model=model,
        observers=builder.observers,
        sequents=builder.sequents,
        scenario_kind=builder.scenario_kind or "coherence",
        trials=1 if builder.trials is None else builder.trials,
        seed=builder.seed,
        kappa0=1.0 if builder.kappa0 is None else builder.kappa0,
        noise=0.0 if builder.noise is None else builder.noise,
    )


def serialize_scenario(config: ScenarioConfig, classical_atoms: frozenset[str] = DEFAULT_CLASSICAL_ATOMS) -> str:
    """Emit the canonical text form; reparsing yields an equal config."""
    lines = [f"scenario {config.scenario_kind}"]
    lines.append(f"alpha = {format_real(config.cost_model.alpha)}")
    lines.append(f"kappa0 = {format_real(config.kappa0)}")
    lines.append(f"trials = {config.trials}")
    if config.seed is not None:
        lines.append(f"seed = {config.seed}")
    lines.append(f"noise = {format_real(config.noise)}")
    lines.append(f"cost * = {format_real(config.cost_model.default_cost)}")
    for name in sorted(config.cost_model.atom_costs):
        lines.append(f"cost {name} = {format_real(config.cost_model.atom_costs[name])}")
    for world in config.frame.worlds.values():
        lines.append(
            f"world {world.id} {{ energy={format_real(world.energy)}, "
            f"kappa={format_real(world.kappa)}, lambda={world.lam} }}"
        )
    for (src, dst), delta_e in config.frame.edges.items():
        lines.append(f"edge {src} -> {dst} {{ deltaE={format_real(delta_e)} }}")
    for world in config.frame.worlds.values():
        for phi, count in world.props.items():
            rendered = format_formula(phi, classical_atoms)
            lines.extend([f"prop {world.id} : {rendered}"] * count)
    for obs in config.observers:
        lines.append(f"observer {obs.id} home={obs.home} horizon={obs.horizon}")
    for name, (src, dst, seq) in config.sequents.items():
        gamma = ", ".join(format_formula(phi, classical_atoms) for phi in seq.gamma)
        delta = ", ".join(format_formula(phi, classical_atoms) for phi in seq.delta)
        lines.append(f"sequent {name} {src} -> {dst} : {gamma} |- {delta}")
    return "\n".join(lines) + "\n"
