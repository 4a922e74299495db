"""Scenario file parser and serializer.

The format is line-oriented; ``#`` starts a comment.  Directives:

    scenario <kind>
    alpha = <real>
    kappa0 = <real>
    trials = <int>              (1 to MAX_TRIALS)
    seed = <int>
    noise = <real>              (0 to MAX_NOISE)
    cost <atom> = <real>        (``cost * = <real>`` sets the default)
    world <id> { energy=<real>, kappa=<real>, lambda=<int> }   (lambda 1 to MAX_LAMBDA)
    edge <id> -> <id> { deltaE=<real> }
    prop <id> : <formula>
    observer <id> home=<id> horizon=<int>
    sequent <name> <id> -> <id> : <formulas> |- <formulas>

Formula syntax: atoms ``Name`` or ``Name(arg,...)``; ``!F`` and ``<r>F``
bind tightest; ``*`` (tensor) is left-associative; ``&`` binds below
``*``; ``-o`` is right-associative and loosest; parentheses group.
Atoms prefixed ``~`` are non-coherent, as are atoms whose name is in
CLASSICAL_ATOMS (Classical, Decohered).  The Unicode
spellings of tensor and lolli are accepted as aliases.  A formula may
have at most MAX_FORMULA_NODES connectives and parentheses.

Lexical rules: identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``;
numbers are ASCII decimals with an optional fraction and exponent;
spaces and tabs separate tokens; each line break of ``str.splitlines``
ends a line, and any other character is an error at its column.

Serialization is canonical: parse(serialize(c)) is structurally equal
to c, and serialize(parse(text)) is a fixed point after one pass.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .calculus import Sequent
from .formula import (
    CLASSICAL_ATOMS,
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

# Most trials one run may make.  A reciprocity trial takes about a third
# of a millisecond, so the bound keeps a run to tens of seconds.
MAX_TRIALS = 100_000

# Largest world capacity.  Proof search recurses once per depth level, so
# this leaves a MAX_FORMULA_NODES-deep formula walk room under the limit.
MAX_LAMBDA = 500

# Largest jitter amplitude; it keeps noise * lambda a finite float, and at
# 100 a measurement already fails with probability above 0.99.
MAX_NOISE = 100


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


_Token = tuple[str, str, int]  # (kind, text, offset in the input)
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines
# Blanks and a comment, then one token; "end" is a line break.
_LEX = re.compile(
    f"[ \t]*(?:#[^{_BREAKS}]*)?(?:(?P<end>\r\n|[{_BREAKS}])"
    r"|(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>->|-o|\|-|[{}()=,:*&!~<>⊗⊸])"
    r"|(?P<other>.))"
)
_ALIASES = {"⊗": "*", "⊸": "-o"}  # tensor, lolli


def _tokenize(text: str) -> tuple[list[_Token], _Token | None]:
    """Tokens up to the line of the first stray character, and that character
    as ("error", message, offset) or None.  A kind is "ident", "number", the
    punctuation, or "end", which closes each line (a final break opens one
    more) and sits on the line's last token, else on its last character."""
    tokens: list[_Token] = []
    first = last = 0  # the index of the line's first token; the end of its last token
    for m in _LEX.finditer(text + "\f"):  # a last break, which cannot join a final "\r"
        kind = m.lastgroup
        if kind == "end":
            if len(tokens) == first:  # no token: the match starts where the line does
                last = max(m.start() + 1, m.start(kind))
            tokens.append(("end", "end of line", last - 1))
            first = len(tokens)
        elif kind == "other":
            del tokens[first:]
            return tokens, ("error", f"unexpected character {m[kind]!r}", m.start(kind))
        else:
            word = m[kind]
            start, last = m.span(kind)
            if kind == "punct":
                kind = word = _ALIASES.get(word, word)
            tokens.append((kind, word, start))
    return tokens, None


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.stray = _tokenize(text)
        self.pos = 0
        self.connectives = 0  # in the formula being parsed

    def error(self, token: _Token, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at the token's line and column: the rows of the text up to its offset, plus a stand-in for it."""
        rows = (self.text[: token[2]] + "|").splitlines()
        return ParseError(len(rows), len(rows[-1]), message, expected)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def next_connective(self) -> None:
        """Consume a connective or ``(``; past MAX_FORMULA_NODES of them
        the formula is rejected, which bounds every recursive walk of it."""
        token = self.next()
        self.connectives += 1
        if self.connectives > MAX_FORMULA_NODES:
            raise self.error(token, f"formula has more than {MAX_FORMULA_NODES} connectives")

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self.peek()
        if token[0] != kind:
            raise self.error(token, f"unexpected {token[1]!r}", (what or kind,))
        return self.next()


def _parse_real(cursor: _Cursor, what: str) -> float:
    token = cursor.expect("number", what)
    value = float(token[1])
    if not math.isfinite(value):
        raise cursor.error(token, f"{what} out of range")
    return value


def _parse_int(cursor: _Cursor, what: str) -> int:
    token = cursor.expect("number", what)
    if any(c in token[1] for c in ".eE"):
        raise cursor.error(token, f"{what} must be an integer", (what,))
    try:
        return int(token[1])
    except ValueError:  # more digits than Python converts
        raise cursor.error(token, f"{what} out of range") from None


# Binary connectives: token -> (precedence, constructor, right-associative).
_BINARY = {"-o": (1, Lolli, True), "&": (2, With, False), "*": (3, Tensor, False)}


def _parse_formula(cursor: _Cursor, min_prec: int = 1) -> Formula:
    """Precedence climbing: operands are unary formulas, and each loop
    takes one binary connective that binds at least ``min_prec``."""
    left = _parse_unary(cursor)
    while (op := _BINARY.get(cursor.peek()[0])) and op[0] >= min_prec:
        prec, make, right_assoc = op
        cursor.next_connective()
        left = make(left, _parse_formula(cursor, prec if right_assoc else prec + 1))
    return left


def _parse_unary(cursor: _Cursor) -> Formula:
    token = cursor.peek()
    if token[0] == "!":
        cursor.next_connective()
        return Bang(_parse_unary(cursor))
    if token[0] == "<":
        cursor.next_connective()
        budget = _parse_real(cursor, "diamond budget")
        cursor.expect(">")
        return Diamond(budget, _parse_unary(cursor))
    if token[0] == "~":
        cursor.next()
        return _parse_atom(cursor, coherent=False)
    if token[0] == "(":
        cursor.next_connective()
        inner = _parse_formula(cursor)
        cursor.expect(")")
        return inner
    if token[0] == "ident":
        return _parse_atom(cursor, coherent=None)
    raise cursor.error(token, f"unexpected {token[1]!r}", ("formula",))


def _parse_atom(cursor: _Cursor, coherent: bool | None) -> Atom:
    name = cursor.expect("ident", "atom name")[1]
    args: list[str] = []
    if cursor.peek()[0] == "(":
        cursor.next()
        args.append(cursor.expect("ident", "atom argument")[1])
        while cursor.peek()[0] == ",":
            cursor.next()
            args.append(cursor.expect("ident", "atom argument")[1])
        cursor.expect(")")
    if coherent is None:
        coherent = name not in CLASSICAL_ATOMS
    return Atom(name, tuple(args), coherent)


def parse_formula(text: str) -> Formula:
    """Parse a single formula; trailing input, a line break included, is an error."""
    line = (text.splitlines() or [""])[0]
    cursor = _Cursor(line)
    if cursor.stray or len(line) < len(text):  # a stray character, else a line break
        stray = cursor.stray or ("error", f"unexpected character {text[len(line)]!r}", len(line))
        raise cursor.error(stray, stray[1])
    phi = _parse_formula(cursor)
    tail = cursor.peek()
    if tail[0] != "end":
        raise cursor.error(tail, f"unexpected {tail[1]!r} after formula")
    return phi


def _parse_formula_list(cursor: _Cursor, stops: tuple[str, ...]) -> list[Formula]:
    formulas: list[Formula] = []
    if cursor.peek()[0] in stops:
        return formulas
    while True:
        cursor.connectives = 0
        formulas.append(_parse_formula(cursor))
        if cursor.peek()[0] != ",":
            return formulas
        cursor.next()


class _ScenarioBuilder:
    def __init__(self):
        self.worlds: dict[str, World] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.atom_costs: dict[str, float] = {}
        self.observers: list[Observer] = []
        self.observer_ids: set[str] = set()
        self.sequents: dict[str, tuple[str, str, Sequent]] = {}
        # the fields a directive set; the rest keep their dataclass defaults
        self.settings: dict[str, object] = {}

    def require_world(self, cursor: _Cursor, what: str) -> str:
        token = cursor.expect("ident", what)
        if token[1] not in self.worlds:
            raise cursor.error(token, f"unknown world {token[1]!r}")
        return token[1]

    def set_once(self, cursor: _Cursor, field: str, value, token: _Token, message: str) -> None:
        if field in self.settings:
            raise cursor.error(token, message)
        self.settings[field] = value


# Directives ``<name> = <value>``: name -> (value parser, validity test, message if invalid).
# A number token has no sign, so no test needs a lower bound of 0.
_SCALARS = {
    "alpha": (_parse_real, lambda v: v > 0, "alpha must be > 0"),
    "kappa0": (_parse_real, lambda v: True, None),
    "trials": (_parse_int, lambda v: 1 <= v <= MAX_TRIALS, f"trials must be between 1 and {MAX_TRIALS}"),
    "seed": (_parse_int, lambda v: v <= _MAX_SEED, "seed must fit in 64 unsigned bits"),
    "noise": (_parse_real, lambda v: v <= MAX_NOISE, f"noise must be between 0 and {MAX_NOISE}"),
}


def _parse_directive(builder: _ScenarioBuilder, cursor: _Cursor) -> None:
    head = cursor.expect("ident", "directive")
    word = head[1]

    if word == "world":
        id_tok = cursor.expect("ident", "world id")
        if id_tok[1] in builder.worlds:
            raise cursor.error(id_tok, f"duplicate world id {id_tok[1]!r}")
        cursor.expect("{")
        fields: dict[str, float | int] = {}
        while True:
            key_tok = cursor.expect("ident", "world attribute")
            if key_tok[1] not in ("energy", "kappa", "lambda"):
                raise cursor.error(
                    key_tok, f"unknown world attribute {key_tok[1]!r}",
                    ("energy", "kappa", "lambda"),
                )
            if key_tok[1] in fields:
                raise cursor.error(key_tok, f"duplicate attribute {key_tok[1]!r}")
            cursor.expect("=")
            if key_tok[1] == "lambda":
                value: float | int = _parse_int(cursor, "lambda")
                if not 1 <= value <= MAX_LAMBDA:
                    raise cursor.error(key_tok, f"lambda must be between 1 and {MAX_LAMBDA}")
            else:
                value = _parse_real(cursor, key_tok[1])
            fields[key_tok[1]] = value
            if cursor.peek()[0] != ",":
                break
            cursor.next()
        cursor.expect("}")
        for needed in ("energy", "kappa", "lambda"):
            if needed not in fields:
                raise cursor.error(head, f"world {id_tok[1]!r} missing {needed!r}")
        builder.worlds[id_tok[1]] = World(
            id_tok[1], float(fields["energy"]), float(fields["kappa"]), int(fields["lambda"])
        )
        return

    if word == "edge":
        src = builder.require_world(cursor, "source world")
        cursor.expect("->")
        dst = builder.require_world(cursor, "target world")
        if (src, dst) in builder.edges:
            raise cursor.error(head, f"duplicate edge {src!r} -> {dst!r}")
        cursor.expect("{")
        key_tok = cursor.expect("ident", "deltaE")
        if key_tok[1] != "deltaE":
            raise cursor.error(key_tok, f"unknown edge attribute {key_tok[1]!r}", ("deltaE",))
        cursor.expect("=")
        delta_e = _parse_real(cursor, "deltaE")
        cursor.expect("}")
        builder.edges[(src, dst)] = delta_e
        return

    if word == "prop":
        wid = builder.require_world(cursor, "world id")
        cursor.expect(":")
        phi = _parse_formula(cursor)
        builder.worlds[wid].props[phi] += 1
        return

    if word == "cost":
        token = cursor.peek()
        if token[0] == "*":
            cursor.next()
            cursor.expect("=")
            value = _parse_real(cursor, "default cost")
            builder.set_once(cursor, "default_cost", value, token, "duplicate default cost directive")
            return
        atom_tok = cursor.expect("ident", "atom name")
        if atom_tok[1] in builder.atom_costs:
            raise cursor.error(atom_tok, f"duplicate cost for {atom_tok[1]!r}")
        cursor.expect("=")
        value = _parse_real(cursor, "cost")
        builder.atom_costs[atom_tok[1]] = value
        return

    if word in _SCALARS:
        parse, valid, message = _SCALARS[word]
        cursor.expect("=")
        value = parse(cursor, word)
        if not valid(value):
            raise cursor.error(head, message)
        builder.set_once(cursor, word, value, head, f"duplicate {word!r} directive")
        return

    if word == "observer":
        id_tok = cursor.expect("ident", "observer id")
        if id_tok[1] in builder.observer_ids:
            raise cursor.error(id_tok, f"duplicate observer id {id_tok[1]!r}")
        home_tok = cursor.expect("ident", "home")
        if home_tok[1] != "home":
            raise cursor.error(home_tok, "expected home=<world>", ("home",))
        cursor.expect("=")
        home = builder.require_world(cursor, "home world")
        horizon_tok = cursor.expect("ident", "horizon")
        if horizon_tok[1] != "horizon":
            raise cursor.error(horizon_tok, "expected horizon=<int>", ("horizon",))
        cursor.expect("=")
        horizon = _parse_int(cursor, "horizon")
        builder.observer_ids.add(id_tok[1])
        builder.observers.append(Observer(id_tok[1], home, horizon))
        return

    if word == "sequent":
        name_tok = cursor.expect("ident", "sequent name")
        if name_tok[1] in builder.sequents:
            raise cursor.error(name_tok, f"duplicate sequent name {name_tok[1]!r}")
        src = builder.require_world(cursor, "source world")
        cursor.expect("->")
        dst = builder.require_world(cursor, "target world")
        cursor.expect(":")
        gamma = _parse_formula_list(cursor, stops=("|-",))
        cursor.expect("|-")
        delta = _parse_formula_list(cursor, stops=("end",))
        builder.sequents[name_tok[1]] = (src, dst, Sequent(gamma, delta))
        return

    if word == "scenario":
        kind_tok = cursor.expect("ident", "scenario kind")
        if kind_tok[1] not in SCENARIO_KINDS:
            raise cursor.error(
                kind_tok, f"unknown scenario kind {kind_tok[1]!r}", SCENARIO_KINDS
            )
        builder.set_once(cursor, "scenario_kind", kind_tok[1], head, "duplicate scenario directive")
        return

    raise cursor.error(
        head, f"unknown directive {word!r}",
        ("world", "edge", "prop", "cost", "alpha", "kappa0", "observer", "sequent",
         "scenario", "trials", "seed", "noise"),
    )


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario file into a config; positions in errors are 1-based."""
    builder = _ScenarioBuilder()
    cursor = _Cursor(text)
    while cursor.pos < len(cursor.tokens):
        if cursor.peek()[0] != "end":
            cursor.connectives = 0
            _parse_directive(builder, cursor)
            tail = cursor.peek()
            if tail[0] != "end":
                raise cursor.error(tail, f"unexpected {tail[1]!r} after directive")
        cursor.next()
    if cursor.stray:  # after every fault of the lines before it
        raise cursor.error(cursor.stray, cursor.stray[1])
    if not builder.worlds:
        raise ParseError(1, 1, "no worlds declared")
    frame = Frame(
        builder.worlds.values(),
        [(src, dst, delta_e) for (src, dst), delta_e in builder.edges.items()],
    )
    settings = builder.settings
    costs = {name: settings.pop(name) for name in ("default_cost", "alpha") if name in settings}
    return ScenarioConfig(
        frame=frame,
        cost_model=CostModel(builder.atom_costs, **costs),
        observers=builder.observers,
        sequents=builder.sequents,
        scenario_kind=settings.pop("scenario_kind", "coherence"),
        **settings,
    )


def serialize_scenario(config: ScenarioConfig) -> str:
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
            rendered = format_formula(phi)
            lines.extend([f"prop {world.id} : {rendered}"] * count)
    for obs in config.observers:
        lines.append(f"observer {obs.id} home={obs.home} horizon={obs.horizon}")
    for name, (src, dst, seq) in config.sequents.items():
        gamma = ", ".join(format_formula(phi) for phi in seq.gamma)
        delta = ", ".join(format_formula(phi) for phi in seq.delta)
        lines.append(f"sequent {name} {src} -> {dst} : {gamma} |- {delta}")
    return "\n".join(lines) + "\n"
