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
CLASSICAL_ATOMS (Classical, Decohered).  The Unicode spellings of tensor
and lolli are accepted as aliases.  A formula may have at most
MAX_FORMULA_NODES connectives and parentheses.

Lexical rules: identifiers are ASCII ``[A-Za-z_][A-Za-z0-9_]*``;
numbers are ASCII decimals with an optional fraction and exponent;
spaces and tabs separate tokens; each line break of ``str.splitlines``
ends a line, and any other character is an error at its column.  A
line is lexed on its own, by one ``findall`` over the text before its
first ``#``, and is valid when only blanks lie outside its tokens.  The
first line that has a fault is the one reported, and on it a stray
character comes before a syntax error.

Serialization is canonical: parse(serialize(c)) is structurally equal
to c, and serialize(parse(text)) is a fixed point after one pass.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .calculus import Sequent, format_sequent
from .formula import (
    BINARY_SYNTAX,
    CLASSICAL_ATOMS,
    Atom,
    Bang,
    CostModel,
    Diamond,
    Formula,
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


class ScenarioConfig(NamedTuple):
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


# One token: a number, an identifier or a punctuation mark.  A token's
# kind is read from its first character.
_TOKEN = re.compile(
    r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|->|-o|\|-|[{}()=,:*&!~<>⊗⊸]"
)
_ALIASES = {"⊗": "*", "⊸": "-o"}  # tensor, lolli

# Binary connectives: token -> (precedence, constructor, right-associative).
_BINARY = {glyph: (level, make, right) for make, (glyph, level, right) in BINARY_SYNTAX.items()}
_BINARY.update({glyph: _BINARY[word] for glyph, word in _ALIASES.items()})

_WORLD_FIELDS = ("energy", "kappa", "lambda")


class _Parser:
    """Reads a text line by line into a scenario.  ``t`` holds the tokens of
    the line being read, closed by "" for its end; rules read it by index."""

    def __init__(self):
        self.worlds: dict[str, World] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.atom_costs: dict[str, float] = {}
        self.observers: dict[str, Observer] = {}
        self.sequents: dict[str, tuple[str, str, Sequent]] = {}
        # the fields a directive set; the rest keep their ScenarioConfig defaults
        self.settings: dict[str, object] = {}
        self.memo: dict[tuple[str, ...], Formula] = {}  # prop formula tokens -> formula
        self.pos = self.connectives = 0  # in the formula being parsed

    def read(self, lines: list[str]):
        """Yield each line's tokens, closed by "", or raise at its first stray character."""
        for self.number, self.text in enumerate(lines, 1):
            code = self.text.partition("#")[0]  # no token holds a "#", so it starts a comment
            t = self.t = _TOKEN.findall(code)
            # findall steps over what no token matches; that must be blanks only
            if len("".join(t)) != len(code) - code.count(" ") - code.count("\t"):
                masked = _TOKEN.sub(lambda m: " " * len(m[0]), code)  # blanks where tokens were
                column = len(code) - len(masked.lstrip(" \t")) + 1
                raise ParseError(self.number, column, f"unexpected character {code[column - 1]!r}")
            t.append("")
            yield t

    def error(self, at: int, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        """A ParseError at token ``at`` of the line, found again by rescanning it.
        The line's end sits on the last character of its last token, else on
        the line's last character, else at column 1."""
        spans = [m.span() for m in _TOKEN.finditer(self.text.partition("#")[0])]
        if at < len(spans):
            column = spans[at][0] + 1
        else:
            column = spans[-1][1] if spans else max(1, len(self.text))
        return ParseError(self.number, column, message, expected)

    def unexpected(self, at: int, what: str | None = None, after: str = "") -> ParseError:
        word = self.t[at]
        shown = _ALIASES.get(word, word) or "end of line"
        return self.error(at, f"unexpected {shown!r}{after}", (what,) if what else ())

    def wrong(self, at: int, message: str, expected: tuple[str, ...], what: str) -> ParseError:
        """``message`` at an identifier; at any other token, an unexpected ``what``."""
        if self.t[at].isidentifier():
            return self.error(at, message, expected)
        return self.unexpected(at, what)

    def new_id(self, at: int, taken, what: str, duplicate: str) -> str:
        word = self.t[at]
        if word in taken:
            raise self.error(at, f"{duplicate} {word!r}")
        if not word.isidentifier():
            raise self.unexpected(at, what)
        return word

    def world_id(self, at: int, what: str) -> str:
        word = self.t[at]
        if word not in self.worlds:
            raise self.wrong(at, f"unknown world {word!r}", (), what)
        return word

    def real(self, at: int, what: str) -> float:
        word = self.t[at]
        if not word[:1].isdigit():
            raise self.unexpected(at, what)
        value = float(word)
        if not math.isfinite(value):
            raise self.error(at, f"{what} out of range")
        return value

    def integer(self, at: int, what: str) -> int:
        word = self.t[at]
        if not word[:1].isdigit():
            raise self.unexpected(at, what)
        if not word.isdigit():  # a fraction or an exponent
            raise self.error(at, f"{what} must be an integer", (what,))
        try:
            return int(word)
        except ValueError:  # more digits than Python converts
            raise self.error(at, f"{what} out of range") from None

    def need(self, at: int, word: str) -> int:
        """The index just past token ``at``, which must be ``word``."""
        if self.t[at] != word:
            raise self.unexpected(at, word)
        return at + 1

    def set_once(self, field: str, value, at: int, message: str) -> None:
        if field in self.settings:
            raise self.error(at, message)
        self.settings[field] = value

    # Formulas: precedence climbing over ``t`` from ``pos``.

    def formula_at(self, at: int) -> Formula:
        self.pos, self.connectives = at, 0
        return self.formula()

    def formula(self, min_prec: int = 1) -> Formula:
        """Operands are unary formulas, and each loop takes one binary
        connective that binds at least ``min_prec``."""
        left = self.unary()
        while (op := _BINARY.get(self.t[self.pos])) and op[0] >= min_prec:
            prec, make, right_assoc = op
            self.connective()
            left = make(left, self.formula(prec if right_assoc else prec + 1))
        return left

    def connective(self) -> None:
        """Consume a connective or ``(``; past MAX_FORMULA_NODES of them
        the formula is rejected, which bounds every recursive walk of it."""
        self.connectives += 1
        if self.connectives > MAX_FORMULA_NODES:
            raise self.error(self.pos, f"formula has more than {MAX_FORMULA_NODES} connectives")
        self.pos += 1

    def unary(self) -> Formula:
        t, at = self.t, self.pos
        word = t[at]
        if word == "!":
            self.connective()
            return Bang(self.unary())
        if word == "<":
            self.connective()
            budget = self.real(self.pos, "diamond budget")
            self.pos = self.need(self.pos + 1, ">")
            return Diamond(budget, self.unary())
        if word == "(":
            self.connective()
            inner = self.formula()
            self.pos = self.need(self.pos, ")")
            return inner
        # an atom: ``~`` marks it non-coherent
        coherent = word != "~"
        if not coherent:
            at += 1
        elif not word.isidentifier():
            raise self.unexpected(at, "formula")
        name = t[at]
        if not name.isidentifier():
            raise self.unexpected(at, "atom name")
        args: list[str] = []
        self.pos = at + 1
        if t[at + 1] == "(":
            at += 1
            while True:  # at is on "(" or ","
                at += 1
                if not t[at].isidentifier():
                    raise self.unexpected(at, "atom argument")
                args.append(t[at])
                at += 1
                if t[at] != ",":
                    break
            self.pos = self.need(at, ")")
        return Atom(name, tuple(args), coherent and name not in CLASSICAL_ATOMS)

    def formula_list(self, stop: str) -> list[Formula]:
        formulas = [] if self.t[self.pos] == stop else [self.formula_at(self.pos)]
        while formulas and self.t[self.pos] == ",":
            formulas.append(self.formula_at(self.pos + 1))
        return formulas

    # Directives: each reads its line ``t`` by index and returns the index
    # just past what it read, which must be the line's end.

    def world(self, t: list[str]) -> int:
        wid = self.new_id(1, self.worlds, "world id", "duplicate world id")
        at = self.need(2, "{")
        fields: dict[str, float | int] = {}
        while True:
            key = t[at]
            if key not in _WORLD_FIELDS:
                raise self.wrong(at, f"unknown world attribute {key!r}", _WORLD_FIELDS, "world attribute")
            if key in fields:
                raise self.error(at, f"duplicate attribute {key!r}")
            fields[key] = value = (self.integer if key == "lambda" else self.real)(self.need(at + 1, "="), key)
            if key == "lambda" and not 1 <= value <= MAX_LAMBDA:
                raise self.error(at, f"lambda must be between 1 and {MAX_LAMBDA}")
            at += 3
            if t[at] != ",":
                break
            at += 1
        at = self.need(at, "}")
        for needed in _WORLD_FIELDS:
            if needed not in fields:
                raise self.error(0, f"world {wid!r} missing {needed!r}")
        self.worlds[wid] = World(wid, fields["energy"], fields["kappa"], fields["lambda"])
        return at

    def edge(self, t: list[str]) -> int:
        src = self.world_id(1, "source world")
        dst = self.world_id(self.need(2, "->"), "target world")
        if (src, dst) in self.edges:
            raise self.error(0, f"duplicate edge {src!r} -> {dst!r}")
        self.need(4, "{")
        if t[5] != "deltaE":
            raise self.wrong(5, f"unknown edge attribute {t[5]!r}", ("deltaE",), "deltaE")
        self.edges[(src, dst)] = self.real(self.need(6, "="), "deltaE")
        return self.need(8, "}")

    def prop(self, t: list[str]) -> int:
        """Each distinct formula is parsed once per text: the same tokens
        give the same hash-consed formula, and a bad one raises the first time."""
        wid = self.world_id(1, "world id")
        self.need(2, ":")
        key = tuple(t[3:])
        phi = self.memo.get(key)
        if phi is None:
            phi = self.formula_at(3)
            if t[self.pos]:
                return self.pos  # trailing tokens, which the caller rejects
            self.memo[key] = phi
        self.worlds[wid].props[phi] += 1
        return len(t) - 1

    def cost(self, t: list[str]) -> int:
        default = t[1] in ("*", "⊗")
        if not default:
            name = self.new_id(1, self.atom_costs, "atom name", "duplicate cost for")
        self.need(2, "=")
        if default:
            self.set_once("default_cost", self.real(3, "default cost"), 1, "duplicate default cost directive")
        else:
            self.atom_costs[name] = self.real(3, "cost")
        return 4

    def scalar(self, t: list[str]) -> int:
        read, valid, message = _SCALARS[t[0]]
        value = read(self, self.need(1, "="), t[0])
        if not valid(value):
            raise self.error(0, message)
        self.set_once(t[0], value, 0, f"duplicate {t[0]!r} directive")
        return 3

    def observer(self, t: list[str]) -> int:
        oid = self.new_id(1, self.observers, "observer id", "duplicate observer id")
        if t[2] != "home":
            raise self.wrong(2, "expected home=<world>", ("home",), "home")
        home = self.world_id(self.need(3, "="), "home world")
        if t[5] != "horizon":
            raise self.wrong(5, "expected horizon=<int>", ("horizon",), "horizon")
        horizon = self.integer(self.need(6, "="), "horizon")
        self.observers[oid] = Observer(oid, home, horizon)
        return 8

    def sequent(self, t: list[str]) -> int:
        name = self.new_id(1, self.sequents, "sequent name", "duplicate sequent name")
        src = self.world_id(2, "source world")
        dst = self.world_id(self.need(3, "->"), "target world")
        self.pos = self.need(5, ":")
        gamma = self.formula_list("|-")
        self.pos = self.need(self.pos, "|-")
        delta = self.formula_list("")
        self.sequents[name] = (src, dst, Sequent(gamma, delta))
        return self.pos

    def scenario(self, t: list[str]) -> int:
        if t[1] not in SCENARIO_KINDS:
            raise self.wrong(1, f"unknown scenario kind {t[1]!r}", SCENARIO_KINDS, "scenario kind")
        self.set_once("scenario_kind", t[1], 0, "duplicate scenario directive")
        return 2


# Directives ``<name> = <value>``: name -> (value reader, validity test, message if invalid).
# A number token has no sign, so no test needs a lower bound of 0.
_SCALARS = {
    "alpha": (_Parser.real, lambda v: v > 0, "alpha must be > 0"),
    "kappa0": (_Parser.real, lambda v: True, None),
    "trials": (_Parser.integer, lambda v: 1 <= v <= MAX_TRIALS, f"trials must be between 1 and {MAX_TRIALS}"),
    "seed": (_Parser.integer, lambda v: v <= _MAX_SEED, "seed must fit in 64 unsigned bits"),
    "noise": (_Parser.real, lambda v: v <= MAX_NOISE, f"noise must be between 0 and {MAX_NOISE}"),
}
# In the order in which an unknown directive's error lists them.
_DIRECTIVES = {
    "world": _Parser.world, "edge": _Parser.edge, "prop": _Parser.prop, "cost": _Parser.cost,
    "alpha": _Parser.scalar, "kappa0": _Parser.scalar, "observer": _Parser.observer,
    "sequent": _Parser.sequent, "scenario": _Parser.scenario,
    "trials": _Parser.scalar, "seed": _Parser.scalar, "noise": _Parser.scalar,
}


def parse_formula(text: str) -> Formula:
    """Parse a single formula; trailing input, a line break included, is an error."""
    line = (text.splitlines() or [""])[0]
    parser = _Parser()
    t = next(parser.read([line]))
    if len(line) < len(text):
        raise ParseError(1, len(line) + 1, f"unexpected character {text[len(line)]!r}")
    phi = parser.formula_at(0)
    if t[parser.pos]:
        raise parser.unexpected(parser.pos, after=" after formula")
    return phi


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario file into a config; positions in errors are 1-based."""
    parser = _Parser()
    for t in parser.read(text.splitlines()):
        if t[0]:
            rule = _DIRECTIVES.get(t[0])
            if rule is None:
                raise parser.wrong(0, f"unknown directive {t[0]!r}", tuple(_DIRECTIVES), "directive")
            end = rule(parser, t)
            if t[end]:
                raise parser.unexpected(end, after=" after directive")
    if not parser.worlds:
        raise ParseError(1, 1, "no worlds declared")
    frame = Frame(parser.worlds.values(), [(src, dst, delta_e) for (src, dst), delta_e in parser.edges.items()])
    settings = parser.settings
    costs = {name: settings.pop(name) for name in ("default_cost", "alpha") if name in settings}
    return ScenarioConfig(
        frame=frame,
        cost_model=CostModel(parser.atom_costs, **costs),
        observers=list(parser.observers.values()),
        sequents=parser.sequents,
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
        lines.append(f"sequent {name} {src} -> {dst} : {format_sequent(seq)}")
    return "\n".join(lines) + "\n"
