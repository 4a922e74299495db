import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from eclc import (
    Atom,
    Bang,
    CostModel,
    Diamond,
    Lolli,
    ParseError,
    Sequent,
    Tensor,
    With,
    base_cost,
    coherence,
    decohere,
    format_formula,
    parse_formula,
    parse_scenario,
    prove,
    serialize_scenario,
)
from eclc import dsl, scenarios
from eclc.dsl import MAX_FORMULA_NODES, MAX_LAMBDA, MAX_NOISE, MAX_TRIALS, _ALIASES, _Parser
from gen import BREAKS, faulty_scenario_texts, formulas, random_config
from oracles import reference_tokenize_line

A, B, C = Atom("A"), Atom("B"), Atom("C")


class TestParseFormula:
    def test_tensor_of_atoms(self):
        assert parse_formula("E * Entangled(A,B)") == Tensor(Atom("E"), Atom("Entangled", ("A", "B")))

    def test_banged_quantum(self):
        assert parse_formula("!Quantum(psi)") == Bang(Atom("Quantum", ("psi",)))

    def test_lolli_right_associative(self):
        assert parse_formula("A -o B -o C") == Lolli(A, Lolli(B, C))

    def test_tensor_left_associative(self):
        assert parse_formula("A * B * C") == Tensor(Tensor(A, B), C)

    def test_with_binds_below_tensor(self):
        assert parse_formula("A & B * C") == With(A, Tensor(B, C))

    def test_lolli_loosest(self):
        assert parse_formula("A * B -o C") == Lolli(Tensor(A, B), C)

    def test_unary_binds_tightest(self):
        assert parse_formula("!A * B") == Tensor(Bang(A), B)
        assert parse_formula("<2.5>A * B") == Tensor(Diamond(2.5, A), B)

    def test_parentheses(self):
        assert parse_formula("A * (B -o C)") == Tensor(A, Lolli(B, C))
        assert parse_formula("!(A * B)") == Bang(Tensor(A, B))

    def test_tilde_marks_noncoherent(self):
        assert parse_formula("~Junk") == Atom("Junk", (), False)

    def test_classical_set_defaults(self):
        assert parse_formula("Classical(o)") == Atom("Classical", ("o",), False)
        assert parse_formula("Decohered(A)") == Atom("Decohered", ("A",), False)

    def test_unicode_aliases(self):
        assert parse_formula("A ⊗ B") == Tensor(A, B)
        assert parse_formula("A ⊸ B") == Lolli(A, B)

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse_formula("A * ")
        assert err.value.line == 1 and err.value.column >= 3
        with pytest.raises(ParseError) as err:
            parse_formula("A @ B")
        assert err.value.column == 3

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("A B")

    @pytest.mark.parametrize("brk", BREAKS)
    def test_line_break_is_a_positioned_error(self, brk):
        # a comment ends at the break, which ends the formula's only line
        for text, column in (("A # note" + brk + "B * C", 9), ("A" + brk + "* B", 2), ("A *" + brk + "B", 4)):
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            assert (err.value.line, err.value.column) == (1, column), text
            assert err.value.message == f"unexpected character {brk[0]!r}"
        with pytest.raises(ParseError) as err:
            parse_formula("A @" + brk + "B")
        assert (err.value.column, err.value.message) == (3, "unexpected character '@'")


class TestFormatFormula:
    def test_minimal_parens(self):
        assert format_formula(Tensor(A, Lolli(B, C))) == "A * (B -o C)"
        assert format_formula(Lolli(A, Lolli(B, C))) == "A -o B -o C"
        assert format_formula(Lolli(Lolli(A, B), C)) == "(A -o B) -o C"
        assert format_formula(Tensor(Tensor(A, B), C)) == "A * B * C"
        assert format_formula(Tensor(A, Tensor(B, C))) == "A * (B * C)"

    def test_coherent_classical_name_unserializable(self):
        with pytest.raises(ValueError):
            format_formula(Atom("Classical", ("o",), True))
        with pytest.raises(TypeError, match="not a formula: 42"):
            format_formula(42)

    @given(formulas())
    def test_reparse_identity(self, phi):
        assert parse_formula(format_formula(phi)) == phi


THREE_WORLDS = """# three-world chain
scenario coherence
world w1 { energy=10.0, kappa=0.0, lambda=4 }
world w2 { energy=10.0, kappa=1.0, lambda=4 }
world w3 { energy=10.0, kappa=2.0, lambda=4 }
edge w1 -> w2 { deltaE=1.0 }
edge w2 -> w3 { deltaE=1.0 }
prop w1 : E * Entangled(A,B)
"""


class TestParseScenario:
    def test_three_world_chain(self):
        config = parse_scenario(THREE_WORLDS)
        assert len(config.frame.worlds) == 3
        assert len(config.frame.edges) == 2
        assert [w.kappa for w in config.frame.worlds.values()] == [0.0, 1.0, 2.0]

    def test_unknown_world_in_edge(self):
        text = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\nedge w1 -> zz { deltaE=1.0 }"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 2

    def test_empty_file(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("")
        assert "no worlds" in err.value.message

    def test_duplicate_world(self):
        text = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\nworld w1 { energy=2.0, kappa=0.0, lambda=1 }"
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert err.value.line == 2 and "duplicate" in err.value.message

    def test_directive_fields(self):
        config = parse_scenario(
            THREE_WORLDS + "alpha = 0.5\nkappa0 = 2.0\ntrials = 9\nseed = 42\nnoise = 0.25\ncost E = 3.0\ncost * = 0.5\n"
        )
        assert config.cost_model.alpha == 0.5
        assert config.cost_model.atom_costs == {"E": 3.0}
        assert config.cost_model.default_cost == 0.5
        assert (config.kappa0, config.trials, config.seed, config.noise) == (2.0, 9, 42, 0.25)

    def test_observer_and_sequent(self):
        text = THREE_WORLDS + (
            "observer o1 home=w1 horizon=2\n"
            "sequent step w1 -> w2 : E, Entangled(A,B) |- E * Entangled(A,B)\n"
        )
        config = parse_scenario(text)
        assert config.observers[0].home == "w1" and config.observers[0].horizon == 2
        src, dst, seq = config.sequents["step"]
        assert (src, dst) == ("w1", "w2")
        assert len(seq.gamma) == 2 and len(seq.delta) == 1

    def test_seed_echo(self):
        config = parse_scenario(THREE_WORLDS + "seed = 42\n")
        assert "seed = 42" in serialize_scenario(config)

    def test_crlf_accepted(self):
        config = parse_scenario(THREE_WORLDS.replace("\n", "\r\n"))
        assert len(config.frame.worlds) == 3

    @pytest.mark.parametrize("brk", BREAKS)
    def test_every_line_break_accepted(self, brk):
        config = parse_scenario(THREE_WORLDS.replace("\n", brk))
        assert config == parse_scenario(THREE_WORLDS)

    def test_bad_directive_position(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("world w1 { energy=1.0, kappa=0.0, lambda=1 }\nbogus stuff\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_missing_world_attribute(self):
        with pytest.raises(ParseError):
            parse_scenario("world w1 { energy=1.0, kappa=0.0 }")

    def test_scenario_kind_checked(self):
        with pytest.raises(ParseError) as err:
            parse_scenario("scenario warp\n" + THREE_WORLDS.splitlines()[2] + "\n")
        assert "warp" in err.value.message


    def test_trials_bounded(self):
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        assert parse_scenario(world + f"trials = {MAX_TRIALS}").trials == MAX_TRIALS
        with pytest.raises(ParseError) as err:
            parse_scenario(world + f"trials = {MAX_TRIALS + 1}")
        assert (err.value.line, err.value.column) == (2, 1)
        assert err.value.message == "trials must be between 1 and 100000"

    def test_lambda_bounded(self):
        world = "world w1 {{ energy=1.0, kappa=0.0, lambda={} }}"
        for lam in (1, MAX_LAMBDA):
            assert parse_scenario(world.format(lam)).frame.world("w1").lam == lam
        for lam in (0, MAX_LAMBDA + 1, "1" + "0" * 400):
            with pytest.raises(ParseError) as err:
                parse_scenario(world.format(lam))
            assert (err.value.line, err.value.column) == (1, 35)
            assert err.value.message == "lambda must be between 1 and 500"

    def test_noise_bounded(self):
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        for noise in (0, MAX_NOISE):
            assert parse_scenario(world + f"noise = {noise}").noise == noise
        for noise in ("100.000001", "1e308"):
            with pytest.raises(ParseError) as err:
                parse_scenario(world + f"noise = {noise}")
            assert (err.value.line, err.value.column) == (2, 1)
            assert err.value.message == "noise must be between 0 and 100"
        with pytest.raises(ParseError):
            parse_scenario(world + "noise = -1")

    def test_oversized_integer_literal_out_of_range(self):
        # more digits than Python converts to an int: a positioned error
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        for line, what in (
            ("world w2 { energy=1.0, kappa=0.0, lambda=$ }", "lambda"),
            ("observer o home=w1 horizon=$", "horizon"),
            ("trials = $", "trials"),
            ("seed = $", "seed"),
        ):
            with pytest.raises(ParseError) as err:
                parse_scenario(world + line.replace("$", "1" * 5000))
            assert (err.value.line, err.value.column) == (2, line.index("$") + 1), line
            assert err.value.message == f"{what} out of range"

    def test_sign_rejected_at_every_numeric_position(self):
        # numbers carry no sign, so the lexer rejects each '-' at its own column
        base = "world a { energy=5, kappa=0, lambda=3 }\nworld b { energy=5, kappa=0, lambda=3 }\n"
        for line in (
            "world c { energy=$1, kappa=0, lambda=3 }",
            "world c { energy=1, kappa=$0.5, lambda=3 }",
            "world c { energy=1, kappa=0, lambda=$3 }",
            "edge a -> b { deltaE=$1 }",
            "cost A = $1",
            "cost * = $1",
            "observer o home=a horizon=$2",
            "prop a : <$1>A",
            "alpha = $1",
            "kappa0 = $1",
            "trials = $3",
            "seed = $7",
            "noise = $0.5",
        ):
            parse_scenario(base + line.replace("$", ""))
            with pytest.raises(ParseError) as err:
                parse_scenario(base + line.replace("$", "-"))
            assert (err.value.line, err.value.column) == (3, line.index("$") + 1), line
            assert err.value.message == "unexpected character '-'"

    def test_end_of_line_after_lolli_glyph(self):
        # the end of a line sits on the last character of its last token,
        # and the lolli glyph is one character where its ASCII form is two
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        for line, column in (("prop w1 : A ⊸ # c", 13), ("prop w1 : A ⊸", 13), ("prop w1 : A -o # c", 14)):
            with pytest.raises(ParseError) as err:
                parse_scenario(world + line)
            assert (err.value.line, err.value.column) == (2, column), line
            assert err.value.message == "unexpected 'end of line'"

    def test_earlier_line_fault_before_later_stray_character(self):
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(world + "prop w1 : A *\nprop w1 : @\n")
        assert (err.value.line, err.value.column) == (2, 13)
        assert err.value.message == "unexpected 'end of line'"

    def test_stray_character_before_earlier_syntax_error_on_its_line(self):
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        with pytest.raises(ParseError) as err:
            parse_scenario(world + "prop w1 : ) A @\nprop w1 : ( \n")
        assert (err.value.line, err.value.column) == (2, 15)
        assert err.value.message == "unexpected character '@'"

    def test_positions_under_other_line_breaks(self):
        # the positions the parser reported when it split lines with str.splitlines
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }"
        for text, position in (
            ("\r\n".join([world, "prop w1 : A -o", "prop w1 : B"]) + "\r\n", (2, 14, "unexpected 'end of line'")),
            ("\r\n".join([world, "prop w1 : A", "  prop w1 : @"]), (3, 13, "unexpected character '@'")),
            ("\f".join([world, "# c", "prop w1 : A ⊗ ", "x"]), (3, 13, "unexpected 'end of line'")),
            ("\u2028".join([world, "", "edge w1 -> w2 { deltaE=1.0 }"]), (3, 12, "unknown world 'w2'")),
            (world + "\f\r\n\u2029 prop w1 : (A ", (4, 13, "unexpected 'end of line'")),
            (world + "\r\r\n\x85\t\x1c" + "prop w1 : ⊸", (5, 11, "unexpected '-o'")),
        ):
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            assert (err.value.line, err.value.column, err.value.message) == position, repr(text)

    def test_non_ascii_letters_and_digits_rejected(self):
        world = "world w1 { energy=1.0, kappa=0.0, lambda=1 }\n"
        for text, line, column in (
            ("world é { energy=1.0, kappa=0.0, lambda=1 }", 1, 7),
            (world + "alpha = ²", 2, 9),
            (world + "trials = ٣", 2, 10),
            (world + "sequent é w1 -> w1 : |- ", 2, 9),
            (world + "prop w1 : Aé", 2, 12),
        ):
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            assert (err.value.line, err.value.column) == (line, column)
            assert err.value.message.startswith("unexpected character")


def _shapes(n: int) -> list[str]:
    """Formulas with exactly n connectives and parentheses, each nested n deep."""
    return [
        "(" * n + "A" + ")" * n,
        "!" * n + "A",
        "<1.5>" * n + "A",
        " * ".join(["A"] * (n + 1)),
        " -o ".join(["A"] * (n + 1)),
        "!" * (n % 2) + "(A & " * (n // 2) + "B" + ")" * (n // 2),
    ]


class TestFormulaBound:
    def test_formula_at_the_bound_is_total(self):
        model = CostModel({}, default_cost=0.0)
        for text in _shapes(MAX_FORMULA_NODES):
            phi = parse_formula(text)
            assert parse_formula(format_formula(phi)) == phi
            assert coherence(decohere(phi)) == 0 and coherence(phi) == 1
            assert base_cost(phi, model) == 0.0
            for goal in (phi, Atom("B")):
                prove(Sequent([phi], [goal]), 3, model, 0.0)

    def test_one_past_the_bound_is_a_positioned_error(self):
        for text in _shapes(MAX_FORMULA_NODES + 1):
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            assert err.value.message == f"formula has more than {MAX_FORMULA_NODES} connectives"
        with pytest.raises(ParseError) as err:
            parse_scenario("world w { energy=1.0, kappa=0.0, lambda=1 }\nprop w : " + "!" * 201 + "A")
        assert (err.value.line, err.value.column) == (2, 9 + MAX_FORMULA_NODES + 1)

    def test_bound_applies_to_each_prop_line(self):
        big = "!" * MAX_FORMULA_NODES + "A"
        config = parse_scenario("world w { energy=1.0, kappa=0.0, lambda=1 }\n" f"prop w : {big}\nprop w : {big}\n")
        assert config.frame.worlds["w"].props[parse_formula(big)] == 2
        # one past the bound raises at its own connective on whichever line it first appears
        over = "!" + big
        for line in range(2, 6):
            props = [f"prop w : {big}"] * (line - 2) + [f"prop w : {over}"] * 2
            with pytest.raises(ParseError) as err:
                parse_scenario("\n".join([W, *props]))
            assert (err.value.line, err.value.column) == (line, 9 + MAX_FORMULA_NODES + 1)

    def test_bound_applies_to_each_formula_of_a_sequent(self):
        big = "!" * MAX_FORMULA_NODES + "A"
        config = parse_scenario(
            "world w { energy=1.0, kappa=0.0, lambda=1 }\n" f"sequent s w -> w : {big}, {big} |- {big}"
        )
        assert len(config.sequents["s"][2].gamma) == 2


class TestRoundTrip:
    def test_shipped_corpus(self):
        for name in scenarios.NAMES:
            text = scenarios.read(name)
            config = parse_scenario(text)
            canonical = serialize_scenario(config)
            assert parse_scenario(canonical) == config
            assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_random_configs(self):
        rng = random.Random(987_654)
        for _ in range(150):
            config = random_config(rng)
            text = serialize_scenario(config)
            assert parse_scenario(text) == config

    @given(formulas())
    def test_prop_line_round_trip(self, phi):
        text = "world w { energy=1.0, kappa=0.0, lambda=1 }\nprop w : " + format_formula(phi)
        config = parse_scenario(text)
        assert config.frame.worlds["w"].props[phi] == 1


# Pieces of scenario text: every line break, blanks, comments, glyphs,
# punctuation, and non-ASCII letters and digits.
LEX_PIECES = st.sampled_from(
    BREAKS + (" ", "\t", "#", "⊗", "⊸", "é", "²", "٣", "A", "w1", "_b", "0", "9", ".", "e", "E", "+")
    + ("-", "o", "->", "-o", "|-", "|", "{", "}", "(", ")", "=", ",", ":", "*", "&", "!", "~", "<", ">", "@")
)


def _lines(text):
    """The lines of ``text``, plus the empty one the reference lexer opens after a final break."""
    lines = text.splitlines()
    if not text or text[-1] in "".join(BREAKS):
        lines.append("")
    return lines


def _reference_lex(text):
    """Per-line tokens of the reference lexer, and its first error as (line, column, message)."""
    out = []
    for n, line in enumerate(_lines(text), start=1):
        try:
            out.append(reference_tokenize_line(line, n))
        except ParseError as err:
            return out, (err.line, err.column, err.message)
    return out, None


def _kind(word):
    """A token's kind, from its first character; "" is the end of the line."""
    if not word:
        return "end"
    if word[0].isdigit():
        return "number"
    return "ident" if word.isidentifier() else _ALIASES.get(word, word)


def _lex(text):
    """The same, from the parser's own lexer: each line's token strings from
    ``_Parser.read`` and their positions from ``_Parser.error``, which finds
    them again by rescanning the line, as it does for a real ParseError."""
    parser, out = _Parser(), []
    try:
        for tokens in parser.read(_lines(text)):
            out.append([])
            for at, word in enumerate(tokens):
                where = parser.error(at, "")
                out[-1].append((_kind(word), _ALIASES.get(word, word), where.line, where.column))
    except ParseError as err:
        return out, (err.line, err.column, err.message)
    return out, None


class TestLexer:
    @settings(max_examples=400)
    @given(st.lists(LEX_PIECES, max_size=40).map("".join))
    def test_same_tokens_and_first_error_as_line_lexer(self, text):
        assert _lex(text) == _reference_lex(text)

    def test_shipped_corpus(self):
        for name in scenarios.NAMES:
            text = scenarios.read(name)
            assert _lex(text) == _reference_lex(text)


class TestErrorPositions:
    @settings(max_examples=120)
    @given(st.text(alphabet="world edg{}()=,:*&!~<>|-\n0123456789.ABCahkz_é²٣\t\r\v\f\x1c\x1d\x1e\x85\u2028\u2029#⊗⊸", max_size=80))
    def test_positions_index_real_characters(self, text):
        try:
            parse_scenario(text)
        except ParseError as err:
            lines = text.splitlines() or [""]
            assert 1 <= err.line <= len(lines)
            line = lines[err.line - 1]
            assert 1 <= err.column <= max(1, len(line))


def _outcome(parse, render, text: str) -> str:
    """``render(parse(text))``, or the ParseError's position, message and expected."""
    try:
        return render(parse(text))
    except ParseError as err:
        return repr((err.line, err.column, err.message, err.expected))


def _digest(outcomes) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()


W = "world w { energy=1.0, kappa=0.0, lambda=1 }"


class TestParsePin:
    """What the parser makes of 3,000 texts one fault away from a valid
    scenario (``gen.faulty_scenario_texts``): the canonical serialization
    of each text that parses, else its error's line, column, message and
    expected.  Any change to an error, a position or a config moves a digest."""

    @pytest.fixture(scope="class")
    def texts(self):
        return faulty_scenario_texts(2021, 3000)

    def test_scenario_results(self, texts):
        outcomes = [_outcome(parse_scenario, serialize_scenario, text) for text in texts]
        assert _digest(outcomes) == "b79f2072316bccbaaf8eedbaa4deeaa64da81902d527fc9d204e249b2a2eee3e"

    def test_formula_results(self, texts):
        # each whole text, then what follows the first ':' of each of its lines
        formulas = [*texts, *(line.partition(":")[2] for text in texts for line in text.splitlines() if ":" in line)]
        outcomes = [_outcome(parse_formula, format_formula, text) for text in formulas]
        assert _digest(outcomes) == "8d0eeb1da9edad09e52a0960d51744d813909e6167384af5f6df9d58721abb10"

    @pytest.mark.parametrize("text, outcome", [
        (W + "\r\nprop w : A ⊗ ⊗ B", (2, 14, "unexpected '*'", ("formula",))),
        (W + "\nobserver o home=w horizon=1.5", (2, 27, "horizon must be an integer", ("horizon",))),
        ("world w { energy=1.0, kappa=0.0 lambda=1 }", (1, 33, "unexpected 'lambda'", ("}",))),
        (W + "\nedge w -> w { deltaE=1e999 }", (2, 22, "deltaE out of range", ())),
        (W + "\n\tsequent s w -> w : A, |- A", (2, 24, "unexpected '|-'", ("formula",))),
        (W + "\nprop w : !A\nprop w : !A\nprop v : !A", (4, 6, "unknown world 'v'", ())),
        (W + "\nprop w : (A $\nprop w : A -o", (2, 13, "unexpected character '$'", ())),
        ("scenario coherence\ntrials = 0\n@", (2, 1, "trials must be between 1 and 100000", ())),
        ("world w { energy=1.0, energy=2.0, kappa=0.0, lambda=1 }", (1, 23, "duplicate attribute 'energy'", ())),
    ])
    def test_errors_read_by_eye(self, text, outcome):
        assert _outcome(parse_scenario, serialize_scenario, text) == repr(outcome)

    def test_comments_and_glyphs_read_by_eye(self):
        config = parse_scenario(W + " # @é\nprop w : A ⊸ B # note")
        assert serialize_scenario(config).endswith(W + "\nprop w : A -o B\n")


class TestPropMemo:
    """``parse_scenario`` parses each distinct prop formula once per text."""

    FORMULAS = ("A", "A * B", "A ⊗ B", "!(A -o Phi(x))", "~Phi(x) & <1.5>C", "A  *  B")

    def _text(self, seed: int) -> tuple[str, list[tuple[str, str]]]:
        rng = random.Random(seed)
        props = [(f"w{rng.randrange(3)}", rng.choice(self.FORMULAS)) for _ in range(80)]
        worlds = [f"world w{i} {{ energy=1.0, kappa=0.0, lambda=2 }}" for i in range(3)]
        return "\n".join(worlds + [f"prop {w} : {phi}" for w, phi in props]), props

    def test_each_distinct_formula_parsed_once(self, monkeypatch):
        parsed = []
        formula_at = _Parser.formula_at

        def spy(parser, at):
            parsed.append(tuple(parser.t[at:]))
            return formula_at(parser, at)

        monkeypatch.setattr(_Parser, "formula_at", spy)
        text, props = self._text(1)
        # distinct token sequences, so the two spellings of A * B count once
        distinct = {tuple(dsl._TOKEN.findall(phi)) for _, phi in props}
        assert len(distinct) == 5 < len(props)
        config = parse_scenario(text)
        assert len(parsed) == len(set(parsed)) == len(distinct)
        expected = {w: Counter() for w in ("w0", "w1", "w2")}
        for w, phi in props:
            expected[w][parse_formula(phi)] += 1
        assert {w: world.props for w, world in config.frame.worlds.items()} == expected
        # a second text shares nothing with the first: the same work again
        parsed.clear()
        assert parse_scenario(text) == config
        assert len(parsed) == len(distinct)

    def test_no_module_table_grows_across_texts(self):
        def sizes():
            tables = {**vars(dsl), **{f"_Parser.{k}": v for k, v in vars(_Parser).items()}}
            return {name: len(v) for name, v in tables.items() if isinstance(v, (dict, list, set))}

        before = sizes()
        for i in range(40):
            text, _ = self._text(i)
            parse_scenario(text.replace("Phi", f"Phi{i}"))
        assert sizes() == before
