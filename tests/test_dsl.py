import random

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
from eclc import scenarios
from eclc.dsl import MAX_FORMULA_NODES
from gen import formulas, random_config

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

    def test_custom_classical_set(self):
        phi = parse_formula("Dead", classical_atoms=frozenset({"Dead"}))
        assert phi == Atom("Dead", (), False)

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


class TestErrorPositions:
    @settings(max_examples=120)
    @given(st.text(alphabet="world edg{}()=,:*&!~<>|-\n0123456789.ABCahkz_é²", max_size=80))
    def test_positions_index_real_characters(self, text):
        try:
            parse_scenario(text)
        except ParseError as err:
            lines = text.splitlines() or [""]
            assert 1 <= err.line <= len(lines)
            line = lines[err.line - 1]
            assert 1 <= err.column <= max(1, len(line))
