import math
from collections import Counter

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from eclc import (
    Atom,
    ContingencyTable,
    FitResult,
    Tensor,
    fisher_exact_two_tailed,
    fit_exponential,
    persistence_score,
    shannon_entropy,
)
from eclc.formula import coherence
from gen import formulas

import oracles


class TestPersistenceScore:
    def test_all_coherent(self):
        gamma = [Atom("E"), Atom("Q"), Atom("R"), Atom("S")]
        assert persistence_score(gamma) == 1.0

    def test_three_of_five(self):
        gamma = [Atom("A"), Atom("B"), Atom("C"), Atom("X", (), False), Atom("Y", (), False)]
        assert persistence_score(gamma) == 0.6

    def test_none_coherent(self):
        gamma = [Atom("X", (), False)] * 3
        assert persistence_score(gamma) == 0.0

    def test_empty_is_one(self):
        assert persistence_score([]) == 1.0
        assert persistence_score(Counter()) == 1.0

    def test_counter_multiplicity(self):
        gamma = Counter({Atom("A"): 3, Atom("B", (), False): 1})
        assert persistence_score(gamma) == 0.75

    def test_composites_count_once(self):
        mixed = Tensor(Atom("A"), Atom("B", (), False))
        assert persistence_score([mixed, Atom("C")]) == 0.5

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_bounds_and_extremes(self, flags):
        gamma = [Atom("A", (), flag) for flag in flags]
        score = persistence_score(gamma)
        assert 0.0 <= score <= 1.0
        assert (score == 1.0) == all(flags)

    @given(st.lists(st.tuples(formulas(3), st.integers(min_value=-3, max_value=5))).map(lambda pairs: Counter(dict(pairs))))
    @example(Counter({Atom("A"): 0, Atom("B", (), False): -2}))
    @example(Counter({Atom("A"): -1, Atom("B", (), False): 2, Atom("C"): 3}))
    def test_counter_counts_its_elements(self, gamma):
        # zero and negative counts are skipped, as elements() skips them
        items = list(gamma.elements())
        want = sum(map(coherence, items)) / len(items) if items else 1.0
        assert persistence_score(gamma) == want

    @pytest.mark.parametrize("count", [1.5, -1.5, 2.0])
    def test_non_integer_count_raises_as_elements_does(self, count):
        gamma = Counter({Atom("A"): 1, Atom("B"): count})
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            list(gamma.elements())
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            persistence_score(gamma)


class TestShannonEntropy:
    def test_all_ones(self):
        assert shannon_entropy([1, 1, 1, 1]) == 0.0

    def test_all_zeros(self):
        assert shannon_entropy([0, 0, 0]) == 0.0

    def test_half(self):
        assert shannon_entropy([0, 1, 0, 1]) == 1.0

    def test_p_073(self):
        bits = [1] * 73 + [0] * 27
        assert shannon_entropy(bits) == pytest.approx(0.8414646362081757, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0, 2])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_symmetric_under_relabeling(self, bits):
        flipped = [1 - b for b in bits]
        assert shannon_entropy(bits) == pytest.approx(shannon_entropy(flipped), abs=1e-12)


class TestFitExponential:
    def test_exact_model_recovery(self):
        points = [(k, math.exp(-0.5 * k)) for k in (0.0, 1.0, 2.0, 3.0)]
        fit = fit_exponential(points)
        assert fit.rate == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_reference_points(self):
        fit = fit_exponential([(0.0, 1.0), (1.0, 0.61), (2.0, 0.19)])
        # closed form: -(1*ln(0.61) + 2*ln(0.19)) / (1 + 4)
        expected = -(math.log(0.61) + 2 * math.log(0.19)) / 5
        assert fit.rate == pytest.approx(expected, abs=1e-12)
        assert fit.rate == pytest.approx(0.763, abs=1e-3)

    def test_two_point_exact(self):
        fit = fit_exponential([(0.0, 1.0), (1.0, math.exp(-1.0))])
        assert fit.rate == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_degenerate_kappa(self):
        with pytest.raises(ValueError):
            fit_exponential([(0.0, 1.0), (0.0, 0.5)])

    def test_nonpositive_pi(self):
        with pytest.raises(ValueError):
            fit_exponential([(0.0, 1.0), (1.0, 0.0)])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponential([(1.0, 0.5)])

    def test_non_finite_rejected(self):
        for bad in ((math.inf, 0.5), (1.0, math.nan), (math.nan, 0.5), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                fit_exponential([(0.0, 1.0), bad])

    def test_overflowing_sum_of_squares_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            fit_exponential([(1e200, 0.5), (1.0, 0.9)])

    def test_zero_rate_is_positive_zero(self):
        # a flat pi makes the rate's numerator -0.0, which prints as rate=-0.0
        for points in ([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)], [(1.0, 1.0), (3.0, 1.0)]):
            fit = fit_exponential(points)
            assert math.copysign(1.0, fit.rate) == 1.0
            assert fit.rate == 0.0

    @given(
        st.floats(min_value=0.01, max_value=5, allow_nan=False),
        st.integers(min_value=2, max_value=12),
    )
    def test_recovery_with_tiny_perturbation(self, rate, count):
        points = [(k * 0.5, math.exp(-rate * k * 0.5) * (1 + 1e-13)) for k in range(count)]
        points[0] = (0.0, 1.0)
        fit = fit_exponential(points)
        assert fit.rate == pytest.approx(rate, abs=1e-9)


class TestFisherExact:
    def test_diagonal_pair(self):
        # margins (1,1,1,1): both tables have probability 1/2, both included
        assert fisher_exact_two_tailed(ContingencyTable(1, 0, 0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_table(self):
        assert fisher_exact_two_tailed(ContingencyTable(5, 5, 5, 5)) == pytest.approx(1.0, abs=1e-12)

    def test_reference_table_matches_enumeration(self):
        got = fisher_exact_two_tailed(ContingencyTable(50, 0, 24, 26))
        exact = float(oracles.fisher_two_tailed_fraction(50, 0, 24, 26))
        assert got == pytest.approx(exact, rel=1e-10)

    def test_enumeration_agreement_small(self):
        for a, b, c, d in [(2, 7, 8, 2), (5, 1, 10, 10), (0, 5, 1, 4), (3, 3, 3, 3), (6, 0, 0, 6)]:
            got = fisher_exact_two_tailed(ContingencyTable(a, b, c, d))
            exact = float(oracles.fisher_two_tailed_fraction(a, b, c, d))
            assert got == pytest.approx(exact, rel=1e-12), (a, b, c, d)

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
    def test_transposition_invariance(self, a, b, c, d):
        if a + b + c + d == 0:
            return
        p1 = fisher_exact_two_tailed(ContingencyTable(a, b, c, d))
        p2 = fisher_exact_two_tailed(ContingencyTable(a, c, b, d))
        assert p1 == pytest.approx(p2, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContingencyTable(0, 0, 0, 0)
        with pytest.raises(ValueError):
            ContingencyTable(-1, 1, 1, 1)
        with pytest.raises(ValueError, match="cells must be nonnegative integers"):
            ContingencyTable(True, False, 0, 1)
        with pytest.raises(ValueError, match="r_squared cannot exceed 1"):
            FitResult(0.0, 1.5)
