import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab.errors import DomainError, InvalidArgumentError, PrecisionError
from cdlab.kernels import (DiagonalKernel, bergman_kernel, diagonal_ratio,
                           evaluate_kernel, required_truncation, section_jet,
                           section_jets, section_table, section_tables,
                           section_vector, separator_kernel)

from oracles import binomial_series_coefficients

disk_points = st.complex_numbers(max_magnitude=0.85, allow_nan=False,
                                 allow_infinity=False)


class TestBergmanCoefficients:
    def test_flat_kernel_is_geometric(self):
        assert bergman_kernel(1, 5).coefficients.tolist() == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("n,count", [(2, 4), (3, 3), (4, 6)])
    def test_against_series_expansion_oracle(self, n, count):
        expected = binomial_series_coefficients(n, count)
        np.testing.assert_allclose(bergman_kernel(n, count).coefficients, expected)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_integer_coefficients(self, n):
        # a_k = binomial(n + k - 1, k): 1 for n = 1, k + 1 for n = 2
        size = 13809
        exact = [math.comb(n + k - 1, k) for k in range(size)]
        np.testing.assert_array_equal(bergman_kernel(n, size).coefficients,
                                      np.array(exact, dtype=float))

    @pytest.mark.parametrize("n", [3, 5])
    def test_rounds_as_the_float64_array_recurrence(self, n):
        size = 13809
        reference = np.empty(size)
        reference[0] = 1.0
        for k in range(size - 1):
            reference[k + 1] = reference[k] * (n + k) / (k + 1)
        np.testing.assert_array_equal(bergman_kernel(n, size).coefficients,
                                      reference)

    def test_label(self):
        assert bergman_kernel(2, 4).label == "bergman(2)"

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            bergman_kernel(0, 5)
        with pytest.raises(InvalidArgumentError):
            bergman_kernel(1, 0)

    def test_nonpositive_coefficients_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DiagonalKernel(np.array([1.0, 0.0, 2.0]))


class TestEvaluate:
    def test_origin(self):
        assert evaluate_kernel(bergman_kernel(1, 5), 0.0, 0.0) == 1.0

    def test_flat_closed_form(self):
        value = evaluate_kernel(bergman_kernel(1, 200), 0.5, 0.5)
        assert abs(value - 4.0 / 3.0) < 1e-12

    def test_weight_two_closed_form(self):
        value = evaluate_kernel(bergman_kernel(2, 200), 0.3, 0.3)
        assert abs(value - 1.0 / (1.0 - 0.09) ** 2) < 1e-12

    def test_domain_errors(self):
        k = bergman_kernel(1, 4)
        with pytest.raises(DomainError):
            evaluate_kernel(k, 1.0, 0.0)
        with pytest.raises(DomainError):
            evaluate_kernel(k, 0.0, 1.2j)

    @given(z=disk_points, w=disk_points)
    @settings(max_examples=60, deadline=None)
    def test_hermitian_symmetry(self, z, w):
        k = bergman_kernel(2, 30)
        left = evaluate_kernel(k, z, w)
        right = np.conj(evaluate_kernel(k, w, z))
        assert left == right

    @pytest.mark.parametrize("r", [0.9, 0.99, 0.999])
    def test_truncated_closed_forms_near_boundary(self, r):
        # N as the separator check sizes it for r = 0.999: 13,809 terms
        n = required_truncation(0.999)
        x = r * r
        geometric = (1.0 - x ** n) / (1.0 - x)
        weight_two = ((1.0 - (n + 1) * x ** n + n * x ** (n + 1))
                      / (1.0 - x) ** 2)
        for weight, closed in ((1, geometric), (2, weight_two)):
            value = evaluate_kernel(bergman_kernel(weight, n), r, r)
            assert value.imag == 0.0
            assert abs(value.real - closed) <= 1e-12 * closed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_truncation_tail_bound(self, n):
        # |closed form - truncated| <= a_N x^N (1-x)^(-n) with x = |z wbar|,
        # in a regime where the tail sits well above double-precision noise.
        trunc = 12
        k = bergman_kernel(n, trunc)
        a_next = bergman_kernel(n, trunc + 1).coefficients[-1]
        for x in (0.5, 0.7, 0.8):
            closed = (1.0 - x) ** (-n)
            truncated = evaluate_kernel(k, np.sqrt(x), np.sqrt(x)).real
            tail = closed - truncated
            assert tail > 0
            # the flat kernel attains the bound exactly, so allow round-off
            assert tail <= a_next * x ** trunc * (1 - x) ** (-n) * (1 + 1e-12)


class TestSectionVector:
    def test_origin_is_first_basis_vector(self):
        sec = section_vector(bergman_kernel(1, 5), 0.0)
        np.testing.assert_array_equal(sec.coordinates, [1, 0, 0, 0, 0])

    def test_coordinates_formula(self):
        sec = section_vector(bergman_kernel(2, 4), 0.5)
        expected = [1.0, np.sqrt(2) * 0.5, np.sqrt(3) * 0.25, np.sqrt(4) * 0.125]
        np.testing.assert_allclose(sec.coordinates, expected)

    def test_norm_matches_geometric_series(self):
        sec = section_vector(bergman_kernel(1, 200), 0.5)
        assert abs(sec.norm_squared - 4.0 / 3.0) < 1e-12

    @given(w=disk_points)
    @settings(max_examples=60, deadline=None)
    def test_norm_squared_equals_diagonal_value(self, w):
        k = bergman_kernel(2, 25)
        sec = section_vector(k, w)
        diag = evaluate_kernel(k, w, w).real
        assert sec.norm_squared == pytest.approx(diag, rel=1e-13, abs=1e-300)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            section_vector(bergman_kernel(1, 4), 1.0 + 0j)


class TestSectionTable:
    def test_array_of_points_matches_section_vectors(self):
        k = bergman_kernel(2, 12)
        points = np.array([[0.1 + 0.2j, -0.4j], [0.0, 0.7 - 0.1j]])
        stacked = np.array([[section_vector(k, w).coordinates for w in row]
                            for row in points])
        assert section_table(k, points).shape == (2, 2, 12)
        assert np.array_equal(section_table(k, points), stacked)

    def test_zero_dimensional_point(self):
        k = bergman_kernel(1, 5)
        assert section_table(k, 0.5j).shape == (5,)
        np.testing.assert_array_equal(section_table(k, np.complex128(0.0)),
                                      [1, 0, 0, 0, 0])

    def test_domain_error_names_point(self):
        with pytest.raises(DomainError, match=re.escape("w=(-1+0j)")):
            section_table(bergman_kernel(1, 4), np.array([0.2, -1.0, 0.3j]))

    @pytest.mark.parametrize("w", [0.5 + 0.25j, -0.375 + 0.5625j, 0.6875 - 0.125j,
                                   -0.4375 - 0.40625j, 0.09375j])
    def test_within_k_eps_of_exact_powers(self, w):
        """Coordinate k against exact rational w^k times the float sqrt(a_k):
        |t_k - sqrt(a_k) w^k| <= k eps |sqrt(a_k) w^k|, compared in rationals."""
        k = bergman_kernel(3, 240)
        table = section_table(k, w)
        re_w, im_w = Fraction(w.real), Fraction(w.imag)
        eps = Fraction(np.finfo(float).eps)
        power = (Fraction(1), Fraction(0))
        for idx, (got, root) in enumerate(zip(table, np.sqrt(k.coefficients))):
            exact = (Fraction(root) * power[0], Fraction(root) * power[1])
            err = ((Fraction(got.real) - exact[0]) ** 2
                   + (Fraction(got.imag) - exact[1]) ** 2)
            within = err <= (idx * eps) ** 2 * (exact[0] ** 2 + exact[1] ** 2)
            assert within, f"coordinate {idx} of t({w})"
            power = (power[0] * re_w - power[1] * im_w,
                     power[0] * im_w + power[1] * re_w)


class TestSectionJet:
    def test_cached_weights_match_comb_reference(self):
        k = bergman_kernel(2, 80)
        points = np.array([0.3 - 0.2j, -0.55j, 0.0, 0.6 + 0.1j])
        table = section_table(k, points)
        a, n = k.coefficients, k.truncation
        want = np.zeros(points.shape + (4, n), dtype=complex)
        for i in range(4):
            binom = np.array([math.comb(j, i) for j in range(i, n)], dtype=float)
            want[:, i, i:] = binom * np.sqrt(a[i:] / a[:n - i]) * table[:, :n - i]
        for _ in range(2):  # the second call reads the cached weights
            assert np.array_equal(section_jet(k, points, 3), want)
        # order 0 equals the section table bit for bit
        assert np.array_equal(section_jet(k, points, 0), want[:, :1])


class TestSharedPowerTable:
    """Several kernels' sections from one power table equal each kernel's own."""

    kernels = tuple(bergman_kernel(n, 30) for n in (1, 2, 3))

    @pytest.mark.parametrize("points", [
        np.complex128(0.4 - 0.3j),
        np.array([0.1 + 0.2j, -0.55j, 0.0, 0.7 - 0.1j]),
        np.array([[0.1 + 0.2j, -0.4j, 0.5], [0.0, -0.3 + 0.3j, 0.6 - 0.1j]]),
    ], ids=["0-d", "1-d", "2-d"])
    def test_jets_equal_each_kernels_own(self, points):
        for order in range(4):
            shared = section_jets(self.kernels, points, order)
            assert len(shared) == 3
            for kernel, jets in zip(self.kernels, shared):
                assert jets.shape == points.shape + (order + 1, 30)
                np.testing.assert_array_equal(jets, section_jet(kernel, points, order))
        for kernel, table in zip(self.kernels, section_tables(self.kernels, points)):
            np.testing.assert_array_equal(table, section_table(kernel, points))

    def test_mixed_truncations_rejected(self):
        with pytest.raises(InvalidArgumentError, match="one truncation"):
            section_jets((bergman_kernel(1, 8), bergman_kernel(2, 9)), 0.1, 1)

    def test_domain_error_names_point(self):
        with pytest.raises(DomainError, match=re.escape("w=(-1+0j)")):
            section_tables(self.kernels, np.array([0.2, -1.0]))


class TestDiagonalRatio:
    def test_identical_kernels_ratio_one(self):
        k = bergman_kernel(2, 400)
        for sample in diagonal_ratio(k, k, [0.1, 0.5, 0.8]):
            assert sample.ratio == pytest.approx(1.0)

    def test_flat_vs_weight_two_closed_form(self):
        k0 = bergman_kernel(1, 400)
        k1 = bergman_kernel(2, 400)
        (sample,) = diagonal_ratio(k0, k1, [0.9])
        assert abs(sample.ratio - (1.0 - 0.81)) < 1e-10

    def test_strictly_decreasing_toward_boundary(self):
        needed = required_truncation(0.999)
        k0 = bergman_kernel(1, needed)
        k1 = bergman_kernel(2, needed)
        ratios = [s.ratio for s in diagonal_ratio(k0, k1, [0.9, 0.99, 0.999])]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_insufficient_truncation_names_requirement(self):
        k = bergman_kernel(1, 50)
        with pytest.raises(PrecisionError) as err:
            diagonal_ratio(k, k, [0.9])
        assert err.value.required_truncation == required_truncation(0.9)

    def test_bad_radii(self):
        k = bergman_kernel(1, 400)
        with pytest.raises(InvalidArgumentError):
            diagonal_ratio(k, k, [0.5, 0.5])
        with pytest.raises(InvalidArgumentError):
            diagonal_ratio(k, k, [])
        with pytest.raises(InvalidArgumentError):
            diagonal_ratio(k, k, [0.5, 1.0])


class TestSeparator:
    def test_flat_vs_weight_two_is_harmonic(self):
        sep = separator_kernel(bergman_kernel(1, 6), bergman_kernel(2, 6))
        np.testing.assert_allclose(sep.coefficients,
                                   [1 / (n + 1) for n in range(6)])

    def test_self_separator_harmonic_decay(self):
        k = bergman_kernel(1, 50)
        sep = separator_kernel(k, k)
        ratios = sep.coefficients / k.coefficients
        assert ratios[-1] < 1e-1 and np.all(np.diff(ratios) < 0)

    def test_dominance_and_exact_recurrence(self):
        k0 = bergman_kernel(2, 30)
        k1 = bergman_kernel(3, 30)
        sep = separator_kernel(k0, k1)
        assert np.all(sep.coefficients <= k0.coefficients)
        assert np.all(sep.coefficients <= k1.coefficients)
        n = np.arange(30)
        np.testing.assert_array_equal(
            sep.coefficients * (n + 1),
            np.minimum(k0.coefficients, k1.coefficients))

    def test_mismatched_truncations(self):
        with pytest.raises(InvalidArgumentError):
            separator_kernel(bergman_kernel(1, 5), bergman_kernel(1, 6))


def _kernel_from_scenario(spec: dict) -> DiagonalKernel:
    """Kernel `spec` read the way a scenario's `kernels` section is read."""
    from cdlab.scenarios import Scenario, ScenarioContext
    raw = {"name": "one-kernel", "kernels": {"k": spec},
           "checks": [{"check": "similarity-split"}]}
    return ScenarioContext(Scenario.from_dict(raw)).kernel("k", "test")


class TestSpecParsing:
    def test_preset(self):
        k = _kernel_from_scenario({"preset": "bergman", "n": 2, "N": 6})
        np.testing.assert_allclose(k.coefficients,
                                   bergman_kernel(2, 6).coefficients)

    def test_explicit_coefficients(self):
        k = _kernel_from_scenario({"coeffs": [1.0, 2.5]})
        assert k.label == "custom" and k.truncation == 2


def test_required_truncation_tail_criterion():
    for r in (0.5, 0.9, 0.999):
        n = required_truncation(r)
        assert r ** (2 * n) < 1e-12
        assert n == 1 or r ** (2 * (n - 1)) >= 1e-12
