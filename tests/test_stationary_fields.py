import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfield import (
    CapabilityError,
    CovarianceOnDual,
    FiniteClassMeasure,
    SU2AngleMeasure,
    TorusAngleMeasure,
    bochner_invert_finite,
    check_hypergroup_stationarity,
    check_stationarity,
    cramer_decompose_finite,
    estimate_covariance,
    evaluate_at_vector,
    gram_matrix,
    heat_kernel_measure,
    is_positive_definite,
    kolmogorov_field,
    su2_character_values,
    translate,
    weyl_quadrature,
    white_noise,
    ar1_field,
    ma_field,
    su2_dual,
)
from dualfield.stationary_fields import jackknife_estimate


def all_class_subsets(dual):
    classes = dual.labels()
    return [
        set(combo)
        for k in range(len(classes) + 1)
        for combo in itertools.combinations(classes, k)
    ]


def direct_second_moment_finite(measure, a, b):
    """E(Y_a conj(Y_b)) straight from the sample space, no decompositions."""
    dual = measure.dual
    return complex(
        (measure.class_weights * dual.character(a) * np.conj(dual.character(b))).sum()
    )


def direct_second_moment_su2(measure, a, b):
    theta, weights = weyl_quadrature(256)
    chars = su2_character_values(max(a, b), theta)
    density = measure.density(theta)
    return complex((weights * density * chars[a] * chars[b]).sum())


class TestWhiteNoise:
    def test_exact_oracle_is_kronecker(self, su2, s3):
        for dual, labels in [(su2, range(5)), (s3, s3.labels())]:
            z = white_noise(dual, seed=1)
            for a in labels:
                for b in labels:
                    assert z.second_moment(a, b) == (1.0 if a == b else 0.0)

    def test_reproducible_given_seed_and_labels(self, su2):
        a = white_noise(su2, seed=42).sample([0, 1, 2])
        b = white_noise(su2, seed=42).sample([0, 1, 2])
        assert a == b
        c = white_noise(su2, seed=43).sample([0, 1, 2])
        assert a != c

    def test_moments_by_monte_carlo(self, su2):
        z = white_noise(su2, seed=5)
        same = estimate_covariance(z, 2, 2, 200000, seed=11)
        assert abs(same.mean - 1.0) <= 4 * same.stderr
        cross = estimate_covariance(z, 1, 2, 200000, seed=12)
        assert abs(cross.mean) <= 4 * cross.stderr

    def test_decomposable_extension_of_tensor_square(self, su2):
        z = white_noise(su2, seed=9)
        batch = z.sample_batch([0, 2], 200000)
        values = evaluate_at_vector(batch, su2.tensor(1, 1))
        second = np.mean(np.abs(values) ** 2)
        assert abs(second - 2.0) < 0.04

    def test_stationary_with_zero_violation(self, su2, torus, s3):
        for dual, labels in [(su2, range(5)), (torus, range(-3, 4)), (s3, s3.labels())]:
            z = white_noise(dual, seed=2)
            report = check_stationarity(dual, z.second_moment, labels)
            assert report.passed and report.max_violation == 0.0
            hyper = check_hypergroup_stationarity(dual, z.second_moment, labels)
            assert hyper.passed and hyper.max_violation == 0.0

    def test_spectral_measure_is_haar(self, s3):
        z = white_noise(s3, seed=3)
        phi = CovarianceOnDual.from_function(
            s3, lambda k: z.second_moment(k, s3.neutral), s3.labels()
        )
        measure = bochner_invert_finite(phi)
        assert np.abs(measure.class_weights - [1 / 6, 1 / 2, 1 / 3]).max() < 1e-12


class TestKolmogorovField:
    def s3_measures(self, s3):
        return [
            FiniteClassMeasure.haar(s3),
            FiniteClassMeasure.point_mass_identity(s3),
            FiniteClassMeasure(s3, [0.5, 0.5, 0.0]),
        ]

    def test_requires_probability_measure(self, s3):
        with pytest.raises(ValueError):
            kolmogorov_field(FiniteClassMeasure(s3, [0.5, 0.5, 0.5]))

    def test_oracle_equals_direct_expectation(self, s3):
        for measure in self.s3_measures(s3):
            field = kolmogorov_field(measure, seed=4)
            for a in s3.labels():
                for b in s3.labels():
                    direct = direct_second_moment_finite(measure, a, b)
                    assert abs(field.second_moment(a, b) - direct) < 1e-12

    def test_covariance_equals_transform(self, s3):
        for measure in self.s3_measures(s3):
            field = kolmogorov_field(measure, seed=4)
            for label in s3.labels():
                assert abs(field.covariance(label) - measure.fourier(label)) < 1e-14

    def test_point_mass_field_is_dimensions(self, s3):
        field = kolmogorov_field(FiniteClassMeasure.point_mass_identity(s3), seed=0)
        sample = field.sample(s3.labels())
        for label in s3.labels():
            assert sample[label] == s3.dim(label)
            assert field.covariance(label) == pytest.approx(s3.dim(label))

    def test_mixed_measure_example_value(self, s3):
        field = kolmogorov_field(FiniteClassMeasure(s3, [0.5, 0.5, 0.0]), seed=0)
        assert field.covariance(2) == pytest.approx(1.0)

    def test_stationarity_passes(self, s3):
        for measure in self.s3_measures(s3):
            field = kolmogorov_field(measure, seed=4)
            report = check_stationarity(s3, field.second_moment, s3.labels())
            assert report.passed and report.max_violation < 1e-12

    def test_su2_heat_oracle_against_quadrature(self, su2):
        measure = heat_kernel_measure(1.0)
        field = kolmogorov_field(measure, seed=4)
        for a in range(5):
            for b in range(5):
                direct = direct_second_moment_su2(measure, a, b)
                assert abs(field.second_moment(a, b) - direct) < 1e-10
        report = check_stationarity(su2, field.second_moment, range(5), tol=1e-10)
        assert report.passed
        hyper = check_hypergroup_stationarity(su2, field.second_moment, range(5), tol=1e-10)
        assert hyper.passed

    def test_heat_check_at_high_labels_is_small(self, su2):
        # Pairs of 16390..16393 cover the irreducibles 0..32786: their characters
        # at 256 quadrature nodes would take about 198 MiB, the transforms 0.5 MiB.
        field = kolmogorov_field(heat_kernel_measure(0.05), seed=0)
        check_stationarity(su2, field.second_moment, range(2))  # loads what loads lazily
        tracemalloc.start()
        try:
            report = check_stationarity(su2, field.second_moment, range(16390, 16394))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 16 * 2**20, peak / 2**20

    def test_monte_carlo_against_oracle(self, su2):
        field = kolmogorov_field(heat_kernel_measure(1.0), seed=21)
        exact = field.second_moment(1, 1)
        est = estimate_covariance(field, 1, 1, 200000, seed=8)
        assert abs(est.mean - exact) <= 4 * est.stderr


class TestEmptyWindows:
    def test_checks_refuse_an_empty_window(self, su2, s3):
        for dual in (su2, s3):
            oracle = white_noise(dual, seed=1).second_moment
            with pytest.raises(ValueError):
                check_stationarity(dual, oracle, [])
            for kind in ("representation_ring", "normalized"):
                with pytest.raises(ValueError):
                    check_hypergroup_stationarity(dual, oracle, range(0), kind=kind)

    def test_gram_matrix_refuses_an_empty_window(self, su2):
        phi = CovarianceOnDual(su2, {0: 1.0})
        with pytest.raises(ValueError):
            gram_matrix(phi, [])


class TestHypergroupSeparation:
    def test_representation_ring_matches_group_form(self, su2, torus, s3):
        from dualfield import ar1_second_moment_oracle, ma_second_moment_oracle

        oracles = [
            (su2, white_noise(su2, seed=1).second_moment, list(range(4))),
            (torus, white_noise(torus, seed=1).second_moment, list(range(-2, 3))),
            (
                su2,
                kolmogorov_field(heat_kernel_measure(1.0), seed=1).second_moment,
                list(range(4)),
            ),
            (
                s3,
                kolmogorov_field(
                    FiniteClassMeasure(s3, [0.5, 0.5, 0.0]), seed=1
                ).second_moment,
                s3.labels(),
            ),
            # Series oracles too, including ones the check rejects.
            (su2, ar1_second_moment_oracle(0.9), list(range(5))),
            (su2, ar1_second_moment_oracle(0.3 + 0.4j), list(range(5))),
            (su2, ma_second_moment_oracle((1.0, 2j, -1.0)), list(range(5))),
        ]
        for dual, oracle, labels in oracles:
            plain = check_stationarity(dual, oracle, labels)
            hyper = check_hypergroup_stationarity(dual, oracle, labels)
            assert plain.passed == hyper.passed
            assert abs(plain.max_violation - hyper.max_violation) < 1e-12

    def test_normalized_convolution_breaks_white_noise(self, su2):
        z = white_noise(su2, seed=1)
        report = check_hypergroup_stationarity(
            su2, z.second_moment, [0, 1, 2], kind="normalized"
        )
        assert not report.passed
        witness = {(w.pi1, w.pi2): w for w in report.witnesses}[(1, 1)]
        assert witness.lhs == 1.0 + 0j
        assert witness.rhs == 0.25 + 0j

    def test_report_serialization(self, su2):
        z = white_noise(su2, seed=1)
        report = check_hypergroup_stationarity(
            su2, z.second_moment, [0, 1], kind="normalized"
        )
        payload = report.to_json_dict()
        assert payload["condition"] == "stathyp:normalized"
        assert payload["pass"] is False
        assert payload["witnesses"][0]["lhs"] == [1.0, 0.0]


class TestTranslation:
    def test_neutral_translation_is_identity(self, su2):
        base = white_noise(su2, seed=6)
        shifted = translate(white_noise(su2, seed=6), su2.neutral)
        assert base.sample([0, 1, 2]) == shifted.sample([0, 1, 2])

    def test_torus_translation_shifts_labels(self, torus):
        base = white_noise(torus, seed=7)
        shifted = translate(white_noise(torus, seed=7), 3)
        direct = base.sample([3, 4, 5])
        moved = shifted.sample([0, 1, 2])
        assert all(moved[n] == direct[n + 3] for n in (0, 1, 2))

    def test_character_multiplication_for_constructed_fields(self, su2):
        field = kolmogorov_field(heat_kernel_measure(1.0), seed=13)
        shifted = translate(field, 1)
        values = shifted.sample([1, 2])
        theta = field.last_coordinates[0]
        chars = su2_character_values(3, np.array([theta]))[:, 0]
        assert abs(values[1] - chars[1] * chars[1]) < 1e-12
        assert abs(values[2] - chars[2] * chars[1]) < 1e-12
        assert abs(values[1] - (chars[0] + chars[2])) < 1e-12

    def test_translated_second_moment(self, su2):
        z = white_noise(su2, seed=6)
        shifted = translate(z, 1)
        # Value at 1 is Z_0 + Z_2, so its second moment is 2.
        assert shifted.second_moment(1, 1) == pytest.approx(2.0)
        assert shifted.second_moment(1, 0) == pytest.approx(0.0)


def evaluate_into_reference(out, sample, vec):
    """The per-label sum translated samples were built with: each term times its (1+0j) multiplicity."""
    total = None
    for label, mult in vec.items():
        if total is not None:
            total += mult * sample[label]
        else:
            total = np.multiply(mult, sample[label], out=out)
    if total is None:
        out.fill(0)


def translated_reference(field, labels, count):
    """Translated values from a fresh draw of the base, decomposing each label twice, as before."""
    ordered = sorted(set(labels))
    shifted = lambda label: field.dual.tensor(label, field.shift)  # noqa: E731
    needed = sorted({k for label in ordered for k in shifted(label).support})
    base_values = field.base.reseeded(field.base.seed).sample_batch(needed, count)
    values = {label: np.empty(count, dtype=complex) for label in ordered}
    for label, row in values.items():
        evaluate_into_reference(row, base_values, shifted(label))
    return values


def assert_same_bits(got, want):
    assert sorted(got) == sorted(want)
    for label in want:
        assert got[label].tobytes() == want[label].tobytes(), label


class TestTranslatedSampleBits:
    """Translated samples decompose each label once and keep the bits of the multiplied sum."""

    SU2_BASES = {
        "heat": lambda seed: kolmogorov_field(heat_kernel_measure(0.1), seed),
        "whitenoise": lambda seed: white_noise(su2_dual(), seed),
        "ar1": lambda seed: ar1_field(0.5 + 0.6j, seed),
        "ma": lambda seed: ma_field((1.0, 0.5j, -0.2 + 0.1j), seed),
    }

    @pytest.mark.parametrize("labels", [range(41), [3, 9, 9, 40, 2, 3]])
    @pytest.mark.parametrize("shift", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("base", sorted(SU2_BASES))
    def test_su2(self, base, shift, labels):
        field = translate(self.SU2_BASES[base](17), shift)
        assert_same_bits(field.sample_batch(labels, 301), translated_reference(field, labels, 301))

    @pytest.mark.parametrize("shift", [-3, 0, 2])
    def test_torus(self, torus, shift):
        labels = [*range(-6, 7), 4, -6]
        bases = [
            white_noise(torus, 5),
            kolmogorov_field(TorusAngleMeasure(atoms=[(0.5, 0.25), (2.0, 0.75)]), 5),
            # Characters at the angle 0 have imaginary part -0.0 at negative labels.
            kolmogorov_field(TorusAngleMeasure(atoms=[(0.0, 0.5), (2.0, 0.5)]), 5),
        ]
        for base in bases:
            field = translate(base, shift)
            assert_same_bits(field.sample_batch(labels, 64), translated_reference(field, labels, 64))

    @pytest.mark.parametrize("name", ["c2", "c3", "c5", "s3", "q8"])
    def test_every_builtin_finite_dual(self, request, name):
        dual = request.getfixturevalue(name)
        labels = dual.labels()
        weights = np.arange(1.0, len(dual.data.class_sizes) + 1)
        bases = [
            white_noise(dual, 3),
            kolmogorov_field(FiniteClassMeasure.haar(dual), 3),
            kolmogorov_field(FiniteClassMeasure(dual, weights / weights.sum()), 3),
        ]
        for base in bases:
            for shift in labels:
                field = translate(base.reseeded(3), shift)
                window = [*labels, labels[-1], labels[0]]
                assert_same_bits(field.sample_batch(window, 50), translated_reference(field, window, 50))

    def test_each_distinct_label_is_decomposed_once(self, su2, monkeypatch):
        calls = []
        original = su2.tensor

        def spy(a, b):
            calls.append((a, b))
            return original(a, b)

        monkeypatch.setattr(su2, "tensor", spy)
        translate(white_noise(su2, 2), 3).sample_batch([7, 0, 7, 12, 0, 5], 10)
        assert sorted(calls) == [(0, 3), (5, 3), (7, 3), (12, 3)]


class TestCramer:
    def measures(self, dual):
        n = len(dual.labels())
        weights = np.arange(1.0, n + 1.0)
        out = [
            FiniteClassMeasure.haar(dual),
            FiniteClassMeasure(dual, weights / weights.sum()),
        ]
        degenerate = np.zeros(n)
        degenerate[0] = 0.5
        degenerate[-1] = 0.5
        out.append(FiniteClassMeasure(dual, degenerate))
        return out

    def test_reconstruction_and_scattering(self, s3, c3, c2, q8):
        for dual in (s3, c3, c2, q8):
            for measure in self.measures(dual):
                field = kolmogorov_field(measure, seed=1)
                scattered = cramer_decompose_finite(field)
                assert scattered.reconstruction_residual() <= 1e-12
                subsets = all_class_subsets(dual)
                for left in subsets:
                    mu = scattered.measure_of(left)
                    assert abs(scattered.second_moment(left) - mu) <= 1e-12
                    for right in subsets:
                        expected = scattered.measure_of(left & right)
                        got = scattered.expected_product(left, right)
                        assert abs(got - expected) <= 1e-12

    def test_haar_singleton_moments(self, s3):
        field = kolmogorov_field(FiniteClassMeasure.haar(s3), seed=1)
        scattered = cramer_decompose_finite(field)
        for c, size in enumerate(s3.data.class_sizes):
            assert scattered.second_moment([c]) == pytest.approx(size / 6)

    def test_null_classes_reported_and_zero(self, s3):
        field = kolmogorov_field(FiniteClassMeasure(s3, [0.5, 0.5, 0.0]), seed=1)
        scattered = cramer_decompose_finite(field)
        # Null classes are named by class index: class 2 holds the 3-cycles, not the irreducible std.
        assert scattered.descriptor.endswith("; null classes: class 2)")
        assert scattered.second_moment([2]) <= 1e-12

    def test_requires_finite_construction(self, su2):
        field = kolmogorov_field(heat_kernel_measure(1.0), seed=1)
        with pytest.raises(CapabilityError):
            cramer_decompose_finite(field)
        with pytest.raises(CapabilityError):
            cramer_decompose_finite(white_noise(su2, seed=1))


class TestPositivityOfStationaryOracles:
    def oracle_set(self, su2, s3):
        z = white_noise(su2, seed=1)
        heat = kolmogorov_field(heat_kernel_measure(1.0), seed=1)
        mixed = kolmogorov_field(FiniteClassMeasure(s3, [0.5, 0.5, 0.0]), seed=1)
        return [
            (su2, z, list(range(5))),
            (su2, heat, list(range(5))),
            (s3, mixed, s3.labels()),
        ]

    def test_gram_psd_for_fields_that_pass_the_check(self, su2, s3):
        for dual, field, labels in self.oracle_set(su2, s3):
            report = check_stationarity(dual, field.second_moment, labels, tol=1e-10)
            assert report.passed
            needed = {
                k
                for a in labels
                for b in labels
                for k in dual.tensor(a, dual.conjugate(b)).support
            }
            phi = CovarianceOnDual.from_function(
                dual, lambda k: field.second_moment(k, dual.neutral), sorted(needed)
            )
            positivity = is_positive_definite(phi, labels)
            assert positivity.positive
            assert positivity.min_eigenvalue >= -1e-10

    def test_quadratic_form_nonnegative_by_monte_carlo(self, su2, s3, rng):
        for dual, field, labels in self.oracle_set(su2, s3):
            coeffs = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
            batch = field.reseeded(17).sample_batch(labels, 100000)
            combined = sum(c * batch[k] for c, k in zip(coeffs, labels))
            squares = np.abs(combined) ** 2
            mean = squares.mean()
            stderr = squares.std(ddof=1) / math.sqrt(squares.size)
            assert mean >= -4 * stderr


class TestEstimateCovariance:
    def test_deterministic_given_seed(self, su2):
        z = white_noise(su2, seed=0)
        a = estimate_covariance(z, 1, 1, 5000, seed=3)
        b = estimate_covariance(z, 1, 1, 5000, seed=3)
        assert a == b

    def test_sharding_matches_manual_concatenation(self, su2):
        z = white_noise(su2, seed=0)
        sharded = estimate_covariance(z, 1, 2, 6000, seed=3, n_streams=2)
        chunks = []
        for j, count in enumerate((3000, 3000)):
            vals = z.reseeded(3 + j).sample_batch([1, 2], count)
            chunks.append(vals[1] * np.conj(vals[2]))
        manual = np.concatenate(chunks)
        assert sharded.mean == pytest.approx(complex(manual.mean()), abs=1e-15)
        assert sharded.n_samples == 6000

    def test_jackknife_stderr_scale(self, su2):
        z = white_noise(su2, seed=0)
        est = estimate_covariance(z, 0, 0, 40000, seed=5)
        # |Z|^2 is Exp(1): sd 1, so the standard error is near 1/sqrt(N).
        assert est.stderr == pytest.approx(1 / math.sqrt(40000), rel=0.1)

    def test_input_validation(self, su2):
        z = white_noise(su2, seed=0)
        with pytest.raises(ValueError):
            estimate_covariance(z, 0, 0, 1, seed=1)
        with pytest.raises(ValueError):
            estimate_covariance(z, 0, 0, 10, seed=1, n_streams=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_jackknife_needs_two_samples(self, n):
        with pytest.raises(ValueError, match="two samples"):
            jackknife_estimate(np.ones(n, dtype=complex))


# ---------------------------------------------------------------------------
# Kolmogorov windows: one character table per draw, the bits of the per-label rows
# ---------------------------------------------------------------------------


def su2_row(n, coords):
    return np.asarray(su2_character_values(n, coords)[n], dtype=complex)


def torus_row(n, coords):
    return np.asarray(np.exp(1j * n * coords), dtype=complex)


SAMPLED_MEASURES = {
    "su2 heat": (lambda: heat_kernel_measure(0.05), su2_row, st.integers(0, 200)),
    "su2 atoms at 0 and pi": (
        lambda: SU2AngleMeasure(atoms=[(0.0, 0.3), (0.7, 0.3), (math.pi, 0.4)]),
        su2_row,
        st.integers(0, 200),
    ),
    "torus atom at 0": (
        lambda: TorusAngleMeasure(atoms=[(0.0, 0.5)], density=lambda t: 0.5 + 0 * t),
        torus_row,
        st.integers(-60, 60),
    ),
}


class TestKolmogorovWindows:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SAMPLED_MEASURES)), seed=st.integers(0, 999))
    def test_angle_sample_batch_bits(self, data, name, seed):
        make, row, label = SAMPLED_MEASURES[name]
        labels = data.draw(st.lists(label, min_size=1, max_size=20), label="labels")
        field = kolmogorov_field(make(), seed)
        batch = field.sample_batch(labels, 64)
        coords = field.last_coordinates
        assert list(batch) == sorted(set(labels))
        for n, values in batch.items():
            assert values.tobytes() == row(n, coords).tobytes()

    @pytest.mark.parametrize("name", ["s3", "q8"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_sample_batch_bits(self, name, seed, request):
        dual = request.getfixturevalue(name)
        field = kolmogorov_field(FiniteClassMeasure.haar(dual), seed)
        labels = dual.labels()[::-1] * 2
        batch = field.sample_batch(labels, 64)
        coords = field.last_coordinates
        assert list(batch) == dual.labels()
        for n, values in batch.items():
            want = np.asarray(dual.character(n)[coords], dtype=complex)
            assert values.tobytes() == want.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(labels=st.lists(st.integers(0, 120), min_size=1, max_size=15), shift=st.integers(1, 4))
    def test_translated_sample_batch_bits(self, labels, shift):
        base = kolmogorov_field(heat_kernel_measure(0.1), 11)
        batch = translate(base, shift).sample_batch(labels, 32)
        coords = base.last_coordinates
        for n, values in batch.items():
            # Clebsch-Gordan range of n (x) shift, each term with multiplicity 1 + 0j.
            terms = [(1 + 0j) * su2_row(k, coords) for k in range(abs(n - shift), n + shift + 1, 2)]
            want = terms[0]
            for term in terms[1:]:
                want = want + term
            assert values.tobytes() == want.tobytes()

    def test_su2_sample_holds_no_float_table(self):
        field = kolmogorov_field(heat_kernel_measure(0.1), 5)
        field.sample_batch(range(3), 10)  # the sampling table is built on the first draw
        tracemalloc.start()
        try:
            batch = field.sample_batch(range(151), 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = 151 * 2000 * 16
        assert len(batch) == 151
        # A float table of the characters beside the complex output would add half of it.
        assert peak < 1.2 * output, peak / output

    def test_empty_window_draws_nothing(self):
        field = kolmogorov_field(heat_kernel_measure(0.5), 3)
        assert field.sample_batch([], 5) == {}
        assert field.last_coordinates.shape == (5,)
