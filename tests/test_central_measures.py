import math

import numpy as np
import pytest

from dualfield import (
    CapabilityError,
    CovarianceOnDual,
    FiniteClassMeasure,
    IncompleteCovarianceError,
    LabelDomainError,
    NotPositiveDefiniteError,
    SU2AngleMeasure,
    TorusAngleMeasure,
    bochner_invert_finite,
    fourier,
    gram_matrix,
    heat_kernel_measure,
    heat_kernel_transform,
    is_positive_definite,
    parse_measure_spec,
    su2_character_values,
    weyl_quadrature,
)


class TestFourier:
    def test_haar_gives_delta_at_neutral(self, s3, c5, q8):
        for dual in (s3, c5, q8):
            haar = FiniteClassMeasure.haar(dual)
            for label in dual.labels():
                expected = 1.0 if label == dual.neutral else 0.0
                assert abs(haar.fourier(label) - expected) < 1e-12

    def test_point_mass_at_identity_gives_dimensions(self, s3, q8):
        for dual in (s3, q8):
            pm = FiniteClassMeasure.point_mass_identity(dual)
            for label in dual.labels():
                assert pm.fourier(label) == pytest.approx(dual.dim(label))

    def test_su2_haar_and_identity_atom(self, su2):
        haar = parse_measure_spec(su2, "haar")
        for n in range(5):
            assert abs(haar.fourier(n) - (1.0 if n == 0 else 0.0)) < 1e-12
        atom = SU2AngleMeasure(atoms=[(0.0, 1.0)])
        for n in range(5):
            assert atom.fourier(n) == pytest.approx(n + 1)

    def test_torus_variants(self, torus):
        haar = parse_measure_spec(torus, "haar")
        for n in range(-3, 4):
            assert abs(haar.fourier(n) - (1.0 if n == 0 else 0.0)) < 1e-12
        atom = TorusAngleMeasure(atoms=[(math.pi / 3, 1.0)])
        assert atom.fourier(3) == pytest.approx(np.exp(1j * math.pi))

    def test_mass_at_neutral_for_every_variant(self, s3):
        candidates = [
            FiniteClassMeasure(s3, [0.2, 0.5, 0.1]),
            SU2AngleMeasure(atoms=[(1.0, 0.3), (2.0, 0.5)]),
            SU2AngleMeasure(
                atoms=[(0.5, 0.25)], density=lambda t: 0.5 * np.ones_like(t)
            ),
            TorusAngleMeasure(
                atoms=[(0.1, 0.4)], density=lambda t: np.cos(t) ** 2
            ),
            heat_kernel_measure(0.7),
        ]
        for measure in candidates:
            neutral = measure.dual.neutral
            assert abs(measure.fourier(neutral) - measure.total_mass()) < 1e-10

    def test_label_domain_enforced(self, s3, su2):
        with pytest.raises(LabelDomainError):
            FiniteClassMeasure.haar(s3).fourier(7)
        with pytest.raises(LabelDomainError):
            SU2AngleMeasure(atoms=[(0.0, 1.0)]).fourier(-2)

    def test_module_level_wrapper(self, s3):
        haar = FiniteClassMeasure.haar(s3)
        assert fourier(haar, 0) == haar.fourier(0)


class TestHeatKernel:
    def test_transform_examples(self):
        heat = heat_kernel_measure(1.0)
        assert abs(heat.fourier(0) - 1.0) < 1e-10
        assert abs(heat.fourier(1) - 2 * math.exp(-3)) < 1e-10
        assert heat_kernel_transform(1.0, 1) == pytest.approx(0.09957413673572789)

    def test_probability_mass(self):
        for t in (0.1, 0.7, 1.0, 3.0):
            assert abs(heat_kernel_measure(t).total_mass() - 1.0) < 1e-10

    def test_quadrature_matches_closed_form(self):
        for t in (0.1, 1.0):
            heat = heat_kernel_measure(t)
            for n in range(7):
                assert abs(heat.fourier(n) - heat_kernel_transform(t, n)) < 1e-8

    def test_density_nonnegative_on_grid(self):
        heat = heat_kernel_measure(0.1)
        theta = np.linspace(0.0, math.pi, 512)
        assert heat.density(theta).min() >= -1e-9

    def test_truncation_tail(self):
        for t in (0.1, 1.0):
            heat = heat_kernel_measure(t)
            order = heat.truncation_order
            kept = heat_kernel_transform(t, order) * (order + 1)
            dropped = heat_kernel_transform(t, order + 1) * (order + 2)
            assert kept >= 1e-14
            assert dropped < 1e-14

    def test_semigroup_property_of_transform(self):
        t1, t2 = 0.3, 0.5
        ha, hb, hc = (heat_kernel_measure(t) for t in (t1, t2, t1 + t2))
        for n in range(6):
            lhs = hc.fourier(n) * (n + 1)
            rhs = ha.fourier(n) * hb.fourier(n)
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel_measure(0.0)
        with pytest.raises(ValueError):
            heat_kernel_measure(-1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            heat_kernel_measure(t)


class TestBochnerInversion:
    def test_haar_from_white_noise_covariance(self, s3):
        phi = CovarianceOnDual(s3, {0: 1.0, 1: 0.0, 2: 0.0})
        measure = bochner_invert_finite(phi)
        assert np.allclose(measure.class_weights, [1 / 6, 1 / 2, 1 / 3], atol=1e-12)

    def test_dimensions_invert_to_identity_atom(self, s3):
        phi = CovarianceOnDual(s3, {i: s3.dim(i) for i in s3.labels()})
        measure = bochner_invert_finite(phi)
        assert np.allclose(measure.class_weights, [1.0, 0.0, 0.0], atol=1e-12)

    def test_round_trip_random_weights(self, s3, q8, c2, c3, c5, rng):
        for dual in (s3, q8, c2, c3, c5):
            for _ in range(40):
                weights = rng.random(len(dual.labels()))
                measure = FiniteClassMeasure(dual, weights)
                phi = CovarianceOnDual.from_measure(measure, dual.labels())
                recovered = bochner_invert_finite(phi)
                assert np.abs(recovered.class_weights - weights).max() < 1e-12

    def test_negative_weight_error_carries_weights(self, s3):
        phi = CovarianceOnDual(s3, {0: 1.0, 1: 1.0, 2: -2.0})
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            bochner_invert_finite(phi)
        weights = np.asarray(excinfo.value.weights)
        assert weights.real.min() == pytest.approx(-1 / 3, abs=1e-12)

    def test_tiny_negative_clamped(self, s3):
        # Push one exact-zero weight to -5e-11: inside the round-off band,
        # so inversion clamps instead of raising.
        base = FiniteClassMeasure(s3, [0.5, 0.5, 0.0])
        table = s3.data.characters
        values = {
            i: base.fourier(i) + table[i, 2] * (-5e-11) for i in s3.labels()
        }
        measure = bochner_invert_finite(CovarianceOnDual(s3, values))
        assert measure.class_weights.min() == 0.0
        assert np.allclose(measure.class_weights[:2], [0.5, 0.5], atol=1e-9)

    def test_requires_finite_dual(self, su2):
        phi = CovarianceOnDual(su2, {0: 1.0})
        with pytest.raises(CapabilityError):
            bochner_invert_finite(phi)

    def test_missing_labels(self, s3):
        phi = CovarianceOnDual(s3, {0: 1.0})
        with pytest.raises(IncompleteCovarianceError):
            bochner_invert_finite(phi)


class TestGramMatrix:
    def test_white_noise_covariance_gives_identity(self, su2, s3):
        for dual, labels in [(su2, [0, 1, 2, 3]), (s3, s3.labels())]:
            values = {}
            for a in labels:
                for b in labels:
                    for k in dual.tensor(a, dual.conjugate(b)).support:
                        values[k] = 1.0 if k == dual.neutral else 0.0
            phi = CovarianceOnDual(dual, values)
            gram = gram_matrix(phi, labels)
            assert np.abs(gram - np.eye(len(labels))).max() < 1e-15
            assert is_positive_definite(phi, labels).positive

    def test_heat_window_is_real_symmetric_with_unit_corner(self, su2):
        phi = CovarianceOnDual.from_function(
            su2, lambda n: heat_kernel_transform(1.0, n), range(13)
        )
        gram = gram_matrix(phi, [0, 1, 2])
        assert np.abs(gram.imag).max() == 0.0
        assert np.abs(gram - gram.T).max() < 1e-12
        assert gram[0, 0] == 1.0

    def test_indefinite_example(self, su2):
        phi = CovarianceOnDual(su2, {0: 0.0, 1: 1.0, 2: 0.0})
        gram = gram_matrix(phi, [0, 1])
        assert gram.real.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        report = is_positive_definite(phi, [0, 1])
        assert not report.positive
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_heat_windows_positive(self, su2):
        for t in (0.1, 1.0):
            phi = CovarianceOnDual.from_function(
                su2, lambda n: heat_kernel_transform(t, n), range(13)
            )
            report = is_positive_definite(phi, range(7))
            assert report.positive
            assert report.min_eigenvalue >= -1e-10

    def test_missing_label_reported(self, su2):
        phi = CovarianceOnDual(su2, {0: 1.0, 1: 0.5})
        with pytest.raises(IncompleteCovarianceError) as excinfo:
            gram_matrix(phi, [0, 1])  # needs label 2 for 1 (x) 1*
        assert 2 in excinfo.value.missing

    def test_duplicate_labels_rejected(self, su2):
        phi = CovarianceOnDual(su2, {0: 1.0})
        with pytest.raises(ValueError):
            gram_matrix(phi, [0, 0])

    def test_positive_measures_give_positive_windows(self, s3, q8, su2, rng):
        # Transforms of nonnegative central measures pass the window check.
        for dual in (s3, q8):
            for _ in range(10):
                measure = FiniteClassMeasure(dual, rng.random(len(dual.labels())))
                phi = CovarianceOnDual.from_measure(measure, dual.labels())
                assert is_positive_definite(phi, dual.labels()).positive
        atoms = [(float(t), float(w)) for t, w in zip(rng.uniform(0, math.pi, 3), rng.random(3))]
        measure = SU2AngleMeasure(atoms=atoms)
        phi = CovarianceOnDual.from_measure(measure, range(13))
        assert is_positive_definite(phi, range(7)).positive


class TestSampling:
    def test_finite_class_sampling_statistics(self, s3, rng):
        measure = FiniteClassMeasure(s3, [0.5, 0.5, 0.0])
        coords = measure.sample_coordinates(rng, 50000)
        assert set(np.unique(coords)) <= {0, 1}
        assert abs((coords == 0).mean() - 0.5) < 0.02

    def test_su2_density_sampling_matches_transform(self, rng):
        heat = heat_kernel_measure(1.0)
        coords = heat.sample_coordinates(rng, 100000)
        estimate = heat.character_at(1, coords).mean()
        exact = heat_kernel_transform(1.0, 1)
        assert abs(estimate - exact) < 5 * 1.2 / math.sqrt(100000)

    def test_atom_mixture(self, rng):
        measure = SU2AngleMeasure(atoms=[(0.5, 0.25), (1.5, 0.75)])
        coords = measure.sample_coordinates(rng, 20000)
        assert set(np.round(np.unique(coords), 12)) == {0.5, 1.5}
        assert abs((coords == 0.5).mean() - 0.25) < 0.02


class TestMeasureSpecs:
    def test_parse_forms(self, su2, s3, torus):
        assert parse_measure_spec(s3, "haar").total_mass() == pytest.approx(1.0)
        assert parse_measure_spec(su2, "heat:0.5").total_mass() == pytest.approx(1.0)
        atoms = parse_measure_spec(su2, "atoms:0.5:0.25,1.5:0.75")
        assert atoms.total_mass() == pytest.approx(1.0)
        classes = parse_measure_spec(s3, "classes:0.5,0.5,0")
        assert classes.class_weights.tolist() == [0.5, 0.5, 0.0]
        assert parse_measure_spec(torus, "atoms:0:1").fourier(0) == pytest.approx(1.0)

    def test_parse_errors(self, su2, s3, torus):
        with pytest.raises(CapabilityError):
            parse_measure_spec(torus, "heat:1")
        with pytest.raises(CapabilityError):
            parse_measure_spec(s3, "atoms:0:1")
        with pytest.raises(CapabilityError):
            parse_measure_spec(su2, "classes:1,0")
        with pytest.raises(ValueError):
            parse_measure_spec(su2, "mystery:1")

    def test_weight_validation(self, s3):
        with pytest.raises(ValueError):
            FiniteClassMeasure(s3, [1.0, -0.5, 0.0])
        with pytest.raises(ValueError):
            FiniteClassMeasure(s3, [1.0, 0.0])
        with pytest.raises(ValueError):
            SU2AngleMeasure(atoms=[(0.5, -1.0)])
        with pytest.raises(ValueError):
            SU2AngleMeasure(atoms=[(4.0, 1.0)])


def test_weyl_quadrature_orthonormality():
    theta, weights = weyl_quadrature(256)
    chars = su2_character_values(12, theta)
    gram = (chars * weights) @ chars.T
    assert np.abs(gram - np.eye(13)).max() < 1e-12
