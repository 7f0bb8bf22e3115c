import decimal
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    multiplicity_by_integration,
    parse_measure_spec,
    su2_character_values,
    su2_dual,
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

    def test_su2_haar_is_its_one_term_series(self, su2):
        # The density 1 is chi_0: the transform is exactly delta_0, at every label.
        haar = parse_measure_spec(su2, "haar")
        assert haar.total_mass() == 1.0
        assert haar.fourier(0) == 1.0
        assert all(haar.fourier(n) == 0j for n in range(1, 10**5 + 1))
        for name in ("_points", "_weighted_density", "_point_characters"):
            assert not hasattr(haar, name)

    def test_torus_haar_is_exactly_delta_at_every_label(self, torus):
        # A 2048-point mean of e^{i n theta} reads 1 at every multiple of 2048.
        haar = parse_measure_spec(torus, "haar")
        assert haar.fourier(0) == 1
        assert haar.total_mass() == 1.0
        for k in range(1, 513):
            assert haar.fourier(k * 2048) == 0j
            assert haar.fourier(-k * 2048) == 0j
        with pytest.raises(LabelDomainError):
            haar.fourier(2**63)

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

    def test_series_order_capped(self):
        assert heat_kernel_measure(1e-3).truncation_order == 206
        with pytest.raises(ValueError, match="series order exceeds 256"):
            heat_kernel_measure(1e-9)

    @pytest.mark.parametrize("t", [1e-3, 0.05, 1.0])
    def test_transform_is_the_series_coefficient(self, t):
        heat = heat_kernel_measure(t)
        coefficients = heat.series_coefficients
        assert heat.total_mass() == 1.0
        for n in range(10**5 + 1):
            want = complex(coefficients[n]) if n <= heat.truncation_order else 0j
            assert hex_pair(heat.fourier(n)) == hex_pair(want)

    def test_transform_agrees_with_quadrature(self):
        theta, weights = weyl_quadrature(256)
        chars = su2_character_values(150, theta)
        for t in (0.005, 0.02, 0.1, 0.5, 1.0):
            heat = heat_kernel_measure(t)
            quadrature = chars @ (weights * heat.density(theta))
            series = np.array([heat.fourier(n) for n in range(151)])
            assert np.abs(series - quadrature).max() < 1e-12

    def test_no_quadrature_table(self):
        heat = heat_kernel_measure(0.05)
        for name in ("_points", "_weighted_density", "_point_characters"):
            assert not hasattr(heat, name)
        assert heat._sampling_table is None
        heat.sample_coordinates(np.random.default_rng(0), 3)
        assert heat._sampling_table is not None


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


def eager_coordinates(measure, rng, count):
    """``sample_coordinates`` over a CDF built from the density up front, as at construction."""
    su2 = isinstance(measure, SU2AngleMeasure)
    theta = np.linspace(0.0, math.pi if su2 else 2.0 * math.pi, 8192 + 1)
    base = (2.0 / math.pi) * np.sin(theta) ** 2 if su2 else None
    pdf = np.asarray(measure.density(theta), dtype=float)
    pdf = pdf * base if su2 else pdf / (2.0 * math.pi)
    pdf = np.clip(pdf, 0.0, None)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(theta))])
    cdf = cdf / cdf[-1]
    weights = [w for _, w in measure.atoms]
    probs = np.array(weights + [measure.total_mass() - sum(weights)]) / measure.total_mass()
    component = rng.choice(len(probs), size=count, p=probs)
    out = np.empty(count)
    for i, (t, _) in enumerate(measure.atoms):
        out[component == i] = t
    tail = component == len(measure.atoms)
    out[tail] = np.interp(rng.random(int(tail.sum())), cdf, theta)
    return out


class TestSamplingTable:
    """The density is evaluated on the sampling grid on the first draw, not at construction."""

    def test_grid_waits_for_the_first_draw(self):
        sizes = []

        def density(theta):
            sizes.append(np.size(theta))
            return 1.0 + 0.5 * np.cos(theta)

        measure = SU2AngleMeasure(atoms=[(1.0, 0.25)], density=density)
        measure.fourier(3)
        measure.total_mass()
        phi = CovarianceOnDual.from_measure(measure, range(5))
        is_positive_definite(phi, range(3))
        assert 8193 not in sizes
        first = measure.sample_coordinates(np.random.default_rng(1), 500)
        assert sizes.count(8193) == 1
        again = measure.sample_coordinates(np.random.default_rng(1), 500)
        assert sizes.count(8193) == 1
        assert first.tobytes() == again.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: heat_kernel_measure(0.3),
            lambda: heat_kernel_measure(0.01),
            lambda: parse_measure_spec(su2_dual(), "haar"),
            lambda: parse_measure_spec(TorusAngleMeasure().dual, "haar"),
            lambda: SU2AngleMeasure(
                atoms=[(0.3, 0.2), (2.0, 0.3)], density=lambda t: 0.5 * np.ones_like(t)
            ),
            lambda: TorusAngleMeasure(
                atoms=[(4.0, 0.4)], density=lambda t: 0.6 * (1.0 + np.cos(t))
            ),
        ],
    )
    def test_draws_keep_the_eager_bits(self, make):
        for seed in range(3):
            got = make().sample_coordinates(np.random.default_rng(seed), 4000)
            expected = eager_coordinates(make(), np.random.default_rng(seed), 4000)
            assert got.tobytes() == expected.tobytes()


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

    def test_total_mass_must_be_finite(self, s3):
        with pytest.raises(ValueError, match="total mass"):
            FiniteClassMeasure(s3, [1e308, 1e308, 0.0])
        with pytest.raises(ValueError, match="total mass inf is not finite"):
            SU2AngleMeasure(atoms=[(1.0, 1e308), (2.0, 1e308)])
        with pytest.raises(ValueError, match="total mass inf is not finite"):
            TorusAngleMeasure(atoms=[(1.0, 1e308), (2.0, 1e308)])
        assert FiniteClassMeasure(s3, [1e308, 0.0, 0.0]).total_mass() == 1e308


def test_weyl_quadrature_orthonormality():
    theta, weights = weyl_quadrature(256)
    chars = su2_character_values(12, theta)
    gram = (chars * weights) @ chars.T
    assert np.abs(gram - np.eye(13)).max() < 1e-12


# ---------------------------------------------------------------------------
# Character tables: every window read from one recurrence pass must give the
# bits of the per-label recurrence.
# ---------------------------------------------------------------------------


def ref_su2_fourier(measure, n):
    """The transform at one label, with its own recurrence run up to n.

    A character-series measure (heat kernel, SU(2) Haar) is its series: the
    reference is the series coefficient, and 0 past the truncation order.
    """
    if hasattr(measure, "series_coefficients"):
        return complex(measure.series_coefficients[n]) if n <= measure.truncation_order else 0j
    total = 0j
    if measure.atoms:
        thetas = np.array([t for t, _ in measure.atoms])
        ws = np.array([w for _, w in measure.atoms])
        total += complex((ws * su2_character_values(n, thetas)[n]).sum())
    if measure.density is not None:
        theta, weights = weyl_quadrature()
        weighted = weights * np.asarray(measure.density(theta), dtype=float)
        total += complex((weighted * su2_character_values(n, theta)[n]).sum())
    return total


def hex_pair(z):
    return (float(z.real).hex(), float(z.imag).hex())


SU2_MEASURES = {
    "heat 0.02": lambda: heat_kernel_measure(0.02),
    "heat 0.5": lambda: heat_kernel_measure(0.5),
    "haar": lambda: parse_measure_spec(su2_dual(), "haar"),
    "atoms at 0 and pi": lambda: SU2AngleMeasure(atoms=[(0.0, 0.25), (1.1, 0.25), (math.pi, 0.5)]),
    "atom at pi": lambda: SU2AngleMeasure(atoms=[(math.pi, 1.0)]),
    "atoms and density": lambda: SU2AngleMeasure(
        atoms=[(0.0, 0.3), (math.pi, 0.2)], density=lambda t: 0.5 + 0.5 * np.cos(t)
    ),
}
WARM = {name: make() for name, make in SU2_MEASURES.items()}
WARM_SU2 = su2_dual()
WINDOWS = st.lists(st.integers(0, 300), min_size=1, max_size=25)


class TestCharacterTables:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SU2_MEASURES)), labels=WINDOWS, fresh=st.booleans())
    def test_fourier_window_bits(self, name, labels, fresh):
        measure = SU2_MEASURES[name]() if fresh else WARM[name]
        got = [hex_pair(measure.fourier(n)) for n in labels]
        assert got == [hex_pair(ref_su2_fourier(measure, n)) for n in labels]

    @pytest.mark.parametrize("name", sorted(SU2_MEASURES))
    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_fourier_full_window_bits(self, name, order):
        labels = list(range(301)) if order == "ascending" else list(range(300, -1, -1))
        measure = SU2_MEASURES[name]()
        got = [hex_pair(measure.fourier(n)) for n in labels]
        assert got == [hex_pair(ref_su2_fourier(measure, n)) for n in labels]

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 299])
    def test_table_is_lazy_and_at_most_twice_the_label(self, n):
        measure = SU2_MEASURES["atoms and density"]()
        assert len(measure._point_characters) == 0
        measure.fourier(n)
        assert n < len(measure._point_characters) <= 2 * n + 1
        dual = su2_dual()
        assert len(dual._node_characters) == 0
        multiplicity_by_integration(dual, n, 0, n)
        assert n < len(dual._node_characters) <= 2 * n + 1

    def test_table_growth_doubles(self):
        measure = SU2_MEASURES["atoms and density"]()
        sizes = []
        for n in range(70):
            measure.fourier(n)
            sizes.append(len(measure._point_characters))
        assert sorted(set(sizes)) == [1, 2, 4, 8, 16, 32, 64, 128]

    @settings(max_examples=40, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(st.integers(0, 150), st.integers(0, 150), st.integers(0, 302)),
            min_size=1,
            max_size=20,
        ),
        fresh=st.booleans(),
    )
    def test_multiplicity_by_integration_bits(self, triples, fresh):
        dual = su2_dual() if fresh else WARM_SU2
        theta, weights = weyl_quadrature()
        for a, b, k in triples:
            chars = su2_character_values(max(a, b, k), theta)
            want = float((weights * chars[a] * chars[b] * chars[k]).sum())
            assert multiplicity_by_integration(dual, a, b, k).hex() == want.hex()

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SU2_MEASURES)), labels=WINDOWS, seed=st.integers(0, 99))
    def test_su2_characters_at_bits(self, name, labels, seed):
        measure = WARM[name]
        coords = measure.sample_coordinates(np.random.default_rng(seed), 40)
        rows = measure.characters_at(labels, coords)
        for n, row in zip(labels, rows, strict=True):
            assert row.tobytes() == su2_character_values(n, coords)[n].tobytes()
            assert measure.character_at(n, coords).tobytes() == row.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(st.integers(-40, 40), min_size=1, max_size=12), seed=st.integers(0, 99))
    def test_torus_characters_at_bits(self, labels, seed):
        measure = TorusAngleMeasure(atoms=[(0.0, 0.5), (2.0, 0.5)])
        coords = measure.sample_coordinates(np.random.default_rng(seed), 40)
        rows = measure.characters_at(labels, coords)
        for n, row in zip(labels, rows, strict=True):
            # The per-label form; at theta = 0 and n < 0 its imaginary part is -0.0.
            assert row.tobytes() == np.exp(1j * n * coords).tobytes()
            assert measure.character_at(n, coords).tobytes() == row.tobytes()

    @pytest.mark.parametrize("name", ["s3", "q8"])
    def test_finite_characters_at(self, name, request):
        dual = request.getfixturevalue(name)
        measure = FiniteClassMeasure.haar(dual)
        coords = measure.sample_coordinates(np.random.default_rng(5), 40)
        labels = dual.labels()[::-1] + dual.labels()
        rows = measure.characters_at(labels, coords)
        for n, row in zip(labels, rows, strict=True):
            assert row.tobytes() == dual.character(n)[coords].tobytes()

    def test_window_validates_every_label(self, su2, s3):
        coords = np.array([0.0, 1.0])
        with pytest.raises(LabelDomainError):
            SU2AngleMeasure(atoms=[(0.0, 1.0)]).characters_at([0, -1], coords)
        with pytest.raises(LabelDomainError):
            FiniteClassMeasure.haar(s3).characters_at([0, 3], [0])
        with pytest.raises(LabelDomainError):
            TorusAngleMeasure(atoms=[(0.0, 1.0)]).characters_at([0, 0.5], coords)

    def test_concurrent_readers_get_the_same_bits(self):
        # Threads grow one shared table at once; each must still read a table
        # holding its row, whichever thread's table was assigned last.
        measure = SU2_MEASURES["atoms and density"]()
        dual = su2_dual()
        theta, weights = weyl_quadrature()
        windows = [list(np.random.default_rng(i).permutation(260)) for i in range(8)]
        want = {n: hex_pair(ref_su2_fourier(measure, n)) for n in range(260)}
        errors = []

        def work(labels):
            try:
                for n in labels:
                    assert hex_pair(measure.fourier(n)) == want[n]
                    chars = su2_character_values(n, theta)
                    expected = float((weights * chars[n] * chars[0] * chars[n]).sum())
                    assert multiplicity_by_integration(dual, n, 0, n).hex() == expected.hex()
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in windows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_torus_density_evaluated_once(self):
        calls = []

        def density(theta):
            calls.append(len(theta))
            return 1.0 + 0.5 * np.cos(theta)

        measure = TorusAngleMeasure(density=density)
        before = len(calls)
        values = [measure.fourier(n) for n in range(-5, 6)]
        assert len(calls) == before
        theta = np.arange(2048) * (2.0 * math.pi / 2048)
        grid = density(theta)
        for n, value in zip(range(-5, 6), values):
            want = complex(np.mean(grid * np.exp(1j * n * theta)))
            assert hex_pair(value) == hex_pair(want)



class TestTorusDensityTransform:
    """A density's transform is a 2048-point mean: exact below label 1024, refused from it."""

    @staticmethod
    def measure():
        return TorusAngleMeasure(density=lambda t: 1 + np.cos(t))

    @pytest.mark.parametrize("label", [1024, 2047, -4096, -1024, 4096])
    def test_labels_past_the_grid_are_refused(self, label):
        with pytest.raises(CapabilityError, match="2048 grid points"):
            self.measure().fourier(label)

    @pytest.mark.parametrize("label", [0, 1, -1, 2, -2, 500, -777, 1022, 1023, -1023])
    def test_labels_below_the_grid_are_exact(self, label):
        want = {0: 1.0, 1: 0.5, -1: 0.5}.get(label, 0.0)
        assert abs(self.measure().fourier(label) - want) < 1e-13

    def test_atoms_and_haar_have_no_limit(self, torus):
        atoms = TorusAngleMeasure(atoms=[(0.5, 0.25), (2.0, 0.75)])
        for label in (1024, 2047, -4096):
            want = 0.25 * np.exp(1j * label * 0.5) + 0.75 * np.exp(1j * label * 2.0)
            assert atoms.fourier(label) == pytest.approx(want, abs=1e-12)
            assert parse_measure_spec(torus, "haar").fourier(label) == 0j


def decimal_pi():
    """pi to the context's precision (the recipe of the decimal module's documentation)."""
    decimal.getcontext().prec += 2
    three = decimal.Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def decimal_cis(n, theta):
    """exp(i n theta) for the float theta, from n theta reduced mod 2 pi in 100 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        two_pi = 2 * decimal_pi()
        x = decimal.Decimal(n) * decimal.Decimal(theta)
        x -= two_pi * (x / two_pi).to_integral_value()
        # The Taylor series of exp(i x) at |x| <= pi, term x^k / k! by term.
        cos = sin = decimal.Decimal(0)
        term, k = decimal.Decimal(1), 0
        while abs(term) > decimal.Decimal("1e-110"):
            part = term if k % 4 < 2 else -term
            if k % 2 == 0:
                cos += part
            else:
                sin += part
            k += 1
            term = term * x / k
        return complex(float(cos), float(sin))


class TestTorusAtomPhase:
    """An atom's transform reduces n theta mod 2 pi exactly: no phase is lost at large labels."""

    @pytest.mark.parametrize("label", [10**13, 10**15, 2**61, -(2**62 - 1)])
    @pytest.mark.parametrize("theta", [0.1, 2.0, math.nextafter(2 * math.pi, 0)])
    def test_large_labels_match_a_decimal_reference(self, label, theta):
        got = TorusAngleMeasure(atoms=[(theta, 1.0)]).fourier(label)
        assert abs(got - decimal_cis(label, theta)) <= 1e-15

