import math

import numpy as np
import pytest

from dualfield import (
    ar1_covariance,
    ar1_field,
    ar1_second_moment_oracle,
    check_stationarity,
    estimate_covariance,
    estimate_covariance_matrix,
    ma_covariance,
    ma_field,
    ma_second_moment_oracle,
    parse_series_spec,
    simulate_ar1,
    simulate_ar1_batch,
    simulate_ma,
    simulate_ma_batch,
    white_noise,
    white_noise_sequence,
)
from dualfield import stationary_fields, time_series
from dualfield.stationary_fields import _white_noise_rows, pairwise_matrix

from dualfield.time_series import SeriesSpec

LAMBDA_GRID = [0.0, 0.5, -0.5, 0.9, np.exp(1j * math.pi / 4), 1j, 2.0]


def brute_force_ar1_covariance(lam, n, h):
    """Literal double sum over the moving-average expansion."""
    total = 0j
    for k in range(n + h + 1):
        for l in range(n + 1):
            if n + h - k == n - l:
                total += lam**k * np.conj(lam) ** l
    return total


def brute_force_statdef_violation(dual, oracle, a, b):
    lhs = oracle(a, b)
    rhs = sum(
        mult * oracle(k, dual.neutral)
        for k, mult in dual.tensor(a, dual.conjugate(b)).items()
    )
    return abs(lhs - rhs)


class TestAR1Covariance:
    def test_matches_brute_force_on_grid(self):
        for lam in LAMBDA_GRID:
            for n in range(21):
                for h in range(11):
                    closed = ar1_covariance(lam, n, h)
                    brute = brute_force_ar1_covariance(lam, n, h)
                    assert abs(closed - brute) < 1e-12

    def test_degenerate_lambda_is_white_noise(self):
        for n in range(5):
            assert ar1_covariance(0.0, n, 0) == 1.0
            for h in range(1, 4):
                assert ar1_covariance(0.0, n, h) == 0.0

    def test_frozen_examples(self):
        assert ar1_covariance(0.5, 1, 0) == pytest.approx(1.25, abs=1e-15)
        assert ar1_covariance(1j, 2, 1) == pytest.approx(3j, abs=1e-15)

    def test_unit_circle_branch(self):
        lam = np.exp(1j * 0.3)
        for n in range(5):
            for h in range(4):
                assert abs(
                    ar1_covariance(lam, n, h) - brute_force_ar1_covariance(lam, n, h)
                ) < 1e-12
        near = 1.0 + 5e-9  # inside the branch window
        assert ar1_covariance(near, 3, 1) == pytest.approx(4 * near, abs=1e-7)

    def test_oracle_values_and_symmetry(self):
        oracle = ar1_second_moment_oracle(0.9)
        assert oracle(0, 0) == pytest.approx(1.0)
        expected = sum(0.81**l for l in range(11))
        assert oracle(10, 10) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(4.744857419903363, abs=1e-12)
        complex_oracle = ar1_second_moment_oracle(0.3 + 0.4j)
        for n1 in range(6):
            for n2 in range(6):
                assert complex_oracle(n1, n2) == pytest.approx(
                    np.conj(complex_oracle(n2, n1)), abs=1e-14
                )

    def test_zero_lambda_oracle_is_kronecker(self):
        oracle = ar1_second_moment_oracle(0.0)
        for n1 in range(4):
            for n2 in range(4):
                assert oracle(n1, n2) == (1.0 if n1 == n2 else 0.0)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            ar1_covariance(0.5, -1, 0)
        with pytest.raises(ValueError):
            ar1_covariance(0.5, 0, -1)


class TestAR1Simulation:
    def test_recursion_equals_moving_average_form(self):
        # Scale-aware bound: |lam| > 1 grows the path geometrically.
        for lam in [0.0, 0.5, 1.0, 2.0, 1j, np.exp(1j * math.pi / 4)]:
            noise = white_noise_sequence(13, seed=99)
            path = simulate_ar1(lam, 12, noise=noise)
            expansion = np.array(
                [sum(lam**k * noise[n - k] for k in range(n + 1)) for n in range(13)]
            )
            scale = max(1.0, np.abs(expansion).max())
            assert np.abs(path - expansion).max() < 1e-12 * scale

    def test_zero_lambda_returns_noise(self):
        noise = white_noise_sequence(6, seed=4)
        assert np.array_equal(simulate_ar1(0.0, 5, noise=noise), noise)

    def test_unit_lambda_with_forced_ones(self):
        path = simulate_ar1(1.0, 5, noise=np.ones(6))
        assert np.array_equal(path.real, np.arange(1, 7))

    def test_seeded_reproducibility(self):
        assert np.array_equal(simulate_ar1(0.7, 9, seed=5), simulate_ar1(0.7, 9, seed=5))
        batch = simulate_ar1_batch(0.7, 9, 4, seed=5)
        assert batch.shape == (4, 10)
        assert np.array_equal(batch, simulate_ar1_batch(0.7, 9, 4, seed=5))

    @pytest.mark.parametrize("lam", [0.7, -1.0, 0.3 + 0.4j, -0.7 + 0.6j, 1j, 2.0 - 1.5j])
    def test_single_path_is_a_batch_of_one(self, lam):
        for n in (0, 1, 17, 300):
            path = simulate_ar1(lam, n, seed=n + 11)
            assert path.tobytes() == simulate_ar1_batch(lam, n, 1, n + 11)[0].tobytes()

    def test_batch_rows_match_single_path_law(self):
        # Second moments of the batch agree with the closed form.
        paths = simulate_ar1_batch(0.9, 6, 200000, seed=2)
        est = (paths[:, 4] * np.conj(paths[:, 4])).mean()
        exact = ar1_covariance(0.9, 4, 0)
        assert abs(est - exact) < 0.05

    def test_noise_length_checked(self):
        with pytest.raises(ValueError):
            simulate_ar1(0.5, 5, noise=np.ones(3))
        with pytest.raises(ValueError):
            simulate_ar1(0.5, -1)


class TestMACovariance:
    def test_white_noise_case(self):
        assert ma_covariance([1], 0) == 1.0
        assert ma_covariance([1], 1) == 0.0

    def test_frozen_examples(self):
        assert ma_covariance([1, 1], 1) == pytest.approx(1.0)
        assert ma_covariance([1, 2j, -1], 2) == pytest.approx(-1.0)

    def test_vanishes_past_q(self):
        beta = [0.5, -1.0, 2j]
        for h in range(3, 8):
            assert ma_covariance(beta, h) == 0.0

    def test_oracle_hermitian_and_lag_only(self, rng):
        beta = tuple(rng.normal(size=3) + 1j * rng.normal(size=3))
        oracle = ma_second_moment_oracle(beta)
        for n1 in range(8):
            for n2 in range(8):
                assert oracle(n1, n2) == pytest.approx(np.conj(oracle(n2, n1)), abs=1e-14)
                if n1 >= n2:
                    assert oracle(n1, n2) == ma_covariance(beta, n1 - n2)
        # n-independence of the lag covariance: the classical sense in
        # which a moving average is stationary along the ordered labels.
        for h in range(4):
            values = {oracle(n + h, n) for n in range(5)}
            assert len(values) == 1


class TestMASimulation:
    def test_single_coefficient_is_noise(self):
        noise = white_noise_sequence(8, seed=3)
        assert np.array_equal(simulate_ma([1], 7, noise=noise), noise)

    def test_shift_boundary_convention(self):
        noise = white_noise_sequence(8, seed=3)
        path = simulate_ma([0, 1], 7, noise=noise)
        assert path[0] == 0
        assert np.array_equal(path[1:], noise[:-1])

    def test_noise_is_cut_to_the_path_and_read_along_its_last_axis(self):
        beta = (1.0, 0.5j, -2.0)
        noise = white_noise_sequence((3, 2, 9), seed=4)
        kept = noise.copy()
        paths = simulate_ma(beta, 6, noise=noise)
        assert paths.shape == (3, 2, 7)
        assert np.array_equal(noise, kept)
        for index in np.ndindex(3, 2):
            want = np.zeros(7, dtype=complex)
            for k, coeff in enumerate(beta):
                want[k:] += coeff * noise[index][: 7 - k]
            assert paths[index].tobytes() == want.tobytes()
            assert simulate_ma(beta, 6, noise=noise[index]).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="need 7 noise draws"):
            simulate_ma(beta, 6, noise=noise[..., :6])

    def test_monte_carlo_matches_covariance_in_steady_regime(self):
        beta = (1.0, 1.0)
        paths = simulate_ma_batch(beta, 6, 100000, seed=7)
        n, h = 5, 1
        products = paths[:, n + h] * np.conj(paths[:, n])
        mean = products.mean()
        stderr = products.std(ddof=1) / math.sqrt(products.shape[0])
        assert abs(mean - ma_covariance(beta, h)) <= 4 * stderr

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            simulate_ma([], 4)

    @pytest.mark.parametrize("beta", [[1], [1, 0.5], [0.3 + 1j, -0.2, 0.7j, 1.5]])
    def test_single_path_is_a_batch_of_one(self, beta):
        for n in (0, 1, 2, 40):
            path = simulate_ma(beta, n, seed=n + 5)
            assert path.tobytes() == simulate_ma_batch(beta, n, 1, n + 5)[0].tobytes()


class TestSeriesStationarityVerdicts:
    """Decomposable-stationarity verdicts, corroborated by brute force.

    On the su2 labels the right side of the check accumulates the whole
    Clebsch-Gordan tail, so a real-coefficient AR(1) satisfies the
    condition exactly, while any non-real coefficient breaks it; a moving
    average with memory q >= 2 (or a non-real lag-one covariance) breaks
    it too.  The classical lag-based verdicts are covered separately
    below.
    """

    def test_real_ar1_passes_with_zero_violation(self, su2):
        for lam in (0.9, 0.5, -0.5, 2.0):
            oracle = ar1_second_moment_oracle(lam)
            report = check_stationarity(su2, oracle, range(6))
            assert report.passed, f"lambda={lam}"
            assert report.max_violation < 1e-12
            for a in range(6):
                for b in range(6):
                    assert brute_force_statdef_violation(su2, oracle, a, b) < 1e-12

    def test_nonreal_ar1_fails_with_witnesses(self, su2):
        for lam in (1j, np.exp(1j * math.pi / 4), 0.3 + 0.4j):
            oracle = ar1_second_moment_oracle(lam)
            report = check_stationarity(su2, oracle, range(6))
            assert not report.passed, f"lambda={lam}"
            worst = report.witnesses[0]
            brute = brute_force_statdef_violation(
                su2, oracle, worst.pi1, worst.pi2
            )
            assert worst.violation == pytest.approx(brute, abs=1e-12)

    def test_nonreal_ar1_witness_value(self, su2):
        # (0, 1) compares conj(lambda) with lambda.
        oracle = ar1_second_moment_oracle(1j)
        report = check_stationarity(su2, oracle, range(2))
        witness = {(w.pi1, w.pi2): w for w in report.witnesses}[(0, 1)]
        assert witness.lhs == pytest.approx(-1j)
        assert witness.rhs == pytest.approx(1j)

    def test_ma_memory_splits_the_verdict(self, su2, rng):
        assert check_stationarity(
            su2, ma_second_moment_oracle((0.7 + 0.1j,)), range(6)
        ).passed
        real_beta = tuple(rng.normal(size=2))
        assert check_stationarity(
            su2, ma_second_moment_oracle(real_beta), range(6)
        ).passed
        # Non-real lag-one covariance fails at the conjugate pair.
        beta_q1 = (1.0, 1j)
        report = check_stationarity(su2, ma_second_moment_oracle(beta_q1), range(6))
        assert not report.passed
        # Memory two fails on the diagonal with violation |beta_2 conj(beta_0)|.
        beta_q2 = (1.0, 0.5, -0.75)
        oracle = ma_second_moment_oracle(beta_q2)
        report = check_stationarity(su2, oracle, range(6))
        witness = {(w.pi1, w.pi2): w for w in report.witnesses}[(1, 1)]
        assert witness.violation == pytest.approx(abs(beta_q2[2] * np.conj(beta_q2[0])))
        assert brute_force_statdef_violation(su2, oracle, 1, 1) == pytest.approx(
            witness.violation
        )

    def test_ar1_identity_corroborated_by_monte_carlo(self, su2):
        # Both sides of the (1, 1) comparison for lambda = 0.9 equal
        # 1 + lambda^2; simulation confirms the zero violation is real.
        lam = 0.9
        paths = simulate_ar1_batch(lam, 2, 400000, seed=31)
        lhs = (paths[:, 1] * np.conj(paths[:, 1])).mean()
        rhs = ((paths[:, 0] + paths[:, 2]) * np.conj(paths[:, 0])).mean()
        for estimate in (lhs, rhs):
            assert abs(estimate - 1.81) < 0.02
        assert abs(lhs - rhs) < 0.02


class TestClassicalLagStationarity:
    """The lag-form statements: AR(1) drifts with n, a moving average does not."""

    def test_ar1_lag_covariance_depends_on_start(self):
        for lam in (0.9, 0.5, 1j):
            oracle = ar1_second_moment_oracle(lam)
            assert abs(oracle(1, 1) - oracle(0, 0)) > 0.2
        oracle = ar1_second_moment_oracle(0.9)
        assert oracle(1, 1) == pytest.approx(1.81)
        assert oracle(0, 0) == pytest.approx(1.0)

    def test_ma_lag_covariance_does_not(self, rng):
        beta = tuple(rng.normal(size=4) + 1j * rng.normal(size=4))
        oracle = ma_second_moment_oracle(beta)
        for h in range(5):
            reference = oracle(h, 0)
            for n in range(1, 6):
                assert oracle(n + h, n) == reference


class TestSeriesFields:
    def test_field_oracle_delegates(self, su2):
        field = ar1_field(0.9, seed=1)
        oracle = ar1_second_moment_oracle(0.9)
        assert field.second_moment(4, 2) == oracle(4, 2)
        assert field.dual.name == "su2"

    def test_field_sampling_deterministic(self):
        a = ar1_field(0.5, seed=8).sample_batch([0, 1, 2, 3], 4)
        b = ar1_field(0.5, seed=8).sample_batch([0, 1, 2, 3], 4)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_field_monte_carlo_against_oracle(self):
        field = ma_field((1.0, 1.0), seed=2)
        est = estimate_covariance(field, 6, 5, 100000, seed=3)
        assert abs(est.mean - field.second_moment(6, 5)) <= 4 * est.stderr

    @pytest.mark.parametrize(
        "beta, a, b",
        [
            ((1.0, 1.0), 0, 0),
            ((1.0, 1.0), 1, 0),
            ((1.0, 0.5j, 0.3), 1, 0),
            ((1.0, 0.5j, 0.3), 0, 0),
        ],
    )
    def test_ma_monte_carlo_below_q_matches_the_steady_oracle(self, beta, a, b):
        # The q noises before index 0 are drawn, so labels below q are steady too.
        field = ma_field(beta, seed=2)
        est = estimate_covariance(field, a, b, 200000, seed=3)
        assert abs(est.mean - field.second_moment(a, b)) <= 4 * est.stderr

    @pytest.mark.parametrize(
        "beta, labels",
        [
            ((1.0, 1.0), [0, 150]),
            ((1.0, 0.5j, -0.2 + 0.1j), [150, 0, 1]),
            ((1.0, 0.5j, -0.2 + 0.1j), [1, 0]),
            ((0.3 - 0.4j,), [7, 2, 40]),
            ((1.0, 0.0, 0.0, 0.5), [3, 5, 9, 100]),
        ],
    )
    def test_ma_draws_only_the_noises_its_labels_read(self, beta, labels):
        field = ma_field(beta, seed=6)
        got = field.sample_batch(labels, 11)
        q = len(beta) - 1
        drawn = sorted({n - k for n in labels for k in range(q + 1)})
        rng = np.random.default_rng(6)
        noise = white_noise_sequence((11, len(drawn)), rng=rng)
        # Nothing else was drawn: the generators stand at the same state.
        assert field._rng.bit_generator.state == rng.bit_generator.state
        assert sorted(got) == sorted(labels)
        for n in labels:
            expected = np.zeros(11, dtype=complex)
            for k, coeff in enumerate(np.asarray(beta, dtype=complex)):
                expected += coeff * noise[:, drawn.index(n - k)]
            assert got[n].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_max", [0, 1, 4, 60])
    @pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.5j, -0.2 + 0.1j), (2.0 - 1j,)])
    def test_ma_window_keeps_the_extended_path_bits(self, beta, n_max):
        q = len(beta) - 1
        got = ma_field(beta, seed=9).sample_batch(range(n_max + 1), 13)
        paths = simulate_ma_batch(beta, n_max + q, 13, np.random.default_rng(9))[:, q:]
        for n in range(n_max + 1):
            assert got[n].tobytes() == paths[:, n].tobytes()

    def test_spec_parsing(self):
        spec = parse_series_spec("ar1:0.9,0")
        assert spec.kind == "ar1" and spec.coefficients == (0.9 + 0j,)
        spec = parse_series_spec("ma:1,0;0,1;2,-1")
        assert spec.coefficients == (1.0, 1j, 2.0 - 1j)
        with pytest.raises(ValueError):
            parse_series_spec("arma:1,0")


class TestSeriesSpecOracle:
    """The frozen spec is the exact oracle: one ``__call__`` and one ``matrix``."""

    def test_factories_return_the_spec(self):
        assert ar1_second_moment_oracle(0.5) == parse_series_spec("ar1:0.5,0")
        assert ma_second_moment_oracle([1, 0.5j]) == parse_series_spec("ma:1,0;0,0.5")
        assert isinstance(ar1_second_moment_oracle(0.5j), SeriesSpec)

    def test_empty_ma_refused(self):
        with pytest.raises(ValueError, match="k = 0 coefficient"):
            ma_second_moment_oracle([])

    @pytest.mark.parametrize(
        "oracle",
        [ar1_second_moment_oracle(0.5), ma_second_moment_oracle([1, 0.5])],
        ids=["ar1", "ma"],
    )
    def test_non_integer_labels_refused(self, oracle):
        with pytest.raises(TypeError):
            oracle(2.5, 1.0)
        with pytest.raises(TypeError):
            oracle(2, 1.0)
        with pytest.raises(TypeError):
            oracle.matrix([2.5, 1.0])
        with pytest.raises(TypeError):
            oracle.matrix([2], [1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.1, math.inf)])
    def test_non_finite_coefficients_refused_when_built(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ar1_second_moment_oracle(bad)
        with pytest.raises(ValueError, match="finite"):
            ma_second_moment_oracle([1.0, bad])

    def test_ma_at_negative_labels(self):
        oracle = ma_second_moment_oracle((1.0, 0.4 - 0.2j, 0.3j))
        labels = [-7, -2, 0, -3, 4, -1, -1]
        got = oracle.matrix(labels)
        assert got.tobytes() == pairwise_matrix(oracle, labels).tobytes()
        assert oracle(-3, -1) == np.conj(ma_covariance(oracle.coefficients, 2))
        columns = [0, -5]
        got = oracle.matrix(labels, columns)
        assert got.tobytes() == pairwise_matrix(oracle, labels, columns).tobytes()

    def test_ar1_below_zero_refused(self):
        oracle = ar1_second_moment_oracle(0.5 + 0.2j)
        for n1, n2 in [(-1, 0), (0, -1), (-2, -2), (3, -1)]:
            with pytest.raises(ValueError, match="nonnegative"):
                oracle(n1, n2)
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.matrix([0, 2, -1])
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.matrix([0, 2], [-1])


def ar1_path_reference(lam, noise):
    """The recursion Y_n = lam Y_{n-1} + Z_n over every noise column, from Y_{-1} = 0."""
    out = np.empty_like(noise)
    previous = np.zeros(noise.shape[0], dtype=complex)
    for n in range(noise.shape[1]):
        previous = lam * previous + noise[:, n]
        out[:, n] = previous
    return out


def ar1_bridge_reference(lam, labels, noise):
    """Y at ascending labels from one noise column each: a step of 1, or a gap in one draw."""
    out = np.empty_like(noise)
    y, previous = np.zeros(noise.shape[0], dtype=complex), -1
    for i, n in enumerate(labels):
        gap = n - previous
        if gap == 1:
            y = lam * y + noise[:, i]
        else:
            y = lam**gap * y + noise[:, i] * math.sqrt(ar1_covariance(lam, gap - 1, 0).real)
        out[:, i] = y
        previous = n
    return out


class TestAR1Bridge:
    """AR(1) fields draw one unit-noise column per label and bridge the gaps exactly."""

    LAMBDAS = [0.9 + 0j, 0.5 + 0.3j, -0.7 + 0.2j, 1j, 1 + 0j, 2 + 0j]

    @pytest.mark.parametrize("n_max", [0, 1, 5, 40])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_windows_keep_the_path_bits_and_the_generator_state(self, lam, n_max):
        rng = np.random.default_rng(11)
        expected = ar1_path_reference(lam, white_noise_sequence((7, n_max + 1), rng=rng))
        drawn = np.random.default_rng(11)
        assert simulate_ar1_batch(lam, n_max, 7, drawn).tobytes() == expected.tobytes()
        assert drawn.bit_generator.state == rng.bit_generator.state
        field = ar1_field(lam, seed=11)
        got = field.sample_batch(range(n_max, -1, -1), 7)
        assert field._rng.bit_generator.state == rng.bit_generator.state
        for n in range(n_max + 1):
            assert got[n].tobytes() == expected[:, n].tobytes()

    @pytest.mark.parametrize(
        "labels", [[2, 7, 8, 30], [30, 8, 2, 7, 2], [0, 3, 4, 5, 12], [57, 59], [9]]
    )
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_gapped_labels_rebuild_from_one_column_each(self, lam, labels):
        field = ar1_field(lam, seed=4)
        got = field.sample_batch(labels, 9)
        ordered = sorted(set(labels))
        rng = np.random.default_rng(4)
        noise = white_noise_sequence((9, len(ordered)), rng=rng)
        expected = ar1_bridge_reference(field.spec.coefficients[0], ordered, noise)
        # Nothing else was drawn: the generators stand at the same state.
        assert field._rng.bit_generator.state == rng.bit_generator.state
        assert sorted(got) == ordered
        for i, n in enumerate(ordered):
            assert got[n].tobytes() == expected[:, i].tobytes()

    @pytest.mark.parametrize("lam", [0.0, 0.6 + 0.5j, 1.0, -0.9 + 0.1j])
    def test_gapped_covariance_meets_the_oracle(self, lam):
        labels = [2, 7, 8, 30]
        field = ar1_field(lam, seed=13)
        est = estimate_covariance_matrix(field, labels, 40000, seed=21)
        exact = field.second_moment_matrix(labels)
        assert np.all(np.abs(est.mean - exact) <= 5 * est.stderr)

    def test_an_estimate_draws_one_column_per_label(self, monkeypatch):
        shapes = []
        original = time_series._white_noise_rows

        def spy(rows, count, rng):
            shapes.append((rows, count))
            return original(rows, count, rng)

        monkeypatch.setattr(time_series, "_white_noise_rows", spy)
        field = ar1_field(0.5 + 0.3j, seed=1)
        assert estimate_covariance(field, 57, 59, 3133, seed=5).n_samples == 3133
        assert shapes == [(2, 3133)]
        shapes.clear()
        estimate_covariance(field, 7, 2, 3133, seed=5, n_streams=4)
        assert shapes == [(2, 784), (2, 783), (2, 783), (2, 783)]


def ar1_sample_major(lam, labels, noise):
    """Y at ascending labels over one noise column each, in place: the sample-major walk AR(1) ran before."""
    term = np.empty(noise.shape[0], dtype=noise.dtype)
    y = np.zeros_like(term)
    previous = -1
    for i, n in enumerate(labels):
        z = noise[:, i]
        gap = n - previous
        if gap == 1:
            np.multiply(lam, y, out=term)
        else:
            np.multiply(lam**gap, y, out=term)
            z *= math.sqrt(ar1_covariance(lam, gap - 1, 0).real)
        np.add(term, z, out=z)
        previous, y = n, z
    return noise


class TestAR1LabelMajor:
    """AR(1) draws label-major and keeps the bits of the sample-major walk."""

    LAMBDAS = [0j, 0.5 + 0j, -0.9 + 0j, 0.5 + 0.6j, 1 + 0j, 1j]

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_paths_and_batches(self, lam):
        for n_max in (0, 1, 7, 60):
            noise = white_noise_sequence(n_max + 1, seed=n_max)
            want = ar1_sample_major(lam, range(n_max + 1), noise.copy()[None, :])[0]
            assert simulate_ar1(lam, n_max, seed=n_max).tobytes() == want.tobytes()
            assert simulate_ar1(lam, n_max, noise=noise).tobytes() == want.tobytes()
            for n_paths in (1, 5, 1000):
                want = ar1_sample_major(
                    lam, range(n_max + 1), white_noise_sequence((n_paths, n_max + 1), seed=3)
                )
                got = simulate_ar1_batch(lam, n_max, n_paths, 3)
                assert got.shape == (n_paths, n_max + 1)
                assert got.flags.f_contiguous  # the label-major rows, transposed
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize(
        "labels", [range(31), [57, 2, 7, 8, 30, 7], [0, 3, 4, 5, 12], [9], []]
    )
    def test_field_values(self, lam, labels):
        ordered = sorted(set(labels))
        noise = white_noise_sequence((40, len(ordered)), rng=np.random.default_rng(8))
        want = ar1_sample_major(lam, ordered, noise)
        got = ar1_field(lam, seed=8).sample_batch(labels, 40)
        assert sorted(got) == ordered
        for i, n in enumerate(ordered):
            assert got[n].flags.c_contiguous
            assert got[n].tobytes() == want[:, i].tobytes()


def ma_reference(beta, noise, at):
    """:func:`time_series._ma` as it was before wide rows were split: whole rows a block."""
    step = max(1, stationary_fields._DRAW_CHUNK // max(1, noise.shape[1]))
    buffers = np.empty((2, min(step, len(at)), noise.shape[1]), dtype=complex)
    for stop in range(len(at), 0, -step):
        rows = at[max(0, stop - step) : stop]
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        consecutive = hi - lo == len(rows)
        acc, term = buffers[:, : len(rows)]
        acc.fill(0)
        for k, coeff in enumerate(beta):
            first = int(np.searchsorted(rows, k))
            if first == len(rows):
                break
            t = term[first:]
            if consecutive:
                np.multiply(coeff, noise[lo + first - k : hi - k], out=t)
            else:
                noise.take(rows[first:] - k, axis=0, out=t, mode="clip")
                np.multiply(coeff, t, out=t)
            acc[first:] += t
        if consecutive:
            noise[lo:hi] = acc
        else:
            noise[rows] = acc
    return noise


@pytest.mark.parametrize("width", [1, 5000, 16384, 16385, 40000])
@pytest.mark.parametrize("at", [[0, 1, 2, 3, 4, 5], [1, 3, 4], [0, 5]])
@pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.5j, -0.2 + 0.1j)])
def test_ma_rows_wider_than_a_chunk_keep_their_bits(beta, at, width):
    noise = white_noise_sequence((6, width), seed=width)
    beta, at = np.asarray(beta, dtype=complex), np.array(at)
    got = time_series._ma(beta, noise.copy(), at)
    assert got.tobytes() == ma_reference(beta, noise, at).tobytes()


@pytest.mark.parametrize(
    "labels", [[0, 150], [3, 4, 5, 6], [9, 2, 3, 40, 41], [1], list(range(20)), []]
)
@pytest.mark.parametrize("beta", [(1.0, 1.0), (1.0, 0.5j, -0.2 + 0.1j), (2.0 - 1j,)])
def test_ma_values_keep_their_bytes(beta, labels):
    got = ma_field(beta, seed=6).sample_batch(labels, 11)
    # The sample-major sum over fancy-indexed noise columns, as it was built before.
    n = np.array(sorted(set(labels)), dtype=int)
    drawn = np.unique(n[:, None] - np.arange(len(beta)))
    noise = white_noise_sequence((11, drawn.size), rng=np.random.default_rng(6))
    at = np.searchsorted(drawn, n)
    values = np.zeros((11, n.size), dtype=complex)
    for k, coeff in enumerate(np.asarray(beta, dtype=complex)):
        values += coeff * noise[:, at - k]
    assert sorted(got) == n.tolist()
    for i, label in enumerate(n.tolist()):
        assert got[label].flags.c_contiguous
        assert got[label].tobytes() == values[:, i].tobytes()


def two_call_noise(shape, seed):
    """Real parts from one normal() call, imaginary parts from a second."""
    rng = np.random.default_rng(seed)
    re = rng.normal(size=shape, scale=np.sqrt(0.5))
    return re + 1j * rng.normal(size=shape, scale=np.sqrt(0.5))


NOISE_SHAPES = [6, 1, (1, 1), (1, 7), (5, 1), (3, 4), (10, 9), (0, 3), (2, 0), (17,)]


class TestWhiteNoiseSequence:
    @pytest.mark.parametrize("seed", range(12))
    def test_one_block_draws_as_two_calls(self, seed):
        for shape in NOISE_SHAPES:
            got = white_noise_sequence(shape, seed=seed)
            assert got.tobytes() == two_call_noise(shape, seed).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 49])
    def test_batches_and_white_noise_draw_the_same_noise(self, su2, seed):
        lam, beta, n_max, n_paths = 0.3 - 0.7j, (1.0, 0.5j, -0.2 + 0.1j), 7, 4
        noise = two_call_noise((n_paths, n_max + 1), seed)
        ar1 = np.empty_like(noise)
        previous = np.zeros(n_paths, dtype=complex)
        for n in range(n_max + 1):
            previous = lam * previous + noise[:, n]
            ar1[:, n] = previous
        ma = np.zeros_like(noise)
        for k, coeff in enumerate(beta):
            ma[:, k:] += coeff * noise[:, : n_max + 1 - k]
        assert simulate_ar1_batch(lam, n_max, n_paths, seed).tobytes() == ar1.tobytes()
        assert simulate_ma_batch(beta, n_max, n_paths, seed).tobytes() == ma.tobytes()
        labels = [5, 0, 2]
        batch = white_noise(su2, seed).sample_batch(labels, 9)
        expected = two_call_noise((9, len(labels)), seed)
        for i, label in enumerate(sorted(labels)):
            assert batch[label].tobytes() == expected[:, i].tobytes()

    @pytest.mark.parametrize(
        "count, rows",
        [(0, 3), (3, 0), (0, 0), (1, 1), (7, 5), (16383, 1), (16384, 1), (16385, 1),
         (8191, 2), (8192, 2), (8193, 2), (1, 16385), (5461, 3), (5462, 3), (40000, 2)],
    )
    def test_label_major_draw_is_the_transposed_sequence(self, count, rows):
        # Chunks of _DRAW_CHUNK = 2**14 normals: shapes just below, at and above a chunk.
        expected_rng, rng = np.random.default_rng(23), np.random.default_rng(23)
        expected = white_noise_sequence((count, rows), rng=expected_rng).T
        got = _white_noise_rows(rows, count, rng)
        assert got.shape == (rows, count) and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        # The chunked sequence itself is the unchunked two-call stream.
        assert white_noise_sequence((count, rows), seed=23).tobytes() == (
            two_call_noise((count, rows), 23).tobytes()
        )

    def test_one_function_everywhere(self):
        assert time_series.white_noise_sequence is white_noise_sequence
        assert stationary_fields.white_noise_sequence is white_noise_sequence
