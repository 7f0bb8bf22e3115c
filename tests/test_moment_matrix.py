"""Matrix second-moment sources against the per-pair path they stand in for.

A stationarity check takes its left side E(Y_a conj(Y_b)) over the whole
window from a field's ``second_moment_matrix`` or an oracle's ``matrix``
when one exists, and asks any other callable once per pair.  Wrapping an
oracle in a plain lambda forces the per-pair path.  Both paths must give
the same matrix and the same report bit for bit: signed zeros, witness
order and ``max_violation`` included.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfield import (
    FiniteClassMeasure,
    SU2AngleMeasure,
    WhiteNoiseField,
    ar1_field,
    ar1_second_moment_oracle,
    check_hypergroup_stationarity,
    check_stationarity,
    heat_kernel_measure,
    kolmogorov_field,
    ma_field,
    ma_second_moment_oracle,
    su2_dual,
    translate,
    white_noise,
)
from dualfield.cli import main
from dualfield.stationary_fields import (
    KolmogorovField,
    TranslatedField,
    moment_matrix,
    pairwise_matrix,
)
from dualfield.time_series import UNIT_CIRCLE_TOL, SeriesField

KINDS = ("statdef", "representation_ring", "normalized")
SU2 = su2_dual()
WINDOWS = (list(range(7)), [5, 0, 3, 3, 1, 0])

# Near the unit circle and on it, the oracle switches to its (n + 1) lam^h branch.
LAMBDAS = (
    0.0,
    0.9,
    -0.6,
    0.5 + 0.6j,
    complex(-0.0, 0.7),
    1.0,
    -1.0,
    1.0 + UNIT_CIRCLE_TOL / 2,
    cmath.rect(1.0 - UNIT_CIRCLE_TOL / 2, 0.7),
    cmath.rect(1.0 + 3 * UNIT_CIRCLE_TOL, 2.0),
)
BETAS = ((1.0,), (1.0, 0.4 - 0.2j), (0.5, -0.3, 0.2), (1.0, 0.4 - 0.2j, 0.3j, -0.1))


def run_check(check, dual, oracle, labels, tol):
    if check == "statdef":
        return check_stationarity(dual, oracle, labels, tol=tol)
    return check_hypergroup_stationarity(dual, oracle, labels, kind=check, tol=tol)


def bits(z):
    z = complex(z)
    return (z.real.hex(), z.imag.hex())


def report_bits(report):
    return (
        report.condition,
        report.passed,
        report.max_violation.hex(),
        report.tol,
        [(w.pi1, w.pi2, bits(w.lhs), bits(w.rhs)) for w in report.witnesses],
    )


def assert_same_as_per_pair(dual, oracle, labels):
    per_pair = lambda a, b: oracle(a, b)  # noqa: E731  hides any matrix source
    assert moment_matrix(oracle, labels).tobytes() == pairwise_matrix(per_pair, labels).tobytes()
    for check in KINDS:
        for tol in (1e-12, 0.0):
            got = run_check(check, dual, oracle, labels, tol)
            want = run_check(check, dual, per_pair, labels, tol)
            assert report_bits(got) == report_bits(want), (check, tol)


def field_oracles(su2, s3, q8):
    atoms = SU2AngleMeasure(atoms=[(0.4, 0.3), (2.1, 0.7)], dual=su2)
    out = [
        ("su2 whitenoise", su2, white_noise(su2, 1).second_moment),
        ("su2 translated 1", su2, translate(white_noise(su2, 1), 1).second_moment),
        ("su2 translated 2", su2, translate(white_noise(su2, 1), 2).second_moment),
        ("su2 heat 0.1", su2, kolmogorov_field(heat_kernel_measure(0.1)).second_moment),
        ("su2 heat 0.02", su2, kolmogorov_field(heat_kernel_measure(0.02)).second_moment),
        ("su2 atoms", su2, kolmogorov_field(atoms).second_moment),
        ("su2 translated heat", su2, translate(kolmogorov_field(atoms), 1).second_moment),
    ]
    out += [(f"ar1 {lam}", su2, ar1_second_moment_oracle(lam)) for lam in LAMBDAS]
    out += [(f"ar1 field {lam}", su2, ar1_field(lam).second_moment) for lam in LAMBDAS[:4]]
    out += [(f"ma {beta}", su2, ma_second_moment_oracle(beta)) for beta in BETAS]
    out += [(f"ma field {beta}", su2, ma_field(beta).second_moment) for beta in BETAS]
    for dual in (s3, q8):
        r = len(dual.labels())
        weights = np.linspace(1.0, 2.0, r)
        out += [
            (f"{dual.name} whitenoise", dual, white_noise(dual, 2).second_moment),
            (f"{dual.name} translated", dual, translate(white_noise(dual), r - 1).second_moment),
            (
                f"{dual.name} classes",
                dual,
                kolmogorov_field(FiniteClassMeasure(dual, weights / weights.sum())).second_moment,
            ),
        ]
    return out


class TestMatrixSourcesBitIdentical:
    def test_every_source_matches_the_per_pair_path(self, su2, s3, q8):
        for name, dual, oracle in field_oracles(su2, s3, q8):
            windows = WINDOWS if not dual.is_finite else (dual.labels(), dual.labels()[::-1] * 2)
            for labels in windows:
                try:
                    assert_same_as_per_pair(dual, oracle, labels)
                except AssertionError as exc:
                    raise AssertionError(f"{name} on {labels}") from exc

    @settings(max_examples=80, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 30), min_size=1, max_size=10),
        lam=st.one_of(
            st.sampled_from(LAMBDAS),
            st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
            st.floats(-1.0, 1.0).map(lambda t: cmath.rect(1.0 + t * UNIT_CIRCLE_TOL, 2.0 + t)),
        ),
    )
    def test_ar1_random_windows(self, labels, lam):
        oracle = ar1_second_moment_oracle(lam)
        assert oracle.matrix(labels).tobytes() == pairwise_matrix(oracle, labels).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        labels=st.lists(st.integers(-10, 30), min_size=1, max_size=10),
        beta=st.lists(
            st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
    )
    def test_ma_random_windows(self, labels, beta):
        oracle = ma_second_moment_oracle(beta)
        assert oracle.matrix(labels).tobytes() == pairwise_matrix(oracle, labels).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(labels=st.lists(st.integers(0, 20), min_size=1, max_size=8), shift=st.integers(0, 3))
    def test_translated_white_noise_random_windows(self, labels, shift):
        field = translate(white_noise(SU2), shift)
        got = field.second_moment_matrix(labels)
        assert got.tobytes() == pairwise_matrix(field.second_moment, labels).tobytes()

    def test_ar1_on_the_unit_circle_past_the_small_power_range(self):
        # Python computes lam**h for h > 100 by exp/log, which leaves lam^h = 1 - 0j
        # for lam = 1 - 0j; (n + 1) * lam^h then has imaginary part +0.0.
        oracle = ar1_second_moment_oracle(complex(1.0, -0.0))
        labels = [0, 3, 101, 130]
        assert oracle.matrix(labels).tobytes() == pairwise_matrix(oracle, labels).tobytes()

    def test_negative_ar1_index_raises_as_the_oracle_does(self):
        oracle = ar1_second_moment_oracle(0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            oracle(-1, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.matrix([0, -1])


class TestViolationBits:
    def test_violation_has_the_bits_of_abs(self, torus):
        # np.abs rounds this difference one bit away from abs(complex).
        z = complex(-0.5442589828573099, -0.31630015636915454)
        assert float(np.abs(np.complex128(z))) != abs(z)
        report = check_stationarity(torus, lambda a, b: z if a == 1 else 0j, [1], tol=0.0)
        assert report.max_violation == abs(z)
        assert report.witnesses[0].violation == abs(z)


class TestWitnessOrder:
    def test_ties_keep_window_order(self, su2):
        # Python's stable sort by descending violation, as the per-pair report sorted.
        # A constant moment misses the Clebsch-Gordan count min(a, b) + 1 by min(a, b).
        n = 13
        report = check_stationarity(su2, lambda a, b: 1.0, range(n))
        witnesses = list(report.witnesses)
        assert len({w.violation for w in witnesses}) < len(witnesses) - 16
        want = sorted(witnesses, key=lambda w: (-w.violation, w.pi1 * n + w.pi2))
        assert witnesses == want


class TestNonFiniteMoments:
    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(1.0, float("nan"))])
    def test_constant_non_finite_oracle_refused(self, su2, check, value):
        with pytest.raises(ValueError, match=r"non-finite second moment at pair \(0, 0\)"):
            run_check(check, su2, lambda a, b: value, range(3), 1e-12)

    def test_first_non_finite_left_side_pair_is_named(self, su2):
        oracle = lambda a, b: float("nan") if (a, b) == (2, 1) else 0j  # noqa: E731
        with pytest.raises(ValueError, match=r"at pair \(2, 1\): lhs \(nan"):
            check_stationarity(su2, oracle, range(3))

    def test_first_non_finite_right_side_pair_is_named(self, su2):
        # Only C(4) is infinite; 4 first occurs in 2 (x) 2.
        oracle = lambda a, b: float("inf") if (a, b) == (4, 0) else 0j  # noqa: E731
        with pytest.raises(ValueError, match=r"at pair \(2, 2\): lhs 0j, rhs \(inf"):
            check_stationarity(su2, oracle, range(3))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_cli_check_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setattr(WhiteNoiseField, "second_moment", lambda self, a, b: value)
        code = main(["check", "--dual", "su2", "--labels", "0..2", "whitenoise"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite second moment at pair (0, 0)" in captured.err


class TestScalarCallsPerCheck:
    """At N = 20 a matrix source leaves only the right side's scalar calls."""

    N = 20

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "cls, make",
        [
            (WhiteNoiseField, lambda: white_noise(SU2, 3)),
            (KolmogorovField, lambda: kolmogorov_field(heat_kernel_measure(0.1))),
            (TranslatedField, lambda: translate(white_noise(SU2), 2)),
            (SeriesField, lambda: ar1_field(0.5 + 0.6j)),
            (SeriesField, lambda: ma_field((1.0, 0.4, 0.3j))),
        ],
    )
    def test_field_second_moment(self, monkeypatch, check, cls, make):
        calls = []
        original = cls.__dict__["second_moment"]

        def counted(self, a, b):
            calls.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(cls, "second_moment", counted)
        run_check(check, SU2, make().second_moment, range(self.N + 1), 1e-12)
        assert 0 < len(calls) <= 2 * self.N + 1

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "oracle", [ar1_second_moment_oracle(0.5 + 0.6j), ma_second_moment_oracle((1.0, 0.4))]
    )
    def test_series_oracle(self, check, oracle):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return oracle(a, b)

        counted.matrix = oracle.matrix
        run_check(check, SU2, counted, range(self.N + 1), 1e-12)
        assert 0 < len(calls) <= 2 * self.N + 1

    @pytest.mark.parametrize("check", KINDS)
    def test_plain_lambda_is_asked_every_pair(self, check):
        calls = []
        oracle = ar1_second_moment_oracle(0.5)

        def counted(a, b):
            calls.append((a, b))
            return oracle(a, b)

        run_check(check, SU2, counted, range(self.N + 1), 1e-12)
        assert len(calls) == (self.N + 1) ** 2 + 2 * self.N + 1
