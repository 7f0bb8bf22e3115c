"""Matrix second-moment sources against the per-pair path they stand in for.

A stationarity check takes its left side E(Y_a conj(Y_b)) over the whole
window, and its right side's column C(k) = E(Y_k conj(Y_neutral)) over
every k that occurs, from a field's ``second_moment_matrix`` or an
oracle's ``matrix`` when one exists, and asks any other callable once per
pair.  Wrapping an oracle in a plain lambda forces the per-pair path.  Both paths must give
the same matrix and the same report bit for bit: signed zeros, witness
order and ``max_violation`` included.
"""

import cmath
import json
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfield import (
    FiniteClassMeasure,
    LabelDomainError,
    SeriesSpec,
    StationarityReport,
    SU2AngleMeasure,
    TorusAngleMeasure,
    WhiteNoiseField,
    Witness,
    ar1_field,
    ar1_second_moment_oracle,
    check_hypergroup_stationarity,
    check_stationarity,
    heat_kernel_measure,
    kolmogorov_field,
    load_character_table,
    ma_field,
    ma_second_moment_oracle,
    su2_dual,
    torus_dual,
    translate,
    white_noise,
)
from dualfield import dual_hypergroup, stationary_fields
from dualfield.central_measures import parse_measure_spec
from dualfield.cli import main
from dualfield.dual_hypergroup import FiniteGroupDual, SU2Dual, TorusDual, pair_matrix
from dualfield.stationary_fields import (
    KolmogorovField,
    TranslatedField,
    moment_matrix,
    pairwise_matrix,
)
from dualfield import time_series
from dualfield.time_series import UNIT_CIRCLE_TOL, SeriesField, _per_distinct, _per_lag

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

    def test_numpy_labels_named_as_ints(self, su2):
        oracle = lambda a, b: float("nan") if (a, b) == (2, 1) else 0j  # noqa: E731
        with pytest.raises(ValueError, match=r"at pair \(2, 1\): lhs \(nan"):
            check_stationarity(su2, oracle, np.arange(3))
        # Witnesses keep the labels as given.
        report = check_stationarity(su2, lambda a, b: 1.0, np.arange(3))
        assert not report.passed
        assert all(type(w.pi1) is type(w.pi2) is np.int64 for w in report.witnesses)

    @pytest.mark.parametrize("check", KINDS)
    def test_finite_moments_whose_difference_overflows_fail(self, torus, check):
        # Not a refusal: both moments are finite, only their difference is not.
        big, inf = 1.5e308, float("inf")
        moments = {(0, 0): -big, (1, 1): big}
        report = run_check(check, torus, lambda a, b: moments.get((a, b), 0j), [0, 1], 1e-12)
        assert not report.passed and report.max_violation == inf
        assert report.to_json_dict()["witnesses"][0]["violation"] == inf
        assert report.witnesses == (Witness(1, 1, complex(big), complex(-big)),)
        assert report.witnesses[0].violation == inf

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        check=st.sampled_from(KINDS),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        imaginary=st.booleans(),
        left=st.booleans(),
    )
    def test_refusal_of_a_scan_before_the_violation(self, data, check, bad, imaginary, left):
        # One left-side entry or one C(k) gets a non-finite part; the check
        # names the pair that a scan of both sides, run first, names.
        name = data.draw(st.sampled_from(["su2", "torus", "q8"]), label="dual")
        dual = {"su2": SU2, "torus": TORUS, "q8": Q8}[name]
        label = {"su2": st.integers(0, 6), "torus": st.integers(-4, 4), "q8": st.integers(0, 4)}
        labels = data.draw(st.lists(label[name], min_size=1, max_size=5), label="labels")
        if left:
            at = (data.draw(st.sampled_from(labels)), data.draw(st.sampled_from(labels)))
        else:
            ks = dual_hypergroup._pair_plan(dual, labels, None).ks.tolist()
            at = (data.draw(st.sampled_from(ks), label="k"), dual.neutral)

        def oracle(a, b):
            z = complex((3 * a - b) % 5 - 2, (a + 2 * b) % 3 - 1)
            if (a, b) != at:
                return z
            return complex(z.real, bad) if imaginary else complex(bad, z.imag)

        kind = "representation_ring" if check == "statdef" else check
        condition = "statdef" if check == "statdef" else f"stathyp:{kind}"
        n = len(labels)
        lhs = moment_matrix(oracle, labels).ravel()
        with np.errstate(invalid="ignore", over="ignore"):
            rhs = pair_matrix(dual, labels, lambda k: oracle(k, dual.neutral), kind).ravel()
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        assert not finite.all()
        p = int(np.argmin(finite))
        want = (
            f"{condition}: non-finite second moment at pair "
            f"({labels[p // n]!r}, {labels[p % n]!r}): "
            f"lhs {complex(lhs[p])}, rhs {complex(rhs[p])}"
        )
        with pytest.raises(ValueError) as caught:
            run_check(check, dual, oracle, labels, 1e-12)
        assert str(caught.value) == want

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_cli_check_exits_2(self, capsys, monkeypatch, value):
        # A check reads white noise's table for both sides, so both forms are patched.
        monkeypatch.setattr(WhiteNoiseField, "second_moment", lambda self, a, b: value)
        monkeypatch.setattr(
            WhiteNoiseField,
            "_table",
            lambda self: lambda ks: np.full(len(ks), value, dtype=complex),
        )
        code = main(["check", "--dual", "su2", "--labels", "0..2", "whitenoise"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "non-finite second moment at pair (0, 0)" in captured.err


class TestScalarCallsPerCheck:
    """At N = 20 an array source serves both sides: no scalar call is left."""

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
        assert calls == []

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
        assert calls == []

    @pytest.mark.parametrize("check", KINDS)
    def test_plain_lambda_is_asked_every_pair(self, check):
        calls = []
        oracle = ar1_second_moment_oracle(0.5)

        def counted(a, b):
            calls.append((a, b))
            return oracle(a, b)

        run_check(check, SU2, counted, range(self.N + 1), 1e-12)
        assert len(calls) == (self.N + 1) ** 2 + 2 * self.N + 1


def table_fields(dual):
    """The fields whose moment is the ring pair sum of a table, as the dual has them."""
    out = [("whitenoise", white_noise(dual)), ("translated 2", translate(white_noise(dual), 2))]
    if isinstance(dual, SU2Dual):
        out.append(("heat 0.1", kolmogorov_field(heat_kernel_measure(0.1))))
    if dual.is_finite:
        weights = np.linspace(1.0, 2.0, len(dual.labels()))
        measure = FiniteClassMeasure(dual, weights / weights.sum())
        out.append(("classes", kolmogorov_field(measure)))
    else:
        out.append(("atoms", kolmogorov_field(parse_measure_spec(dual, "atoms:0.5:0.5,2:0.5"))))
    return out


class TestTableFieldsPassExactly:
    """A ring check of a table field sums one table twice, so its two sides are equal."""

    @pytest.mark.parametrize(
        "dual, window",
        [
            (SU2, range(9)),
            (SU2, range(31)),
            (SU2, range(49)),
            (torus_dual(), range(-6, 7)),
            (load_character_table("s3"), None),
            (load_character_table("q8"), None),
        ],
        ids=["su2 0..8", "su2 0..30", "su2 0..48", "torus -6..6", "s3", "q8"],
    )
    def test_ring_checks_read_zero(self, dual, window):
        labels = dual.labels() if window is None else list(window)
        for name, field in table_fields(dual):
            for check in ("statdef", "representation_ring"):
                report = run_check(check, dual, field.second_moment, labels, 0.0)
                assert report.passed and report.max_violation == 0.0, (name, check)
            # The normalized kind is another condition: it holds on the torus only.
            report = run_check("normalized", dual, field.second_moment, labels, 1e-12)
            if isinstance(dual, TorusDual):
                assert report.max_violation == 0.0, name
            else:
                assert 0.5 < report.max_violation <= 3.0, name


class TestOneTablePerCheck:
    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize("n", [8, 30])
    def test_kolmogorov_check_transforms_each_irreducible_once(self, monkeypatch, check, n):
        measure = heat_kernel_measure(0.1)
        calls = []
        original = type(measure).fourier

        def counted(self, k):
            calls.append(k)
            return original(self, k)

        monkeypatch.setattr(type(measure), "fourier", counted)
        field = kolmogorov_field(measure)
        got = run_check(check, SU2, field.second_moment, range(n + 1), 1e-12)
        assert calls == list(range(2 * n + 1))
        # No cache outlives a check: the next one transforms again.
        calls.clear()
        run_check(check, SU2, field.second_moment, range(n + 1), 1e-12)
        assert calls == list(range(2 * n + 1))
        want = run_check(check, SU2, lambda a, b: field.second_moment(a, b), range(n + 1), 1e-12)
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("check", KINDS)
    def test_translated_kolmogorov_check_reads_the_base_once_per_side(self, monkeypatch, check):
        # No table, so each side is one base matrix over the shifted labels 0..31.
        n = 30
        measure = parse_measure_spec(SU2, "atoms:0.5:0.5,2:0.5")
        calls = []
        original = type(measure).fourier

        def counted(self, k):
            calls.append(k)
            return original(self, k)

        monkeypatch.setattr(type(measure), "fourier", counted)
        field = translate(kolmogorov_field(measure), 1)
        field.second_moment_matrix(range(n + 1))
        assert sorted(calls) == list(range(2 * n + 3))
        calls.clear()
        got = run_check(check, SU2, field.second_moment, range(n + 1), 1e-12)
        # The right side's column and the left side: one transform of 0..62 each.
        assert sorted(calls) == sorted(list(range(2 * n + 3)) * 2)
        want = run_check(check, SU2, lambda a, b: field.second_moment(a, b), range(n + 1), 1e-12)
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: white_noise(SU2),
            lambda: kolmogorov_field(heat_kernel_measure(0.1)),
            lambda: translate(white_noise(SU2), 2),
        ],
        ids=["whitenoise", "heat 0.1", "translated 2"],
    )
    def test_ring_check_makes_one_values_pass(self, monkeypatch, check, make):
        calls = []
        original = stationary_fields._pair_values

        def counted(*args):
            calls.append(args[2:])
            return original(*args)

        monkeypatch.setattr(stationary_fields, "_pair_values", counted)
        report = run_check(check, SU2, make().second_moment, range(13), 1e-12)
        assert len(calls) == (2 if check == "normalized" else 1)
        assert report.passed == (check != "normalized")


# ---------------------------------------------------------------------------
# Rows x columns: the right side's covariance column in one array call
# ---------------------------------------------------------------------------

S3 = load_character_table("s3")
Q8 = load_character_table("q8")
Q8_FILE = Path(dual_hypergroup.__file__).parent / "data" / "q8.json"
SOURCES = field_oracles(SU2, S3, Q8)


def occurring(dual, labels):
    """Every irreducible of a (x) conj(b) over the window, from the per-pair tensor."""
    return sorted(
        {k for a in labels for b in labels for k in dual.tensor(a, dual.conjugate(b)).support}
    )


class TestRowsByColumns:
    @pytest.mark.parametrize("name, dual, oracle", SOURCES, ids=[s[0] for s in SOURCES])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_every_source_matches_per_pair_calls(self, name, dual, oracle, data):
        # Unsorted and repeated labels; the column of the neutral label is the right side's.
        label = st.sampled_from(dual.labels()) if dual.is_finite else st.integers(0, 30)
        rows = data.draw(st.lists(label, min_size=1, max_size=8), label="rows")
        columns = data.draw(
            st.one_of(st.just([dual.neutral]), st.lists(label, min_size=1, max_size=8)),
            label="columns",
        )
        per_pair = lambda a, b: oracle(a, b)  # noqa: E731  hides any matrix source
        got = moment_matrix(oracle, rows, columns)
        assert got.tobytes() == pairwise_matrix(per_pair, rows, columns).tobytes()

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "dual, labels",
        [(SU2, [5, 0, 3, 3, 1]), (torus_dual(), [-2, 3, 0, 3]), (S3, [2, 0, 1])],
    )
    def test_right_side_is_one_array_call_on_the_occurring_column(self, check, dual, labels):
        oracle = ma_second_moment_oracle((1.0, 0.4, 0.3j))
        calls = []

        def scalar(a, b):
            raise AssertionError("scalar call on an array source")

        def matrix(rows, columns=None):
            calls.append((list(rows), columns))
            return oracle.matrix(rows, columns)

        scalar.matrix = matrix
        run_check(check, dual, scalar, labels, 1e-12)
        assert calls == [(occurring(dual, labels), [dual.neutral]), (labels, None)]


def doubled(parent):
    """A subclass of ``parent`` that overrides only ``second_moment``, keeping its calls."""

    class Doubled(parent):
        calls = []

        def second_moment(self, a, b):
            self.calls.append((a, b))
            return 2 * super().second_moment(a, b)

    return Doubled


class TestSubclassOverridingOnlyTheScalar:
    Doubled = doubled(WhiteNoiseField)
    # Each table field, and a series field, which has its own matrix but no table.
    FIELDS = [
        lambda: TestSubclassOverridingOnlyTheScalar.Doubled(SU2),
        lambda: doubled(KolmogorovField)(heat_kernel_measure(0.1)),
        lambda: doubled(TranslatedField)(white_noise(SU2), 2),
        lambda: doubled(SeriesField)(SeriesSpec("ar1", (0.5 + 0.6j,))),
    ]

    def test_does_not_inherit_the_array_form(self):
        assert self.Doubled._table is not WhiteNoiseField._table
        labels = [3, 0, 2, 2]
        for make in self.FIELDS:
            field = make()
            assert field._table() is None
            want = pairwise_matrix(lambda a, b: field.second_moment(a, b), labels)
            assert field.second_moment_matrix(labels).tobytes() == want.tobytes()
            shifted = translate(field, 1)
            want = pairwise_matrix(lambda a, b: shifted.second_moment(a, b), labels)
            assert shifted.second_moment_matrix(labels).tobytes() == want.tobytes()

    @pytest.mark.parametrize("check", KINDS)
    def test_check_asks_per_pair_and_per_k(self, check):
        n = 6
        for make in self.FIELDS:
            field = make()
            type(field).calls.clear()
            got = run_check(check, SU2, field.second_moment, range(n + 1), 1e-12)
            assert len(field.calls) == (n + 1) ** 2 + 2 * n + 1
            right = [k for k, b in field.calls[: 2 * n + 1]]
            assert right == list(range(2 * n + 1))
            want = run_check(
                check, SU2, lambda a, b: field.second_moment(a, b), range(n + 1), 1e-12
            )
            assert report_bits(got) == report_bits(want)


class TestLabelsValidatedOnce:
    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_pair_matrix_validates_the_window_once(self, monkeypatch, kind):
        # The plan validates the window; a values pass on the plan validates nothing.
        calls = []
        original = SU2Dual.validate_labels

        def counted(self, labels):
            calls.append(list(labels))
            return original(self, labels)

        monkeypatch.setattr(SU2Dual, "validate_labels", counted)
        got = pair_matrix(SU2, [3, 1, 2], lambda k: 1.0, kind)
        assert calls == [[3, 1, 2]]
        calls.clear()
        plan = dual_hypergroup._pair_plan(SU2, [3, 1, 2], None)
        assert calls == [[3, 1, 2]]
        ones = np.ones(len(plan.ks))
        again = [dual_hypergroup._pair_values(plan, ones, kind) for _ in "ab"]
        assert calls == [[3, 1, 2]]
        assert got.tobytes() == again[0].tobytes() == again[1].tobytes()

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "make",
        [
            # The heat measure brings its own SU(2) dual, not the check's.
            lambda: kolmogorov_field(heat_kernel_measure(0.3)),
            lambda: translate(white_noise(SU2), 2),
            lambda: white_noise(SU2),
        ],
        ids=["kolmogorov", "translated", "whitenoise"],
    )
    def test_check_plans_and_validates_the_window_once(self, monkeypatch, check, make):
        field = make()
        window = [4, 0, 6, 1, 3]
        want = run_check(check, SU2, lambda a, b: field.second_moment(a, b), window, 1e-12)
        plans, validated = [], []
        plan, validate = dual_hypergroup._pair_plan, SU2Dual.validate_labels

        def planning(*args):
            plans.append(args)
            return plan(*args)

        def counted(self, labels):
            validated.append(list(labels))
            return validate(self, labels)

        # The check's module imports the plan by name; pair_grid reads it here.
        monkeypatch.setattr(dual_hypergroup, "_pair_plan", planning)
        monkeypatch.setattr(stationary_fields, "_pair_plan", planning)
        monkeypatch.setattr(SU2Dual, "validate_labels", counted)
        got = run_check(check, SU2, field.second_moment, window, 1e-12)
        assert len(plans) == 1
        assert validated.count(window) == 1
        assert report_bits(got) == report_bits(want)

    def test_a_field_over_another_table_keeps_its_own_matrix(self, monkeypatch):
        # A q8 table loaded again is another dual: the check does not hand it its plan.
        copy = load_character_table(json.loads(Q8_FILE.read_text()))
        field = kolmogorov_field(FiniteClassMeasure(copy, [0.1, 0.2, 0.3, 0.15, 0.25]))
        plans = []
        plan = dual_hypergroup._pair_plan

        def planning(*args):
            plans.append(args[0])
            return plan(*args)

        monkeypatch.setattr(dual_hypergroup, "_pair_plan", planning)
        monkeypatch.setattr(stationary_fields, "_pair_plan", planning)
        got = check_stationarity(Q8, field.second_moment, Q8.labels())
        assert plans == [Q8, copy]
        want = check_stationarity(Q8, lambda a, b: field.second_moment(a, b), Q8.labels())
        assert report_bits(got) == report_bits(want)

    def test_a_field_that_overrides_its_matrix_is_asked_for_it(self):
        class Counted(KolmogorovField):
            calls = []

            def second_moment_matrix(self, labels, columns=None):
                self.calls.append(columns)
                return super().second_moment_matrix(labels, columns)

        field = Counted(heat_kernel_measure(0.3))
        got = check_stationarity(SU2, field.second_moment, range(5))
        # The column C(k), then the window: the check's plan is not handed to it.
        assert Counted.calls == [[0], None]
        want = check_stationarity(SU2, lambda a, b: field.second_moment(a, b), range(5))
        assert report_bits(got) == report_bits(want)

    @pytest.mark.parametrize("check", KINDS)
    @pytest.mark.parametrize(
        "make",
        [
            lambda: white_noise(SU2),
            lambda: ar1_field(0.5 + 0.6j),
            lambda: ma_field((1.0, 0.4, 0.3j)),
        ],
    )
    def test_array_sources_validate_no_label_alone(self, monkeypatch, check, make):
        # Translated fields are left out: their one ``tensor`` call, on the
        # shift, validates its labels.
        field = make()
        calls = []
        original = SU2Dual.validate_label

        def counted(self, label):
            calls.append(label)
            return original(self, label)

        monkeypatch.setattr(SU2Dual, "validate_label", counted)
        run_check(check, SU2, field.second_moment, range(21), 1e-12)
        assert calls == []


# ---------------------------------------------------------------------------
# Window kernels: translated white noise, MA from its lags, AR per label
# ---------------------------------------------------------------------------

TORUS = torus_dual()


def windows(labels):
    """Rows x columns windows: unsorted, repeated, rows != columns, the neutral column."""
    a, b, c = labels[::2], labels[::-1], labels[1::3] * 2
    return [(a, None), (b, None), (a, b), (c, a), (b, c), (b, [0]), (c, [0])]


def same_as_per_pair(oracle, matrix, rows, columns):
    want = pairwise_matrix(oracle, rows, columns)
    return matrix(rows, columns).tobytes() == want.tobytes()


class TestWindowKernels:
    @pytest.mark.parametrize(
        "dual, labels, shifts",
        [
            (SU2, [4, 0, 7, 2, 2, 9, 1, 5], range(5)),
            (TORUS, [-3, 4, 0, 7, -3, 1, -6, 2], range(-3, 4)),
            (S3, [2, 0, 1, 1, 0, 2, 2, 1], S3.labels()),
            (Q8, [4, 0, 3, 1, 2, 2, 4, 0], Q8.labels()),
        ],
        ids=lambda x: getattr(x, "name", None),
    )
    def test_translated_white_noise_has_the_per_pair_bits(self, dual, labels, shifts):
        assert dual.neutral in shifts
        for shift in shifts:
            field = translate(white_noise(dual), shift)
            for rows, columns in windows(labels):
                assert same_as_per_pair(
                    field.second_moment, field.second_moment_matrix, rows, columns
                ), (shift, rows, columns)

    @pytest.mark.parametrize("q", range(4))
    def test_ma_has_the_per_pair_bits_past_lag_q(self, q):
        beta = [cmath.rect(0.4 + 0.3 * k, 1.1 * k - 0.2) for k in range(q + 1)]
        oracle = ma_second_moment_oracle(beta)
        for rows, columns in windows([9, 0, 3, 12, 1, 1, 6, 4, 2]):
            assert same_as_per_pair(oracle, oracle.matrix, rows, columns), (rows, columns)

    @pytest.mark.parametrize("lam", [0.5, -0.9 + 0.2j, 1.0, -1.0, cmath.rect(1.0, 2.0), 1.2j])
    def test_ar1_has_the_per_pair_bits(self, lam):
        oracle = ar1_second_moment_oracle(lam)
        for rows, columns in windows([9, 0, 3, 12, 1, 1, 6, 4, 2]):
            assert same_as_per_pair(oracle, oracle.matrix, rows, columns), (rows, columns)

    def test_ar1_outside_the_circle_pows_only_the_tails_it_reads(self):
        # 1.44**2001 overflows a float; no entry of 2000 x 1000 has min 2000.
        oracle = ar1_second_moment_oracle(1.2)
        assert same_as_per_pair(oracle, oracle.matrix, [2000], [1000])
        with pytest.raises(OverflowError):
            oracle.matrix([2000])

    @pytest.mark.parametrize(
        "cls, dual, shift",
        [(SU2Dual, SU2, 2), (TorusDual, TORUS, -3), (FiniteGroupDual, Q8, 4)],
    )
    def test_translated_matrix_makes_one_tensor_call(self, monkeypatch, cls, dual, shift):
        calls = []
        original = cls.tensor

        def counted(self, a, b):
            calls.append((a, b))
            return original(self, a, b)

        monkeypatch.setattr(cls, "tensor", counted)
        field = translate(white_noise(dual), shift)
        labels = dual.labels()[::-1] if dual.is_finite else [3, 0, 1, 3]
        for columns in (None, [dual.neutral], labels[:2]):
            calls.clear()
            field.second_moment_matrix(labels, columns)
            assert calls == [(shift, dual.conjugate(shift))]
        calls.clear()
        check_stationarity(dual, field.second_moment, labels)
        assert len(calls) == 1

    def test_translated_check_at_large_labels_stays_small(self):
        # The table of the shift, not of the irreducibles the window covers.
        field = translate(white_noise(SU2), 2)
        tracemalloc.start()
        try:
            report = check_stationarity(SU2, field.second_moment, range(5000, 5004))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.max_violation == 0.0
        assert peak <= 16 * 2**20

    def test_translated_torus_window_is_bounded_as_kolmogorov_fields_are(self):
        # Labels of 2**62 or more are refused by the pair sum, as for any array source.
        labels = [2**62 + 1, 2**62 + 5]
        atom = TorusAngleMeasure(atoms=[(0.4, 1.0)], dual=TORUS)
        for field in (translate(white_noise(TORUS), 3), kolmogorov_field(atom)):
            with pytest.raises(LabelDomainError, match="not below 2\\*\\*62"):
                field.second_moment_matrix(labels)

    def test_translated_torus_check_reads_far_differences_as_zero(self):
        # a - b reaches 2**63 - 2, and a - b + 3 does not fit in int64; the
        # translation is a bijection, so C(k) = [k == 0] needs no shifted label.
        field = translate(white_noise(TORUS), 3)
        labels = [2**62 - 1, -(2**62 - 1), 0]
        column = field.second_moment_matrix([2**63 - 2, -(2**63 - 2), 0], [0])
        assert column.tobytes() == np.array([[0j], [0j], [1 + 0j]]).tobytes()
        for check in KINDS:
            report = run_check(check, TORUS, field.second_moment, labels, 1e-12)
            assert report.passed and report.max_violation == 0.0


def ref_translated_second_moment(field, a, b):
    """The brute-force double sum over the shifted decompositions of a and b."""
    total = 0j
    for k1, m1 in field._shifted(a).items():
        for k2, m2 in field._shifted(b).items():
            total += m1 * np.conj(m2) * field.base.second_moment(k1, k2)
    return complex(total)


class TestTranslatedWhiteNoiseScalar:
    @pytest.mark.parametrize(
        "dual, labels, shifts",
        [
            (SU2, [4, 0, 7, 2, 9, 1], range(5)),
            (TORUS, [-3, 4, 0, 7, 1, -6], range(-3, 4)),
            (S3, S3.labels(), S3.labels()),
            (Q8, Q8.labels(), Q8.labels()),
        ],
        ids=lambda x: getattr(x, "name", None),
    )
    def test_bits_of_the_double_sum(self, dual, labels, shifts):
        for shift in shifts:
            field = translate(white_noise(dual), shift)
            for a in labels:
                for b in labels:
                    got = field.second_moment(a, b)
                    assert bits(got) == bits(ref_translated_second_moment(field, a, b))

    def test_torus_scalar_answers_where_the_matrix_does(self):
        field = translate(white_noise(TORUS), 3)
        for a in (2**63 - 2, -(2**63 - 2)):
            assert bits(field.second_moment(a, 0)) == bits(0j)
            assert bits(field.second_moment_matrix([a], [0])[0, 0]) == bits(0j)
        with pytest.raises(LabelDomainError, match="does not fit in int64"):
            field.second_moment(2**63 - 1, -1)

    def test_per_pair_torus_check_at_far_labels(self):
        field = translate(white_noise(TORUS), 3)
        per_pair = lambda a, b: field.second_moment(a, b)  # noqa: E731  hides the matrix
        for check in KINDS:
            report = run_check(check, TORUS, per_pair, [2**62 - 1, -(2**62 - 1), 0], 1e-12)
            assert report.passed and report.max_violation == 0.0

    def test_other_bases_keep_the_double_sum(self):
        atom = TorusAngleMeasure(atoms=[(0.4, 1.0)], dual=TORUS)
        field = translate(kolmogorov_field(atom), 3)
        with pytest.raises(LabelDomainError, match="does not fit in int64"):
            field.second_moment(2**63 - 2, 0)


# ---------------------------------------------------------------------------
# AR(1) lag powers: a table of max + 1 slots, or the sort for sparse lags
# ---------------------------------------------------------------------------


def count_sorts(monkeypatch):
    calls = []

    def counted(values, f):
        calls.append(values.shape)
        return _per_distinct(values, f)

    monkeypatch.setattr(time_series, "_per_distinct", counted)
    return calls


class TestAr1LagTable:
    # (rows, columns, whether the lags are sparse enough to be sorted)
    CASES = [
        (list(range(31)), None, False),
        ([0, 10**6], None, True),
        ([9, 0, 3, 12, 1, 1, 6, 4, 2], None, False),
        ([5, 5, 5, 5], None, False),
        ([9, 0, 3, 12, 1], [4, 4, 0, 7], False),
        ([40, 2], [0, 1, 2, 3, 4, 5], True),
        (list(range(61)), [0], False),
        ([0, 10**6], [0], True),
        ([0, 7, 1], [10**6], True),
    ]

    @pytest.mark.parametrize("lam", [0, 0.5, -0.9, 0.5 + 0.6j, 1])
    def test_bits_of_the_per_pair_oracle(self, monkeypatch, lam):
        oracle = ar1_second_moment_oracle(lam)
        sorts = count_sorts(monkeypatch)
        for rows, columns, sparse in self.CASES:
            sorts.clear()
            assert same_as_per_pair(oracle, oracle.matrix, rows, columns), (rows, columns)
            assert len(sorts) == sparse, (rows, columns)

    @pytest.mark.parametrize(
        "lags",
        [[[0, 1, 4], [2, 2, 0]], [[3, 3], [3, 3]], [[0, 9], [9, 0]], [[0]], np.zeros((0, 3))],
    )
    def test_f_once_per_lag_ascending(self, lags):
        lags = np.array(lags, dtype=int)
        for per in (_per_lag, _per_distinct):
            calls = []

            def f(h):
                calls.append(h)
                return complex(h, -h) ** 3

            got = per(lags, f)
            assert calls == sorted(set(lags.ravel().tolist()))
            assert all(type(h) is int for h in calls)
            assert got.tobytes() == _per_distinct(lags, lambda h: complex(h, -h) ** 3).tobytes()

    @pytest.mark.parametrize(
        "rows, columns, sparse",
        [(list(range(3895)), [0], False), ([0, 5000], None, True), ([3894], [0], True)],
    )
    def test_overflow_raises_as_the_oracle_does(self, monkeypatch, rows, columns, sparse):
        # 1.2**3894 overflows a complex; the pows run in ascending lag order on both paths.
        oracle = ar1_second_moment_oracle(1.2)
        with pytest.raises(OverflowError) as per_pair:
            oracle(3894, 0)
        sorts = count_sorts(monkeypatch)
        with pytest.raises(OverflowError) as matrix:
            oracle.matrix(rows, columns)
        assert str(matrix.value) == str(per_pair.value) == "complex exponentiation"
        assert len(sorts) == sparse


# ---------------------------------------------------------------------------
# Witnesses built on first read
# ---------------------------------------------------------------------------


def render_per_pair(report, label_to_str=str):
    """The JSON rendering from one Witness per flagged pair, as reports rendered before."""
    return {
        "condition": report.condition,
        "pass": report.passed,
        "max_violation": report.max_violation,
        "tol": report.tol,
        "witnesses": [
            {
                "pi1": label_to_str(w.pi1),
                "pi2": label_to_str(w.pi2),
                "lhs": [w.lhs.real, w.lhs.imag],
                "rhs": [w.rhs.real, w.rhs.imag],
                "violation": w.violation,
            }
            for w in report.witnesses
        ],
    }


def dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


class TestLazyWitnesses:
    def test_no_witness_until_read(self, monkeypatch):
        built = []
        original = Witness.__init__

        def counted(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(Witness, "__init__", counted)
        report = check_hypergroup_stationarity(
            SU2, white_noise(SU2).second_moment, range(9), kind="normalized"
        )
        assert not report.passed
        report.to_json_dict()
        assert built == []
        witnesses = report.witnesses
        assert len(built) == len(witnesses) > 0
        assert report.witnesses is witnesses
        assert len(built) == len(witnesses)

    def test_json_is_the_per_pair_rendering(self):
        for name, dual, oracle in SOURCES:
            labels = dual.labels()[::-1] * 2 if dual.is_finite else [5, 0, 3, 3, 1, 0]
            for check in KINDS:
                for tol in (1e-12, 0.0):
                    report = run_check(check, dual, oracle, labels, tol)
                    got = dumps(report.to_json_dict(dual.label_to_str))
                    want = dumps(render_per_pair(report, dual.label_to_str))
                    assert got == want, (name, check, tol)

    def test_equal_to_the_record_of_its_witnesses(self):
        report = check_hypergroup_stationarity(
            SU2, ar1_second_moment_oracle(0.5 + 0.6j), [4, 1, 1, 0], kind="normalized"
        )
        record = StationarityReport(
            condition=report.condition,
            passed=report.passed,
            max_violation=report.max_violation,
            tol=report.tol,
            witnesses=tuple(report.witnesses),
        )
        assert report == record and hash(report) == hash(record)
        assert repr(report) == repr(record)
        assert repr(report).startswith("StationarityReport(condition='stathyp:normalized', ")
        assert dumps(record.to_json_dict()) == dumps(report.to_json_dict())
        assert report != StationarityReport(
            report.condition, report.passed, report.max_violation, report.tol, ()
        )

    def test_report_is_frozen(self):
        report = check_stationarity(SU2, white_noise(SU2).second_moment, range(3))
        with pytest.raises(FrozenInstanceError):
            report.passed = False
        with pytest.raises(FrozenInstanceError):
            del report.witnesses
