"""The decomposable pair sum against the per-pair loops it replaced.

The reference functions below are the loops that each of
``check_stationarity``, ``check_hypergroup_stationarity``, ``gram_matrix``
and ``KolmogorovField.second_moment`` used to carry, and the per-pair sum
that ``pair_matrix`` replaced with one masked array add per irreducible.
The package must reproduce them bit for bit: the same terms added in the
same order give the same reports (witness order included), Gram
matrices, moments and pair matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfield import (
    CovarianceOnDual,
    DualVector,
    FiniteClassMeasure,
    SU2AngleMeasure,
    StationarityReport,
    TorusAngleMeasure,
    Witness,
    ar1_second_moment_oracle,
    check_hypergroup_stationarity,
    check_stationarity,
    convolve,
    gram_matrix,
    heat_kernel_measure,
    kolmogorov_field,
    load_character_table,
    ma_second_moment_oracle,
    su2_dual,
    torus_dual,
    translate,
    white_noise,
)
from dualfield.dual_hypergroup import pair_matrix

KINDS = ("statdef", "representation_ring", "normalized")


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def ref_build_report(condition, pairs, tol):
    worst = 0.0
    witnesses = []
    for pi1, pi2, lhs, rhs in pairs:
        violation = abs(lhs - rhs)
        worst = max(worst, violation)
        if violation > tol:
            witnesses.append(Witness(pi1, pi2, lhs, rhs))
    witnesses.sort(key=lambda w: -w.violation)
    return StationarityReport(
        condition=condition,
        passed=worst <= tol,
        max_violation=worst,
        tol=tol,
        witnesses=tuple(witnesses),
    )


def ref_check_stationarity(dual, oracle, labels, tol=1e-12):
    labels = list(labels)
    epsilon = dual.neutral
    pairs = []
    for a in labels:
        for b in labels:
            lhs = complex(oracle(a, b))
            vec = dual.tensor(a, dual.conjugate(b))
            rhs = complex(sum(mult * complex(oracle(k, epsilon)) for k, mult in vec.items()))
            pairs.append((a, b, lhs, rhs))
    return ref_build_report("statdef", pairs, tol)


def ref_check_hypergroup_stationarity(dual, covariance, labels, kind, tol=1e-12):
    labels = list(labels)
    epsilon = dual.neutral
    pairs = []
    for a in labels:
        for b in labels:
            lhs = complex(covariance(a, b))
            mixed = convolve(
                dual,
                DualVector.point_mass(a),
                DualVector.point_mass(dual.conjugate(b)),
                kind,
            )
            rhs = complex(
                sum(coeff * complex(covariance(k, epsilon)) for k, coeff in mixed.items())
            )
            pairs.append((a, b, lhs, rhs))
    return ref_build_report(f"stathyp:{kind}", pairs, tol)


def ref_gram_matrix(phi, labels):
    labels = list(labels)
    dual = phi.dual
    out = np.empty((len(labels), len(labels)), dtype=complex)
    for m, a in enumerate(labels):
        for n, b in enumerate(labels):
            vec = dual.tensor(a, dual.conjugate(b))
            out[m, n] = sum(mult * phi.values[k] for k, mult in vec.items())
    return out


def ref_kolmogorov_second_moment(field, a, b):
    vec = field.dual.tensor(a, field.dual.conjugate(b))
    return complex(sum(mult * field.measure.fourier(k) for k, mult in vec.items()))


def ref_pair_matrix(dual, labels, value, kind):
    """One DualVector per pair: the tensor product or the convolution of deltas."""
    rows = []
    for a in labels:
        row = []
        for b in labels:
            b_bar = dual.conjugate(b)
            if kind == "representation_ring":
                terms = dual.tensor(a, b_bar)
            else:
                terms = convolve(
                    dual, DualVector.point_mass(a), DualVector.point_mass(b_bar), kind
                )
            row.append(complex(sum(c * complex(value(k)) for k, c in terms.items())))
        rows.append(row)
    return np.array(rows, dtype=complex)


def run_check(check, dual, oracle, labels, tol):
    if check == "statdef":
        return check_stationarity(dual, oracle, labels, tol=tol)
    return check_hypergroup_stationarity(dual, oracle, labels, kind=check, tol=tol)


def run_reference(check, dual, oracle, labels, tol):
    if check == "statdef":
        return ref_check_stationarity(dual, oracle, labels, tol)
    return ref_check_hypergroup_stationarity(dual, oracle, labels, check, tol)


def bits(z):
    """Exact representation of a complex number, signed zeros included."""
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


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


def field_cases(su2, torus, s3, q8):
    rng = np.random.default_rng(3141)
    su2_atoms = SU2AngleMeasure(atoms=[(0.4, 0.3), (2.1, 0.7)], dual=su2)
    torus_atoms = TorusAngleMeasure(atoms=[(0.3, 0.25), (4.0, 0.75)], dual=torus)
    cases = [
        ("torus whitenoise", torus, white_noise(torus, 1).second_moment, torus.labels(3)),
        ("torus atoms", torus, kolmogorov_field(torus_atoms).second_moment, torus.labels(3)),
        (
            "torus translated",
            torus,
            translate(kolmogorov_field(torus_atoms), 2).second_moment,
            torus.labels(2),
        ),
        ("su2 whitenoise", su2, white_noise(su2, 1).second_moment, range(7)),
        ("su2 ar1 real", su2, ar1_second_moment_oracle(0.9), range(7)),
        ("su2 ar1 complex", su2, ar1_second_moment_oracle(0.5 + 0.6j), range(7)),
        ("su2 ma2", su2, ma_second_moment_oracle([1.0, 0.4 - 0.2j, 0.3j]), range(7)),
        ("su2 heat", su2, kolmogorov_field(heat_kernel_measure(0.3)).second_moment, range(6)),
        ("su2 atoms", su2, kolmogorov_field(su2_atoms).second_moment, range(6)),
        ("su2 translated", su2, translate(white_noise(su2, 2), 2).second_moment, range(5)),
    ]
    for dual in (s3, q8):
        labels = dual.labels()
        weights = rng.random(len(labels))
        field = kolmogorov_field(FiniteClassMeasure(dual, weights / weights.sum()))
        shifted = translate(field, labels[-1])
        cases += [
            (f"{dual.name} whitenoise", dual, white_noise(dual, 1).second_moment, labels),
            (f"{dual.name} kolmogorov", dual, field.second_moment, labels),
            (f"{dual.name} translated", dual, shifted.second_moment, labels),
        ]
    return cases


class TestAgainstReferenceLoops:
    @pytest.mark.parametrize("check", KINDS)
    def test_reports_bit_identical(self, check, su2, torus, s3, q8):
        for name, dual, oracle, labels in field_cases(su2, torus, s3, q8):
            for tol in (1e-12, 0.0):
                got = run_check(check, dual, oracle, labels, tol)
                want = run_reference(check, dual, oracle, labels, tol)
                assert report_bits(got) == report_bits(want), (name, check, tol)
                assert got == want, (name, check, tol)

    def test_both_verdicts_and_witnesses_occur(self, su2, torus, s3, q8):
        # The comparison above must cover passing reports and failing ones with witnesses.
        verdicts = set()
        for _, dual, oracle, labels in field_cases(su2, torus, s3, q8):
            for check in KINDS:
                report = run_check(check, dual, oracle, labels, 1e-12)
                verdicts.add(report.passed)
                assert report.passed or len(report.witnesses) >= 1
        assert verdicts == {True, False}

    def test_gram_matrices_bit_identical(self, su2, s3, q8):
        windows = []
        for t in (0.02, 0.3, 1.0):
            measure = heat_kernel_measure(t)
            windows.append((CovarianceOnDual.from_measure(measure, range(41)), list(range(21))))
        atoms = SU2AngleMeasure(atoms=[(0.4, 0.3), (2.1, 0.7)], dual=su2)
        windows.append((CovarianceOnDual.from_measure(atoms, range(13)), [5, 0, 3, 6, 1]))
        for dual in (s3, q8):
            measure = FiniteClassMeasure(dual, np.linspace(1.0, 2.0, len(dual.labels())))
            phi = CovarianceOnDual.from_measure(measure, dual.labels())
            windows.append((phi, dual.labels()))
        # Stored values that are plain floats, not complex numbers.
        windows.append((CovarianceOnDual(su2, {k: 0.5**k for k in range(9)}), list(range(5))))
        for phi, labels in windows:
            assert gram_matrix(phi, labels).tobytes() == ref_gram_matrix(phi, labels).tobytes()

    def test_kolmogorov_second_moment_bit_identical(self, su2, torus, s3, q8):
        measures = [
            heat_kernel_measure(0.05),
            SU2AngleMeasure(atoms=[(0.4, 0.3), (2.1, 0.7)], dual=su2),
            TorusAngleMeasure(atoms=[(0.3, 0.25), (4.0, 0.75)], dual=torus),
            FiniteClassMeasure(s3, [0.5, 0.5, 0.0]),
            FiniteClassMeasure.haar(q8),
        ]
        for measure in measures:
            field = kolmogorov_field(measure, seed=5)
            dual = measure.dual
            labels = dual.labels(4) if not dual.is_finite else dual.labels()
            for a in labels:
                for b in labels:
                    got = field.second_moment(a, b)
                    want = ref_kolmogorov_second_moment(field, a, b)
                    assert bits(got) == bits(want), (measure.description, a, b)


class TestOracleCalls:
    @pytest.mark.parametrize("check", KINDS)
    def test_one_call_per_distinct_irreducible(self, check, su2):
        n = 12
        base = ar1_second_moment_oracle(0.5 + 0.6j)
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return base(a, b)

        run_check(check, su2, counting, range(n + 1), 1e-12)
        assert len(calls) <= (n + 1) ** 2 + (2 * n + 1)
        # Each right-hand irreducible k of 0 .. 2n is asked for exactly once.
        right = [k for k, b in calls if b == 0 and k > n]
        assert sorted(right) == list(range(n + 1, 2 * n + 1))


class TestPairMatrix:
    def test_empty_window_rejected(self, su2):
        with pytest.raises(ValueError):
            pair_matrix(su2, [], lambda k: 1.0)

    def test_entries_are_multiplicity_weighted_sums(self, su2):
        got = pair_matrix(su2, [2, 1], lambda k: 10.0**k)
        # 2 (x) 2 = 0 + 2 + 4, 2 (x) 1 = 1 + 3, 1 (x) 1 = 0 + 2.
        want = np.array([[10101.0, 1010.0], [1010.0, 101.0]], dtype=complex)
        assert got.tobytes() == want.tobytes()

    def test_normalized_kind(self, su2):
        got = pair_matrix(su2, [1], lambda k: 1.0 if k == 0 else 0.0, kind="normalized")
        assert got[0, 0] == 0.25

    def test_unknown_kind_rejected(self, su2):
        with pytest.raises(ValueError):
            pair_matrix(su2, [1], lambda k: 1.0, kind="bogus")


# ---------------------------------------------------------------------------
# Random windows against the per-pair sum
# ---------------------------------------------------------------------------

SU2 = su2_dual()
TORUS = torus_dual()
FINITE = {name: load_character_table(name) for name in ("s3", "q8")}

SIGNED_ZEROS = [
    complex(-0.0, -0.0),
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, 2.5),
    complex(1.5, -0.0),
    -0.0,
    0.0,
]
VALUES = st.one_of(
    st.sampled_from(SIGNED_ZEROS),
    st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False),
)
KIND = st.sampled_from(["representation_ring", "normalized"])


def table_value(table, offset=0):
    return lambda k: table[k + offset]


def assert_matches_reference(dual, labels, value, kind):
    got = pair_matrix(dual, labels, value, kind)
    want = ref_pair_matrix(dual, labels, value, kind)
    assert got.tobytes() == want.tobytes()


class TestRandomWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 40), min_size=1, max_size=12),
        table=st.lists(VALUES, min_size=81, max_size=81),
        kind=KIND,
    )
    def test_su2(self, labels, table, kind):
        assert_matches_reference(SU2, labels, table_value(table), kind)

    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.lists(st.integers(-20, 20), min_size=1, max_size=12),
        table=st.lists(VALUES, min_size=81, max_size=81),
        kind=KIND,
    )
    def test_torus(self, labels, table, kind):
        assert_matches_reference(TORUS, labels, table_value(table, offset=40), kind)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(FINITE)), kind=KIND)
    def test_finite(self, data, name, kind):
        dual = FINITE[name]
        labels = data.draw(
            st.lists(st.sampled_from(dual.labels()), min_size=1, unique=True), label="labels"
        )
        table = data.draw(st.lists(VALUES, min_size=8, max_size=8), label="table")
        assert_matches_reference(dual, labels, table_value(table), kind)

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_value_called_once_per_irreducible(self, su2, kind):
        calls = []

        def value(k):
            calls.append(k)
            return 1.0

        pair_matrix(su2, range(61), value, kind)
        assert calls == list(range(121))
