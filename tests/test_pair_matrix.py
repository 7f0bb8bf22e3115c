"""The decomposable pair sum against the per-pair loops it replaced.

The reference functions below are the loops that each of
``check_stationarity``, ``check_hypergroup_stationarity``, ``gram_matrix``
and ``KolmogorovField.second_moment`` used to carry, and the per-pair sum
that ``pair_matrix`` replaced with one masked array add per irreducible.
The package must reproduce them bit for bit: the same terms added in the
same order give the same reports (witness order included), Gram
matrices, moments and pair matrices.  A normalized entry is the
representation-ring sum of d_k value(k) with each part times
1 / (d_a d_b); it stays within a summation bound of ``convolve``'s
per-term sum.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from dualfield import dual_hypergroup
from dualfield.dual_hypergroup import pair_grid, pair_matrix
from dualfield.stationary_fields import _Window, moment_matrix

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
            rhs = ref_pair_sum(dual, a, b, lambda k: covariance(k, epsilon), kind)
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


def ref_pair_sum(dual, a, b, value, kind):
    """Sum of m_k value(k) over a (x) conj(b) from 0j in ascending k.

    Normalized: that sum of d_k value(k), d_k times value(k) as a complex
    product, as numpy multiplies an integer array into a complex one; then
    its real and imaginary parts each times 1 / (d_a d_b).
    """
    terms = dual.tensor(a, dual.conjugate(b)).items()
    if kind == "representation_ring":
        return complex(sum(m * complex(value(k)) for k, m in terms))
    ring = sum(m * (complex(dual.dim(k)) * complex(value(k))) for k, m in terms)
    scale = 1.0 / (dual.dim(a) * dual.dim(b))
    return complex(scale * ring.real, scale * ring.imag)


def ref_pair_matrix(dual, labels, value, kind):
    """One per-pair sum per entry."""
    return np.array(
        [[ref_pair_sum(dual, a, b, value, kind) for b in labels] for a in labels], dtype=complex
    )


def convolve_pair_sums(dual, labels, value, kind):
    """Per pair: convolve's per-term sum of c_k value(k), sum |c_k value(k)| and the term count."""
    out = []
    for a in labels:
        for b in labels:
            mixed = convolve(
                dual, DualVector.point_mass(a), DualVector.point_mass(dual.conjugate(b)), kind
            )
            terms = [c * complex(value(k)) for k, c in mixed.items()]
            out.append((complex(sum(terms)), sum(abs(t) for t in terms), len(terms)))
    return out


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


def eager_report(check, dual, oracle, labels, tol):
    """Witnesses and JSON of a report whose flagged pairs are all ordered when it is built.

    The window arrays come as a check computes them; every pair above tol is
    ordered by descending violation (a stable sort, so ties keep window
    order) and rendered from the ordered arrays.
    """
    labels = list(labels)
    kind = "representation_ring" if check == "statdef" else check
    column = lambda ks: moment_matrix(oracle, ks, [dual.neutral]).ravel()  # noqa: E731
    rhs = pair_grid(dual, labels, None, column, kind).ravel()
    lhs = moment_matrix(oracle, labels).ravel()
    diff = lhs - rhs
    violation = np.hypot(diff.real, diff.imag)
    flagged = np.flatnonzero(violation > tol)
    flagged = flagged[np.argsort(-violation[flagged], kind="stable")]
    n = len(labels)
    pairs = [(labels[p // n], labels[p % n]) for p in flagged.tolist()]
    lhs, rhs, violation_flagged = lhs[flagged], rhs[flagged], violation[flagged]
    witnesses = tuple(
        Witness(a, b, left, right) for (a, b), left, right in zip(pairs, lhs.tolist(), rhs.tolist())
    )
    parts = (lhs.real, lhs.imag, rhs.real, rhs.imag, violation_flagged)
    payload = {
        "condition": "statdef" if check == "statdef" else f"stathyp:{kind}",
        "pass": bool(violation.max() <= tol),
        "max_violation": float(violation.max()),
        "tol": tol,
        "witnesses": [
            {
                "pi1": dual.label_to_str(a),
                "pi2": dual.label_to_str(b),
                "lhs": [lhs_re, lhs_im],
                "rhs": [rhs_re, rhs_im],
                "violation": v,
            }
            for (a, b), lhs_re, lhs_im, rhs_re, rhs_im, v in zip(
                pairs, *(part.tolist() for part in parts)
            )
        ],
    }
    return witnesses, json.dumps(payload).encode()


def witness_bits(witnesses):
    return [(w.pi1, w.pi2, bits(w.lhs), bits(w.rhs)) for w in witnesses]


class TestWitnessesOrderedOnFirstRead:
    @pytest.mark.parametrize("check", KINDS)
    def test_same_witnesses_and_json_as_the_eager_order(self, check, su2, torus, s3, q8):
        verdicts = []
        for name, dual, oracle, labels in field_cases(su2, torus, s3, q8):
            for tol in (1e-12, 0.0):
                witnesses, payload = eager_report(check, dual, oracle, labels, tol)
                json_first = run_check(check, dual, oracle, labels, tol)
                witnesses_first = run_check(check, dual, oracle, labels, tol)
                verdicts.append(json_first.passed)
                stored = json_first.__dict__["_witnesses"]
                if json_first.passed:
                    assert type(stored) is tuple and stored == () == witnesses, (name, tol)
                else:
                    # Nothing is ordered before the first read.
                    assert type(stored) is _Window
                got = json.dumps(json_first.to_json_dict(dual.label_to_str)).encode()
                assert got == payload, (name, check, tol)
                assert witness_bits(json_first.witnesses) == witness_bits(witnesses)
                assert witness_bits(witnesses_first.witnesses) == witness_bits(witnesses)
                got = json.dumps(witnesses_first.to_json_dict(dual.label_to_str)).encode()
                assert got == payload, (name, check, tol)
        assert set(verdicts) == {True, False}

    def test_ordered_once_then_the_tuple(self, su2):
        report = check_hypergroup_stationarity(
            su2, ar1_second_moment_oracle(0.5 + 0.6j), range(9), kind="normalized"
        )
        assert type(report.__dict__["_witnesses"]) is _Window
        first = report.to_json_dict()
        # The window's arrays give way to the flagged pairs, in order.
        flagged = report.__dict__["_witnesses"]
        assert type(flagged) is _Window and len(flagged.flagged) == len(first["witnesses"])
        assert report.to_json_dict() == first and report.__dict__["_witnesses"] is flagged
        witnesses = report.witnesses
        assert report.__dict__["_witnesses"] is witnesses and len(witnesses) == len(flagged.flagged)
        assert report.to_json_dict() == first


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

    @pytest.mark.parametrize("name, label", [("s3", 2), ("q8", 4)])
    def test_finite_terms_added_in_ascending_k(self, s3, q8, name, label):
        # std (x) std and dim2 (x) dim2 split into 3 and 4 irreducibles of
        # multiplicity 1; these values sum to other bits in descending k.
        dual = {"s3": s3, "q8": q8}[name]
        table = [0.1, 0.2, 0.3, 0.4]
        ks = dual.tensor(label, dual.conjugate(label)).support
        want = descending = 0j
        for k in ks:
            want += table[k]
        for k in reversed(ks):
            descending += table[k]
        assert want != descending
        got = pair_matrix(dual, [label], lambda k: table[k])
        assert got.tobytes() == np.array([[want]]).tobytes()


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


# ---------------------------------------------------------------------------
# Sparse windows: the band kernel of SU(2), the term list of the torus
# ---------------------------------------------------------------------------

SPARSE_SU2 = st.lists(
    st.one_of(st.integers(0, 300), st.sampled_from([0, 1, 150, 299, 300])),
    min_size=1,
    max_size=8,
)
SPARSE_TORUS = st.lists(
    st.one_of(st.integers(-100, 100), st.sampled_from([-100, -1, 0, 1, 100])),
    min_size=1,
    max_size=8,
)


# Drawing a value per irreducible up to 600 is slow; the drawn values repeat instead.
TABLE = st.lists(VALUES, min_size=61, max_size=61)


def cyclic_value(table):
    return lambda k: table[k % len(table)]


def occurring(dual, labels):
    """Every irreducible of a (x) conj(b) over the window, from the per-pair tensor."""
    return sorted(
        {k for a in labels for b in labels for k, _ in dual.tensor(a, dual.conjugate(b)).items()}
    )


class TestBandKernel:
    @settings(max_examples=40, deadline=None)
    @given(labels=SPARSE_SU2, table=TABLE, kind=KIND)
    def test_sparse_su2_windows(self, labels, table, kind):
        assert_matches_reference(SU2, labels, cyclic_value(table), kind)

    @settings(max_examples=40, deadline=None)
    @given(labels=SPARSE_TORUS, table=TABLE, kind=KIND)
    def test_sparse_torus_windows(self, labels, table, kind):
        assert_matches_reference(TORUS, labels, cyclic_value(table), kind)

    @settings(max_examples=40, deadline=None)
    @given(
        dual=st.sampled_from([SU2, TORUS]),
        data=st.data(),
        kind=KIND,
    )
    def test_value_only_at_irreducibles_that_occur_ascending(self, dual, data, kind):
        labels = data.draw(SPARSE_SU2 if dual is SU2 else SPARSE_TORUS, label="labels")
        wanted = occurring(dual, labels)
        calls = []

        def value(k):
            if k not in wanted:
                raise AssertionError(f"value({k}) outside the decomposition of the window")
            calls.append(k)
            return complex(k, -k)

        pair_matrix(dual, labels, value, kind)
        assert calls == wanted
        assert all(type(k) is int for k in calls)

    @settings(max_examples=25, deadline=None)
    @given(labels=SPARSE_SU2, table=TABLE, kind=KIND, block=st.sampled_from([1, 2, 7, 50]))
    def test_blocked_running_sums(self, labels, table, kind, block):
        # Small blocks split the running-sum table into many carried pieces.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("dualfield.dual_hypergroup._BAND_BLOCK", block)
            assert_matches_reference(SU2, labels, cyclic_value(table), kind)

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    @pytest.mark.parametrize(
        "dual, labels",
        [
            (SU2, [0, 3, 1, 5, 2, 9]),
            (TORUS, [-2, 0, 1, 3]),
            (FINITE["s3"], [2, 0, 1, 2]),
            (FINITE["q8"], [4, 0, 1, 2, 3]),
        ],
    )
    def test_non_finite_values(self, dual, labels, kind):
        # 1 * (inf + 0j) is inf + nan j: the terms are products, not the raw values.
        inf, nan = float("inf"), float("nan")
        table = [complex(inf, 0), complex(1, inf), complex(-inf, -inf), complex(nan, 1), 2.0, -inf, 3j]
        with np.errstate(invalid="ignore", over="ignore"):
            got = pair_matrix(dual, labels, cyclic_value(table), kind)
        want = ref_pair_matrix(dual, labels, cyclic_value(table), kind)
        # Every bit but the sign and payload of a nan.
        assert np.array_equal(got.real, want.real, equal_nan=True)
        assert np.array_equal(got.imag, want.imag, equal_nan=True)

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_torus_labels_far_apart(self, kind):
        # Three sums occur; memory must follow them, not the spread of the labels.
        labels = [0, 10**9]
        # A first call imports what numpy loads lazily, outside the trace.
        pair_matrix(TORUS, [0, 1], complex, kind)
        tracemalloc.start()
        try:
            got = pair_matrix(TORUS, labels, lambda k: complex(k % 7, -1), kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = ref_pair_matrix(TORUS, labels, lambda k: complex(k % 7, -1), kind)
        assert got.tobytes() == want.tobytes()
        assert peak <= 2**20

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_wide_torus_window(self, kind):
        # Every pair has one term, c value(a_i - a_j) with c = 1 (ring) or 1.0 (normalized).
        labels = np.random.default_rng(400).integers(-(10**6), 10**6, size=400, endpoint=True)
        calls = []

        def values_at(ks):
            calls.append(ks)
            k = np.array(ks)
            # Signed zeros on every third difference, so the 0j start shows.
            return np.where(k % 3 == 0, complex(-0.0, -0.0), np.exp(1e-3j * k) * (k % 5 - 2))

        got = pair_grid(TORUS, labels.tolist(), None, values_at, kind)
        difference = labels[:, None] - labels[None, :]
        ks, at = np.unique(difference, return_inverse=True)
        assert calls == [ks.tolist()]
        c = np.ones(1, dtype=int if kind == "representation_ring" else float)
        want = np.zeros(difference.shape, dtype=complex) + c * values_at(ks.tolist())[at]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_window_of_200(self, kind):
        rng = np.random.default_rng(200)
        table = (rng.standard_normal(399) + 1j * rng.standard_normal(399)).tolist()
        assert_matches_reference(SU2, range(200), table_value(table), kind)

    @pytest.mark.parametrize("kind", ["representation_ring", "normalized"])
    def test_memory_stays_quadratic(self, kind):
        # An N x N x N array at N = 201 would take 124 MiB.
        tracemalloc.start()
        try:
            pair_matrix(SU2, range(201), lambda k: complex(k), kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


# ---------------------------------------------------------------------------
# The normalized kind: the ring kernel on d_k value(k), scaled once
# ---------------------------------------------------------------------------


def assert_near_convolve(labels, value):
    """Normalized entries within 4 (n + 2) 2**-53 sum |c_k value(k)| of convolve's sums.

    n is the pair's number of terms.  This is a summation bound gamma_n
    sum |x_i| (Higham, Accuracy and Stability of Numerical Algorithms,
    section 4.2) with room for the products and the scale; one smallest
    subnormal per operation allows for gradual underflow.
    """
    got = pair_matrix(SU2, labels, value, "normalized").ravel()
    sums = convolve_pair_sums(SU2, labels, value, "normalized")
    for entry, (want, size, n) in zip(got, sums):
        assert abs(entry - want) <= 4 * (n + 2) * (2.0**-53 * size + 2.0**-1074)


class TestNormalizedKind:
    @pytest.mark.parametrize(
        "name", ["ar1 0.9", "ar1 0.5+0.6i", "ar1 1.2", "heat 0.01", "random"]
    )
    @pytest.mark.parametrize("n", [0, 1, 8, 31, 48])
    def test_windows_near_convolve(self, name, n):
        rng = np.random.default_rng(48)
        table = rng.standard_normal(97) + 1j * rng.standard_normal(97)
        oracles = {
            "ar1 0.9": ar1_second_moment_oracle(0.9),
            "ar1 0.5+0.6i": ar1_second_moment_oracle(0.5 + 0.6j),
            "ar1 1.2": ar1_second_moment_oracle(1.2),
            "heat 0.01": kolmogorov_field(heat_kernel_measure(0.01)).second_moment,
            "random": lambda k, _: table[k],
        }
        oracle = oracles[name]
        assert_near_convolve(range(n + 1), lambda k: oracle(k, 0))

    @settings(max_examples=40, deadline=None)
    @given(labels=SPARSE_SU2, table=TABLE, block=st.sampled_from([1, 2, 7, 50, 1 << 20]))
    def test_sparse_windows_near_convolve(self, labels, table, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("dualfield.dual_hypergroup._BAND_BLOCK", block)
            assert_near_convolve(labels, cyclic_value(table))

    @pytest.mark.parametrize("dual, labels", [(SU2, [1]), (FINITE["s3"], [2])])
    def test_scaled_part_that_underflows(self, dual, labels):
        # A quarter of the smallest subnormal rounds to -0.0.  A complex multiply
        # by (1/4, 0) may fuse it with 0 * imag = -0.0 and give +0.0 instead.
        def value(k):
            return complex(-5e-324, -1.0) if k == 0 else complex(-0.0, -0.0)

        got = pair_matrix(dual, labels, value, "normalized")
        assert got.tobytes() == ref_pair_matrix(dual, labels, value, "normalized").tobytes()
        assert math.copysign(1.0, got[0, 0].real) == -1.0

    def test_one_ring_kernel_call(self, monkeypatch):
        # One plan of the labels, one ring values pass on d_k value(k), then the scale.
        plans, rings = [], []
        plan, ring = dual_hypergroup._pair_plan, dual_hypergroup._BandPlan.ring

        def planning(*args):
            plans.append(args)
            return plan(*args)

        def summing(self, values_at, dims):
            rings.append(dims)
            return ring(self, values_at, dims)

        monkeypatch.setattr(dual_hypergroup, "_pair_plan", planning)
        monkeypatch.setattr(dual_hypergroup._BandPlan, "ring", summing)
        got = pair_matrix(SU2, range(9), complex, "normalized")
        assert len(plans) == 1
        assert rings == [SU2.dims]
        assert got.tobytes() == ref_pair_matrix(SU2, range(9), complex, "normalized").tobytes()
        assert not hasattr(dual_hypergroup, "_band_normalized")


# ---------------------------------------------------------------------------
# The values pass on a plan: windows up to 2**19, non-finite values
# ---------------------------------------------------------------------------

INF, NAN = float("inf"), float("nan")
NEG_ZERO = complex(-0.0, -0.0)
PASS_VALUES = st.one_of(
    st.sampled_from(SIGNED_ZEROS),
    st.sampled_from([INF, -INF, NAN, complex(INF, -0.0), complex(-2.0, -INF), complex(0.5, NAN)]),
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
)
# (_BAND_BLOCK, largest label): a block of 1 over 2**19 running rows would
# loop 2**19 times, so the small blocks run on small labels.
BLOCKS = [(1, 2**7), (7, 2**9), (64, 2**11), (dual_hypergroup._BAND_BLOCK, 2**19)]


@st.composite
def pass_windows(draw, starts):
    """(block, rows, columns) of an SU(2) window whose starts |a - b| are dense or sparse.

    Dense: the starts span less than the number of rows and columns, as on
    a contiguous window; sparse: they span more, and most offsets up to the
    last start start no pair.  Rows
    and columns are unsorted, may repeat, and columns differ from rows or
    are None.
    """
    block, bound = draw(st.sampled_from(BLOCKS))
    if starts == "dense":
        base = draw(st.one_of(st.integers(0, bound - 7), st.sampled_from([bound // 2, bound - 7])))
        label = st.integers(base, base + 7)
    else:
        label = st.one_of(st.integers(0, bound), st.sampled_from([0, 1, bound - 1, bound]))
    rows = draw(st.lists(label, min_size=1, max_size=5))
    columns = draw(st.one_of(st.none(), st.lists(label, min_size=1, max_size=5)))
    cols = rows if columns is None else columns
    first = np.abs(np.subtract.outer(rows, cols))
    assume((int(first.max() - first.min()) < len(rows) + len(cols)) == (starts == "dense"))
    return block, rows, columns


def cyclic_values_at(table):
    values = np.array(table, dtype=complex)
    return lambda ks: values[np.asarray(ks, dtype=int) % len(values)]


def band_sums(rows, columns, table, normalized):
    """Per pair, 1 * value(k) (d_k value(k) when normalized) added one by one to 0j, ascending k.

    ``np.add.accumulate`` adds in order, so its last entry is the
    sequential sum.  Also per pair: convolve's per-term sum of
    (d_k / (d_a d_b)) value(k), the sum of its terms' magnitudes and their
    number, as arrays.
    """
    values = np.array(table, dtype=complex)
    ring, near = [], []
    for a in rows:
        for b in columns:
            k = np.arange(abs(a - b), a + b + 1, 2)
            v = values[k % len(values)]
            terms = np.ones(len(k), dtype=int) * (v * (k + 1) if normalized else v)
            ring.append(np.add.accumulate(np.concatenate(([0j], terms)))[-1])
            c = (1.0 / ((a + 1) * (b + 1))) * (k + 1.0) * v
            near.append((np.add.accumulate(np.concatenate(([0j], c)))[-1], np.abs(c).sum(), len(k)))
    return np.array(ring), near


class Drawn:
    """Fixed draws by label in place of ``st.data()``, for an explicit example."""

    def __init__(self, **draws):
        self.draws = draws

    def draw(self, strategy, label):
        return self.draws[label]


def assert_same_bits(got, want):
    """Every bit of each part, but the sign and payload of a nan."""
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(np.isnan(g), np.isnan(w))
        finite = ~np.isnan(g)
        assert g[finite].tobytes() == w[finite].tobytes()


class TestValuesPass:
    @pytest.mark.parametrize("starts", ["dense", "sparse"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), kind=KIND)
    # The blocked sums give +nan in the imaginary part where the sequential
    # sum gives -nan: a nan's sign is not part of the contract.
    @example(
        data=Drawn(window=(1, [6], None), seed=0, table=[NEG_ZERO] * 10 + [INF, NEG_ZERO, NAN]),
        kind="representation_ring",
    )
    def test_windows_up_to_2_19(self, starts, data, kind):
        block, rows, columns = data.draw(pass_windows(starts), label="window")
        # A drawn table, with its non-finite values and signed zeros, and a
        # random one, whose distinct values show a term read at a wrong offset.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tables = [
            data.draw(st.lists(PASS_VALUES, min_size=13, max_size=13), label="table"),
            (rng.standard_normal(13) + 1j * rng.standard_normal(13)).tolist(),
        ]
        cols = rows if columns is None else columns
        normalized = kind == "normalized"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_hypergroup, "_BAND_BLOCK", block)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                fresh = [pair_grid(SU2, rows, columns, cyclic_values_at(t), kind) for t in tables]
            # One plan, two values passes: the bits of fresh pair_grid calls.
            plan = dual_hypergroup._pair_plan(SU2, rows, columns)
            with np.errstate(invalid="ignore", over="ignore"):
                shared = [
                    dual_hypergroup._pair_values(plan, cyclic_values_at(t)(plan.ks.tolist()), kind)
                    for t in tables
                ]
        for got, again, table in zip(fresh, shared, tables):
            assert got.shape == again.shape == (len(rows), len(cols))
            assert got.tobytes() == again.tobytes()
            with np.errstate(all="ignore"):
                ring, near = band_sums(rows, cols, table, normalized)
                if normalized:
                    scale = 1.0 / np.multiply.outer(np.add(rows, 1), np.add(cols, 1)).ravel()
                    ring.real *= scale
                    ring.imag *= scale
            assert_same_bits(got.ravel(), ring)
            if not normalized:
                continue
            for entry, (want, size, n) in zip(got.ravel(), near):
                if np.isfinite(entry) and np.isfinite(want) and np.isfinite(size):
                    assert abs(entry - want) <= 4 * (n + 2) * (2.0**-53 * size + 2.0**-1074)


def slots(plan):
    """Every ``__slots__`` name of a plan's class and its bases."""
    return [name for cls in type(plan).__mro__ for name in getattr(cls, "__slots__", ())]


def slot_bytes(value):
    """The bytes of a slot's arrays, in a tuple or alone, to see them written in place."""
    if isinstance(value, tuple):
        return tuple(slot_bytes(v) for v in value)
    return value.tobytes() if isinstance(value, np.ndarray) else value


class TestReadOnlyPlan:
    """A plan is only read, so values passes on it run in any order."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("plan_type", ["one block", "several blocks", "terms"])
    def test_no_slot_rebound(self, plan_type, order):
        dual = FINITE["q8"] if plan_type == "terms" else SU2
        labels = [4, 0, 1, 2, 3] if plan_type == "terms" else [0, 3, 1, 5, 2, 9]
        block = 7 if plan_type == "several blocks" else dual_hypergroup._BAND_BLOCK
        rng = np.random.default_rng(28)
        drawn = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        passes = [
            (cyclic_values_at([INF, 2.0, complex(1, NAN), NEG_ZERO, -3j]), "representation_ring"),
            (cyclic_values_at(drawn), "normalized"),
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dual_hypergroup, "_BAND_BLOCK", block)
            plan = dual_hypergroup._pair_plan(dual, labels, None)
            if plan_type == "terms":
                assert type(plan) is dual_hypergroup._TermPlan
            else:
                assert type(plan) is dual_hypergroup._BandPlan
                assert (plan.blocks is None) == (plan_type == "one block")
            before = {name: getattr(plan, name) for name in slots(plan)}
            held = {name: slot_bytes(value) for name, value in before.items()}
            for i in order:
                values_at, kind = passes[i]
                want = pair_grid(dual, labels, None, values_at, kind)
                with np.errstate(invalid="ignore", over="ignore"):
                    got = dual_hypergroup._pair_values(plan, values_at(plan.ks.tolist()), kind)
                assert got.tobytes() == want.tobytes(), (plan_type, kind)
                for name in slots(plan):
                    assert getattr(plan, name) is before[name], name
                    assert slot_bytes(before[name]) == held[name], name
