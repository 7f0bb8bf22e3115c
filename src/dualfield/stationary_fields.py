"""Random fields indexed by the dual: noise, construction and checks.

A field assigns a square-integrable random variable to every irreducible
label; its value at a reducible element is always the multiplicity-
weighted sum of irreducible values, taken through
:func:`evaluate_at_vector`.  Samplers own their generator state, so one
instance must be driven from a single execution context at a time;
separately seeded instances are independent and may run concurrently.
Verdicts about stationarity are rendered from exact second-moment
oracles only; Monte Carlo enters solely through
:func:`estimate_covariance` and :func:`estimate_covariance_matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .central_measures import CentralMeasure, FiniteClassMeasure
from .dual_hypergroup import DualStructure, DualVector, FiniteGroupDual, Label, pair_matrix
from .dual_hypergroup import convolve  # noqa: F401  perfbench/instrument.py wraps this name
from .errors import CapabilityError

SecondMomentOracle = Callable[[Label, Label], complex]


def white_noise_sequence(shape, seed=None, rng=None) -> np.ndarray:
    """Circular complex Gaussian draws with unit second moment.

    ``shape`` is a count or a tuple.  The real parts are drawn first as one
    block of that shape and the imaginary parts after them.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    shape = shape if isinstance(shape, tuple) else (shape,)
    block = rng.normal(size=(2, *shape), scale=np.sqrt(0.5))
    return block[0] + 1j * block[1]


def evaluate_at_vector(sample: Mapping[Label, object], vec: DualVector):
    """Decomposable extension: value of a joint sample at a reducible element."""
    total = None
    for label, mult in vec.items():
        term = mult * sample[label]
        total = term if total is None else total + term
    return 0j if total is None else total


class FieldSampler:
    """Joint sampler over irreducible labels with an exact moment oracle."""

    dual: DualStructure
    descriptor: str

    def __init__(self, dual: DualStructure, seed, descriptor: str):
        self.dual = dual
        self.seed = seed
        self.descriptor = descriptor
        self._rng = np.random.default_rng(seed)

    def sample_batch(self, labels: Iterable[Label], count: int) -> dict[Label, np.ndarray]:
        """Draw ``count`` independent joint samples at the given labels."""
        raise NotImplementedError

    def sample(self, labels: Iterable[Label]) -> dict[Label, complex]:
        batch = self.sample_batch(labels, 1)
        return {label: complex(values[0]) for label, values in batch.items()}

    def second_moment(self, a: Label, b: Label) -> complex:
        """Exact E(Y_a conj(Y_b)); raises if no oracle is available."""
        raise CapabilityError(f"{self.descriptor}: no exact second-moment oracle")

    def second_moment_matrix(self, labels: Sequence[Label]) -> np.ndarray:
        """Entry (i, j) is ``second_moment(labels[i], labels[j])``, bit for bit."""
        return pairwise_matrix(self.second_moment, labels)

    def reseeded(self, seed) -> "FieldSampler":
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor}>"


class WhiteNoiseField(FieldSampler):
    """Uncorrelated unit-second-moment values on irreducibles.

    Each label carries an independent circular complex Gaussian: real and
    imaginary parts are independent, mean zero, variance one half.  The
    law is a choice; only the second moments are contractual.
    """

    def __init__(self, dual: DualStructure, seed=0):
        super().__init__(dual, seed, f"whitenoise(circular gaussian, seed={seed})")

    def sample_batch(self, labels, count):
        ordered = sorted(set(labels))
        for label in ordered:
            self.dual.validate_label(label)
        values = white_noise_sequence((count, len(ordered)), rng=self._rng)
        return {label: values[:, i] for i, label in enumerate(ordered)}

    def second_moment(self, a, b):
        self.dual.validate_label(a)
        self.dual.validate_label(b)
        return 1.0 + 0j if a == b else 0j

    def second_moment_matrix(self, labels):
        index = np.array([self.dual.validate_label(x) for x in labels])
        return (index[:, None] == index[None, :]).astype(complex)

    def reseeded(self, seed):
        return WhiteNoiseField(self.dual, seed)


class KolmogorovField(FieldSampler):
    """Field built from a central probability measure.

    A class coordinate is drawn from the measure and the field takes the
    character values at that coordinate, so the exact covariance is the
    transform of the measure evaluated decomposably on tensor products.
    """

    def __init__(self, measure: CentralMeasure, seed=0):
        if not measure.is_probability(tol=1e-8):
            raise ValueError(
                f"field construction needs a probability measure, got mass "
                f"{measure.total_mass()!r} ({measure.description})"
            )
        self.measure = measure
        self.last_coordinates: np.ndarray | None = None
        self._fourier_cache: dict[Label, complex] = {}
        super().__init__(measure.dual, seed, f"kolmogorov({measure.description}, seed={seed})")

    def sample_batch(self, labels, count):
        ordered = sorted(set(labels))
        coords = self.measure.sample_coordinates(self._rng, count)
        self.last_coordinates = coords
        rows = np.asarray(self.measure.characters_at(ordered, coords), dtype=complex)
        return dict(zip(ordered, rows))

    def _fourier(self, label: Label) -> complex:
        found = self._fourier_cache.get(label)
        if found is None:
            found = self.measure.fourier(label)
            self._fourier_cache[label] = found
        return found

    def second_moment(self, a, b):
        terms = self.dual.tensor(a, self.dual.conjugate(b))
        return complex(sum(c * complex(self._fourier(k)) for k, c in terms.items()))

    def second_moment_matrix(self, labels):
        return pair_matrix(self.dual, labels, self._fourier)

    def covariance(self, label: Label) -> complex:
        """C(label) = E(Y_label conj(Y_neutral)) = transform of the measure."""
        return self.second_moment(label, self.dual.neutral)

    def reseeded(self, seed):
        return KolmogorovField(self.measure, seed)


class TranslatedField(FieldSampler):
    """Image of a field under the translation attached to one label.

    The value at a label is the decomposable evaluation of the base field
    at the tensor product with the translating label, from one joint draw
    of the base field.
    """

    def __init__(self, base: FieldSampler, shift: Label):
        self.base = base
        self.shift = base.dual.validate_label(shift)
        super().__init__(
            base.dual, base.seed, f"translate({base.descriptor}, by={shift})"
        )

    def _shifted(self, label: Label) -> DualVector:
        return self.dual.tensor(label, self.shift)

    def sample_batch(self, labels, count):
        ordered = sorted(set(labels))
        needed = sorted({k for label in ordered for k in self._shifted(label).support})
        base_values = self.base.sample_batch(needed, count)
        return {
            label: evaluate_at_vector(base_values, self._shifted(label))
            for label in ordered
        }

    def second_moment(self, a, b):
        va = self._shifted(a)
        vb = self._shifted(b)
        total = 0j
        for k1, m1 in va.items():
            for k2, m2 in vb.items():
                total += m1 * np.conj(m2) * self.base.second_moment(k1, k2)
        return complex(total)

    def second_moment_matrix(self, labels):
        if not isinstance(self.base, WhiteNoiseField):
            return super().second_moment_matrix(labels)
        # Over white noise every term is m1 m2 [k1 == k2], an exact integer.
        index = np.array([self.dual.validate_label(x) for x in labels])[:, None]
        shift = np.array([[self.shift]])
        counts = np.hstack([m for _, m in self.dual.multiplicities(index, shift)])
        return (counts @ counts.T).astype(complex)

    def reseeded(self, seed):
        return TranslatedField(self.base.reseeded(seed), self.shift)


def white_noise(dual: DualStructure, seed=0) -> WhiteNoiseField:
    return WhiteNoiseField(dual, seed)


def kolmogorov_field(measure: CentralMeasure, seed=0) -> KolmogorovField:
    return KolmogorovField(measure, seed)


def translate(field: FieldSampler, shift: Label) -> TranslatedField:
    return TranslatedField(field, shift)


# ---------------------------------------------------------------------------
# Stationarity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    pi1: Label
    pi2: Label
    lhs: complex
    rhs: complex

    @property
    def violation(self) -> float:
        return abs(self.lhs - self.rhs)


@dataclass(frozen=True)
class StationarityReport:
    condition: str
    passed: bool
    max_violation: float
    tol: float
    witnesses: tuple[Witness, ...]

    def to_json_dict(self, label_to_str=str) -> dict:
        return {
            "condition": self.condition,
            "pass": self.passed,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "witnesses": [
                {
                    "pi1": label_to_str(w.pi1),
                    "pi2": label_to_str(w.pi2),
                    "lhs": [w.lhs.real, w.lhs.imag],
                    "rhs": [w.rhs.real, w.rhs.imag],
                    "violation": w.violation,
                }
                for w in self.witnesses
            ],
        }


def pairwise_matrix(oracle: SecondMomentOracle, labels: Sequence[Label]) -> np.ndarray:
    """Entry (i, j) is ``oracle(labels[i], labels[j])``, called in row-major order."""
    return np.array([[complex(oracle(a, b)) for b in labels] for a in labels], dtype=complex)


def moment_matrix(oracle: SecondMomentOracle, labels: Sequence[Label]) -> np.ndarray:
    """E(Y_a conj(Y_b)) over a label window, from the oracle's own matrix when it has one.

    A field's bound ``second_moment`` is served by ``second_moment_matrix``
    and any callable with a ``matrix(labels)`` attribute by that attribute;
    both equal the per-pair values bit for bit.  Every other callable is
    asked once per pair.
    """
    owner = getattr(oracle, "__self__", None)
    if isinstance(owner, FieldSampler) and oracle == owner.second_moment:
        return owner.second_moment_matrix(labels)
    matrix = getattr(oracle, "matrix", None)
    if matrix is not None:
        return matrix(labels)
    return pairwise_matrix(oracle, labels)


def _check_pairs(condition, dual, oracle, labels, kind, tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    labels = list(labels)
    n = len(labels)
    # Non-finite moments are refused below, so their arithmetic needs no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        rhs = pair_matrix(dual, labels, lambda k: oracle(k, dual.neutral), kind).ravel()
        lhs = moment_matrix(oracle, labels).ravel()
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        if not finite.all():
            p = int(np.argmin(finite))
            raise ValueError(
                f"{condition}: non-finite second moment at pair "
                f"({labels[p // n]!r}, {labels[p % n]!r}): "
                f"lhs {complex(lhs[p])}, rhs {complex(rhs[p])}"
            )
        diff = lhs - rhs
        # hypot has the bits of abs(complex); np.abs differs in the last bit.
        violation = np.hypot(diff.real, diff.imag)
    flagged = np.flatnonzero(violation > tol)
    flagged = flagged[np.argsort(-violation[flagged], kind="stable")]
    worst = float(violation.max())
    return StationarityReport(
        condition=condition,
        passed=worst <= tol,
        max_violation=worst,
        tol=tol,
        witnesses=tuple(
            Witness(labels[p // n], labels[p % n], left, right)
            for p, left, right in zip(
                flagged.tolist(), lhs[flagged].tolist(), rhs[flagged].tolist()
            )
        ),
    )


def check_stationarity(
    dual: DualStructure,
    oracle: SecondMomentOracle,
    labels: Sequence[Label],
    tol: float = 1e-12,
) -> StationarityReport:
    """Compare E(Y_a conj(Y_b)) with the decomposable moment at a (x) b*.

    For every ordered pair of labels the right-hand side is the
    multiplicity-weighted sum of E(Y_k conj(Y_neutral)) over the tensor
    decomposition of the pair (with the second label conjugated).  The
    oracle must be total on the labels and on every irreducible appearing
    in those decompositions.
    """
    return _check_pairs("statdef", dual, oracle, labels, "representation_ring", tol)


def check_hypergroup_stationarity(
    dual: DualStructure,
    covariance: SecondMomentOracle,
    labels: Sequence[Label],
    kind: str = "representation_ring",
    tol: float = 1e-12,
) -> StationarityReport:
    """Hypergroup form of the check, under either convolution.

    The right-hand side integrates C(., neutral) against the convolution
    of the point mass at the first label with the point mass at the
    conjugate of the second.  With the representation-ring convolution
    this is the same condition as :func:`check_stationarity`; with the
    dimension-normalized convolution it is a genuinely different one.
    """
    return _check_pairs(f"stathyp:{kind}", dual, covariance, labels, kind, tol)


# ---------------------------------------------------------------------------
# Orthogonally scattered decomposition at finite-group scale
# ---------------------------------------------------------------------------


class ScatteredMeasure:
    """Random set function over conjugacy classes with orthogonal scattering.

    Values live in the finite-dimensional sample space of a constructed
    field: each class maps to a random variable represented as a function
    on class coordinates, with expectations taken against the base
    measure.
    """

    def __init__(self, measure: FiniteClassMeasure, values: np.ndarray, descriptor: str):
        self.measure = measure
        self.values = values  # row c: the random variable Gamma({c})
        self.descriptor = descriptor

    def _expect(self, f: np.ndarray, h: np.ndarray) -> complex:
        return complex((self.measure.class_weights * f * np.conj(h)).sum())

    def random_variable(self, classes: Iterable[int]) -> np.ndarray:
        """Gamma(A) for a union of classes, as a function on coordinates."""
        out = np.zeros(self.values.shape[1], dtype=complex)
        for c in set(classes):
            out += self.values[c]
        return out

    def expected_product(self, classes_a: Iterable[int], classes_b: Iterable[int]) -> complex:
        return self._expect(self.random_variable(classes_a), self.random_variable(classes_b))

    def second_moment(self, classes: Iterable[int]) -> float:
        value = self.expected_product(classes, classes)
        return float(value.real)

    def measure_of(self, classes: Iterable[int]) -> float:
        return float(sum(self.measure.class_weights[c] for c in set(classes)))

    def reconstruction_residual(self) -> float:
        """Largest L2 distance between Y_pi and the character integral of Gamma."""
        dual = self.measure.dual
        worst = 0.0
        for label in dual.labels():
            row = dual.character(label)
            rebuilt = row @ self.values
            diff = row - rebuilt
            worst = max(worst, float(np.sqrt(self._expect(diff, diff).real)))
        return worst


def cramer_decompose_finite(field: KolmogorovField) -> ScatteredMeasure:
    """Scattered measure of a finite field: Gamma({c}) is the indicator of class c.

    The sample point of the constructed field is the class coordinate and
    Y_pi = chi_pi(class) = sum_c chi_pi(c) 1_c, so the indicators integrate
    the characters to the field exactly and scatter orthogonally,
    E(1_a conj(1_b)) = mu({a} & {b}).  Classes of measure zero carry the
    zero variable, which the descriptor records.
    """
    if not isinstance(field, KolmogorovField) or not isinstance(
        field.measure, FiniteClassMeasure
    ):
        raise CapabilityError(
            "the scattered decomposition is constructed only for fields over finite groups"
        )
    measure = field.measure
    dual: FiniteGroupDual = measure.dual
    w = measure.class_weights
    values = np.diag((w > 0).astype(float))
    dead = [f"class {c}" for c in range(len(w)) if w[c] == 0]
    note = f"; null classes: {', '.join(dead)}" if dead else ""
    return ScatteredMeasure(
        measure, values, f"scattered({measure.description}{note})"
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceEstimate:
    """Monte Carlo mean and jackknife error; arrays when estimated over a window."""

    mean: complex | np.ndarray
    stderr: float | np.ndarray
    n_samples: int


def _stream_draws(field: FieldSampler, labels, n_samples: int, seed, n_streams: int):
    """One ``sample_batch`` per stream: stream j is reseeded with seed + j."""
    if not 1 <= n_streams <= n_samples:
        raise ValueError("stream count must be between 1 and the sample count")
    base, extra = divmod(n_samples, n_streams)
    counts = [base + (1 if j < extra else 0) for j in range(n_streams)]
    return [
        field.reseeded(seed + j).sample_batch(labels, count)
        for j, count in enumerate(counts)
    ]


def estimate_covariance(
    field: FieldSampler,
    pi1: Label,
    pi2: Label,
    n_samples: int,
    seed,
    n_streams: int = 1,
) -> CovarianceEstimate:
    """Monte Carlo estimate of E(Y_pi1 conj(Y_pi2)) with jackknife error.

    The estimate is a deterministic function of the per-stream seeds
    (seed + stream index) and per-stream counts, so a sharded run gives
    the same value as the equivalent sequence of single-stream runs.
    """
    draws = _stream_draws(field, [pi1, pi2], n_samples, seed, n_streams)
    return jackknife_estimate(
        np.concatenate([values[pi1] * np.conj(values[pi2]) for values in draws])
    )


def estimate_covariance_matrix(
    field: FieldSampler,
    labels: Sequence[Label],
    n_samples: int,
    seed,
    n_streams: int = 1,
) -> CovarianceEstimate:
    """Monte Carlo estimates of E(Y_a conj(Y_b)) over a label window, from one draw per stream.

    Entry (i, j) of ``mean`` and ``stderr`` estimates the pair
    (labels[i], labels[j]).  Each stream draws the whole window once, with
    the seeds and counts of :func:`estimate_covariance`, and every product
    is formed as there, so an entry has the bits of that function whenever
    the field's values at a label do not depend on the other labels drawn
    (Kolmogorov fields; white noise draws per label and differs).  Rows
    are reduced one at a time: memory stays linear in window times samples.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    draws = _stream_draws(field, labels, n_samples, seed, n_streams)
    rows = [
        jackknife_estimate(
            np.stack(
                [
                    np.concatenate([values[a] * np.conj(values[b]) for values in draws])
                    for b in labels
                ]
            )
        )
        for a in labels
    ]
    return CovarianceEstimate(
        mean=np.array([row.mean for row in rows]),
        stderr=np.array([row.stderr for row in rows]),
        n_samples=n_samples,
    )


def jackknife_estimate(products: np.ndarray) -> CovarianceEstimate:
    """Sample mean along the last axis with its delete-one jackknife error.

    A 1-D array gives one estimate; each row of a stack gives the bits of
    the 1-D call on that row.
    """
    n = products.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = products.mean(axis=-1)
    leave_one_out = (products.sum(axis=-1, keepdims=True) - products) / (n - 1)
    spread = np.abs(leave_one_out - leave_one_out.mean(axis=-1, keepdims=True)) ** 2
    stderr = np.sqrt((n - 1) / n * spread.sum(axis=-1))
    if products.ndim == 1:
        return CovarianceEstimate(mean=complex(mean), stderr=float(stderr), n_samples=n)
    return CovarianceEstimate(mean=mean, stderr=stderr, n_samples=n)
