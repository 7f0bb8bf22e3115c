"""Random fields indexed by the dual: noise, construction and checks.

A field assigns a square-integrable random variable to every irreducible
label; its value at a reducible element is always the multiplicity-
weighted sum of irreducible values, taken through
:func:`evaluate_at_vector`.  Samplers own their generator state, so one
instance must be driven from a single execution context at a time;
separately seeded instances are independent and may run concurrently.
Verdicts about stationarity are rendered from exact second-moment
oracles only; Monte Carlo enters solely through
:func:`estimate_covariance`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .central_measures import CentralMeasure, FiniteClassMeasure
from .dual_hypergroup import DualStructure, DualVector, FiniteGroupDual, Label, convolve
from .dual_hypergroup import pair_matrix, pair_sum
from .errors import CapabilityError

SecondMomentOracle = Callable[[Label, Label], complex]


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
        block = self._rng.normal(size=(2, count, len(ordered)), scale=np.sqrt(0.5))
        values = block[0] + 1j * block[1]
        return {label: values[:, i] for i, label in enumerate(ordered)}

    def second_moment(self, a, b):
        self.dual.validate_label(a)
        self.dual.validate_label(b)
        return 1.0 + 0j if a == b else 0j

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
        return pair_sum(self.dual, a, b, self._fourier)

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


def _build_report(condition, pairs, tol):
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


def _check_pairs(condition, dual, oracle, labels, kind, tol):
    labels = list(labels)
    rhs = pair_matrix(dual, labels, lambda k: oracle(k, dual.neutral), kind).ravel().tolist()
    grid = [(a, b) for a in labels for b in labels]
    pairs = [(a, b, complex(oracle(a, b)), r) for (a, b), r in zip(grid, rhs)]
    return _build_report(condition, pairs, tol)


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
    """Adjoint construction of the scattered measure for a finite field.

    In the sample space of the constructed field, the span of the field
    values maps isometrically onto central functions by sending Y_pi to
    its character; the scattered measure of a class is the adjoint image
    of that class indicator.  Classes of measure zero carry the zero
    variable, which the descriptor records.
    """
    if not isinstance(field, KolmogorovField) or not isinstance(
        field.measure, FiniteClassMeasure
    ):
        raise CapabilityError(
            "the scattered decomposition is constructed only for fields over finite groups"
        )
    measure = field.measure
    dual: FiniteGroupDual = measure.dual
    chars = dual.data.characters
    w = measure.class_weights
    # Gram[i, j] = <Y_i, Y_j>; right-hand side column c is <1_c, chi_i>.
    gram = (chars * w) @ chars.conj().T
    rhs = chars.conj() * w
    coeffs, *_ = np.linalg.lstsq(gram.T, rhs, rcond=None)
    values = coeffs.T @ chars
    dead = [dual.label_to_str(c) for c in range(len(w)) if w[c] == 0]
    note = f"; null classes: {', '.join(dead)}" if dead else ""
    return ScatteredMeasure(
        measure, values, f"scattered({measure.description}{note})"
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceEstimate:
    mean: complex
    stderr: float
    n_samples: int


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
    if not 1 <= n_streams <= n_samples:
        raise ValueError("stream count must be between 1 and the sample count")
    base, extra = divmod(n_samples, n_streams)
    counts = [base + (1 if j < extra else 0) for j in range(n_streams)]
    chunks = []
    for j, count in enumerate(counts):
        if count == 0:
            continue
        sampler = field.reseeded(seed + j)
        values = sampler.sample_batch([pi1, pi2], count)
        chunks.append(values[pi1] * np.conj(values[pi2]))
    return jackknife_estimate(np.concatenate(chunks))


def jackknife_estimate(products: np.ndarray) -> CovarianceEstimate:
    """Sample mean of a product array with its delete-one jackknife error."""
    n = products.size
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = complex(products.mean())
    leave_one_out = (products.sum() - products) / (n - 1)
    stderr = float(
        np.sqrt((n - 1) / n * (np.abs(leave_one_out - leave_one_out.mean()) ** 2).sum())
    )
    return CovarianceEstimate(mean=mean, stderr=stderr, n_samples=n)
