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

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .central_measures import CentralMeasure, FiniteClassMeasure
from .dual_hypergroup import (
    DualStructure,
    DualVector,
    Label,
    _check_kind,
    _pair_plan,
    _pair_values,
    _shown,
    pair_grid,
    per_label,
)
from .dual_hypergroup import convolve  # noqa: F401  perfbench/instrument.py wraps this name
from .errors import CapabilityError

SecondMomentOracle = Callable[[Label, Label], complex]


# Normals per ``rng.normal`` call when a draw is written into its output:
# the float temporary stays cache-sized whatever the draw's size.
_DRAW_CHUNK = 1 << 14


def white_noise_sequence(shape, seed=None, rng=None) -> np.ndarray:
    """Circular complex Gaussian draws with unit second moment.

    ``shape`` is a count or a tuple.  The real parts are drawn first, in C
    order of that shape, and the imaginary parts after them: the stream of
    ``rng.normal(size=(2, *shape), scale=sqrt(0.5))``.  Each part is written
    straight into the one complex output, a cache-sized chunk at a time, so
    a draw holds 16 bytes a value plus one chunk.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    values = np.empty(shape, dtype=complex)
    _fill_white_noise(values.reshape(-1), rng)
    return values


def _white_noise_rows(rows: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Label-major noise: the bits of ``white_noise_sequence((count, rows), rng=rng).T``, C-contiguous.

    Row j holds the ``count`` draws of noise index j, so a label's samples
    are one contiguous row.
    """
    values = np.empty((rows, count), dtype=complex)
    _fill_white_noise(values.T, rng)
    return values


def _fill_white_noise(view: np.ndarray, rng: np.random.Generator) -> None:
    """Write the stream of :func:`white_noise_sequence` over ``view``, in its C order.

    ``view`` is a complex array of at least one axis, or a view of one with
    any strides; its real parts are drawn first, then its imaginary parts,
    in blocks of leading-axis rows of about ``_DRAW_CHUNK`` values.
    """
    width = max(1, math.prod(view.shape[1:]))
    step = max(1, _DRAW_CHUNK // width)
    for part in (view.real, view.imag):
        for start in range(0, len(part), step):
            block = part[start : start + step]
            block[...] = rng.normal(size=block.shape, scale=np.sqrt(0.5))


def evaluate_at_vector(sample: Mapping[Label, object], vec: DualVector):
    """Decomposable extension: value of a joint sample at a reducible element.

    The terms mult * sample[label] are added in the order of ``vec``, in
    place into the first.
    """
    total = None
    for label, mult in vec.items():
        if total is None:
            total = mult * sample[label]
        else:
            total += mult * sample[label]
    return 0j if total is None else total


def _sum_into(row: np.ndarray, sample: Mapping[Label, np.ndarray], terms) -> None:
    """Write the sum of mult * sample[label] over the (label, mult) ``terms`` over ``row``.

    The terms are added in their order, in place into the first, which is
    multiplied into ``row``.  A later term of multiplicity 1 is added as it
    stands, with no product: (1+0j) x has the bits of x unless a part of x
    is -0.0 or not finite.
    """
    total = None
    for label, mult in terms:
        x = sample[label]
        if total is None:
            total = np.multiply(mult, x, out=row)
        elif mult == 1:
            np.add(total, x, out=total)
        else:
            total += mult * x
    if total is None:
        row.fill(0)


class FieldSampler:
    """Joint sampler over irreducible labels with an exact moment oracle.

    The generator ``np.random.default_rng(seed)`` is built the first time
    ``_rng`` is read, so fields used only for their moments never import
    ``numpy.random``.

    A field whose moment is the ring pair sum of a per-label table C,
    E(Y_a conj(Y_b)) = sum_k m_{a (x) conj(b)}(k) C(k), returns that table's
    ``values_at`` from :meth:`_table`; its ``second_moment_matrix`` and a
    check's left side are values passes of it.  A subclass that overrides
    ``second_moment`` or ``second_moment_matrix`` but not ``_table`` has no
    table, and the per-pair matrix unless it overrides the matrix too.
    """

    dual: DualStructure
    descriptor: str

    def __init__(self, dual: DualStructure, seed, descriptor: str):
        self.dual = dual
        self.seed = seed
        self.descriptor = descriptor

    @functools.cached_property
    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if ("second_moment" in own or "second_moment_matrix" in own) and "_table" not in own:
            cls._table = FieldSampler._table
            if "second_moment_matrix" not in own:
                cls.second_moment_matrix = FieldSampler.second_moment_matrix

    def sample_batch(self, labels: Iterable[Label], count: int) -> dict[Label, np.ndarray]:
        """Draw ``count`` independent joint samples at the given labels."""
        raise NotImplementedError

    def sample(self, labels: Iterable[Label]) -> dict[Label, complex]:
        batch = self.sample_batch(labels, 1)
        return {label: complex(values[0]) for label, values in batch.items()}

    def second_moment(self, a: Label, b: Label) -> complex:
        """Exact E(Y_a conj(Y_b)); raises if no oracle is available."""
        raise CapabilityError(f"{self.descriptor}: no exact second-moment oracle")

    def second_moment_matrix(
        self, labels: Sequence[Label], columns: Sequence[Label] | None = None
    ) -> np.ndarray:
        """Entry (i, j) is ``second_moment(labels[i], columns[j])``, bit for bit.

        ``columns`` defaults to ``labels``.  With a table, the ring
        :func:`pair_grid` of it; the neutral column alone is the table
        itself, since k (x) conj(neutral) is k once.
        """
        table = self._table()
        if table is None:
            return pairwise_matrix(self.second_moment, labels, columns)
        rows, cols = self._window(labels, columns)
        if cols.tolist() == [self.dual.neutral]:
            return (1 * table(rows.tolist()) + 0j)[:, None]
        return pair_grid(self.dual, rows, None if columns is None else cols, table)

    def _table(self) -> Callable[[list[Label]], np.ndarray] | None:
        """The ``values_at`` of k -> C(k) when the moment is its ring pair sum, else None."""
        return None

    def _window(self, labels, columns):
        """Validated row and column label arrays of a moment matrix.

        A check asks for moments at the labels its pairs derive, so these are
        validated as derived labels.
        """
        rows = self.dual.validate_derived_labels(labels)
        return rows, rows if columns is None else self.dual.validate_derived_labels(columns)

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
        self.dual.validate_labels(ordered)
        return dict(zip(ordered, _white_noise_rows(len(ordered), count, self._rng)))

    def second_moment(self, a, b):
        self.dual.validate_derived_label(a)
        self.dual.validate_derived_label(b)
        return 1.0 + 0j if a == b else 0j

    def _table(self):
        neutral = self.dual.neutral
        return lambda ks: (np.asarray(ks) == neutral).astype(complex)

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
        super().__init__(measure.dual, seed, f"kolmogorov({measure.description}, seed={seed})")

    def sample_batch(self, labels, count):
        ordered = sorted(set(labels))
        coords = self.measure.sample_coordinates(self._rng, count)
        self.last_coordinates = coords
        return dict(zip(ordered, self.measure._complex_characters(ordered, coords)))

    def second_moment(self, a, b):
        terms = self.dual.tensor(a, self.dual.conjugate(b))
        return complex(sum(c * complex(self.measure.fourier(k)) for k, c in terms.items()))

    def _table(self):
        return per_label(self.measure.fourier)

    def covariance(self, label: Label) -> complex:
        """C(label) = E(Y_label conj(Y_neutral)) = transform of the measure."""
        return self.second_moment(label, self.dual.neutral)

    def reseeded(self, seed):
        return KolmogorovField(self.measure, seed)


class TranslatedField(FieldSampler):
    """Image of a field under the translation attached to one label.

    The value at a label is the decomposable evaluation of the base field
    at the tensor product with the translating label, from one joint draw
    of the base field.  Over white noise, character orthogonality makes
    E(Y_a conj(Y_b)) the sum of m_{a (x) conj(b)}(k) m_{s (x) conj(s)}(k) for
    the shift s: the field's table is k -> m_{s (x) conj(s)}(k), from one
    ``tensor`` call, in integers with the bits of ``second_moment``.  Over
    any other base it has no table.
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
        """The base's values at each label's tensor product with the shift, from one joint draw.

        Each label is decomposed once.  After a label's first term, terms of
        multiplicity 1 are added as they stand, not multiplied by (1+0j),
        which keeps the bits of the multiplied sum unless a part of such a
        term is -0.0 or not finite.  No builtin base draws a non-finite
        part.  Only torus characters at the angle 0 have a -0.0 part (the
        imaginary part at negative labels), and a torus label has one term.
        """
        ordered = sorted(set(labels))
        terms = {label: self._shifted(label).items() for label in ordered}
        needed = sorted({k for items in terms.values() for k, _ in items})
        # The rows are allocated before the base draw, so the draw, freed on
        # return, lies above them at the top of the heap and is given back,
        # rather than left resident below them as a hole.
        values = {label: np.empty(count, dtype=complex) for label in ordered}
        base_values = self.base.sample_batch(needed, count)
        for label, row in values.items():
            _sum_into(row, base_values, terms[label])
        return values

    def _over_white_noise(self) -> bool:
        return type(self.base)._table is WhiteNoiseField._table

    def _square(self) -> DualVector:
        """The multiplicities k -> m_{s (x) conj(s)}(k) of the shift s."""
        return self.dual.tensor(self.shift, self.dual.conjugate(self.shift))

    def second_moment(self, a, b):
        if self._over_white_noise():
            # The orthogonality sum of the table, which needs no
            # shifted label: small integers, so the bits of the loop below.
            square = self._square()
            terms = self.dual.tensor(a, self.dual.conjugate(b))
            return complex(sum((m * square.coeff(k) for k, m in terms.items()), 0j))
        return self._double_sum(self._shifted(a), self._shifted(b), self.base.second_moment)

    @staticmethod
    def _double_sum(va: DualVector, vb: DualVector, moment) -> complex:
        total = 0j
        for k1, m1 in va.items():
            for k2, m2 in vb.items():
                total += m1 * np.conj(m2) * moment(k1, k2)
        return complex(total)

    def second_moment_matrix(self, labels, columns=None):
        """Over white noise, the table's pass; else one base matrix over the shifted labels.

        Each entry is then :meth:`second_moment`'s double sum over that
        matrix, so the base is read once per matrix, not once per term.
        """
        if self._over_white_noise():
            return super().second_moment_matrix(labels, columns)
        columns = labels if columns is None else columns
        shifted = {label: self._shifted(label) for label in [*labels, *columns]}
        rows, cols = (
            {k: i for i, k in enumerate(sorted({k for x in side for k in shifted[x].support}))}
            for side in (labels, columns)
        )
        base = self.base.second_moment_matrix(list(rows), list(cols))
        moment = lambda k1, k2: base[rows[k1], cols[k2]]  # noqa: E731
        return np.array(
            [[self._double_sum(shifted[a], shifted[b], moment) for b in columns] for a in labels],
            dtype=complex,
        )

    def _table(self):
        """k -> m_{s (x) conj(s)}(k) over white noise, 0j off its support; else None."""
        if not self._over_white_noise():
            return None
        support, mult = (np.array(x) for x in zip(*sorted(self._square().items())))

        def values_at(ks):
            at = np.minimum(np.searchsorted(support, ks), len(support) - 1)
            return np.where(support[at] == ks, mult[at], 0j)

        return values_at

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


@dataclass(frozen=True, eq=False)
class _Window:
    """A failing window: its labels, its flat lhs, rhs and violation arrays, and ``tol``.

    Once :meth:`ordered`, it holds only the pairs above ``tol``, at flat indices ``flagged``.
    """

    labels: list
    lhs: np.ndarray
    rhs: np.ndarray
    violation: np.ndarray
    tol: float
    flagged: np.ndarray | None = None

    def ordered(self) -> "_Window":
        """The pairs above ``tol`` by descending violation, ties in window order."""
        if self.flagged is not None:
            return self
        flagged = np.flatnonzero(self.violation > self.tol)
        flagged = flagged[np.argsort(-self.violation[flagged], kind="stable")]
        cut = (self.lhs[flagged], self.rhs[flagged], self.violation[flagged])
        return _Window(self.labels, *cut, self.tol, flagged)

    def pairs(self):
        n = len(self.labels)
        return [(self.labels[p // n], self.labels[p % n]) for p in self.flagged.tolist()]


def _read(report):
    """What ``report`` stores, a tuple or a :class:`_Window`, ordered in place on the first read."""
    stored = report.__dict__["_witnesses"]
    if isinstance(stored, _Window):
        stored = report.__dict__["_witnesses"] = stored.ordered()
    return stored


class _LazyWitnesses:
    """Data descriptor of ``StationarityReport.witnesses``.

    It stores what the report was built with, a tuple or a :class:`_Window`,
    and on the first read turns the flagged pairs into the tuple.
    """

    def __get__(self, report, owner=None):
        if report is None:
            # dataclass reads the class attribute as the default; none, so the field is required.
            raise AttributeError("witnesses")
        stored = _read(report)
        if isinstance(stored, _Window):
            stored = tuple(
                Witness(a, b, left, right)
                for (a, b), left, right in zip(
                    stored.pairs(), stored.lhs.tolist(), stored.rhs.tolist()
                )
            )
            report.__dict__["_witnesses"] = stored
        return stored

    def __set__(self, report, value):
        report.__dict__["_witnesses"] = value


@dataclass(frozen=True)
class StationarityReport:
    """Verdict of a check and its witnesses: the pairs above ``tol``.

    Witnesses come by descending violation, ties in window order.  A
    passing check stores none.  A failing one keeps its window and cuts it
    to the ordered flagged pairs on the first read of ``witnesses`` or
    :meth:`to_json_dict`: the :class:`Witness` tuple is built the first
    time ``witnesses`` is read, and :meth:`to_json_dict` renders from the
    cut window while it is unread.  A nan or inf moment is refused; finite
    moments whose difference overflows fail with ``max_violation`` inf.
    """

    condition: str
    passed: bool
    max_violation: float
    tol: float
    witnesses: tuple[Witness, ...] = _LazyWitnesses()

    def to_json_dict(self, label_to_str=str) -> dict:
        stored = _read(self)
        if isinstance(stored, _Window):
            parts = (stored.lhs.real, stored.lhs.imag, stored.rhs.real, stored.rhs.imag)
            rows = zip(stored.pairs(), *(part.tolist() for part in (*parts, stored.violation)))
        else:
            rows = [
                ((w.pi1, w.pi2), w.lhs.real, w.lhs.imag, w.rhs.real, w.rhs.imag, w.violation)
                for w in stored
            ]
        return {
            "condition": self.condition,
            "pass": self.passed,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "witnesses": [
                {
                    "pi1": label_to_str(a),
                    "pi2": label_to_str(b),
                    "lhs": [lhs_re, lhs_im],
                    "rhs": [rhs_re, rhs_im],
                    "violation": v,
                }
                for (a, b), lhs_re, lhs_im, rhs_re, rhs_im, v in rows
            ],
        }


def pairwise_matrix(
    oracle: SecondMomentOracle, labels: Sequence[Label], columns: Sequence[Label] | None = None
) -> np.ndarray:
    """Entry (i, j) is ``oracle(labels[i], columns[j])``, called in row-major order.

    ``columns`` defaults to ``labels``.
    """
    columns = labels if columns is None else columns
    return np.array([[complex(oracle(a, b)) for b in columns] for a in labels], dtype=complex)


def moment_matrix(
    oracle: SecondMomentOracle, labels: Sequence[Label], columns: Sequence[Label] | None = None
) -> np.ndarray:
    """E(Y_a conj(Y_b)) over labels x columns, from the oracle's own matrix when it has one.

    ``columns`` defaults to ``labels``.  A field's bound ``second_moment``
    is served by ``second_moment_matrix(labels, columns)`` and any callable
    with a ``matrix(labels, columns)`` attribute by that attribute; both
    equal the per-pair values bit for bit.  Every other callable is asked
    once per pair.
    """
    owner = _field_of(oracle)
    if owner is not None:
        return owner.second_moment_matrix(labels, columns)
    matrix = getattr(oracle, "matrix", None)
    if matrix is not None:
        return matrix(labels, columns)
    return pairwise_matrix(oracle, labels, columns)


def _field_of(oracle) -> FieldSampler | None:
    """The field whose bound ``second_moment`` ``oracle`` is, or None."""
    owner = getattr(oracle, "__self__", None)
    if isinstance(owner, FieldSampler) and oracle == owner.second_moment:
        return owner
    return None


def _check_pairs(condition, dual, oracle, labels, kind, tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    _check_kind(kind)
    labels = list(labels)
    n = len(labels)

    def covariance(ks):
        """C(k) = E(Y_k conj(Y_neutral)) for every k that occurs, in one call."""
        return moment_matrix(oracle, ks, [dual.neutral]).ravel()

    # One plan of the window serves the right side and, when the oracle is
    # the bound moment of a field with a table over this dual or another of
    # its type with no table, the left: one array of C(k) for both sides.
    plan = _pair_plan(dual, labels, None)
    field = _field_of(oracle)
    shared = field is not None and (
        field.dual is dual or (type(field.dual) is type(dual) and not dual.is_finite)
    )
    table = field._table() if shared else None
    # Non-finite moments are refused below, so their arithmetic needs no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        values = (covariance if table is None else table)(plan.ks.tolist())
        rhs = _pair_values(plan, values, kind).ravel()
        if table is not None:
            # In the ring kind the left side is the same pass of the same table.
            lhs = rhs if kind == "representation_ring" else _pair_values(plan, values).ravel()
        del plan, values  # freed before an oracle's own matrix is built
        if table is None:
            lhs = moment_matrix(oracle, labels).ravel()
        diff = lhs - rhs
        # hypot has the bits of abs(complex); np.abs differs in the last bit.
        violation = np.hypot(diff.real, diff.imag)
    worst = float(violation.max())
    # A nan or inf moment makes its violation, and so the worst, non-finite;
    # a finite difference that overflows gives inf and fails instead.
    if not math.isfinite(worst):
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        if not finite.all():
            p = int(np.argmin(finite))
            raise ValueError(
                f"{condition}: non-finite second moment at pair "
                f"({_shown(labels[p // n])}, {_shown(labels[p % n])}): "
                f"lhs {complex(lhs[p])}, rhs {complex(rhs[p])}"
            )
    witnesses = () if worst <= tol else _Window(labels, lhs, rhs, violation, tol)
    return StationarityReport(condition, worst <= tol, worst, tol, witnesses)


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
    dimension-normalized convolution it is a genuinely different one, and
    the right-hand side is 1 / (d_a d_b) times the representation-ring sum
    of d_k C(k), at the cost of a ring check (see
    :func:`~dualfield.dual_hypergroup.pair_matrix`).
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
        chars = self.measure.dual.data.characters
        diff = chars - chars @ self.values  # row pi: Y_pi minus its integral
        squares = (self.measure.class_weights * diff * np.conj(diff)).sum(axis=1)
        return float(np.sqrt(squares.real).max())


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

    The 1 x 1 case of :func:`estimate_covariance_matrix`, as scalars.  The
    estimate is a deterministic function of the per-stream seeds (seed +
    stream index) and per-stream counts, so a sharded run gives the same
    value as the equivalent sequence of single-stream runs.
    """
    est = estimate_covariance_matrix(field, [pi1], n_samples, seed, n_streams, columns=[pi2])
    return CovarianceEstimate(
        mean=complex(est.mean[0, 0]), stderr=float(est.stderr[0, 0]), n_samples=n_samples
    )


def estimate_covariance_matrix(
    field: FieldSampler,
    labels: Sequence[Label],
    n_samples: int,
    seed,
    n_streams: int = 1,
    columns: Sequence[Label] | None = None,
) -> CovarianceEstimate:
    """Monte Carlo estimates of E(Y_a conj(Y_b)) over labels x columns, from one draw per stream.

    ``columns`` defaults to ``labels``.  Entry (i, j) of ``mean`` and
    ``stderr`` estimates the pair (labels[i], columns[j]).  Each stream
    draws the rows and columns once (stream j reseeded with seed + j), so
    an entry has the bits of :func:`estimate_covariance` on its pair
    whenever the field's values at a label do not depend on the other
    labels drawn (Kolmogorov fields; white noise and the series fields draw
    per label and differ).  Rows are reduced one at a time: memory stays
    linear in the labels drawn times samples.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples for a standard error")
    columns = labels if columns is None else columns
    drawn = labels if columns is labels else [*labels, *columns]
    draws = _stream_draws(field, drawn, n_samples, seed, n_streams)
    mean = np.empty((len(labels), len(columns)), dtype=complex)
    stderr = np.empty(mean.shape)
    # One row of products at a time, reduced in place.
    row = np.empty((len(columns), n_samples), dtype=complex)
    for i, a in enumerate(labels):
        start = 0
        for values in draws:
            stop = start + len(values[a])
            for j, b in enumerate(columns):
                # numpy may reuse the conj temporary and swap the operands, which
                # sets the product's bits: the tests pin this expression.
                row[j, start:stop] = values[a] * np.conj(values[b])
            start = stop
        estimate = _jackknife_in_place(row)
        mean[i], stderr[i] = estimate.mean, estimate.stderr
    return CovarianceEstimate(mean=mean, stderr=stderr, n_samples=n_samples)


def jackknife_estimate(products: np.ndarray) -> CovarianceEstimate:
    """Sample mean along the last axis with its delete-one jackknife error.

    A 1-D array gives one estimate; each row of a stack gives the bits of
    the 1-D call on that row.  ``products`` is left unchanged.
    """
    products = np.asarray(products)
    return _jackknife_in_place(products.astype(np.result_type(products.dtype, float)))


def _jackknife_in_place(products: np.ndarray) -> CovarianceEstimate:
    """:func:`jackknife_estimate`, overwriting ``products``; one real temporary of its shape."""
    n = products.shape[-1]
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    mean = products.mean(axis=-1)
    # The leave-one-out means, centred, as (total - x) / (n - 1) - their mean.
    leave_one_out = np.subtract(products.sum(axis=-1, keepdims=True), products, out=products)
    np.true_divide(leave_one_out, n - 1, out=leave_one_out)
    np.subtract(leave_one_out, leave_one_out.mean(axis=-1, keepdims=True), out=leave_one_out)
    spread = np.abs(leave_one_out)
    np.square(spread, out=spread)
    stderr = np.sqrt((n - 1) / n * spread.sum(axis=-1))
    if products.ndim == 1:
        return CovarianceEstimate(mean=complex(mean), stderr=float(stderr), n_samples=n)
    return CovarianceEstimate(mean=mean, stderr=stderr, n_samples=n)
