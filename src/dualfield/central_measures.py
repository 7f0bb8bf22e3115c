"""Finite central measures on the group side and their transforms.

A central measure lives on conjugacy-class coordinates, so conjugation
invariance holds by construction: class weights for a finite group, or
atoms plus a density in the class-angle coordinate for SU(2) and the
torus.  The transform of a measure sends an irreducible label to the
integral of its character, and on finite groups the transform is
inverted exactly by solving against the character table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .dual_hypergroup import (
    DualStructure,
    FiniteGroupDual,
    Label,
    SU2Dual,
    TorusDual,
    _su2_characters_into,
    pair_matrix,
    su2_character_rows,
    su2_character_values,
    su2_dual,
    torus_dual,
    weyl_quadrature,
)
from .errors import (
    CapabilityError,
    IncompleteCovarianceError,
    NotPositiveDefiniteError,
)

NEGATIVE_WEIGHT_TOL = 1e-10
HEAT_SERIES_TAIL = 1e-14
# Longest heat series kept: sampling evaluates (order + 1) x 8193 characters, 16.8 MB at 256.
HEAT_SERIES_MAX_ORDER = 256
_SAMPLING_GRID = 8192
_TORUS_GRID = 2048  # uniform points of the torus density's transform
# 2 pi as an integer over 2**256, to 2**-257: reduces n theta exactly for any int64 n.
_TWO_PI_SHIFT = 256
_TWO_PI_NUMERATOR = 0x6487ED5110B4611A62633145C06E0E68948127044533E63A0105DF531D89CD913


class CentralMeasure:
    """Common interface of the class-coordinate measure variants."""

    dual: DualStructure
    description: str = "central measure"

    def total_mass(self) -> float:
        raise NotImplementedError

    def fourier(self, label: Label) -> complex:
        raise NotImplementedError

    def is_probability(self, tol: float = 1e-12) -> bool:
        return abs(self.total_mass() - 1.0) <= tol

    def sample_coordinates(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def characters_at(self, labels: Sequence[Label], coordinates: np.ndarray) -> np.ndarray:
        """Characters of ``labels`` (any order, repeats allowed) at class coordinates.

        Row i is the character of ``labels[i]``; a window is served by one
        evaluation rather than one per label.
        """
        raise NotImplementedError

    def character_at(self, label: Label, coordinates: np.ndarray) -> np.ndarray:
        """Character of ``label`` evaluated at sampled class coordinates."""
        return self.characters_at([label], coordinates)[0]

    def _complex_characters(self, labels: Sequence[Label], coordinates: np.ndarray) -> np.ndarray:
        """:meth:`characters_at` as a complex array, for ascending distinct ``labels``."""
        return np.asarray(self.characters_at(labels, coordinates), dtype=complex)


class FiniteClassMeasure(CentralMeasure):
    """Nonnegative weights on the conjugacy classes of a finite group."""

    def __init__(self, dual: FiniteGroupDual, weights: Sequence[float], description: str = ""):
        if not isinstance(dual, FiniteGroupDual):
            raise CapabilityError("class-weight measures require a finite-group dual")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (dual.data.num_classes,):
            raise ValueError(
                f"{dual.name}: expected {dual.data.num_classes} class weights, "
                f"got {weights.shape}"
            )
        with np.errstate(invalid="ignore", over="ignore"):
            if not np.isfinite(weights.sum()):  # also when a weight is not finite
                raise ValueError(
                    f"{dual.name}: class weights and their total mass must be finite, "
                    f"got {weights.tolist()}"
                )
        if weights.min() < 0:
            raise ValueError(f"{dual.name}: negative class weight {weights.min()}")
        self.dual = dual
        self.class_weights = weights
        self.description = description or f"classes on {dual.name}"

    @classmethod
    def haar(cls, dual: FiniteGroupDual) -> "FiniteClassMeasure":
        return cls(dual, dual.haar_class_weights(), description=f"haar on {dual.name}")

    @classmethod
    def point_mass_identity(cls, dual: FiniteGroupDual) -> "FiniteClassMeasure":
        weights = np.zeros(dual.data.num_classes)
        weights[0] = 1.0
        return cls(dual, weights, description=f"identity point mass on {dual.name}")

    def total_mass(self) -> float:
        return float(self.class_weights.sum())

    def fourier(self, label: Label) -> complex:
        row = self.dual.character(label)
        return complex((self.class_weights * row).sum())

    def sample_coordinates(self, rng, count):
        mass = self.total_mass()
        return rng.choice(len(self.class_weights), size=count, p=self.class_weights / mass)

    def characters_at(self, labels, coordinates):
        rows = [self.dual.validate_label(label) for label in labels]
        return self.dual.data.characters[rows].take(coordinates, axis=1)


class _AngleMeasure(CentralMeasure):
    """Atoms plus an optional density in an angle coordinate.

    The density's mass comes from ``_integrate_density`` at construction.
    The sampling table (the density on a grid of ``_SAMPLING_GRID + 1``
    angles and its trapezoid CDF) is read only by ``sample_coordinates``,
    so it is built on the first draw that reaches the density and kept in
    one assignment: measures used only for transforms, checks or
    positivity never evaluate the density there, and a shared measure
    stays safe across threads.
    """

    def __init__(self, atoms, density, description):
        atoms = [(float(t), float(w)) for t, w in atoms]
        for theta, weight in atoms:
            self._validate_angle(theta)
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(f"atom weight must be finite and nonnegative, got {weight}")
        self.atoms = tuple(atoms)
        self.density = density
        self.description = description
        self._density_mass = self._integrate_density()
        if not math.isfinite(self.total_mass()):
            raise ValueError(f"{description}: total mass {self.total_mass()} is not finite")
        self._sampling_table = None

    # subclass hooks -------------------------------------------------
    def _validate_angle(self, theta: float) -> None:
        raise NotImplementedError

    def _density_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid of angles and base-measure density values for sampling; the density is set."""
        raise NotImplementedError

    def _integrate_density(self) -> float:
        raise NotImplementedError

    # shared behaviour -----------------------------------------------
    def total_mass(self) -> float:
        return sum(w for _, w in self.atoms) + self._density_mass

    def _sampling_cdf(self):
        """The grid angles and the normalized CDF over them (None without mass)."""
        table = self._sampling_table
        if table is None:
            theta, pdf = self._density_grid()
            pdf = np.clip(pdf, 0.0, None)
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(theta))])
            table = self._sampling_table = (theta, None if cdf[-1] <= 0 else cdf / cdf[-1])
        return table

    def sample_coordinates(self, rng, count):
        mass = self.total_mass()
        if mass <= 0:
            raise ValueError(f"{self.description}: cannot sample from a null measure")
        # The density, when present, acts as one extra mixture component.
        probs = np.array([w for _, w in self.atoms] + [self._density_mass]) / mass
        component = rng.choice(len(probs), size=count, p=probs)
        out = np.empty(count)
        for i, (theta, _) in enumerate(self.atoms):
            out[component == i] = theta
        tail = component == len(self.atoms)
        n_tail = int(tail.sum())
        if n_tail:
            grid, cdf = self._sampling_cdf()
            if cdf is None:
                raise ValueError(f"{self.description}: no density to sample from")
            u = rng.random(n_tail)
            out[tail] = np.interp(u, cdf, grid)
        return out


class SU2AngleMeasure(_AngleMeasure):
    """Central measure on SU(2) in the class-angle coordinate on [0, pi].

    The optional density is taken against the normalized Weyl measure
    (2/pi) sin^2(theta) d(theta).
    """

    def __init__(
        self,
        atoms: Sequence[tuple[float, float]] = (),
        density: Callable[[np.ndarray], np.ndarray] | None = None,
        dual: SU2Dual | None = None,
        description: str = "su2 angle measure",
    ):
        self.dual = dual if dual is not None else su2_dual()
        super().__init__(atoms, density, description)
        # fourier reads the characters at the atoms followed by the quadrature
        # nodes from one table, built on its first call and grown as needed.
        nodes = weyl_quadrature()[0] if density is not None else ()
        self._points = np.concatenate([[t for t, _ in self.atoms], nodes])
        self._atom_weights = np.array([w for _, w in self.atoms])
        self._point_characters = np.empty((0, 0))

    def _validate_angle(self, theta):
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"su2 class angle {theta} outside [0, pi]")

    def _density_grid(self):
        theta = np.linspace(0.0, math.pi, _SAMPLING_GRID + 1)
        base = (2.0 / math.pi) * np.sin(theta) ** 2
        return theta, np.asarray(self.density(theta), dtype=float) * base

    def _integrate_density(self) -> float:
        # Quadrature weights times the density at the nodes, kept for fourier.
        self._weighted_density = None
        if self.density is None:
            return 0.0
        theta, weights = weyl_quadrature()
        self._weighted_density = weights * np.asarray(self.density(theta), dtype=float)
        return float(self._weighted_density.sum())

    def fourier(self, label: Label) -> complex:
        n = self.dual.validate_label(label)
        table = su2_character_rows(self._point_characters, n, self._points)
        self._point_characters = table
        chars = table[n]
        split = len(self.atoms)
        total = 0j
        if self.atoms:
            total += complex((self._atom_weights * chars[:split]).sum())
        if self._weighted_density is not None:
            total += complex((self._weighted_density * chars[split:]).sum())
        return total

    def characters_at(self, labels, coordinates):
        rows = [self.dual.validate_label(label) for label in labels]
        distinct = sorted(set(rows))
        table = np.empty((len(distinct), np.size(coordinates)))
        _su2_characters_into(table, distinct, coordinates)
        return table[np.searchsorted(distinct, rows)]

    def _complex_characters(self, labels, coordinates):
        # The recurrence writes each row straight into the real parts of the
        # output: no float table, gathered copy or conversion pass.
        rows = [self.dual.validate_label(label) for label in labels]
        values = np.zeros((len(rows), np.size(coordinates)), dtype=complex)
        _su2_characters_into(values.real, rows, coordinates)
        return values


class TorusAngleMeasure(_AngleMeasure):
    """Central measure on the torus, angle on [0, 2 pi), density against d(theta)/2 pi.

    The transform of a density is its mean against exp(i n theta) over
    ``_TORUS_GRID`` uniform points, which is exact when the density's degree
    plus |n| is below the grid.  So |n| < ``_TORUS_GRID // 2`` is answered,
    exactly for a trigonometric polynomial of degree at most 1023, and a
    larger |n| raises :class:`CapabilityError` rather than alias.  Atoms
    have no such limit: where |n theta| reaches 2**10, n theta is reduced
    mod 2 pi exactly (:func:`_torus_phase`) before the exponential, so the
    transform of an atom stays within 1e-15 at every int64 label.
    """

    def __init__(
        self,
        atoms: Sequence[tuple[float, float]] = (),
        density: Callable[[np.ndarray], np.ndarray] | None = None,
        dual: TorusDual | None = None,
        description: str = "torus angle measure",
    ):
        self.dual = dual if dual is not None else torus_dual()
        super().__init__(atoms, density, description)

    def _validate_angle(self, theta):
        if not 0.0 <= theta < 2.0 * math.pi:
            raise ValueError(f"torus angle {theta} outside [0, 2 pi)")

    def _density_grid(self):
        theta = np.linspace(0.0, 2.0 * math.pi, _SAMPLING_GRID + 1)
        return theta, np.asarray(self.density(theta), dtype=float) / (2.0 * math.pi)

    def _uniform_grid(self):
        return np.arange(_TORUS_GRID) * (2.0 * math.pi / _TORUS_GRID)

    def _integrate_density(self) -> float:
        # The density on the uniform grid, kept for fourier.
        self._grid_density = None
        if self.density is None:
            return 0.0
        self._grid_density = np.asarray(self.density(self._uniform_grid()), dtype=float)
        return float(np.mean(self._grid_density))

    def fourier(self, label: Label) -> complex:
        n = self.dual.validate_derived_label(label)
        total = 0j
        for theta, weight in self.atoms:
            if abs(n * theta) < 2**10:
                total += weight * np.exp(1j * n * theta)
            else:
                total += weight * np.exp(1j * _torus_phase(n, theta))
        if self._grid_density is not None:
            if abs(n) >= _TORUS_GRID // 2:
                raise CapabilityError(
                    f"{self.description}: the transform of a density is a mean over "
                    f"{_TORUS_GRID} grid points, answered only below label {_TORUS_GRID // 2} "
                    f"in size, not at {n}"
                )
            theta = self._uniform_grid()
            total += complex(np.mean(self._grid_density * np.exp(1j * n * theta)))
        return total

    def characters_at(self, labels, coordinates):
        # (1j n) theta, multiplied in the order of exp(1j * n * theta) per label,
        # keeps the sign of zero imaginary parts that 1j (n theta) would flip.
        rows = np.array([self.dual.validate_label(label) for label in labels], dtype=int)
        return np.exp(np.multiply.outer(1j * rows, np.asarray(coordinates)))


def _torus_phase(n: int, theta: float) -> float:
    """n theta minus the nearest multiple of 2 pi, in Python integers, rounded once.

    theta is p / q with q a power of 2, and 2 pi is ``_TWO_PI_NUMERATOR``
    over 2**256, so n theta - k 2 pi is one integer ratio, which Python's
    int division rounds correctly.
    """
    p, q = theta.as_integer_ratio()
    num = (n * p) << _TWO_PI_SHIFT
    den = q * _TWO_PI_NUMERATOR
    k = (2 * num + den) // (2 * den)
    return (num - k * den) / (q << _TWO_PI_SHIFT)


class _TorusHaarMeasure(TorusAngleMeasure):
    """Haar on the torus, the density 1: its transform is 1 at label 0 and 0 elsewhere."""

    def fourier(self, label: Label) -> complex:
        return 1 + 0j if self.dual.validate_derived_label(label) == 0 else 0j


# ---------------------------------------------------------------------------
# Heat kernel
# ---------------------------------------------------------------------------


class _CharacterSeriesMeasure(SU2AngleMeasure):
    """Density sum_n c_n chi_n on SU(2), defined by its coefficients c_0 .. c_m.

    Characters are orthonormal for the Weyl measure, so the transform at
    label n is c_n, and 0 past the truncation order m.
    """

    def __init__(self, coefficients: np.ndarray, dual: SU2Dual, description: str):
        order = len(coefficients) - 1

        def density(theta: np.ndarray) -> np.ndarray:
            return coefficients @ su2_character_values(order, theta)

        self.series_coefficients = coefficients
        self.truncation_order = order
        self.dual = dual
        # Skips SU2AngleMeasure.__init__: no quadrature transform table is built.
        _AngleMeasure.__init__(self, (), density, description)

    def _integrate_density(self) -> float:
        return float(self.series_coefficients[0])

    def fourier(self, label: Label) -> complex:
        n = self.dual.validate_label(label)
        return complex(self.series_coefficients[n]) if n <= self.truncation_order else 0j


def heat_kernel_transform(t: float, n: int) -> float:
    """Closed form of the heat-kernel transform at label n: (n+1) e^{-t n (n+2)}."""
    return (n + 1) * math.exp(-t * n * (n + 2))


def heat_kernel_measure(t: float) -> SU2AngleMeasure:
    """Gaussian (heat kernel) central probability measure on SU(2) at time t.

    The density against the normalized Weyl measure is the character
    series with coefficients (n+1) e^{-t n (n+2)}, truncated once the
    sup-norm of the next term falls below the series tail tolerance.
    The eigenvalue normalization is n (n+2) for label n, with t exposed
    so any other scale is a reparametrization.  The measure is its
    series: the transform at label n is coefficient n up to the
    truncation order and 0 past it, and the mass is coefficient 0, which
    is 1, so no quadrature rule is built; the density is evaluated only
    to sample.  A truncation order above ``HEAT_SERIES_MAX_ORDER`` raises
    :class:`ValueError`.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"heat kernel time must be finite and positive, got {t}")
    coefficients = []
    n = 0
    while True:
        coeff = heat_kernel_transform(t, n)
        # |chi_n| <= n + 1, so this bounds the term uniformly in the angle.
        if n > 0 and coeff * (n + 1) < HEAT_SERIES_TAIL:
            break
        if n > HEAT_SERIES_MAX_ORDER:
            raise ValueError(f"heat kernel t={t:g}: series order exceeds {HEAT_SERIES_MAX_ORDER}")
        coefficients.append(coeff)
        n += 1
    return _CharacterSeriesMeasure(
        np.asarray(coefficients),
        su2_dual(),
        f"heat kernel t={t:g} ({len(coefficients)} series terms)",
    )


# ---------------------------------------------------------------------------
# Covariance functions on the dual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceOnDual:
    """Complex-valued function on irreducibles, extended decomposably.

    Evaluation at a reducible element (see :func:`gram_matrix`) is the
    multiplicity-weighted sum of the stored irreducible values; labels
    without a stored value raise :class:`IncompleteCovarianceError`.
    """

    dual: DualStructure
    values: Mapping[Label, complex]

    @classmethod
    def from_function(
        cls, dual: DualStructure, fn: Callable[[Label], complex], labels
    ) -> "CovarianceOnDual":
        return cls(dual, {label: complex(fn(label)) for label in labels})

    @classmethod
    def from_measure(cls, measure: CentralMeasure, labels) -> "CovarianceOnDual":
        return cls(measure.dual, {label: measure.fourier(label) for label in labels})

    def value(self, label: Label) -> complex:
        if label not in self.values:
            raise IncompleteCovarianceError(
                f"covariance is missing irreducible label {label}", [label]
            )
        return self.values[label]


def fourier(measure: CentralMeasure, label: Label) -> complex:
    """Transform of a central measure at one irreducible label."""
    return measure.fourier(label)


def bochner_invert_finite(phi: CovarianceOnDual) -> FiniteClassMeasure:
    """Recover the class weights whose transform equals ``phi`` exactly.

    Solves the square linear system over all irreducibles of the finite
    dual; the character table is invertible by row orthogonality.  Weights
    in [-1e-10, 0) are treated as round-off and clamped to zero, anything
    below that means ``phi`` was not positive definite and raises
    :class:`NotPositiveDefiniteError` carrying the signed weights.
    """
    dual = phi.dual
    if not isinstance(dual, FiniteGroupDual):
        raise CapabilityError("exact inversion requires a finite-group dual")
    labels = dual.labels()
    rhs = np.array([phi.value(i) for i in labels])
    if not np.isfinite(rhs).all():
        raise ValueError(f"{dual.name}: transform values must be finite, got {rhs.tolist()}")
    table = dual.data.characters
    try:
        weights = np.linalg.solve(table, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for a validated table
        raise NotPositiveDefiniteError(f"{dual.name}: singular character table", []) from exc
    bad = (weights.real < -NEGATIVE_WEIGHT_TOL) | (
        np.abs(weights.imag) > NEGATIVE_WEIGHT_TOL
    )
    if bad.any():
        raise NotPositiveDefiniteError(
            f"{dual.name}: not positive, no nonnegative central measure "
            f"(weights {np.round(weights, 12).tolist()})",
            weights.tolist(),
        )
    clamped = np.clip(weights.real, 0.0, None)
    return FiniteClassMeasure(dual, clamped, description=f"inverted on {dual.name}")


def gram_matrix(phi: CovarianceOnDual, labels: Sequence[Label]) -> np.ndarray:
    """Matrix of ``phi`` at the tensor products of labels with conjugates.

    Entry (m, n) is the decomposable evaluation at the decomposition of
    label_m (x) conjugate(label_n); this is the kernel of the positive
    definiteness quadratic form.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("gram_matrix labels must be distinct")
    return pair_matrix(phi.dual, labels, phi.value)


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    min_eigenvalue: float
    threshold: float
    spectral_radius: float

    def __bool__(self) -> bool:
        return self.positive


def is_positive_definite(
    phi: CovarianceOnDual, labels: Sequence[Label], tol: float = 1e-10
) -> PositivityReport:
    """Check the positivity quadratic form on a window of labels."""
    gram = gram_matrix(phi, labels)
    hermitian = 0.5 * (gram + gram.conj().T)
    eigs = np.linalg.eigvalsh(hermitian)
    radius = float(np.abs(eigs).max()) if eigs.size else 0.0
    threshold = tol * max(1.0, radius)
    return PositivityReport(
        positive=bool(eigs.min() >= -threshold),
        min_eigenvalue=float(eigs.min()),
        threshold=threshold,
        spectral_radius=radius,
    )


# ---------------------------------------------------------------------------
# CLI measure specifications
# ---------------------------------------------------------------------------


def parse_measure_spec(dual: DualStructure, text: str) -> CentralMeasure:
    """Parse a measure specification string for the given dual.

    Supported forms: ``haar``, ``heat:<t>``, ``atoms:t1:w1,t2:w2,...``
    (angle duals) and ``classes:w1,w2,...`` (finite duals).
    """
    kind, _, rest = text.partition(":")
    if kind == "haar":
        if isinstance(dual, FiniteGroupDual):
            return FiniteClassMeasure.haar(dual)
        if isinstance(dual, SU2Dual):
            # The density 1 = chi_0: its transform is 1 at label 0 and 0 elsewhere.
            return _CharacterSeriesMeasure(np.ones(1), dual, "haar on su2")
        if isinstance(dual, TorusDual):
            return _TorusHaarMeasure(
                density=lambda theta: np.ones_like(theta), dual=dual, description="haar on torus"
            )
        raise CapabilityError(f"haar measure unsupported for dual {dual.name}")
    if kind == "heat":
        if not isinstance(dual, SU2Dual):
            raise CapabilityError("heat kernel measures are defined on the su2 dual")
        return heat_kernel_measure(float(rest))
    if kind == "atoms":
        if isinstance(dual, FiniteGroupDual):
            raise CapabilityError("angle atoms are undefined for a finite dual; use classes:")
        atoms = []
        for item in rest.split(","):
            theta_text, _, weight_text = item.partition(":")
            atoms.append((float(theta_text), float(weight_text)))
        if isinstance(dual, SU2Dual):
            return SU2AngleMeasure(atoms=atoms, dual=dual, description=text)
        return TorusAngleMeasure(atoms=atoms, dual=dual, description=text)
    if kind == "classes":
        if not isinstance(dual, FiniteGroupDual):
            raise CapabilityError("class weights require a finite-group dual")
        weights = [float(w) for w in rest.split(",")]
        return FiniteClassMeasure(dual, weights, description=text)
    raise ValueError(f"unknown measure specification {text!r}")
