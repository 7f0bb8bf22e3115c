"""Autoregressive and moving-average processes on the ordered dual labels.

The nonnegative-integer labels of the SU(2) dual carry the order of the
weight lattice, so one-sided recursions make sense: Y_n = lam Y_{n-1} + Z_n
with Y_{-1} = 0, and Y_n = sum_k beta_k Z_{n-k}.  Closed-form covariances
come with brute-force-verified formulas and exact two-index oracles that
plug into the stationarity checks.  Noise is circular complex Gaussian
with unit second moment; covariance statements depend on the second
moments only.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dual_hypergroup import Label, SU2Dual, su2_dual
from .stationary_fields import (
    _DRAW_CHUNK,
    FieldSampler,
    _white_noise_rows,
    moment_matrix,
    white_noise_sequence,
)

UNIT_CIRCLE_TOL = 1e-8


# ---------------------------------------------------------------------------
# AR(1)
# ---------------------------------------------------------------------------


def simulate_ar1(lam: complex, n_max: int, seed=None, noise=None) -> np.ndarray:
    """Path Y_0..Y_{n_max} of the recursion Y_n = lam Y_{n-1} + Z_n, Y_{-1} = 0.

    ``noise`` overrides the generated draws (one complex value per index);
    the same draws reproduce the path through the finite moving-average
    expansion sum_k lam^k Z_{n-k}, with no condition on lam.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if noise is None:
        noise = white_noise_sequence(n_max + 1, seed=seed)
    noise = np.array(noise, dtype=complex)  # a copy: the path is written over it
    if noise.shape != (n_max + 1,):
        raise ValueError(f"need {n_max + 1} noise draws, got shape {noise.shape}")
    return _ar1_at(lam, range(n_max + 1), noise[:, None])[:, 0]


def simulate_ar1_batch(lam: complex, n_max: int, n_paths: int, seed) -> np.ndarray:
    """Independent AR(1) paths as rows of an (n_paths, n_max + 1) array.

    The paths are built label-major over their own noise draw by
    :func:`_ar1_at`, one step of the recursion per index, and returned as
    its transposed view: column n is one contiguous block.  The array is
    Fortran-ordered, not C-contiguous, so one path is read with a stride
    of ``n_paths`` values; ``np.ascontiguousarray`` gives row-major paths.
    """
    noise = _white_noise_rows(n_max + 1, n_paths, np.random.default_rng(seed))
    return _ar1_at(lam, range(n_max + 1), noise).T


def _ar1_at(lam: complex, labels: Sequence[int], noise: np.ndarray) -> np.ndarray:
    """Y at ascending ``labels``, written in place over label-major ``noise``, one unit-noise row a label.

    From Y_{-1} = 0, a step of 1 is the recursion lam Y + Z.  A gap g > 1 is
    lam^g Y + s Z with s^2 = ``ar1_covariance(lam, g - 1, 0)``: given Y_n,
    Y_{n+g} is lam^g Y_n plus g innovations whose sum is one circular
    Gaussian of that variance, so the values have the law of the path read
    at the labels.  Labels 0..N are the path itself.  Row i of ``noise``
    holds the samples of ``labels[i]``, so each step reads and writes one
    contiguous row.
    """
    term = np.empty(noise.shape[1], dtype=noise.dtype)
    y = np.zeros_like(term)
    previous = -1
    for z, n in zip(noise, labels):
        gap = n - previous
        if gap == 1:
            np.multiply(lam, y, out=term)
        else:
            np.multiply(lam**gap, y, out=term)
            z *= math.sqrt(ar1_covariance(lam, gap - 1, 0).real)
        np.add(term, z, out=z)
        previous, y = n, z
    return noise


def ar1_covariance(lam: complex, n: int, h: int) -> complex:
    """E(Y_{n+h} conj(Y_n)) under unit noise: lam^h times sum of |lam|^{2l}.

    Evaluated as lam^h (1 - |lam|^{2n+2}) / (1 - |lam|^2) away from the
    unit circle and as (n + 1) lam^h within UNIT_CIRCLE_TOL of it, which
    avoids the cancellation at the removable singularity.
    """
    if n < 0 or h < 0:
        raise ValueError("indices must be nonnegative")
    lam = complex(lam)
    r2 = abs(lam) ** 2
    if abs(abs(lam) - 1.0) <= UNIT_CIRCLE_TOL:
        return (n + 1) * lam**h
    return lam**h * (1.0 - r2 ** (n + 1)) / (1.0 - r2)


def _per_distinct(values: np.ndarray, f: Callable) -> np.ndarray:
    """``f`` applied in Python once per distinct entry of an integer array."""
    distinct, at = np.unique(values, return_inverse=True)
    return np.array([f(v) for v in distinct.tolist()])[at.reshape(values.shape)]


def _per_lag(lags: np.ndarray, f: Callable) -> np.ndarray:
    """:func:`_per_distinct` on an array of nonnegative lags: ``f`` once per lag, ascending.

    When the largest lag is below the number of entries, the lags that occur
    are marked in a table of max + 1 slots, with no sort.  Sparse lags keep
    the sort, whose memory follows the entries, not their spread.
    """
    top = int(lags.max(initial=0))
    if top >= lags.size:
        return _per_distinct(lags, f)
    seen = np.zeros(top + 1, dtype=bool)
    seen[lags] = True
    marked = np.flatnonzero(seen)
    table = np.zeros(top + 1, dtype=complex)
    table[marked] = [f(h) for h in marked.tolist()]
    return table[lags]


def _indices(labels: Sequence[Label]) -> np.ndarray:
    """Integer array of labels, checked with ``operator.index`` unless already integers."""
    n = np.asarray(labels)
    if n.dtype.kind != "i":
        n = np.array([operator.index(x) for x in labels])
    return n


def _hermitian(re: np.ndarray, im: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Values at n1 >= n2 from their parts, conjugated where n1 < n2, as ``SeriesSpec`` branches."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.where(n[:, None] < m[None, :], -im, im)
    return out


def ar1_second_moment_oracle(lam: complex) -> SeriesSpec:
    """Exact two-index covariance oracle (n1, n2) -> E(Y_{n1} conj(Y_{n2})): the AR(1) spec."""
    return SeriesSpec("ar1", (complex(lam),))


def _ar1_matrix(coefficients, n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of AR(1) moments at n1 >= n2 over n x m: Python's complex pow
    once per distinct lag, and 1 - |lam|^{2 min + 2} once per row and column label."""
    if (n.size and n.min() < 0) or (m.size and m.min() < 0):
        raise ValueError("indices must be nonnegative")
    z = complex(coefficients[0])
    r2 = abs(z) ** 2
    power = _per_lag(np.abs(n[:, None] - m[None, :]), lambda h: z**h)
    x, y = power.real, power.imag
    # ar1_covariance's mixed arithmetic on the parts: Python (before 3.14)
    # promotes the real operand to complex, and numpy's complex division
    # would round differently.
    if abs(abs(z) - 1.0) <= UNIT_CIRCLE_TOL:
        scale = (np.minimum(n[:, None], m[None, :]) + 1).astype(float)
        return scale * x - 0.0 * y, scale * y + 0.0 * x
    # Each label clipped to the largest min it can be: past it, the pow could overflow.
    row = [1.0 - r2 ** (t + 1) for t in np.minimum(n, m.max(initial=0)).tolist()]
    col = row if m is n else [
        1.0 - r2 ** (t + 1) for t in np.minimum(m, n.max(initial=0)).tolist()
    ]
    tail = np.where(n[:, None] <= m[None, :], np.array(row)[:, None], np.array(col)[None, :])
    re, im = x * tail - y * 0.0, x * 0.0 + y * tail
    d = 1.0 - r2
    ratio = 0.0 / d
    denom = d + 0.0 * ratio
    return (re + im * ratio) / denom, (im - re * ratio) / denom


# ---------------------------------------------------------------------------
# MA(q)
# ---------------------------------------------------------------------------


def simulate_ma(beta: Sequence[complex], n_max: int, seed=None, noise=None) -> np.ndarray:
    """Path of Y_n = sum_{k=0}^{q} beta_k Z_{n-k} with Z_j = 0 for j < 0.

    ``noise`` overrides the generated draws and is left unchanged: its
    last axis is indexed by j, values past n_max are ignored, and a noise of
    more axes gives one path per leading index.  Otherwise the path is
    written over its own draw.
    """
    beta = np.asarray(beta, dtype=complex)
    if beta.size == 0:
        raise ValueError("beta must contain the k = 0 coefficient")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if noise is None:
        noise = white_noise_sequence(n_max + 1, seed=seed)
    else:
        # A copy: the paths are written over it.
        noise = np.array(noise, dtype=complex)[..., : n_max + 1]
    if noise.ndim == 0 or noise.shape[-1] != n_max + 1:
        raise ValueError(f"need {n_max + 1} noise draws along the last axis, got shape {noise.shape}")
    # Label-major view of the draws: row j holds Z_j of every path.
    rows = np.moveaxis(noise, -1, 0)
    paths = _ma(beta, rows.reshape(n_max + 1, math.prod(rows.shape[1:])), np.arange(n_max + 1))
    return np.moveaxis(paths.reshape(rows.shape), 0, -1)


def simulate_ma_batch(beta: Sequence[complex], n_max: int, n_paths: int, seed) -> np.ndarray:
    """Independent MA(q) paths as rows of an (n_paths, n_max + 1) array.

    The paths are built label-major over their own noise draw by
    :func:`_ma` and returned as its transposed view: column n is one
    contiguous block.
    """
    noise = _white_noise_rows(n_max + 1, n_paths, np.random.default_rng(seed))
    return _ma(np.asarray(beta, dtype=complex), noise, np.arange(n_max + 1)).T


def _ma(beta: np.ndarray, noise: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Y = sum_k beta_k Z_{n-k} at rows ``at`` of label-major ``noise``, written over it.

    Row j of ``noise`` holds the samples of one noise index and the row k
    before it those of the index k lower; rows before the first count as
    Z = 0.  ``at`` is ascending.  Rows are built from the last label down,
    a block of about ``_DRAW_CHUNK`` values at a time, so every Z_{n-k} is
    read before its row is overwritten, and the two block buffers stay
    cache-sized.  A row wider than ``_DRAW_CHUNK`` is split along the
    samples into blocks of one row each; the samples are independent, so
    the split changes no value.  Each value is 0 + beta_0 Z_n + ... +
    beta_q Z_{n-q} in that order, the bits of a sum over whole noise columns.
    """
    width = noise.shape[1]
    span = max(1, min(width, _DRAW_CHUNK))  # samples per block
    step = _DRAW_CHUNK // span  # rows per block
    buffers = np.empty((2, min(step, len(at)), span), dtype=complex)
    for start in range(0, width, span):
        # All of ``noise`` unless its rows are split, and then ``step`` is 1,
        # so each row is read as a slice: ``take`` below, which would copy a
        # strided block whole, never runs on one.
        block = noise[:, start : start + span]
        for stop in range(len(at), 0, -step):
            rows = at[max(0, stop - step) : stop]
            # Consecutive rows are read as slices; others are gathered into ``term``.
            lo, hi = int(rows[0]), int(rows[-1]) + 1
            consecutive = hi - lo == len(rows)
            acc, term = buffers[:, : len(rows), : block.shape[1]]
            acc.fill(0)
            for k, coeff in enumerate(beta):
                first = int(np.searchsorted(rows, k))  # rows below k have Z_{n-k} = 0
                if first == len(rows):
                    break
                t = term[first:]
                if consecutive:
                    np.multiply(coeff, block[lo + first - k : hi - k], out=t)
                else:
                    block.take(rows[first:] - k, axis=0, out=t, mode="clip")
                    np.multiply(coeff, t, out=t)
                acc[first:] += t
            if consecutive:
                block[lo:hi] = acc
            else:
                block[rows] = acc
    return noise


def ma_covariance(beta: Sequence[complex], h: int) -> complex:
    """Steady-regime lag covariance: overlap sum of coefficients, 0 past q."""
    if h < 0:
        raise ValueError("lag must be nonnegative")
    beta = np.asarray(beta, dtype=complex)
    q = beta.size - 1
    if h > q:
        return 0j
    return complex((beta[h:] * np.conj(beta[: q - h + 1])).sum())


def ma_second_moment_oracle(beta: Sequence[complex]) -> SeriesSpec:
    """Exact steady-regime oracle (n1, n2) -> E(Y_{n1} conj(Y_{n2})): the MA(q) spec."""
    return SeriesSpec("ma", tuple(complex(b) for b in beta))


def _ma_matrix(beta, n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of MA moments at n1 >= n2 over n x m, from gamma(0) .. gamma(q), 0j."""
    table = np.array([ma_covariance(beta, h) for h in range(len(beta))] + [0j])
    gamma = table[np.minimum(np.abs(n[:, None] - m[None, :]), len(beta))]
    return gamma.real, gamma.imag


# ---------------------------------------------------------------------------
# Series specifications and field adapters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSpec:
    """Which process to run, ar1 with one coefficient or ma with q + 1, and its exact oracle.

    ``spec(n1, n2)`` is E(Y_{n1} conj(Y_{n2})), and ``spec.matrix(labels,
    columns=None)`` gives it over labels x columns (the labels squared by
    default), bit for bit.  AR(1) refuses labels below 0; MA answers on all
    of Z, in its steady regime.
    """

    kind: str  # "ar1" | "ma"
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if self.kind not in ("ar1", "ma"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "ar1" and len(self.coefficients) != 1:
            raise ValueError("ar1 takes exactly one coefficient")
        if self.kind == "ma" and not self.coefficients:
            raise ValueError("ma needs at least the k = 0 coefficient")
        if not all(cmath.isfinite(c) for c in self.coefficients):
            raise ValueError(f"{self.kind} coefficients must be finite, got {self.coefficients}")

    def __call__(self, n1: Label, n2: Label) -> complex:
        n1, n2 = operator.index(n1), operator.index(n2)
        if self.kind == "ar1":
            value = ar1_covariance(self.coefficients[0], min(n1, n2), abs(n1 - n2))
        else:
            value = ma_covariance(self.coefficients, abs(n1 - n2))
        return value if n1 >= n2 else value.conjugate()

    def matrix(self, labels: Sequence[Label], columns: Sequence[Label] | None = None) -> np.ndarray:
        n = _indices(labels)
        m = n if columns is None else _indices(columns)
        kernel = _ar1_matrix if self.kind == "ar1" else _ma_matrix
        return _hermitian(*kernel(self.coefficients, n, m), n, m)

    def oracle(self) -> Callable[[Label, Label], complex]:
        # Through the module-level factories, which a traced run wraps to count oracle calls.
        if self.kind == "ar1":
            return ar1_second_moment_oracle(self.coefficients[0])
        return ma_second_moment_oracle(self.coefficients)

    def describe(self) -> str:
        coeffs = ",".join(f"{c.real:g}{c.imag:+g}j" for c in self.coefficients)
        return f"{self.kind}({coeffs})"


def parse_series_spec(text: str) -> SeriesSpec:
    """Parse "ar1:<re>,<im>" or "ma:<re0>,<im0>;<re1>,<im1>;..."."""
    kind, _, rest = text.partition(":")
    if kind == "ar1":
        re_text, _, im_text = rest.partition(",")
        return SeriesSpec("ar1", (complex(float(re_text), float(im_text or 0)),))
    if kind == "ma":
        coeffs = []
        for item in rest.split(";"):
            re_text, _, im_text = item.partition(",")
            coeffs.append(complex(float(re_text), float(im_text or 0)))
        return SeriesSpec("ma", tuple(coeffs))
    raise ValueError(f"unknown series specification {text!r}")


class SeriesField(FieldSampler):
    """Time-series process viewed as a field on the SU(2) dual labels.

    AR(1) ``sample_batch`` draws one unit-noise row per label, in one
    label-major draw with the bits of ``white_noise_sequence`` transposed,
    and :func:`_ar1_at` turns it into Y at the ascending labels, in place: a
    step of 1 is the recursion and a longer gap is bridged in one exact
    draw, so an estimate at (57, 59) draws 2 rows, not 60.  The values
    returned are those rows.  A window 0 .. N is the path of
    ``simulate_ar1_batch`` and keeps its bits; other label sets have the law
    of the path, not its values.
    MA(q) ``sample_batch`` draws only the noises its labels read: Z_j for j
    in the sorted union of n - q .. n over the labels, in one label-major
    draw with the bits of ``white_noise_sequence`` transposed, so labels far
    apart cost no more than labels side by side, and every label, those
    below q included, is in the steady regime of ``second_moment``.  A
    window 0 .. N draws Z_{-q} .. Z_N, the noise of ``simulate_ma_batch`` on
    the extended path, and keeps its bits.  :func:`_ma` writes Y_n over the
    row of Z_n, from the last label down, and the values returned are those
    rows: each label's samples are one contiguous row, and no array beside
    the draw is allocated.
    """

    def __init__(self, spec: SeriesSpec, seed=0, dual: SU2Dual | None = None):
        self.spec = spec
        self._oracle = spec.oracle()
        super().__init__(
            dual if dual is not None else su2_dual(),
            seed,
            f"{spec.describe()}(seed={seed})",
        )

    def sample_batch(self, labels, count):
        ordered = sorted(set(labels))
        self.dual.validate_labels(ordered)
        if self.spec.kind == "ar1":
            noise = _white_noise_rows(len(ordered), count, self._rng)
            return dict(zip(ordered, _ar1_at(self.spec.coefficients[0], ordered, noise)))
        beta = np.asarray(self.spec.coefficients, dtype=complex)
        n = np.array(ordered, dtype=int)
        drawn = np.unique(n[:, None] - np.arange(beta.size))
        # Label-major: row j of ``noise`` is the draw of Z_{drawn[j]}, and
        # n - q .. n are consecutive in ``drawn``, so Z_{n-k} sits k rows before Z_n.
        noise = _white_noise_rows(drawn.size, count, self._rng)
        at = np.searchsorted(drawn, n)
        _ma(beta, noise, at)
        return {label: noise[row] for label, row in zip(ordered, at.tolist())}

    def second_moment(self, a, b):
        return self._oracle(self.dual.validate_label(a), self.dual.validate_label(b))

    def second_moment_matrix(self, labels, columns=None):
        rows, cols = self._window(labels, columns)
        return moment_matrix(self._oracle, rows, cols)

    def reseeded(self, seed):
        return SeriesField(self.spec, seed, self.dual)


def ar1_field(lam: complex, seed=0) -> SeriesField:
    return SeriesField(SeriesSpec("ar1", (complex(lam),)), seed)


def ma_field(beta: Sequence[complex], seed=0) -> SeriesField:
    return SeriesField(SeriesSpec("ma", tuple(complex(b) for b in beta)), seed)
