"""Independent references the benchmark checks every answer against.

Nothing here calls ``dualfield``: SU(2) pair sums use the Clebsch-Gordan
parity range through stride-two prefix sums, covariances use their closed
forms, characters use sin((n+1)t)/sin(t), and finite-group multiplicities
come from class sums over the character table read straight from JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

STATIONARITY_TOL = 1e-12  # the package's default check tolerance
MC_SIGMAS = 6.0  # a Monte Carlo estimate passes within this many standard errors


def cg_range(a, b):
    return range(abs(a - b), a + b + 1, 2)


def su2_pair_matrix(values, n, normalized=False):
    """P[a, b] = sum of w_k values[k] over k in the Clebsch-Gordan range of a x b.

    ``values`` is indexed by label and must reach 2n; w_k is 1, or
    (k+1)/((a+1)(b+1)) for the dimension-normalized convolution.
    """
    values = np.asarray(values, dtype=complex)[: 2 * n + 1]
    if normalized:
        values = values * np.arange(1, values.size + 1)
    # S[k] = values[k] + values[k-2] + ..., padded so S[-1] = S[-2] = 0.
    stride = np.zeros(values.size + 2, dtype=complex)
    for parity in (0, 1):
        stride[2 + parity :: 2] = np.cumsum(values[parity::2])
    a, b = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    out = stride[a + b + 2] - stride[np.abs(a - b)]
    if normalized:
        out = out / ((a + 1) * (b + 1))
    return out


def heat_transform(t, labels):
    k = np.asarray(labels, dtype=float)
    return (k + 1) * np.exp(-t * k * (k + 2))


def su2_characters(n_max, theta):
    """chi_n(theta) = sin((n+1) theta)/sin(theta) for n <= n_max, rows by n."""
    theta = np.asarray(theta, dtype=float)
    n = np.arange(n_max + 1)[:, None]
    s = np.sin(theta)
    small = np.abs(s) < 1e-12
    safe = np.where(small, 1.0, s)
    out = np.sin((n + 1) * theta) / safe
    # At theta = 0 or pi the character is the limit (n+1) cos(theta)^n.
    limit = (n + 1) * np.where(np.cos(theta) > 0, 1.0, (-1.0) ** n)
    return np.where(small, limit, out)


# ---------------------------------------------------------------------------
# SU(2) covariances C(a, b) = E(Y_a conj(Y_b)) on the window 0..n
# ---------------------------------------------------------------------------


def ar1_matrix(lam, n):
    """AR(1) from Y_{-1} = 0: C(n1, n2) = lam^(n1-n2) sum_{l<=n2} |lam|^(2l) for n1 >= n2."""
    lam = complex(lam)
    geometric = np.cumsum(abs(lam) ** (2 * np.arange(n + 1)))
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    lower = lam ** np.maximum(i - j, 0) * geometric[np.minimum(i, j)]
    return np.where(i >= j, lower, lower.T.conj())


def ma_lags(beta):
    beta = np.asarray(beta, dtype=complex)
    q = beta.size - 1
    return np.array([sum(beta[k + h] * np.conj(beta[k]) for k in range(q - h + 1)) for h in range(q + 1)])


def ma_matrix(beta, n):
    """Steady-regime MA(q) covariance gamma(n1 - n2), the package's oracle contract."""
    gamma = ma_lags(beta)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for h, g in enumerate(gamma):
        idx = np.arange(n + 1 - h)
        out[idx + h, idx] = g
        out[idx, idx + h] = np.conj(g)
    return out


def ma_exact(beta, n1, n2):
    """E(Y_n1 conj(Y_n2)) of the simulated MA path, which starts from Z_j = 0 for j < 0."""
    beta = np.asarray(beta, dtype=complex)
    return complex(
        sum(
            beta[n1 - j] * np.conj(beta[n2 - j])
            for j in range(min(n1, n2) + 1)
            if n1 - j < beta.size and n2 - j < beta.size
        )
    )


def shift_matrix(rows, cols, shift):
    """M[a, k] = multiplicity of k in a x shift."""
    m = np.zeros((rows, cols))
    for a in range(rows):
        m[a, list(cg_range(a, shift))] = 1.0
    return m


def su2_covariance(field, n):
    """(C on 0..n x 0..n, C(k, 0) for k <= 2n) of a field description."""
    kind = field["kind"]
    if kind == "whitenoise":
        return np.eye(n + 1), np.eye(2 * n + 1)[:, 0]
    if kind == "ar1":
        full = ar1_matrix(field["lam"], 2 * n)
        return full[: n + 1, : n + 1], full[:, 0]
    if kind == "ma":
        full = ma_matrix(field["beta"], 2 * n)
        return full[: n + 1, : n + 1], full[:, 0]
    if kind == "kolmogorov":
        phi = heat_transform(field["t"], range(2 * n + 1))
        return su2_pair_matrix(phi, n), phi.astype(complex)
    if kind == "translated":
        s = field["shift"]
        m = shift_matrix(2 * n + 1, 2 * n + s + 1, s)
        full = m @ m.T  # white-noise base: C = identity
        return full[: n + 1, : n + 1].astype(complex), full[:, 0].astype(complex)
    raise ValueError(kind)


def su2_violation(field, n, kind):
    """Largest |lhs - rhs| of a stationarity check on the window 0..n."""
    lhs, c0 = su2_covariance(field, n)
    rhs = su2_pair_matrix(c0, n, normalized=kind == "normalized")
    return float(np.abs(lhs - rhs).max())


def heat_gram_min_eigenvalue(t, n):
    gram = su2_pair_matrix(heat_transform(t, range(2 * n + 1)), n)
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min())


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------


class FiniteTable:
    """Character table of a finite group, read from its JSON document."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        self.name = doc["name"]
        self.order = doc["order"]
        self.sizes = np.asarray(doc["class_sizes"], dtype=float)
        self.chars = np.array([[complex(*e) for e in row] for row in doc["characters"]])
        r = len(self.sizes)
        self.names = doc.get("irrep_names") or ["trivial"] + [f"pi{i}" for i in range(1, r)]
        self.dims = np.rint(self.chars[:, 0].real).astype(int)
        self.conj = [
            int(np.argmin(np.abs(self.chars - self.chars[i].conj()).max(axis=1))) for i in range(r)
        ]
        weighted = self.chars * self.sizes
        # mult[a, b, k] = (1/|G|) sum_c |c| chi_a(c) chi_b(c) conj(chi_k(c))
        self.mult = np.rint(
            np.einsum("ac,bc,kc->abk", weighted, self.chars, self.chars.conj()).real / self.order
        ).astype(int)

    @property
    def r(self):
        return len(self.sizes)

    def transform(self, weights):
        """phi(i) = sum_c w_c chi_i(c) of class weights."""
        return self.chars @ np.asarray(weights, dtype=float)

    def covariance(self, field):
        r = self.r
        if field["kind"] == "whitenoise":
            return np.eye(r, dtype=complex)
        if field["kind"] == "kolmogorov":
            phi = self.transform(field["weights"])
            return np.einsum("abk,k->ab", self.mult[:, self.conj, :], phi)
        if field["kind"] == "translated":
            m = self.mult[:, field["shift"], :].astype(float)
            return m @ m.T.astype(complex)
        raise ValueError(field["kind"])

    def violation(self, field, kind):
        lhs = self.covariance(field)
        c0 = lhs[:, 0]
        pair = self.mult[:, self.conj, :].astype(complex)  # pair[a, b, k] = mult of k in a x conj(b)
        if kind == "normalized":
            pair = pair * self.dims[None, None, :] / np.outer(self.dims, self.dims)[:, :, None]
        rhs = pair @ c0
        return float(np.abs(lhs - rhs).max())


def within_sigmas(estimate, exact, stderr):
    return abs(estimate - exact) <= MC_SIGMAS * stderr + 1e-9 * max(1.0, abs(exact))


def close(value, expected, rel=1e-9):
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def heat_series(t):
    """Coefficients and order of the heat-kernel character series, truncated as documented."""
    coeffs = []
    n = 0
    while True:
        c = (n + 1) * math.exp(-t * n * (n + 2))
        if n > 0 and c * (n + 1) < 1e-14:
            return np.asarray(coeffs)
        coeffs.append(c)
        n += 1
