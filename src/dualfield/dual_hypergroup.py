"""The unitary dual of a compact group as a discrete commutative hypergroup.

A dual is described by its labels, the dimension and conjugate of each
label, and the decomposition of tensor products of irreducibles into
irreducibles with integer multiplicities.  Three concrete duals are
provided: the integer dual of the torus, the nonnegative-integer dual of
SU(2) (label n names the class acting on a space of dimension n+1) and
table-driven duals of small finite groups.

Finitely supported complex-coefficient functions on labels are held in
:class:`DualVector`; they model both representation-ring elements
(nonnegative integer coefficients) and measures on the dual.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    CapabilityError,
    DataIntegrityError,
    LabelDomainError,
    SchemaError,
)

Label = int

ROUNDING_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-10

BUILTIN_GROUPS = ("c2", "c3", "c5", "s3", "q8")


# ---------------------------------------------------------------------------
# Finitely supported vectors on labels
# ---------------------------------------------------------------------------


class DualVector:
    """Finitely supported map from labels to complex coefficients.

    Coefficients that are exactly zero are never stored, so two vectors
    are equal iff their stored items are equal.  Instances are treated as
    immutable; all arithmetic returns new vectors.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[Label, complex] | Iterable[tuple[Label, complex]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        self._coeffs = {label: complex(value) for label, value in items if complex(value) != 0}

    @classmethod
    def point_mass(cls, label: Label) -> "DualVector":
        return cls({label: 1.0})

    def coeff(self, label: Label) -> complex:
        return self._coeffs.get(label, 0j)

    def items(self):
        return self._coeffs.items()

    @property
    def support(self) -> tuple[Label, ...]:
        return tuple(sorted(self._coeffs))

    def as_dict(self) -> dict[Label, complex]:
        return dict(self._coeffs)

    def mass(self) -> complex:
        return sum(self._coeffs.values(), 0j)

    def scaled(self, factor: complex) -> "DualVector":
        return DualVector({k: factor * v for k, v in self._coeffs.items()})

    def __add__(self, other: "DualVector") -> "DualVector":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0j) + v
        return DualVector(out)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualVector):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def approx_eq(self, other: "DualVector", tol: float = 1e-12) -> bool:
        keys = set(self._coeffs) | set(other._coeffs)
        return all(abs(self.coeff(k) - other.coeff(k)) <= tol for k in keys)

    def is_nonnegative_integer(self) -> bool:
        return all(
            abs(v.imag) == 0 and v.real == int(v.real) and v.real >= 0
            for v in self._coeffs.values()
        )

    def is_probability(self, tol: float = 1e-12) -> bool:
        if any(v.real < -tol or abs(v.imag) > tol for v in self._coeffs.values()):
            return False
        return abs(self.mass() - 1) <= tol

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self._coeffs.items()))
        return f"DualVector({{{body}}})"


# ---------------------------------------------------------------------------
# SU(2) characters and quadrature
# ---------------------------------------------------------------------------


def su2_character_values(n_max: int, theta) -> np.ndarray:
    """Characters chi_0 .. chi_{n_max} of SU(2) at the given class angles.

    Evaluated through the recurrence chi_0 = 1, chi_1 = 2 cos(theta),
    chi_{n+1} = 2 cos(theta) chi_n - chi_{n-1}, which is free of the
    removable singularities of sin((n+1)theta)/sin(theta) at theta = 0, pi.
    Returns an array of shape (n_max + 1, len(theta)).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((n_max + 1, theta.size))
    out[0] = 1.0
    if n_max >= 1:
        x = 2.0 * np.cos(theta)
        out[1] = x
        for n in range(1, n_max):
            out[n + 1] = x * out[n] - out[n - 1]
    return out


def su2_character_rows(table: np.ndarray, n: int, theta: np.ndarray) -> np.ndarray:
    """``table`` if it holds row n, else the characters at ``theta`` in a new table.

    The new table has max(n + 1, 2 len(table)) rows, so a window of labels
    is served by O(log N) recurrence passes.  The recurrence does not
    depend on its length, so row k holds the bits of
    ``su2_character_values(k, theta)[k]`` whatever the table's size.
    Callers keep the result with one assignment: a concurrent reader sees
    either the old table or the new one.
    """
    if n < len(table):
        return table
    return su2_character_values(max(n, 2 * len(table) - 1), theta)


@lru_cache(maxsize=8)
def weyl_quadrature(num_nodes: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [0, pi] with weights folding in (2/pi) sin^2."""
    x, w = np.polynomial.legendre.leggauss(num_nodes)
    theta = 0.5 * np.pi * (x + 1.0)
    weights = 0.5 * np.pi * w * (2.0 / np.pi) * np.sin(theta) ** 2
    return theta, weights


def _recover_multiplicity(value: complex, context: str) -> int:
    nearest = round(value.real)
    residue = abs(value - nearest)
    if residue > ROUNDING_TOL or nearest < 0:
        raise DataIntegrityError(
            f"{context}: value {value} is not a nonnegative integer "
            f"(residue {residue:.3g} exceeds {ROUNDING_TOL:g})"
        )
    return int(nearest)


# ---------------------------------------------------------------------------
# Dual structures
# ---------------------------------------------------------------------------


class DualStructure:
    """Labels, dimensions, conjugation and tensor decomposition of a dual.

    All concrete duals are immutable after construction and every
    operation is a pure function, so instances are safe to share across
    threads.
    """

    name: str
    neutral: Label
    is_finite: bool = False

    def validate_label(self, label: Label) -> Label:
        raise NotImplementedError

    def dim(self, label: Label) -> int:
        raise NotImplementedError

    def conjugate(self, label: Label) -> Label:
        raise NotImplementedError

    def tensor(self, a: Label, b: Label) -> DualVector:
        raise NotImplementedError

    def multiplicities(self, a: np.ndarray, b: np.ndarray) -> Iterator[tuple[Label, np.ndarray]]:
        """Tensor multiplicities over a grid of validated label pairs.

        ``a`` is an integer column and ``b`` an integer row.  Yields
        ``(k, m)`` in ascending k for every irreducible k that occurs,
        where ``m[i, j]`` is the multiplicity of k in ``a[i] (x) b[j]``.
        :func:`pair_matrix` sums over these only on duals without a
        :meth:`band` (the torus and the finite groups); the translated
        white-noise moment uses them on every dual.
        """
        raise NotImplementedError

    def band(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Tensor decompositions over a grid as arithmetic progressions, if they are.

        Returns ``(first, span, step)`` when every ``a[i] (x) b[j]`` is the
        irreducibles ``first + step t`` for t = 0 .. span, each once, and
        None otherwise.
        """
        return None

    def labels(self, bound: int | None = None) -> list[Label]:
        """Enumerate labels; infinite duals require an explicit bound."""
        raise NotImplementedError

    def label_to_str(self, label: Label) -> str:
        return str(label)

    def label_from_str(self, text: str) -> Label:
        try:
            label = int(text)
        except ValueError:
            raise LabelDomainError(f"{self.name}: cannot parse label {text!r}") from None
        return self.validate_label(label)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class TorusDual(DualStructure):
    """The dual of the circle group: integers under addition.

    Characters are theta -> exp(i n theta), so tensor products multiply
    as exponentials and every decomposition is a single point mass.
    """

    name = "torus"
    neutral = 0

    def validate_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)):
            raise LabelDomainError(f"torus: label {label!r} is not an integer")
        return int(label)

    def dim(self, label: Label) -> int:
        self.validate_label(label)
        return 1

    def conjugate(self, label: Label) -> Label:
        return -self.validate_label(label)

    def tensor(self, a: Label, b: Label) -> DualVector:
        return DualVector({self.validate_label(a) + self.validate_label(b): 1})

    def multiplicities(self, a, b):
        total = a + b
        for k in np.unique(total):
            yield int(k), (total == k).astype(int)

    def labels(self, bound: int | None = None) -> list[Label]:
        if bound is None:
            raise ValueError("torus dual enumeration requires an explicit bound")
        return list(range(-bound, bound + 1))


class SU2Dual(DualStructure):
    """The dual of SU(2): one class per n >= 0 with dimension n + 1.

    The characters at the quadrature nodes are kept once computed (see
    :meth:`node_characters`).  The cache changes no result and is replaced
    in one assignment, so the dual stays safe to share across threads.
    """

    name = "su2"
    neutral = 0

    def __init__(self, quadrature_nodes: int = 256):
        self.quadrature_nodes = quadrature_nodes
        self._node_characters = np.empty((0, 0))

    def validate_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)) or label < 0:
            raise LabelDomainError(f"su2: label {label!r} is not a nonnegative integer")
        return int(label)

    def dim(self, label: Label) -> int:
        return self.validate_label(label) + 1

    def conjugate(self, label: Label) -> Label:
        # Every SU(2) irreducible is self-conjugate (real characters).
        return self.validate_label(label)

    def tensor(self, a: Label, b: Label) -> DualVector:
        a = self.validate_label(a)
        b = self.validate_label(b)
        return DualVector({k: 1 for k in range(abs(a - b), a + b + 1, 2)})

    def band(self, a, b):
        # Clebsch-Gordan: |a-b|, |a-b| + 2, ..., a+b.
        return np.abs(a - b), np.minimum(a, b), 2

    def multiplicities(self, a, b):
        # Clebsch-Gordan: k occurs once when |a-b| <= k <= a+b and k = a+b mod 2.
        low, high = np.abs(a - b), a + b
        parity = high % 2
        for k in range(int(low.min()), int(high.max()) + 1):
            m = ((low <= k) & (k <= high) & (parity == k % 2)).astype(int)
            if m.any():
                yield k, m

    def labels(self, bound: int | None = None) -> list[Label]:
        if bound is None:
            raise ValueError("su2 dual enumeration requires an explicit bound")
        return list(range(bound + 1))

    def node_characters(self, n: int) -> np.ndarray:
        """Characters chi_0 .. chi_m, m >= n, at the quadrature nodes."""
        theta, _ = weyl_quadrature(self.quadrature_nodes)
        table = su2_character_rows(self._node_characters, n, theta)
        self._node_characters = table
        return table


@dataclass(frozen=True)
class FiniteGroupData:
    """Conjugacy-class data needed to evaluate character sums exactly.

    ``characters[i, c]`` is the value of irreducible character i on class
    c; class 0 is the class of the identity and row 0 is the trivial
    character.  ``inverse_class[c]`` is the index of the class containing
    the inverses of class c.
    """

    name: str
    order: int
    class_sizes: tuple[int, ...]
    inverse_class: tuple[int, ...]
    characters: np.ndarray
    irrep_names: tuple[str, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    def validate(self) -> None:
        sizes = np.asarray(self.class_sizes)
        chars = self.characters
        r = self.num_classes
        if sizes.sum() != self.order:
            raise DataIntegrityError(
                f"{self.name}: class sizes sum to {sizes.sum()}, expected order {self.order}"
            )
        if sorted(self.inverse_class) != list(range(r)):
            raise DataIntegrityError(f"{self.name}: inverse_class is not a permutation")
        for c, ic in enumerate(self.inverse_class):
            if self.inverse_class[ic] != c or self.class_sizes[ic] != self.class_sizes[c]:
                raise DataIntegrityError(
                    f"{self.name}: inverse_class is not a size-preserving involution"
                )
        if self.inverse_class[0] != 0:
            raise DataIntegrityError(f"{self.name}: identity class must be self-inverse")
        if not np.allclose(chars[0], 1.0, atol=ORTHOGONALITY_TOL):
            raise DataIntegrityError(f"{self.name}: first character row is not trivial")
        dims = chars[:, 0]
        if np.abs(dims.imag).max() > ORTHOGONALITY_TOL or np.any(
            np.abs(dims.real - np.round(dims.real)) > ORTHOGONALITY_TOL
        ):
            raise DataIntegrityError(f"{self.name}: identity column is not integral")
        if np.any(np.round(dims.real).astype(int) < 1):
            raise DataIntegrityError(f"{self.name}: nonpositive irreducible dimension")
        if int(np.round(dims.real**2).sum()) != self.order:
            raise DataIntegrityError(
                f"{self.name}: squared dimensions sum to "
                f"{int(np.round(dims.real ** 2).sum())}, expected {self.order}"
            )
        # Row orthogonality of irreducible characters under the class-weighted
        # inner product, and compatibility of inversion with conjugation.
        gram = (chars * sizes) @ chars.conj().T / self.order
        if np.abs(gram - np.eye(r)).max() > ORTHOGONALITY_TOL:
            raise DataIntegrityError(
                f"{self.name}: character rows are not orthonormal "
                f"(max deviation {np.abs(gram - np.eye(r)).max():.3g})"
            )
        inv = list(self.inverse_class)
        if np.abs(chars[:, inv] - chars.conj()).max() > 1e-8:
            raise DataIntegrityError(
                f"{self.name}: characters on inverse classes do not conjugate"
            )


class FiniteGroupDual(DualStructure):
    """Dual of a finite group, driven by its character table.

    Tensor multiplicities are recovered from exact class sums; any
    rounding residue above the integer-recovery tolerance signals a
    corrupt table and raises :class:`DataIntegrityError`.  The character
    table and the structure constants are read-only arrays.
    """

    is_finite = True

    def __init__(self, data: FiniteGroupData):
        data.validate()
        self.data = data
        self.name = data.name
        self.neutral = 0
        self._dims = tuple(int(round(d.real)) for d in data.characters[:, 0])
        self._conjugate = self._match_conjugates()
        self._name_index = {n: i for i, n in enumerate(data.irrep_names)}
        # The structure constants N[a, b, k] are computed up front.  With them
        # and the character table read-only the dual is immutable afterwards
        # and safe to share across threads and calls.
        self._structure = self._structure_constants()
        data.characters.flags.writeable = False
        self._structure.flags.writeable = False

    def _match_conjugates(self) -> tuple[int, ...]:
        chars = self.data.characters
        out = []
        for i in range(self.data.num_classes):
            matches = [
                j
                for j in range(self.data.num_classes)
                if np.abs(chars[j] - chars[i].conj()).max() <= 1e-8
            ]
            if len(matches) != 1:
                raise DataIntegrityError(
                    f"{self.name}: conjugate of irreducible {i} is not unique in the table"
                )
            out.append(matches[0])
        return tuple(out)

    def validate_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)) or not 0 <= label < self.data.num_classes:
            raise LabelDomainError(f"{self.name}: unknown irreducible label {label!r}")
        return int(label)

    def dim(self, label: Label) -> int:
        return self._dims[self.validate_label(label)]

    def conjugate(self, label: Label) -> Label:
        return self._conjugate[self.validate_label(label)]

    def tensor(self, a: Label, b: Label) -> DualVector:
        row = self._structure[self.validate_label(a), self.validate_label(b)].tolist()
        return DualVector({k: m for k, m in enumerate(row) if m})

    def multiplicities(self, a, b):
        grid = self._structure[a, b]
        for k in range(self.data.num_classes):
            m = grid[..., k]
            if m.any():
                yield k, m

    def _structure_constants(self) -> np.ndarray:
        """N[a, b, k] from the class sums of chi_a chi_b conj(chi_k), checked integral."""
        data = self.data
        chars = data.characters
        sizes = np.asarray(data.class_sizes)
        raw = np.einsum("c,ac,bc,kc->abk", sizes, chars, chars, chars.conj()) / data.order
        raw = raw.tolist()
        r = data.num_classes
        out = np.zeros((r, r, r), dtype=int)
        for a in range(r):
            for b in range(a, r):
                out[a, b] = out[b, a] = [
                    _recover_multiplicity(
                        raw[a][b][k], f"{self.name}: multiplicity of {k} in {a}x{b}"
                    )
                    for k in range(r)
                ]
        return out

    def labels(self, bound: int | None = None) -> list[Label]:
        return list(range(self.data.num_classes))

    def label_to_str(self, label: Label) -> str:
        return self.data.irrep_names[self.validate_label(label)]

    def label_from_str(self, text: str) -> Label:
        if text in self._name_index:
            return self._name_index[text]
        try:
            return self.validate_label(int(text))
        except ValueError:
            raise LabelDomainError(f"{self.name}: unknown irreducible {text!r}") from None

    def character(self, label: Label) -> np.ndarray:
        """Character row of an irreducible, indexed by conjugacy class."""
        return self.data.characters[self.validate_label(label)]

    def haar_class_weights(self) -> np.ndarray:
        return np.asarray(self.data.class_sizes, dtype=float) / self.data.order


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor_decompose(dual: DualStructure, a: Label, b: Label) -> DualVector:
    """Decompose the tensor product of two irreducibles into irreducibles."""
    return dual.tensor(a, b)


def multiplicity_by_integration(
    dual: DualStructure, a: Label, b: Label, target: Label
) -> float:
    """Multiplicity of ``target`` in ``a (x) b`` by direct character integration.

    This is the independent oracle for the decomposition rule: it never
    consults :func:`tensor_decompose`.  On the SU(2) dual the class
    integral is evaluated by Gauss-Legendre quadrature against the Weyl
    weight; on finite duals it is the literal class sum using the
    inverse-class map.  Other duals raise :class:`CapabilityError`.
    """
    if isinstance(dual, SU2Dual):
        a = dual.validate_label(a)
        b = dual.validate_label(b)
        target = dual.validate_label(target)
        _, weights = weyl_quadrature(dual.quadrature_nodes)
        chars = dual.node_characters(max(a, b, target))
        return float((weights * chars[a] * chars[b] * chars[target]).sum())
    if isinstance(dual, FiniteGroupDual):
        data = dual.data
        a = dual.validate_label(a)
        b = dual.validate_label(b)
        target = dual.validate_label(target)
        inv = list(data.inverse_class)
        sizes = np.asarray(data.class_sizes)
        product_at_inverse = data.characters[a][inv] * data.characters[b][inv]
        value = (sizes * product_at_inverse * data.characters[target]).sum() / data.order
        return float(value.real)
    raise CapabilityError(
        f"character integration is not implemented for the {dual.name} dual"
    )


def convolve(
    dual: DualStructure, m1: DualVector, m2: DualVector, kind: str = "representation_ring"
) -> DualVector:
    """Convolve two finitely supported measures on the dual.

    ``representation_ring`` extends the point-mass rule in which the
    product of deltas is the multiset of tensor components.
    ``normalized`` rescales each component by d / (d1 d2), which makes
    point masses convolve to probability vectors.
    """
    if kind not in ("representation_ring", "normalized"):
        raise ValueError(f"unknown convolution kind {kind!r}")
    out: dict[Label, complex] = {}
    for a, ca in m1.items():
        for b, cb in m2.items():
            weight = ca * cb
            if kind == "normalized":
                weight = weight / (dual.dim(a) * dual.dim(b))
            for k, mult in dual.tensor(a, b).items():
                term = weight * mult
                if kind == "normalized":
                    term = term * dual.dim(k)
                out[k] = out.get(k, 0j) + term
    return DualVector(out)


def pair_matrix(
    dual: DualStructure, labels: Iterable[Label], value: Callable, kind="representation_ring"
) -> np.ndarray:
    """Sum of c_k value(k) over the convolution of the point masses at a and conj(b).

    Entry (i, j) takes a = labels[i] and b = labels[j].  The coefficients
    c_k are those :func:`convolve` gives under ``kind``: the multiplicity
    m_k of k in a (x) conj(b), or ((1 / (d_a d_b)) m_k) d_k when
    normalized.  ``value`` is called once per irreducible that occurs,
    in ascending order, and its terms are added in ascending k, as
    :func:`convolve` orders them, so every entry is the per-pair sum.

    On duals with a :meth:`~DualStructure.band` (SU(2)) the terms of a
    pair are a progression, so pairs that start at the same irreducible
    share their running sums; the torus and the finite duals add one
    masked term per irreducible that occurs.
    """
    if kind not in ("representation_ring", "normalized"):
        raise ValueError(f"unknown convolution kind {kind!r}")
    labels = list(labels)
    if not labels:
        raise ValueError("empty label window")
    a = np.array([dual.validate_label(x) for x in labels])[:, None]
    b = np.array([dual.conjugate(x) for x in labels])[None, :]
    scale = None
    if kind == "normalized":
        dims = np.array([dual.dim(x) for x in labels])
        scale = 1.0 / (dims[:, None] * dims[None, :])
    band = dual.band(a, b)
    if band is None:
        out = np.zeros((len(labels), len(labels)), dtype=complex)
        for k, m in dual.multiplicities(a, b):
            c = m if scale is None else scale * m * dual.dim(k)
            np.add(out, c * complex(value(k)), out=out, where=m != 0)
        return out
    first, span, step = band
    if scale is None:
        out = _band_ring(first.ravel(), span.ravel(), step, value)
    else:
        out = _band_normalized(dual, first.ravel(), span.ravel(), step, scale.ravel(), value)
    return out.reshape(len(labels), len(labels))


# Entries per block of the running-sum table: bounds its memory on windows
# of large labels far apart.
_BAND_BLOCK = 1 << 20


def _band_values(first, span, step, value):
    """value(k) at offset k - first.min(), called once per k that occurs, ascending.

    Irreducibles that do not occur hold 0j; the array ends with at least
    one such slot.
    """
    lo = int(first.min())
    last = first + step * span
    size = step * ((int(last.max()) - lo) // step + 2)
    # Progressions start and stop in one residue class mod step, so a
    # cumulative count per class marks the irreducibles some pair covers.
    cover = np.bincount(first - lo, minlength=size) - np.bincount(last - lo + step, minlength=size)
    offsets = np.flatnonzero(cover.reshape(-1, step).cumsum(axis=0).ravel())
    values = np.zeros(size, dtype=complex)
    values[offsets] = [complex(value(k)) for k in (offsets + lo).tolist()]
    return lo, offsets, values


def _band_ring(first, span, step, value):
    """Multiplicity-one progressions summed from running sums per first irreducible."""
    lo, _, values = _band_values(first, span, step, value)
    # Multiplicity 1 times value(k) by the per-pair complex multiply, which
    # fixes the bits of non-finite values.
    terms = np.ones(len(values), dtype=int) * values
    starts, row = np.unique(first, return_inverse=True)
    top = np.zeros(len(starts), dtype=int)
    np.maximum.at(top, row, span)
    # Row t + 1 - t0 of a block holds, per start, the sum of its terms 0 .. t.
    # Row 0 carries the last row of the previous block; the first starts at 0j.
    out = np.empty(len(first), dtype=complex)
    end = int(top.max()) + 1
    width = min(end, max(1, _BAND_BLOCK // len(starts)))
    running = np.zeros((width + 1, len(starts)), dtype=complex)
    for t0 in range(0, end, width):
        t = np.arange(t0, min(t0 + width, end))[:, None]
        index = np.where(t <= top, starts - lo + step * t, len(terms) - 1)
        running[0] = running[-1]
        block = running[: len(t) + 1]
        # Every index is in range; "clip" only spares take a buffered copy.
        np.take(terms, index, out=block[1:], mode="clip")
        del index  # before the gather's temporaries
        np.add.accumulate(block, axis=0, out=block)
        here = (t0 <= span) & (span < t0 + width)
        out[here] = block[span[here] + (1 - t0), row[here]]
    return out


def _band_normalized(dual, first, span, step, scale, value):
    """Per-entry terms (scale d_k) value(k), added to the pairs that still have a t-th."""
    lo, offsets, values = _band_values(first, span, step, value)
    dims = np.zeros(len(values))
    dims[offsets] = [dual.dim(k) for k in (offsets + lo).tolist()]
    # Pairs with a t-th term are a prefix of the order by descending span.
    live = np.cumsum(np.bincount(span)[::-1])[::-1]
    order = np.argsort(-span, kind="stable")
    index = first[order]
    index -= lo
    scale = scale[order]
    acc = np.zeros(len(first), dtype=complex)
    coefficient, term = np.empty_like(scale), np.empty_like(acc)
    for n in live.tolist():
        # Every index is in range; "clip" only spares take a buffered copy.
        np.take(dims, index[:n], out=coefficient[:n], mode="clip")
        np.multiply(scale[:n], coefficient[:n], out=coefficient[:n])
        np.take(values, index[:n], out=term[:n], mode="clip")
        np.multiply(coefficient[:n], term[:n], out=term[:n])
        np.add(acc[:n], term[:n], out=acc[:n])
        index[:n] += step
    # The term buffer is free now; it takes the sums back in window order.
    term[order] = acc
    return term


def conjugate_vector(dual: DualStructure, m: DualVector) -> DualVector:
    """Push a vector forward along the involution of labels.

    Coefficients are transported, not conjugated: this is the hypergroup
    involution on points, used to form the delta at the conjugate label.
    """
    out: dict[Label, complex] = {}
    for label, value in m.items():
        k = dual.conjugate(label)
        out[k] = out.get(k, 0j) + value
    return DualVector(out)


# ---------------------------------------------------------------------------
# Finite-group documents
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def parse_group_document(document: Mapping) -> FiniteGroupData:
    """Check the schema of a finite-group JSON document and build its data record.

    The invariants of the table itself are checked by :class:`FiniteGroupDual`.
    """
    _require(isinstance(document, Mapping), "group document must be a JSON object")
    for key in ("name", "order", "class_sizes", "inverse_class", "characters"):
        _require(key in document, f"group document is missing key {key!r}")
    name = document["name"]
    order = document["order"]
    class_sizes = document["class_sizes"]
    inverse_class = document["inverse_class"]
    characters = document["characters"]
    _require(isinstance(name, str) and name, "name must be a nonempty string")
    _require(isinstance(order, int) and order >= 1, "order must be a positive integer")
    _require(
        isinstance(class_sizes, list)
        and class_sizes
        and all(isinstance(s, int) and s >= 1 for s in class_sizes),
        "class_sizes must be a list of positive integers",
    )
    r = len(class_sizes)
    _require(
        isinstance(inverse_class, list)
        and len(inverse_class) == r
        and all(isinstance(i, int) and 0 <= i < r for i in inverse_class),
        "inverse_class must list a class index per class",
    )
    _require(
        isinstance(characters, list) and len(characters) == r,
        "characters must have one row per irreducible (= one per class)",
    )
    table = np.empty((r, r), dtype=complex)
    for i, row in enumerate(characters):
        _require(
            isinstance(row, list) and len(row) == r,
            f"character row {i} must have one [re, im] entry per class",
        )
        for c, entry in enumerate(row):
            _require(
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) for x in entry),
                f"character entry ({i}, {c}) must be a [re, im] pair",
            )
            table[i, c] = complex(entry[0], entry[1])
    irrep_names = document.get("irrep_names")
    if irrep_names is None:
        irrep_names = ["trivial"] + [f"pi{i}" for i in range(1, r)]
    _require(
        isinstance(irrep_names, list)
        and len(irrep_names) == r
        and len(set(irrep_names)) == r
        and all(isinstance(n, str) and n for n in irrep_names),
        "irrep_names must be distinct nonempty strings, one per irreducible",
    )
    return FiniteGroupData(
        name=name,
        order=order,
        class_sizes=tuple(class_sizes),
        inverse_class=tuple(inverse_class),
        characters=table,
        irrep_names=tuple(irrep_names),
    )


def load_character_table(document) -> FiniteGroupDual:
    """Build a finite-group dual from a document, path or builtin name.

    Accepts a parsed JSON object, a filesystem path to a JSON file, or
    one of the builtin group names (c2, c3, c5, s3, q8).  All structural
    invariants of the table are checked before the dual is returned.
    """
    if isinstance(document, Mapping):
        return FiniteGroupDual(parse_group_document(document))
    if isinstance(document, (str, Path)):
        text = str(document)
        if text.lower() in BUILTIN_GROUPS:
            payload = resources.files("dualfield").joinpath("data", f"{text.lower()}.json")
            return FiniteGroupDual(parse_group_document(json.loads(payload.read_text())))
        path = Path(text)
        if not path.exists():
            raise SchemaError(f"no such group document: {text}")
        return FiniteGroupDual(parse_group_document(json.loads(path.read_text())))
    raise SchemaError(f"cannot interpret group document of type {type(document).__name__}")


def torus_dual() -> TorusDual:
    return TorusDual()


def su2_dual(quadrature_nodes: int = 256) -> SU2Dual:
    return SU2Dual(quadrature_nodes)
