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
import math
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cache, lru_cache
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

# Torus labels given as input stay below 2**62 in size, so a sum of two fits in
# int64; labels the code derives from them (a + b, a - b, -a) need only fit in
# int64, with their conjugates.
_TORUS_LIMIT = 1 << 62
_INT64_LIMIT = 1 << 63


def _shown(label) -> str:
    """A label as an error message names it: numpy integers as plain ints."""
    return repr(int(label) if isinstance(label, np.integer) else label)


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

    @classmethod
    def _units(cls, labels: Iterable[Label]) -> "DualVector":
        """``cls(dict.fromkeys(labels, 1))`` for distinct labels, with no check per item."""
        vec = cls.__new__(cls)
        vec._coeffs = dict.fromkeys(labels, 1 + 0j)
        return vec

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
    _su2_characters_into(out, range(n_max + 1), theta)
    return out


def _su2_characters_into(out: np.ndarray, labels: Sequence[int], theta) -> None:
    """Write chi_{labels[i]} at the class angles ``theta`` over row i of ``out``.

    ``labels`` are ascending, distinct and validated.  The recurrence of
    :func:`su2_character_values` runs in place (``np.multiply`` and
    ``np.subtract`` with ``out=``): each asked-for character is computed in
    its own row of ``out``, which may be the real view of a complex array,
    and the characters between them pass through three spare rows.  A row
    holds the same bits whichever labels are asked for.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    top = labels[-1] if labels else -1
    spare = np.empty((3, theta.size)) if len(labels) <= top else None
    i = 0  # row of the next asked-for label
    older = newer = x = None
    for n in range(top + 1):
        if labels[i] == n:
            row = out[i]
            i += 1
        else:
            row = spare[n % 3]
        if n == 0:
            row[...] = 1.0
        elif n == 1:
            x = 2.0 * np.cos(theta)
            row[...] = x
        else:
            np.multiply(x, newer, out=row)
            np.subtract(row, older, out=row)
        older, newer = newer, row


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

    def validate_labels(self, labels: Iterable[Label]) -> np.ndarray:
        """Validated labels as one integer array, checked as an array where possible.

        Anything but a nonempty flat integer array inside the dual's range
        is validated label by label, so errors match :meth:`validate_label`.
        """
        return self._validated(labels, self._in_range, self.validate_label)

    def validate_derived_label(self, label: Label) -> Label:
        """A label derived from validated ones: a tensor component or a conjugate.

        Moment oracles, dimensions and transforms take these.  Only the torus
        bounds them more loosely than :meth:`validate_label` bounds input.
        """
        return self.validate_label(label)

    def validate_derived_labels(self, labels: Iterable[Label]) -> np.ndarray:
        """:meth:`validate_labels` for derived labels (see :meth:`validate_derived_label`)."""
        return self.validate_labels(labels)

    @staticmethod
    def _validated(labels, in_range, validate_one) -> np.ndarray:
        try:
            x = np.asarray(labels)
        except ValueError:  # ragged input
            x = None
        if x is not None and x.ndim == 1 and x.size and x.dtype.kind == "i" and in_range(x):
            return x.astype(int, copy=False)
        return np.array([validate_one(label) for label in labels])

    def _in_range(self, x: np.ndarray) -> bool:
        """Whether every entry of an integer array is a label; False validates one by one."""
        return False

    def dim(self, label: Label) -> int:
        raise NotImplementedError

    def dims(self, x: np.ndarray) -> np.ndarray:
        """Dimensions of an array of validated labels."""
        raise NotImplementedError

    def conjugate(self, label: Label) -> Label:
        raise NotImplementedError

    def conjugates(self, x: np.ndarray) -> np.ndarray:
        """Conjugates of an array of validated labels."""
        raise NotImplementedError

    def tensor(self, a: Label, b: Label) -> DualVector:
        raise NotImplementedError

    def terms(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tensor decompositions over a grid of validated label pairs, as one term list.

        ``a`` is an integer column and ``b`` an integer row.  Returns
        ``(pair, k, m)``: irreducible ``k[t]`` occurs ``m[t] > 0`` times in
        ``a[i] (x) b[j]`` for ``pair[t] = i * b.size + j``, listed by pair
        and, within a pair, by ascending k.  :func:`pair_grid` sums these
        on duals without a :meth:`band` (the torus and the finite groups).
        """
        raise NotImplementedError

    def band(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
        """Tensor decompositions over a grid as arithmetic progressions, if they are.

        Returns ``(first, span, step)`` when every ``a[i] (x) b[j]`` is the
        irreducibles ``first + step t`` for t = 0 .. span, each once, and
        None otherwise, in which case :func:`pair_grid` reads :meth:`terms`.
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
            raise LabelDomainError(f"torus: label {_shown(label)} is not an integer")
        if not -_TORUS_LIMIT < label < _TORUS_LIMIT:
            raise LabelDomainError(f"torus: label {_shown(label)} is not below 2**62 in size")
        return int(label)

    def _in_range(self, x):
        return -_TORUS_LIMIT < x.min() and x.max() < _TORUS_LIMIT

    def validate_derived_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)):
            raise LabelDomainError(f"torus: label {_shown(label)} is not an integer")
        if not -_INT64_LIMIT < label < _INT64_LIMIT:
            raise LabelDomainError(f"torus: label {_shown(label)} does not fit in int64")
        return int(label)

    def validate_derived_labels(self, labels):
        return self._validated(labels, self._fits, self.validate_derived_label)

    def _fits(self, x):
        return -_INT64_LIMIT < x.min()

    def dim(self, label: Label) -> int:
        self.validate_derived_label(label)
        return 1

    def dims(self, x):
        return np.ones_like(x)

    def conjugate(self, label: Label) -> Label:
        return -self.validate_derived_label(label)

    def conjugates(self, x):
        return -x

    def tensor(self, a: Label, b: Label) -> DualVector:
        # A sum of Python integers, so it is checked, never wrapped.
        total = self.validate_derived_label(a) + self.validate_derived_label(b)
        return DualVector({self.validate_derived_label(total): 1})

    def terms(self, a, b):
        k = (a + b).ravel()
        return np.arange(k.size), k, np.ones_like(k)

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

    def __init__(self):
        self._node_characters = np.empty((0, 0))

    def validate_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)) or label < 0:
            raise LabelDomainError(f"su2: label {_shown(label)} is not a nonnegative integer")
        return int(label)

    def _in_range(self, x):
        return x.min() >= 0

    def dim(self, label: Label) -> int:
        return self.validate_label(label) + 1

    def dims(self, x):
        return x + 1

    def conjugate(self, label: Label) -> Label:
        # Every SU(2) irreducible is self-conjugate (real characters).
        return self.validate_label(label)

    def conjugates(self, x):
        return x

    def tensor(self, a: Label, b: Label) -> DualVector:
        a = self.validate_label(a)
        b = self.validate_label(b)
        return DualVector._units(range(abs(a - b), a + b + 1, 2))

    def band(self, a, b):
        # Clebsch-Gordan: |a-b|, |a-b| + 2, ..., a+b.
        return np.abs(a - b), np.minimum(a, b), 2

    def labels(self, bound: int | None = None) -> list[Label]:
        if bound is None:
            raise ValueError("su2 dual enumeration requires an explicit bound")
        return list(range(bound + 1))

    def node_characters(self, n: int) -> np.ndarray:
        """Characters chi_0 .. chi_m, m >= n, at the quadrature nodes."""
        theta, _ = weyl_quadrature()
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
        inv = np.asarray(self.inverse_class)
        if (inv[inv] != np.arange(r)).any() or (sizes[inv] != sizes).any():
            raise DataIntegrityError(
                f"{self.name}: inverse_class is not a size-preserving involution"
            )
        if self.inverse_class[0] != 0:
            raise DataIntegrityError(f"{self.name}: identity class must be self-inverse")
        # |chi(g)| <= chi(1) <= sqrt(order).  The bound refuses non-finite values
        # and keeps the products below from overflowing.
        if not (np.abs(chars) <= math.sqrt(self.order) + ORTHOGONALITY_TOL).all():
            raise DataIntegrityError(f"{self.name}: a character value is not within sqrt(order)")
        if not np.allclose(chars[0], 1.0, atol=ORTHOGONALITY_TOL):
            raise DataIntegrityError(f"{self.name}: first character row is not trivial")
        dims = chars[:, 0]
        if np.abs(dims.imag).max() > ORTHOGONALITY_TOL or np.any(
            np.abs(dims.real - np.round(dims.real)) > ORTHOGONALITY_TOL
        ):
            raise DataIntegrityError(f"{self.name}: identity column is not integral")
        if np.any(np.round(dims.real) < 1):
            raise DataIntegrityError(f"{self.name}: nonpositive irreducible dimension")
        squares = sum(int(d) ** 2 for d in np.round(dims.real).tolist())
        if squares != self.order:
            raise DataIntegrityError(
                f"{self.name}: squared dimensions sum to {squares}, expected {self.order}"
            )
        # Row orthogonality of irreducible characters under the class-weighted
        # inner product, and compatibility of inversion with conjugation.
        gram = (chars * sizes) @ chars.conj().T / self.order
        if np.abs(gram - np.eye(r)).max() > ORTHOGONALITY_TOL:
            raise DataIntegrityError(
                f"{self.name}: character rows are not orthonormal "
                f"(max deviation {np.abs(gram - np.eye(r)).max():.3g})"
            )
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
        # matches[i, j]: row j is the conjugate of row i.
        matches = np.abs(chars[None, :, :] - chars.conj()[:, None, :]).max(axis=2) <= 1e-8
        (bad,) = np.nonzero(matches.sum(axis=1) != 1)
        if bad.size:
            raise DataIntegrityError(
                f"{self.name}: conjugate of irreducible {bad[0]} is not unique in the table"
            )
        return tuple(matches.argmax(axis=1).tolist())

    def validate_label(self, label: Label) -> Label:
        if not isinstance(label, (int, np.integer)) or not 0 <= label < self.data.num_classes:
            raise LabelDomainError(f"{self.name}: unknown irreducible label {_shown(label)}")
        return int(label)

    def _in_range(self, x):
        return x.min() >= 0 and x.max() < self.data.num_classes

    def dim(self, label: Label) -> int:
        return self._dims[self.validate_label(label)]

    def dims(self, x):
        return np.array(self._dims)[x]

    def conjugate(self, label: Label) -> Label:
        return self._conjugate[self.validate_label(label)]

    def conjugates(self, x):
        return np.array(self._conjugate)[x]

    def tensor(self, a: Label, b: Label) -> DualVector:
        row = self._structure[self.validate_label(a), self.validate_label(b)].tolist()
        return DualVector({k: m for k, m in enumerate(row) if m})

    def terms(self, a, b):
        grid = self._structure[a, b]
        i, j, k = np.nonzero(grid)
        return i * grid.shape[1] + j, k, grid[i, j, k]

    def _structure_constants(self) -> np.ndarray:
        """N[a, b, k] from the class sums of chi_a chi_b conj(chi_k), checked integral."""
        data = self.data
        chars = data.characters
        sizes = np.asarray(data.class_sizes)
        raw = np.einsum("c,ac,bc,kc->abk", sizes, chars, chars, chars.conj()) / data.order
        nearest = np.round(raw.real)
        # N[a, b] = N[b, a] up to rounding, so the entries with a <= b are the ones checked:
        # once they pass, every N[b, a] lies within ulps of N[a, b] and rounds alike.
        upper = np.triu(np.ones((data.num_classes,) * 2, dtype=bool))[:, :, None]
        flagged = upper & ((np.abs(raw - nearest) > ROUNDING_TOL) | (nearest < 0))
        if flagged.any():
            a, b, k = np.argwhere(flagged)[0].tolist()  # the first in a <= b, then k order
            context = f"{self.name}: multiplicity of {k} in {a}x{b}"
            _recover_multiplicity(complex(raw[a, b, k]), context)  # raises
        return nearest.astype(int)

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
        _, weights = weyl_quadrature()
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
    _check_kind(kind)
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
    m_k of k in a (x) conj(b), or m_k d_k / (d_a d_b) when normalized.
    ``value`` is called once per irreducible that occurs, in ascending
    order.  A representation-ring entry has the bits of the per-pair sum
    of m_k value(k) from 0j in ascending k, as :func:`convolve` orders
    them, but for the sign and payload of a nan (see :func:`pair_grid`).
    A normalized entry is the ring entry of k -> d_k value(k) with
    its real and imaginary parts each multiplied by 1 / (d_a d_b); it may
    differ from :func:`convolve`'s per-term sum in the last bits.
    """
    return pair_grid(dual, labels, None, per_label(value), kind)


def per_label(value: Callable[[Label], complex]) -> Callable[[list[Label]], np.ndarray]:
    """The ``values_at`` of :func:`pair_grid` that calls ``value`` once per label, in order."""
    return lambda ks: np.array([complex(value(k)) for k in ks], dtype=complex)


def pair_grid(
    dual: DualStructure,
    rows: Iterable[Label],
    columns: Iterable[Label] | None,
    values_at: Callable[[list[Label]], np.ndarray],
    kind="representation_ring",
) -> np.ndarray:
    """:func:`pair_matrix` over rows x columns (rows x rows when ``columns`` is None).

    ``values_at`` is called once, with the ascending list of every
    irreducible that occurs, and returns their values as one complex
    array, which is only read; entry (i, j) is the :func:`pair_matrix`
    entry for a = rows[i], b = columns[j].  Each label is validated once.
    Non-finite values give what the per-pair sums give, with no warning,
    but for the sign and payload of a nan: ``np.add.accumulate`` itself
    gives nans of either sign for the same terms at different lengths.

    The work is split in two.  A plan (:func:`_pair_plan`) reads only the
    labels: it validates them and lays out which irreducibles each pair
    sums, ``plan.ks``.  A values pass (:func:`_pair_values`) sums the
    values at ``plan.ks``.  One plan serves any number of values passes,
    so a check plans its window once and reads one array of values for
    both of its sides.

    On duals with a :meth:`~DualStructure.band` (SU(2)) the terms of a
    pair are a progression, so pairs that start at the same irreducible
    share their running sums.  The torus and the finite duals list every
    term once (:meth:`~DualStructure.terms`) and add them in one pass.
    The normalized kind runs the same path on d_k value(k) and scales
    the result once by 1 / (d_a d_b).
    """
    _check_kind(kind)
    plan = _pair_plan(dual, rows, columns)
    values = values_at(plan.ks.tolist())
    with np.errstate(invalid="ignore", over="ignore"):
        return _pair_values(plan, values, kind)


def _check_kind(kind) -> None:
    if kind not in ("representation_ring", "normalized"):
        raise ValueError(f"unknown convolution kind {kind!r}")


def _pair_plan(dual: DualStructure, rows, columns) -> "_PairPlan":
    """What a pair sum over rows x columns needs of the labels alone (see :func:`pair_grid`)."""
    rows = list(rows)
    columns = rows if columns is None else list(columns)
    if not rows or not columns:
        raise ValueError("empty label window")
    x = dual.validate_labels(rows)
    y = x if columns is rows else dual.validate_labels(columns)
    a = x[:, None]
    b = dual.conjugates(y)[None, :]
    band = dual.band(a, b)
    if band is None:
        return _TermPlan(dual, x, y, *dual.terms(a, b))
    first, span, step = band
    return _BandPlan(dual, x, y, first.ravel(), span.ravel(), step)


def _pair_values(plan: "_PairPlan", values: np.ndarray, kind="representation_ring") -> np.ndarray:
    """The :func:`pair_grid` entries of ``plan`` from ``values``, the array at ``plan.ks``.

    ``values`` is only read.  Runs under the caller's ``np.errstate``:
    non-finite values may raise numpy's invalid and overflow flags.
    """
    dims = plan.dual.dims if kind == "normalized" else None
    out = plan.ring(values, dims).reshape(len(plan.x), len(plan.y))
    if dims is not None:
        # Real and imaginary parts apart: a complex multiply may fuse its
        # products, which moves the sign of a part that underflows to 0.
        scale = 1.0 / (dims(plan.x)[:, None] * dims(plan.y)[None, :])
        out.real *= scale
        out.imag *= scale
    return out


class _PairPlan:
    """The validated rows ``x`` and columns ``y`` of a pair sum, and how its pairs sum.

    ``ks`` are the irreducibles some pair covers, ascending.  :meth:`ring`
    returns the flat ring sums of value(k), or of dims(k) value(k) when
    ``dims`` is given, from the values at ``ks``.
    """

    __slots__ = ("dual", "x", "y")

    def __init__(self, dual, x, y):
        self.dual, self.x, self.y = dual, x, y


class _TermPlan(_PairPlan):
    """Every term listed once, by pair and then ascending k (:meth:`DualStructure.terms`)."""

    __slots__ = ("pair", "k", "m", "ks", "at")

    def __init__(self, dual, x, y, pair, k, m):
        super().__init__(dual, x, y)
        self.pair, self.k, self.m = pair, k, m
        self.ks, self.at = np.unique(k, return_inverse=True)

    def ring(self, values, dims):
        values = values[self.at]
        if dims is not None:
            values *= dims(self.k)
        # Terms listed by pair, then ascending k: the per-pair sum from 0j.
        out = np.zeros(len(self.x) * len(self.y), dtype=complex)
        np.add.at(out, self.pair, self.m * values)
        return out


# Entries per block of the running-sum table: bounds its memory on windows
# of large labels far apart.
_BAND_BLOCK = 1 << 20


class _BandPlan(_PairPlan):
    """Multiplicity-one progressions first + step t, t = 0 .. span, summed from running sums.

    Irreducibles are held as offsets from the smallest first one, ``lo``;
    ``offsets`` are those some pair covers.  Pairs that start at the same
    offset share one column of running sums; the distinct starts are found
    by marking them in a boolean array, with no sort.  Every column takes
    as many terms as the longest span; sums past its own are never gathered.
    A table of at most ``_BAND_BLOCK`` entries is summed with one take
    ``index`` and read with one ``gather``, both built here; a larger one in
    blocks of rows.  A plan is only read, so values passes on it run in any order.
    """

    __slots__ = ("lo", "size", "offsets", "index", "gather", "blocks")

    def __init__(self, dual, x, y, first, span, step):
        super().__init__(dual, x, y)
        self.lo = lo = int(first.min())
        at = first - lo
        last = at + step * span
        # A slot past the last irreducible stays 0j: "clip" reads it for every
        # index past the table.
        self.size = size = step * (int(last.max()) // step + 2)
        # Progressions start and stop in one residue class mod step, so a
        # cumulative count per class marks the irreducibles some pair covers.
        cover = np.bincount(at, minlength=size) - np.bincount(last + step, minlength=size)
        self.offsets = np.flatnonzero(cover.reshape(-1, step).cumsum(axis=0).ravel())
        mark = np.zeros(int(at.max()) + 1, dtype=bool)
        mark[at] = True
        starts = np.flatnonzero(mark)
        row = (np.cumsum(mark) - 1)[at]
        del at, last  # before the index's temporaries
        end = int(span.max()) + 1
        width = min(end, max(1, _BAND_BLOCK // len(starts)))
        if width == end:
            self.index = starts + step * np.arange(end)[:, None]
            # Flat positions of row span + 1 in the (end + 1) x columns table.
            self.gather = (span + 1) * len(starts) + row
            self.blocks = None
        else:
            self.index = self.gather = None
            self.blocks = (starts, step, end, span, row, width)

    @property
    def ks(self):
        return self.offsets + self.lo

    def ring(self, values, dims):
        values = np.asarray(values, dtype=complex)
        if dims is not None:
            values = values * dims(self.ks)
        terms = np.zeros(self.size, dtype=complex)
        # Multiplicity 1 times value(k) by the per-pair complex multiply, which
        # fixes the bits of non-finite values; the other slots hold 1 * 0j = 0j.
        terms[self.offsets] = np.ones(len(values), dtype=int) * values
        if self.blocks is not None:
            return self._blocked(terms)
        # Row t + 1 holds, per column, the sum of its terms 0 .. t; row 0 is 0j.
        running = np.empty((len(self.index) + 1, self.index.shape[1]), dtype=complex)
        running[0] = 0
        # Past the table, "clip" reads its last slot, 0j.
        np.take(terms, self.index, out=running[1:], mode="clip")
        np.add.accumulate(running, axis=0, out=running)
        return running.ravel()[self.gather]

    def _blocked(self, terms):
        """:meth:`ring`'s sums over more than ``_BAND_BLOCK`` entries, by blocks of rows."""
        starts, step, end, span, row, width = self.blocks
        # Row t + 1 - t0 of a block holds, per start, the sum of its terms 0 .. t.
        # Row 0 carries the last row of the previous block; the first starts at 0j.
        out = np.empty(len(span), dtype=complex)
        running = np.zeros((width + 1, len(starts)), dtype=complex)
        for t0 in range(0, end, width):
            t = np.arange(t0, min(t0 + width, end))[:, None]
            index = starts + step * t
            running[0] = running[-1]
            block = running[: len(t) + 1]
            np.take(terms, index, out=block[1:], mode="clip")
            del index  # before the gather's temporaries
            np.add.accumulate(block, axis=0, out=block)
            here = (t0 <= span) & (span < t0 + width)
            out[here] = block[span[here] + (1 - t0), row[here]]
        return out


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
    _require(
        isinstance(order, int) and 1 <= order < 2**53,
        "order must be a positive integer below 2**53, exact in floating point",
    )
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
        and all(isinstance(n, str) and n for n in irrep_names)
        and len(set(irrep_names)) == r,
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
    """Build a finite-group dual from a document, builtin name or path.

    Accepts a parsed JSON object or a name, resolved in this order: a
    builtin group (c2, c3, c5, s3, q8, any case), an existing file, then
    ``<root>/<name>.json`` for each directory on ``DUALFIELD_GROUPS``, read
    at call time.  A builtin is validated once per process and shared;
    files are read and validated on every call.  A name found nowhere
    raises ``ValueError``; a file that cannot be read as JSON raises
    :class:`SchemaError`.  All structural invariants of the table are
    checked before the dual is returned.
    """
    if isinstance(document, Mapping):
        return FiniteGroupDual(parse_group_document(document))
    if not isinstance(document, (str, Path)):
        raise SchemaError(f"cannot interpret group document of type {type(document).__name__}")
    name = str(document)
    if name.lower() in BUILTIN_GROUPS:
        return _builtin_table(name.lower())
    roots = [root for root in os.environ.get("DUALFIELD_GROUPS", "").split(os.pathsep) if root]
    for path in [Path(name), *(Path(root) / f"{name}.json" for root in roots)]:
        # isfile, unlike Path.is_file, answers False for a name too long to stat.
        if os.path.isfile(path):
            try:
                document = json.loads(path.read_text())
            # JSONDecodeError and UnicodeDecodeError are ValueErrors; deep nesting recurses.
            except (OSError, ValueError, RecursionError) as exc:
                raise SchemaError(f"cannot read group document {path}: {exc}") from None
            return FiniteGroupDual(parse_group_document(document))
    raise ValueError(
        f"unknown group {name!r}: not a builtin ({', '.join(BUILTIN_GROUPS)}), "
        "not a file, and not found on DUALFIELD_GROUPS"
    )


@cache
def _builtin_table(name: str) -> FiniteGroupDual:
    """Builtin tables are package data: one validated, read-only dual per name."""
    payload = resources.files("dualfield").joinpath("data", f"{name}.json")
    return FiniteGroupDual(parse_group_document(json.loads(payload.read_text())))


def torus_dual() -> TorusDual:
    return TorusDual()


def su2_dual() -> SU2Dual:
    return SU2Dual()
