"""Finite-group tables in whole-array form against the loops they replaced.

The reference functions below are the class and class-pair loops that
``FiniteGroupData.validate`` (the inverse-class involution),
``FiniteGroupDual._match_conjugates``, ``FiniteGroupDual._structure_constants``,
``ScatteredMeasure.reconstruction_residual`` and the ``cramer`` command used
to carry.  The package must reproduce them exactly: the same structure
constants and conjugate maps, the same data-integrity messages (naming the
same first offender), and ``cramer`` JSON with the same bytes.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualfield import BUILTIN_GROUPS, FiniteClassMeasure, load_character_table
from dualfield.cli import main
from dualfield.dual_hypergroup import (
    FiniteGroupData,
    FiniteGroupDual,
    _recover_multiplicity,
    parse_group_document,
)
from dualfield.errors import DataIntegrityError
from dualfield.stationary_fields import ScatteredMeasure, cramer_decompose_finite, kolmogorov_field

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


# ---------------------------------------------------------------------------
# Reference loops
# ---------------------------------------------------------------------------


def ref_involution_error(data):
    for c, ic in enumerate(data.inverse_class):
        if data.inverse_class[ic] != c or data.class_sizes[ic] != data.class_sizes[c]:
            return f"{data.name}: inverse_class is not a size-preserving involution"
    return None


def ref_match_conjugates(name, chars):
    out = []
    for i in range(len(chars)):
        matches = [j for j in range(len(chars)) if np.abs(chars[j] - chars[i].conj()).max() <= 1e-8]
        if len(matches) != 1:
            raise DataIntegrityError(f"{name}: conjugate of irreducible {i} is not unique in the table")
        out.append(matches[0])
    return tuple(out)


def ref_structure_constants(data):
    chars = data.characters
    sizes = np.asarray(data.class_sizes)
    raw = np.einsum("c,ac,bc,kc->abk", sizes, chars, chars, chars.conj()) / data.order
    raw = raw.tolist()
    r = data.num_classes
    out = np.zeros((r, r, r), dtype=int)
    for a in range(r):
        for b in range(a, r):
            out[a, b] = out[b, a] = [
                _recover_multiplicity(raw[a][b][k], f"{data.name}: multiplicity of {k} in {a}x{b}")
                for k in range(r)
            ]
    return out


def ref_cramer_output(dual, measure, text):
    scattered = cramer_decompose_finite(kolmogorov_field(measure, seed=0))
    classes = range(dual.data.num_classes)
    worst = max(
        abs(scattered.expected_product([a], [b]) - scattered.measure_of({a} & {b}))
        for a in classes
        for b in classes
    )
    residual = 0.0
    for label in dual.labels():
        row = dual.character(label)
        diff = row - row @ scattered.values
        residual = max(residual, float(np.sqrt(scattered._expect(diff, diff).real)))
    payload = {
        "dual": dual.name,
        "measure": text,
        "descriptor": scattered.descriptor,
        "classes": [
            {
                "class": c,
                "size": dual.data.class_sizes[c],
                "mu": float(measure.class_weights[c]),
                "gamma_second_moment": scattered.second_moment([c]),
            }
            for c in classes
        ],
        "reconstruction_residual": residual,
        "max_scattering_violation": worst,
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def as_document(data):
    return {
        "name": data.name,
        "order": data.order,
        "class_sizes": list(data.class_sizes),
        "inverse_class": list(data.inverse_class),
        "characters": [[[z.real, z.imag] for z in row] for row in data.characters.tolist()],
        "irrep_names": list(data.irrep_names),
    }


def cyclic_document(n):
    """C_n: chi_j(g^k) = exp(2 pi i j k / n), every class a single element."""
    chars = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return {
        "name": f"c{n}",
        "order": n,
        "class_sizes": [1] * n,
        "inverse_class": [(-k) % n for k in range(n)],
        "characters": [[[z.real, z.imag] for z in row] for row in chars.tolist()],
    }


def dihedral_document(n):
    """D_n of order 2n, n odd: (n + 3) / 2 classes, all self-inverse."""
    m = (n - 1) // 2
    k = np.arange(1, m + 1)
    rows = [[1.0] * (m + 2), [1.0] * (m + 1) + [-1.0]]
    rows += [[2.0, *(2 * np.cos(2 * np.pi * j * k / n)), 0.0] for j in range(1, m + 1)]
    return {
        "name": f"d{n}",
        "order": 2 * n,
        "class_sizes": [1] + [2] * m + [n],
        "inverse_class": list(range(m + 2)),
        "characters": [[[float(x), 0.0] for x in row] for row in rows],
    }


def relabelled(data, seed):
    """The same group with its non-identity classes and non-trivial irreducibles permuted."""
    rng = np.random.default_rng(seed)
    r = data.num_classes
    cls = np.concatenate([[0], 1 + rng.permutation(r - 1)])  # new class c is old class cls[c]
    irr = np.concatenate([[0], 1 + rng.permutation(r - 1)])
    new_of_old = np.argsort(cls)
    return FiniteGroupData(
        name=f"{data.name}-relabelled",
        order=data.order,
        class_sizes=tuple(np.asarray(data.class_sizes)[cls].tolist()),
        inverse_class=tuple(new_of_old[np.asarray(data.inverse_class)[cls]].tolist()),
        characters=data.characters[np.ix_(irr, cls)],
        irrep_names=tuple(np.asarray(data.irrep_names)[irr].tolist()),
    )


def all_tables():
    tables = [load_character_table(name).data for name in BUILTIN_GROUPS]
    tables += [load_character_table(str(GROUP_DIR / f"{name}.json")).data for name in ("d4", "c4")]
    tables += [parse_group_document(cyclic_document(16)), parse_group_document(dihedral_document(29))]
    return tables + [relabelled(data, seed) for seed, data in enumerate(list(tables))]


TABLES = all_tables()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("data", TABLES, ids=lambda d: d.name)
def test_structure_constants_and_conjugates_match_the_loops(data):
    dual = FiniteGroupDual(data)
    assert ref_involution_error(data) is None
    assert dual._conjugate == ref_match_conjugates(data.name, data.characters)
    assert all(type(j) is int for j in dual._conjugate)
    want = ref_structure_constants(data)
    assert dual._structure.dtype == want.dtype
    assert np.array_equal(dual._structure, want)


def test_sixteen_class_tables_are_groups():
    cyclic = FiniteGroupDual(parse_group_document(cyclic_document(16)))
    dihedral = FiniteGroupDual(parse_group_document(dihedral_document(29)))
    assert cyclic.data.num_classes == dihedral.data.num_classes == 16
    assert cyclic._conjugate == tuple((-j) % 16 for j in range(16))
    assert dict(cyclic.tensor(5, 14).items()) == {3: 1}
    # Row j + 1 is psi_j, of dimension 2: psi_i (x) psi_j = psi_{i+j} + psi_{|i-j|},
    # with psi_0 = trivial + sign and psi_j = psi_{n-j}.
    assert dict(dihedral.tensor(4 + 1, 4 + 1).items()) == {0: 1, 1: 1, 8 + 1: 1}
    assert dict(dihedral.tensor(10 + 1, 10 + 1).items()) == {0: 1, 1: 1, 9 + 1: 1}


@pytest.mark.parametrize(
    "group, inverse_class",
    [("c5", [0, 2, 3, 4, 1]), ("s3", [0, 2, 1]), ("q8", [0, 2, 1, 3, 4]), ("c4", [0, 2, 3, 1])],
)
def test_non_involutive_inverse_class_message(group, inverse_class):
    source = str(GROUP_DIR / "c4.json") if group == "c4" else group
    document = as_document(load_character_table(source).data)
    document["inverse_class"] = inverse_class
    want = ref_involution_error(parse_group_document(document))
    assert want is not None
    with pytest.raises(DataIntegrityError) as caught:
        load_character_table(document)
    assert str(caught.value) == want


@pytest.mark.parametrize(
    "rows, first",
    [
        ([0, 1, 2, 1], 1),  # w twice: nothing conjugates row 1 (w3 is gone)
        ([0, 1, 1, 3], 3),  # w twice: row 3 (w3) conjugates to both
        ([0, 3, 2, 3], 1),
    ],
)
def test_non_unique_conjugate_names_the_first_row(rows, first):
    # Duplicated rows never pass validation, so the matcher is called on its own.
    data = load_character_table(str(GROUP_DIR / "c4.json")).data
    chars = data.characters[rows]
    message = f"c4: conjugate of irreducible {first} is not unique in the table"
    with pytest.raises(DataIntegrityError) as want:
        ref_match_conjugates("c4", chars)
    assert str(want.value) == message
    dual = FiniteGroupDual.__new__(FiniteGroupDual)
    dual.name, dual.data = "c4", FiniteGroupData("c4", 4, (1,) * 4, (0, 3, 2, 1), chars, ("a", "b", "c", "d"))
    with pytest.raises(DataIntegrityError) as got:
        dual._match_conjugates()
    assert str(got.value) == message


def test_fake3_message_matches_the_loop():
    x, y = (-1 + 3**0.5) / 2, (-1 - 3**0.5) / 2
    document = {
        "name": "fake3",
        "order": 3,
        "class_sizes": [1, 1, 1],
        "inverse_class": [0, 1, 2],
        "characters": [
            [[1, 0], [1, 0], [1, 0]],
            [[1, 0], [x, 0], [y, 0]],
            [[1, 0], [y, 0], [x, 0]],
        ],
    }
    with pytest.raises(DataIntegrityError) as want:
        ref_structure_constants(parse_group_document(document))
    with pytest.raises(DataIntegrityError) as got:
        load_character_table(document)
    assert "fake3: multiplicity of 1 in 1x1" in str(got.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, -3]],  # N[0, 0, 1] = -1, an integer below 0
        [[1, 1], [1, -1.5]],  # -0.25
        [[1, 1], [1, 2j]],  # (1 - 2j) / 2
    ],
)
def test_first_bad_multiplicity_is_named(rows):
    # Tables that fail orthogonality, so the structure constants are computed on their own.
    data = FiniteGroupData("bad2", 2, (1, 1), (0, 1), np.array(rows, dtype=complex), ("a", "b"))
    with pytest.raises(DataIntegrityError) as want:
        ref_structure_constants(data)
    dual = FiniteGroupDual.__new__(FiniteGroupDual)
    dual.name, dual.data = "bad2", data
    with pytest.raises(DataIntegrityError) as got:
        dual._structure_constants()
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("bad2: multiplicity of 1 in 0x0: value ")


CRAMER_GROUPS = [*BUILTIN_GROUPS, str(GROUP_DIR / "d4.json"), str(GROUP_DIR / "c4.json")]


def cramer_weights(r, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(r)
    weights[rng.integers(r)] = 0.0
    if seed % 2:
        weights[rng.integers(r)] = -0.0
    if not weights.any():
        weights[0] = 1.0
    return (weights / weights.sum()).tolist()


@pytest.mark.parametrize("group", CRAMER_GROUPS)
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_cramer_json_matches_the_per_pair_rendering(capsys, group, seed):
    dual = load_character_table(group)
    if seed is None:
        text, measure = "haar", FiniteClassMeasure.haar(dual)
    else:
        weights = cramer_weights(dual.data.num_classes, seed)
        text = "classes:" + ",".join(repr(w) for w in weights)
        measure = FiniteClassMeasure(dual, weights, description=text)
    assert main(["cramer", "--dual", f"finite:{group}", text]) == 0
    out = capsys.readouterr().out
    assert out == ref_cramer_output(dual, measure, text)
    report = json.loads(out)
    assert report["max_scattering_violation"] == report["reconstruction_residual"] == 0.0
    assert all(math.copysign(1, c["gamma_second_moment"]) == 1 for c in report["classes"])


@pytest.mark.parametrize("document", [cyclic_document(16), dihedral_document(29)], ids=["c16", "d29"])
def test_cramer_on_sixteen_classes(capsys, tmp_path, document):
    path = tmp_path / f"{document['name']}.json"
    path.write_text(json.dumps(document))
    dual = load_character_table(str(path))
    weights = cramer_weights(16, 5)
    text = "classes:" + ",".join(repr(w) for w in weights)
    assert main(["cramer", "--dual", f"finite:{path}", text]) == 0
    measure = FiniteClassMeasure(dual, weights, description=text)
    assert capsys.readouterr().out == ref_cramer_output(dual, measure, text)


def ref_reconstruction_residual(scattered):
    dual = scattered.measure.dual
    worst = 0.0
    for label in dual.labels():
        row = dual.character(label)
        diff = row - row @ scattered.values
        worst = max(worst, float(np.sqrt(scattered._expect(diff, diff).real)))
    return worst


@pytest.mark.parametrize("group", CRAMER_GROUPS)
def test_reconstruction_residual_of_other_variables(group):
    # The indicators rebuild every Y_pi exactly; other variables leave a residual.
    dual = load_character_table(group)
    r = dual.data.num_classes
    rng = np.random.default_rng(r)
    measure = FiniteClassMeasure(dual, cramer_weights(r, r))
    zero_one = rng.integers(0, 2, (r, r)).astype(float)
    for values in (zero_one, rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))):
        scattered = ScatteredMeasure(measure, values, "test")
        want = ref_reconstruction_residual(scattered)
        assert want > 0
        assert scattered.reconstruction_residual() == pytest.approx(want, rel=1e-12)


def test_squared_dimensions_message():
    document = as_document(load_character_table("s3").data)
    document["order"], document["class_sizes"] = 7, [1, 3, 3]
    dims = np.round(parse_group_document(document).characters[:, 0].real)
    squares = sum(int(d) ** 2 for d in dims.tolist())  # the loop it replaced
    with pytest.raises(DataIntegrityError) as caught:
        load_character_table(document)
    assert str(caught.value) == f"s3: squared dimensions sum to {squares}, expected 7"
