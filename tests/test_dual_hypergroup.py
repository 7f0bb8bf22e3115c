import json

import numpy as np
import pytest

from dualfield import (
    DataIntegrityError,
    DualVector,
    CapabilityError,
    FiniteGroupData,
    LabelDomainError,
    SchemaError,
    conjugate_vector,
    convolve,
    load_character_table,
    multiplicity_by_integration,
    tensor_decompose,
)

# Independent oracles, kept deliberately separate from the library paths:
# a sin-quotient quadrature for SU(2) and a literal class sum over a table
# transcribed here by hand.

S3_SIZES = [1, 3, 2]
S3_TABLE = {
    "trivial": [1, 1, 1],
    "sgn": [1, -1, 1],
    "std": [2, 0, -1],
}


def su2_char_sin(n, theta):
    return np.sin((n + 1) * theta) / np.sin(theta)


def su2_multiplicity_quadrature(a, b, target, nodes=512):
    # Midpoint rule on the open interval avoids the sin quotient endpoints.
    theta = (np.arange(nodes) + 0.5) * np.pi / nodes
    weight = (2.0 / np.pi) * np.sin(theta) ** 2 * (np.pi / nodes)
    values = su2_char_sin(a, theta) * su2_char_sin(b, theta) * su2_char_sin(target, theta)
    return float((weight * values).sum())


def s3_multiplicity_class_sum(a, b, target):
    total = 0.0
    for size, xa, xb, xt in zip(
        S3_SIZES, S3_TABLE[a], S3_TABLE[b], S3_TABLE[target]
    ):
        total += size * xa * xb * xt  # all S3 characters are real
    return total / 6.0


def as_int_dict(vec):
    return {k: int(v.real) for k, v in vec.items()}


class TestDualVector:
    def test_zero_coefficients_dropped(self):
        v = DualVector({0: 1.0, 3: 0.0, 5: 0j})
        assert v.support == (0,)
        assert len(v) == 1

    def test_arithmetic_and_mass(self):
        v = DualVector({0: 1, 2: 1j}) + DualVector({2: -1j, 4: 2})
        assert v.as_dict() == {0: 1, 4: 2}
        assert v.scaled(0.5).mass() == 1.5

    def test_probability_predicate(self):
        assert DualVector({0: 0.25, 2: 0.75}).is_probability()
        assert not DualVector({0: 0.5, 2: 0.6}).is_probability()
        assert not DualVector({0: 1.5, 2: -0.5}).is_probability()


class TestTensorDecompose:
    def test_torus_adds_labels(self, torus):
        assert as_int_dict(tensor_decompose(torus, 3, -1)) == {2: 1}

    def test_su2_examples_against_quadrature(self, su2):
        assert as_int_dict(tensor_decompose(su2, 1, 1)) == {0: 1, 2: 1}
        assert as_int_dict(tensor_decompose(su2, 2, 1)) == {1: 1, 3: 1}
        for a, b, expected in [(1, 1, {0: 1, 2: 1}), (2, 1, {1: 1, 3: 1})]:
            for target in range(a + b + 2):
                reference = su2_multiplicity_quadrature(a, b, target)
                assert abs(reference - expected.get(target, 0)) < 1e-6

    def test_s3_sign_squares_to_trivial(self, s3):
        sgn = s3.label_from_str("sgn")
        vec = tensor_decompose(s3, sgn, sgn)
        assert as_int_dict(vec) == {0: 1}
        assert abs(s3_multiplicity_class_sum("sgn", "sgn", "trivial") - 1.0) < 1e-12

    def test_s3_std_squared(self, s3):
        std = s3.label_from_str("std")
        vec = as_int_dict(tensor_decompose(s3, std, std))
        expected = {
            s3.label_from_str(name): round(s3_multiplicity_class_sum("std", "std", name))
            for name in S3_TABLE
        }
        assert vec == {k: v for k, v in expected.items() if v}

    def test_unknown_label(self, su2, s3):
        with pytest.raises(LabelDomainError):
            tensor_decompose(su2, -1, 2)
        with pytest.raises(LabelDomainError):
            tensor_decompose(s3, 0, 9)

    def test_commutativity_window(self, su2, torus, s3, q8):
        for dual, labels in [
            (su2, range(7)),
            (torus, range(-4, 5)),
            (s3, s3.labels()),
            (q8, q8.labels()),
        ]:
            for a in labels:
                for b in labels:
                    assert tensor_decompose(dual, a, b) == tensor_decompose(dual, b, a)

    def test_dimension_count(self, su2, s3, q8, c5):
        for dual, labels in [
            (su2, range(13)),
            (s3, s3.labels()),
            (q8, q8.labels()),
            (c5, c5.labels()),
        ]:
            for a in labels:
                for b in labels:
                    vec = tensor_decompose(dual, a, b)
                    total = sum(int(m.real) * dual.dim(k) for k, m in vec.items())
                    assert total == dual.dim(a) * dual.dim(b)

    def test_neutral_law(self, su2, torus, s3, q8):
        for dual, labels in [
            (su2, range(6)),
            (torus, range(-3, 4)),
            (s3, s3.labels()),
            (q8, q8.labels()),
        ]:
            for a in labels:
                assert as_int_dict(tensor_decompose(dual, a, dual.neutral)) == {a: 1}

    def test_orthogonality_of_characters(self, su2, torus, s3, c5, q8):
        # Coefficient of the neutral label in a (x) b* detects equality.
        for dual, labels in [
            (su2, range(9)),
            (torus, range(-8, 9)),
            (s3, s3.labels()),
            (c5, c5.labels()),
            (q8, q8.labels()),
        ]:
            for a in labels:
                for b in labels:
                    coeff = tensor_decompose(dual, a, dual.conjugate(b)).coeff(dual.neutral)
                    assert coeff == (1 if a == b else 0)


class TestMultiplicityByIntegration:
    def test_su2_values(self, su2):
        assert abs(multiplicity_by_integration(su2, 1, 1, 2) - 1.0) < 1e-9
        assert abs(multiplicity_by_integration(su2, 1, 1, 1)) < 1e-9
        assert multiplicity_by_integration(su2, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_clebsch_gordan_window(self, su2):
        for a in range(13):
            for b in range(13):
                vec = tensor_decompose(su2, a, b)
                for target in range(a + b + 1):
                    integral = multiplicity_by_integration(su2, a, b, target)
                    assert abs(integral - vec.coeff(target).real) < 1e-6

    def test_finite_group_literal_class_sum(self, s3, q8):
        for dual in (s3, q8):
            for a in dual.labels():
                for b in dual.labels():
                    vec = tensor_decompose(dual, a, b)
                    for target in dual.labels():
                        integral = multiplicity_by_integration(dual, a, b, target)
                        assert abs(integral - vec.coeff(target).real) < 1e-10

    def test_torus_unsupported(self, torus):
        with pytest.raises(CapabilityError):
            multiplicity_by_integration(torus, 1, 1, 2)


class TestConvolve:
    def test_representation_ring_point_masses(self, su2):
        out = convolve(su2, DualVector.point_mass(1), DualVector.point_mass(1))
        assert as_int_dict(out) == {0: 1, 2: 1}

    def test_normalized_point_masses(self, su2):
        out = convolve(
            su2, DualVector.point_mass(1), DualVector.point_mass(1), "normalized"
        )
        assert out.as_dict() == {0: 0.25, 2: 0.75}

    def test_neutral_element(self, su2, s3, torus):
        for dual, label in [(su2, 3), (s3, 2), (torus, -2)]:
            delta = DualVector.point_mass(label)
            eps = DualVector.point_mass(dual.neutral)
            for kind in ("representation_ring", "normalized"):
                assert convolve(dual, delta, eps, kind).as_dict() == {label: 1}
                assert convolve(dual, eps, delta, kind).as_dict() == {label: 1}

    def test_unknown_kind(self, su2):
        with pytest.raises(ValueError):
            convolve(su2, DualVector.point_mass(0), DualVector.point_mass(0), "other")

    def _random_vector(self, rng, labels, size=3):
        chosen = rng.choice(labels, size=size, replace=False)
        return DualVector(
            {int(k): complex(*rng.normal(size=2)) for k in chosen}
        )

    def test_commutative_and_associative(self, su2, s3, rng):
        for dual, labels in [(su2, list(range(5))), (s3, s3.labels())]:
            for _ in range(25):
                u = self._random_vector(rng, labels)
                v = self._random_vector(rng, labels)
                w = self._random_vector(rng, labels)
                for kind in ("representation_ring", "normalized"):
                    uv = convolve(dual, u, v, kind)
                    vu = convolve(dual, v, u, kind)
                    assert uv.approx_eq(vu, tol=1e-12)
                    left = convolve(dual, uv, w, kind)
                    right = convolve(dual, u, convolve(dual, v, w, kind), kind)
                    assert left.approx_eq(right, tol=1e-12)

    def test_normalized_preserves_probability(self, su2, q8, rng):
        for dual, labels in [(su2, list(range(6))), (q8, q8.labels())]:
            for _ in range(25):
                raw1 = rng.random(3)
                raw2 = rng.random(3)
                picks1 = rng.choice(labels, size=3, replace=False)
                picks2 = rng.choice(labels, size=3, replace=False)
                p1 = DualVector(dict(zip(map(int, picks1), raw1 / raw1.sum())))
                p2 = DualVector(dict(zip(map(int, picks2), raw2 / raw2.sum())))
                out = convolve(dual, p1, p2, "normalized")
                assert abs(out.mass() - 1) < 1e-12
                assert all(v.real > -1e-12 and abs(v.imag) < 1e-12 for _, v in out.items())


class TestConjugateVector:
    def test_torus_negates(self, torus):
        assert conjugate_vector(torus, DualVector({5: 1})).as_dict() == {-5: 1}

    def test_su2_fixed(self, su2):
        assert conjugate_vector(su2, DualVector({3: 2})).as_dict() == {3: 2}

    def test_coefficients_not_conjugated(self, s3):
        out = conjugate_vector(s3, DualVector({1: 1 + 2j}))
        assert out.as_dict() == {1: 1 + 2j}

    def test_c3_swaps_nontrivial_characters(self, c3):
        out = conjugate_vector(c3, DualVector({1: 1j, 2: 2}))
        assert out.as_dict() == {2: 1j, 1: 2}

    def test_involution_and_dimension(self, q8, su2, torus):
        for dual, labels in [(q8, q8.labels()), (su2, range(7)), (torus, range(-5, 6))]:
            for a in labels:
                conj = dual.conjugate(a)
                assert dual.conjugate(conj) == a
                assert dual.dim(conj) == dual.dim(a)


class TestLoadCharacterTable:
    def test_builtin_shapes(self, s3, c3, c5, q8, c2):
        assert [s3.dim(i) for i in s3.labels()] == [1, 1, 2]
        assert [c3.dim(i) for i in c3.labels()] == [1, 1, 1]
        assert [c5.dim(i) for i in c5.labels()] == [1] * 5
        assert [q8.dim(i) for i in q8.labels()] == [1, 1, 1, 1, 2]
        assert [c2.dim(i) for i in c2.labels()] == [1, 1]
        assert s3.neutral == 0 and s3.dim(s3.neutral) == 1

    def _s3_document(self):
        return {
            "name": "s3copy",
            "order": 6,
            "class_sizes": [1, 3, 2],
            "inverse_class": [0, 1, 2],
            "characters": [
                [[1, 0], [1, 0], [1, 0]],
                [[1, 0], [-1, 0], [1, 0]],
                [[2, 0], [0, 0], [-1, 0]],
            ],
        }

    def test_document_without_names_gets_defaults(self):
        dual = load_character_table(self._s3_document())
        assert dual.label_to_str(0) == "trivial"
        assert dual.label_from_str("pi2") == 2

    def test_corrupted_character_fails_orthogonality(self):
        doc = self._s3_document()
        doc["characters"][2][2] = [-1.001, 0]
        with pytest.raises(DataIntegrityError):
            load_character_table(doc)

    def test_corrupt_table_message(self):
        doc = self._s3_document()
        doc["characters"][2][2] = [-1.001, 0]
        with pytest.raises(DataIntegrityError, match="s3copy: character rows are not orthonormal"):
            load_character_table(doc)

    def test_table_validated_once(self, monkeypatch):
        calls = []
        original = FiniteGroupData.validate

        def counted(data):
            calls.append(data.name)
            original(data)

        monkeypatch.setattr(FiniteGroupData, "validate", counted)
        load_character_table(self._s3_document())
        load_character_table("q8")
        assert calls == ["s3copy", "q8"]

    def test_bad_class_sizes(self):
        doc = self._s3_document()
        doc["class_sizes"] = [1, 3, 3]
        with pytest.raises(DataIntegrityError):
            load_character_table(doc)

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            load_character_table({"name": "x"})
        doc = self._s3_document()
        doc["characters"][0] = [[1, 0], [1, 0]]
        with pytest.raises(SchemaError):
            load_character_table(doc)

    def test_missing_path(self):
        with pytest.raises(SchemaError):
            load_character_table("no/such/file.json")

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(self._s3_document()))
        dual = load_character_table(path)
        assert dual.name == "s3copy"

    def test_rounding_residue_detected(self):
        # Any table passing the orthogonality gate produces clean integers,
        # so the recovery tolerance is probed on the helper itself.
        from dualfield.dual_hypergroup import _recover_multiplicity

        assert _recover_multiplicity(2.0 + 3e-7, "ok") == 2
        with pytest.raises(DataIntegrityError):
            _recover_multiplicity(2.0 + 5e-6, "residue")
        with pytest.raises(DataIntegrityError):
            _recover_multiplicity(-1.0 + 0j, "negative")

    def test_orthonormal_table_without_integer_multiplicities(self):
        # Real rows orthonormal under uniform weights, but no group's characters:
        # the structure constants built at load are not integers.
        x, y = (-1 + 3**0.5) / 2, (-1 - 3**0.5) / 2
        doc = {
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
        with pytest.raises(DataIntegrityError, match="multiplicity of 1 in 1x1"):
            load_character_table(doc)

    def test_tables_are_read_only(self):
        # One dual may serve many callers, so nothing it hands out can be written.
        dual = load_character_table(self._s3_document())
        with pytest.raises(ValueError, match="read-only"):
            dual.data.characters[1, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            dual.character(2)[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            dual._structure[1, 1, 0] = 7
        assert dict(dual.tensor(1, 1).items()) == {0: 1}


class TestLabelPresentation:
    def test_finite_names_round_trip(self, q8):
        for i in q8.labels():
            assert q8.label_from_str(q8.label_to_str(i)) == i
        assert q8.label_from_str("3") == 3
        with pytest.raises(LabelDomainError):
            q8.label_from_str("nonsense")

    def test_enumeration_bounds(self, su2, torus, s3):
        assert su2.labels(4) == [0, 1, 2, 3, 4]
        assert torus.labels(2) == [-2, -1, 0, 1, 2]
        assert s3.labels() == [0, 1, 2]
        with pytest.raises(ValueError):
            su2.labels()
        with pytest.raises(ValueError):
            torus.labels()
