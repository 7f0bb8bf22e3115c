import json
import math
from pathlib import Path

import numpy as np
import pytest

from dualfield import BUILTIN_GROUPS
from dualfield.cli import main, resolve_dual


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTensorCommand:
    def test_su2_decomposition_with_dimcheck(self, capsys):
        code, out, _ = run(capsys, "tensor", "--dual", "su2", "1", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,multiplicity,dim"
        assert lines[1:3] == ["0,1,1", "2,1,3"]
        assert lines[3] == "# dimcheck 4=4"

    def test_torus(self, capsys):
        code, out, _ = run(capsys, "tensor", "--dual", "torus", "3", "--", "-1")
        assert code == 0
        assert "2,1,1" in out

    def test_finite_by_name(self, capsys):
        code, out, _ = run(capsys, "tensor", "--dual", "finite:s3", "sgn", "sgn")
        assert code == 0
        assert "trivial,1,1" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "tensor", "--dual", "su2", "--format", "json", "2", "1")
        payload = json.loads(out)
        assert payload["dimcheck"] == {"ok": True, "product": 6, "sum": 6}
        assert [row["label"] for row in payload["decomposition"]] == ["1", "3"]

    def test_unknown_label_exit_code(self, capsys):
        code, _, err = run(capsys, "tensor", "--dual", "finite:s3", "sgn", "zzz")
        assert code == 2
        assert "zzz" in err

    def test_unknown_dual_exit_code(self, capsys):
        code, _, err = run(capsys, "tensor", "--dual", "so3", "1", "1")
        assert code == 2


class TestConvolveCommand:
    def test_normalized(self, capsys):
        code, out, _ = run(
            capsys, "convolve", "--dual", "su2", "--kind", "normalized", "1:1", "1:1"
        )
        assert code == 0
        assert "0,0.25,0" in out
        assert "2,0.75,0" in out

    def test_neutral_element(self, capsys):
        code, out, _ = run(capsys, "convolve", "--dual", "su2", "3:1", "0:1")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,1,0"


class TestSpectralCommand:
    def test_heat_values(self, capsys):
        code, out, _ = run(capsys, "spectral", "--dual", "su2", "--bound", "3", "heat:1")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for n, row in enumerate(rows):
            label, re, im = row.split(",")
            assert int(label) == n
            expected = (n + 1) * math.exp(-n * (n + 2))
            assert abs(float(re) - expected) < 1e-8
            assert float(im) == 0.0

    def test_finite_haar(self, capsys):
        code, out, _ = run(capsys, "spectral", "--dual", "finite:s3", "haar")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        assert values["trivial"] == pytest.approx(1.0)
        assert values["sgn"] == pytest.approx(0.0, abs=1e-12)
        assert values["std"] == pytest.approx(0.0, abs=1e-12)

    def test_heat_on_finite_dual_is_domain_error(self, capsys):
        code, _, err = run(capsys, "spectral", "--dual", "finite:s3", "heat:1")
        assert code == 2

    def test_infinite_heat_time_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spectral", "--dual", "su2", "--bound", "3", "heat:inf")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_heat_time_past_the_quadrature_rule_is_usage_error(self, capsys):
        code, out, err = run(capsys, "spectral", "--dual", "su2", "--bound", "3", "heat:1e-9")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "256" in err

    @pytest.mark.parametrize("window", [("--labels", "5..2"), ("--bound", "-1")])
    def test_empty_window_is_usage_error(self, capsys, window):
        code, out, err = run(capsys, "spectral", "--dual", "su2", *window, "haar")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestInvertCommand:
    def test_white_noise_covariance_gives_haar(self, capsys):
        code, out, _ = run(capsys, "invert", "--dual", "finite:s3", "1,0,0")
        assert code == 0
        weights = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert weights == pytest.approx([1 / 6, 1 / 2, 1 / 3], abs=1e-12)

    def test_not_positive_definite(self, capsys):
        code, _, err = run(capsys, "invert", "--dual", "finite:s3", "1,1,-2")
        assert code == 2
        assert "not positive" in err

    def test_wrong_value_count(self, capsys):
        code, _, err = run(capsys, "invert", "--dual", "finite:s3", "1,0")
        assert code == 2


class TestSimulateCommand:
    def test_path_deterministic_given_seed(self, capsys):
        args = ("simulate", "--dual", "su2", "--bound", "5", "--seed", "9", "ar1:0.9,0")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert len(out_a.strip().splitlines()) == 7

    def test_generated_seed_recorded(self, capsys):
        code, out, _ = run(capsys, "simulate", "--dual", "su2", "--bound", "2", "whitenoise")
        assert code == 0
        assert out.startswith("# seed=")

    def test_series_covariance_table(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", "3",
            "--seed", "4", "--samples", "20000", "ar1:0.9,0",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,h,re_closed,im_closed,re_mc,im_mc,stderr"
        for row in rows[1:]:
            n, h, re_c, im_c, re_mc, im_mc, stderr = row.split(",")
            gap = abs(complex(float(re_c), float(im_c)) - complex(float(re_mc), float(im_mc)))
            assert gap <= 6 * float(stderr)

    def test_field_covariance_table(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", "1",
            "--seed", "4", "--samples", "5000", "whitenoise",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "pi1,pi2,re_exact,im_exact,re_mc,im_mc,stderr"
        assert len(rows) == 5

    @pytest.mark.parametrize("spec", ["ma:1,0;1,0", "whitenoise"])
    def test_one_sample_is_usage_error(self, capsys, spec):
        code, out, err = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", "1",
            "--seed", "3", "--samples", "1", spec,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "two samples" in err

    @pytest.mark.parametrize(
        "bound, samples, needle",
        [("-1", "5", "empty label window"), ("2", "-5", "--samples"), ("-1", "-5", "--samples")],
    )
    @pytest.mark.parametrize("spec", ["ar1:0.5,0", "ma:1,0;1,0", "whitenoise"])
    def test_bad_window_or_sample_count_is_usage_error(self, capsys, spec, bound, samples, needle):
        code, out, err = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", bound,
            "--seed", "3", "--samples", samples, spec,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and needle in err
        assert "negative dimensions" not in err

    def test_finite_dual_needs_no_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "finite:s3", "--seed", "11",
            "kolmogorov:classes:0.5,0.5,0",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "path.csv"
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", "2",
            "--seed", "1", "--output", str(target), "whitenoise",
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,re,im")


class TestCheckCommand:
    def test_white_noise_statdef_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--dual", "su2", "--labels", "0..4", "whitenoise"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["condition"] == "statdef"
        assert payload["max_violation"] == 0.0

    def test_white_noise_normalized_fails_with_quarter_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--dual", "su2", "--labels", "0..2",
            "--kind", "normalized", "whitenoise",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["condition"] == "stathyp:normalized"
        witness = next(
            w for w in payload["witnesses"] if (w["pi1"], w["pi2"]) == ("1", "1")
        )
        assert witness["lhs"] == [1.0, 0.0]
        assert witness["rhs"] == [0.25, 0.0]

    def test_representation_ring_kind_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--dual", "su2", "--labels", "0..3",
            "--kind", "representation_ring", "whitenoise",
        )
        assert code == 0

    def test_kolmogorov_heat_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check", "--dual", "su2", "--labels", "0..3",
            "--tol", "1e-10", "kolmogorov:heat:1",
        )
        assert code == 0

    def test_nonreal_ar1_fails(self, capsys):
        code, out, _ = run(
            capsys, "check", "--dual", "su2", "--labels", "0..4", "ar1:0,1"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["witnesses"]

    def test_finite_dual_defaults_to_all_labels(self, capsys):
        code, out, _ = run(
            capsys, "check", "--dual", "finite:q8", "kolmogorov:classes:0.5,0.5,0,0,0"
        )
        assert code == 0

    def test_series_need_su2(self, capsys):
        code, _, err = run(capsys, "check", "--dual", "torus", "ar1:0.9,0")
        assert code == 2

    @pytest.mark.parametrize("window", [("--labels", "5..2"), ("--bound", "-1")])
    @pytest.mark.parametrize("kind", ["statdef", "representation_ring", "normalized"])
    def test_empty_window_is_usage_error(self, capsys, window, kind):
        code, out, err = run(
            capsys, "check", "--dual", "su2", *window, "--kind", kind, "whitenoise"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestCramerCommand:
    def test_haar_on_c3(self, capsys):
        code, out, _ = run(capsys, "cramer", "--dual", "finite:c3", "haar")
        assert code == 0
        payload = json.loads(out)
        assert payload["reconstruction_residual"] <= 1e-12
        assert payload["max_scattering_violation"] <= 1e-12
        for row in payload["classes"]:
            assert row["gamma_second_moment"] == pytest.approx(row["mu"], abs=1e-12)

    def test_requires_finite_dual(self, capsys):
        code, _, err = run(capsys, "cramer", "--dual", "su2", "haar")
        assert code == 2


class TestGroupSearchPath:
    def test_env_search_path(self, capsys, tmp_path, monkeypatch):
        document = {
            "name": "flip",
            "order": 2,
            "class_sizes": [1, 1],
            "inverse_class": [0, 1],
            "characters": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]],
            "irrep_names": ["trivial", "flip"],
        }
        (tmp_path / "flip.json").write_text(json.dumps(document))
        monkeypatch.setenv("DUALFIELD_GROUPS", str(tmp_path))
        code, out, _ = run(capsys, "tensor", "--dual", "finite:flip", "flip", "flip")
        assert code == 0
        assert "trivial,1,1" in out

    def test_corrupt_table_is_data_integrity_exit(self, capsys, tmp_path, monkeypatch):
        document = {
            "name": "bad",
            "order": 2,
            "class_sizes": [1, 1],
            "inverse_class": [0, 1],
            "characters": [[[1, 0], [1, 0]], [[1, 0], [-0.5, 0]]],
        }
        (tmp_path / "bad.json").write_text(json.dumps(document))
        monkeypatch.setenv("DUALFIELD_GROUPS", str(tmp_path))
        code, out, err = run(capsys, "tensor", "--dual", "finite:bad", "0", "0")
        assert code == 3
        assert out == ""
        assert err.startswith("data error: bad: character rows are not orthonormal")

    def test_unknown_group_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("DUALFIELD_GROUPS", raising=False)
        code, _, err = run(capsys, "tensor", "--dual", "finite:mystery", "0", "0")
        assert code == 2


def cyclic_table(n):
    """Character table of the cyclic group of order n: chi_j(c) = e^{2 pi i j c / n}."""
    angles = 2.0 * math.pi * np.outer(np.arange(n), np.arange(n)) / n
    return {
        "name": f"c{n}",
        "order": n,
        "class_sizes": [1] * n,
        "inverse_class": [(-c) % n for c in range(n)],
        "characters": np.stack([np.cos(angles), np.sin(angles)], axis=-1).tolist(),
    }


D4_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "d4.json"


class TestCramerClosedForm:
    def test_sixteen_classes_exact(self, capsys, tmp_path):
        # 4^16 subset pairs would take hours; the class-pair check is 16^2.
        path = tmp_path / "c16.json"
        path.write_text(json.dumps(cyclic_table(16)))
        code, out, _ = run(capsys, "cramer", "--dual", f"finite:{path}", "haar")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["classes"]) == 16
        assert payload["max_scattering_violation"] == 0.0
        assert payload["reconstruction_residual"] == 0.0

    @pytest.mark.parametrize("group", [*BUILTIN_GROUPS, "d4"])
    @pytest.mark.parametrize("kind", ["haar", "ramp", "null class"])
    def test_gamma_second_moment_is_mu(self, capsys, group, kind):
        dual = f"finite:{D4_PATH if group == 'd4' else group}"
        r = resolve_dual(dual).data.num_classes
        if kind == "haar":
            spec = "haar"
        else:
            weights = np.arange(1.0, r + 1.0)
            if kind == "null class":
                weights[-1] = 0.0
            spec = "classes:" + ",".join(repr(float(w)) for w in weights / weights.sum())
        code, out, _ = run(capsys, "cramer", "--dual", dual, spec)
        assert code == 0
        payload = json.loads(out)
        for row in payload["classes"]:
            assert row["gamma_second_moment"] == row["mu"]
        assert payload["max_scattering_violation"] == 0.0
        assert payload["reconstruction_residual"] == 0.0


class TestNonFiniteNumbersRefused:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--dual", "su2", "--bound", "3", "--tol", "inf", "ar1:0,1"],
            ["check", "--dual", "su2", "--bound", "3", "--tol", "nan", "whitenoise"],
            ["check", "--dual", "su2", "--bound", "3", "--tol", "-1", "whitenoise"],
            ["check", "--dual", "finite:s3", "--kind", "normalized", "--tol", "nan", "whitenoise"],
            ["spectral", "--dual", "su2", "--bound", "3", "atoms:0.5:nan"],
            ["spectral", "--dual", "su2", "--bound", "3", "atoms:0.5:-0.1"],
            ["spectral", "--dual", "finite:s3", "classes:nan,0.5,0.5"],
            ["spectral", "--dual", "finite:s3", "classes:inf,0,0"],
            ["spectral", "--dual", "torus", "--bound", "3", "atoms:0.5:inf"],
            ["cramer", "--dual", "finite:s3", "classes:0.5,nan,0.5"],
            ["invert", "--dual", "finite:s3", "nan,0,0"],
            ["invert", "--dual", "finite:s3", "1,inf,0"],
            ["convolve", "--dual", "su2", "1:nan", "1:1"],
            ["convolve", "--dual", "su2", "1:1", "2:infj"],
            ["check", "--dual", "su2", "--bound", "2", "ar1:nan,0"],
            ["check", "--dual", "su2", "--bound", "2", "ma:1,0;0,nan"],
            ["simulate", "--dual", "su2", "--bound", "2", "--seed", "1", "ar1:inf,0"],
        ],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("window", ["0..154", "0..400"])
    def test_overflowing_ar1_powers_are_usage_errors(self, capsys, window):
        # |lambda|^2 = 100, so 100^(n + 1) overflows from n = 154 and lambda^h from h = 309.
        code, out, err = run(capsys, "check", "--dual", "su2", "--labels", window, "ar1:10,0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_zero_tolerance_still_valid(self, capsys):
        code, out, _ = run(capsys, "check", "--dual", "su2", "--bound", "3", "--tol", "0", "whitenoise")
        assert code == 0
        assert json.loads(out)["tol"] == 0.0
