import cmath
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualfield import BUILTIN_GROUPS
from dualfield import cli, dual_hypergroup
from dualfield.cli import main, resolve_dual
from dualfield.stationary_fields import jackknife_estimate, white_noise_sequence
from dualfield.time_series import ar1_covariance, parse_series_spec


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

    @pytest.mark.parametrize(
        "bound, spec", [(0, "ma:1,0;1,0"), (1, "ma:1,0;0.5,1;0.3,0"), (2, "ma:1,0;-0.5,0.5;0.25,0")]
    )
    def test_ma_table_meets_its_exact_column_below_q(self, capsys, bound, spec):
        # The MA table is estimated in the steady regime, bound < q included.
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", str(bound),
            "--seed", "1", "--samples", "200000", spec,
        )
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            n, h, re_c, im_c, re_mc, im_mc, stderr = row.split(",")
            gap = abs(complex(float(re_c), float(im_c)) - complex(float(re_mc), float(im_mc)))
            assert gap <= 4 * float(stderr)

    @pytest.mark.parametrize(
        "bound, lam, samples, seed",
        [(0, "0.5,0.3", 2000, 1), (3, "0.9,0", 5000, 7), (12, "-0.7,0.2", 3000, 2)],
    )
    def test_ar_tables_keep_the_path_bits(self, capsys, bound, lam, samples, seed):
        """AR(1) tables draw one noise column per label bound..2 * bound and bridge the gap to bound."""
        code, out, _ = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", str(bound),
            "--seed", str(seed), "--samples", str(samples), f"ar1:{lam}",
        )
        assert code == 0
        spec = parse_series_spec(f"ar1:{lam}")
        oracle = spec.oracle()
        z = spec.coefficients[0]
        noise = white_noise_sequence((samples, bound + 1), seed=seed)
        # Y_bound from Y_{-1} = 0 in one gap of bound + 1, then one step per label.
        paths = np.empty_like(noise)
        y = np.zeros(samples, dtype=complex)
        for i in range(bound + 1):
            if i == 0 and bound > 0:
                gap = bound + 1
                y = z**gap * y + noise[:, i] * math.sqrt(ar1_covariance(z, gap - 1, 0).real)
            else:
                y = z * y + noise[:, i]
            paths[:, i] = y
        lines = ["n,h,re_closed,im_closed,re_mc,im_mc,stderr"]
        for h in range(bound + 1):
            exact = oracle(bound + h, bound)
            est = jackknife_estimate(paths[:, h] * np.conj(paths[:, 0]))
            parts = (exact.real, exact.imag, est.mean.real, est.mean.imag, est.stderr)
            lines.append(f"{bound},{h}," + ",".join(f"{x:.17g}" for x in parts))
        assert out == "\n".join(lines) + "\n"

    def test_series_table_is_one_window_estimate(self, capsys, monkeypatch):
        calls = []
        original = cli.estimate_covariance_matrix

        def spy(field, labels, n_samples, seed, n_streams=1, columns=None):
            calls.append((list(labels), n_samples, seed, columns))
            return original(field, labels, n_samples, seed, n_streams, columns)

        monkeypatch.setattr(cli, "estimate_covariance_matrix", spy)
        argv = ["--dual", "su2", "--bound", "2", "--seed", "3", "--samples", "50", "ma:1,0;1,0"]
        assert run(capsys, "simulate", *argv)[0] == 0
        assert calls == [([2, 3, 4], 50, 3, [2])]

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
    @pytest.mark.parametrize("command", [["check", "--labels", "0..2"], ["simulate", "--bound", "2"]])
    @pytest.mark.parametrize("spec", ["whitenoise", "kolmogorov:heat:0.5", "ar1:0.5,0"])
    def test_negative_seed_exits_2_without_a_draw(self, capsys, command, spec):
        # A check never draws, so its field never builds the generator that
        # would refuse the seed: the seed is refused with the field spec.
        code, out, err = run(capsys, command[0], "--dual", "su2", *command[1:], "--seed", "-1", spec)
        assert (code, out) == (2, "")
        assert "--seed must be a nonnegative integer, got -1" in err

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

    @pytest.mark.parametrize("lam", ["1.000000005,0", "0.999999995,0", "-0.999999995,0"])
    def test_real_ar1_near_the_unit_circle_passes(self, capsys, lam):
        # Inside UNIT_CIRCLE_TOL, but |lam|^2 != 1: the sum of |lam|^{2l} is not n + 1.
        code, out, _ = run(capsys, "check", "--dual", "su2", "--labels", "0..60", f"ar1:{lam}")
        assert code == 0
        assert json.loads(out)["max_violation"] < 1e-12

    def test_nonreal_ar1_near_the_unit_circle_fails(self, capsys):
        lam = cmath.rect(1.0 + 5e-9, 0.7)
        code, out, _ = run(
            capsys, "check", "--dual", "su2", "--labels", "0..60", f"ar1:{lam.real!r},{lam.imag!r}"
        )
        assert code == 1
        assert json.loads(out)["max_violation"] > 1.0

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


class TestNonFiniteResults:
    """Finite inputs whose results overflow double precision exit 2, never print inf or nan."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectral", "--dual", "finite:s3", "classes:1e308,1e308,1e308"],
            ["spectral", "--dual", "su2", "--bound", "2", "atoms:1:1e308,2:1e308"],
            ["spectral", "--dual", "torus", "--bound", "2", "atoms:1:1e308,2:1e308"],
            ["spectral", "--dual", "su2", "--labels", "0..2", "atoms:0:1e308"],
            ["spectral", "--dual", "su2", "--format", "json", "--labels", "1", "atoms:0:1e308"],
            ["simulate", "--dual", "su2", "--bound", "3", "--seed", "1", "--samples", "5",
             "ma:1e308,0;1e308,0"],
            ["simulate", "--dual", "su2", "--bound", "3", "--seed", "1", "--samples", "5", "ar1:1e200,0"],
            ["simulate", "--dual", "su2", "--bound", "3", "--seed", "1", "ar1:1e200,0"],
            ["convolve", "--dual", "su2", "1:1e308", "1:1e308"],
        ],
    )
    def test_usage_error(self, capsys, argv):
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_error_names_the_row_without_a_warning(self, capsys, fmt):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "spectral", "--dual", "su2", "--format", fmt, "--labels", "0..3",
                "atoms:0:1e308",
            )
        assert (code, out) == (2, "")
        assert err == (
            "error: transform at label 1: re is inf, not finite: "
            "the input overflows double precision\n"
        )
        code, out, err = run(capsys, "convolve", "--dual", "su2", "--format", fmt, "1:1e308", "1:1e308")
        assert (code, out) == (2, "")
        assert err.startswith("error: convolution at label 0: re is ")

    def test_large_finite_results_still_print(self, capsys):
        code, out, _ = run(capsys, "spectral", "--dual", "finite:s3", "classes:1e307,0,0")
        assert code == 0
        assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == [1e307, 1e307, 2e307]


class TestOutputFile:
    """An --output file that cannot be written is a usage error, with nothing on stdout."""

    def test_missing_directory_and_directory_target(self, capsys, tmp_path):
        for target in (tmp_path / "missing" / "x.csv", tmp_path):
            code, out, err = run(capsys, "tensor", "--dual", "su2", "1", "1", "--output", str(target))
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot write --output: ") and str(target) in err
        assert list(tmp_path.iterdir()) == []


class TestSampleCountAndDrawLimit:
    def test_zero_samples_is_usage_error(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--dual", "su2", "--bound", "2", "--seed", "3", "--samples", "0", "whitenoise",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "two samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dual", "su2", "--bound", "1000000000", "--samples", "1000000", "whitenoise"],
            ["--dual", "su2", "--bound", "1000000000", "whitenoise"],
            ["--dual", "su2", "--bound", "1000000000", "--samples", "1000000", "ar1:0.5,0"],
            ["--dual", "su2", "--bound", "1000000000", "kolmogorov:heat:0.5"],
            ["--dual", "torus", "--bound", "1000000000", "kolmogorov:haar"],
            ["--dual", "finite:q8", "--samples", "1000000000", "kolmogorov:haar"],
            ["--dual", "su2", "--bound", "15", "--samples", str((1 << 20) + 1), "whitenoise"],
        ],
    )
    def test_oversized_draw_refused_before_the_window(self, capsys, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("the window was built for a refused draw")

        monkeypatch.setattr(cli, "parse_labels", forbidden)
        code, out, err = run(capsys, "simulate", "--seed", "1", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"limit of {cli.DRAW_LIMIT}" in err

    def test_limit_is_inclusive(self, capsys, monkeypatch):
        # The limit counts what the call holds: its draw and its output rows.
        argv = ["simulate", "--dual", "su2", "--bound", "2", "--seed", "1", "--samples"]
        su2 = resolve_dual("su2")
        for spec, samples in (("whitenoise", 4), ("ar1:0.5,0", 2)):
            peak = cli._peak_size(su2, cli.parse_field_spec(su2, spec, 1), 2, samples)
            monkeypatch.setattr(cli, "DRAW_LIMIT", peak)
            assert run(capsys, *argv, str(samples), spec)[0] == 0
            assert run(capsys, *argv, str(samples + 1), spec)[0] == 2

    def test_documented_examples_fit(self):
        su2, q8 = resolve_dual("su2"), resolve_dual("finite:q8")
        # The MA(1) table reads labels 3..6 and draws the noises 2..6.
        ma = cli.parse_field_spec(su2, "ma:1,0;1,0", 7)
        assert cli._draw_size(su2, ma, 3, 100000) == 500000 <= cli.DRAW_LIMIT
        haar = cli.parse_field_spec(q8, "kolmogorov:haar", 5)
        assert cli._draw_size(q8, haar, None, 2000) == 10000

    def test_ar_tables_count_one_column_per_label(self):
        su2 = resolve_dual("su2")
        ar = cli.parse_field_spec(su2, "ar1:0.5,0", 7)
        for bound, samples in ((0, 2), (3, 100000), (12, 3000)):
            assert cli._draw_size(su2, ar, bound, samples) == (bound + 1) * samples


class TestWindowLimits:
    """check and spectral windows are counted from their ends and refused before they are built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--dual", "su2", "--labels", "0..1000000000000", "whitenoise"],
            ["check", "--dual", "su2", "--bound", "1000000000000", "whitenoise"],
            ["check", "--dual", "torus", "--labels=-1000000000000..1000000000000", "whitenoise"],
            ["check", "--dual", "su2", "--labels", "0..4096", "whitenoise"],
            ["spectral", "--dual", "su2", "--bound", "1000000000000", "haar"],
            ["spectral", "--dual", "torus", "--bound", str(10**12), "haar"],
            ["spectral", "--dual", "su2", "--labels", "5..1000000000005", "heat:0.5"],
        ],
    )
    def test_huge_window_refused_at_once(self, capsys, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("the window was built for a refused request")

        monkeypatch.setattr(cli, "parse_labels", forbidden)
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"limit of {cli.DRAW_LIMIT}" in err

    def test_check_limit_counts_pairs_inclusively(self, capsys, monkeypatch):
        # The limit counts a check's memory: PEAK_PER_PAIR complex values a pair.
        monkeypatch.setattr(cli, "DRAW_LIMIT", 16 * cli.PEAK_PER_PAIR)
        assert run(capsys, "check", "--dual", "su2", "--labels", "0..3", "whitenoise")[0] == 0
        assert run(capsys, "check", "--dual", "su2", "--labels", "1,0,2,3", "whitenoise")[0] == 0
        assert run(capsys, "check", "--dual", "su2", "--labels", "0..4", "whitenoise")[0] == 2
        assert run(capsys, "check", "--dual", "su2", "--labels", "0,1,2,3,4", "whitenoise")[0] == 2
        assert run(capsys, "check", "--dual", "torus", "--bound", "1", "whitenoise")[0] == 0
        assert run(capsys, "check", "--dual", "torus", "--bound", "2", "whitenoise")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--labels", "1000000000..1000000003", "whitenoise"],
            ["--labels", "3,1000000000", "ar1:0.5,0"],
            ["--labels", "1000000..1000003", "--kind", "normalized", "whitenoise"],
            ["--labels", "600000..600003", "kolmogorov:heat:0.3"],
        ],
    )
    def test_high_su2_labels_refused_at_once(self, capsys, monkeypatch, argv):
        def forbidden(*args):
            raise AssertionError("the window was built for a refused request")

        monkeypatch.setattr(cli, "parse_labels", forbidden)
        started = time.perf_counter()
        code, out, err = run(capsys, "check", "--dual", "su2", *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert "irreducibles" in err and f"limit of {cli.DRAW_LIMIT}" in err

    def test_check_limit_counts_covered_irreducibles_inclusively(self, capsys, monkeypatch):
        su2 = resolve_dual("su2")
        for spec in ("whitenoise", "kolmogorov:heat:0.3"):
            field = cli.parse_field_spec(su2, spec, 0)
            monkeypatch.setattr(cli, "DRAW_LIMIT", cli._covered_size(field, 1000))
            assert run(capsys, "check", "--dual", "su2", "--labels", "998..1000", spec)[0] == 0
            assert run(capsys, "check", "--dual", "su2", "--labels", "1001,999", spec)[0] == 2
        # A torus check covers one difference a - b per pair and is not counted this way.
        monkeypatch.setattr(cli, "DRAW_LIMIT", 16 * cli.PEAK_PER_PAIR)
        assert run(capsys, "check", "--dual", "torus", "--labels=10000..10003", "whitenoise")[0] == 0

    def test_spectral_limit_counts_labels_inclusively(self, capsys, monkeypatch):
        # The limit counts a transform's memory: PEAK_PER_LABEL complex values a label.
        monkeypatch.setattr(cli, "DRAW_LIMIT", 16 * cli.PEAK_PER_LABEL)
        assert run(capsys, "spectral", "--dual", "su2", "--bound", "15", "haar")[0] == 0
        assert run(capsys, "spectral", "--dual", "su2", "--bound", "16", "haar")[0] == 2
        assert run(capsys, "spectral", "--dual", "torus", "--labels=-7..8", "haar")[0] == 0
        assert run(capsys, "spectral", "--dual", "torus", "--labels=-8..8", "haar")[0] == 2

    def test_empty_and_reversed_windows_stay_usage_errors(self, capsys):
        for argv in (
            ["check", "--dual", "su2", "--labels", "5..2", "whitenoise"],
            ["spectral", "--dual", "su2", "--bound", "-3", "haar"],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and "empty label window" in err


class TestPeakMemory:
    """DRAW_LIMIT bounds what a simulate call holds: its draw, its products and its output."""

    LIMIT = 1 << 20
    MAX = "largest accepted"

    @pytest.mark.parametrize(
        "dual_text, spec, bound, samples",
        [
            ("su2", "whitenoise", 3, MAX),
            ("su2", "whitenoise", 0, MAX),
            ("su2", "whitenoise", MAX, 2),
            ("su2", "whitenoise", MAX, None),
            ("su2", "kolmogorov:heat:0.3", 7, MAX),
            ("su2", "kolmogorov:heat:0.3", 0, MAX),
            ("finite:q8", "kolmogorov:haar", None, MAX),
            ("torus", "kolmogorov:haar", 3, MAX),
            ("torus", "kolmogorov:haar", MAX, None),
            ("su2", "ar1:0.5,0", 3, MAX),
            ("su2", "ma:1,0;1,0", 0, MAX),
            ("su2", "ma:1,0;1,0;0.5,0", 3, MAX),
        ],
    )
    def test_peak_within_the_limit(self, capsys, monkeypatch, dual_text, spec, bound, samples):
        monkeypatch.setattr(cli, "DRAW_LIMIT", self.LIMIT)
        dual = resolve_dual(dual_text)
        field = cli.parse_field_spec(dual, spec, 4)

        def largest(fits):
            size, step = 2, 1 << 30
            while step:
                if fits(size + step):
                    size += step
                step >>= 1
            return size

        grow_bound = bound == self.MAX
        if grow_bound:
            bound = largest(lambda b: cli._peak_size(dual, field, b, samples) <= self.LIMIT)
        else:
            samples = largest(lambda n: cli._peak_size(dual, field, bound, n) <= self.LIMIT)

        def argv(bound, samples):
            out = ["simulate", "--dual", dual_text, "--seed", "4"]
            out += [] if bound is None else ["--bound", str(bound)]
            out += [] if samples is None else ["--samples", str(samples)]
            return [*out, spec]

        # A small call first loads what numpy and the package load lazily.
        assert run(capsys, *argv(1, None if samples is None else 2))[0] == 0
        tracemalloc.start()
        try:
            code = main(argv(bound, samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 16 * self.LIMIT, peak / (16 * self.LIMIT)
        one_more = argv(bound + 1, samples) if grow_bound else argv(bound, samples + 1)
        assert run(capsys, *one_more)[0] == 2


    def test_readme_ma_example_holds_under_two_values_per_draw(self, capsys):
        # Z_2 .. Z_6 over 100000 samples: the draw is written once, label-major,
        # and the MA values are built over it.
        argv = ["simulate", "--dual", "su2", "--bound", "3", "--seed", "7", "--samples", "100000",
                "ma:1,0;1,0"]
        drawn = 5 * 100000
        # A small call first loads what numpy and the package load lazily.
        assert run(capsys, *argv[:-2], "2", argv[-1])[0] == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 2 * 16 * drawn, peak / (16 * drawn)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("measure", ["haar", "heat:0.5", "atoms:0.5:0.5,2:0.5"])
    def test_largest_spectral_window_peaks_within_the_limit(
        self, capsys, monkeypatch, fmt, measure
    ):
        limit = 1 << 16
        monkeypatch.setattr(cli, "DRAW_LIMIT", limit)
        parsed = cli.parse_measure_spec(resolve_dual("su2"), measure)
        count = limit // cli.PEAK_PER_LABEL
        while cli.PEAK_PER_LABEL * count + cli._point_size(parsed, count - 1) > limit:
            count -= 1
        argv = ["spectral", "--dual", "su2", "--format", fmt]
        # The refused window one label wider loads what the package loads lazily.
        assert run(capsys, *argv, f"--labels=0..{count}", measure)[0] == 2
        tracemalloc.start()
        try:
            code = main([*argv, f"--labels=0..{count - 1}", measure])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 16 * limit, peak / (16 * limit)


class TestCheckPeakMemory:
    """DRAW_LIMIT bounds what a check holds: its pair matrices, its report and its text."""

    LIMIT = 1 << 21

    @pytest.mark.parametrize(
        "dual_text, spec, kind",
        [
            ("su2", "whitenoise", "statdef"),
            ("su2", "ar1:0.99,0.1", "statdef"),
            ("su2", "ar1:0.5,0.5", "normalized"),
            ("su2", "ma:1,0;0.5,1;0.3,0", "representation_ring"),
            ("su2", "kolmogorov:heat:0.3", "normalized"),
            ("su2", "kolmogorov:atoms:0.5:0.5,2:0.5", "normalized"),
            ("torus", "kolmogorov:haar", "normalized"),
        ],
    )
    def test_peak_within_the_limit(self, capsys, monkeypatch, dual_text, spec, kind):
        monkeypatch.setattr(cli, "DRAW_LIMIT", self.LIMIT)
        count = math.isqrt(self.LIMIT // cli.PEAK_PER_PAIR)

        def argv(count):
            low = 0 if dual_text == "su2" else -(count // 2)
            labels = f"--labels={low}..{low + count - 1}"
            return ["check", "--dual", dual_text, labels, "--kind", kind, spec]

        # A small call first loads what numpy and the package load lazily.
        assert run(capsys, *argv(2))[0] in (0, 1)
        tracemalloc.start()
        try:
            code = main(argv(count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code in (0, 1)
        assert peak <= 16 * self.LIMIT, peak / (16 * self.LIMIT)
        assert run(capsys, *argv(count + 1))[0] == 2


class TestCheckCoveredMemory:
    """DRAW_LIMIT bounds what a check on SU(2) holds for the irreducibles its pairs cover."""

    LIMIT = 1 << 19

    @pytest.mark.parametrize(
        "spec, kind",
        [
            ("whitenoise", "statdef"),
            ("whitenoise", "normalized"),
            ("ar1:0.99,0.1", "representation_ring"),
            ("ma:1,0;0.5,1;0.3,0", "statdef"),
            ("kolmogorov:heat:0.3", "statdef"),
            ("kolmogorov:heat:0.3", "normalized"),
            ("kolmogorov:atoms:0.5:0.5,2:0.5", "representation_ring"),
        ],
    )
    def test_largest_accepted_label_within_the_limit(self, capsys, monkeypatch, spec, kind):
        monkeypatch.setattr(cli, "DRAW_LIMIT", self.LIMIT)
        su2 = resolve_dual("su2")
        field = cli.parse_field_spec(su2, spec, 0)
        top = (self.LIMIT // cli._covered_size(field, 0) - 1) // 2
        assert cli._covered_size(field, top) <= self.LIMIT
        assert cli._covered_size(field, top + 1) > self.LIMIT

        def argv(top):
            return ["check", "--dual", "su2", f"--labels={top - 3}..{top}", "--kind", kind, spec]

        # A small call first loads what numpy and the package load lazily.
        assert run(capsys, *argv(4))[0] in (0, 1)
        tracemalloc.start()
        try:
            code = main(argv(top))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code in (0, 1)
        assert peak <= 16 * self.LIMIT, peak / (16 * self.LIMIT)
        assert run(capsys, *argv(top + 1))[0] == 2

    def test_normalized_check_at_the_largest_label(self, capsys):
        # The normalized kind runs the ring kernel, so at the top of the default
        # limit it holds what it is counted for, as white noise does.
        top = 524287
        covered = 2 * top + 1

        def argv(top):
            labels = f"--labels={top - 3}..{top}"
            return ["check", "--dual", "su2", labels, "--kind", "normalized", "whitenoise"]

        # A small call first loads what numpy and the package load lazily.
        assert run(capsys, *argv(3))[0] == 1
        tracemalloc.start()
        try:
            code = main(argv(top))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 1
        assert peak <= 16 * cli.PEAK_PER_IRREDUCIBLE * covered, peak / covered
        assert run(capsys, *argv(top + 1))[0] == 2


def call(capsys, argv, fresh=False):
    """One ``main`` call; ``fresh`` first drops what a new process would not have."""
    if fresh:
        cli.build_parser.cache_clear()
        dual_hypergroup._builtin_table.cache_clear()
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInProcessCalls:
    """Calls in one process reuse the parser and the builtin tables and print what fresh calls print."""

    def test_parser_and_builtin_table_built_once(self, capsys):
        call(capsys, ["tensor", "--dual", "finite:q8", "chi_i", "chi_j"], fresh=True)
        parser, q8 = cli.build_parser(), cli.resolve_dual("finite:Q8")
        call(capsys, ["cramer", "--dual", "finite:q8", "haar"])
        assert cli.build_parser() is parser
        assert cli.resolve_dual("finite:q8") is q8

    def _alternate(self, capsys, first, second):
        fresh = [call(capsys, first, fresh=True), call(capsys, second, fresh=True)]
        for _ in range(2):
            assert [call(capsys, first), call(capsys, second)] == fresh
        return fresh

    def test_json_then_csv(self, capsys):
        base = ["tensor", "--dual", "finite:q8", "chi_i", "chi_j"]
        (code_j, out_j, _), (code_c, out_c, _) = self._alternate(
            capsys, [*base[:3], "--format", "json", *base[3:]], base
        )
        assert code_j == code_c == 0
        assert json.loads(out_j)["decomposition"][0]["label"] == "chi_k"
        assert out_c.startswith("label,multiplicity,dim\nchi_k,1,1\n")

    def test_output_then_stdout(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        argv = ["simulate", "--dual", "finite:s3", "--seed", "4", "--samples", "300", "kolmogorov:haar"]
        (code_f, out_f, _), (code_s, out_s, _) = self._alternate(
            capsys, [*argv[:-1], "--output", str(target), argv[-1]], argv
        )
        assert code_f == code_s == 0
        assert out_f == ""
        assert target.read_text() == out_s and out_s.startswith("pi1,pi2,")

    def test_explicit_then_generated_seed(self, capsys):
        argv = ["simulate", "--dual", "finite:c5", "--samples", "200", "kolmogorov:haar"]
        explicit = call(capsys, [*argv[:3], "--seed", "8", *argv[3:]], fresh=True)
        for _ in range(2):
            assert call(capsys, [*argv[:3], "--seed", "8", *argv[3:]]) == explicit
            code, out, _ = call(capsys, argv)
            header, _, body = out.partition("\n")
            assert code == 0 and header.startswith("# seed=")
            seed = header[len("# seed="):]
            assert call(capsys, [*argv[:3], "--seed", seed, *argv[3:]], fresh=True) == (0, body, "")

    @pytest.mark.parametrize(
        "bad",
        [
            ["tensor", "--dual", "finite:s3", "sgn", "nosuch"],
            ["tensor", "--dual", "finite:s3", "--format", "xml", "sgn", "sgn"],
            ["simulate", "--dual", "finite:s3", "--samples", "1", "whitenoise"],
            ["nosuch-command"],
        ],
    )
    def test_usage_error_then_valid_call(self, capsys, bad):
        (code_bad, out_bad, err_bad), (code_ok, out_ok, _) = self._alternate(
            capsys, bad, ["tensor", "--dual", "finite:s3", "std", "std"]
        )
        assert code_bad == 2 and out_bad == "" and err_bad
        assert code_ok == 0 and out_ok.startswith("label,multiplicity,dim\ntrivial,1,1\n")


class TestTablesOutsideThePackage:
    """Tables by path or on DUALFIELD_GROUPS are read on every call."""

    FLIP = {
        "name": "flip", "order": 2, "class_sizes": [1, 1], "inverse_class": [0, 1],
        "characters": [[[1, 0], [1, 0]], [[1, 0], [-1, 0]]], "irrep_names": ["trivial", "flip"],
    }
    TURN = {
        "name": "turn", "order": 3, "class_sizes": [1, 1, 1], "inverse_class": [0, 2, 1],
        "characters": cyclic_table(3)["characters"], "irrep_names": ["trivial", "w", "w2"],
    }

    def test_rewritten_file_is_read_again(self, capsys, tmp_path, monkeypatch):
        table = tmp_path / "g.json"
        monkeypatch.setenv("DUALFIELD_GROUPS", str(tmp_path))
        for dual in (f"finite:{table}", "finite:g"):
            table.write_text(json.dumps(self.FLIP))
            assert call(capsys, ["tensor", "--dual", dual, "flip", "flip"])[:2] == (
                0, "label,multiplicity,dim\ntrivial,1,1\n# dimcheck 1=1\n"
            )
            table.write_text(json.dumps(self.TURN))
            assert call(capsys, ["tensor", "--dual", dual, "w", "w"])[:2] == (
                0, "label,multiplicity,dim\nw2,1,1\n# dimcheck 1=1\n"
            )
            assert call(capsys, ["tensor", "--dual", dual, "flip", "flip"])[0] == 2

    def test_corrupt_table_on_search_path_fails_every_call(self, capsys, tmp_path, monkeypatch):
        bad = dict(self.FLIP, characters=[[[1, 0], [1, 0]], [[1, 0], [-0.5, 0]]])
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        monkeypatch.setenv("DUALFIELD_GROUPS", str(tmp_path))
        for _ in range(3):
            code, out, err = call(capsys, ["tensor", "--dual", "finite:bad", "0", "0"])
            assert (code, out) == (3, "")
            assert err.startswith("data error: flip: character rows are not orthonormal")
            assert call(capsys, ["tensor", "--dual", "finite:s3", "sgn", "sgn"])[0] == 0


class TestTorusLabelBound:
    """Torus labels of size 2**62 or more exit 2, never with a traceback or a wrapped sum."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--dual", "torus", "--labels", "0,99999999999999999999",
             "--kind", "normalized", "kolmogorov:atoms:1:1"],
            ["check", "--dual", "torus", "--labels", "0,4611686018427387904", "whitenoise"],
            ["tensor", "--dual", "torus", "99999999999999999999", "1"],
            ["tensor", "--dual", "torus", "--", "-4611686018427387904", "0"],
        ],
    )
    def test_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: torus: label ")
        assert "not below 2**62 in size" in err

    def test_labels_below_the_bound_accepted(self, capsys):
        code, out, _ = run(capsys, "tensor", "--dual", "torus", "4611686018427387903", "0")
        assert (code, out.splitlines()[1]) == (0, "4611686018427387903,1,1")
        # Differences up to 2**62 - 2 are labels too.
        code, out, _ = run(
            capsys, "check", "--dual", "torus", "--labels=-2305843009213693951,2305843009213693951",
            "--kind", "normalized", "kolmogorov:atoms:1:1",
        )
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_derived_labels_need_only_fit_in_int64(self, capsys):
        # Input labels stay below 2**62; the sum and difference they derive are labels too.
        code, out, _ = run(capsys, "tensor", "--dual", "torus", "4611686018427387903", "1")
        assert code == 0
        assert out.splitlines()[1:] == ["4611686018427387904,1,1", "# dimcheck 1=1"]
        top = "4611686018427387903"
        for spec in ("whitenoise", "kolmogorov:atoms:1:1"):
            code, out, _ = run(capsys, "check", "--dual", "torus", f"--labels=-{top},{top}", spec)
            assert code == 0
            assert json.loads(out)["pass"] is True
