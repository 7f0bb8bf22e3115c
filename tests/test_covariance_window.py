"""Window Monte Carlo: one draw per stream for a whole ``simulate --samples`` table.

``estimate_covariance_matrix`` draws the label window once per stream
and forms every product as ``estimate_covariance`` forms its one.  A
Kolmogorov field's value at a label depends only on the drawn class
coordinate, so its tables keep the bits of the per-pair loop that
reseeded the field for every pair; the reference below is that loop and
the jackknife it used, kept verbatim.
"""

from pathlib import Path

import numpy as np
import pytest

from dualfield import (
    BUILTIN_GROUPS,
    KolmogorovField,
    WhiteNoiseField,
    ar1_field,
    estimate_covariance,
    estimate_covariance_matrix,
    heat_kernel_measure,
    kolmogorov_field,
    load_character_table,
    ma_field,
    translate,
    white_noise,
)
from dualfield.central_measures import FiniteClassMeasure
from dualfield.cli import main, parse_field_spec, parse_labels, resolve_dual

D4 = Path(__file__).resolve().parents[1] / "perfbench" / "groups" / "d4.json"


def reference_estimate(field, pi1, pi2, n_samples, seed, n_streams=1):
    """Per-pair estimate: one reseeded two-label draw per stream, then the jackknife."""
    if not 1 <= n_streams <= n_samples:
        raise ValueError("stream count must be between 1 and the sample count")
    base, extra = divmod(n_samples, n_streams)
    counts = [base + (1 if j < extra else 0) for j in range(n_streams)]
    chunks = []
    for j, count in enumerate(counts):
        if count == 0:
            continue
        sampler = field.reseeded(seed + j)
        values = sampler.sample_batch([pi1, pi2], count)
        chunks.append(values[pi1] * np.conj(values[pi2]))
    products = np.concatenate(chunks)
    n = products.size
    mean = complex(products.mean())
    leave_one_out = (products.sum() - products) / (n - 1)
    stderr = float(
        np.sqrt((n - 1) / n * (np.abs(leave_one_out - leave_one_out.mean()) ** 2).sum())
    )
    return mean, stderr


def reference_table(dual, field, labels, n_samples, seed):
    """The body ``simulate --samples`` printed for a non-series field, pair by pair."""

    def fmt(x):
        return f"{x:.17g}"

    lines = ["pi1,pi2,re_exact,im_exact,re_mc,im_mc,stderr"]
    for a in labels:
        for b in labels:
            exact = field.second_moment(a, b)
            mean, stderr = reference_estimate(field, a, b, n_samples, seed)
            lines.append(
                f"{dual.label_to_str(a)},{dual.label_to_str(b)},"
                f"{fmt(exact.real)},{fmt(exact.imag)},"
                f"{fmt(mean.real)},{fmt(mean.imag)},{fmt(stderr)}"
            )
    return "\n".join(lines) + "\n"


def _classes(r, seed):
    weights = np.random.default_rng(seed).random(r) + 0.05
    return "classes:" + ",".join(f"{w:.17g}" for w in weights / weights.sum())


KOLMOGOROV_CASES = [
    *[(f"finite:{g}", None, _classes(load_character_table(g).data.num_classes, i))
      for i, g in enumerate(BUILTIN_GROUPS)],
    (f"finite:{D4}", None, _classes(5, 7)),
    ("finite:q8", None, "haar"),
    ("su2", "3", "heat:0.3"),
    ("su2", "3", "atoms:0.4:0.25,2.1:0.75"),
    ("torus", "2", "atoms:0.4:0.25,2.1:0.5,4.9:0.25"),
]


@pytest.mark.parametrize("samples", [2000, 100000])
@pytest.mark.parametrize("dual_text, bound, measure", KOLMOGOROV_CASES)
def test_kolmogorov_tables_keep_the_per_pair_bits(capsys, dual_text, bound, measure, samples):
    seed = 20240 + samples
    argv = ["simulate", "--dual", dual_text, "--seed", str(seed), "--samples", str(samples)]
    argv += ["--bound", bound] if bound else []
    assert main([*argv, f"kolmogorov:{measure}"]) == 0
    out = capsys.readouterr().out

    dual = resolve_dual(dual_text)
    field = parse_field_spec(dual, f"kolmogorov:{measure}", seed)
    labels = parse_labels(dual, None, None if bound is None else int(bound))
    assert out == reference_table(dual, field, labels, samples, seed)


def _fields():
    su2 = resolve_dual("su2")
    return {
        "whitenoise": (white_noise(su2, 0), 1, 3),
        "kolmogorov": (kolmogorov_field(heat_kernel_measure(0.2), 0), 1, 2),
        "translated": (translate(white_noise(su2, 0), 1), 0, 2),
        "ma": (ma_field((1.0, 0.5j)), 2, 3),
        "ar1": (ar1_field(0.6 + 0.2j), 3, 1),
    }


@pytest.mark.parametrize("n_streams", [1, 3])
@pytest.mark.parametrize("name", ["whitenoise", "kolmogorov", "translated", "ma", "ar1"])
def test_estimate_covariance_bits_unchanged(name, n_streams):
    field, a, b = _fields()[name]
    for seed in range(5):
        got = estimate_covariance(field, a, b, 3001, seed, n_streams=n_streams)
        mean, stderr = reference_estimate(field, a, b, 3001, seed, n_streams=n_streams)
        assert got.mean.real.hex() == mean.real.hex()
        assert got.mean.imag.hex() == mean.imag.hex()
        assert got.stderr.hex() == stderr.hex()
        assert got.n_samples == 3001


@pytest.mark.parametrize("n_streams", [1, 4])
def test_window_estimate_matches_per_pair_on_kolmogorov(n_streams):
    field = kolmogorov_field(heat_kernel_measure(0.2), 0)
    labels = [0, 1, 2, 4]
    est = estimate_covariance_matrix(field, labels, 5003, 11, n_streams=n_streams)
    assert est.mean.shape == est.stderr.shape == (4, 4)
    assert est.n_samples == 5003
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            mean, stderr = reference_estimate(field, a, b, 5003, 11, n_streams=n_streams)
            assert complex(est.mean[i, j]) == mean
            assert float(est.stderr[i, j]).hex() == stderr.hex()


def test_white_noise_window_is_one_draw(su2):
    """White noise draws per label count, so the window estimate comes from one (n, L) draw."""
    labels = [0, 1, 2]
    est = estimate_covariance_matrix(white_noise(su2, 5), labels, 4000, 5)
    values = WhiteNoiseField(su2, 5).sample_batch(labels, 4000)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            products = values[a] * np.conj(values[b])
            assert complex(est.mean[i, j]) == complex(products.mean())
    assert np.abs(est.mean - np.eye(3)).max() < 6 * est.stderr.max()


def _count_calls(monkeypatch, cls):
    calls = []
    original = cls.sample_batch

    def counted(self, labels, count):
        calls.append(count)
        return original(self, labels, count)

    monkeypatch.setattr(cls, "sample_batch", counted)
    return calls


def test_one_sample_batch_for_the_q8_table(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, KolmogorovField)
    argv = ["simulate", "--dual", "finite:q8", "--seed", "5", "--samples", "2000", "kolmogorov:haar"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 26
    assert calls == [2000]


def test_one_sample_batch_per_stream(monkeypatch, q8):
    calls = _count_calls(monkeypatch, KolmogorovField)
    field = kolmogorov_field(FiniteClassMeasure.haar(q8), 0)
    estimate_covariance_matrix(field, q8.labels(), 2002, 3, n_streams=4)
    assert calls == [501, 501, 500, 500]


@pytest.mark.parametrize("n_samples, n_streams", [(1, 1), (0, 1), (5, 0), (5, 6)])
def test_window_estimate_refuses_bad_counts_before_drawing(monkeypatch, su2, n_samples, n_streams):
    calls = _count_calls(monkeypatch, WhiteNoiseField)
    with pytest.raises(ValueError):
        estimate_covariance_matrix(white_noise(su2), [0, 1], n_samples, 0, n_streams=n_streams)
    assert calls == []


@pytest.mark.parametrize("name", ["whitenoise", "kolmogorov", "translated", "ma", "ar1"])
def test_columns_are_a_block_of_the_window_over_rows_and_columns(name):
    """Rows x columns draws the union of the labels once, as the square window over it does."""
    field = _fields()[name][0]
    rows, columns = [4, 1, 3], [0, 3]
    union = sorted({*rows, *columns})
    est = estimate_covariance_matrix(field, rows, 3001, 5, n_streams=2, columns=columns)
    full = estimate_covariance_matrix(field, union, 3001, 5, n_streams=2)
    assert est.mean.shape == est.stderr.shape == (3, 2)
    block = np.ix_([union.index(a) for a in rows], [union.index(b) for b in columns])
    assert est.mean.tobytes() == full.mean[block].tobytes()
    assert est.stderr.tobytes() == full.stderr[block].tobytes()


def test_columns_default_to_the_labels(su2):
    field = white_noise(su2, 2)
    labels = [0, 2, 5]
    est = estimate_covariance_matrix(field, labels, 500, 8, columns=None)
    same = estimate_covariance_matrix(field, labels, 500, 8, columns=labels)
    assert est.mean.tobytes() == same.mean.tobytes()
    assert est.stderr.tobytes() == same.stderr.tobytes()
