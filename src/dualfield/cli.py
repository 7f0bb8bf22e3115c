"""Command-line harness: decompositions, transforms, simulation, checks.

Output is CSV or JSON, deterministic byte-for-byte given the same
arguments and seed.  Exit codes: 0 success or check passed, 1 a
stationarity check failed, 2 usage or domain error, 3 data-integrity
error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .central_measures import (
    CovarianceOnDual,
    SU2AngleMeasure,
    bochner_invert_finite,
    parse_measure_spec,
)
from .dual_hypergroup import (
    DualStructure,
    DualVector,
    FiniteGroupDual,
    SU2Dual,
    TorusDual,
    convolve,
    load_character_table,
    su2_dual,
    tensor_decompose,
    torus_dual,
)
from .errors import CapabilityError, DataIntegrityError
from .stationary_fields import (
    FieldSampler,
    KolmogorovField,
    check_hypergroup_stationarity,
    check_stationarity,
    cramer_decompose_finite,
    estimate_covariance_matrix,
    kolmogorov_field,
    white_noise,
)
# perfbench/instrument.py wraps this name, so it stays imported.
from .stationary_fields import estimate_covariance  # noqa: F401
from .time_series import SeriesField, parse_series_spec

# Most complex values' worth of memory one call may hold at once.  Larger
# requests are refused before anything is allocated.
DRAW_LIMIT = 1 << 24
# What a ``simulate`` call holds at its peak, in complex values: per drawn
# value the draw, a row of products or the paths, and their temporaries; per
# output row its moments and its text.
PEAK_PER_DRAWN = 4
PEAK_PER_ROW = 32
# What a ``check`` holds at its peak, in complex values (16 bytes) per label
# pair.  Measured under tracemalloc on the SU(2) window 0..299 over every
# field spec and the three kinds: 65 bytes a pair for white noise, MA and
# passing Kolmogorov checks (heat 315 and atoms 2070 normalized, where they
# fail), and at most 2137 (134 values) when nearly every pair fails and
# becomes a printed witness (ar1:0.99,0.1; ar1:0.5,0.6 reads 1342-1347).
PEAK_PER_PAIR = 160
# What a check on SU(2) holds per irreducible its pairs cover (0 .. 2 * the
# largest label), in complex values, counted apart from the pairs.  Measured
# under tracemalloc on windows of 4 labels from 10^3 to 2 * 10^5 over every
# field spec and the three kinds: at most 117 bytes for white noise, heat and
# SU(2) Haar, 121 for MA, 185 for AR(1) and 147 for a Kolmogorov field on two
# atoms; white noise and heat on 524284..524287 normalized, 91.  The Fourier
# transform of an SU(2) measure of atoms or a given density also keeps the
# characters at its atoms and quadrature nodes, up to 25 bytes a point, counted
# as PEAK_PER_POINT.  A character-series measure (heat, SU(2) Haar) answers from
# its coefficients and keeps none, so its checks reach label 524287, as white
# noise does.
PEAK_PER_IRREDUCIBLE = 16
PEAK_PER_POINT = 2
# What ``tensor`` and ``convolve`` hold per SU(2) tensor component, in complex values:
# under tracemalloc at labels 4 * 10^5, about 250 bytes in CSV and at most 1150 in JSON.
PEAK_PER_TERM = 80
# What ``spectral`` holds per label of its window, in complex values, apart from
# the characters an SU(2) angle measure keeps (PEAK_PER_POINT).  Set by JSON:
# under tracemalloc at 10^5 labels, 1091 bytes for Haar and heat and 1175 for
# two SU(2) atoms (1188 on the torus), against 189-333 in CSV.  The largest
# windows, 0..209714 for Haar and heat and 0..190649 for two atoms, peak at
# 0.85 of the limit in JSON and 0.15-0.21 in CSV.
PEAK_PER_LABEL = 80


def _fmt(x) -> str:
    """A CSV cell: a float to 17 significant digits, refused if not finite, else ``str``."""
    if not isinstance(x, float):
        return str(x)
    if not math.isfinite(x):
        raise ValueError(f"result {x} is not finite: the input overflows double precision")
    return f"{x:.17g}"


# Non-finite floats raise ValueError here too, so no command prints inf or nan.
_dumps = functools.partial(json.dumps, indent=2, sort_keys=True, allow_nan=False)


def _render(fmt: str, columns: str, rows, key: str = "", head=None, note: str = "") -> str:
    """A table of ``rows`` of cells under the comma-separated ``columns``, as CSV or JSON text.

    CSV is the header, one line a row of cells through :func:`_fmt`, and the
    ``note`` line if any.  JSON is ``head`` with the rows as objects under
    ``key``, through :func:`_dumps`.  ``rows`` is read once.
    """
    if fmt == "json":
        names = columns.split(",")
        return _dumps({**(head or {}), key: [dict(zip(names, row)) for row in rows]}) + "\n"
    lines = [columns]
    lines += [",".join(map(_fmt, row)) for row in rows]
    lines += [note] if note else []
    return "\n".join(lines) + "\n"


def _finite_rows(dual: DualStructure, rows, what: str) -> None:
    """Refuse ``rows`` of (label, complex value) at the first part that is not finite.

    Checked before either format renders, so CSV and JSON name the same
    label and column.
    """
    for label, value in rows:
        for column, x in (("re", value.real), ("im", value.imag)):
            if not math.isfinite(x):
                raise ValueError(
                    f"{what} at label {dual.label_to_str(label)}: {column} is {x}, "
                    "not finite: the input overflows double precision"
                )


def _within_limit(size: int, request: str, advice: str) -> None:
    """Refuse ``request`` if it would hold more than DRAW_LIMIT complex values' worth of memory."""
    if size > DRAW_LIMIT:
        raise ValueError(
            f"{request} would hold {size} complex values' worth of memory, "
            f"over the limit of {DRAW_LIMIT}; {advice}"
        )


# ---------------------------------------------------------------------------
# Argument resolution
# ---------------------------------------------------------------------------


def resolve_dual(text: str) -> DualStructure:
    if text == "torus":
        return torus_dual()
    if text == "su2":
        return su2_dual()
    if text.startswith("finite:"):
        return load_character_table(text[len("finite:") :])
    raise ValueError(f"unknown dual {text!r}; use torus, su2 or finite:<name-or-path>")


def _window(dual: DualStructure, text: str | None, bound: int | None):
    """The labels of ``--labels text`` or ``--bound bound``, unvalidated.

    ``a..b``, ``--bound`` and a finite dual's default give a ``range``,
    which is never built; a comma list gives its parsed labels.
    """
    if text and ".." in text:
        lo, hi = text.split("..", maxsplit=1)
        return range(int(lo), int(hi) + 1)
    if text:
        return [dual.label_from_str(item) for item in text.split(",")]
    if isinstance(dual, FiniteGroupDual):
        return range(dual.data.num_classes)
    if bound is None:
        raise ValueError("this dual needs --labels or --bound to fix a window")
    return range(-bound, bound + 1) if isinstance(dual, TorusDual) else range(bound + 1)


def _extent(window) -> tuple[int, int]:
    """The label count and the largest label of a :func:`_window`, read off a range's ends.

    A range is not measured with ``len``, which overflows past 2^63 labels.
    """
    if isinstance(window, range):
        return max(0, window.stop - window.start), window.stop - 1
    return len(window), max(window, default=0)


def parse_labels(dual: DualStructure, text: str | None, bound: int | None):
    window = _window(dual, text, bound)
    labels = list(map(dual.validate_label, window)) if isinstance(window, range) else window
    if not labels:
        raise ValueError("empty label window")
    return labels


def parse_vector_spec(dual: DualStructure, text: str) -> DualVector:
    """Parse "label:coeff,label:coeff" with complex coefficients."""
    coeffs = {}
    for item in text.split(","):
        label_text, sep, coeff_text = item.partition(":")
        label = dual.label_from_str(label_text)
        value = complex(coeff_text) if sep else 1.0 + 0j
        if not cmath.isfinite(value):
            raise ValueError(f"coefficient of {label_text} must be finite, got {coeff_text}")
        coeffs[label] = coeffs.get(label, 0j) + value
    return DualVector(coeffs)


def parse_field_spec(dual: DualStructure, text: str, seed) -> FieldSampler:
    # Fields build their generator on the first draw, which a check never makes.
    if seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
    if text == "whitenoise":
        return white_noise(dual, seed)
    if text.startswith("kolmogorov:"):
        measure = parse_measure_spec(dual, text[len("kolmogorov:") :])
        return kolmogorov_field(measure, seed)
    if text.startswith(("ar1:", "ma:")):
        if not isinstance(dual, SU2Dual):
            raise CapabilityError("time series run on the su2 dual's ordered labels")
        return SeriesField(parse_series_spec(text), seed)
    raise ValueError(f"unknown field specification {text!r}")


def _ensure_seed(args) -> tuple[int, bool]:
    """Explicit seed, or a generated one that must be recorded in the output."""
    if args.seed is not None:
        return args.seed, False
    import secrets  # here, at its one use: commands that never draw never load it

    return secrets.randbits(63), True


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _refuse_many_terms(dual: DualStructure, pairs, command: str) -> None:
    """Refuse SU(2) products a (x) b, of min(a, b) + 1 components each, past DRAW_LIMIT."""
    terms = sum(min(a, b) + 1 for a, b in pairs) if isinstance(dual, SU2Dual) else 0
    _within_limit(
        PEAK_PER_TERM * terms, f"{command} listing {terms} components", "use smaller labels"
    )


def cmd_tensor(args, dual):
    a = dual.label_from_str(args.a)
    b = dual.label_from_str(args.b)
    _refuse_many_terms(dual, [(a, b)], "tensor")
    vec = tensor_decompose(dual, a, b)
    rows = [(dual.label_to_str(k), int(m.real), dual.dim(k)) for k, m in sorted(vec.items())]
    product = dual.dim(a) * dual.dim(b)
    total = sum(m * d for _, m, d in rows)
    head = {
        "dual": dual.name,
        "a": dual.label_to_str(a),
        "b": dual.label_to_str(b),
        "dimcheck": {"product": product, "sum": total, "ok": product == total},
    }
    note = f"# dimcheck {product}={total}"
    return 0, _render(args.format, "label,multiplicity,dim", rows, "decomposition", head, note)


def cmd_convolve(args, dual):
    m1 = parse_vector_spec(dual, args.m1)
    m2 = parse_vector_spec(dual, args.m2)
    _refuse_many_terms(dual, [(a, b) for a in m1.support for b in m2.support], "convolve")
    out = convolve(dual, m1, m2, args.kind)
    _finite_rows(dual, out.items(), "convolution")
    rows = ((dual.label_to_str(k), v.real, v.imag) for k, v in sorted(out.items()))
    head = {"dual": dual.name, "kind": args.kind}
    return 0, _render(args.format, "label,re,im", rows, "result", head)


def cmd_spectral(args, dual):
    measure = parse_measure_spec(dual, args.measure)
    count, top = _extent(_window(dual, args.labels, args.bound))
    _within_limit(
        PEAK_PER_LABEL * count + _point_size(measure, top),
        f"spectral window of {count} labels up to label {top}",
        "narrow or lower --labels or --bound",
    )
    labels = parse_labels(dual, args.labels, args.bound)
    # An overflowing transform is refused below, naming its label, so it needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        out = [(label, measure.fourier(label)) for label in labels]
    _finite_rows(dual, out, "transform")
    rows = ((dual.label_to_str(k), v.real, v.imag) for k, v in out)
    head = {"dual": dual.name, "measure": args.measure}
    return 0, _render(args.format, "label,re,im", rows, "values", head)


def cmd_invert(args, dual):
    if not isinstance(dual, FiniteGroupDual):
        raise CapabilityError("exact inversion requires a finite-group dual")
    values = [complex(item) for item in args.values.split(",")]
    labels = dual.labels()
    if len(values) != len(labels):
        raise ValueError(
            f"{dual.name} has {len(labels)} irreducibles, got {len(values)} values"
        )
    phi = CovarianceOnDual(dual, dict(zip(labels, values)))
    measure = bochner_invert_finite(phi)
    rows = ((c, float(w)) for c, w in enumerate(measure.class_weights))
    return 0, _render(args.format, "class,weight", rows, "weights", {"dual": dual.name})


def _point_size(measure, top: int) -> int:
    """Complex values' worth of SU(2) characters at atoms and nodes kept for labels 0 .. 2 * top."""
    if not isinstance(measure, SU2AngleMeasure):
        return 0  # none for a character series (heat, Haar) or another dual
    return PEAK_PER_POINT * len(getattr(measure, "_points", ())) * (2 * max(top, 0) + 1)


def _covered_size(field: FieldSampler, top: int) -> int:
    """Complex values' worth of memory a ``check`` holds for the SU(2) irreducibles 0 .. 2 * top."""
    measure = field.measure if isinstance(field, KolmogorovField) else None
    return PEAK_PER_IRREDUCIBLE * (2 * max(top, 0) + 1) + _point_size(measure, top)


def _draw_size(
    dual: DualStructure, field: FieldSampler, bound: int | None, samples: int | None
) -> int:
    """Complex values a ``simulate`` call draws, counted without building its window."""
    columns = _extent(_window(dual, None, bound))[0]
    if isinstance(field, SeriesField) and field.spec.kind == "ma":
        columns += len(field.spec.coefficients) - 1  # the q noises before the first label
    return columns * (samples or 1)


def _peak_size(
    dual: DualStructure, field: FieldSampler, bound: int | None, samples: int | None
) -> int:
    """Complex values' worth of memory a ``simulate`` call holds at its peak, counted ahead."""
    labels = _extent(_window(dual, None, bound))[0]
    if samples is None:
        rows = labels
    else:
        rows = bound + 1 if isinstance(field, SeriesField) else labels * labels
    return PEAK_PER_DRAWN * _draw_size(dual, field, bound, samples) + PEAK_PER_ROW * rows


def cmd_simulate(args, dual):
    if args.samples is not None and args.samples < 2:
        raise ValueError(
            f"need at least two samples for a standard error, got --samples {args.samples}"
        )
    seed, generated = _ensure_seed(args)
    field = parse_field_spec(dual, args.spec, seed)
    series = isinstance(field, SeriesField)
    if args.bound is None and (series or not isinstance(dual, FiniteGroupDual)):
        raise ValueError("simulate needs --bound for the label window")
    _within_limit(
        _peak_size(dual, field, args.bound, args.samples),
        "simulate's draws, products and output",
        "lower --bound or --samples",
    )
    labels = parse_labels(dual, None, args.bound)
    header = f"# seed={seed}\n" if generated else ""

    if series and args.samples is not None:
        # Lags h = 0..bound at n = bound: rows bound..2 * bound against column bound.
        n = args.bound
        rows = list(range(n, 2 * n + 1))
        exact = field.second_moment_matrix(rows, [n])[:, 0]
        est = estimate_covariance_matrix(field, rows, args.samples, seed, columns=[n])
        columns = zip(exact.tolist(), est.mean[:, 0].tolist(), est.stderr[:, 0].tolist())
        table = ((n, h, e.real, e.imag, m.real, m.imag, s) for h, (e, m, s) in enumerate(columns))
        return 0, header + _render("csv", "n,h,re_closed,im_closed,re_mc,im_mc,stderr", table)

    if args.samples is not None:
        exact = field.second_moment_matrix(labels)
        est = estimate_covariance_matrix(field, labels, args.samples, seed)
        names = [dual.label_to_str(x) for x in labels]
        table = (
            (a, b, e.real, e.imag, m.real, m.imag, s)
            for a, *row in zip(names, exact, est.mean, est.stderr)
            for b, e, m, s in zip(names, *(x.tolist() for x in row))
        )
        return 0, header + _render("csv", "pi1,pi2,re_exact,im_exact,re_mc,im_mc,stderr", table)

    sample = field.sample(labels)
    table = ((dual.label_to_str(k), sample[k].real, sample[k].imag) for k in labels)
    return 0, header + _render("csv", "n,re,im", table)


def cmd_check(args, dual):
    seed = args.seed if args.seed is not None else 0
    field = parse_field_spec(dual, args.spec, seed)
    count, top = _extent(_window(dual, args.labels, args.bound))
    _within_limit(
        PEAK_PER_PAIR * count * count,
        f"check pairs and witnesses of {count} labels",
        "narrow --labels or --bound",
    )
    if isinstance(dual, SU2Dual):
        _within_limit(
            _covered_size(field, top),
            f"check pairs up to label {top}, covering {2 * top + 1} irreducibles,",
            "lower --labels or --bound",
        )
    labels = parse_labels(dual, args.labels, args.bound)
    if args.kind == "statdef":
        report = check_stationarity(dual, field.second_moment, labels, tol=args.tol)
    else:
        report = check_hypergroup_stationarity(
            dual, field.second_moment, labels, kind=args.kind, tol=args.tol
        )
    payload = {**report.to_json_dict(dual.label_to_str), "dual": dual.name, "spec": args.spec}
    return (0 if report.passed else 1), _dumps(payload) + "\n"


def cmd_cramer(args, dual):
    if not isinstance(dual, FiniteGroupDual):
        raise CapabilityError("the scattered decomposition runs on finite-group duals")
    measure = parse_measure_spec(dual, args.measure)
    scattered = cramer_decompose_finite(kolmogorov_field(measure, seed=0))
    w, values = measure.class_weights, scattered.values
    # E(Gamma({a}) conj Gamma({b})) against mu({a} & {b}); any subset pair's defect sums these.
    gram = (w * values) @ values.conj().T
    payload = {
        "dual": dual.name,
        "measure": args.measure,
        "descriptor": scattered.descriptor,
        "classes": [
            {
                "class": c,
                "size": size,
                "mu": float(w[c]),
                "gamma_second_moment": float(gram[c, c].real),
            }
            for c, size in enumerate(dual.data.class_sizes)
        ],
        "reconstruction_residual": scattered.reconstruction_residual(),
        "max_scattering_violation": float(np.abs(gram - np.diag(w)).max()),
    }
    return 0, _dumps(payload) + "\n"


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dualfield",
        description="random fields and time series on the dual of a compact group",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--format": {"choices": ("csv", "json"), "default": "csv"},
        "--bound": {"type": int, "help": "label window bound"},
        "--labels": {"help": "explicit labels: a..b or comma list"},
        "--seed": {"type": int, "help": "RNG seed (recorded if generated)"},
        "--samples": {"type": int, "help": "Monte Carlo sample count"},
    }

    def common(p, *names, kind=None):
        """--dual, --output and the named options: each command registers only what it reads."""
        p.add_argument("--dual", required=True, help="torus | su2 | finite:<name-or-path>")
        p.add_argument("--output", help="write here instead of stdout")
        for name in names:
            p.add_argument(name, **options[name])
        if kind:
            p.add_argument("--kind", choices=kind[0], default=kind[1])

    p = sub.add_parser("tensor", help="decompose a tensor product of irreducibles")
    common(p, "--format")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("convolve", help="convolve two vectors on the dual")
    common(p, "--format", kind=(("representation_ring", "normalized"), "representation_ring"))
    p.add_argument("m1", help="vector as label:coeff,label:coeff")
    p.add_argument("m2")
    p.set_defaults(handler=cmd_convolve)

    p = sub.add_parser("spectral", help="transform of a central measure over a label window")
    common(p, "--format", "--bound", "--labels")
    p.add_argument("measure", help="haar | heat:<t> | atoms:t:w,... | classes:w,...")
    p.set_defaults(handler=cmd_spectral)

    p = sub.add_parser("invert", help="recover class weights from transform values")
    common(p, "--format")
    p.add_argument("values", help="comma-separated complex values, one per irreducible")
    p.set_defaults(handler=cmd_invert)

    p = sub.add_parser("simulate", help="sample paths or Monte Carlo covariance tables")
    common(p, "--bound", "--seed", "--samples")
    p.add_argument("spec", help="whitenoise | kolmogorov:<measure> | ar1:re,im | ma:...")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("check", help="stationarity checks from exact oracles")
    kinds = ("statdef", "representation_ring", "normalized")
    common(p, "--bound", "--labels", "--seed", kind=(kinds, "statdef"))
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("spec")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("cramer", help="scattered decomposition on a finite group")
    common(p)
    p.add_argument("measure")
    p.set_defaults(handler=cmd_cramer)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, text = args.handler(args, resolve_dual(args.dual))
    except DataIntegrityError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as exc:  # the package's usage and domain errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)
        return code
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        print(f"error: cannot write --output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
