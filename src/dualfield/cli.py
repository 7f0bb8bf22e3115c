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
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from .central_measures import CovarianceOnDual, bochner_invert_finite, parse_measure_spec
from .dual_hypergroup import (
    BUILTIN_GROUPS,
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
from .errors import (
    CapabilityError,
    DataIntegrityError,
    LabelDomainError,
    NotPositiveDefiniteError,
)
from .stationary_fields import (
    FieldSampler,
    check_hypergroup_stationarity,
    check_stationarity,
    cramer_decompose_finite,
    estimate_covariance_matrix,
    jackknife_estimate,
    kolmogorov_field,
    white_noise,
)
# perfbench/instrument.py wraps this name, so it stays imported.
from .stationary_fields import estimate_covariance  # noqa: F401
from .time_series import SeriesField, parse_series_spec

ENV_GROUP_PATH = "DUALFIELD_GROUPS"
# Most complex values one ``simulate`` call may draw (window columns times
# samples); larger requests are refused before anything is allocated.
DRAW_LIMIT = 1 << 24


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Argument resolution
# ---------------------------------------------------------------------------


def resolve_dual(text: str) -> DualStructure:
    if text == "torus":
        return torus_dual()
    if text == "su2":
        return su2_dual()
    if text.startswith("finite:"):
        return _load_group(text[len("finite:") :])
    raise ValueError(f"unknown dual {text!r}; use torus, su2 or finite:<name-or-path>")


@functools.cache
def _builtin_group(name: str) -> FiniteGroupDual:
    """Builtin tables are package data: one validated, read-only dual per name."""
    return load_character_table(name)


def _load_group(name: str) -> FiniteGroupDual:
    """Builtins come from the cache; paths and ``DUALFIELD_GROUPS`` are read on every call."""
    if name.lower() in BUILTIN_GROUPS:
        return _builtin_group(name.lower())
    path = Path(name)
    if path.exists():
        return load_character_table(path)
    for root in os.environ.get(ENV_GROUP_PATH, "").split(os.pathsep):
        if not root:
            continue
        candidate = Path(root) / f"{name}.json"
        if candidate.exists():
            return load_character_table(candidate)
    raise ValueError(
        f"unknown group {name!r}: not a builtin ({', '.join(BUILTIN_GROUPS)}), "
        f"not a file, and not found on {ENV_GROUP_PATH}"
    )


def parse_labels(dual: DualStructure, text: str | None, bound: int | None):
    if text and ".." in text:
        lo, hi = text.split("..", maxsplit=1)
        labels = [dual.validate_label(n) for n in range(int(lo), int(hi) + 1)]
    elif text:
        labels = [dual.label_from_str(item) for item in text.split(",")]
    elif isinstance(dual, FiniteGroupDual):
        labels = dual.labels()
    elif bound is None:
        raise ValueError("this dual needs --labels or --bound to fix a window")
    else:
        labels = dual.labels(bound)
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
    return secrets.randbits(63), True


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_tensor(args):
    dual = resolve_dual(args.dual)
    a = dual.label_from_str(args.a)
    b = dual.label_from_str(args.b)
    vec = tensor_decompose(dual, a, b)
    product = dual.dim(a) * dual.dim(b)
    total = sum(int(m.real) * dual.dim(k) for k, m in vec.items())
    if args.format == "json":
        payload = {
            "dual": dual.name,
            "a": dual.label_to_str(a),
            "b": dual.label_to_str(b),
            "decomposition": [
                {"label": dual.label_to_str(k), "multiplicity": int(m.real), "dim": dual.dim(k)}
                for k, m in sorted(vec.items())
            ],
            "dimcheck": {"product": product, "sum": total, "ok": product == total},
        }
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["label,multiplicity,dim"]
    lines += [
        f"{dual.label_to_str(k)},{int(m.real)},{dual.dim(k)}" for k, m in sorted(vec.items())
    ]
    lines.append(f"# dimcheck {product}={total}")
    return 0, "\n".join(lines) + "\n"


def cmd_convolve(args):
    dual = resolve_dual(args.dual)
    m1 = parse_vector_spec(dual, args.m1)
    m2 = parse_vector_spec(dual, args.m2)
    out = convolve(dual, m1, m2, args.kind)
    if args.format == "json":
        payload = {
            "dual": dual.name,
            "kind": args.kind,
            "result": [
                {"label": dual.label_to_str(k), "re": v.real, "im": v.imag}
                for k, v in sorted(out.items())
            ],
        }
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["label,re,im"]
    lines += [
        f"{dual.label_to_str(k)},{_fmt(v.real)},{_fmt(v.imag)}" for k, v in sorted(out.items())
    ]
    return 0, "\n".join(lines) + "\n"


def cmd_spectral(args):
    dual = resolve_dual(args.dual)
    measure = parse_measure_spec(dual, args.measure)
    labels = parse_labels(dual, args.labels, args.bound)
    rows = [(label, measure.fourier(label)) for label in labels]
    if args.format == "json":
        payload = {
            "dual": dual.name,
            "measure": args.measure,
            "values": [
                {"label": dual.label_to_str(k), "re": v.real, "im": v.imag} for k, v in rows
            ],
        }
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["label,re,im"]
    lines += [f"{dual.label_to_str(k)},{_fmt(v.real)},{_fmt(v.imag)}" for k, v in rows]
    return 0, "\n".join(lines) + "\n"


def cmd_invert(args):
    dual = resolve_dual(args.dual)
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
    if args.format == "json":
        payload = {
            "dual": dual.name,
            "weights": [
                {"class": c, "weight": float(w)} for c, w in enumerate(measure.class_weights)
            ],
        }
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["class,weight"]
    lines += [f"{c},{_fmt(w)}" for c, w in enumerate(measure.class_weights)]
    return 0, "\n".join(lines) + "\n"


def _series_covariance_table(field: SeriesField, n_max: int, n_samples: int, seed):
    oracle = field.spec.oracle()
    paths = field.spec.simulate_batch(2 * n_max, n_samples, seed)
    rows = []
    for h in range(n_max + 1):
        exact = oracle(n_max + h, n_max)
        est = jackknife_estimate(paths[:, n_max + h] * np.conj(paths[:, n_max]))
        rows.append((n_max, h, exact, est.mean, est.stderr))
    return rows


def _draw_size(dual: DualStructure, series: bool, bound: int | None, samples: int | None) -> int:
    """Complex values a ``simulate`` call draws, counted without building its window."""
    if isinstance(dual, FiniteGroupDual):
        columns = dual.data.num_classes
    elif isinstance(dual, TorusDual) or (series and samples is not None):
        columns = 2 * bound + 1  # labels -bound..bound, or series paths to index 2 * bound
    else:
        columns = bound + 1
    return columns * (samples or 1)


def cmd_simulate(args):
    dual = resolve_dual(args.dual)
    if args.samples is not None and args.samples < 2:
        raise ValueError(
            f"need at least two samples for a standard error, got --samples {args.samples}"
        )
    seed, generated = _ensure_seed(args)
    field = parse_field_spec(dual, args.spec, seed)
    series = isinstance(field, SeriesField)
    if args.bound is None and (series or not isinstance(dual, FiniteGroupDual)):
        raise ValueError("simulate needs --bound for the label window")
    size = _draw_size(dual, series, args.bound, args.samples)
    if size > DRAW_LIMIT:
        raise ValueError(
            f"simulate would draw {size} complex values, over the limit of {DRAW_LIMIT}; "
            "lower --bound or --samples"
        )
    labels = parse_labels(dual, None, args.bound)
    header = f"# seed={seed}\n" if generated else ""

    if series and args.samples is not None:
        rows = _series_covariance_table(field, args.bound, args.samples, seed)
        lines = ["n,h,re_closed,im_closed,re_mc,im_mc,stderr"]
        lines += [
            f"{n},{h},{_fmt(exact.real)},{_fmt(exact.imag)},"
            f"{_fmt(mc.real)},{_fmt(mc.imag)},{_fmt(err)}"
            for n, h, exact, mc, err in rows
        ]
        return 0, header + "\n".join(lines) + "\n"

    if args.samples is not None:
        exact = field.second_moment_matrix(labels)
        est = estimate_covariance_matrix(field, labels, args.samples, seed)
        names = [dual.label_to_str(x) for x in labels]
        lines = ["pi1,pi2,re_exact,im_exact,re_mc,im_mc,stderr"]
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                lines.append(
                    f"{a},{b},{_fmt(exact[i, j].real)},{_fmt(exact[i, j].imag)},"
                    f"{_fmt(est.mean[i, j].real)},{_fmt(est.mean[i, j].imag)},"
                    f"{_fmt(est.stderr[i, j])}"
                )
        return 0, header + "\n".join(lines) + "\n"

    sample = field.sample(labels)
    lines = ["n,re,im"]
    lines += [
        f"{dual.label_to_str(k)},{_fmt(sample[k].real)},{_fmt(sample[k].imag)}" for k in labels
    ]
    return 0, header + "\n".join(lines) + "\n"


def cmd_check(args):
    dual = resolve_dual(args.dual)
    seed = args.seed if args.seed is not None else 0
    field = parse_field_spec(dual, args.spec, seed)
    labels = parse_labels(dual, args.labels, args.bound)
    if args.kind == "statdef":
        report = check_stationarity(dual, field.second_moment, labels, tol=args.tol)
    else:
        report = check_hypergroup_stationarity(
            dual, field.second_moment, labels, kind=args.kind, tol=args.tol
        )
    payload = report.to_json_dict(label_to_str=dual.label_to_str)
    payload["dual"] = dual.name
    payload["spec"] = args.spec
    return (0 if report.passed else 1), json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_cramer(args):
    dual = resolve_dual(args.dual)
    if not isinstance(dual, FiniteGroupDual):
        raise CapabilityError("the scattered decomposition runs on finite-group duals")
    measure = parse_measure_spec(dual, args.measure)
    field = kolmogorov_field(measure, seed=0)
    scattered = cramer_decompose_finite(field)
    classes = range(dual.data.num_classes)
    # By bilinearity every subset pair's defect is a sum of class-pair defects.
    worst = max(
        abs(scattered.expected_product([a], [b]) - scattered.measure_of({a} & {b}))
        for a in classes
        for b in classes
    )
    payload = {
        "dual": dual.name,
        "measure": args.measure,
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
        "reconstruction_residual": scattered.reconstruction_residual(),
        "max_scattering_violation": worst,
    }
    return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"


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

    def common(p, seed=False, samples=False, kind=None, labels=False):
        p.add_argument("--dual", required=True, help="torus | su2 | finite:<name-or-path>")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--bound", type=int, help="label window bound")
        if labels:
            p.add_argument("--labels", help="explicit labels: a..b or comma list")
        if seed:
            p.add_argument("--seed", type=int, help="RNG seed (recorded if generated)")
        if samples:
            p.add_argument("--samples", type=int, help="Monte Carlo sample count")
        if kind:
            p.add_argument("--kind", choices=kind[0], default=kind[1])

    p = sub.add_parser("tensor", help="decompose a tensor product of irreducibles")
    common(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=cmd_tensor)

    p = sub.add_parser("convolve", help="convolve two vectors on the dual")
    common(p, kind=(("representation_ring", "normalized"), "representation_ring"))
    p.add_argument("m1", help="vector as label:coeff,label:coeff")
    p.add_argument("m2")
    p.set_defaults(handler=cmd_convolve)

    p = sub.add_parser("spectral", help="transform of a central measure over a label window")
    common(p, labels=True)
    p.add_argument("measure", help="haar | heat:<t> | atoms:t:w,... | classes:w,...")
    p.set_defaults(handler=cmd_spectral)

    p = sub.add_parser("invert", help="recover class weights from transform values")
    common(p)
    p.add_argument("values", help="comma-separated complex values, one per irreducible")
    p.set_defaults(handler=cmd_invert)

    p = sub.add_parser("simulate", help="sample paths or Monte Carlo covariance tables")
    common(p, seed=True, samples=True)
    p.add_argument("spec", help="whitenoise | kolmogorov:<measure> | ar1:re,im | ma:...")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("check", help="stationarity checks from exact oracles")
    common(
        p,
        seed=True,
        labels=True,
        kind=(("statdef", "representation_ring", "normalized"), "statdef"),
    )
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
        code, text = args.handler(args)
    except DataIntegrityError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (
        LabelDomainError, CapabilityError, NotPositiveDefiniteError, ValueError, OverflowError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
