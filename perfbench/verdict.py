"""verdict-su2: exact stationarity and positivity verdicts on SU(2) label windows.

Each request asks one exact verdict about one field on the window 0..N:
``check_stationarity`` (statdef) or ``check_hypergroup_stationarity``
under either convolution, for white noise, real and complex AR(1), MA(1)
with real lag-one covariance, MA(2) with gamma(2) != 0, the Kolmogorov
field of a heat-kernel measure and translated white noise; or
``is_positive_definite`` of a heat-kernel covariance.  One request in 24
asks a verdict on the s3 or q8 dual instead.

Window sizes follow a skewed ladder, N = 8 + (cap - 8) u^3.  Almost all
time goes to the pair loops, whose cost grows like N^3 times a factor
that depends on the field and the check; each kind's cap divides that
factor out, so every kind costs about the same at the top of its range.
The ladder, the heat times and the shifts are the same for every seed
(``common.generators``); the seed draws the coefficients, the finite
weights, the generator seeds and the order.
"""

from __future__ import annotations

import cmath
import math

import reference as ref
from common import ROOT, Request, generators, ladder

NAME = "verdict-su2"
MIN_PASSES = 3
SIZE = 120  # requests per pass, five blocks of the deck
CHECKS = ("statdef", "representation_ring", "normalized")
FIELDS = ("whitenoise", "ar1-real", "ar1-complex", "ma1-real", "ma2", "kolmogorov", "translated")
# Pair-loop cost at equal N relative to statdef on white noise, measured on a 2-core Xeon.
FIELD_COST = {
    "whitenoise": 1.0,
    "ar1-real": 1.15,
    "ar1-complex": 1.1,
    "ma1-real": 1.0,
    "ma2": 1.1,
    "kolmogorov": 4.0,
    "translated": 7.5,
}
CHECK_COST = {"statdef": 1.0, "representation_ring": 1.35, "normalized": 1.6}
# Fields whose statdef and representation-ring checks pass; all fail the normalized one.
STATIONARY = {"whitenoise", "ar1-real", "ma1-real", "kolmogorov", "translated"}
REFERENCE_KIND = {"ar1-real": "ar1", "ar1-complex": "ar1", "ma1-real": "ma", "ma2": "ma"}
DECK = [f"{c}/{f}" for c in CHECKS for f in FIELDS] + ["positive-definite"] * 2 + ["finite"]
# Windows stop at 48: at 96 a pass took 6.6 s, too few passes in a run for
# each request's fastest pass to be steady on a shared host.
N_MIN, N_MAX = 8, 48


def _window(u, cost):
    cap = min(N_MAX, round(N_MAX / cost ** (1 / 3)))
    return round(N_MIN + (cap - N_MIN) * u**3)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _field_params(rng, shape, field):
    """Inputs of one field; ``shape`` draws those that change the cost."""
    if field == "ar1-real":
        return {"lam": rng.choice((-1, 1)) * rng.uniform(0.2, 0.95)}
    if field == "ar1-complex":
        return {"lam": cmath.rect(rng.uniform(0.2, 0.95), rng.uniform(0.3, math.pi - 0.3))}
    if field == "ma1-real":
        return {"beta": [rng.choice((-1, 1)) * rng.uniform(0.3, 1.5) for _ in range(2)]}
    if field == "ma2":
        return {
            "beta": [cmath.rect(rng.uniform(0.3, 1.5), rng.uniform(0, 2 * math.pi)) for _ in range(3)]
        }
    if field == "kolmogorov":
        return {"t": _log_uniform(shape, 0.005, 1.0)}
    if field == "translated":
        return {"shift": shape.choice((1, 2))}
    return {}


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def _check_verdict(report, expected_pass, ref_violation):
    if (ref_violation <= ref.STATIONARITY_TOL) != expected_pass:
        return f"reference violation {ref_violation:.3g} contradicts the expected verdict"
    if report.passed != expected_pass:
        return f"verdict {report.passed}, expected {expected_pass}"
    if not ref.close(report.max_violation, ref_violation):
        return f"max_violation {report.max_violation!r}, reference {ref_violation!r}"
    return None


class Setup:
    """Duals, measures, oracles and the request list of one seed."""

    def __init__(self, seed):
        from dualfield import central_measures as cm
        from dualfield import dual_hypergroup as dh
        from dualfield import stationary_fields as sf
        from dualfield import time_series as ts

        self.cm, self.sf, self.ts = cm, sf, ts
        self.su2 = dh.su2_dual()
        self.finite = {name: dh.load_character_table(name) for name in ("s3", "q8")}
        rng, self.shape = generators(NAME, seed)
        self.requests = [self._request(rng, kind, u) for kind, u in ladder(self.shape, DECK, SIZE)]
        rng.shuffle(self.requests)

    def _oracle_factory(self, field, params, dual, seed):
        """Callable building the oracle handed to the library, called inside the request.

        Oracles without state are built here, during set-up; the Kolmogorov
        field memoises its transform, so a fresh one is built per call.
        """
        sf, ts, cm = self.sf, self.ts, self.cm
        if field == "whitenoise":
            noise = sf.white_noise(dual, seed)
            return lambda: noise.second_moment
        if field == "translated":
            shifted = sf.translate(sf.white_noise(dual, seed), params["shift"])
            return lambda: shifted.second_moment
        if field.startswith("ar1"):
            oracle = ts.ar1_second_moment_oracle(params["lam"])
            return lambda: oracle
        if field.startswith("ma"):
            oracle = ts.ma_second_moment_oracle(params["beta"])
            return lambda: oracle
        if field == "kolmogorov":
            measure = params.get("measure") or cm.heat_kernel_measure(params["t"])
            return lambda: sf.kolmogorov_field(measure, seed).second_moment
        raise ValueError(field)

    def _run_check(self, check, dual, make_oracle, labels):
        sf = self.sf
        if check == "statdef":
            return lambda tracer: sf.check_stationarity(dual, make_oracle(), labels)
        return lambda tracer: sf.check_hypergroup_stationarity(dual, make_oracle(), labels, check)

    def _request(self, rng, kind, u):
        seed = rng.randrange(2**31)
        if kind == "positive-definite":
            return self._positive_definite(u)
        if kind == "finite":
            return self._finite(rng, seed)
        check, field = kind.split("/")
        n = _window(u, FIELD_COST[field] * CHECK_COST[check])
        params = _field_params(rng, self.shape, field)
        labels = list(range(n + 1))
        expected = field in STATIONARY and check != "normalized"
        description = {"kind": REFERENCE_KIND.get(field, field), **params}
        cached = []

        def verify(report):
            if not cached:
                cached.append(ref.su2_violation(description, n, check))
            return _check_verdict(report, expected, cached[0])

        make_oracle = self._oracle_factory(field, params, self.su2, seed)
        spec = {"kind": kind, "N": n, **{k: _jsonable(v) for k, v in params.items()}}
        return Request(kind, n, spec, self._run_check(check, self.su2, make_oracle, labels), verify)

    def _positive_definite(self, u):
        cm = self.cm
        n = _window(u, 0.7)
        t = _log_uniform(self.shape, 0.005, 1.0)
        measure = cm.heat_kernel_measure(t)
        labels = list(range(n + 1))
        cached = []

        def call(tracer):
            phi = cm.CovarianceOnDual.from_measure(measure, range(2 * n + 1))
            return cm.is_positive_definite(phi, labels)

        def verify(report):
            if not cached:
                cached.append(ref.heat_gram_min_eigenvalue(t, n))
            if not report.positive:
                return f"heat t={t} reported not positive definite"
            if abs(report.min_eigenvalue - cached[0]) > 1e-9 * max(1.0, report.spectral_radius):
                return f"min eigenvalue {report.min_eigenvalue!r}, reference {cached[0]!r}"
            return None

        return Request("positive-definite", n, {"kind": "positive-definite", "N": n, "t": t}, call, verify)

    def _finite(self, rng, seed):
        sf, cm = self.sf, self.cm
        group = self.shape.choice(sorted(self.finite))
        dual = self.finite[group]
        r = len(dual.labels())
        check = self.shape.choice(CHECKS)
        field = self.shape.choice(("whitenoise", "kolmogorov", "translated"))
        params = {}
        if field == "kolmogorov":
            weights = [rng.random() + 0.05 for _ in range(r)]
            params["weights"] = [w / sum(weights) for w in weights]
        elif field == "translated":
            params["shift"] = rng.randrange(1, r)
        cached = []

        def verify(report):
            if not cached:
                table = ref.FiniteTable(ROOT / "src/dualfield/data" / f"{group}.json")
                cached.append(table.violation({"kind": field, **params}, check))
            return _check_verdict(report, cached[0] <= ref.STATIONARITY_TOL, cached[0])

        if field == "kolmogorov":
            params = {**params, "measure": cm.FiniteClassMeasure(dual, params["weights"])}
        make_oracle = self._oracle_factory(field, params, dual, seed)
        spec = {"kind": f"finite/{group}/{check}/{field}", **{k: v for k, v in params.items() if k != "measure"}}
        return Request("finite", None, spec, self._run_check(check, dual, make_oracle, dual.labels()), verify)

