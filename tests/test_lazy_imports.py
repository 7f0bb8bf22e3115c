"""Exact verdicts load neither ``numpy.random`` nor ``numpy.polynomial``.

A field builds its generator on its first draw, and a heat-kernel measure
answers its transform from its series, with no quadrature rule.  Each
script runs in a fresh interpreter, so the modules it finds loaded are
those the package and the calls loaded.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECKS = """
import sys

import numpy as np

from dualfield import (
    CovarianceOnDual,
    FiniteClassMeasure,
    ar1_field,
    ar1_second_moment_oracle,
    check_hypergroup_stationarity,
    check_stationarity,
    heat_kernel_measure,
    is_positive_definite,
    kolmogorov_field,
    load_character_table,
    ma_field,
    ma_second_moment_oracle,
    su2_dual,
    translate,
    white_noise,
)

SEED = 7
su2 = su2_dual()
heat = heat_kernel_measure(0.05)
oracles = {
    "whitenoise": (su2, white_noise(su2, SEED).second_moment),
    "translated": (su2, translate(white_noise(su2, SEED), 2).second_moment),
    "kolmogorov heat": (su2, kolmogorov_field(heat, SEED).second_moment),
    "ar1 oracle": (su2, ar1_second_moment_oracle(0.5j)),
    "ma oracle": (su2, ma_second_moment_oracle([1.0, 0.5, 0.25j])),
    "ar1 field": (su2, ar1_field(-0.7, SEED).second_moment),
    "ma field": (su2, ma_field([1.0, -0.4], SEED).second_moment),
}
for name in ("s3", "q8"):
    dual = load_character_table(name)
    r = len(dual.labels())
    weights = np.full(r, 1.0 / r)
    oracles[name + " whitenoise"] = (dual, white_noise(dual, SEED).second_moment)
    oracles[name + " translated"] = (dual, translate(white_noise(dual, SEED), 1).second_moment)
    measure = FiniteClassMeasure(dual, weights)
    oracles[name + " kolmogorov"] = (dual, kolmogorov_field(measure, SEED).second_moment)
for name, (dual, oracle) in oracles.items():
    labels = dual.labels() if dual is not su2 else list(range(9))
    check_stationarity(dual, oracle, labels)
    for kind in ("representation_ring", "normalized"):
        check_hypergroup_stationarity(dual, oracle, labels, kind)
report = is_positive_definite(CovarianceOnDual.from_measure(heat, range(17)), range(9))
assert report.positive, report
loaded = sorted(m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules)
assert loaded == [], loaded
"""

DRAWS = """
field = white_noise(su2, SEED)
drawn = field.sample_batch(range(6), 5)
eager = np.random.default_rng(SEED)
want = np.empty((5, 6), dtype=complex)
want.real = eager.normal(size=(5, 6), scale=np.sqrt(0.5))
want.imag = eager.normal(size=(5, 6), scale=np.sqrt(0.5))
for label in range(6):
    assert drawn[label].tobytes() == want[:, label].tobytes(), label
assert field._rng.bit_generator.state == eager.bit_generator.state

field = kolmogorov_field(heat, SEED)
field.sample_batch(range(6), 5)
eager = np.random.default_rng(SEED)
coordinates = heat.sample_coordinates(eager, 5)
assert field.last_coordinates.tobytes() == coordinates.tobytes()
assert field._rng.bit_generator.state == eager.bit_generator.state
assert "numpy.polynomial" not in sys.modules
"""


def run_fresh(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )


def test_checks_load_neither_random_nor_polynomial():
    result = run_fresh(CHECKS)
    assert result.returncode == 0, result.stderr


def test_first_draw_has_the_bits_of_an_eager_generator():
    result = run_fresh(CHECKS + DRAWS)
    assert result.returncode == 0, result.stderr
