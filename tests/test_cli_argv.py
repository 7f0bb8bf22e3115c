"""Command lines the parser or the size limits refuse, and random command lines.

Every command registers only the options it reads, so a dead option is a
usage error.  SU(2) tensor products and transform tables are counted
before they are built and refused past ``DRAW_LIMIT``.  Random argv drawn
from a fixed vocabulary must end in a documented exit code (0-3), print no
traceback and stay within a bounded traced peak.
"""

import io
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfield import cli
from dualfield.cli import main

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
HUGE = "99999999999"


def call(argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestDeadOptions:
    """--format and --bound exist only where a command reads them."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--dual", "su2", "--bound", "3", "1", "1"],
            ["convolve", "--dual", "su2", "--bound", "3", "1:1", "1:1"],
            ["invert", "--dual", "finite:s3", "--bound", "3", "1,0,0"],
            ["cramer", "--dual", "finite:s3", "--bound", "3", "haar"],
            ["cramer", "--dual", "finite:s3", "--format", "csv", "haar"],
            ["simulate", "--dual", "su2", "--bound", "3", "--format", "json", "--seed", "1", "whitenoise"],
            ["check", "--dual", "su2", "--labels", "0..2", "--format", "csv", "whitenoise"],
        ],
    )
    def test_refused_by_the_parser(self, argv):
        code, out, err = call(argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--dual", "su2", "--format", "json", "1", "1"],
            ["convolve", "--dual", "su2", "--format", "json", "1:1", "1:1"],
            ["spectral", "--dual", "su2", "--format", "json", "--bound", "2", "heat:1"],
            ["invert", "--dual", "finite:s3", "--format", "json", "1,0,0"],
            ["simulate", "--dual", "su2", "--bound", "2", "--seed", "1", "whitenoise"],
            ["check", "--dual", "su2", "--bound", "2", "--seed", "1", "whitenoise"],
            ["cramer", "--dual", "finite:s3", "haar"],
        ],
    )
    def test_read_options_still_accepted(self, argv):
        assert call(argv)[0] == 0


class TestHugeSU2Labels:
    """Tensor products and transform tables are counted before anything is listed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--dual", "su2", HUGE, HUGE],
            ["tensor", "--dual", "su2", "--format", "json", HUGE, HUGE],
            ["convolve", "--dual", "su2", f"{HUGE}:1", f"{HUGE}:1"],
            ["convolve", "--dual", "su2", "--kind", "normalized", f"1:1,{HUGE}:1", f"{HUGE}:1"],
            ["spectral", "--dual", "su2", "--labels", HUGE, "atoms:1:1"],
            ["spectral", "--dual", "su2", "--labels", f"0,{HUGE}", "atoms:1:1,2:0.5"],
        ],
    )
    def test_refused_at_once(self, argv):
        call(["tensor", "--dual", "su2", "1", "1"])  # loads what the first call loads
        started = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = call(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and f"limit of {cli.DRAW_LIMIT}" in err
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "--dual", "su2", "0", HUGE],
            ["convolve", "--dual", "su2", f"{HUGE}:1", "1:1"],
            ["spectral", "--dual", "su2", "--labels", HUGE, "heat:1"],
            ["spectral", "--dual", "torus", "--labels", HUGE, "atoms:1:1"],
        ],
    )
    def test_few_terms_at_huge_labels_still_run(self, argv):
        code, out, _ = call(argv)
        assert code == 0 and HUGE[:-1] in out

    def test_tensor_and_convolve_limits_count_terms_inclusively(self, monkeypatch):
        monkeypatch.setattr(cli, "DRAW_LIMIT", 5 * cli.PEAK_PER_TERM)
        assert call(["tensor", "--dual", "su2", "4", "7"])[0] == 0
        assert call(["tensor", "--dual", "su2", "5", "7"])[0] == 2
        # (3 x 2) has 3 components and (1 x 2) has 2.
        assert call(["convolve", "--dual", "su2", "3:1,1:1", "2:1"])[0] == 0
        assert call(["convolve", "--dual", "su2", "3:1,2:1", "2:1"])[0] == 2
        # One component per torus or finite product, whatever the labels.
        assert call(["tensor", "--dual", "torus", HUGE, HUGE])[0] == 0
        assert call(["convolve", "--dual", "finite:s3", "std:1,sgn:1", "std:1,sgn:1"])[0] == 0

    def test_spectral_limit_counts_point_rows_inclusively(self, monkeypatch):
        # Five labels, and two atoms' rows 0 .. 2 * 4 of their characters.
        limit = cli.PEAK_PER_LABEL * 5 + cli.PEAK_PER_POINT * 2 * 9
        monkeypatch.setattr(cli, "DRAW_LIMIT", limit)
        measure = "atoms:1:1,2:1"
        assert call(["spectral", "--dual", "su2", "--labels", "0..4", measure])[0] == 0
        assert call(["spectral", "--dual", "su2", "--labels", "3,4", measure])[0] == 0
        assert call(["spectral", "--dual", "su2", "--labels", "0..5", measure])[0] == 2
        assert call(["spectral", "--dual", "su2", "--bound", "5", measure])[0] == 2
        # One label: its rows 0 .. 2 * top fill what the other four labels left.
        top = ((limit - cli.PEAK_PER_LABEL) // (2 * cli.PEAK_PER_POINT) - 1) // 2
        assert call(["spectral", "--dual", "su2", "--labels", str(top), measure])[0] == 0
        assert call(["spectral", "--dual", "su2", "--labels", str(top + 1), measure])[0] == 2
        # A heat measure keeps no characters: only its labels count.
        assert call(["spectral", "--dual", "su2", "--labels", "0..4", "heat:1"])[0] == 0
        assert call(["spectral", "--dual", "su2", "--labels", "0..5", "heat:1"])[0] == 2


# ---------------------------------------------------------------------------
# Random argv
# ---------------------------------------------------------------------------

DUALS = [
    "su2",
    "torus",
    "finite:s3",
    "finite:q8",
    "finite:c2",
    f"finite:{GROUP_DIR / 'd4.json'}",
    f"finite:{GROUP_DIR / 'corrupt.json'}",
    "finite:nosuch",
    "so3",
]
LABELS = ["0", "1", "2", "5", "-1", HUGE, "sgn", "std", "chi_i", "x"]
VECTORS = ["1:1", "0:1,2:1j", f"{HUGE}:1", f"1:1,{HUGE}:2", "sgn:1", "std:1,trivial:1", "x:1", "1:nan"]
MEASURES = [
    "haar",
    "heat:1",
    "heat:0.01",
    "heat:0",
    "atoms:1:1",
    "atoms:0.5:0.5,2:0.5",
    "atoms:9:1",
    "classes:1,0,0",
    "classes:0.5,0.5",
    "classes:0.2,0.2,0.2,0.2,0.2",
    "bogus",
]
FIELDS = [
    "whitenoise",
    "ar1:0.5,0",
    "ar1:1.2,0.1",
    "ma:1,0;0.5,0",
    "bogus",
    *(f"kolmogorov:{m}" for m in MEASURES),
]
VALUES = ["1,0,0", "1,0", "1,0,0,0,0", "1,1,1,1,1", "0.5,0.5,0,0", "x"]
OPTIONS = {
    "--format": ["csv", "json", "xml"],
    "--bound": ["-1", "0", "3", HUGE, "x"],
    "--labels": ["0..3", "2,0", "5..2", HUGE, f"0..{HUGE}", "sgn,std", "-2..2", "1..x"],
    "--seed": ["-1", "0", "7"],
    "--samples": ["0", "1", "2", "50", HUGE],
    "--kind": ["statdef", "representation_ring", "normalized", "bogus"],
    "--tol": ["1e-12", "0", "nan", "-1"],
}
POSITIONALS = {
    "tensor": [LABELS, LABELS],
    "convolve": [VECTORS, VECTORS],
    "spectral": [MEASURES],
    "invert": [VALUES],
    "simulate": [FIELDS],
    "check": [FIELDS],
    "cramer": [MEASURES],
}


# The options each command reads; the others are usage errors.
READ = {
    "tensor": ["--format"],
    "convolve": ["--format", "--kind"],
    "spectral": ["--format", "--bound", "--labels"],
    "invert": ["--format"],
    "simulate": ["--bound", "--seed", "--samples"],
    "check": ["--bound", "--labels", "--seed", "--kind", "--tol"],
    "cramer": [],
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    argv = [command, "--dual", draw(st.sampled_from(DUALS))]
    # Mostly options the command reads, so most lines get past the parser.
    pool = READ[command] if READ[command] and draw(st.integers(0, 4)) else sorted(OPTIONS)
    for option in draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)):
        argv += [f"{option}={draw(st.sampled_from(OPTIONS[option]))}"]
    argv += [draw(st.sampled_from(vocabulary)) for vocabulary in POSITIONALS[command]]
    return argv, draw(st.booleans())


class TestRandomArgv:
    @given(command_lines())
    @settings(max_examples=300, deadline=None)
    def test_ends_in_a_documented_exit_code(self, tmp_path_factory, drawn):
        argv, to_file = drawn
        if to_file:
            argv = [*argv[:3], "--output", str(tmp_path_factory.mktemp("out") / "result"), *argv[3:]]
        tracemalloc.start()
        try:
            code, out, err = call(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        assert peak < 64 << 20, (argv, peak)
        if code == 2:
            assert out == ""
