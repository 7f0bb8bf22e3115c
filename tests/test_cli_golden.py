"""Every call of a fixed CLI corpus prints the bytes and exits with the code on record.

``tests/data/cli_golden.json`` holds the argv, exit code and stdout of
each call: every command under each ``--format`` on the torus, su2, c2,
s3 and q8 duals, every README example, and the bad-label and
corrupt-table exits.  Paths in an argv are relative to the repository
root.  After a deliberate change of output, rewrite the file with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
CORRUPT = "finite:perfbench/groups/corrupt.json"

# Per dual: two labels, a --labels window, and the measures and fields it takes.
DUALS = {
    "torus": {
        "labels": ("-2", "3"),
        "window": "--labels=-2..2",
        "measures": ("haar", "atoms:0.5:0.5,2:0.5"),
        "fields": ("whitenoise", "kolmogorov:haar", "kolmogorov:atoms:0.5:0.5,2:0.5"),
    },
    "su2": {
        "labels": ("1", "2"),
        "window": "--labels=0..4",
        "measures": ("haar", "heat:0.5", "atoms:0.5:0.5,2:0.5"),
        "fields": (
            "whitenoise",
            "kolmogorov:heat:0.3",
            "kolmogorov:atoms:0.5:0.5,2:0.5",
            "ar1:0.9,0",
            "ar1:0.5,0.5",
            "ma:1,0;0.5,1;0.3,0",
        ),
    },
    "finite:c2": {
        "labels": ("trivial", "sgn"),
        "measures": ("haar", "classes:0.25,0.75"),
        "values": ("1,0", "1,0.5"),
    },
    "finite:s3": {
        "labels": ("sgn", "std"),
        "measures": ("haar", "classes:0.2,0.3,0.5"),
        "values": ("1,0,0", "1,0.2,-0.1"),
    },
    "finite:q8": {
        "labels": ("chi_i", "dim2"),
        "measures": ("haar", "classes:0.1,0.2,0.3,0.25,0.15"),
        "values": ("1,0,0,0,0", "1,0.3,0.1,-0.2,0.4"),
    },
}


def readme_calls():
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_readme_examples import readme_examples

    return [argv for argv, _ in readme_examples()]


def dual_calls(dual, spec):
    a, b = spec["labels"]
    finite = dual.startswith("finite:")
    windows = [[]] if finite else [["--bound", "3"], [spec["window"]], [f"--labels={b},{a}"]]
    fields = spec.get("fields") or ("whitenoise", *(f"kolmogorov:{m}" for m in spec["measures"]))
    calls = []
    for fmt in ("csv", "json"):
        f = ["--format", fmt]
        calls += [["tensor", "--dual", dual, *f, x, y] for x, y in ((a, a), (a, b), (b, b))]
        for kind in ("representation_ring", "normalized"):
            calls.append(
                ["convolve", "--dual", dual, *f, "--kind", kind, "--", f"{a}:1,{b}:0.5", f"{b}:2+1j"]
            )
        for measure in spec["measures"]:
            calls += [["spectral", "--dual", dual, *f, *w, measure] for w in windows]
        for values in spec.get("values", ("1,0",)):
            calls.append(["invert", "--dual", dual, *f, values])
    bound = [] if finite else ["--bound", "2"]
    for field in fields:
        calls.append(["simulate", "--dual", dual, *bound, "--seed", "5", field])
        calls.append(["simulate", "--dual", dual, *bound, "--seed", "5", "--samples", "20", field])
        for kind in ("statdef", "representation_ring", "normalized"):
            calls += [["check", "--dual", dual, *w, "--kind", kind, field] for w in windows]
    calls += [["cramer", "--dual", dual, measure] for measure in spec["measures"]]
    return calls


def golden_calls():
    calls = readme_calls()
    for dual, spec in DUALS.items():
        calls += dual_calls(dual, spec)
    calls += [
        ["tensor", "--dual", "finite:s3", "sgn", "nosuch"],
        ["tensor", "--dual", "su2", "x", "1"],
        ["spectral", "--dual", "su2", "--labels", "0,-1", "haar"],
        ["check", "--dual", "torus", "--labels", "1,x", "whitenoise"],
        ["tensor", "--dual", CORRUPT, "trivial", "sgn"],
        ["spectral", "--dual", CORRUPT, "haar"],
        ["check", "--dual", CORRUPT, "whitenoise"],
    ]
    return calls


def run(argv):
    """(exit code, stdout) of one ``main`` call, argparse exits included."""
    from dualfield.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def load_corpus():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


CORPUS = load_corpus()


def test_corpus_covers_every_command_and_exit():
    assert {entry["argv"][0] for entry in CORPUS} == {
        "tensor", "convolve", "spectral", "invert", "simulate", "check", "cramer",
    }
    assert {entry["code"] for entry in CORPUS} == {0, 1, 2, 3}
    assert [entry["argv"] for entry in CORPUS] == golden_calls()


@pytest.mark.parametrize("entry", CORPUS, ids=[" ".join(e["argv"]) for e in CORPUS])
def test_call_prints_the_recorded_bytes(monkeypatch, entry):
    monkeypatch.chdir(ROOT)
    assert run(entry["argv"]) == (entry["code"], entry["stdout"])


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    corpus = [dict(zip(("code", "stdout"), run(argv)), argv=argv) for argv in golden_calls()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(corpus)} calls written to {GOLDEN.relative_to(ROOT)}")
