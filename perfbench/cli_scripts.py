"""cli-scripts: a seeded sequence of ``dualfield`` command lines, one at a time.

A pass runs the README examples, then, in three rounds, tensor, spectral,
invert, simulate, check and cramer on every builtin finite group, a table
resolved by path and one resolved through ``DUALFIELD_GROUPS``; and bad
inputs with their documented exit codes (2 for a bad label, 3 for a
corrupt table).  The seed picks labels, weights, generator seeds and the
order; which check kinds, fields and cramer measures run is the same for
every seed.

Each command is one call of ``dualfield.cli.main`` with its own argument
list, environment and captured output, in the client's process.  Every
call parses its arguments, resolves its group and loads the table again,
so the package builds its duals for a handful of lookups.  Fresh
processes would add interpreter start and the numpy import to every
command; on a shared host their times spread by about a third (IQR over
median) across ten seeds, wider than the benchmark's bounds.  Their cost stays
measured: ``setup_s`` starts fresh processes, and a traced run times
``cli.import`` and ``cli.interpreter`` on fresh processes of the README
examples.

A command fails when it exits with another code than documented, leaves
a traceback, prints output the independent reference disagrees with, or
prints other stdout than it did on an earlier pass.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from common import ROOT, SRC, Request, generators

NAME = "cli-scripts"
MIN_PASSES = 3
ROUNDS = 3  # draws of the per-group commands in a pass
ENTRY = Path(__file__).resolve().parent / "cli_entry.py"
GROUP_DIR = Path(__file__).resolve().parent / "groups"
BUILTINS = ("c2", "c3", "c5", "s3", "q8")
OUT_DIR = ROOT / ".perfbench_out"

README_EXAMPLES = [
    ["tensor", "--dual", "su2", "1", "1"],
    ["tensor", "--dual", "finite:s3", "sgn", "sgn"],
    ["convolve", "--dual", "su2", "--kind", "normalized", "1:1", "1:1"],
    ["spectral", "--dual", "su2", "--bound", "3", "heat:1"],
    ["spectral", "--dual", "finite:s3", "haar"],
    ["invert", "--dual", "finite:s3", "1,0,0"],
    ["simulate", "--dual", "su2", "--bound", "10", "--seed", "7", "ar1:0.9,0"],
    ["simulate", "--dual", "su2", "--bound", "3", "--seed", "7", "--samples", "100000", "ma:1,0;1,0"],
    ["check", "--dual", "su2", "--labels", "0..4", "whitenoise"],
    ["check", "--dual", "su2", "--labels", "0..2", "--kind", "normalized", "whitenoise"],
    ["cramer", "--dual", "finite:s3", "haar"],
]


def _rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _close_all(got, expected, what, tol=1e-9):
    got, expected = np.asarray(got, dtype=complex), np.asarray(expected, dtype=complex)
    if got.shape != expected.shape:
        return f"{what}: {got.size} values, expected {expected.size}"
    bad = np.abs(got - expected) > tol * np.maximum(1.0, np.abs(expected))
    if bad.any():
        i = int(np.argmax(bad))
        return f"{what}: value {i} is {got[i]!r}, expected {expected[i]!r}"
    return None


def _csv_values(text):
    return [complex(float(re), float(im)) for _, re, im in _rows(text)]


def _mc_rows(text, exact_of, what):
    """Rows of (key..., re_exact, im_exact, re_mc, im_mc, stderr) against exact moments."""
    for row in _rows(text):
        key = tuple(row[:2])
        exact = complex(float(row[2]), float(row[3]))
        mc = complex(float(row[4]), float(row[5]))
        if not ref.close(exact, exact_of(*key)):
            return f"{what} {key}: exact column {exact!r}, reference {exact_of(*key)!r}"
        if not ref.within_sigmas(mc, exact, float(row[6])):
            return f"{what} {key}: estimate {mc!r} too far from {exact!r}"
    return None


def _weights_text(weights):
    return ",".join(f"{w:.17g}" for w in weights)


class Command:
    """One CLI process: arguments, extra environment, expected exit code and content check."""

    def __init__(self, argv, code=0, check=None, env=None):
        self.argv, self.code, self.content_check, self.env = argv, code, check, env or {}
        self.first_stdout = None

    def verify(self, result):
        code, out, err = result
        if code != self.code:
            return f"exit code {code}, expected {self.code}: {err.decode(errors='replace')[-300:]}"
        if b"Traceback" in err:
            return "traceback on stderr"
        if self.first_stdout is None:
            self.first_stdout = out
        elif out != self.first_stdout:
            return "stdout differs from an earlier identical call"
        if self.content_check is not None:
            return self.content_check(out.decode())
        return None


class Setup:
    def __init__(self, seed):
        from dualfield import cli

        self.cli = cli
        rng, self.shape = generators(NAME, seed)
        self.tables = {g: ref.FiniteTable(SRC / "dualfield/data" / f"{g}.json") for g in BUILTINS}
        self.tables["d4"] = ref.FiniteTable(GROUP_DIR / "d4.json")
        self.tables["c4"] = ref.FiniteTable(GROUP_DIR / "c4.json")
        commands = [Command(argv, *self._readme_check(argv)) for argv in README_EXAMPLES]
        d4_path = os.path.relpath(GROUP_DIR / "d4.json", ROOT)
        env = {"DUALFIELD_GROUPS": os.path.relpath(GROUP_DIR, ROOT)}
        for _ in range(ROUNDS):
            for group in BUILTINS:
                commands += self._group_commands(rng, f"finite:{group}", self.tables[group])
            commands += self._group_commands(rng, f"finite:{d4_path}", self.tables["d4"], ("tensor", "cramer"))
            for command in self._group_commands(rng, "finite:c4", self.tables["c4"], ("spectral", "check")):
                command.env = env
                commands.append(command)
        corrupt = f"finite:{os.path.relpath(GROUP_DIR / 'corrupt.json', ROOT)}"
        commands += [
            Command(["tensor", "--dual", "finite:s3", "sgn", "nosuch"], 2),
            Command(["tensor", "--dual", "su2", "x", "1"], 2),
            Command(["tensor", "--dual", corrupt, "trivial", "sgn"], 3),
        ]
        rng.shuffle(commands)
        self.requests = [
            Request(c.argv[0], None, {"argv": c.argv, "env": c.env, "code": c.code}, self._caller(c), c.verify)
            for c in commands
        ]

    # -- expected outputs ----------------------------------------------
    def _readme_check(self, argv):
        s3 = self.tables["s3"]
        text = " ".join(argv)
        if argv[0] == "tensor" and "su2" in argv:
            return 0, lambda out: None if out == "label,multiplicity,dim\n0,1,1\n2,1,3\n# dimcheck 4=4\n" else "su2 1x1"
        if argv[0] == "tensor":
            return 0, self._tensor_check(s3, 1, 1)
        if argv[0] == "convolve":
            return 0, lambda out: _close_all(_csv_values(out), [0.25, 0.75], "1:1 * 1:1 normalized")
        if text.endswith("heat:1"):
            return 0, lambda out: _close_all(_csv_values(out), ref.heat_transform(1.0, range(4)), "heat:1")
        if argv[0] == "spectral":
            return 0, lambda out: _close_all(_csv_values(out), [1, 0, 0], "haar on s3")
        if argv[0] == "invert":
            return 0, self._invert_check(s3, [1, 0, 0])
        if "--samples" in argv:
            beta = [1.0, 1.0]
            return 0, lambda out: _mc_rows(out, lambda n, h: ref.ma_exact(beta, int(n) + int(h), int(n)), "ma")
        if argv[0] == "simulate":
            return 0, lambda out: None if len(_rows(out)) == 11 else "ar1 path should have 11 rows"
        if argv[0] == "check":
            passes = "normalized" not in argv
            return (0 if passes else 1), self._verdict_check(passes)
        return 0, self._cramer_check()

    @staticmethod
    def _tensor_check(table, a, b):
        rows = [f"{table.names[k]},{m},{table.dims[k]}" for k, m in enumerate(table.mult[a, b]) if m]
        total = sum(m * table.dims[k] for k, m in enumerate(table.mult[a, b]))
        expected = "\n".join(["label,multiplicity,dim", *rows, f"# dimcheck {table.dims[a] * table.dims[b]}={total}"]) + "\n"
        return lambda out: None if out == expected else f"{table.name} {a}x{b}: {out!r}"

    @staticmethod
    def _invert_check(table, values):
        def check(out):
            weights = [float(w) for _, w in _rows(out)]
            if min(weights) < 0:
                return f"negative class weight in {weights}"
            return _close_all(table.transform(weights), values, f"{table.name} inversion round trip")

        return check

    @staticmethod
    def _verdict_check(passes, violation=None):
        def check(out):
            report = json.loads(out)
            if report["pass"] != passes:
                return f"verdict {report['pass']}, expected {passes}"
            if violation is not None and not ref.close(report["max_violation"], violation):
                return f"max_violation {report['max_violation']!r}, reference {violation!r}"
            return None

        return check

    @staticmethod
    def _cramer_check():
        def check(out):
            report = json.loads(out)
            worst = max(report["max_scattering_violation"], report["reconstruction_residual"])
            return None if worst <= 1e-9 else f"scattered decomposition off by {worst:.3g}"

        return check

    def _group_commands(self, rng, dual, table, which=("tensor", "spectral", "invert", "simulate", "check", "cramer")):
        out = []
        r = table.r
        weights = [rng.random() + 0.05 for _ in range(r)]
        probability = [w / sum(weights) for w in weights]
        measure = f"classes:{_weights_text(probability)}"
        if "tensor" in which:
            a, b = rng.randrange(r), rng.randrange(r)
            out.append(Command(["tensor", "--dual", dual, table.names[a], table.names[b]], 0, self._tensor_check(table, a, b)))
        if "spectral" in which:
            out.append(
                Command(
                    ["spectral", "--dual", dual, measure],
                    0,
                    lambda text: _close_all(_csv_values(text), table.transform(probability), f"{table.name} transform"),
                )
            )
        if "invert" in which:
            values = table.transform(probability)
            argv = ["invert", "--dual", dual, ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in values)]
            out.append(Command(argv, 0, self._invert_check(table, values)))
        if "simulate" in which:
            seed, samples = rng.randrange(2**31), 2000
            field = {"kind": "kolmogorov", "weights": probability}
            cov = table.covariance(field)
            index = {name: i for i, name in enumerate(table.names)}
            argv = ["simulate", "--dual", dual, "--seed", str(seed), "--samples", str(samples), f"kolmogorov:{measure}"]
            out.append(Command(argv, 0, lambda text: _mc_rows(text, lambda a, b: cov[index[a], index[b]], table.name)))
        if "check" in which:
            kind = self.shape.choice(("statdef", "representation_ring", "normalized"))
            spec = self.shape.choice(("whitenoise", f"kolmogorov:{measure}"))
            field = {"kind": "whitenoise"} if spec == "whitenoise" else {"kind": "kolmogorov", "weights": probability}
            violation = table.violation(field, kind)
            passes = violation <= ref.STATIONARITY_TOL
            argv = ["check", "--dual", dual, "--kind", kind, spec]
            out.append(Command(argv, 0 if passes else 1, self._verdict_check(passes, violation)))
        if "cramer" in which:
            out.append(Command(["cramer", "--dual", dual, self.shape.choice(("haar", measure))], 0, self._cramer_check()))
        return out

    # -- running -------------------------------------------------------
    def _caller(self, command):
        def call(tracer):
            saved = {name: os.environ.get(name) for name in command.env}
            os.environ.update(command.env)
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = self.cli.main(command.argv)
                    except SystemExit as exc:  # argparse rejects bad arguments this way
                        code = exc.code
            finally:
                for name, value in saved.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
            return code, out.getvalue().encode(), err.getvalue().encode()

        return call

    def process_costs(self):
        """Import and interpreter time of fresh processes running the README examples.

        Returns one (import_s, interpreter_s) pair per process; the
        interpreter time is the process wall time minus import and ``main``.
        """
        costs = []
        OUT_DIR.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT_DIR) as scratch:
            env["PERFBENCH_TRACE"] = trace_file = os.path.join(scratch, "trace.json")
            for argv in README_EXAMPLES:
                started = perf_counter()
                subprocess.run([sys.executable, str(ENTRY), *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)
                wall = perf_counter() - started
                with open(trace_file) as handle:
                    trace = json.load(handle)
                costs.append((trace["import_s"], wall - trace["import_s"] - trace["main_s"]))
        return costs
