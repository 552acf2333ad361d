"""Reach: every package function outside _oracle runs in a documented example, or has a named user.

The seven README commands (through cli.main), the mutated verify and the
five demos (through runpy) run in one fresh interpreter under
sys.setprofile, which records the code of every function called.  A fresh
interpreter, since in the test process the package's caches would already
hold what these runs build, and hide the calls that build it.  A function
defined in a package module other than _oracle, the unproved-system route,
that none of them calls must be on ALLOWED with its user, and every entry
there must be such a function, so that code no example reaches neither
comes back unnoticed nor stays listed once it runs.  None of the runs
loads _oracle.
"""

import ast
import glob
import os
import subprocess
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "coupledsusy")

RUNS = [
    ["verify", "--n", "2"],
    ["spectrum", "--n", "2", "--count", "6"],
    ["spectrum", "--n", "1", "--count", "6", "--fd", "--format", "csv", "--out", "spectrum.csv"],
    ["eigenfunctions", "--n", "2", "--m", "3", "--grid", "-4:4:401", "--format", "csv", "--out", "eigen.csv"],
    ["coherent", "--n", "2", "--sector", "psi", "--z", "0.5", "--tol", "1e-12"],
    ["uncertainty", "--n", "1", "--state", "ground"],
    ["uncertainty", "--n", "2", "--state", "mixed"],
    ["verify", "--n", "2", "--mutate", "b-coeff"],
]

#: module.qualified name -> the user of a function that no run above calls.
ALLOWED = {
    "__init__.__dir__": "dir(coupledsusy), the lazy exports",
    "cli._load_config_file": "--config",
    "cli._help": "-h and --help",
    "calculus.GaussPolyState.parse": "the text round trip",
    "calculus.GammaVector.parse": "the text round trip",
    "calculus.GammaVector.serialize": "the text round trip, and EigenstateRecord.to_json_dict",
    "calculus._IntForm._read": "the text round trip (parse)",
    "towers.EigenstateRecord.to_json_dict": "eigenfunctions --format json",
    "towers._array_samples": "normalized_samples on a numpy array",
    "towers._libm": "normalized_samples on a numpy array",
    "towers.verify_lemma_half_lowering": "the paper's half-lowering lemma (ROADMAP item 16 gives it a command)",
    "towers._lemma_report": "verify_lemma_half_lowering",
    "systems.k_operators": "the paper's su(1,1) triple, named in README",
    "systems.mutation_slots": "the acceptance gate's mutation sweep, perfbench's mutated verify",
    "calculus.apply_word": "the acceptance tests",
    "calculus.Operator.terms": "README's op.terms",
    "calculus.GaussPolyState.residues": "_oracle's sector guard",
    "calculus._HalfPowerForm.scale_sqrt2": "_oracle's X and P blocks",
    "calculus._HalfPowerForm.__neg__": "_oracle's OperatorExpression.compose",
    "calculus.Record.__setattr__": "immutability",
    "calculus._IntForm.__setattr__": "immutability",
    "calculus.Record.__hash__": "immutable records as dict keys and set members",
    "calculus.Record.__repr__": "repr",
    "calculus._IntForm.__repr__": "repr",
}

_RUN = """
import contextlib, io, os, runpy, sys
called = set()
def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and os.path.dirname(code.co_filename) == {package!r}:
        called.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_name))
sys.setprofile(record)
from coupledsusy import cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {runs!r}:
        cli.main(argv)
    for demo in {demos!r}:
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
assert "coupledsusy._oracle" not in sys.modules
print(repr(sorted(called)))
"""


def defined_functions(path):
    """{(file name, first line, name): module.qualified name} of every def in a module's source."""
    module = os.path.basename(path)[:-3]
    found, pending = {}, [(compile(open(path).read(), path, "exec"), module)]
    while pending:
        code, prefix = pending.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                is_function = const.co_flags & 2  # CO_NEWLOCALS: a function body, not a class body
                name = f"{prefix}.{const.co_name}"
                if is_function:
                    found[os.path.basename(path), const.co_firstlineno, const.co_name] = name
                pending.append((const, f"{name}.<locals>" if is_function else name))
    return found


def test_every_function_outside_the_oracle_runs_or_names_its_user(tmp_path):
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert len(demos) == 5
    code = _RUN.format(package=PACKAGE_DIR, runs=RUNS, demos=demos)
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                            capture_output=True, text=True, timeout=300, check=True)
    called = set(ast.literal_eval(result.stdout))
    defined = {}
    for path in glob.glob(os.path.join(PACKAGE_DIR, "*.py")):
        if os.path.basename(path) != "_oracle.py":
            defined.update(defined_functions(path))
    unreached = {name for key, name in defined.items() if key not in called}
    assert sorted(unreached - set(ALLOWED)) == [], "never called, and no user named"
    assert sorted(set(ALLOWED) - unreached) == [], "listed, but called or no longer defined"
