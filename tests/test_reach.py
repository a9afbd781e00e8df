"""Every code object compiled from src/emb7 runs under some command.

A committed argv corpus goes through `cli.main` in one fresh interpreter
under `sys.settrace`, imports included.  Every code object compiled from
the package (module bodies, functions, methods, nested functions, lambdas
and comprehensions) must have been entered, except those named in
UNREACHED, each with the reason that no command needs it; the code nested
in a listed name is excepted with it.  A listed name that the corpus
reaches, or that no longer exists, fails the test too, so the list can only
shrink.
"""

import json
import os
import sys
import time
import types

import pytest

import emb7
from conftest import fresh_python, to_json
from emb7.manifolds import builtin

PACKAGE = os.path.dirname(os.path.abspath(emb7.__file__))

UNREACHED = {
    "emb7.linking.hopf_grid":
        "the full-grid reference the tests hold the tau slice to; "
        "perfbench traces it by name",
    "emb7.exact.coset_normal_form":
        "the coset form over the tests' reference presentation; kept by "
        "name while perfbench's tracer wraps it",
    "emb7.exact.IntMatrix.diagonal": "test fixtures build diagonal forms",
    "emb7.exact.IntMatrix.T": "test fixtures change bases with it",
    "emb7.exact.IntMatrix.__add__": "test fixtures add slices with it",
    "emb7.exact.IntMatrix.tolists": "only __repr__ and the tests call it",
    "emb7.exact.IntMatrix.__repr__": "shows a matrix in a failing assertion",
    "emb7.exact.IntMatrix.__setattr__":
        "the immutability guard; no command assigns to a matrix",
}

# (argv, exit code); <dir> is a folder holding the manifold files of
# write_manifolds.
CORPUS = [
    (["validate", "data.json"], 2),
    (["validate", "<dir>/t2xs2.json"], 0),
    (["validate", "<dir>/swapped.json"], 0),
    (["validate", "<dir>/bad.json"], 1),
    (["kappa-check", "--manifold", "cp2", "--u", "[1]"], 0),
    (["kappa-check", "--manifold", "cp2", "--u", "[1, 2]"], 1),
    (["kappa-enum", "--manifold", "cp2", "--bound", "3"], 0),
    (["sym-check", "--manifold", "cp2", "--u", "[1]", "--L", "[]"], 0),
    (["sym-check", "--manifold", "<dir>/t2xs2.json", "--u", "[1,0]",
      "--L", "[[0,0],[1,0]]"], 0),
    (["k-group", "--manifold", "s1xs3", "--u", "[]", "--L", "[[3]]"], 0),
    # over Z/12: row steps, and a diagonal (4, 6) that needs a gcd step
    (["k-group", "--manifold", "t2xs2", "--u", "[12,0]",
      "--L", "[[2,1],[13,3]]"], 0),
    (["k-group", "--manifold", "t2xs2", "--u", "[12,0]",
      "--L", "[[2,0],[12,3]]"], 0),
    (["k-group", "--manifold", "<dir>/bad.json", "--u", "[0,0]",
      "--L", "[]"], 1),
    (["k-group", "--manifold", "s1xs3", "--u", "[]", "--L", "[[1.5]]"], 2),
    (["k-group", "--manifold", "s1xs3", "--u", "[]", "--L", "abc"], 2),
    (["whitney", "--manifold", "s1xs3", "--L", "[[3]]"], 0),
    (["reghom", "--L0", "[[1]]", "--L1", "[[3]]"], 0),
    (["reghom", "--L0", "[[1],[2]]", "--L1", "[[1],[2]]"], 1),
    (["compress-check", "--u", "[0]", "--L", "[[0]]"], 0),
    (["move", "apply", "--manifold", "s1xs3",
      "--class", '{"u": [], "L": [["0"]], "beta": ["0"]}',
      "--move", "1,0,5"], 0),
    (["move", "apply", "--manifold", "s1xs3",
      "--class", '{"u": [], "L": [["2"]], "beta": ["0"]}',
      "--move", "1,3,0"], 0),
    (["decompose", "--manifold", "t2xs2", "--form", "[[2,1],[1,0]]"], 0),
    (["tau", "normal-form", "3", "7"], 0),
    (["tau", "equal", "2", "1", "2", "5"], 0),
    (["tau", "compose", "1", "0", "0", "1"], 0),
    (["classify", "equal", "--manifold", "s1xs3",
      "--class1", '{"u": [], "L": [["3"]], "beta": ["1"]}',
      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'], 0),
    (["classify", "equal", "--manifold", "s1xs3",
      "--class1", '{"u": [], "L": [["3"]]}',
      "--class2", '{"u": [], "L": [["3"]], "beta": ["7"]}'], 1),
    # a pivot that the next column does not divide, over Z and over Z/4
    (["classify", "equal", "--manifold", "t2xs2",
      "--class1", '{"u": [0, 0], "L": [[2, 3], [3, 2]], "beta": [1, 0]}',
      "--class2", '{"u": [0, 0], "L": [[2, 3], [3, 2]], "beta": [3, 2]}'],
     0),
    (["classify", "equal", "--manifold", "t2xs2",
      "--class1", '{"u": [4, 0], "L": [[1, 0], [4, 3]], "beta": [1, 0]}',
      "--class2", '{"u": [4, 0], "L": [[1, 0], [4, 3]], "beta": [3, 2]}'],
     0),
    (["fiber", "--manifold", "s1xs3", "--L", "[[3]]"], 0),
    (["fiber", "--manifold", "s1xs3", "--L", "[[0]]", "--enumerate",
      "--cap", "5"], 0),
    (["fiber", "--manifold", "t2xs2", "--u", "[2,0]",
      "--L", "[[0,0],[2,0]]", "--enumerate"], 0),
    (["snf", "--matrix", "[[2,4],[6,8]]"], 0),
    (["snf", "--matrix", "[[2,0],[0,3]]"], 0),
    (["link", "tau", "--l", "1", "--b", "0", "--resolution", "5"], 0),
    (["link", "tau", "--l", "-2", "--b", "1"], 0),
    (["link", "tau", "--l", "2", "--b", "0", "--resolution", "1"], 1),
    (["link", "tau", "--l", "4", "--b", "0", "--resolution", "5"], 1),
    (["-h"], 0),
    (["tau", "-h"], 0),
    (["fiber", "-h"], 0),
    (["frobnicate"], 2),
]

DRIVER = """
import contextlib, io, json, sys

package, corpus = sys.argv[1], json.loads(sys.argv[2])
entered = set()


def trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(package):
        entered.add((code.co_filename, code.co_firstlineno,
                     code.co_qualname))


sys.settrace(trace)
from emb7 import cli
codes = []
for argv in corpus:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def write_manifolds(folder) -> None:
    """t2xs2.json, the builtin as a file; swapped.json, a b1 = 3 manifold
    whose pairing P needs a row swap and a row step in its determinant;
    bad.json, S^2 x S^2 with the wrong signature."""
    files = {"t2xs2": to_json(builtin("t2xs2")),
             "swapped": {"b1": 3, "b2": 0, "Q": [], "T": [], "w2": [],
                         "sigma": 0, "P": [[0, 1, 0], [1, 0, 0], [1, 1, 1]]},
             "bad": dict(to_json(builtin("s2xs2")), sigma="1")}
    for name, obj in files.items():
        (folder / f"{name}.json").write_text(json.dumps(obj))


def compiled_code() -> dict:
    """{(file, first line, qualname): qualified name} for every code object
    compiled from the package's modules."""
    found = {}

    def walk(code, path, module):
        found[path, code.co_firstlineno, code.co_qualname] = (
            module if code.co_name == "<module>"
            else f"{module}.{code.co_qualname}")
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, path, module)

    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            stem = entry[:-3]
            with open(path) as fh:
                code = compile(fh.read(), path, "exec")
            walk(code, path, "emb7" if stem == "__init__" else f"emb7.{stem}")
    return found


def excepted(name: str) -> bool:
    return any(name == listed or name.startswith(listed + ".")
               for listed in UNREACHED)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="code objects carry co_qualname from Python 3.11")
def test_every_function_is_reached(tmp_path):
    write_manifolds(tmp_path)
    corpus = [[arg.replace("<dir>", str(tmp_path)) for arg in argv]
              for argv, _ in CORPUS]
    start = time.perf_counter()
    proc = fresh_python("-c", DRIVER, PACKAGE + os.sep, json.dumps(corpus))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert list(zip(corpus, result["codes"])) == \
        list(zip(corpus, (code for _, code in CORPUS)))
    compiled = compiled_code()
    entered = {compiled[tuple(key)] for key in result["entered"]}
    missed = sorted(name for name in compiled.values()
                    if name not in entered and not excepted(name))
    assert not missed, "reached by no argv of the corpus: " + ", ".join(missed)
    reached = sorted(set(UNREACHED) & entered)
    assert not reached, "listed, but reached: " + ", ".join(reached)
    gone = sorted(set(UNREACHED) - set(compiled.values()))
    assert not gone, "listed, but gone: " + ", ".join(gone)
    assert elapsed < 3.0
