"""The import graph and start-up: no command loads hashlib (and with it
OpenSSL's libcrypto), a sweep's config hash included, nothing loads a process
pool, and `import qprim` loads numpy with one OpenBLAS thread while leaving
the caller's environment as it found it, which holds only while the package
calls no BLAS routine.  No module routes a polynomial by its class, no
function body imports a qprim module, every name a module imports is read
there, but those listed with their reasons, and no module names uint64:
arith.Lanes is the one numpy modular kernel, and no module but arith knows
how its residues are held.  Every public function or class
is named elsewhere in the package, read by perfbench or listed in
qprim.__all__, and every defaulted parameter of one is set by some call in
the package or perfbench, but those listed with their reasons."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import qprim, qprim.cli
added = set(sys.modules) - before
from qprim.search import SearchConfig, config_hash
cfg = SearchConfig(d=163, d1=163, alpha=1, sign=1, shift=0, g_base=326, k_lo=1, k_hi=1, n_cap=4000)
digest = config_hash(cfg)
print(json.dumps({
    "pool_modules": sorted(added & {"concurrent.futures", "multiprocessing"}),
    "config_hash": digest,
    "hash_modules": sorted(set(sys.modules) & {"hashlib", "_hashlib"}),
}))
"""

# a tiny `qprim search` in one process, then the shared objects it has mapped
SEARCH_MAPS = """
import json, sys
from qprim.cli import main
code = main(sys.argv[1:])
with open("/proc/self/maps") as maps:
    print(json.dumps({"code": code, "maps": maps.read().splitlines()}))
"""


# the OS threads and OPENBLAS_NUM_THREADS after the imports in argv[1]
STARTUP = """
import json, os, sys
exec(sys.argv[1])
print(json.dumps({
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


def run_python(code: str, *argv: str, env: dict[str, str] | None = None) -> str:
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True).stdout


def startup(imports: str, **env: str) -> dict:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return json.loads(run_python(STARTUP, imports, env=base | env))


def test_nothing_loads_hashlib_even_after_config_hash():
    got = json.loads(run_python(PROBE))
    assert got["pool_modules"] == []
    assert got["config_hash"] == "bfe472d48a19d25b"  # tests/test_search.py's LEHMER_CFG: checkpoints resume
    assert got["hash_modules"] == []


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_search_maps_no_libcrypto(tmp_path):
    argv = ["search", "--d", "163", "--d1", "163", "--alpha", "1", "--g-base", "326", "--k-hi", "2", "--n-cap", "200"]
    out = run_python(SEARCH_MAPS, *argv, "--checkpoint", str(tmp_path / "sweep.jsonl"))
    got = json.loads(out.splitlines()[-1])
    assert got["code"] == 0
    assert (tmp_path / "sweep.jsonl").read_text()  # the sweep hashed its config for a checkpoint line
    assert any("python" in line for line in got["maps"])
    assert [line for line in got["maps"] if "libcrypto" in line] == []


def test_import_starts_one_thread_and_leaves_the_environment():
    got = startup("import qprim")
    if got["threads"] is None:
        pytest.skip("needs /proc/self/task")
    assert got["threads"] == 1  # no idle OpenBLAS pool
    assert got["openblas"] is None


def test_import_keeps_the_callers_openblas_setting():
    assert startup("import qprim", OPENBLAS_NUM_THREADS="2")["openblas"] == "2"


def test_import_after_numpy_leaves_the_environment():
    got = startup("import numpy, qprim")
    assert got["openblas"] is None
    assert got["threads"] == startup("import numpy")["threads"]  # numpy's own pool, whatever its size


BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "outer", "tensordot", "vdot", "linalg"}


def blas_calls(source: str) -> list[str]:
    """The `@` products, the BLAS-backed attributes (np.dot, x.dot, np.linalg, ...)
    and the imports of such names (from numpy import dot, import numpy.linalg) in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: {node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            found += [f"line {node.lineno}: {w}" for w in sorted({w for n in names for w in n.split(".")} & BLAS_NAMES)]
    return found


def test_blas_guard_sees_each_form():
    source = "np.dot(a, b)\nx = a @ b\na @= b\nnp.linalg.solve(a, b)\na.T.outer(b)\nnp.add(a, b)\n"
    source += "from numpy import add, einsum\nimport numpy.linalg\nfrom numpy.linalg import norm\nimport numpy as np\n"
    assert sorted(blas_calls(source)) == [
        "line 1: dot", "line 2: @", "line 3: @", "line 4: linalg", "line 5: outer",
        "line 7: einsum", "line 8: linalg", "line 9: linalg",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py")))
def test_package_calls_no_blas(module):
    # numpy loads with one OpenBLAS thread (qprim/__init__.py): a BLAS call would run serial
    assert blas_calls((SRC / "qprim" / module).read_text()) == []


def class_routes(source: str) -> list[str]:
    """The isinstance and issubclass calls in source whose class argument names
    QuadraticPoly: a route chosen by how f was built rather than by its degree."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            names = {getattr(n, "id", None) or getattr(n, "attr", None) for arg in node.args[1:] for n in ast.walk(arg)}
            if "QuadraticPoly" in names:
                found.append(f"line {node.lineno}: {node.func.id}")
    return found


def test_class_route_guard_sees_each_form():
    source = "isinstance(f, QuadraticPoly)\nisinstance(f, (PolyZ, poly.QuadraticPoly))\n"
    source += "issubclass(type(f), QuadraticPoly)\nisinstance(f, PolyZ)\nf.degree() == 2\n"
    assert class_routes(source) == ["line 1: isinstance", "line 2: isinstance", "line 3: issubclass"]


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py")))
def test_no_route_by_polynomial_class(module):
    # a quadratic is any degree-2 PolyZ: the CLI's "5,0,5" and "5,0,5,0" must get one answer
    assert class_routes((SRC / "qprim" / module).read_text()) == []


def lazy_qprim_imports(source: str) -> list[tuple[str, str]]:
    """(innermost function, qprim module) for each import of a qprim module
    made inside a function body."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if function and isinstance(child, ast.ImportFrom) and (child.level or (child.module or "").startswith("qprim")):
                module = child.module or ", ".join(alias.name for alias in child.names)
                found.append((function, module.removeprefix("qprim.")))
            elif function and isinstance(child, ast.Import):
                found.extend((function, a.name.removeprefix("qprim.")) for a in child.names if a.name.startswith("qprim"))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_lazy_import_guard_sees_each_form():
    source = "from .arith import factor\nimport qprim\n"
    source += "def f():\n    from .arith import is_prime\n    import numpy\n    def g():\n        import qprim.poly\n"
    source += "class C:\n    def m(self):\n        from . import search\n        from qprim.streaks import streak\n"
    assert lazy_qprim_imports(source) == [("f", "arith"), ("g", "poly"), ("m", "search"), ("m", "streaks")]


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py")))
def test_no_function_imports_a_qprim_module(module):
    # an import inside a function hides the import graph and is paid on first call
    assert lazy_qprim_imports((SRC / "qprim" / module).read_text()) == []


# (module, name) -> why an import outside any function binds a name its module never reads
UNREAD_IMPORTS = {
    ("__init__.py", "numpy"): "imported for its effect: numpy loads while OPENBLAS_NUM_THREADS is 1",
    ("search.py", "streak"): "perfbench's resume check patches search.streak by name",
}


def unread_imports(source: str) -> list[str]:
    """The names bound by imports outside any function or class body in
    source (__future__ aside) that the module never reads: no load of the
    name, and no entry of __all__ names it."""
    tree = ast.parse(source)
    bound, read = set(), set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and getattr(child, "module", None) != "__future__":
                bound.update((alias.asname or alias.name).split(".")[0] for alias in child.names)
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child)

    visit(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(element.value for element in node.value.elts)
    return sorted(bound - read)


def test_unread_import_guard_sees_each_form():
    source = "from __future__ import annotations\nimport os, numpy as np\nimport os.path\nfrom .a import b, c as d\n"
    source += "try:\n    import fcntl\nexcept ImportError:\n    fcntl = None\nif d:\n    import json\n"
    source += "__all__ = ['b']\ndef f():\n    import sys\n    return np.ones(1)\nclass C:\n    from .e import g\n"
    assert unread_imports(source) == ["fcntl", "json", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py")))
def test_every_import_outside_a_function_is_read(module):
    # a name bound but never read is a dependency the module does not have
    allowed = sorted(name for (file, name) in UNREAD_IMPORTS if file == module)
    assert unread_imports((SRC / "qprim" / module).read_text()) == allowed


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py")))
def test_no_second_modular_kernel(module):
    # arith.Lanes picks float64, int64 or Python ints by the largest modulus; a
    # uint64 kernel beside it would be a second representation to keep exact
    assert "uint64" not in (SRC / "qprim" / module).read_text()


KERNEL_NAMES = {"_FLOAT_PRIME_BOUND", "_QUOTIENT_PRIME_BOUND", "balanced"}


def residue_format_uses(source: str) -> list[str]:
    """'line n: name' for each place in source that names a bound between
    arith.Lanes' ways of computing or `balanced` (a name, attribute, import,
    keyword or parameter), and each call of a method lower: what only Lanes
    should know of how its residues are held."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.name if isinstance(node, ast.alias) else getattr(node, "id", None) or getattr(node, "attr", None)
        name = name or getattr(node, "arg", None)
        if name in KERNEL_NAMES:
            found.append((node.lineno, name))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "lower":
            found.append((node.lineno, ".lower("))
    return [f"line {n}: {name}" for n, name in sorted(found)]


def test_residue_format_guard_sees_each_form():
    source = "from .arith import _FLOAT_PRIME_BOUND, Lanes\nx = arith._QUOTIENT_PRIME_BOUND\n"
    source += "Lanes(P, balanced=False)\nif lanes.balanced:\n    r = lanes.lower(r)\ndef f(balanced=None): pass\n"
    source += "lower = s.lower\nnp.float64(lower)\nbalance = 1\n"
    assert residue_format_uses(source) == [
        "line 1: _FLOAT_PRIME_BOUND", "line 2: _QUOTIENT_PRIME_BOUND", "line 3: balanced", "line 4: balanced",
        "line 5: .lower(", "line 6: balanced",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in (SRC / "qprim").glob("*.py") if p.name != "arith.py"))
def test_only_arith_knows_the_residue_format(module):
    # Lanes takes and returns residues in [0, p): how it computes them, and
    # up to which modulus each way is exact, is arith's alone
    assert residue_format_uses((SRC / "qprim" / module).read_text()) == []


def unnamed_public_definitions(modules: dict[str, str], readers: str, exported: set[str]) -> list[str]:
    """'module: name' for each public function or class defined at the top
    level of modules (file name -> source) that no other top-level statement
    of modules names, that is no word of readers, and that exported does not
    list: a definition nothing calls but its own tests."""
    defined, named = [], set()
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defined.append((module, own))
            for node in ast.walk(stmt):
                name = node.name if isinstance(node, ast.alias) else getattr(node, "id", None) or getattr(node, "attr", None)
                if name and name != own:
                    named.update(name.split("."))
    words = set(re.findall(r"\w+", readers))
    return [f"{module}: {name}" for module, name in defined if name not in named | words | exported]


def test_unnamed_public_guard_sees_each_form():
    a = "def used(): pass\ndef unused(): pass\ndef _private(): pass\nclass Attr: pass\nclass Unused:\n    x = Unused\n"
    a += "def recursive():\n    return recursive()\ndef exported(): pass\ndef benched(): pass\nimported = 1\n"
    b = "from .a import used\nfrom . import a\na.Attr()\n"
    found = unnamed_public_definitions({"a.py": a, "b.py": b}, "patch(a, 'benched')", {"exported"})
    assert found == ["a.py: unused", "a.py: Unused", "a.py: recursive"]


def test_every_public_definition_is_named_read_or_exported():
    # a public name only tests call is an oracle posing as API: fold it into the tests or delete it
    modules = {p.name: p.read_text() for p in (SRC / "qprim").glob("*.py") if p.name != "__init__.py"}
    readers = "\n".join(p.read_text() for p in (SRC.parent / "perfbench").glob("*.py"))
    init = ast.parse((SRC / "qprim" / "__init__.py").read_text())
    [exported] = [ast.literal_eval(s.value) for s in init.body if isinstance(s, ast.Assign) and s.targets[0].id == "__all__"]
    assert unnamed_public_definitions(modules, readers, set(exported)) == []


# (module, function, parameter) -> why a default that no package or perfbench call sets stays
UNSET_DEFAULTS = {
    ("cli.py", "main", "argv"): "tests pass their own argv; the console script passes none",
    ("poly.py", "roots_table", "t"): "the f - 1 table of ROADMAP item 5 needs it; tests check t = 1 against roots_mod",
}


def unset_defaults(modules: dict[str, str], callers: list[str]) -> list[tuple[str, str, str]]:
    """(module, function, parameter) for each defaulted parameter of a public
    function, or public method of a public class, defined at the top level of
    modules (file name -> source) that no call in callers sets: a call counts
    if its callee's name (a bare name or an attribute) is the function's and
    it passes the parameter by keyword, by position at or past its index, or
    through * or **.  A method's first parameter, self or cls, takes no
    position."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append((len(node.args), {k.arg for k in node.keywords}, starred))
    found = []
    for module, source in modules.items():
        for stmt in ast.parse(source).body:
            functions = [(stmt, 0)] if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                functions = [
                    (f, 0 if any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list) else 1)
                    for f in stmt.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for function, skip in functions:
                if function.name.startswith("_"):
                    continue
                a = function.args
                positional = (a.posonlyargs + a.args)[skip:]
                defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
                defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for param, index in defaulted:
                    if not any(
                        starred or param in keywords or (index is not None and n_args > index)
                        for n_args, keywords, starred in calls.get(function.name, [])
                    ):
                        found.append((module, function.name, param))
    return found


def test_unset_default_guard_sees_each_form():
    a = "def f(x, by_pos=1, by_key=2, unset=3, *, kw_only=4, kw_unset=5): pass\n"
    a += "def star(y=1): pass\ndef double_star(y=1): pass\ndef g(y=1): pass\ndef _private(y=1): pass\n"
    a += "class C:\n    def m(self, first=1, second=2): pass\n    @staticmethod\n    def s(first=1): pass\n"
    a += "    @classmethod\n    def c(cls, first=1): pass\nclass _P:\n    def m(self, hidden=1): pass\n"
    b = "f(0, 1)\nf(0, by_key=2, kw_only=4)\nstar(*ys)\nobj.double_star(**kw)\nnot_g(y=1)\n"
    b += "C().m(1)\nC.s(1)\nC.c()\n"
    assert unset_defaults({"a.py": a}, [a, b]) == [
        ("a.py", "f", "unset"), ("a.py", "f", "kw_unset"), ("a.py", "g", "y"), ("a.py", "m", "second"), ("a.py", "c", "first"),
    ]


def test_every_default_is_set_by_a_caller():
    # a default only tests set is an option no user reaches: fold it into a constant or delete it
    modules = {p.name: p.read_text() for p in (SRC / "qprim").glob("*.py")}
    perfbench = [p.read_text() for p in (SRC.parent / "perfbench").glob("*.py")]
    assert sorted(unset_defaults(modules, [*modules.values(), *perfbench])) == sorted(UNSET_DEFAULTS)
