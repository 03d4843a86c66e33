"""The CLI traffic, run in a fresh interpreter: pinned stdout, a guard
that every function it never enters is kept on purpose, and the modules
that each kind of call loads.  Beside them, the guards that no test is
written twice and that no test writes one block twice.

Each test runs its calls in-process inside one new subprocess, so no other
test's caches or patches can leak in, and no call pays for interpreter
start-up.
"""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAMILIES = (
    "standard-unordered", "standard-ordered", "virtual-unordered",
    "virtual-unordered-raw", "virtual-ordered",
)
BETTI_TABLES = [
    f"--space {space} --kind {kind} --format {fmt}"
    for space in ("ordered", "unordered")
    for kind in ("standard", "virtual")
    for fmt in ("csv", "json", "latex")
]

# run(call) -> (exit code, stdout) of one ``cli.main`` call
RUN = """
import contextlib, io
from confpoly import cli

def run(call):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(call.split())
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, out.getvalue()
"""


def run_fresh(script, calls):
    """The JSON that ``script``, with ``calls`` as its JSON argument, prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# SHA-256 of "<exit code>\n<stdout>" of each call, computed before the
# duality, ring and ffield surface that no call reaches was deleted
PINNED = {
    "verify --suite all": "0e4f9850b55c7f6b920925cae7f9f1302d96fe628acac7e6c572f2a80abfa09e",
    "verify pointcount": "68584648e5ac452ecfc9addb3898a7c99f493e5c2c096f2afebbfc4860cb3ce1",
    "verify recursions": "270d7ce4d2ff561372d8d095a9b2f063d950057e159b017711a1fcd75ebb5978",
    "verify series --max-k 16 --max-n 32":
        "d941e358a0f721e35f81a4f14e08900335bf8a157ba27f72f0ee7f28930a86a0",
    "verify duality --max-k 16 --max-n 32":
        "795fd9a1798a0c756e8d1436998fe4f95c6be4ccb9101d45d1efcc5b0e641227",
    "verify euler --max-k 16 --max-n 32":
        "2b6fdefbf07a3ea5ccfac49612611730b61f2ea488f56c1a76d21f68e9a94de1",
    "series --family standard-unordered -k 0 --order 64":
        "6fa0670e32cf6451ea41a7c284b571186c19334720f0bb791c9c9a032a769161",
    "series --family standard-unordered -k 5 --order 64":
        "48a5765e9d57e96a3e902a3c54c777a9a3557fd8531c2c2f2960d66fd44330c0",
    "series --family standard-unordered -k 32 --order 64":
        "466a7f8954d901f4fda62e78c864588c221f37c4922a25f56474c444f4a1178d",
    "series --family standard-ordered -k 0 --order 64":
        "282d20e829fd4f955c1942947e97b4fc16b0851b5994c00333ab2758f17ed104",
    "series --family standard-ordered -k 5 --order 64":
        "460523e963f66bb65a25b23cd340a3e24b5ecad9e51d0c5be41ad22b945d1a09",
    "series --family standard-ordered -k 32 --order 64":
        "94c113d947274122f50b8a62a2d0798b6774b7427599dcabdabdc986109b8f6a",
    "series --family virtual-unordered -k 0 --order 64":
        "5c4a28c76a671de807b980e029f3f28cbf28c12f766167bd8ef4caf0405cae15",
    "series --family virtual-unordered -k 5 --order 64":
        "c4608c02c6cd977e5e6627722dfa32aedf744eff017e16916db36b595d3922dd",
    "series --family virtual-unordered -k 32 --order 64":
        "9dc589995a35d18f3a00c035062c4c514b7d9bee1493393e975badd22701da0a",
    "series --family virtual-unordered-raw -k 0 --order 64":
        "5c4a28c76a671de807b980e029f3f28cbf28c12f766167bd8ef4caf0405cae15",
    "series --family virtual-unordered-raw -k 5 --order 64":
        "c4608c02c6cd977e5e6627722dfa32aedf744eff017e16916db36b595d3922dd",
    "series --family virtual-unordered-raw -k 32 --order 64":
        "9dc589995a35d18f3a00c035062c4c514b7d9bee1493393e975badd22701da0a",
    "series --family virtual-ordered -k 0 --order 64":
        "c55f827a1ed49369bd4f55eada7af30cf608a0002e537e792a63bfb1768a1c09",
    "series --family virtual-ordered -k 5 --order 64":
        "5d69debe1385c628b8a086a6a59bc013362579fd5c39d9b24f9d9d3d4c65c749",
    "series --family virtual-ordered -k 32 --order 64":
        "8cf682c6144f1db10703693f533df54f8fa48b12a9d4e2fb8ee888660618306f",
    "table betti --space ordered --kind standard -k 32 --max-n 64 --format csv":
        "75969ab36c5a283afe4dd457f28be97b4de00d32898abc0a60c265529748fb26",
    "table betti --space ordered --kind standard -k 32 --max-n 64 --format json":
        "88ba8b377a3c7a3763ebed5a2f0dd2ab29c4cbb54ed8f6cb0085a29a3da22ff5",
    "table betti --space ordered --kind standard -k 32 --max-n 64 --format latex":
        "69d81febf7e6858c13072fe7d25e8f3cf8b281520decff72a8d56f0af49555b7",
    "table betti --space ordered --kind virtual -k 32 --max-n 64 --format csv":
        "8cf682c6144f1db10703693f533df54f8fa48b12a9d4e2fb8ee888660618306f",
    "table betti --space ordered --kind virtual -k 32 --max-n 64 --format json":
        "a89f07fbc04e963b06991edaf0f7e7679fd753132f56f64ae4f3eb8a242fb9ba",
    "table betti --space ordered --kind virtual -k 32 --max-n 64 --format latex":
        "75b14ac887d1d4f9b2c95e60d989db4233921b73d5e1e384a9c1336625606e62",
    "table betti --space unordered --kind standard -k 32 --max-n 64 --format csv":
        "df8464b34bd3e07349d2cb0695099833053cd6d924d2cd653b11a14111c487dd",
    "table betti --space unordered --kind standard -k 32 --max-n 64 --format json":
        "e052254459d3241cb4b558a07f8991ce8cd365aab35ac9ed177a98294a74cc63",
    "table betti --space unordered --kind standard -k 32 --max-n 64 --format latex":
        "57e62fa7bf23ae1fdc7e7129166f55d55e74c5e65c662ffb9e993a2a0bc5046d",
    "table betti --space unordered --kind virtual -k 32 --max-n 64 --format csv":
        "9dc589995a35d18f3a00c035062c4c514b7d9bee1493393e975badd22701da0a",
    "table betti --space unordered --kind virtual -k 32 --max-n 64 --format json":
        "f6b07a3abaaf197a1687cbbc19b5480090c92116e244109fdf89a8a366e4d131",
    "table betti --space unordered --kind virtual -k 32 --max-n 64 --format latex":
        "10125570efe055b092c8f20d1ba84ab316fef2cc50664e84a2bc885dc2f6418b",
    "table pyramidal --max-k 32 --max-i 64 --format csv":
        "428a756e3e6606aad8293c15d0ebc00bb4e7c9e67bb196c2858852737ff007a9",
    "table pyramidal --max-k 32 --max-i 64 --format latex":
        "112462933a3fdc9791ad9edada213b64a62a6aaa6c2e2fb583e2ccfd43e950cf",
    "verify pointcount --max-n 12 --primes 5":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "table betti -k 33 --max-n 1":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
}


def test_pinned_stdout():
    script = RUN + """
import hashlib, json, sys
digests = {}
for call in json.loads(sys.argv[1]):
    code, out = run(call)
    digests[call] = hashlib.sha256(f"{code}\\n{out}".encode()).hexdigest()
print(json.dumps(digests))
"""
    digests = run_fresh(script, list(PINNED))
    changed = [call for call in PINNED if digests[call] != PINNED[call]]
    assert not changed, f"stdout or exit code changed: {changed}"


# the modules that a table or series call must not load, and which of them
# are loaded after each call, the calls made in this order in one process
HEAVY = ("confpoly.ffield", "confpoly.kronecker", "confpoly.verify", "dataclasses", "json")
FOOTPRINT = {
    "series --family virtual-unordered -k 3 --order 4": [],
    "table betti -k 2 --max-n 3 --format csv": [],
    "table betti --kind virtual -k 2 --max-n 3 --format latex": [],
    # the CLI writes the JSON table itself
    "table betti -k 2 --max-n 3 --format json": [],
    # the scope checks its primes against the field policy in the package,
    # and the Kronecker chain is loaded when series runs
    "verify duality --max-k 1 --max-n 2": ["confpoly.verify"],
    "verify euler --max-k 1 --max-n 2": ["confpoly.verify"],
    "verify recursions --max-k 1 --max-n 2": ["confpoly.verify"],
    "verify series --max-k 1 --max-n 2": ["confpoly.kronecker", "confpoly.verify"],
    # the oracle is loaded when pointcount runs
    "verify pointcount --max-n 1 --primes 2": [
        "confpoly.ffield", "confpoly.kronecker", "confpoly.verify",
    ],
}


def test_import_footprint():
    # json is imported for the reply alone, after the last call, so the
    # calls are read as a Python literal
    script = f"import ast, sys\nHEAVY = {HEAVY!r}\n" + """
def heavy():
    return [name for name in HEAVY if name in sys.modules]
""" + RUN + """
loaded = {"import confpoly.cli": heavy()}
for call in ast.literal_eval(sys.argv[1]):
    assert run(call)[0] == 0, call
    loaded[call] = heavy()
import json
print(json.dumps(loaded))
"""
    assert run_fresh(script, list(FOOTPRINT)) == {"import confpoly.cli": [], **FOOTPRINT}
    sources = (ROOT / "src").rglob("*.py")
    assert not [path.name for path in sources if "dataclass" in path.read_text()]


# a small set of calls that reaches every suite, series family and table format
TRAFFIC = [
    "verify --suite all --max-k 2 --max-n 3 --primes 2,3",
    "verify duality -k 1 --max-n 2",
    *(f"series --family {family} -k 2 --order 3" for family in FAMILIES),
    *(f"table betti -k 2 --max-n 3 {options}" for options in BETTI_TABLES),
    "table pyramidal --format csv",
    "table pyramidal --format latex",
]

# every function and method of src/confpoly that TRAFFIC never enters, and
# why it stays
KEEP = {
    "ffield.FieldPoly.__divmod__": "perfbench tracer target",
    "ffield.FieldPoly.gcd": "perfbench tracer target",
    "ffield.is_squarefree": "perfbench tracer target; the reference squarefree test",
    "ffield.monic_polys": "perfbench tracer target; the reference tests' enumeration order",
    "virtual.virtual_unordered": "perfbench tracer target; criterion 1 calls it",
    "ffield.FieldPoly.evaluate": "reference route for the smallest-root table",
    "ffield._monic_at": "failure path: names a squarefree disagreement",
    "ffield.FieldPoly.__init__": "failure path: _monic_at builds the offender",
    "ffield.PrimeField.__new__": "failure path: the offender's field",
    "ffield.PrimeField._make": "failure path: PrimeField(q) checks q through it",
    "ffield.FieldPoly.__repr__": "failure path: the offender in a FAIL detail",
    "verify._crashed": "failure path: a cell or a k that raised",
    "kronecker.decode": "failure path: a Kronecker int in a FAIL detail",
    "poincare.napolitano_step": "criterion 3 iterates it; the ring side of the chain",
    "ring.TruncSeries.inverse": "perfbench tracer target",
    "ring.LaurentPoly.__mul__": "perfbench tracer target; the ring-axiom tests use it",
    "ring.LaurentPoly.__add__": "perfbench tracer target; the ring-axiom tests use it",
    "ring.TruncSeries.order": "napolitano_step reads it",
    "ffield.clear_caches": "the oracle tests empty the tables after patching what builds them",
    "ffield.FieldPoly.__eq__": "value dunder",
    "ffield.FieldPoly.__hash__": "value dunder",
    "ring.LaurentPoly.__hash__": "value dunder",
    "ring.LaurentPoly.__repr__": "value dunder",
    "ring.TruncSeries.__eq__": "value dunder",
    "ring.TruncSeries.__hash__": "value dunder",
    "ring.TruncSeries.__repr__": "value dunder",
    "ring.TruncSeries.__str__": "value dunder",
}


def test_unreached_code_is_kept_on_purpose():
    # the profiler is on before confpoly is imported, so what runs at import
    # counts as reached; NamedTuple-generated methods live in no source file
    script = """
import sys
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
""" + RUN + """
import importlib, inspect, json, pkgutil
from pathlib import Path
import confpoly
for call in json.loads(sys.argv[1]):
    assert run(call)[0] == 0, call
sys.setprofile(None)

package = Path(confpoly.__file__).parent
functions = {}
for info in pkgutil.iter_modules([str(package)]):
    module = importlib.import_module(f"confpoly.{info.name}")
    for value in vars(module).values():
        members = [value]
        if inspect.isclass(value):
            members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(value).values()]
        for fn in map(inspect.unwrap, members):
            code = getattr(fn, "__code__", None)
            if code and Path(code.co_filename).parent == package:
                name = f"{fn.__module__.removeprefix('confpoly.')}.{fn.__qualname__}"
                functions[name] = code
print(json.dumps(sorted(name for name, code in functions.items() if code not in entered)))
"""
    unreached = set(run_fresh(script, TRAFFIC))
    unkept, stale = sorted(unreached - KEEP.keys()), sorted(KEEP.keys() - unreached)
    assert not unkept and not stale, (
        f"never entered and not kept: {unkept}; kept but entered or gone: {stale}"
    )


class _Blanked(ast.NodeTransformer):
    """Every literal, and every list or tuple of literals, as one placeholder
    that no name in a source file can equal."""

    def visit_Constant(self, node):
        return ast.Name("<literal>", ast.Load())

    def visit_List(self, node):
        self.generic_visit(node)
        if all(isinstance(e, ast.Name) and e.id == "<literal>" for e in node.elts):
            return ast.Name("<literal>", ast.Load())
        return node

    visit_Tuple = visit_List


def test_no_two_tests_differ_only_in_literals():
    # ROADMAP aim 2: no test is implemented twice; cases that differ only
    # in data are one parametrized test
    bodies = collections.defaultdict(list)
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                body = _Blanked().visit(ast.Module(node.body, []))
                bodies[ast.dump(body)].append(f"{path.name}::{node.name}")
    copies = [names for names in bodies.values() if len(names) > 1]
    assert not copies, f"one parametrized test for each of: {copies}"


class _Shape(_Blanked):
    """Every name and attribute, too, as the placeholder of a literal."""

    visit_Name = visit_Attribute = _Blanked.visit_Constant


# the ast.dump size, blanked, above which a block written twice in one test
# is a copy; below it are the one- and two-line statements any test repeats
BLOCK_SIZE = 400


def test_no_test_repeats_a_block():
    # ROADMAP aim 2 inside one test: the same block twice is one loop over
    # a table of what differs
    repeats = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tests = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
        ]
        for test in tests:
            lines = collections.defaultdict(list)
            for statement in _Shape().visit(ast.Module(test.body, [])).body:
                for block in ast.walk(statement):
                    if isinstance(block, (ast.With, ast.For, ast.If, ast.FunctionDef)):
                        lines[ast.dump(block)].append(block.lineno)
            repeats += [
                f"{path.name}::{test.name} lines {at}"
                for dump, at in lines.items() if len(at) > 1 and len(dump) > BLOCK_SIZE
            ]
    assert not repeats, f"one loop over a table for each of: {repeats}"
