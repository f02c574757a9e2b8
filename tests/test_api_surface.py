"""Every public function, class, method and dataclass field of the package
has a reader.

A public name that only the tests reach is API kept alive for its own
tests. This scan parses src/manifold_rbf/*.py and requires each public
top-level function or class, and each public method of a top-level class,
to appear as a word somewhere in the package sources (outside its own def
line and __init__.py, which only re-exports) or in the benchmark. Each
public field of a public dataclass must be read as `.field` somewhere in
the package sources or the benchmark, outside its own declaration line.

The field scan matches names, not owners: a field that shares its name
with a field of another class (PointCloud.seed and RunRecord.seed, say)
counts as read whenever the other one is, so an unread field with a
common name is not caught.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from manifold_rbf import cli
from manifold_rbf.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "manifold_rbf"


def public_definitions(path):
    """(name, line) of every public top-level def/class and public method."""
    tree = ast.parse(path.read_text())
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def _is_dataclass(node):
    return any(getattr(deco.func if isinstance(deco, ast.Call) else deco,
                       "id", None) == "dataclass"
               for deco in node.decorator_list)


def public_fields(path):
    """(class.field, field, line) of every public field of a public
    top-level dataclass."""
    tree = ast.parse(path.read_text())
    return [(f"{node.name}.{item.target.id}", item.target.id, item.lineno)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
            and not node.name.startswith("_") and _is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and not item.target.id.startswith("_")]


def _sources():
    return {path: path.read_text().splitlines()
            for path in sorted(PACKAGE.glob("*.py"))}


def _bench():
    return "\n".join(path.read_text()
                     for path in sorted((ROOT / "bench").glob("*.py")))


def _used(word, bench, sources, path, lineno):
    return word.search(bench) or any(
        word.search(line)
        for other, other_lines in sources.items()
        for k, line in enumerate(other_lines, start=1)
        if (other, k) != (path, lineno))


def test_every_public_name_has_a_caller():
    sources = {path: lines for path, lines in _sources().items()
               if path.name != "__init__.py"}
    bench = _bench()
    unused = []
    for path, lines in sources.items():
        for name, lineno in public_definitions(path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not _used(word, bench, sources, path, lineno):
                unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []


def test_every_public_dataclass_field_is_read():
    sources = _sources()
    bench = _bench()
    unread = []
    for path in sources:
        for label, name, lineno in public_fields(path):
            word = re.compile(rf"\.{re.escape(name)}\b")
            if not _used(word, bench, sources, path, lineno):
                unread.append(f"{path.name}:{lineno} {label}")
    assert unread == []


def literal_string_choices(source):
    """Line of every `choices=` keyword given a literal list or tuple of
    strings."""
    return [node.value.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.keyword) and node.arg == "choices"
            and isinstance(node.value, (ast.List, ast.Tuple))
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.value.elts)]


def test_literal_string_choices_are_caught():
    assert literal_string_choices(
        "f(choices=['a', 'b'])\n"
        "f(choices=('a',))\n"
        "f(choices=[1, 2])\n"
        "f(choices=['LB', *names])\n"
        "f(choices=names)\n") == [1, 2]


def test_cli_choices_come_from_the_modules_that_implement_them():
    # each study choice is listed once, by its module (harness.METHODS,
    # rbf.KERNELS, zoo.SAMPLE_MODES, vector_ops.LAPLACIANS, ...); a copy in
    # the CLI can drift from the list the config is validated against
    assert literal_string_choices((PACKAGE / "cli.py").read_text()) == []


def _workload_config_keys():
    """Every config key a benchmark workload sets, from bench/studies.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_studies", ROOT / "bench" / "studies.py")
    studies = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(studies)
    return {key for workload in studies.WORKLOADS
            for _label, cfg, _study in studies.study_configs(workload, 0)
            for key in cfg}


class _Captured(Exception):
    pass


def _cli_set_fields(monkeypatch):
    """The ExperimentConfig fields that some CLI flag moves off its default:
    spectrum and compare-dm run with every study flag given a non-default
    value, and the configs they would run are captured."""
    configs = []

    def capture(config):
        configs.append(config)
        if len(configs) == 2:      # compare-dm's SRBF study, before its DM one
            return SimpleNamespace(runs=[None])
        raise _Captured

    monkeypatch.setattr(cli, "run_experiment", capture)
    common = ["--manifold", "sphere", "--N", "50", "--seed", "3",
              "--mode", "random_area", "--kernel", "matern", "--s", "2",
              "--pinv-tol", "1e-6", "--density", "KDE", "--Np", "60",
              "--K", "7", "--compare-count", "5"]
    with pytest.raises(_Captured):
        cli.main(["spectrum", *common, "--method", "SRBF",
                  "--operator", "Hodge", "--projection", "FirstOrder"])
    with pytest.raises(_Captured):
        cli.main(["compare-dm", *common, "--dm-K", "9", "--epsilon", "0.3"])
    default = cli._DEFAULTS
    return {f.name for config in configs for f in fields(config)
            if getattr(config, f.name) != getattr(default, f.name)}


def test_every_config_field_is_set_by_a_flag_or_a_workload(monkeypatch):
    # a study knob that neither the command line nor a benchmark workload
    # sets is dead weight that can disagree with the knobs that are set
    known = {f.name for f in fields(ExperimentConfig)}
    set_somewhere = _cli_set_fields(monkeypatch) | _workload_config_keys()
    assert set_somewhere <= known
    assert sorted(known - set_somewhere) == []


def _aliases(tree):
    """Local name -> dotted module or object path of every import."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                root = item.name.split(".")[0]
                alias[item.asname or root] = item.name if item.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for item in node.names:
                alias[item.asname or item.name] = f"{node.module}.{item.name}"
    return alias


def _dotted(node, alias, inner=None):
    """The dotted path an attribute chain reads, import aliases resolved,
    or None when its root is no imported name; records the chain's inner
    attributes in inner."""
    parts = []
    while isinstance(node, ast.Attribute):
        if inner is not None:
            inner.add(node)
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in alias:
        return ".".join([alias[node.id], *reversed(parts)])
    return None


def scipy_linalg_uses(source):
    """(line, dotted name) of every import of scipy.linalg (its lapack and
    blas included) and every name read from it, import aliases resolved;
    `import scipy.linalg` itself is recorded as the bare module."""
    tree = ast.parse(source)
    alias = _aliases(tree)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [item.name for item in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{item.name}" for item in node.names]
        else:
            continue
        uses += [(node.lineno, name) for name in names
                 if name.startswith("scipy.linalg")]
    inner = set()
    for node in ast.walk(tree):    # outer attribute chains come first
        if not isinstance(node, ast.Attribute) or node in inner:
            continue
        full = _dotted(node, alias, inner)
        if full is not None and full.startswith("scipy.linalg."):
            uses.append((node.lineno, full))
    return uses


def test_scipy_linalg_uses_are_caught():
    caught = {name for _line, name in scipy_linalg_uses(
        "import scipy\n"
        "import scipy.linalg as sla\n"
        "from scipy import linalg\n"
        "from scipy.linalg.lapack import dsyevd\n"
        "from scipy.linalg import blas as fblas\n"
        "scipy.linalg.qr(a)\n"
        "sla.eigh(a)\n"
        "linalg.lapack.dgeev(a)\n"
        "fblas.dgemm(1.0, a, a)\n"
        "import scipy.sparse.linalg\n"
        "scipy.sparse.linalg.eigsh(a)\n")}
    assert caught == {
        "scipy.linalg", "scipy.linalg.lapack.dsyevd", "scipy.linalg.blas",
        "scipy.linalg.qr", "scipy.linalg.eigh", "scipy.linalg.lapack.dgeev",
        "scipy.linalg.blas.dgemm"}


def test_dense_lapack_goes_through_numpy_only():
    """Every dense factorisation of the package goes through numpy.linalg.

    numpy and scipy each bundle their own OpenBLAS, each with its own
    thread pool, and the idle workers of a pool spin for a while after each
    call. The matmuls run on numpy's pool; a LAPACK call from scipy.linalg
    in between wakes the second pool, and the busy threads of both then
    share the cores. On two cores with two BLAS threads, moving the dense
    factorisations from scipy.linalg to numpy.linalg halved the wall time
    of the sphere-hodge benchmark, and its pure-numpy layers sped up too.
    So there must be one BLAS pool: no scipy.linalg name (its lapack and
    blas modules included) may appear anywhere in the package.
    """
    offences = [f"{path.name}:{line} {name}"
                for path in sorted(PACKAGE.rglob("*.py"))
                for line, name in scipy_linalg_uses(path.read_text())]
    assert offences == []


def scipy_modules_loaded(code):
    """The scipy modules a fresh interpreter holds after running code."""
    probe = (f"import sys, json\n{code}\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'scipy')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


TORUS_LB = ("Torus(2.0), N_list=[150], projection='SecondOrder', "
            "density='KDE', compare_count=4")
# the SRBF Hodge spectrum resolves the sphere's l = 1 cluster from N = 400
SPHERE_HODGE = ("Sphere(), N_list=[400], operator='Hodge', "
                "sample_mode='random_area', compare_count=6, "
                "kernel=KernelModel('inverse_quadratic', 0.5)")


def study(method, setup=TORUS_LB):
    return ("from manifold_rbf import KernelModel, Sphere, Torus, "
            "run_experiment\n"
            "from manifold_rbf.harness import ExperimentConfig\n"
            "run_experiment(ExperimentConfig(\n"
            f"    manifold={setup}, method={method!r}))")


def test_the_package_loads_scipy_only_for_the_dm_graph():
    """No scipy on the import path: the RBF stages run on numpy alone.

    scipy.spatial (for cdist and the KD-tree) and scipy.sparse made the
    bare import take 0.40-0.46 s and 70 MiB RSS on two cores, against
    0.08-0.14 s and 29 MiB without them. Only the DM graph loads
    scipy.sparse, inside the functions that use it: a vector study, of
    either form, moves its fields between frame and ambient coordinates
    with spectral.lift, not a sparse range basis.
    """
    assert scipy_modules_loaded(
        "import manifold_rbf\nimport manifold_rbf.cli") == []
    assert scipy_modules_loaded(study("SRBF")) == []
    for method in ("SRBF", "NRBF"):
        assert scipy_modules_loaded(study(method, SPHERE_HODGE)) == []
    assert "scipy.sparse" in scipy_modules_loaded(study("DM"))


def call_sites(source, target):
    """(function, guards) of every call of the dotted name target, import
    aliases resolved: the enclosing top-level function and the conditions
    of the if branches around the call, an else branch as `not (test)`."""
    tree = ast.parse(source)
    alias = _aliases(tree)
    sites = []

    def visit(node, function, guards):
        if isinstance(node, ast.Call) and \
                _dotted(node.func, alias) == target:
            sites.append((function, guards))
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, function, guards)
            for child in node.body:
                visit(child, function, guards + (test,))
            for child in node.orelse:
                visit(child, function, guards + (f"not ({test})",))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, guards)

    for node in tree.body:
        name = node.name if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, name, ())
    return sites


def test_call_sites_carry_their_branch():
    sites = call_sites(
        "import numpy\n"
        "from numpy import linalg as la\n"
        "def f(a, b):\n"
        "    if a:\n"
        "        numpy.linalg.qr(b)\n"
        "    elif b:\n"
        "        la.qr(a)\n"
        "    numpy.linalg.qr\n", "numpy.linalg.qr")
    assert sites == [("f", ("a",)), ("f", ("not (a)", "b"))]


# The only Householder QRs of the package. Scalar SRBF pencils are reduced
# by a Cholesky factor of U^T Q U (several times faster than numpy's QR on
# tall matrices); only vector pencils, whose factor is close to
# rank-deficient, and the non-symmetric solve take one, a raw QR whose
# reflectors spectral._householder keeps, and so do the analytic frames.
HOUSEHOLDER_QR_SITES = {
    ("spectral.py", "solve_symmetric", ("not (scalar)",)),
    ("spectral.py", "solve_nonsymmetric", ()),
    ("zoo.py", "analytic_projection", ()),
}


def test_householder_qr_sites_are_pinned():
    sites = [(path.name, function, guards)
             for path in sorted(PACKAGE.rglob("*.py"))
             for function, guards in call_sites(path.read_text(),
                                                "numpy.linalg.qr")]
    assert sorted(sites) == sorted(HOUSEHOLDER_QR_SITES)


# The only callers of the whole derivative factors G_a, both on an NRBF
# branch: every SRBF form and the covariant derivative consume the row
# blocks of rbf.derivative_blocks as they come. A form that drifted back to
# whole factors would add a site here.
WHOLE_FACTOR_SITES = {
    ("harness.py", "_solve_rbf", ("config.method == 'NRBF'",)),
    ("vector_ops.py", "_laplacian", ("method == 'NRBF'",)),
}
# The only consumers of rbf.derivative_blocks, the one producer of the
# interpolant's derivatives: the SRBF block loop, the NRBF gather and the
# streamed covariant derivative.
DERIVATIVE_SITES = {
    ("scalar_ops.py", "_weak_form", ()),
    ("scalar_ops.py", "build_grad_matrices", ()),
    ("vector_ops.py", "covariant_derivative", ()),
}


def test_whole_factor_sites_are_pinned():
    for target, pinned in (("scalar_ops.build_grad_matrices",
                            WHOLE_FACTOR_SITES),
                           ("rbf.derivative_blocks", DERIVATIVE_SITES)):
        sites = [(path.name, function, guards)
                 for path in sorted(PACKAGE.rglob("*.py"))
                 for function, guards in call_sites(path.read_text(),
                                                    target)]
        assert sorted(sites) == sorted(pinned), target


def files_opened_for_writing(source):
    """Enclosing top-level function or class of every open() call given a
    literal writing mode."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and \
                    set(mode.value) & set("wax+"):
                out.append(getattr(top, "name", None))
    return out


# Every table of the package is written by spectral.write_table, the one
# np.savetxt call; the only other files written are the JSON run log and
# report of Report.write. A table written by hand elsewhere would need a
# second np.savetxt or a file opened for writing.
TABLE_WRITER_SITES = {("spectral.py", "write_table", ())}
WRITTEN_FILE_SITES = [("harness.py", "Report"), ("harness.py", "Report")]


def test_tables_are_written_by_write_table_only():
    assert files_opened_for_writing(
        "def f(p):\n"
        "    open(p, 'w')\n"
        "    open(p)\n"
        "    open(p, mode='a')\n"
        "class C:\n"
        "    def g(self, p):\n"
        "        open(p, 'r+')\n") == ["f", "f", "C"]
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.rglob("*.py"))}
    savetxt = {(name, function, guards)
               for name, source in sources.items()
               for function, guards in call_sites(source, "numpy.savetxt")}
    assert savetxt == TABLE_WRITER_SITES
    assert sum(source.count("savetxt") for source in sources.values()) == 1
    written = [(name, function) for name, source in sources.items()
               for function in files_opened_for_writing(source)]
    assert sorted(written) == WRITTEN_FILE_SITES
