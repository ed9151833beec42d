"""Package surface: every exported name resolves and is used, every import in
the package and its tests is used, and each command loads only what it runs."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ordsum

MODULES = sorted(info.name for info in pkgutil.iter_modules(ordsum.__path__))
SRC = Path(ordsum.__file__).parent
TESTS = Path(__file__).parent
# the source of each package module by name, and of each test file by "tests/<stem>"
SOURCES = {name: SRC / f"{name}.py" for name in MODULES}
SOURCES.update((f"tests/{path.stem}", path) for path in sorted(TESTS.glob("*.py")))
PERFBENCH = Path(__file__).parents[1] / "perfbench"

# Exported names that no module or benchmark calls, kept because the
# paper's reduction is stated in their terms.
PAPER_API = (
    ("l1_iso_finite", "isomorphism of finite index structures, the reduction's target side"),
    ("subbasis_predicates", "the predicates V, U, W that define the index structure"),
    ("agreement_ball_check", "continuity of the order encoding: close orders give close t-norms"),
    ("format_presentation", "writes the presentation files that load_presentation reads"),
)

# (module, function): why it asks which kind of presentation it holds.
# Everywhere else a finite presentation answers the lazy calls itself
# (`tnorm.TNorm`), so a new kind branch needs a reason here.
KIND_BRANCHES = {
    ("cli", "_check_pieces"): "the piece cap bounds only lazy work",
    ("iso", "decide_iso_lazy"): "a finite side against a lazy one is a CardinalityMismatch",
    ("presentations", "format_presentation"): "a file lists a finite presentation's "
    "pieces and names a lazy one's family",
    ("signature", "compute_signature"): "the kind makes a signature complete; asking "
    "the tail bound instead would walk a Cantor rule's gaps again",
}

# function of cli.py: why it may name `print` or `sys.stdout`.  Every
# command returns its exit code and its texts, so one place writes them.
STDOUT_WRITERS = {
    "main": "writes every command's texts, and prints its errors to stderr",
    "_parse": "writes the help",
}


def _tree(name):
    return ast.parse(SOURCES[name].read_text())


def _exported(name):
    return getattr(importlib.import_module(f"ordsum.{name}"), "__all__", ())


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ordsum.{name}")
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"ordsum.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize("name", SOURCES)
def test_no_unused_imports(name):
    tree = _tree(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(name) if name in MODULES else ()
    unused = sorted(imported - used - set(exported))
    assert not unused, f"{name} imports unused names {unused}"


def _references():
    """Every (module, name) of an ast Name or attribute in src/ordsum, with the
    top-level names whose definition encloses it."""
    refs = []
    for name in MODULES:
        for statement in _tree(name).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                owners = {statement.name}
            elif isinstance(statement, ast.Assign):
                owners = {t.id for t in statement.targets if isinstance(t, ast.Name)}
            else:
                owners = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    refs.append((name, node.id, owners))
                elif isinstance(node, ast.Attribute):
                    refs.append((name, node.attr, owners))
    return refs


def test_exported_names_are_used():
    refs = _references()
    benchmark = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))
    exempt = {name for name, _reason in PAPER_API}
    assert exempt <= {attr for module in MODULES for attr in _exported(module)}
    unused = []
    for module in MODULES:
        for attr in _exported(module):
            if attr in exempt or re.search(rf"\b{attr}\b", benchmark):
                continue
            if not any(
                used == attr and not (where == module and attr in owners)
                for where, used, owners in refs
            ):
                unused.append(f"{module}.{attr}")
    assert not unused, f"exported but used by no module or benchmark: {unused}"


def _kind_tests(node, module, function=""):
    """(module, qualified function) of each isinstance or issubclass call on a
    presentation class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{function}.{child.name}" if function else child.name
            yield from _kind_tests(child, module, inner)
            continue
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                and child.func.id in ("isinstance", "issubclass") and len(child.args) == 2):
            named = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(child.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & {"PieceGenerator", "FinitePresentation"}:
                yield module, function
        yield from _kind_tests(child, module, function)


def test_presentation_kinds_are_told_apart_only_where_listed():
    found = {site for name in MODULES for site in _kind_tests(_tree(name), name)}
    assert found == set(KIND_BRANCHES), (
        f"unlisted kind branches {sorted(found - set(KIND_BRANCHES))}, "
        f"listed but gone {sorted(set(KIND_BRANCHES) - found)}"
    )


def test_only_main_and_parse_write_stdout():
    found = set()
    for statement in _tree("cli").body:
        for node in ast.walk(statement):
            if (isinstance(node, ast.Name) and node.id in ("print", "stdout")
                    or isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__")):
                found.add(getattr(statement, "name", "<module level>"))
    assert found == set(STDOUT_WRITERS), (
        f"unlisted stdout writers {sorted(found - set(STDOUT_WRITERS))}, "
        f"listed but gone {sorted(set(STDOUT_WRITERS) - found)}"
    )


# traced methods deleted from the package, with why: the benchmark's
# tracer skips a method it finds on no class, so the layer reads 0, but
# it fails on a module-level name it cannot find
GONE_LAYERS = {
    "orders.certified_m_gaps": "a view of `entries` that no command, benchmark "
    "operation or acceptance test called",
}


def test_traced_layers_name_live_code(monkeypatch):
    # the benchmark's tracer wraps a `module:Class` layer on each class of
    # the subclass tree that defines it, and skips the others silently
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("tracing").LAYERS
    for name in MODULES:
        importlib.import_module(f"ordsum.{name}")
    dead = []
    for span, spec, attr in layers:
        module_name, _, class_name = spec.partition(":")
        target = getattr(importlib.import_module(module_name), class_name or attr, None)
        if not class_name:
            live = callable(target)
        else:
            tree, live = ([target] if target else []), False
            while tree and not live:
                cls = tree.pop()
                method = vars(cls).get(attr)
                live = method is not None and not getattr(method, "__isabstractmethod__", False)
                tree.extend(cls.__subclasses__())
        if not live:
            dead.append(span)
            assert class_name, f"the tracer fails on the missing function of {span}"
    assert sorted(dead) == sorted(GONE_LAYERS), f"traced layers with no code to wrap: {dead}"


# what a number is, decided anywhere but in tnorm.parse_natural
NUMBER_TESTS = ("isdigit", "isdecimal", "isnumeric")


def test_one_reader_decides_what_a_number_is():
    found = []
    for name in MODULES:
        for statement in _tree(name).body:
            if (name, getattr(statement, "name", "")) == ("tnorm", "parse_natural"):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) and node.attr in NUMBER_TESTS:
                    found.append(f"{name}:{node.lineno} .{node.attr}")
                elif isinstance(node, ast.Import) and any(a.name == "re" for a in node.names):
                    found.append(f"{name}:{node.lineno} import re")
                elif isinstance(node, ast.ImportFrom) and node.module == "re":
                    found.append(f"{name}:{node.lineno} from re import")
    assert not found, f"numbers read outside tnorm.parse_natural: {found}"


def test_label_is_shared():
    from ordsum.signature import Label as SignatureLabel
    from ordsum.tnorm import Label

    assert SignatureLabel is Label


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


FILES = {
    "finite.tnorm": "piece 1/4 1/2 P\npiece 1/2 3/4 L",
    "cantor.tnorm": "family cantor cantor:svc",
    "theta.tnorm": "family theta omega",
    "ladder.tnorm": "family limit-left",
    "eta.tnorm": "family theta eta",
}
# `main` maps tnorm's PreconditionError to exit 3; only code that indexes
# rationals, `l1` and eta orders, loads `rationals`
BASE = {"tnorm"}
READS_FILE = BASE | {"presentations"}

COMMANDS = [
    ("eval finite.tnorm 1/3 2/5", READS_FILE),
    ("axioms finite.tnorm", READS_FILE),
    ("surface finite.tnorm 3", READS_FILE),
    ("signature finite.tnorm", READS_FILE | {"signature"}),
    ("iso finite.tnorm finite.tnorm", READS_FILE | {"iso", "signature"}),
    ("theta finite.tnorm 4", READS_FILE | {"l1", "rationals", "signature"}),
    ("eval cantor.tnorm 1/3 2/5", READS_FILE | {"cantor"}),
    ("eval theta.tnorm 1/3 2/5", READS_FILE | {"orders"}),
    ("eval eta.tnorm 1/3 2/5", READS_FILE | {"orders", "rationals"}),
    ("eval ladder.tnorm 1/3 2/5", READS_FILE | {"families"}),
    ("from-lo omega 3", BASE | {"orders"}),
    ("from-lo eta 3", BASE | {"orders", "rationals"}),
    ("cantor cantor:svc 2", BASE | {"cantor"}),
    ("roundtrip omega 3", BASE | {"l1", "orders", "rationals", "signature"}),
]


def _run(tmp_path, *args):
    """Run the interpreter with `args` in a directory holding FILES; its stderr."""
    for name, body in FILES.items():
        (tmp_path / name).write_text(f"tnorm v1\n{body}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ordsum.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr
    return done.stderr


def _imported(tmp_path, *args):
    """The modules that `python -X importtime ARGS` imports, from its report."""
    report = _run(tmp_path, "-X", "importtime", *args).splitlines()
    return {line.rpartition("|")[2].strip() for line in report if line.startswith("import time:")}


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_loads_only_what_it_runs(tmp_path, command, expected):
    # `python -m ordsum.cli` is how the benchmark runs a command; the
    # command module itself runs as __main__
    loaded = _imported(tmp_path, "-m", "ordsum.cli", *command.split())
    loaded -= _imported(tmp_path, "-c", "pass")
    assert "argparse" not in loaded
    ours = sorted(m for m in loaded if m.startswith("ordsum."))
    assert ours == sorted(f"ordsum.{name}" for name in expected)


# standard modules that cost a command start-up time and do no work for it
STARTUP_HEAVY = {"dataclasses", "inspect", "pathlib", "typing"}


@pytest.mark.parametrize("name", MODULES)
def test_no_startup_heavy_imports(name):
    imported = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & STARTUP_HEAVY, f"ordsum.{name} imports {imported & STARTUP_HEAVY}"


# runs one command, then names the modules of STARTUP_HEAVY it left loaded
HEAVY_LOADED_BY = f"""
import sys
from ordsum.cli import main
code = main(sys.argv[1:])
print(*sorted(sys.modules.keys() & {sorted(STARTUP_HEAVY)}), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", [c for c, _ in COMMANDS])
def test_command_loads_no_startup_heavy_module(tmp_path, command):
    # -S skips site, so no .pth file can load one of them before ordsum does
    assert _run(tmp_path, "-S", "-c", HEAVY_LOADED_BY, *command.split()).split() == []
