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


# runs one command in a fresh interpreter, then names the ordsum modules it loaded
LOADED_BY = """
import sys
from ordsum.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.startswith("ordsum."))), file=sys.stderr)
sys.exit(code)
"""

FILES = {
    "finite.tnorm": "piece 1/4 1/2 P\npiece 1/2 3/4 L",
    "cantor.tnorm": "family cantor cantor:svc",
    "theta.tnorm": "family theta omega",
    "ladder.tnorm": "family limit-left",
}
BASE = {"cli", "presentations", "rationals", "tnorm"}

COMMANDS = [
    ("eval finite.tnorm 1/3 2/5", BASE),
    ("axioms finite.tnorm", BASE),
    ("surface finite.tnorm 3", BASE),
    ("signature finite.tnorm", BASE | {"signature"}),
    ("iso finite.tnorm finite.tnorm", BASE | {"iso", "signature"}),
    ("theta finite.tnorm 4", BASE | {"l1", "signature"}),
    ("eval cantor.tnorm 1/3 2/5", BASE | {"cantor"}),
    ("eval theta.tnorm 1/3 2/5", BASE | {"orders"}),
    ("eval ladder.tnorm 1/3 2/5", BASE | {"families"}),
    ("from-lo omega 3", BASE | {"orders"}),
    ("cantor cantor:svc 2", BASE | {"cantor"}),
    ("roundtrip omega 3", BASE | {"l1", "orders", "signature"}),
]


def _run_command(tmp_path, command, script, *flags):
    """Run `script` on one command in a fresh interpreter; its stderr, split."""
    for name, body in FILES.items():
        (tmp_path / name).write_text(f"tnorm v1\n{body}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ordsum.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *command.split()],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return done.stderr.split()


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_loads_only_what_it_runs(tmp_path, command, expected):
    loaded = _run_command(tmp_path, command, LOADED_BY)
    assert loaded == sorted(f"ordsum.{name}" for name in expected)


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
    assert _run_command(tmp_path, command, HEAVY_LOADED_BY, "-S") == []
