"""The budget table, `tools/budgets.py`: every documented cap has a run at it and past it.

Each module-level MAX_* constant of src/ordsum is a cap.  The table is
loaded from its file and only read; the runs past a cap and the two
stream rows are quick, so they run here too, while the runs at a cap
take about 20 s and run in CI.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import ordsum

ROOT = Path(__file__).parents[1]
SRC = Path(ordsum.__file__).parent


def _load():
    spec = importlib.util.spec_from_file_location("budgets", ROOT / "tools" / "budgets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


budgets = _load()
# "module.MAX_NAME" of every module-level MAX_* assignment in the package
CAPS = sorted(
    f"{path.stem}.{target.id}"
    for path in SRC.glob("*.py")
    for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)
    for target in node.targets if isinstance(target, ast.Name) and target.id.startswith("MAX_")
)


def test_the_package_has_its_caps():
    assert len(CAPS) >= 8, CAPS


@pytest.mark.parametrize("cap", CAPS)
def test_every_cap_has_a_row_at_it_and_one_past_it(cap):
    codes = {row.code for row in budgets.ROWS if row.constant == cap}
    assert {0, 3} <= codes, f"{cap} needs a row at the cap (exit 0) and one past it (exit 3)"


def test_every_row_names_a_cap_or_a_stream():
    assert {row.constant for row in budgets.ROWS} - {None} <= set(CAPS)
    assert all(row.stdout for row in budgets.ROWS if row.constant is None)


@pytest.mark.parametrize("cap", CAPS)
def test_every_cap_is_named_in_the_readme(cap):
    assert f"`{cap.partition('.')[2]}`" in (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_runner_imports_only_the_standard_library_and_the_package():
    tree = ast.parse((ROOT / "tools" / "budgets.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported - set(sys.stdlib_module_names) == {"ordsum"}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(SRC.parent))
    for name, text in budgets.files().items():
        Path(name).write_text(text)


# each row but the runs at a cap, which CI runs; and two rows that must fail:
# one over an RSS bound, one that expects the wrong exit code
QUICK = [row for row in budgets.ROWS if row.code != 0 or row.stdout]
BROKEN = [budgets.Row(None, "from-lo omega 3", 0, 1), budgets.Row(None, "roundtrip omega 21", 0)]


@pytest.mark.parametrize("row", QUICK + BROKEN, ids=lambda row: row.words[:50])
def test_the_runner_passes_a_row_exactly_when_it_keeps_its_contract(inputs, row):
    verdict, seconds, mb = budgets.run(row)
    assert (verdict == "ok") == (row in QUICK), verdict
    assert 0 < seconds < budgets.TIMEOUT_S and mb > 1
