"""Reach: every function and method of the package runs on some real input.

`test_exported_names_are_used` counts a name as used when any test
names it, so a function that only its own unit test calls passes there.
This test runs what the package is for, in process under
`sys.setprofile`: every command of the digest corpus, the acceptance
tests A1-A13, and the benchmark's `probe` and `locate` operations
through `perfbench/op.py`.  Every function and method defined in
`src/ordsum` must have been called, apart from REACH_EXEMPT.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

import test_acceptance
import test_cli_digests
from conftest import FINITE_CORPUS

import ordsum
import ordsum.rationals as rationals

SRC = Path(ordsum.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"

# (module, qualified name): why no run of the package reaches it.  Each
# entry is kept for its reason (ROADMAP item 6).
REACH_EXEMPT = {
    ("tnorm", "Record.__repr__"): "debug aid for interactive use",
    ("tnorm", "_IdempotentMarker.__repr__"): "debug aid for interactive use",
    ("tnorm", "TNorm.locate"): "abstract; each presentation defines its own",
    ("tnorm", "PieceGenerator.piece_at"): "abstract; each generator defines its own",
    ("tnorm", "PieceGenerator.tail_length_bound"): "abstract; each generator defines its own",
    ("tnorm", "PieceGenerator.eval"): "refuses exact eval of a lazy presentation; every "
    "command evaluates a lazy one through a truncation, so only a library caller reaches it",
    ("orders", "LinearOrder._less"): "abstract; each order defines its own",
    ("orders", "LinearOrder._adjacent"): "abstract; each order defines its own",
    ("tnorm", "Violation.__init__"): "made only when an audited law fails, "
    "and every presentation that can be written satisfies the laws",
    ("l1", "subbasis_predicates"): "paper API (test_package.PAPER_API)",
    ("l1", "SubbasisRecord.__init__"): "made only by subbasis_predicates",
    ("presentations", "format_presentation"): "paper API (test_package.PAPER_API)",
    ("orders", "OrderPieceGenerator.piece_at"): "the generator contract, which the "
    "tests read in generation order; truncations and signatures read `entries`",
    ("cantor", "CantorGapGenerator.piece_at"): "the generator contract, which the "
    "tests read in generation order; truncations and signatures read `entries`",
    ("tnorm", "Record.__hash__"): "keeps records hashable, which __eq__ alone would undo",
    ("families", "LadderGenerator.locate"): "no command or benchmark operation "
    "places a point on a ladder",
    ("families", "LadderGenerator._rung_of"): "called only by LadderGenerator.locate",
    ("orders", "FiniteOrder._adjacent"): "a finite order becomes a finite "
    "presentation, which never asks for adjacency",
}


def _defined() -> dict[tuple[str, int], tuple[str, str]]:
    """(file name, first line) -> (module, qualified name) of every def in the package.

    The first line is the one a code object reports: a decorated
    function's starts at its first decorator.
    """
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(f"{module}.py", first)] = (module, prefix + child.name)
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def _run_everything(tmp_path: Path, monkeypatch) -> None:
    test_cli_digests.digest_table(tmp_path)
    for name, test in vars(test_acceptance).items():
        if name.startswith("test_a"):
            args = [list(FINITE_CORPUS)] * len(inspect.signature(test).parameters)
            try:
                test(*args)
            except AssertionError:
                pass  # A8 fails by design; its own test reports it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, op = (importlib.import_module(name) for name in ("workloads", "op"))
    for name in ("audit", "lazy"):
        workdir = tmp_path / name
        workdir.mkdir()
        for operation in workloads.build(name, 1, workdir):
            if operation.argv[0] in ("probe", "locate"):
                assert op.main(operation.argv) == 0


def test_every_function_runs(tmp_path, monkeypatch, capsys):
    # a fresh process builds the fixed index table on first use; an
    # earlier test in this one may have built it already
    rationals._fixed_table.cache_clear()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _run_everything(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    defined = _defined()
    where = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in ran}
    reached = {
        defined[(path.name, line)]
        for path, line in where
        if path.parent == SRC.resolve() and (path.name, line) in defined
    }
    assert set(REACH_EXEMPT) <= set(defined.values())
    assert not set(REACH_EXEMPT) & reached, "an exempt function runs; drop its entry"
    missed = sorted(set(defined.values()) - reached - set(REACH_EXEMPT))
    assert not missed, f"defined in src/ordsum but never run: {missed}"
