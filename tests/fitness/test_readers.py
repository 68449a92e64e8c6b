"""Every ``src/repro`` module has a reader that is not a test or an example.

A module is read when something imports it: another ``src/repro`` module,
a ``benchmarks/`` file, or the CLI's ``HANDLERS`` table (verb -> handler
module, imported when the verb runs).  Importing ``a.b.c`` also reads
``a`` and ``a.b``.  A module that only tests or examples import is code
no workload, figure, bench row or verb runs: delete it, give it a reader,
or name it in :data:`ALLOWED` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Module -> why it stays without an importer.
ALLOWED = {
    "repro.__main__": "the entry point: `python -m repro` runs it",
}


def _modules(root: Path, tree: str) -> dict[str, Path]:
    """Dotted name -> file, for every module under ``root/tree``."""
    base = root / "src" if tree == "src" else root
    found = {}
    for path in sorted((root / tree).rglob("*.py")):
        parts = path.relative_to(base).with_suffix("").parts
        found[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return found


def _imported(module: str, path: Path) -> set[str]:
    """Every module name ``path`` (module ``module``) imports, with its
    parents; a ``from`` import also names each imported attribute, which
    counts where it is a submodule."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            origin = package.rsplit(".", node.level - 1)[0] if node.level else ""
            origin = ".".join(filter(None, (origin, node.module)))
            names.add(origin)
            names.update(f"{origin}.{alias.name}" for alias in node.names)
    return {
        ".".join(name.split(".")[:depth]) for name in names for depth in range(1, name.count(".") + 2)
    }


def _handlers(cli: Path) -> set[str]:
    """Every string in ``cli.py``'s ``HANDLERS`` table: its handler
    modules (and its verbs, which name no module)."""
    for node in ast.parse(cli.read_text()).body:
        if isinstance(node, ast.Assign) and "HANDLERS" in {getattr(t, "id", "") for t in node.targets}:
            return {
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            }
    return set()


def unread(root: Path, allowed=ALLOWED) -> list[str]:
    """The ``src/repro`` modules under ``root`` that nothing reads, bar ``allowed``."""
    read = _handlers(root / "src" / "repro" / "cli.py")
    for tree in ("src", "benchmarks"):
        for module, path in _modules(root, tree).items():
            read.update(name for name in _imported(module, path) if name != module)
    return sorted(set(_modules(root, "src")) - read - set(allowed))


def test_every_module_has_a_reader() -> None:
    assert unread(REPO_ROOT) == []


def test_every_allowed_module_exists_and_has_no_reader() -> None:
    """An entry outlives neither its module nor the lack of a reader."""
    assert unread(REPO_ROOT, allowed={}) == sorted(ALLOWED)


#: A tree with one module of each kind of reader, and one only a test reads.
PLANTED = {
    "src/repro/__init__.py": "",
    "src/repro/__main__.py": "from .cli import main\n",
    "src/repro/cli.py": 'HANDLERS = {"run": "repro.handled"}\n',
    "src/repro/handled.py": "from .pkg.deep import f\n",
    "src/repro/pkg/__init__.py": "",
    "src/repro/pkg/deep.py": "def f(): ...\n",
    "src/repro/benched.py": "",
    "benchmarks/bench_x.py": "from repro import benched\n",
    "src/repro/orphan.py": "",
    "tests/test_orphan.py": "import repro.orphan\n",
    "examples/orphan.py": "from repro.orphan import *\n",
}


def test_a_module_only_tests_and_examples_import_is_flagged(tmp_path) -> None:
    for relative, source in PLANTED.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    assert unread(tmp_path) == ["repro.orphan"]
