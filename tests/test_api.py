"""The documented surface of the package: the README API table and the
command-line help."""

import ast
import hashlib
import importlib
import os
import re
import sys
import types

import pytest

import pathcrystals
from pathcrystals.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(pathcrystals.__file__)


def _api_table() -> dict:
    """{module: (names exported by pathcrystals, module-only names)}, read
    from the table in the README's API section."""
    with open(os.path.join(ROOT, "README.md")) as handle:
        text = handle.read()
    assert "\n## API\n" in text, "README has no API section"
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.strip().strip("|").split("|")
        if len(cells) == 3 and cells[0].strip().startswith("`"):
            module, exported, local = (re.findall(r"`([^`]+)`", cell) for cell in cells)
            table[module[0]] = (exported, local)
    return table


def _own_public_names(module) -> set:
    """Public names a module defines at top level; imported names are not its own."""
    with open(module.__file__) as handle:
        tree = ast.parse(handle.read())
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return {n for n in names if not n.startswith("_")}


def test_package_exports_match_the_readme_api():
    # the package as imported now: the benchmark self-tests import it afresh
    exported = {
        name
        for name, obj in vars(sys.modules["pathcrystals"]).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    listed = [name for names, _ in _api_table().values() for name in names]
    assert len(listed) == len(set(listed))
    assert exported == set(listed)


def test_readme_api_lists_every_public_name_of_every_module():
    table = _api_table()
    modules = [f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py") and f[0] != "_"]
    assert sorted(table) == sorted(modules)
    package = sys.modules["pathcrystals"]  # as in the test above
    for name, (exported, local) in table.items():
        module = importlib.import_module(f"pathcrystals.{name}")
        assert _own_public_names(module) == set(exported) | set(local), name
        for export in exported:
            assert getattr(package, export) is getattr(module, export), export


def test_the_package_imports_only_the_standard_library():
    # the runtime is stdlib only: every import, also inside functions, is
    # relative, from __future__, or of a standard-library module
    outside = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                (name, module)
                for module in modules
                if module != "__future__"
                and module.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


# sha256 of each help text at 80 columns, as argparse of Python 3.11 prints it
HELP_SHA256 = {
    "--help": "e1681cb16cf7854a3e0f3410161b0455e9d493e535e33504551a10b6ef734f0b",
    "info --help": "074f5c8458e2dbfda3d627847d010d36d501264e5aa079556395ad214cbec1e2",
    "crystal --help": "03370c88499805ee65f7d057b8389749acb43e413113d4604ae16708a8f3de53",
    "xi --help": "96e564d72387521fa09c2a2534f5b3fc44a6c55f88c4ccc3193318692d0c9a60",
    "fold-info --help": "b0d6627f77f2981d12bc9157a640aeacab35127f0d5f29ceff9d33f5b1140a08",
    "virtualize --help": "9749f4b2947573a92e9161204b4a127667354cf14b96c32ebbb449d8eb8f206f",
    "verify --help": "65ab2c38902205af08ebdab7be1dd74a8092c5b66ad5fa367e0e02f49cf2fe4c",
    "cactus-verify --help": "d565557a609322fc6ff70b71a06dc88da451d5de9c06eaca696f3582b4ee526e",
}


@pytest.mark.parametrize("argv", sorted(HELP_SHA256))
def test_help_output_pinned(monkeypatch, capsys, argv):
    # argparse wraps help text to the terminal width, read from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[argv]
