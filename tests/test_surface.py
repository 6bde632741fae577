"""The public surface, listed in full: the package root's names, CLI
options and the defaulted parameters of the public API.

Every option or defaulted parameter is a setting that tests and benchmarks
must cover, and every root name is a second import path, so adding one has
to change these lists in the same diff, where review sees it. Each default
also names the file outside tests whose call leaves it unset, so a default
that only tests rely on has no row to stand in.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import shutil
from pathlib import Path

import click
import pytest

import thermoledger
from thermoledger.cli import main

from .conftest import FIXTURE_CSV

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "thermoledger"

# what README's Python API imports; everything else is imported from its module
PACKAGE_EXPORTS = ["Chain", "RotationPolicy", "SigningKey", "encode_reading", "ingest_csv", "pump"]


def test_package_root_exports_exactly_the_listed_names():
    assert sorted(thermoledger.__all__) == PACKAGE_EXPORTS
    for name in PACKAGE_EXPORTS:
        getattr(thermoledger, name)


def _readme_python_api() -> str:
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_runs(tmp_path, monkeypatch):
    block = _readme_python_api()
    (tmp_path / "fixtures").mkdir()
    shutil.copy(FIXTURE_CSV, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "chain.jsonl").read_bytes().count(b"\n") == 2  # genesis and the fixture's block


CLI_OPTIONS = [
    ("", "--data-dir"),
    ("", "--offset-c"),
    ("", "--sealer-key"),
    ("explorer", "--format"),
    ("explorer", "--from"),
    ("explorer", "--raw"),
    ("explorer", "--to"),
    ("file fetch", "--from"),
    ("file fetch", "--identity"),
    ("file fetch", "--out"),
    ("file fetch", "--root"),
    ("file publish", "--in"),
    ("file publish", "--recipient"),
    ("ingest", "--csv"),
    ("ingest", "--no-seal"),
    ("ingest", "--rotate-every"),
    ("ingest", "--sender-key"),
    ("ingest", "--to"),
    ("init", "--genesis"),
    ("keygen", "--kind"),
    ("keygen", "--out"),
    ("serve", "--host"),
    ("serve", "--port"),
]


def _options(command: click.Command, path: str) -> list[tuple[str, str]]:
    found = [
        (path, name)
        for param in command.params
        if isinstance(param, click.Option)
        for name in param.opts + param.secondary_opts
    ]
    for sub in getattr(command, "commands", {}).values():
        found += _options(sub, f"{path} {sub.name}".strip())
    return found


def test_cli_options_are_exactly_the_listed_ones():
    assert sorted(_options(main, "")) == CLI_OPTIONS


# (module, public function, method or class whose signature has it, parameter,
#  the file outside tests with a call that leaves the parameter at its default)
DEFAULTED_PARAMETERS = [
    ("dagstore", "CorruptObject", "reason", "src/thermoledger/dagstore.py"),
    ("dagstore", "DagNode", "data", "src/thermoledger/dagstore.py"),
    ("dagstore", "DagNode", "links", "src/thermoledger/dagstore.py"),
    ("ledger", "Account", "balance", "src/thermoledger/ledger.py"),
    ("ledger", "Account", "nonce", "src/thermoledger/ledger.py"),
    ("telemetry", "encode_reading", "offset_c", "README.md"),
    ("telemetry", "pump", "offset_c", "perfbench/workloads.py"),
]


def _defaulted(module_name: str, label: str, obj) -> list[tuple[str, str, str]]:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return []
    return [(module_name, label, p.name) for p in params if p.default is not inspect.Parameter.empty]


def _public_defaulted() -> list[tuple[str, str, str]]:
    """Public module-level functions and classes defined in each module, and
    the public methods a class defines itself."""
    found = []
    for info in pkgutil.iter_modules(thermoledger.__path__):
        module = importlib.import_module(f"thermoledger.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found += _defaulted(info.name, name, obj)
            elif inspect.isclass(obj):
                found += _defaulted(info.name, name, obj)
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # staticmethod, classmethod
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found += _defaulted(info.name, f"{name}.{attr}", member)
    return found


def test_defaulted_parameters_are_exactly_the_listed_ones():
    assert sorted(_public_defaulted()) == [row[:3] for row in DEFAULTED_PARAMETERS]


@pytest.mark.parametrize("module, label, parameter, caller", DEFAULTED_PARAMETERS)
def test_every_default_has_a_caller_outside_tests(module, label, parameter, caller):
    """A default that only tests leave unset is a setting nothing else needs."""
    path = ROOT / caller
    assert caller == "README.md" or caller.startswith(("src/", "perfbench/")), caller
    assert not path.name.startswith("test_") and path.is_file(), caller
    name = label.rsplit(".", 1)[-1]
    assert re.search(rf"(?<!def )\b{name}\(", path.read_text(encoding="utf-8")), f"{caller} never calls {name}"


def _is_click_command(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _public_definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of each public module-level function and class
    and each public method a class defines; click commands are exempt."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if isinstance(node, ast.FunctionDef) and _is_click_command(node):
                continue
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{member.name}", member.name)
                    for member in node.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                ]
    return found


def _references(tree: ast.AST) -> set[str]:
    """Every name the code uses; a definition's own name is not a use."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_in_src_has_a_caller_outside_tests():
    """Code only tests call does not belong in src/: each public function,
    class and method is used elsewhere in src/, in perfbench/ or in README's
    Python API."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):  # the benchmark's own tests are tests too
            used |= _references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    used |= _references(ast.parse(_readme_python_api()))
    unused = [
        f"{path.stem}.{qualified}"
        for path, tree in trees.items()
        for qualified, name in _public_definitions(tree)
        if name not in used
    ]
    assert unused == []
