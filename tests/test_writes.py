"""canonical.py's three write primitives, and the rule that nothing else writes.

Every file the program keeps (chain, queue, genesis, key files, objects)
reaches disk through ``create_file``, ``append_records`` or
``replace_file``, so crash safety has one place to live.
"""

import ast
import os
from pathlib import Path

import pytest

from thermoledger import canonical
from thermoledger.canonical import append_records, canonical_json, create_file, read_records, replace_file

from .conftest import json_line

SRC = Path(__file__).resolve().parent.parent / "src" / "thermoledger"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestCreateFile:
    @pytest.mark.parametrize("mode, expected", [(0o600, 0o600), (0o666, 0o644)])
    def test_new_file_gets_its_mode(self, tmp_path, umask_022, mode, expected):
        path = tmp_path / "f"
        create_file(path, b"data", mode)
        assert path.read_bytes() == b"data"
        assert path.stat().st_mode & 0o777 == expected

    def test_same_bytes_left_untouched(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"data")
        os.utime(path, ns=(0, 0))  # any write would move the mtime
        create_file(path, b"data", 0o600)
        assert path.stat().st_mtime_ns == 0

    @pytest.mark.parametrize("existing", [b"", b"dat", b"other"])
    def test_other_bytes_raise_and_stay(self, tmp_path, existing):
        path = tmp_path / "f"
        path.write_bytes(existing)
        with pytest.raises(FileExistsError):
            create_file(path, b"data", 0o600)
        assert path.read_bytes() == existing


def test_append_records_round_trips_through_read_records(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"a": "1"}, {"b": ["x", "y"]}, {"c": {"d": "0x00"}}]
    append_records(path, [canonical_json(r) for r in records[:1]], json_line)
    append_records(path, [canonical_json(r) for r in records[1:]], json_line)
    append_records(path, [], json_line)
    assert path.read_bytes() == b'{"a":"1"}\n{"b":["x","y"]}\n{"c":{"d":"0x00"}}\n'
    assert read_records(path, json_line, ValueError) == records


@pytest.mark.parametrize("torn, kept", [
    (b'{"a":"1"}', b'{"a":"1"}\n'),  # only the newline was lost: end the line
    (b'{"a":"', b""),  # part of the record too: cut it off
    (b'{"a":"1"}\n{"b":', b'{"a":"1"}\n'),
])
def test_append_records_mends_a_torn_final_line_first(tmp_path, torn, kept):
    path = tmp_path / "records.jsonl"
    path.write_bytes(torn)
    append_records(path, [canonical_json({"c": "3"})], json_line)
    assert path.read_bytes() == kept + b'{"c":"3"}\n'
    assert read_records(path, json_line, ValueError)[-1] == {"c": "3"}


class TestReplaceFile:
    def test_replaces_with_mode(self, tmp_path, umask_022):
        path = tmp_path / "f"
        path.write_bytes(b"old")
        replace_file(path, b"new", 0o600)
        assert path.read_bytes() == b"new"
        assert path.stat().st_mode & 0o777 == 0o600
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    def test_failed_rename_keeps_old_bytes_and_no_sibling(self, tmp_path, monkeypatch):
        path = tmp_path / "f"
        path.write_bytes(b"old")

        def refuse(src, dst):
            assert Path(src).read_bytes() == b"new"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(canonical.os, "replace", refuse)
        with pytest.raises(OSError, match="No space"):
            replace_file(path, b"new", 0o666)
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


# File writing belongs to canonical.py alone; a fetched file written to the
# operator's --out path is user output, not program state.
ALLOWED = {("cli.py", "fetch", ".write_bytes")}
_WRITE_MODE = set("wax+")
_OS_WRITES = {"open", "fdopen", "replace", "rename"}


def _write_call(node: ast.AST) -> str | None:
    if isinstance(node, ast.ImportFrom):
        names = [a.name for a in node.names if node.module == "tempfile" or (node.module == "os" and a.name in _OS_WRITES)]
        return f"from {node.module} import {', '.join(names)}" if names else None
    if isinstance(node, ast.Import):
        return "import tempfile" if any(a.name == "tempfile" for a in node.names) else None
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("write_bytes", "write_text"):
            return f".{func.attr}"
        if isinstance(func.value, ast.Name) and (func.value.id == "tempfile" or (func.value.id == "os" and func.attr in _OS_WRITES)):
            return f"{func.value.id}.{func.attr}"
    if isinstance(func, ast.Name) and func.id == "open":
        modes = node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # Path.open(mode)
        modes = node.args[:1]
    else:
        return None
    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
    if any(isinstance(m, ast.Constant) and isinstance(m.value, str) and _WRITE_MODE & set(m.value) for m in modes):
        return "open"
    return None


def _write_calls(tree: ast.AST, function: str = "<module>") -> list[tuple[str, int, str]]:
    """(enclosing function, line, call) for every file write under ``tree``."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if (call := _write_call(child)) is not None:
            found.append((function, child.lineno, call))
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += _write_calls(child, inner)
    return found


def test_write_calls_detected():
    snippet = (
        "import os, tempfile\n"
        "from os import replace\n"
        "def f(p):\n"
        "    open(p, 'ab')\n"
        "    open(p, mode='r+')\n"
        "    open(p)\n"
        "    p.open('w')\n"
        "    p.open()\n"
        "    os.fdopen(os.open(p, 0))\n"
        "    tempfile.mkstemp()\n"
        "    p.write_text('x')\n"
    )
    assert _write_calls(ast.parse(snippet)) == [
        ("<module>", 1, "import tempfile"),
        ("<module>", 2, "from os import replace"),
        ("f", 4, "open"),
        ("f", 5, "open"),
        ("f", 7, "open"),
        ("f", 9, "os.fdopen"),
        ("f", 9, "os.open"),
        ("f", 10, "tempfile.mkstemp"),
        ("f", 11, ".write_text"),
    ]


def test_only_canonical_writes_files():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "canonical.py" in sources
    found = {
        (path.name, function, call): line
        for path in sources
        if path.name != "canonical.py"
        for function, line, call in _write_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    }
    assert set(found) == ALLOWED, found
