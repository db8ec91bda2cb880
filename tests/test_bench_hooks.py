"""The benchmark harness under bench/ looks package names up by string and by
attribute; every name it uses must exist in faradaycorr.

bench/tracer.py wraps the functions named in its SPANNED and ALLOCATING
tables with getattr and no default, so a missing name fails a traced run,
and bench/cli_op.py and bench/workloads.py call the package API directly.
The harness is only read here, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def _table(name: str) -> dict:
    """A module-level ``NAME = {...}`` literal of bench/tracer.py."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py defines no {name}")


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _sys_module(node) -> str | None:
    """'faradaycorr.X' for a ``sys.modules["faradaycorr.X"]`` expression."""
    if (
        isinstance(node, ast.Subscript)
        and ast.unparse(node.value) == "sys.modules"
        and isinstance(node.slice, ast.Constant)
        and str(node.slice.value).startswith("faradaycorr")
    ):
        return node.slice.value
    return None


def _attribute_uses(name: str) -> set[tuple[str, str]]:
    """(module, attribute) pairs that one bench file reads from faradaycorr:
    ``from faradaycorr... import x``, ``alias.x`` on an imported package
    module (followed through submodules), ``sys.modules[...].x`` and
    ``getattr(sys.modules[...], "x", ...)``."""
    tree = _tree(name)
    aliases: dict[str, str] = {}
    uses: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "faradaycorr":
                    importlib.import_module(a.name)
                    if a.asname:
                        aliases[a.asname] = a.name
                    else:
                        aliases["faradaycorr"] = "faradaycorr"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("faradaycorr"):
            for a in node.names:
                uses.add((node.module, a.name))
                if _is_module(f"{node.module}.{a.name}"):
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            module = _sys_module(base) or (isinstance(base, ast.Name) and aliases.get(base.id))
            if not module:
                continue
            for attr in reversed(chain):
                uses.add((module, attr))
                if not _is_module(f"{module}.{attr}"):
                    break
                module = f"{module}.{attr}"
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" and len(node.args) >= 2:
            module = _sys_module(node.args[0])
            if module and isinstance(node.args[1], ast.Constant):
                uses.add((module, node.args[1].value))
    return uses


def _missing(pairs) -> list[str]:
    return sorted(f"{m}.{a}" for m, a in pairs if not hasattr(importlib.import_module(m), a))


@pytest.mark.parametrize("table", ["SPANNED", "ALLOCATING"])
def test_tracer_tables_resolve(table):
    pairs = {(f"faradaycorr.{short}", name) for short, names in _table(table).items() for name in names}
    assert pairs
    assert _missing(pairs) == []


@pytest.mark.parametrize("name", ["tracer.py", "cli_op.py", "workloads.py", "run.py"])
def test_bench_attribute_uses_resolve(name):
    assert _missing(_attribute_uses(name)) == []


def test_cli_op_config_calls_are_found():
    # the scan must see the config calls, or the test above proves nothing
    config_uses = {a for m, a in _attribute_uses("cli_op.py") if m == "faradaycorr.config"}
    assert {"load_config", "validate_config", "set_config_path", "build_protocols", "build_field", "build_model"} <= config_uses
    assert ("faradaycorr.trajectory_mc", "CHUNK_SIZE") in _attribute_uses("tracer.py")
