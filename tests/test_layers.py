"""The package's modules form layers: each imports only layers below it.

The imports of every ``src/ucyclic/*.py`` are read with ``ast``, those
inside functions included, so a deferred import cannot hide a cycle.
"""
from __future__ import annotations

import ast
from pathlib import Path

import ucyclic

# lowest first; the leaf modules errors and _kernels import no layer
LAYERS = ("errors", "_kernels", "gf", "cyclotomic", "oracle", "ideals",
          "selfdual", "duality", "gray", "cli", "__init__")

PACKAGE = Path(ucyclic.__file__).parent


def _package_imports(path: Path) -> set[str]:
    """Names of the package modules that one source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:      # from . import x
                out.update(alias.name for alias in node.names)
            elif node.level == 1:                             # from .x import y
                out.add(node.module.split(".")[0])
            elif node.module == "ucyclic":                    # from ucyclic import x
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("ucyclic."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("ucyclic."))
    return out


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


def test_no_module_imports_a_later_layer():
    rank = {name: i for i, name in enumerate(LAYERS)}
    upward = [(name, dep) for name in LAYERS
              for dep in sorted(_package_imports(PACKAGE / f"{name}.py"))
              if rank[dep] >= rank[name]]
    assert upward == []


def test_oracle_reads_only_field_arithmetic():
    # the brute-force ground truth shares no code with the closed forms
    assert _package_imports(PACKAGE / "oracle.py") == {"errors", "gf"}


def test_deferred_imports_are_seen(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f():\n    from .ideals import x\n"
                   "    from . import gray as g\n    import ucyclic.cli\n")
    assert _package_imports(src) == {"ideals", "gray", "cli"}
