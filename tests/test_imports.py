"""Every public name has one import path, the module that defines it: the
package root holds only its docstring, and each import of the package names
a submodule."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffusionlab"
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def _imported_from_root():
    """(file:line, name) of each `from diffusionlab import X`,
    `import diffusionlab.X` and, inside the package, `from . import X`."""
    found = []
    for path in sorted(p for tree in ("src", "tests", "perfbench") for p in (ROOT / tree).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                root = (node.module == "diffusionlab" and node.level == 0
                        or node.module is None and node.level == 1 and path.parent == PACKAGE)
                names = [alias.name for alias in node.names] if root else []
            elif isinstance(node, ast.Import):
                names = [alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("diffusionlab.")]
            else:
                continue
            found += [(f"{path.relative_to(ROOT)}:{node.lineno}", name) for name in names]
    return found


def test_every_import_of_the_package_names_a_submodule():
    found = _imported_from_root()
    assert found  # the walk saw the imports of the tests themselves
    assert [(where, name) for where, name in found if name not in SUBMODULES] == []


def test_package_root_holds_only_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)


def test_the_cli_imports_no_scipy_beyond_linalg():
    # numpy evaluates the splines and math the Gamma function, so the package
    # needs scipy.linalg alone; scipy.interpolate would pull in the other three
    code = "import sys, diffusionlab.cli; print(' '.join(sorted(sys.modules)))"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                check=True).stdout.split())
    assert "scipy.linalg" in loaded
    banned = ("scipy.interpolate", "scipy.special", "scipy.optimize", "scipy.sparse")
    assert sorted(m for m in loaded if m.startswith(banned)) == []
