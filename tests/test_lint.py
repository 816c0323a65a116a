"""Static checks on the package source, with the standard library's ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coagsim"


def unused_imports(source):
    """(line, name) of each imported name the module never reads.

    A name counts as read when it appears as a Name node or in a literal
    __all__ list.  Imports whose line carries "# noqa: F401" are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in read or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            out.append((alias.lineno, name))
    return out


def test_checker_flags_unread_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .forward import (\n"
        "    _heun_run,\n"
        "    _ratio_kernel,\n"
        ")\n"
        "from .kernel import eval_kernel  # noqa: F401  kept for wrapping\n"
        "from .measure import GridMeasure\n"
        "__all__ = ['GridMeasure']\n"
        "y = np.zeros(3)\n"
        "_heun_run(y)\n"
    )
    assert unused_imports(source) == [(1, "os"), (5, "_ratio_kernel")]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def family_reads(source):
    """Lines that read an attribute named family (a kernel's family name)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "family" and isinstance(node.ctx, ast.Load)
    )


def test_checker_flags_family_reads():
    source = (
        '"""kernel.family in a docstring is text."""\n'
        'key = "kernel.family"\n'
        "if spec.family == 'zero':\n"
        "    pass\n"
        "name = getattr(spec, 'family')\n"
        "terms = f(kernel).family\n"
    )
    assert family_reads(source) == [3, 6]


def test_kernel_families_are_read_in_kernel_only():
    # what each family means (its terms, its degree, its zero) lives in
    # kernel.py; other modules go through its functions
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "kernel.py"
        for line in family_reads(path.read_text())
    ]
    assert found == []
