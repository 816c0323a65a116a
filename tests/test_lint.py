"""Static checks on the package source, with the standard library's ast."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coagsim"
README = SRC.parents[1] / "README.md"


def unused_imports(source):
    """(line, name) of each imported name the module never reads.

    A name counts as read when it appears as a Name node or in a literal
    __all__ list.  An __all__ that is no literal is derived from the
    module's globals, as the package's is: every public name (no leading
    underscore) that a top-level from-import binds counts as read, and a
    private one still needs a reader.  Imports whose line carries
    "# noqa: F401" are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                read.update(ast.literal_eval(node.value))
            except ValueError:
                read.update(
                    alias.asname or alias.name
                    for imp in tree.body
                    if isinstance(imp, ast.ImportFrom)
                    for alias in imp.names
                    if not (alias.asname or alias.name).startswith("_")
                )
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


def test_checker_reads_a_derived_export_list():
    # __init__'s form: the export list is every public global that is no
    # module, so its public imports are read by it, and its private ones
    # and plain module imports are not
    source = (
        "import os\n"
        "import json\n"
        "from .measure import GridMeasure, _tail_cells\n"
        "from .forward import gain as rate_of_gain, _Engine as Engine\n"
        "__all__ = sorted(n for n, v in globals().items() if not isinstance(v, type(os)))\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "_tail_cells")]


def test_package_has_no_unused_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def private_definitions(source):
    """(line, name) of each private name a module binds at top level: its
    functions, classes and assigned names with one leading underscore."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def read_names(nodes):
    """Names the code under nodes reads, bare (Name) or as an attribute
    (mod._name)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def loaded_names(source):
    """Names a module reads, bare (Name) or as an attribute (mod._name)."""
    return read_names([ast.parse(source)])


def unread_private_names(sources):
    """(module, line, name) of each top-level private name that no module
    of sources ({module: source}) reads; an import alone is no read."""
    read = set().union(*(loaded_names(src) for src in sources.values()))
    return [
        (mod, line, name)
        for mod, src in sources.items()
        for line, name in private_definitions(src)
        if name not in read
    ]


def test_checker_flags_unread_private_names():
    sources = {
        "a.py": (
            "import numpy as np\n"
            "_SCALE, _unused = 2.0, 3.0\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    return _SCALE * x\n"
            "def _dead():\n"
            "    pass\n"
            "class _Table:\n"
            "    def _row(self):\n"
            "        pass\n"
            "def public(x):\n"
            "    return _helper(np.asarray(x))\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import _Table\n"
            "_cache = a._dead\n"
            "_cache = None\n"
        ),
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_unused"),
        ("a.py", 8, "_Table"),
        ("b.py", 3, "_cache"),
        ("b.py", 4, "_cache"),
    ]


def test_package_reads_every_private_name():
    # a private helper kept in the package only for a test to read is dead
    # code there; it belongs to the test
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = [f"{mod}:{line}: {name}" for mod, line, name in unread_private_names(sources)]
    assert found == []


def constant_definitions(source):
    """(line, name) of each upper-case name a module assigns at top level."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (node.lineno, n.id)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and n.id.isupper()
            ]
    return out


def unread_constants(sources):
    """(module, line, name) of each top-level upper-case constant that no
    module of sources ({module: source}) reads, bare or as an attribute."""
    read = set().union(*(loaded_names(src) for src in sources.values()))
    return [
        (mod, line, name)
        for mod, src in sources.items()
        for line, name in constant_definitions(src)
        if name not in read
    ]


def test_checker_flags_unread_constants():
    sources = {
        "a.py": (
            "LO, HI, ITERS = 1e-2, 1e4, 40\n"
            "SCHEMA_VERSION = 1\n"
            "TOL: float = 1e-3\n"
            "scale = 2.0\n"
            "__version__ = '1'\n"
            "def f(x):\n"
            "    N_LOCAL = 3\n"
            "    return LO * x + N_LOCAL\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import HI\n"
            "_ROUNDOFF = a.TOL\n"
            "SCHEMA_VERSION = 2\n"
            "print(_ROUNDOFF)\n"
        ),
    }
    assert unread_constants(sources) == [
        ("a.py", 1, "HI"),
        ("a.py", 1, "ITERS"),
        ("a.py", 2, "SCHEMA_VERSION"),
        ("b.py", 4, "SCHEMA_VERSION"),
    ]


def test_package_reads_every_constant():
    # a module constant that nothing reads is a setting that does nothing
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = [f"{mod}:{line}: {name}" for mod, line, name in unread_constants(sources)]
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


def scoped_family_reads(source):
    """(scope, line) of each read of an attribute named family, scope the
    dotted name of the innermost enclosing function or class ("" at module
    level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "family" and isinstance(child.ctx, ast.Load):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found, key=lambda item: item[1])


def test_checker_scopes_family_reads():
    source = (
        "class Spec:\n"
        "    kind = other.family\n"
        "    def check(self):\n"
        "        if self.family == 'zero':\n"
        "            pass\n"
        "    @property\n"
        "    def bound(self):\n"
        "        return f(self).family\n"
        "def evaluate(spec):\n"
        "    def inner():\n"
        "        return spec.family\n"
        "    spec.family = None\n"
        "    return getattr(spec, 'family')\n"
        "label = spec.family\n"
    )
    assert scoped_family_reads(source) == [
        ("Spec", 2), ("Spec.check", 4), ("Spec.bound", 8), ("evaluate.inner", 11), ("", 14)
    ]


def test_kernel_families_are_stated_once_in_kernel():
    # each family's form is its power terms (_power_terms), which the bare
    # kernel, the growth constant and the bare flux read; besides the table
    # only validation and the manifest's settings read the family name
    allowed = {"_power_terms", "KernelSpec.__post_init__", "kernel_setup"}
    found = [
        f"kernel.py:{line}: {scope}"
        for scope, line in scoped_family_reads((SRC / "kernel.py").read_text())
        if scope not in allowed
    ]
    assert found == []


def zeta_reads(source):
    """Lines that import or read the name _zeta (the cutoff profile without
    eval_cutoff's checks), bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "_zeta"]
        elif isinstance(node, ast.Name) and node.id == "_zeta" and isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_zeta" and isinstance(node.ctx, ast.Load):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_zeta_reads():
    source = (
        '"""_zeta in a docstring is text."""\n'
        'name = "_zeta"\n'
        "from .kernel import _zeta, eval_cutoff\n"
        "k *= _zeta(s)\n"
        "u = kernel._zeta(s)\n"
        "def _zeta(s):\n"
        "    return s\n"
        "_zeta = None\n"
    )
    assert zeta_reads(source) == [3, 4, 5]


def test_cutoff_profile_is_read_in_kernel_only():
    # the cutoff profile's unchecked form, and the ratio cutoffs' band skip
    # built on it, live in kernel.py; other modules go through eval_cutoff
    # and _ratio_cutoffs
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "kernel.py"
        for line in zeta_reads(path.read_text())
    ]
    assert found == []


def default_grid_calls(source):
    """Lines that call geometric_grid with no argument (the acceptance grid
    by its defaults), bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "geometric_grid"
        and not node.args
        and not node.keywords
    )


def test_checker_flags_default_grid_calls():
    source = (
        '"""geometric_grid() in a docstring is text."""\n'
        'name = "geometric_grid()"\n'
        "edges = geometric_grid()\n"
        "edges = measure.geometric_grid()\n"
        "edges = geometric_grid(*cfg.grid)\n"
        "edges = geometric_grid(ratio=2.0)\n"
        "x_min, x_max, ratio = geometric_grid.__defaults__\n"
        "make = geometric_grid\n"
    )
    assert default_grid_calls(source) == [3, 4]


def test_package_states_the_acceptance_grid_once():
    # the acceptance grid is geometric_grid's defaults alone: run_config
    # reads them, and every solve takes its grid from its caller
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in default_grid_calls(path.read_text())
    ]
    assert found == []


def envelope_reads(source):
    """Lines that read an attribute named R0 or delta (the lower envelope's
    onset scale and exponent)."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ("R0", "delta") and isinstance(node.ctx, ast.Load)
    )


def test_checker_flags_envelope_reads():
    source = (
        '"""params.R0 in a docstring is text."""\n'
        'key = "params.delta"\n'
        "x = (params.R0 / R) ** params.delta\n"
        "params = Params(gamma=0.0, rho=0.5, delta=0.2, R0=10.0)\n"
        "y = getattr(params, 'R0')\n"
        "z = f(params).delta\n"
        "w = params.r0\n"
    )
    assert envelope_reads(source) == [3, 3, 6]


def test_lower_envelope_is_read_in_measure_only():
    # the lower envelope R^(1-rho) (1 - (R0/R)^delta)_+ lives in
    # measure.py; other modules go through its functions
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "measure.py"
        for line in envelope_reads(path.read_text())
    ]
    assert found == []


def class_fields(source, names):
    """{class: set of its annotated field names} for the named top-level
    classes of a module."""
    return {
        node.name: {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name in names
    }


def shared_fields(fields, allowed=()):
    """(field, classes) of each field name that two or more classes of
    fields ({class: names}) declare, except the allowed names."""
    owners = {}
    for cls, names in fields.items():
        for name in names:
            owners.setdefault(name, []).append(cls)
    return sorted((name, sorted(cls)) for name, cls in owners.items() if len(cls) > 1 and name not in allowed)


def test_checker_flags_shared_fields():
    source = (
        "class A:\n"
        "    gamma: float\n"
        "    lam: float = 1e-3\n"
        "    def f(self):\n"
        "        lam: float = 2.0\n"
        "class B:\n"
        "    gamma: float\n"
        "    lam: float\n"
        "    other = 1\n"
        "class C:\n"
        "    other: int\n"
        "class D:\n"
        "    lam: float\n"
    )
    fields = class_fields(source, ("A", "B", "C"))
    assert fields == {"A": {"gamma", "lam"}, "B": {"gamma", "lam"}, "C": {"other"}}
    assert shared_fields(fields, allowed={"gamma"}) == [("lam", ["A", "B"])]


SETTING_CLASSES = ("Params", "KernelSpec", "CutoffParams")


def test_run_settings_have_one_home():
    # each setting of a run lives in one of these objects; gamma alone is
    # in two, the problem's exponent and the kernel's degree, which the
    # engine requires to be equal
    fields = {}
    for path in sorted(SRC.glob("*.py")):
        fields.update(class_fields(path.read_text(), SETTING_CLASSES))
    assert sorted(fields) == sorted(SETTING_CLASSES)
    assert shared_fields(fields, allowed={"gamma"}) == []


def unread_parameters(source):
    """(line, function, name) of each parameter of a def or lambda that
    its body never reads.

    A read anywhere in the body counts, nested functions included, so a
    parameter that only a closure reads is read.  Names that start with
    "_" are exempt: they mark the parameters of a callback whose
    signature its caller fixes.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [(a.lineno, name, a.arg) for a in params if not a.arg.startswith("_") and a.arg not in read]
    return sorted(out)


def test_checker_flags_unread_parameters():
    source = (
        "def run(cfg, out_dir, tolerance=None, *args, key, **kwargs):\n"
        "    '''tolerance in a docstring is text.'''\n"
        "    return cfg, key\n"
        "def outer(x, y):\n"
        "    def inner(z):\n"
        "        return x + z\n"
        "    return inner\n"
        "def callback(s, _h, _r0):\n"
        "    return s\n"
        "scale = lambda psi: 1.0\n"
        "kept = lambda _psi: 1.0\n"
        "class A:\n"
        "    def f(self, n):\n"
        "        return self.g(n)\n"
        "    def g(self, n):\n"
        "        return 2 * n\n"
    )
    assert unread_parameters(source) == [
        (1, "run", "args"),
        (1, "run", "kwargs"),
        (1, "run", "out_dir"),
        (1, "run", "tolerance"),
        (4, "outer", "y"),
        (10, "<lambda>", "psi"),
        (15, "g", "self"),
    ]


def test_package_reads_every_parameter():
    # a parameter that no code path reads is a setting that does nothing
    found = [
        f"{path.name}:{line}: {name}({param})"
        for path in sorted(SRC.glob("*.py"))
        for line, name, param in unread_parameters(path.read_text())
    ]
    assert found == []


def _is_os_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"


def environ_writes(tree):
    """Lines where code under tree writes to the process environment: an
    item of os.environ set or deleted, one of its mutating methods called,
    or os.putenv / os.unsetenv."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_os_environ(node.value) and isinstance(node.ctx, (ast.Store, ast.Del)):
            out.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            (_is_os_environ(node.func.value) and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear"))
            or (isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                and node.func.attr in ("putenv", "unsetenv"))
        ):
            out.append(node.lineno)
    return sorted(out)


def imports_before_pin(source):
    """Lines of the imports, of the package's own modules or of numpy or
    scipy (which load numpy), that run at import time before the first
    top-level statement writing os.environ: the thread-count pin must
    precede them, since OpenBLAS sizes its pool once, when numpy loads it.
    [0] when no top-level statement writes os.environ."""
    body = ast.parse(source).body
    pin = next((i for i, stmt in enumerate(body) if environ_writes(stmt)), None)
    if pin is None:
        return [0]
    out = []
    for stmt in body[:pin]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.ImportFrom):
                loads = node.level > 0 or node.module.split(".")[0] in ("numpy", "scipy")
            elif isinstance(node, ast.Import):
                loads = any(alias.name.split(".")[0] in ("numpy", "scipy") for alias in node.names)
            else:
                loads = False
            if loads:
                out.append(node.lineno)
    return sorted(out)


def test_checker_flags_environ_writes_and_late_pins():
    source = (
        "import os\n"
        "import sys\n"
        "if 'numpy' not in sys.modules:\n"
        "    os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "x = os.environ.get('HOME')\n"
        "os.environ.setdefault('A', '1')\n"
        "del os.environ['A']\n"
        "os.putenv('B', '2')\n"
        "from .config import load_config\n"
    )
    assert environ_writes(ast.parse(source)) == [4, 6, 7, 8]
    assert imports_before_pin(source) == []
    late = (
        "import os\n"
        "from . import forward\n"
        "import numpy.linalg as la\n"
        "try:\n"
        "    from scipy import integrate\n"
        "except ImportError:\n"
        "    pass\n"
        "from .config import load_config\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
    )
    assert imports_before_pin(late) == [2, 3, 5, 8]
    assert imports_before_pin("import numpy\n") == [0]


def test_thread_pin_precedes_numpy_and_is_the_only_environ_write():
    # an import sorter that moved the pin below the imports would leave
    # OpenBLAS at the machine's width without failing any numerical test
    assert imports_before_pin((SRC / "__init__.py").read_text()) == []
    writes = {path.name: environ_writes(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert len(writes.pop("__init__.py")) == 1
    assert {name: lines for name, lines in writes.items() if lines} == {}


def foreign_imports(source):
    """(line, name) of each import the module runs when it is imported
    (outside any function or class body) of a top-level package other than
    the standard library, numpy or the package itself (relative imports,
    or coagsim)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "coagsim"}
    out = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                out.extend((node.lineno, a.name) for a in node.names if a.name.split(".")[0] not in allowed)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module.split(".")[0] not in allowed:
                    out.append((node.lineno, node.module))
            else:
                visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return out


def test_checker_flags_foreign_imports():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from numpy.lib.stride_tricks import sliding_window_view\n"
        "from . import forward\n"
        "from .kernel import eval_kernel\n"
        "import coagsim.measure\n"
        "import scipy\n"
        "from scipy import integrate\n"
        "try:\n"
        "    import matplotlib.pyplot as plt\n"
        "except ImportError:\n"
        "    plt = None\n"
        "def f():\n"
        "    import pandas\n"
        "class C:\n"
        "    import yaml\n"
        "if True:\n"
        "    import hypothesis, json\n"
    )
    assert foreign_imports(source) == [
        (7, "scipy"), (8, "scipy"), (10, "matplotlib.pyplot"), (18, "hypothesis"),
    ]


def test_package_imports_only_stdlib_numpy_and_itself_at_import_time():
    # scipy and any other library load on first use, inside the function
    # that needs them, so a run that never calls them never holds them
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in foreign_imports(path.read_text())
    ]
    assert found == []


def config_keys(config_source, sources):
    """(listed, known, read): the config keys that the config module's
    docstring lists after "Recognized sections", the keys of its
    _KNOWN_KEYS, and the keys that sources read by name, as the key
    argument of a get_* or _typed call or a string tested with in against
    a .raw mapping."""
    tree = ast.parse(config_source)
    section_list = ast.get_docstring(tree).split("Recognized sections", 1)[1]
    listed = {w for line in section_list.splitlines() if line.startswith("    ") for w in line.split()}
    known = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_KNOWN_KEYS" for t in node.targets):
            for section, leaves in ast.literal_eval(node.value).items():
                known |= {f"{section}.{leaf}" if section else leaf for leaf in leaves}
    read = set()
    for node in (n for src in sources for n in ast.walk(ast.parse(src))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if (name.startswith("get_") or name == "_typed") and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                read.add(node.args[1].value)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and getattr(node.comparators[0], "attr", None) == "raw"
        ):
            read.add(node.left.value)
    return listed, known, read


def test_checker_reads_the_three_key_lists():
    config = (
        '"""Config.\n'
        "\n"
        "    key := segment\n"
        "\n"
        "Recognized sections (unknown keys are rejected):\n"
        "\n"
        "    params.gamma params.rho\n"
        "    outputs seed\n"
        "\n"
        "A seed is a number.\n"
        '"""\n'
        "_KNOWN_KEYS = {'params': {'gamma', 'rho'}, '': {'outputs'}}\n"
        "def run_config(mapping, key):\n"
        "    get_float(mapping, 'params.gamma')\n"
        "    get_float(mapping, key)\n"
        "    _typed(mapping, 'params.rho', float, None, 'a number')\n"
        "    return get_str(mapping, 'outputs', 'out')\n"
    )
    cli = (
        "def cmd(cfg):\n"
        "    if 'w.n' in cfg.raw and 'x' in 'xyz':\n"
        "        return config.get_floats(cfg.raw, 'w.n')\n"
        "    return getattr(cfg, 'tol')\n"
    )
    listed, known, read = config_keys(config, [config, cli])
    assert listed == {"params.gamma", "params.rho", "outputs", "seed"}
    assert known == {"params.gamma", "params.rho", "outputs"}
    assert read == {"params.gamma", "params.rho", "outputs", "w.n"}


def test_config_keys_are_listed_known_and_read_alike():
    # a key the docstring lists but the parser refuses, or one the parser
    # accepts but no code reads, is a setting that does nothing
    listed, known, read = config_keys(
        (SRC / "config.py").read_text(), [path.read_text() for path in sorted(SRC.glob("*.py"))]
    )
    assert listed == known
    assert read == known


# the suffixes of the file names the README gives, such as stationary.json
FILE_SUFFIXES = {"cfg", "csv", "json", "md", "py", "xml"}


def readme_config_keys(readme, known):
    """The config keys a README names: the key of each assignment in its
    ini blocks, and in its inline code spans each dotted name that starts
    with a config section (but for file names) and each span that is a
    sectionless key.  Other fenced blocks are skipped, and so are dotted
    names of other roots, such as the manifest's setup.cutoff."""
    sections = {k.split(".")[0] for k in known if "." in k}
    bare = {k for k in known if "." not in k}
    named = set()
    for i, part in enumerate(re.split(r"^```", readme, flags=re.M)):
        if i % 2:  # a fenced block, its info string on the first line
            info, _, body = part.partition("\n")
            if info.strip() == "ini":
                named |= {line.split("=", 1)[0].strip() for line in body.splitlines() if "=" in line.split("#", 1)[0]}
            continue
        for span in re.findall(r"`([^`]+)`", part):
            named |= {span} & bare
            for name in re.findall(r"[a-z0-9_]+(?:\.[a-z0-9_]+)+", span):
                parts = name.split(".")
                if parts[0] in sections and parts[-1] not in FILE_SUFFIXES:
                    named.add(name)
    return named


def test_checker_reads_the_readme_keys():
    known = {"params.gamma", "cutoff.lambda", "run.snapshot_dt", "w.n", "outputs"}
    readme = (
        "Run `coagsim stationary`; it writes `stationary.json`, whose\n"
        "`setup.cutoff` records the cutoff, and `run.snapshot_dt = 0` writes one\n"
        "snapshot; `outputs` names the directory and `coagsim.measure` the module.\n"
        "\n"
        "```ini\n"
        "params.gamma   = 0.0     # degree = 0\n"
        "cutoff.lambda  = 1e-3\n"
        'cutoff.profile = "cubic" # a key the parser refuses\n'
        "# w.n = 3\n"
        "```\n"
        "\n"
        "```python\n"
        "cfg.raw['w.n'] = `w.n`\n"
        "```\n"
    )
    named = readme_config_keys(readme, known)
    assert named == {"params.gamma", "cutoff.lambda", "cutoff.profile", "run.snapshot_dt", "outputs"}
    assert named - known == {"cutoff.profile"} and known - named == {"w.n"}


def test_readme_names_every_config_key_and_no_other():
    # a key the README names but the parser refuses is documentation of a
    # setting that is gone; a key it never names is a setting nobody finds
    _, known, _ = config_keys((SRC / "config.py").read_text(), [])
    named = readme_config_keys(README.read_text(), known)
    assert sorted(named - known) == []
    assert sorted(known - named) == []


def readme_flags(readme):
    """The command-line flags that a README's "Command-line interface"
    section names, in its prose and its code blocks alike."""
    section = readme.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))


def parser_flags(cli_source):
    """The option strings that the function main passes to add_argument."""
    main = next(n for n in ast.parse(cli_source).body if isinstance(n, ast.FunctionDef) and n.name == "main")
    return {
        arg.value
        for node in ast.walk(main)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("-")
    }


def test_checker_reads_the_readme_flags():
    readme = (
        "# tool\n"
        "\n"
        "Pass `--verbose` for progress.\n"
        "\n"
        "## Command-line interface\n"
        "\n"
        "```sh\n"
        "tool check --config run.cfg --tolerance 1e-4\n"
        "```\n"
        "\n"
        "Flags: `--config PATH` and `--out DIR`; `dual-check` and `profile-w` are commands.\n"
        "\n"
        "## Config format\n"
        "\n"
        "Set `--seed` nowhere.\n"
    )
    cli = (
        "def helper(p):\n"
        "    p.add_argument('--debug')\n"
        "def main(argv=None):\n"
        "    p = make()\n"
        "    p.add_argument('--config', required=True, metavar='PATH')\n"
        "    p.add_argument('-o', '--out', help='--not-a-flag')\n"
        "    p.add_argument(dest='command')\n"
    )
    named, known = readme_flags(readme), parser_flags(cli)
    assert named == {"--config", "--tolerance", "--out"}
    assert known == {"--config", "-o", "--out"}
    assert named - known == {"--tolerance"}


def test_readme_names_the_cli_flags_and_no_other():
    # a flag the README shows but the parser lacks is a usage error for
    # whoever copies it; a flag it never names is a setting nobody finds
    known = parser_flags((SRC / "cli.py").read_text())
    named = readme_flags(README.read_text())
    assert sorted(named - known) == []
    assert sorted(known - named) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope):
    """The names a function, lambda or comprehension binds in its own
    scope: its arguments or comprehension targets, and its body's
    assignment, loop, with, except and nested definition targets.  An
    import binds none here, so a local import of a package definition
    still reads it."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        names = {arg.arg for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg] if arg}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        names, todo = set(), [g.target for g in scope.generators]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, _SCOPES):
            todo += ast.iter_child_nodes(node)
    return names


def scoped_reads(nodes):
    """The names the code under nodes reads: a bare read (Name) as the
    name, unless a function, lambda or comprehension around the read
    binds it, and an attribute read (obj.name) as ".name"."""
    out = set()

    def visit(node, local):
        if isinstance(node, _SCOPES):
            local = local | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add("." + node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    for node in nodes:
        visit(node, frozenset())
    return out


def unreached_definitions(sources, roots):
    """(module, line, name) of each public function, method or class of
    sources ({module: source}) that no chain of reads reaches from the
    names in roots.

    Reachability goes by name and scope: a top-level definition is
    reached when reached code reads its name, bare or as an attribute
    (mod.name), and a method only when it reads it as an attribute
    (obj.name); a bare name that the reading function binds (an argument,
    a local variable, a loop or comprehension target) reaches nothing.
    Then the names the definition's own code reads are reached.  The
    roots count as read both ways.  A top-level assignment reaches what
    its value reads, and the other top-level statements, which run at
    import, are reached.  A class holds its decorators, bases, fields and
    dunder methods; the methods of a class with a base class are its own
    too, since the base may call them.
    """
    defs, reads = [], {}
    todo = [key for name in roots for key in (name, "." + name)]

    def add(key, nodes):
        reads.setdefault(key, set()).update(scoped_reads(nodes))

    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((mod, node.lineno, node.name, node.name))
                add(node.name, [node])
            elif isinstance(node, ast.ClassDef):
                defs.append((mod, node.lineno, node.name, node.name))
                own = [*node.decorator_list, *node.bases]
                for stmt in node.body:
                    if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not stmt.name.startswith("__") and not node.bases):
                        defs.append((mod, stmt.lineno, f"{node.name}.{stmt.name}", "." + stmt.name))
                        add("." + stmt.name, [stmt])
                    else:
                        own.append(stmt)
                add(node.name, own)
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
                for target in node.targets:
                    add(target.id, [node.value])
            else:
                todo += scoped_reads([node])
    seen = set()
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            # an attribute read reaches methods and module-level names alike
            todo += reads.get(key, set()) | reads.get(key.lstrip("."), set())
    return [
        (mod, line, qual)
        for mod, line, qual, key in defs
        if not key.lstrip(".").startswith("_") and "." + key.lstrip(".") not in seen and key not in seen
    ]


def readme_names(readme):
    """The identifiers a README shows in code: in its fenced blocks, below
    their info string, and in its inline code spans."""
    parts = re.split(r"^```", readme, flags=re.M)
    code = [p.partition("\n")[2] for i, p in enumerate(parts) if i % 2]
    code += [span for i, p in enumerate(parts) if not i % 2 for span in re.findall(r"`([^`]+)`", p)]
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def test_checker_flags_unreached_definitions():
    sources = {
        "cli.py": (
            "import argparse\n"
            "from .kernel import Spec, build\n"
            "_COMMANDS = {'run': lambda cfg: build(cfg).rate(2.0)}\n"
            "class _Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n"
            "        pass\n"
            "def main(argv=None):\n"
            "    return _COMMANDS[argv[0]](_Parser().parse_args(argv))\n"
            "def helper():\n"
            "    pass\n"
        ),
        "kernel.py": (
            "from dataclasses import dataclass\n"
            "TABLE = {'zero': 0.0}\n"
            "@dataclass\n"
            "class Spec:\n"
            "    value: float = TABLE['zero']\n"
            "    def __post_init__(self):\n"
            "        check(self.value)\n"
            "    def rate(self, x):\n"
            "        return self.value * x\n"
            "    def bound(self):\n"
            "        return 2.0 * self.value\n"
            "    def _scale(self):\n"
            "        return 1.0\n"
            "def check(x):\n"
            "    pass\n"
            "def build(cfg):\n"
            "    return Spec()\n"
            "def documented():\n"
            "    return dead()\n"
            "def dead():\n"
            "    pass\n"
            "def orphan():\n"
            "    return Spec().bound()\n"
        ),
    }
    assert unreached_definitions(sources, {"main"}) == [
        ("cli.py", 9, "helper"),
        ("kernel.py", 10, "Spec.bound"),
        ("kernel.py", 18, "documented"),
        ("kernel.py", 20, "dead"),
        ("kernel.py", 22, "orphan"),
    ]
    readme = "Call `kernel.documented(x)`:\n\n```python\nfrom coagsim import helper\n```\n"
    assert readme_names(readme) == {"kernel", "documented", "x", "from", "coagsim", "import", "helper"}
    assert unreached_definitions(sources, {"main"} | readme_names(readme)) == [
        ("kernel.py", 10, "Spec.bound"),
        ("kernel.py", 22, "orphan"),
    ]


def test_checker_reads_no_definition_through_a_local_name():
    # a local variable, argument, comprehension target or nested function
    # that shares a definition's name is the reader's own; a method is
    # reached only as an attribute
    sources = {
        "cli.py": (
            "from .grid import Grid, total\n"
            "def main(argv=None):\n"
            "    reps = [float(a) for a in argv]\n"
            "    scale = 2.0\n"
            "    width = lambda span: span * scale\n"
            "    return total(Grid(reps).cells, width, [edge for edge in reps])\n"
        ),
        "grid.py": (
            "class Grid:\n"
            "    def __init__(self, reps):\n"
            "        self.data = reps\n"
            "    @property\n"
            "    def cells(self):\n"
            "        return len(self.data)\n"
            "    @property\n"
            "    def reps(self):\n"
            "        return self.data\n"
            "    def span(self):\n"
            "        return scale(self.data)\n"
            "def scale(x):\n"
            "    return x\n"
            "def edge(x):\n"
            "    return x\n"
            "def total(*parts):\n"
            "    size = len(parts)\n"
            "    def inner(k):\n"
            "        return k * size\n"
            "    return [inner(p) for p in parts]\n"
            "def inner(k):\n"
            "    return k\n"
            "def size():\n"
            "    return 0\n"
        ),
    }
    assert unreached_definitions(sources, {"main"}) == [
        ("grid.py", 8, "Grid.reps"),
        ("grid.py", 10, "Grid.span"),
        ("grid.py", 12, "scale"),
        ("grid.py", 14, "edge"),
        ("grid.py", 21, "inner"),
        ("grid.py", 23, "size"),
    ]
    # read as attributes, the same names reach the method and the functions
    sources["cli.py"] += "def extra(g, grid):\n    return g.reps, g.span(), grid.scale, grid.size()\n"
    assert unreached_definitions(sources, {"main", "extra"}) == [
        ("grid.py", 14, "edge"),
        ("grid.py", 21, "inner"),
    ]


def test_every_public_definition_is_reached_by_the_cli_or_the_readme():
    # a public function that only tests call is API nobody is told about;
    # it goes, or the README shows it
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    roots = {"main"} | readme_names(README.read_text())
    found = [f"{mod}:{line}: {name}" for mod, line, name in unreached_definitions(sources, roots)]
    assert found == []
