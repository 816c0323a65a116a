"""Flat key-value run configuration: parsing, validation, serialization.

The on-disk format is a line-oriented dialect chosen to stay diff-friendly
and nesting-free:

    line       :=  [assignment] [comment]
    assignment :=  key "=" value
    key        :=  segment ("." segment)*      segment = [a-z0-9_]+
    value      :=  scalar ("," scalar)*        two or more -> tuple
    scalar     :=  "true" | "false" | number | '"' text '"' | bare-word
    comment    :=  "#" anything                (outside quoted text)

Numbers parse as int when they look integral, float otherwise; bare words
that are not numbers or booleans are strings; text values may not contain
a double quote or a comma.  All physical quantities are dimensionless
(self-similar
variables throughout), so keys carry no unit suffixes.
parse_config/dumps_config round-trip exactly: floats are serialized with
repr.

Recognized sections (unknown keys in them are rejected, which catches
typos; whole unknown sections are rejected too):

    params.gamma params.rho params.delta params.r0
    cutoff.lambda cutoff.profile
    kernel.family kernel.gamma kernel.alpha kernel.value
    grid.x_min grid.x_max grid.ratio
    run.t_final run.snapshot_dt run.tol run.t_max run.max_change
    stationary.lambdas stationary.probe_radii
    dual.radius dual.time dual.max_change dual.dump_s
    w.a w.y_min w.y_max w.n w.y_values
    outputs seed
"""

import re
from dataclasses import dataclass

from .kernel import CutoffParams, KernelSpec
from .measure import Params

CONFIG_SCHEMA_VERSION = 1

_KEY_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
_INT_RE = re.compile(r"^[+-]?\d+$")

_KNOWN_KEYS = {
    "params": {"gamma", "rho", "delta", "r0"},
    "cutoff": {"lambda", "profile"},
    "kernel": {"family", "gamma", "alpha", "value"},
    "grid": {"x_min", "x_max", "ratio"},
    "run": {"t_final", "snapshot_dt", "tol", "t_max", "max_change"},
    "stationary": {"lambdas", "probe_radii"},
    "dual": {"radius", "time", "max_change", "dump_s"},
    "w": {"a", "y_min", "y_max", "n", "y_values"},
    "": {"outputs", "seed"},
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration (exit code 1)."""


def _parse_scalar(tok, key, lineno):
    tok = tok.strip()
    if not tok:
        raise ConfigError(f"line {lineno}: empty value element for key {key!r}")
    if tok.startswith('"'):
        if not (tok.endswith('"') and len(tok) >= 2):
            raise ConfigError(f"line {lineno}: unterminated string for key {key!r}")
        return tok[1:-1]
    if tok == "true":
        return True
    if tok == "false":
        return False
    if _INT_RE.match(tok):
        return int(tok)
    try:
        return float(tok)
    except ValueError:
        return tok


def _strip_comment(line):
    # a '#' inside a quoted string is literal text, not a comment
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def parse_config(text):
    """Parse config text into an ordered {dotted key: value} mapping.

    Values are scalars (bool, int, float, str) or tuples of scalars for
    comma-separated lists.  Duplicate keys and malformed lines raise
    ConfigError with the line number.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: invalid key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parts = [_parse_scalar(tok, key, lineno) for tok in rhs.split(",")]
        out[key] = parts[0] if len(parts) == 1 else tuple(parts)
    return out


def load_config(path):
    """parse_config over the contents of a file."""
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _format_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    v = str(v)
    if v in ("true", "false") or _INT_RE.match(v) or "," in v or "#" in v or v != v.strip():
        return f'"{v}"'
    try:
        float(v)
    except ValueError:
        return v if v else '""'
    return f'"{v}"'


def dumps_config(mapping):
    """Serialize a mapping back to config text (inverse of parse_config)."""
    lines = []
    for key, value in mapping.items():
        vals = value if isinstance(value, tuple) else (value,)
        lines.append(f"{key} = {', '.join(_format_scalar(v) for v in vals)}")
    return "\n".join(lines) + "\n"


def _check_known(mapping):
    for key in mapping:
        section, _, leaf = key.rpartition(".")
        if section not in _KNOWN_KEYS or leaf not in _KNOWN_KEYS[section]:
            raise ConfigError(f"unknown config key {key!r}")


def _typed(mapping, key, kinds, default, label):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, kinds):
        raise ConfigError(f"key {key!r} must be {label}, got {v!r}")
    return v


def get_float(mapping, key, default=None):
    return float(_typed(mapping, key, (int, float), default, "a number"))


def get_int(mapping, key, default=None):
    return int(_typed(mapping, key, int, default, "an integer"))


def get_str(mapping, key, default=None):
    return str(_typed(mapping, key, str, default, "a string"))


def get_floats(mapping, key, default=None):
    """Tuple of floats from a scalar or comma-separated list value."""
    if key not in mapping:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    v = mapping[key]
    vals = v if isinstance(v, tuple) else (v,)
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in vals):
        raise ConfigError(f"key {key!r} must be a list of numbers, got {v!r}")
    return tuple(float(x) for x in vals)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by all commands.

    params/kernel/cutoff are the constructed domain objects; grid is
    (x_min, x_max, ratio); the run.* scalars drive forward evolution and
    the stationary search; raw retains the full parsed mapping so
    commands can read their own sections (stationary.*, dual.*, w.*).
    """

    params: Params
    kernel: KernelSpec
    cutoff: CutoffParams
    grid: tuple
    t_final: float
    snapshot_dt: float
    tol: float
    t_max: float
    max_change: float
    outputs: str
    seed: int
    raw: dict


def run_config(mapping):
    """Build and validate a RunConfig from a parsed mapping.

    Every domain invariant is re-validated here; violations surface as
    ConfigError naming the offending key(s).
    """
    _check_known(mapping)
    gamma = get_float(mapping, "params.gamma")
    rho = get_float(mapping, "params.rho")
    lam = get_float(mapping, "cutoff.lambda", 1e-3)
    try:
        params = Params(
            gamma=gamma,
            rho=rho,
            lam=lam,
            delta=get_float(mapping, "params.delta", 0.2),
            R0=get_float(mapping, "params.r0", 10.0),
        )
        cutoff = CutoffParams(lam=lam, profile=get_str(mapping, "cutoff.profile", "cubic"))
    except ValueError as exc:
        raise ConfigError(f"params/cutoff: {exc}") from exc
    family = get_str(mapping, "kernel.family")
    kgamma = get_float(mapping, "kernel.gamma", gamma)
    if kgamma != gamma:
        raise ConfigError(
            f"kernel.gamma = {kgamma} must equal params.gamma = {gamma}"
            " (the kernel homogeneity degree is a shared exponent)"
        )
    try:
        kernel = KernelSpec(
            family=family,
            gamma=kgamma,
            alpha=get_float(mapping, "kernel.alpha", 0.0),
            value=get_float(mapping, "kernel.value", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    grid = (
        get_float(mapping, "grid.x_min", 1e-4),
        get_float(mapping, "grid.x_max", 1e8),
        get_float(mapping, "grid.ratio", 2.0 ** (1.0 / 16.0)),
    )
    if not (0.0 < grid[0] < grid[1] and grid[2] > 1.0):
        raise ConfigError("grid: need 0 < x_min < x_max and ratio > 1")
    t_final = get_float(mapping, "run.t_final", 1.0)
    snapshot_dt = get_float(mapping, "run.snapshot_dt", 0.0)
    if t_final < 0.0 or snapshot_dt < 0.0:
        raise ConfigError("run: t_final and snapshot_dt must be >= 0")
    tol = get_float(mapping, "run.tol", 1e-4)
    t_max = get_float(mapping, "run.t_max", 40.0)
    max_change = get_float(mapping, "run.max_change", 0.05)
    if not (tol > 0.0 and t_max > 0.0 and 0.0 < max_change < 1.0):
        raise ConfigError("run: need tol > 0, t_max > 0 and 0 < max_change < 1")
    return RunConfig(
        params=params,
        kernel=kernel,
        cutoff=cutoff,
        grid=grid,
        t_final=t_final,
        snapshot_dt=snapshot_dt,
        tol=tol,
        t_max=t_max,
        max_change=max_change,
        outputs=get_str(mapping, "outputs", "out"),
        seed=get_int(mapping, "seed", 0),
        raw=dict(mapping),
    )
