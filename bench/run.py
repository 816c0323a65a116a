"""coagsim benchmark: CLI workloads timed end to end, plus a traced run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src.  Each CLI execution is a fresh process, one at a time (a closed
loop with one client), and every execution is checked: exit code, the
command's own verdicts in its manifest, and the SHA-256 of every artifact
against the first execution of the same source tree.

--trace 0 times the workload for --seconds (at least one execution) and
interleaves five set-up probes (fresh-process import of coagsim.cli plus
config load) with it; it reports the end-to-end metrics of
BENCHMARK.json as medians.  --trace 1 makes one untraced and one traced
execution (bench/trace_run.py) and reports the per-layer metrics.  The
seed only sets the order in which probes and executions interleave: the
inputs are fixed configs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Per-execution detail and the environment
go to the lines before it and to .bench_run/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_run"
DEADLINE_S = 170.0
SETUP_PROBES = 5

# workload -> (CLI command, manifest written by that command)
WORKLOADS = {
    "stationary-const": ("stationary", "stationary.json"),
    "continuation-coarse": ("stationary", "stationary.json"),
    "dual-check-const": ("dual-check", "dual_check.json"),
}

FLUX_GATE = 1e-2  # |residual_decay0| acceptance gate of the stationary search
# acceptance gates on the fitted tail (exponent within 0.02 of rho,
# amplitude within 5% of 1 - rho); reported, not enforced by the CLI
EXPONENT_GATE = 0.02
AMPLITUDE_GATE = 0.05

SETUP_PROBE = "import sys, coagsim.cli as c; c.run_config(c.load_config(sys.argv[1]))"
ENV_PROBE = """
import ctypes, json, platform
import numpy, scipy, coagsim.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = {}  # OpenBLAS library -> its thread count (numpy and scipy each load one)
for path in sorted({ln.split()[-1] for ln in open("/proc/self/maps") if "openblas" in ln}):
    lib = ctypes.CDLL(path)
    for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                "scipy_openblas_get_num_threads64_"):
        if hasattr(lib, sym):
            threads[path.rsplit("/", 1)[-1]] = getattr(lib, sym)()
            break
print(json.dumps({
    "coagsim_file": coagsim.cli.__file__,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_threads": threads,
}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, probe failed)."""


def _steal_ticks():
    # read-only: the steal column of the aggregate cpu line
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts one child at a time and measures it from outside."""

    def __init__(self, t_start):
        self.t_start = t_start
        self.env = _child_env()
        self.hz = os.sysconf("SC_CLK_TCK")

    def run(self, argv, log_path):
        """Run argv to completion; returns exit code, wall, cpu, rss, steal.

        A child still running at the benchmark's deadline is killed and
        reported with exit code None.
        """
        steal0 = _steal_ticks()
        t0 = perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, DEADLINE_S - (t0 - self.t_start)), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        killed = proc.returncode < 0
        return {
            "exit_code": None if killed else proc.returncode,
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "user_s": ru.ru_utime,
            "sys_s": ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "steal_s": (_steal_ticks() - steal0) / self.hz,
        }


def _digest_tree(*roots):
    h = hashlib.sha256()
    for root in roots:
        for p in sorted(root.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _digest_files(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


class Reference:
    """First-seen values per source tree, kept across benchmark runs.

    The first execution of a source tree records its artifact digests
    (and the first traced run its counts); every later one must match.
    """

    def __init__(self, source_digest, workload):
        self.dir = STATE / "ref" / source_digest[:16]
        self.workload = workload

    def check(self, kind, values):
        """Return the keys whose value differs from the reference."""
        path = self.dir / f"{self.workload}.{kind}.json"
        if not path.exists():
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(values, sort_keys=True, indent=1))
            tmp.replace(path)
            return []
        ref = json.loads(path.read_text())
        return sorted(k for k in set(ref) | set(values) if ref.get(k) != values.get(k))


def check_execution(workload, exit_code, out_dir, reference):
    """Verdicts of one execution: (list of failure reasons, accuracy dict)."""
    if exit_code is None:
        return ["killed at the benchmark deadline"], {}
    reasons = [] if exit_code == 0 else [f"exit code {exit_code}"]
    manifest_path = out_dir / WORKLOADS[workload][1]
    if not manifest_path.exists():
        return reasons + [f"no manifest {manifest_path.name}"], {}
    manifest = json.loads(manifest_path.read_text())
    if manifest["command"] == "stationary":
        rho = manifest["setup"]["params"]["rho"]
        res = manifest["results"]
        flux = [abs(v) for r in res for v in r["residual_decay0"].values()]
        acc = {
            "tail_exponent_err": max(abs(r["tail_exponent_fit"] - rho) for r in res),
            "tail_amplitude_err": max(abs(r["tail_amplitude_fit"] / (1.0 - rho) - 1.0) for r in res),
            "flux_residual_max": max(flux),
        }
        acc["accuracy_gate_frac"] = max(
            acc["tail_exponent_err"] / EXPONENT_GATE,
            acc["tail_amplitude_err"] / AMPLITUDE_GATE,
            acc["flux_residual_max"] / FLUX_GATE,
        )
        if not all(r["converged"] for r in res):
            reasons.append("not converged")
        if acc["flux_residual_max"] > FLUX_GATE:
            reasons.append(f"flux residual {acc['flux_residual_max']:.3g} > {FLUX_GATE:g}")
    else:
        tol = manifest["tolerance"]
        acc = {"adjoint_residual": manifest["adjoint_residual"]}
        acc["accuracy_gate_frac"] = acc["adjoint_residual"] / tol
        if acc["adjoint_residual"] > tol:
            reasons.append(f"adjoint residual {acc['adjoint_residual']:.3g} > {tol:g}")
    # only a passing execution may become the reference
    changed = [] if reasons else reference.check("artifacts", _digest_files(out_dir))
    if changed:
        reasons.append(f"artifacts differ from the first execution: {', '.join(changed)}")
    return reasons, acc


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(runner, work):
    """Warm-up probe (untimed): fills bytecode caches, records versions."""
    rec = runner.run([sys.executable, "-c", ENV_PROBE], work / "env_probe.log")
    text = (work / "env_probe.log").read_text()
    if rec["exit_code"] != 0:
        raise BenchError(f"cannot import coagsim from {SRC}:\n{text}")
    env = json.loads(text.strip().splitlines()[-1])
    if not Path(env["coagsim_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"coagsim resolved to {env['coagsim_file']}, not under {SRC}")
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")), None)
    env.update(nproc=os.cpu_count(), cpu_model=cpu, machine=platform.machine(), git_sha=_git_sha(),
               OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
               OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"))
    return env


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def timed_metrics(executions, setups, end_to_end):
    """End-to-end metrics: medians over the executions and set-up probes."""
    values = {
        "wall_s": [e["wall_s"] for e in executions],
        "cpu_s": [e["cpu_s"] for e in executions],
        "peak_rss_mb": [e["peak_rss_mb"] for e in executions],
        "setup_s": setups,
        "accuracy_gate_frac": [e["accuracy"]["accuracy_gate_frac"] for e in executions if e["accuracy"]],
    }
    return {k: {"value": statistics.median(values[k]), "unit": u} for k, u in end_to_end.items() if values.get(k)}


def traced_metrics(executions, per_layer, reference):
    """Per-layer metrics of the traced execution, after checking that its
    counts repeat those of the first traced run of this source tree."""
    plain = next(e for e in executions if not e["traced"])
    traced = next(e for e in executions if e["traced"])
    layers = traced.get("layers")
    if not layers or traced["reasons"]:
        return {}
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    counts = {k: v for k, v in layers.items() if per_layer.get(k) in ("count", "bytes")}
    mismatch = reference.check("counts", counts)
    if mismatch:
        traced["reasons"].append(f"determinism failure, counts differ: {', '.join(mismatch)}")
    return {k: {"value": layers[k], "unit": u} for k, u in per_layer.items() if k in layers}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = perf_counter()
    if not (SRC / "coagsim" / "cli.py").is_file():
        raise BenchError(f"no coagsim source tree at {SRC}")
    end_to_end, per_layer = load_metric_specs()
    command, _ = WORKLOADS[args.workload]
    config = BENCH / "configs" / f"{args.workload}.cfg"
    work = STATE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(t_start)
    env = environment(runner, work)
    source_digest = _digest_tree(SRC, BENCH)
    env["source_digest"] = source_digest
    reference = Reference(source_digest, args.workload)
    print("env:", json.dumps(env, sort_keys=True), flush=True)
    rng = random.Random(args.seed)

    executions, setups = [], []

    def execute(traced=False):
        k = len(executions)
        out_dir = work / f"out{k}"
        result = work / f"trace{k}.json"
        cli_argv = [command, "--config", str(config), "--out", str(out_dir)]
        if traced:
            argv = [sys.executable, str(BENCH / "trace_run.py"), str(result)] + cli_argv
        else:
            argv = [sys.executable, "-m", "coagsim.cli"] + cli_argv
        rec = runner.run(argv, work / f"exec{k}.log")
        rec["traced"] = traced
        rec["reasons"], rec["accuracy"] = check_execution(args.workload, rec["exit_code"], out_dir, reference)
        if traced and result.exists():
            rec["layers"] = json.loads(result.read_text())["metrics"]
        elif traced:
            rec["reasons"].append("traced run wrote no result")
        executions.append(rec)
        print("execution:", json.dumps({k: v for k, v in rec.items() if k != "layers"}), flush=True)

    def setup_probe():
        rec = runner.run([sys.executable, "-c", SETUP_PROBE, str(config)], work / f"setup{len(setups)}.log")
        if rec["exit_code"] != 0:
            raise BenchError(f"set-up probe failed:\n{(work / f'setup{len(setups)}.log').read_text()}")
        setups.append(rec["wall_s"])

    if args.trace:
        order = [False, True]
        rng.shuffle(order)
        for traced in order:
            execute(traced)
    else:
        plan = [setup_probe] * SETUP_PROBES + [execute]
        rng.shuffle(plan)
        t_loop = perf_counter()
        for step in plan:
            step()
        # keep going while --seconds is not used up and one more execution
        # (at 1.5 times the last one's wall time) fits before the deadline
        while (perf_counter() - t_loop < args.seconds
               and perf_counter() - t_start + 1.5 * executions[-1]["wall_s"] < DEADLINE_S):
            execute()

    if args.trace:
        metrics = traced_metrics(executions, per_layer, reference)
    else:
        metrics = timed_metrics(executions, setups, end_to_end)
    failed = [e for e in executions if e["reasons"]]
    wanted = per_layer if args.trace else end_to_end
    missing = sorted(set(wanted) - set(metrics))
    correct = not failed and not missing
    for e in failed:
        print(f"failed execution: {'; '.join(e['reasons'])}", file=sys.stderr)
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "executions": executions, "setup_s": setups, "metrics": metrics}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(executions), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
