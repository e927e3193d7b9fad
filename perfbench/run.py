#!/usr/bin/env python3
"""trajtopo benchmark: CLI operations timed end to end, or traced by layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid_fresh --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Operations go through `trajtopo.cli.main` with real argv and config
files, in this one process, with `jobs=1` and BLAS at its default thread
count. `--trace 0` reports the end-to-end metrics; `--trace 1` wraps the
layers (see `layers.py`) and reports per-layer metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid_fresh", "grid_rerun", "stability_long", "stages_long")
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 5
MIN_OPS = 2

cli = None  # trajtopo.cli, imported once the source tree is found


def invoke(argv: list[str]) -> tuple[float, int | None, str]:
    """Run one CLI command in-process; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = None
    return time.perf_counter() - started, code, out.getvalue()


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def grid_config(s: int, small: bool = False) -> dict:
    """The grid workloads' `trajtopo run` config; `small` is the warm-up."""
    if small:
        return {"task": "logistic_regression", "input_dim": 64, "n_grid": [100],
                "eta_grid": [0.05], "seeds": [s], "iterations": 200, "warmup": 100,
                "subsample": 100, "pmag_scales": [100, 1000],
                "stability": {"seeds": [s], "iterations": 50}}
    return {"task": "logistic_regression", "input_dim": 64, "n_grid": [100, 400],
            "eta_grid": [0.05], "seeds": [s, s + 1, s + 2], "iterations": 2000,
            "warmup": 1500, "subsample": 600, "pmag_scales": [100, 1000],
            "stability": {"seeds": [s, s + 1, s + 2, s + 3]}}


class Workload:
    """One kind of operation; `operation()` returns (seconds, errors)."""

    reference_key: str

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.count = 0
        self.reference = checks.load_reference(self.reference_key, seed)
        self.outputs = None  # checked outputs of the last operation

    def check_code(self, code, argv) -> list[str]:
        return [] if code == 0 else [f"`trajtopo {argv[0]}` exited with {code}"]


class Grid(Workload):
    reference_key = "grid"
    cells = 6

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.config = write_json(workdir / "grid.json", grid_config(seed))
        self.report: dict[str, bytes] | None = None

    def setup_argv(self) -> list[str]:
        return ["run", "--config", str(self.config), "--out", str(self.workdir / "setup")]

    def run_grid(self, out: Path, computed: int) -> tuple[float, list[str]]:
        argv = ["run", "--config", str(self.config), "--out", str(out)]
        seconds, code, stdout = invoke(argv)
        errors = self.check_code(code, argv)
        if errors:
            return seconds, errors
        printed = json.loads(stdout)
        if (printed["cells_computed"], printed["cells_skipped"]) != (computed, self.cells - computed):
            errors.append(f"expected {computed} cells computed of {self.cells}, got {printed}")
        outputs = self.outputs = checks.grid_outputs(out)
        errors += checks.grid_invariants(out, outputs, self.cells)
        if self.reference is not None:
            errors += checks.diff(self.reference, outputs)
        report = tree_bytes(out / "report")
        if self.report is None:
            self.report = report
        elif report != self.report:
            errors.append("report/ files differ from the first operation's")
        return seconds, errors

    def warm_up_small(self, runs: int) -> list[str]:
        """`runs` scaled-down `trajtopo run` commands into one directory."""
        config = write_json(self.workdir / "warmup.json", grid_config(self.seed, small=True))
        argv = ["run", "--config", str(config), "--out", str(self.workdir / "warmup")]
        return [e for _ in range(runs) for e in self.check_code(invoke(argv)[1], argv)]


class GridFresh(Grid):
    """`trajtopo run` into an empty directory."""

    def warm_up(self) -> list[str]:
        return self.warm_up_small(1)

    def operation(self) -> tuple[float, list[str]]:
        out = self.workdir / f"fresh-{self.count}"
        self.count += 1
        try:
            return self.run_grid(out, computed=self.cells)
        finally:
            shutil.rmtree(out, ignore_errors=True)


class GridRerun(Grid):
    """`trajtopo run` again into a directory a fresh run finished."""

    def warm_up(self) -> list[str]:
        # A separate process prepares the finished directory, untimed, so
        # that peak RSS covers re-runs only. A scaled-down fresh run and
        # re-run then warm this process up.
        argv = [sys.executable, "-m", "trajtopo", "run", "--config", str(self.config),
                "--out", str(self.workdir / "rerun")]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            return [f"preparing `trajtopo run` exited with {proc.returncode}"]
        self.report = tree_bytes(self.workdir / "rerun" / "report")
        return self.warm_up_small(2)

    def operation(self) -> tuple[float, list[str]]:
        return self.run_grid(self.workdir / "rerun", computed=0)


class StabilityLong(Workload):
    """`trajtopo stability --config` at n=400 with four seeds."""

    reference_key = "stability_long"

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        s = seed
        self.config = write_json(workdir / "stability.json", {
            "task": "logistic_regression", "input_dim": 64, "n": 400,
            "seeds": [s, s + 1, s + 2, s + 3], "iterations": 1000})
        self.printed: str | None = None

    def setup_argv(self) -> list[str]:
        return ["stability", "--config", str(self.config)]

    def warm_up(self) -> list[str]:
        config = write_json(self.workdir / "warmup.json", {
            "task": "logistic_regression", "input_dim": 64, "n": 100,
            "seeds": [self.seed], "iterations": 100})
        _, code, _ = invoke(["stability", "--config", str(config)])
        return self.check_code(code, ["stability"])

    def operation(self) -> tuple[float, list[str]]:
        argv = self.setup_argv()
        seconds, code, stdout = invoke(argv)
        errors = self.check_code(code, argv)
        if errors:
            return seconds, errors
        reports = self.outputs = checks.stability_outputs(stdout)
        errors += checks.stability_invariants(reports, expected_reports=1)
        if self.reference is not None:
            errors += checks.diff(self.reference, reports)
        if self.printed is None:
            self.printed = stdout
        elif stdout != self.printed:
            errors.append("stability printout differs from the first operation's")
        return seconds, errors


class StagesLong(Workload):
    """traj-gen, distmat, lifetime-sum and pmag chained; one chain per operation."""

    reference_key = "stages_long"
    chains = 4
    scales = "1,100,1000"

    def __init__(self, workdir: Path, seed: int) -> None:
        super().__init__(workdir, seed)
        self.printed: dict[int, dict[str, str]] = {}
        self.outputs = {}

    def chain_argvs(self, offset: int) -> list[list[str]]:
        seed = str(self.seed + offset)
        out = self.workdir / "chain"
        return [
            ["traj-gen", "--task", "logistic_regression", "--n", "400", "--eta", "0.05",
             "--warmup", "20000", "--iterations", "5000", "--input-dim", "64",
             "--seed", seed, "--out", str(out)],
            ["distmat", str(out / "trajectory"), "--out", str(out / "distmat"),
             "--subsample", "1500", "--seed", seed],
            ["lifetime-sum", str(out / "distmat"), "--alpha", "1"],
            ["pmag", str(out / "distmat"), "--scales", self.scales],
        ]

    def setup_argv(self) -> list[str]:
        return self.chain_argvs(0)[0]

    def run_chain(self, offset: int) -> tuple[float, list[str]]:
        seconds, printouts = 0.0, {}
        for argv in self.chain_argvs(offset):
            elapsed, code, stdout = invoke(argv)
            seconds += elapsed
            errors = self.check_code(code, argv)
            if errors:
                return seconds, errors
            printouts[argv[0]] = stdout
        outputs = self.outputs[str(offset)] = checks.chain_outputs(printouts)
        errors = checks.chain_invariants(outputs, scales=len(self.scales.split(",")))
        if self.reference is not None:
            errors += checks.diff(self.reference[str(offset)], outputs, f"$.chain{offset}")
        if self.printed.setdefault(offset, printouts) != printouts:
            errors.append(f"chain {offset} printed other output than its first run")
        return seconds, errors

    def warm_up(self) -> list[str]:
        return self.run_chain(0)[1]

    def operation(self) -> tuple[float, list[str]]:
        offset = self.count % self.chains
        self.count += 1
        return self.run_chain(offset)


WORKLOAD_CLASSES = {
    "grid_fresh": GridFresh,
    "grid_rerun": GridRerun,
    "stability_long": StabilityLong,
    "stages_long": StagesLong,
}


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[:20]:
                print(f"check failed ({what}): {error}", file=sys.stderr)


def run_ops(workload, seconds: float, min_rounds: int, tally: Tally,
            per_round: int = 1, tracer=None, after_op=None):
    """At least `min_rounds` rounds of `per_round` operations, then more
    while the next round is expected to end within `seconds`. `after_op` is
    called after each operation, outside the timing and the `seconds`.

    Returns the wall time of each round and, when traced, its layer metrics."""
    walls, layer_rows = [], []
    busy = round_s = 0.0
    while len(walls) < min_rounds or busy + round_s <= seconds:
        if tracer is not None:
            tracer.reset()
        round_started = time.perf_counter()
        paused = wall = 0.0
        for _ in range(per_round):
            op_started = time.perf_counter()
            try:
                seconds_op, errors = workload.operation()
            except Exception:
                traceback.print_exc()
                seconds_op, errors = time.perf_counter() - op_started, ["operation raised"]
            tally.record(errors, "operation")
            wall += seconds_op
            if after_op is not None:
                pause_started = time.perf_counter()
                after_op()
                paused += time.perf_counter() - pause_started
        walls.append(wall)
        if tracer is not None:
            layer_rows.append(tracer.snapshot(wall))
        round_s = time.perf_counter() - round_started - paused
        busy += round_s
    return walls, layer_rows


def probe_setup(argv: list[str], root: Path) -> float:
    """Seconds from starting a fresh interpreter until the CLI is ready."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), *argv],
                          stdout=subprocess.PIPE, env=env, cwd=root, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _blas_libraries() -> list[dict]:
    """OpenBLAS libraries loaded in this process and their thread counts."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode(errors="replace")
        found.append(entry)
    return found


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    process_threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                process_threads = int(line.split()[1])
    blas = _blas_libraries()
    stamp = {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "os_threads": process_threads,
        "worker_processes": 1,  # operations run in this process
        "pool_workers": 1,  # jobs=1
        "git_sha": _git_sha(root),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }
    counts = {key: stamp[key] for key in ("worker_processes", "pool_workers")}
    counts.update({f"blas_threads[{b['library']}]": b.get("threads", 0) for b in blas})
    stamp["oversubscribed"] = sorted(k for k, v in counts.items() if v > nproc)
    return stamp


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workdir = root / WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOAD_CLASSES[name](workdir, seed)
        stamp = environment(root, seed)
        print("environment: " + json.dumps(stamp, sort_keys=True))
        if stamp["oversubscribed"]:
            print(f"warning: thread counts above nproc: {stamp['oversubscribed']}", file=sys.stderr)
        tally = Tally()
        tally.record(workload.warm_up(), "warm-up")
        correct = True
        if not trace:
            # set-up probes are spread over the run, between operations, so
            # their median does not rest on one stretch of machine noise
            setup = []

            def probe() -> None:
                if len(setup) < SETUP_PROBES:
                    setup.append(probe_setup(workload.setup_argv(), root))

            probe()
            walls, _ = run_ops(workload, seconds, MIN_OPS, tally, after_op=probe)
            while len(setup) < SETUP_PROBES:
                probe()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
            print(f"{name}: {len(walls)} operations, seed {seed}")
        else:
            # a round covers every distinct input once, so counts can repeat
            per_round = getattr(workload, "chains", 1)
            untraced, _ = run_ops(workload, seconds / 2, 1, tally, per_round)
            tracer = layers.Tracer()
            with tracer.installed():
                traced, rows = run_ops(workload, seconds / 2, MIN_OPS, tally, per_round, tracer)
            counts = [{k: row[k] for k in layers.COUNT_METRICS} for row in rows]
            if any(c != counts[0] for c in counts[1:]):
                correct = False
                print(f"trace self-check failed: computed counts differ between "
                      f"traced operations: {counts}", file=sys.stderr)
            metrics = {}
            for key in rows[0]:
                unit = ("s" if key.endswith("_s") else "ratio" if key.endswith("_ratio")
                        else "bytes" if key.startswith("artifacts.bytes") else "count")
                value = rows[0][key] if key in layers.COUNT_METRICS else \
                    statistics.median(row[key] for row in rows)
                metrics[key] = (value, unit)
            metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
            print(f"{name}: {len(untraced)} untraced and {len(traced)} traced rounds "
                  f"of {per_round} operations, seed {seed}")
        for key, (value, unit) in metrics.items():
            label = "  (computed)" if key in layers.COUNT_METRICS else ""
            print(f"  {key:28s} {value:>16.6g} {unit}{label}")
        print(f"  {'error_rate':28s} {tally.failed / tally.attempted:>16.6g} "
              f"({tally.failed} failed of {tally.attempted} attempted)")
        print(result_line(correct and tally.failed == 0, tally, metrics))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()


def run_all(args, root: Path) -> int:
    """Every workload in its own process; a table of the results."""
    rows, tally, metrics, correct = [], Tally(), {}, True
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        correct &= doc["correct"]
        tally.attempted += doc["attempted"]
        tally.failed += doc["failed"]
        for key, metric in doc["metrics"].items():
            metrics[f"{name}.{key}"] = (metric["value"], metric["unit"])
        rows.append((name, doc))
    if not args.trace:
        print(f"\n{'workload':16s} {'wall_s':>12s} {'setup_s':>12s} {'peak_rss_mb':>14s} {'error_rate':>11s}")
        for name, doc in rows:
            m = doc["metrics"]
            print(f"{name:16s} {m['wall_s']['value']:>10.4f} s {m['setup_s']['value']:>10.4f} s "
                  f"{m['peak_rss_mb']['value']:>11.1f} MB {doc['failed'] / doc['attempted']:>11.4g}")
    print(result_line(correct, tally, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    global cli
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed s; every input seed is offset by it")
    parser.add_argument("--seconds", type=float, default=16, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trajtopo" / "__init__.py").is_file():
        print(f"error: no trajtopo source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    sys.path.insert(0, str(root / "src"))
    from trajtopo import cli

    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
