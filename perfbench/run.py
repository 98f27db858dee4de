"""The repository benchmark: one command, three workloads, one result line.

    python3 perfbench/run.py --workload train-filtered --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` sets the workload up
several times (its ``SETUP_REPEATS``; the median is ``setup_s``), then
measures untraced for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` measures untraced for ``--seconds``, then repeats the same
operations with every layer's entry points wrapped in spans, prints the
per-layer metrics, and writes the spans as a Chrome trace to
``.perfbench_work/trace-<workload>-<seed>.json``.  Every workload
reports every metric ``BENCHMARK.json`` declares for the mode.  Either
way the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The command exits 0 only if every correctness check passed.  See
``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the models' matrices are 64 wide, where a second
# BLAS thread only adds synchronisation (a train step is faster without
# it), and it leaves the second core to the merge pool and serve workers.
# Set before NumPy is first imported; the provenance line reports it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-filtered", "recover-parity", "serve-mixed")


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program() -> None:
    """Put ``src`` on the path and import every module of the program.

    Importing everything before any wrapper is installed means every
    module binding of a wrapped function exists when the probes look for
    it, and none is created (holding a wrapper) while they are in place.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        __import__(info.name)


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, read from the loaded library if possible."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np

    status = _git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
    }


def _workload(name: str):
    import recover_parity
    import serve_mixed
    import train_filtered

    return {m.NAME: m for m in (train_filtered, recover_parity, serve_mixed)}[name]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _declared(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[section]}


def _as_declared(metrics, section: str):
    """``metrics`` in the manifest's order, checked against it.

    Every end-to-end metric must be measured.  A per-layer metric of a
    layer the workload never reaches reads 0, as its layer shares do.  A
    metric the manifest does not declare, or declares in another unit,
    is a mistake in the benchmark and raises.
    """
    from common import Metrics

    declared = _declared(section)
    for name, m in metrics.items():
        if declared.get(name) != m["unit"]:
            raise RuntimeError(f"{name} [{m['unit']}] is not a {section} metric of BENCHMARK.json")
    missing = [name for name in declared if name not in metrics]
    if missing and section == "end_to_end":
        raise RuntimeError(f"end-to-end metrics not measured: {', '.join(missing)}")
    ordered = Metrics()
    for name, unit in declared.items():
        ordered[name] = metrics.get(name, {"value": 0.0, "unit": unit})
    return ordered


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    from common import Metrics, peak_rss_mb, put_layer_shares
    from stats import median, mix_median, tail
    from tracer import Probes, Tracer

    wl = _workload(args.workload)
    base = Path.cwd() / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    metrics, notes = Metrics(), []
    info = provenance(args)
    try:
        if args.trace == 0:
            took, state = [], None
            for i in range(wl.SETUP_REPEATS):
                # Drop the previous set-up first, so the peak RSS holds one.
                state = None
                gc.collect()
                t0 = time.perf_counter()
                state = wl.setup(_fresh(work / f"setup-{i}"), args.seed)
                took.append(time.perf_counter() - t0)
                if i < wl.SETUP_REPEATS - 1:
                    shutil.rmtree(work / f"setup-{i}")
            gc.collect()
            run = wl.measure(state, seconds=args.seconds, seed=args.seed)
            op_ms, write_mb = run.data["op_ms"], run.data["write_mb"]
            kinds = run.data.get("op_kind", [wl.OP] * len(op_ms))
            metrics.put("setup_s", median(took), "s")
            metrics.put("peak_rss_mb", peak_rss_mb(), "MiB")
            metrics.put("op_ms_p50", mix_median(op_ms, kinds), "ms")
            metrics.put("ckpt_mb_per_write", sum(write_mb) / len(write_mb), "MiB")
            notes.append(f"{len(op_ms)} operations ({wl.OP}), {len(write_mb)} checkpoint "
                         f"writes, set-up median of {len(took)}")
            metrics = _as_declared(metrics, "end_to_end")
            result_run = run
        else:
            state = wl.setup(_fresh(work / "untraced"), args.seed)
            gc.collect()
            untraced = wl.measure(state, seconds=args.seconds, seed=args.seed)
            state = wl.setup(_fresh(work / "traced"), args.seed)
            gc.collect()
            tracer = Tracer(spill_dir=_fresh(work / "spans"))
            with Probes(tracer, wl.PROBES) as probes:
                traced = wl.measure(state, seconds=args.seconds, ops=untraced.ops,
                                    seed=args.seed, tracer=tracer)
            tracer.collect_spilled()
            probes.check_fired(wl.REQUIRED)
            op_ms = untraced.data["op_ms"]
            metrics.put("op_ms_mean", sum(op_ms) / len(op_ms), "ms")
            t = tail(op_ms)
            metrics.put("op_ms_tail", max(op_ms) if t is None else t.value, "ms")
            notes.append("op_ms_tail is " + (f"the maximum of {len(op_ms)} samples"
                                             if t is None else t.describe("ms")))
            put_layer_shares(tracer.spans, wl.ROOT, traced.ops, metrics)
            metrics.put("trace.overhead_pct", 100.0 * (
                traced.wall_s / traced.ops / (untraced.wall_s / untraced.ops) - 1.0), "%")
            wl.per_layer(untraced, traced, tracer, metrics, notes)
            trace_path = tracer.export_chrome(base / f"trace-{args.workload}-{args.seed}.json")
            notes.append(f"trace: {trace_path}")
            result_run = traced
            result_run.attempted += untraced.attempted
            result_run.failed += untraced.failed
            result_run.problems += untraced.problems
            metrics.put("failed_ratio", result_run.failed / result_run.attempted, "ratio")
            metrics = _as_declared(metrics, "per_layer")
    except Exception:
        traceback.print_exc()
        print(json.dumps({"provenance": info}), flush=True)
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info["notes"] = notes
    for problem in result_run.problems:
        print(f"FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload:>15}  {name:<32} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"{'':>15}  {note}")
    print(json.dumps({"provenance": info}))
    correct = result_run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result_run.attempted,
        "failed": result_run.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
