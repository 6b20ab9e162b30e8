"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload sinan-social-diurnal --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  Prints the host record, one line per
metric (name, value, unit, better direction), the output digest, and as
the last line a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` adds a traced pass over the same episodes
and reports the per-layer metrics.  Exits 1 when an output check fails
and 2 when it refuses to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Ambient settings that would change what the benchmark measures.
GUARDED_ENV = (
    "REPRO_JOBS",
    "REPRO_WARM_POOL",
    "REPRO_SIM_PURE_NUMPY",
    "REPRO_BUDGET",
    "REPRO_MP_START",
    "REPRO_CACHE_DIR",
)

#: BLAS threads per process, pinned before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_process() -> str | None:
    """Pin the environment before numpy loads; the reason to refuse, if any."""
    ambient = [name for name in GUARDED_ENV if os.environ.get(name)]
    if ambient:
        return f"ambient {', '.join(ambient)} would change what is measured; unset it"
    if not (ROOT / "src" / "repro").is_dir():
        return f"no src/repro under {ROOT}: run from a full checkout"
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    # The compiled simulator kernel is cached under the temp directory;
    # keep it (and any other temp file) inside the checkout.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return None


def blas_record() -> dict:
    """OpenBLAS version and live thread count, read from the loaded library."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def host_record(c_kernel: bool, workers: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "sim_c_kernel": c_kernel,
        "workers": workers,
        "env": {name: os.environ.get(name) for name in GUARDED_ENV},
    }


def code_fingerprint() -> str:
    """sha256 of the package sources and the benchmark's own files."""
    hasher = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                hasher.update(str(path.relative_to(ROOT)).encode())
                hasher.update(path.read_bytes())
    return hasher.hexdigest()


def recorded_digest_error(workload: str, seed: int, digest: str) -> str | None:
    """Compare ``digest`` with an earlier run of the same code and seed.

    The first run of a (code, workload, seed) records its digest under
    ``.bench_build/digests``; every later run must reproduce it.
    """
    store = ROOT / ".bench_build" / "digests"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-s{seed}-{code_fingerprint()[:16]}"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != digest:
            return f"digest {digest[:16]} differs from an earlier run's {recorded[:16]}"
        return None
    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


def end_to_end_metrics(out) -> dict[str, float]:
    from perfbench import checks

    return {
        "setup_s": statistics.median(out.setup_s),
        "intervals_per_s": out.intervals / out.wall_s,
        "decide_ms_p50": checks.percentile(out.decide_ms, 50),
        "decide_ms_p99": checks.percentile(out.decide_ms, 99),
        "qos_fraction": out.sim["qos_fraction"],
        "mean_cpu_cores": out.sim["mean_cpu_cores"],
        "max_cpu_cores": out.sim["max_cpu_cores"],
        "peak_rss_mb": out.peak_rss_mb(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    refusal = prepare_process()
    if refusal is not None:
        print(f"perfbench: refusing to run: {refusal}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m for m in declared}

    from perfbench import layers, workloads
    from repro.sim._ckernel import load_kernel

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    c_kernel = load_kernel() is not None  # a build step, outside set-up timing
    if args.workload == workloads.MULTITENANT:
        workers = len(os.sched_getaffinity(0))
        out, traced = workloads.run_multitenant(
            args.seed, args.seconds, bool(args.trace), workers
        )
    else:
        workers = 1
        out, traced = workloads.run_sinan(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )

    runs = [out] if traced is None else [out, traced]
    if traced is None:
        metrics = end_to_end_metrics(out)
    else:
        metrics = layers.per_layer_metrics(
            out, traced, workloads.N_SETUPS, workers, c_kernel
        )
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json"
        )
    errors = [e for r in runs for e in r.errors]
    if traced is not None and traced.digest != out.digest:
        errors.append("tracing changed the outputs: traced digest differs")
    recorded = recorded_digest_error(args.workload, args.seed, out.digest)
    if recorded is not None:
        errors.append(recorded)
    correct = not errors

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host_record(c_kernel, workers), sort_keys=True))
    print(f"plan {json.dumps(workloads.seed_plan(args.workload, args.seed))}")
    for name, m in declared.items():
        print(f"{name:40s} {metrics[name]:14.6g} {m['unit']:8s} {m['better']}")
    print(f"decide() samples {len(out.decide_ms)}, set-ups {len(out.setup_s)}, "
          f"passes {out.passes}, intervals {out.intervals}")
    for r, kind in zip(runs, ("untraced", "traced")):
        print(f"digest {r.digest} ({kind}, {r.passes} pass(es))")
    for e in errors[:20]:
        print(f"CHECK FAILED {e}")
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": m["unit"]}
            for name, m in declared.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
