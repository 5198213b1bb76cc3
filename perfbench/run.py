#!/usr/bin/env python3
"""ccakit benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload batch-rank5 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; ccakit is imported from ./src. The
workload's inputs are built from --seed (set-up), then operations run back to
back, each waiting for the previous one, until --seconds have passed; every
operation's outputs are checked. The last line of stdout is one JSON object
with "correct", "attempted", "failed" (failed_ops_frac = failed/attempted)
and "metrics".

--trace 0 reports the end-to-end metrics, measured with nothing patched:
  wall_s          median wall time of one operation
  setup_s         package import + median of the BUILDS input builds
                  (planted generation with its spectral oracle, CSV writing)
  peak_rss_mb     peak RSS of this process, which runs only this workload
  pcc_final       median final PCC against the spectral oracle over the solves
  iters_to_pcc95  median over solves of the iteration at which PCC reaches
                  0.95, interpolated between records (1 for one-shot solvers)
  ok_ops_frac     1 - failed/attempted

--trace 1 runs half the time untraced, then half traced, and reports the
per-layer metrics: for each function in TARGETS, calls and self time per
operation (self time = span time minus child spans), taken from spans that
wrappers installed from outside the package record; plus the tracing
overhead and how much of the traced wall time the self times account for.
Spans are written to perfbench/out/.

Which layer metric should move which end-to-end metric, on which workload:

  appgrad.step, appgrad.normalize (+ procrustes, extract_model, run self)
      -> wall_s on batch-rank5 (n-sized products dominate there)
  appgrad.default_step      -> wall_s on minibatch-m500 (and batch-rank5)
  stochastic.step, .sample, .run (self includes the X[idx] gather), .resamples
      -> wall_s on minibatch-m500
  linalg.sym_inv_sqrt       -> wall_s on minibatch-m500 (k x k algebra)
  linalg.gram, linalg.randomized_svd -> wall_s on csv-compare (p x p)
  metrics.tcc, metrics.pcc  -> wall_s on minibatch-m500; iters_to_pcc95 unaffected
  metrics.report_write, io.load_csv, io.save_model_matrix -> wall_s on csv-compare
  reference.*, baselines.*, kernels.*, harness.run_experiment
      -> wall_s on csv-compare
  planted.generate_planted  -> setup_s on every workload

batch-rank5 bypasses the CSV, reference and kernel layers; minibatch-m500
near-bypasses the n-sized step products; csv-compare runs appgrad only
inside the small kernel solve.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import ROOT, Tracer, changed_references, package_state, roots, self_times_ns

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

TARGETS = [
    ("appgrad.step", "ccakit.appgrad:appgrad_step"),
    ("appgrad.normalize", "ccakit.appgrad:normalize_columns"),
    ("appgrad.procrustes", "ccakit.appgrad:procrustes_distance"),
    ("appgrad.default_step", "ccakit.appgrad:default_step"),
    ("appgrad.extract_model", "ccakit.appgrad:extract_model"),
    ("appgrad.run", "ccakit.appgrad:run_appgrad"),
    ("stochastic.step", "ccakit.stochastic:stochastic_appgrad_step"),
    ("stochastic.sample", "ccakit.stochastic:_Sampler.next_batch"),
    ("stochastic.run", "ccakit.stochastic:run_stochastic"),
    ("linalg.sym_inv_sqrt", "ccakit.linalg:sym_inv_sqrt"),
    ("linalg.gram", "ccakit.linalg:gram"),
    ("linalg.randomized_svd", "ccakit.linalg:randomized_svd"),
    ("metrics.tcc", "ccakit.metrics:tcc"),
    ("metrics.pcc", "ccakit.metrics:pcc"),
    ("metrics.report_write", "ccakit.metrics:RunReport.write"),
    ("reference.spectral_cca", "ccakit.reference:spectral_cca"),
    ("reference.qr_cca", "ccakit.reference:qr_cca"),
    ("baselines.nw_cca", "ccakit.baselines:nw_cca"),
    ("baselines.dw_cca", "ccakit.baselines:dw_cca"),
    ("baselines.pca_cca", "ccakit.baselines:pca_cca"),
    ("kernels.kernel_gram", "ccakit.kernels:kernel_gram"),
    ("kernels.kernel_cca", "ccakit.kernels:kernel_cca"),
    ("io.load_csv", "ccakit.io:load_csv"),
    ("io.save_model_matrix", "ccakit.io:save_model_matrix"),
    ("harness.run_experiment", "ccakit.harness:run_experiment"),
    ("planted.generate_planted", "ccakit.planted:generate_planted"),
]
SETUP_LAYERS = {"planted.generate_planted"}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pcc_final": "ratio",
    "iters_to_pcc95": "iterations", "ok_ops_frac": "frac",
}
EXTRA_LAYER = {
    "appgrad.step.p50_ms": "ms", "stochastic.resamples": "count/op",
    "metrics.flops_to_pcc95": "flop", "io.load_csv.mb_per_s": "MB/s",
    "bench.self_s": "s/op", "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}
COVERAGE_TOL = 0.01
# One BLAS thread, within the nproc cap. The step's products are skinny
# (n x p times p x k); on a 2-vCPU host shared with other tenants, two BLAS
# threads made one batch solve swing between 4.1 and 6.5 s from run to run,
# one thread between 6.9 and 8.0 s.
BLAS_THREADS = 1


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for label, _ in TARGETS:
        per = "setup" if label in SETUP_LAYERS else "op"
        units[f"{label}.calls"] = f"calls/{per}"
        units[f"{label}.self_s"] = f"s/{per}"
    units.update(EXTRA_LAYER)
    return units


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    """Thread count each bundled OpenBLAS reports, keyed by library file."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found or "unknown"


def llc_size():
    """Size of the last-level cache of CPU 0, as the kernel reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def import_package(root):
    """Import ccakit from the tree's own src/; returns the import time."""
    src = root / "src"
    if not (src / "ccakit" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'ccakit'} not found; run from a ccakit source tree")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import ccakit
    elapsed = time.perf_counter() - start
    if Path(ccakit.__file__).resolve().parent != (src / "ccakit").resolve():
        raise SystemExit(f"error: imported ccakit from {ccakit.__file__}, not {src}")
    return elapsed


def median(values):
    return float(statistics.median(values)) if values else 0.0


def run_ops(workload, inputs, seed, seconds, first, tracer=None):
    """Closed loop: start operations until `seconds` have passed (at least
    one). Returns (op walls, solves, op indices)."""
    walls, solves, indices = [], [], []
    start = time.perf_counter()
    i = first
    while not walls or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        if tracer is None:
            outs = workload.op(inputs, seed, i)
        else:
            with tracer.span("bench.op"):
                outs = workload.op(inputs, seed, i)
        walls.append(time.perf_counter() - t0)
        solves.extend(workload.check(inputs, i, outs))
        outs = None  # free this operation's results before the next one runs
        indices.append(i)
        i += 1
    return walls, solves, indices


def end_to_end(walls, solves, import_s, build_s):
    pccs = [s.pcc for s in solves if s.ok and s.solver != "kernel-appgrad"]
    iters = [s.iters_to_pcc95 for s in solves if s.ok and s.iters_to_pcc95 is not None]
    failed = sum(not s.ok for s in solves)
    return {
        "wall_s": median(walls),
        "setup_s": import_s + median(build_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pcc_final": median(pccs),
        "iters_to_pcc95": median(iters),
        "ok_ops_frac": 1.0 - failed / len(solves),
    }


def per_layer(tracer, walls_traced, walls_plain, solves, bytes_read, n_builds):
    spans = tracer.spans
    root_of = roots(spans)
    self_ns = self_times_ns(spans)
    root_name = {sid: name for sid, parent, name, _, _ in spans if parent == ROOT}
    calls, self_s, step_ms = {}, {}, []
    for sid, _, name, start, end in spans:
        phase = root_name[root_of[sid]]
        key = (name, phase)
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + self_ns[sid] / 1e9
        if name == "appgrad.step" and phase == "bench.op":
            step_ms.append((end - start) / 1e6)
    n_ops = len(walls_traced)
    out = {}
    for label, _ in TARGETS:
        phase, count = ("bench.setup", n_builds) if label in SETUP_LAYERS else ("bench.op", n_ops)
        out[f"{label}.calls"] = calls.get((label, phase), 0) / count
        out[f"{label}.self_s"] = self_s.get((label, phase), 0.0) / count
    iterations = sum(s.iterations for s in solves if s.solver == "stochastic-appgrad")
    load_s = sum((end - start) / 1e9 for sid, _, name, start, end in spans
                 if name == "io.load_csv" and root_name[root_of[sid]] == "bench.op")
    flops = [s.flops_to_pcc95 for s in solves if s.ok and s.flops_to_pcc95 is not None]
    out.update({
        "appgrad.step.p50_ms": median(step_ms),
        "stochastic.resamples": (calls.get(("stochastic.step", "bench.op"), 0) - iterations) / n_ops,
        "metrics.flops_to_pcc95": median(flops),
        "io.load_csv.mb_per_s": bytes_read / 1e6 / load_s if load_s else 0.0,
        "bench.self_s": self_s.get(("bench.op", "bench.op"), 0.0) / n_ops,
        "trace.overhead_frac": (median(walls_traced) - median(walls_plain)) / median(walls_plain),
        "trace.coverage_frac": sum(v for (_, phase), v in self_s.items() if phase == "bench.op")
                               / sum(walls_traced),
    })
    return out


def environment(workload, inputs):
    import numpy as np
    import scipy

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {side: f"{deps[side]['name']} {deps[side]['version']}" for side in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_force": blas_threads(),
        "llc": llc_size(),
        "working_set_mb_computed": workload.working_set_mb(inputs),
        "note": "the two 16 MB views fit in the LLC, so no bandwidth figure is reported",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    import_s = import_package(HERE.parent)

    from workloads import WORKLOADS, data_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    problems = []
    tracer = Tracer(TARGETS) if args.trace else None
    pristine = package_state()

    def unpatched():
        changed = changed_references(pristine, package_state())
        if changed:
            problems.append(f"tracer left {len(changed)} references patched: {changed[:3]}")

    try:
        inputs, build_s = [], []
        for data_seed in data_seeds(args.seed):
            t0 = time.perf_counter()
            if tracer is None:
                inputs.append(workload.build(data_seed, workdir))
            else:
                with tracer.active(), tracer.span("bench.setup"):
                    inputs.append(workload.build(data_seed, workdir))
                unpatched()
            build_s.append(time.perf_counter() - t0)

        if tracer is None:
            walls, solves, _ = run_ops(workload, inputs, args.seed, args.seconds, 0)
            metrics = end_to_end(walls, solves, import_s, build_s)
            units = END_TO_END
        else:
            plain, solves, done = run_ops(workload, inputs, args.seed, args.seconds / 2, 0)
            with tracer.active():
                traced, more, idx = run_ops(workload, inputs, args.seed, args.seconds / 2,
                                            done[-1] + 1, tracer)
            unpatched()
            solves += more
            walls = plain + traced
            bytes_read = sum(workload.bytes_read(inputs, i) for i in idx)
            metrics = per_layer(tracer, traced, plain, more, bytes_read, len(build_s))
            units = per_layer_units()
            if abs(metrics["trace.coverage_frac"] - 1.0) > COVERAGE_TOL:
                problems.append(f"self times cover {metrics['trace.coverage_frac']:.4f} "
                                "of the traced wall time")
            tracer.write_jsonl(OUT / f"{tag}.spans.jsonl")
        env = environment(workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [s for s in solves if not s.ok]
    for s in failed:
        print(f"FAILED {s.solver}: {s.error}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"env": env, "result": result, "failures": [vars(s) for s in failed],
                   "samples": {"op_wall_s": walls, "build_s": build_s, "import_s": import_s}},
                  fh, indent=1)
    print(f"env {json.dumps(env)}")
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {len(walls)} operations, "
          f"{len(solves)} solves attempted, "
          f"{len(failed)} failed, failed_ops_frac={len(failed) / len(solves):.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
