"""One repetition of a benchmark workload, in a fresh process.

    python child.py SPAWNED MODE [WORKLOAD SEED]

SPAWNED is the CLOCK_MONOTONIC reading the parent took just before it
started this process; set-up time runs from there until numpy, scipy and
manifold_rbf are imported and the first LAPACK calls have returned. MODE is
`setup` (stop there), `run` (one untraced pass) or `trace` (one traced
pass). The result is one JSON line on standard output.

The parent fixes the BLAS thread count and PYTHONPATH in the environment,
so both are in place before numpy loads.
"""

import json
import os
import resource
import sys
import time

import numpy as np
import scipy.linalg

import manifold_rbf
import spans
import studies


def _blas(config):
    return config["Build Dependencies"]["blas"].get("version", "unknown")


def environment():
    return {
        "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas(np.show_config(mode="dicts")),
        "scipy_openblas": _blas(scipy.show_config(mode="dicts")),
    }


def run(mode, workload, seed, work_root):
    tracer = None
    if mode == "trace":
        with spans.Tracer() as tracer:
            wpass = studies.run_pass(workload, seed, work_root)
    else:
        wpass = studies.run_pass(workload, seed, work_root)
    out = {
        "wall_s": wpass.wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "studies": [{"label": s.label, "method": s.method,
                     "error": s.error, "eig_err": s.eig_err,
                     "vec_err": s.vec_err, "warnings": s.warnings}
                    for s in wpass.studies],
        "digests": wpass.digests,
    }
    if tracer is not None:
        out["layers"] = spans.per_layer_metrics(tracer, wpass)
        out["units"] = spans.PER_LAYER_UNITS
        out["absent"] = tracer.absent
    return out


def main():
    spawned, mode = float(sys.argv[1]), sys.argv[2]
    np.linalg.eigh(np.eye(2))
    scipy.linalg.eigh(np.eye(2))
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if os.path.commonpath([src, os.path.abspath(manifold_rbf.__file__)]) \
            != src:
        sys.exit(f"manifold_rbf was imported from {manifold_rbf.__file__}, "
                 f"not from {src}")
    out = {"setup_s": setup_s, "env": environment()}
    if mode != "setup":
        work_root = os.path.join(root, ".bench_build", "tmp")
        os.makedirs(work_root, exist_ok=True)
        out.update(run(mode, sys.argv[3], int(sys.argv[4]), work_root))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
