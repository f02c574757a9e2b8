"""Benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Runs the workload's studies (see studies.py)
one repetition at a time, each in a fresh child process (child.py) with the
BLAS/OpenMP thread count fixed before numpy loads, until the next
repetition would overrun T seconds; there is always at least one. Each
child reports its own set-up time and peak resident memory.

--trace 0 reports the end-to-end metrics, each the median over the
repetitions. --trace 1 makes each repetition an untraced pass followed by a
traced one (spans.py) and reports the per-layer metrics.

Every study is checked against its analytic truth, and every pass of the
run, traced or not, must write byte-identical CSVs. The table, the run's
environment and the CSV digests come first; the last line of standard
output is the JSON result. Exit code 1 means a check failed, 2 that the
benchmark could not run (then no result is printed).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
MAX_DIGITS = 16.0

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac",
    "eig_digits.srbf": "digits", "eig_digits.best": "digits",
}


class ChildFailed(RuntimeError):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(threads):
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # write no bytecode anywhere; every child compiles the package alike
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env, deadline, mode, *args):
    """Run child.py to completion and return its JSON result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before the next repetition")
    cmd = [sys.executable, "-s", str(HERE / "child.py"), repr(monotonic()),
           mode, *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} repetition passed the deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} repetition exited with code "
                          f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digits(err):
    if err <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(err))


def accuracy(one_pass, kind):
    """Digits of the SRBF study and of the workload's most accurate study;
    kind is "eig" or "vec"."""
    per_study = {s["label"]: digits(s[f"{kind}_err"])
                 for s in one_pass["studies"] if s["error"] is None}
    return per_study.get("srbf", 0.0), max(per_study.values(), default=0.0)


def summarize(samples):
    """(median, q1, q3, n) of a list of numbers."""
    med = statistics.median(samples)
    if len(samples) < 2:
        return med, med, med, len(samples)
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return med, q1, q3, len(samples)


def check(passes):
    """Failed-study messages plus a digest mismatch, if any."""
    problems = [f"{s['label']}: {s['error']}" for p in passes
                for s in p["studies"] if s["error"] is not None]
    first = passes[0]["digests"]
    if any(p["digests"] != first for p in passes[1:]):
        problems.append("passes with the same seed wrote different CSVs")
    return problems


def measure(args, env, deadline):
    """Run repetitions until the next one would overrun --seconds."""
    spawn(env, deadline, "setup")     # fills the page cache; not reported
    reps = []
    t0 = monotonic()
    stop = min(t0 + args.seconds, deadline)
    while True:
        rep = [spawn(env, deadline, "run", args.workload, args.seed)]
        if args.trace:
            rep.append(spawn(env, deadline, "trace", args.workload,
                             args.seed))
        reps.append(rep)
        now = monotonic()
        if now + (now - t0) / len(reps) > stop:
            break
    setups = [rep[0]["setup_s"] for rep in reps]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(env, deadline, "setup")["setup_s"])
    return reps, setups


def main(argv=None):
    started = monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "manifold_rbf" / "__init__.py").is_file():
        print(f"no manifold_rbf sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    try:
        reps, setups = measure(args, child_env(threads),
                               started + DEADLINE_S)
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    plain = [rep[0] for rep in reps]
    passes = [p for rep in reps for p in rep]
    attempted = sum(len(p["studies"]) for p in passes)
    failed = sum(s["error"] is not None for p in passes for s in p["studies"])
    if args.trace:
        traced = [rep[1] for rep in reps]
        units = traced[0]["units"]
        samples = {name: [t["layers"][name] for t in traced]
                   for name in traced[0]["layers"]}
        samples["bench.trace_overhead_s"] = [
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
        vec = [accuracy(t, "vec") for t in traced]
        samples["spectral.vec_digits.srbf"] = [v[0] for v in vec]
        samples["spectral.vec_digits.best"] = [v[1] for v in vec]
    else:
        units = END_TO_END_UNITS
        eig = [accuracy(p, "eig") for p in plain]
        samples = {"wall_s": [p["wall_s"] for p in plain],
                   "setup_s": setups,
                   "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
                   "ok_frac": [(attempted - failed) / attempted],
                   "eig_digits.srbf": [e[0] for e in eig],
                   "eig_digits.best": [e[1] for e in eig]}

    metrics = {}
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for name, values in samples.items():
        med, q1, q3, n = summarize(values)
        metrics[name] = {"value": med, "unit": units[name]}
        print(f"{name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>4}  "
              f"{units[name]}")
    print("studies: " + json.dumps(plain[0]["studies"]))
    print("env: " + json.dumps(dict(plain[0]["env"], workload=args.workload,
                                    seed=args.seed, repetitions=len(reps))))
    print("digests: " + json.dumps(plain[0]["digests"], sort_keys=True))
    if args.trace and reps[0][1]["absent"]:
        print("absent wrapped names: " + ", ".join(reps[0][1]["absent"]))
    problems = check(passes)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
