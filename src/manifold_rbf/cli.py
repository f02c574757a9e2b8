"""Command-line front end.

Subcommands, with the files they write [and the schema of each table]:
  sample      draw a point cloud: --out [points-v1]
  tangent     estimate tangent frames: --out [projection-v2: the index, then
              the row-major projector entries]; diagnostics on stdout
  spectrum    one operator study at a single N, into --out-dir:
              <prefix>_N<N>_seed<seed>_spectrum.csv [spectrum-v1] and, with
              a truth, _alignment.csv [alignment-v1]; <prefix>_convergence.csv
              [convergence-v1], <prefix>_runlog.jsonl, <prefix>_report.json
  converge    the same over several N, with the fitted error slope
  compare-dm  SRBF LB vs the diffusion-maps baseline: <prefix>_dm_table.csv
              in --out-dir and on stdout [dm-compare-v2]
  truth       analytic eigenvalues and multiplicities: --out or stdout
              [truth-v2]
Every table comes from spectral.write_table and reads back with
np.loadtxt(path, delimiter=","). A refused input or run prints
`manifold-rbf: error: <message>` on stderr and exits with status 2.

A study's values merge key by key, in the manifold and kernel blocks too:
flags over the --config file, the file over the command's study defaults.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import harness, rbf, vector_ops, zoo
from .harness import ExperimentConfig, run_experiment
from .spectral import write_table
from .tangent import projection_diagnostics

# the study defaults; sample draws a cloud without a study config
_DEFAULTS = ExperimentConfig(manifold=None, N_list=[])
_DRAW_DEFAULTS = {"seed": _DEFAULTS.seeds[0], "mode": _DEFAULTS.sample_mode}


def _manifold_block(args):
    return _given({"kind": args.manifold.replace("-", "_"), "a": args.a,
                   "n": args.ambient_n, "d": args.flat_d, "m": args.flat_m})


def _add_manifold_args(p):
    p.add_argument("--manifold", required=True,
                   choices=[kind.replace("_", "-") for kind in zoo.KINDS],
                   help="zoo kind; unset manifold flags take its defaults")
    p.add_argument("--a", type=float, help="ellipse semi-axis, torus ratio")
    p.add_argument("--ambient-n", type=int, help="general torus n (odd)")
    p.add_argument("--flat-d", type=int, help="flat torus dimension d")
    p.add_argument("--flat-m", type=int, help="flat torus harmonics m")


def _add_sampling_args(p):
    p.add_argument("--N", type=int, required=True)
    _add_draw_args(p)


def _add_draw_args(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", default=None, choices=zoo.SAMPLE_MODES)


def _add_study_args(p):
    # study flags default to None so that entries of a --config file survive
    # the merge; ExperimentConfig's defaults fill whatever neither sets
    p.add_argument("--method", default=None, choices=harness.METHODS)
    p.add_argument("--operator", default=None, choices=harness.OPERATORS)
    p.add_argument("--projection", default=None,
                   choices=harness.PROJECTIONS)
    p.add_argument("--kernel", default=None, choices=rbf.KERNELS)
    p.add_argument("--s", type=float, default=None, help="kernel shape")
    p.add_argument("--pinv-tol", type=float, default=None)
    p.add_argument("--density", default=None, choices=harness.DENSITIES)
    p.add_argument("--Np", type=int, default=None,
                   help="sample the tangent frames are estimated from; the "
                        "operator uses its first N points (defaults to N)")
    p.add_argument("--K", type=int, default=None,
                   help="neighbors for tangent estimation")
    p.add_argument("--compare-count", type=int, default=None,
                   help="modes compared with the truth, distinct values the "
                        "truth holds, and half the modes DM computes")
    p.add_argument("--config", default=None,
                   help="JSON file with an experiment configuration over "
                        "the study defaults; flags override its entries, "
                        "key by key in the manifold and kernel blocks too")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--prefix", default="run")


def _given(pairs):
    return {k: v for k, v in pairs.items() if v is not None}


def _config_from_args(args, N_list, **study):
    file = {}
    if args.config:
        with open(args.config) as fh:
            file = json.load(fh)
        if not isinstance(file, dict):
            raise ValueError(f"the config file {args.config} does not hold "
                             f"a JSON object")
        for key in ("manifold", "kernel"):
            if not isinstance(file.get(key, {}), dict):
                raise ValueError(f"the config file's {key!r} entry is not a "
                                 f"JSON object")
    flags = _given({
        "manifold": _manifold_block(args),
        "kernel": _given({"family": args.kernel, "s": args.s,
                          "pinv_tol": args.pinv_tol}),
        "N_list": N_list,
        "method": args.method,
        "operator": args.operator,
        "projection": args.projection,
        "density": args.density,
        "seeds": None if args.seed is None else [args.seed],
        "N_p": args.Np,
        "K": args.K,
        "sample_mode": args.mode,
        "compare_count": args.compare_count,
        "dm_K": getattr(args, "dm_K", None),        # compare-dm's own flags
        "dm_epsilon": getattr(args, "epsilon", None),
    })
    kind = file.get("manifold", {}).get("kind", flags["manifold"]["kind"])
    if kind != flags["manifold"]["kind"]:
        raise ValueError(f"the config file's manifold kind {kind!r} is not "
                         f"--manifold {args.manifold}")
    merged = {**study, **file, **flags}
    blocks = {"manifold": {}, "kernel": _DEFAULTS.kernel.to_dict()}
    for key, default in blocks.items():    # the same rule inside a block
        merged[key] = {**default, **file.get(key, {}), **flags[key]}
    return ExperimentConfig.from_dict(merged)


def cmd_sample(args):
    spec = zoo.ManifoldSpec.from_dict(_manifold_block(args))
    cloud = zoo.sample_manifold(spec, args.N, args.seed, mode=args.mode)
    cols = [cloud.points]
    names = [f"x{i + 1}" for i in range(spec.n)]
    if cloud.intrinsic is not None:
        cols.append(cloud.intrinsic)
        names += [f"theta{i + 1}" for i in range(cloud.intrinsic.shape[1])]
    write_table(args.out, "points-v1",
                [{"manifold": spec.to_dict()}, {"seed": args.seed}], names,
                np.hstack(cols))
    print(f"wrote {cloud.N} points in R^{spec.n} to {args.out}")


def cmd_tangent(args):
    # the frame field of a study with this projection; it compares no modes
    config = ExperimentConfig(
        manifold=zoo.ManifoldSpec.from_dict(_manifold_block(args)),
        N_list=[args.N],
        projection=("FirstOrder", "SecondOrder")[args.order - 1],
        N_p=args.Np, K=args.K, sample_mode=args.mode, compare_count=1)
    config.validate()
    op_cloud, est = harness.build_projection(config, args.N, args.seed)
    write_table(args.out, "projection-v2",
                [{"source": est.source, "K_used": est.K_used},
                 {"manifold": config.manifold.to_dict()}, {"seed": args.seed}],
                ["index", *(f"p{i + 1}_{j + 1}"
                            for i, j in np.ndindex(est.n, est.n))],
                np.c_[np.arange(est.N), est.mats.reshape(est.N, -1)])
    truth = zoo.analytic_projection(op_cloud)
    diag = projection_diagnostics(est, truth)
    for key, val in sorted(diag.items()):
        if np.ndim(val) == 0:
            print(f"{key}: {float(val):.6e}")


def cmd_spectrum(args):
    config = _config_from_args(args, [args.N])
    report = run_experiment(config)
    report.write(args.out_dir, prefix=args.prefix)
    rec = report.runs[0]
    if rec.result is not None:
        shown = rec.result.values[:min(10, len(rec.result.values))]
        print("leading eigenvalues:")
        for k, lam in enumerate(shown):
            print(f"  {k}: {lam.real:.8g}"
                  + (f" + {lam.imag:.3g}i" if abs(lam.imag) > 0 else ""))
    if rec.mode_errors is not None:
        print(f"mean eigenvalue error over {len(rec.mode_errors)} modes: "
              f"{np.mean(rec.mode_errors):.3e}")
    if rec.field_error is not None:
        print(f"covariant-derivative max component error: "
              f"{rec.field_error:.3e}")
    print(f"outputs in {args.out_dir}")


def cmd_converge(args):
    try:
        N_list = [int(v) for v in args.N_list.split(",")]
    except ValueError:
        raise ValueError(f"--N-list must be comma-separated integers, not "
                         f"{args.N_list!r}") from None
    config = _config_from_args(args, N_list)
    report = run_experiment(config)
    report.write(args.out_dir, prefix=args.prefix)
    for N, err in report.convergence:
        print(f"N={N}: mean error {err:.6e}")
    if report.slope is not None:
        print(f"fitted log-log slope: {report.slope:.3f}")
    print(f"outputs in {args.out_dir}")


def cmd_compare_dm(args):
    config = _config_from_args(args, [args.N], method="SRBF", operator="LB")
    if (config.method, config.operator) != ("SRBF", "LB"):
        raise ValueError(f"compare-dm compares SRBF LB with DM, not "
                         f"method={config.method} operator={config.operator}")
    dm = replace(config, method="DM")
    dm.validate()                  # refuse a bad graph before the SRBF run
    rec_s = run_experiment(config).runs[0]
    rec_d = run_experiment(dm).runs[0]

    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, f"{args.prefix}_dm_table.csv")
    if rec_s.truth_vals is not None:      # the two runs share their truth
        rows = [(k, rec_s.truth_vals[k], rec_s.aligned_est_vals[k],
                 rec_d.aligned_est_vals[k])
                for k in range(config.compare_count)]
    else:
        sv = np.abs(rec_s.result.nontrivial_values())
        dv = np.abs(rec_d.result.nontrivial_values())
        count = min(config.compare_count, len(sv), len(dv))
        rows = [(k, float("nan"), sv[k], dv[k]) for k in range(count)]
    for target in (out, sys.stdout):
        write_table(target, "dm-compare-v2", [{"config": config.to_dict()}],
                    ["mode", "truth_value", "srbf_value", "dm_value"], rows)
    print(f"table written to {out}")


def cmd_truth(args):
    spec = zoo.ManifoldSpec.from_dict(_manifold_block(args))
    truth = zoo.study_truth(spec, args.operator, args.count)
    if truth is None:
        raise ValueError(f"the zoo holds no {args.operator} truth for the "
                         f"{spec.kind}")
    write_table(args.out or sys.stdout, "truth-v2",
                [{"manifold": spec.to_dict()}, {"operator": args.operator}],
                ["eigenvalue", "multiplicity"], truth.values[:args.count])
    if args.out:
        print(f"wrote {args.out}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="manifold-rbf",
        description="mesh-free differential operators on embedded manifolds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a point cloud")
    _add_manifold_args(p)
    _add_sampling_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample, **_DRAW_DEFAULTS)

    p = sub.add_parser("tangent", help="estimate tangent projections")
    _add_manifold_args(p)
    _add_sampling_args(p)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--order", type=int, default=2, choices=[1, 2])
    p.add_argument("--Np", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tangent, **_DRAW_DEFAULTS)

    p = sub.add_parser("spectrum", help="one operator study at a single N")
    _add_manifold_args(p)
    _add_sampling_args(p)
    _add_study_args(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("converge", help="error slope over several N")
    _add_manifold_args(p)
    p.add_argument("--N-list", required=True,
                   help="comma-separated cloud sizes, e.g. 512,1024,2048")
    _add_draw_args(p)
    _add_study_args(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("compare-dm",
                       help="symmetric RBF vs diffusion-maps baseline")
    _add_manifold_args(p)
    _add_sampling_args(p)
    _add_study_args(p)
    p.add_argument("--dm-K", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_compare_dm)

    p = sub.add_parser("truth", help="analytic eigenvalue tables")
    _add_manifold_args(p)
    p.add_argument("--operator", default="LB",
                   choices=["LB", *vector_ops.LAPLACIANS])
    p.add_argument("--count", type=int, default=20,
                   help="distinct eigenvalues, each with its multiplicity")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_truth)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, harness.MemoryRefusal) as exc:
        print(f"manifold-rbf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
