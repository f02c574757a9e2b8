"""Command-line front end.

Subcommands:
  sample      draw a point cloud and write it as CSV
  tangent     estimate tangent projections, write them, print diagnostics
  spectrum    run one operator study at a single N
  converge    run a study over several N and fit the error slope
  compare-dm  symmetric RBF Laplacian vs the diffusion-maps baseline
  truth       tabulate analytic eigenvalues and multiplicities
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import zoo
from .harness import ExperimentConfig, run_experiment
from .tangent import (default_neighbor_count as tangent_default_K,
                      first_order_svd, projection_diagnostics,
                      second_order_svd)


_STUDY_DEFAULTS = {
    "method": "NRBF", "operator": "LB", "projection": "Analytic",
    "kernel": {"family": "gaussian", "s": 1.0, "pinv_tol": 1e-8},
    "density": "Uniform", "modes": 16, "seeds": [0],
    "sample_mode": "random_intrinsic", "compare_count": 12,
}
# sample and tangent draw a cloud without a study config
_DRAW_DEFAULTS = {"seed": _STUDY_DEFAULTS["seeds"][0],
                  "mode": _STUDY_DEFAULTS["sample_mode"]}


def _manifold_from_args(args):
    kind = args.manifold
    if kind == "ellipse":
        return zoo.Ellipse(args.a if args.a is not None else 2.0)
    if kind == "torus":
        return zoo.Torus(args.a if args.a is not None else 2.0)
    if kind == "general-torus":
        return zoo.GeneralTorus(args.a if args.a is not None else 2.0,
                                args.ambient_n)
    if kind == "flat-torus":
        return zoo.FlatTorus(args.flat_d, args.flat_m)
    if kind == "sphere":
        return zoo.Sphere()
    raise SystemExit(f"unknown manifold {kind!r}")


def _add_manifold_args(p):
    p.add_argument("--manifold", required=True,
                   choices=["ellipse", "torus", "general-torus",
                            "flat-torus", "sphere"])
    p.add_argument("--a", type=float, default=None,
                   help="radius ratio for ellipse/torus families")
    p.add_argument("--ambient-n", type=int, default=3,
                   help="ambient dimension for the general torus (odd)")
    p.add_argument("--flat-d", type=int, default=2)
    p.add_argument("--flat-m", type=int, default=1)


def _add_sampling_args(p):
    p.add_argument("--N", type=int, required=True)
    _add_draw_args(p)


def _add_draw_args(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", default=None,
                   choices=["random_intrinsic", "random_area", "grid"])


def _add_study_args(p):
    # study flags default to None so that entries of a --config file survive
    # the merge; _STUDY_DEFAULTS fills whatever neither of them sets
    p.add_argument("--method", default=None,
                   choices=["NRBF", "SRBF", "DM"])
    p.add_argument("--operator", default=None,
                   choices=["LB", "Bochner", "Hodge", "Lich", "Covariant"])
    p.add_argument("--projection", default=None,
                   choices=["Analytic", "FirstOrder", "SecondOrder"])
    p.add_argument("--kernel", default=None,
                   choices=["gaussian", "inverse_quadratic", "matern"])
    p.add_argument("--s", type=float, default=None, help="kernel shape")
    p.add_argument("--pinv-tol", type=float, default=None)
    p.add_argument("--density", default=None,
                   choices=["Analytic", "KDE", "Uniform"])
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--Np", type=int, default=None,
                   help="interpolation cloud size (defaults to N)")
    p.add_argument("--K", type=int, default=None,
                   help="neighbors for tangent estimation")
    p.add_argument("--compare-count", type=int, default=None)
    p.add_argument("--config", default=None,
                   help="JSON file with an experiment configuration; "
                        "command-line flags override its entries")
    p.add_argument("--out-dir", default="out")
    p.add_argument("--prefix", default="run")


def _given(pairs):
    return {k: v for k, v in pairs.items() if v is not None}


def _config_from_args(args, N_list):
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    flags = _given({
        "manifold": _manifold_from_args(args).to_dict(),
        "N_list": N_list,
        "method": args.method,
        "operator": args.operator,
        "projection": args.projection,
        "density": args.density,
        "modes": args.modes,
        "seeds": None if args.seed is None else [args.seed],
        "N_p": args.Np,
        "K": args.K,
        "sample_mode": args.mode,
        "compare_count": args.compare_count,
    })
    kernel_flags = _given({"family": args.kernel, "s": args.s,
                           "pinv_tol": args.pinv_tol})
    # flags override file entries; file supplies anything not given, and
    # the defaults whatever neither gives
    merged = {**_STUDY_DEFAULTS, **base, **flags}
    merged["kernel"] = {**_STUDY_DEFAULTS["kernel"], **base.get("kernel", {}),
                        **kernel_flags}
    return ExperimentConfig.from_dict(merged)


def cmd_sample(args):
    spec = _manifold_from_args(args)
    cloud = zoo.sample_manifold(spec, args.N, args.seed, mode=args.mode)
    cols = [cloud.points]
    names = [f"x{i + 1}" for i in range(spec.n)]
    if cloud.intrinsic is not None:
        cols.append(cloud.intrinsic)
        names += [f"theta{i + 1}" for i in range(cloud.intrinsic.shape[1])]
    data = np.hstack(cols)
    header = ("schema=points-v1\n"
              "manifold=" + json.dumps(spec.to_dict(), sort_keys=True) + "\n"
              + f"seed={args.seed}\n" + ",".join(names))
    np.savetxt(args.out, data, fmt="%.17g", delimiter=",", header=header)
    print(f"wrote {cloud.N} points in R^{spec.n} to {args.out}")


def cmd_tangent(args):
    spec = _manifold_from_args(args)
    sample_N = args.Np or args.N
    cloud = zoo.sample_manifold(spec, sample_N, args.seed, mode=args.mode)
    K = args.K or tangent_default_K(spec.d)
    query = np.arange(args.N) if sample_N > args.N else None
    est = first_order_svd(cloud, K, query_idx=query) if args.order == 1 \
        else second_order_svd(cloud, K, query_idx=query)
    est.save(args.out)
    sub = zoo.PointCloud(cloud.points[:args.N],
                         None if cloud.intrinsic is None
                         else cloud.intrinsic[:args.N], spec, args.seed,
                         mode=cloud.mode)
    truth = zoo.analytic_projection(sub)
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
    N_list = [int(v) for v in args.N_list.split(",")]
    config = _config_from_args(args, N_list)
    report = run_experiment(config)
    report.write(args.out_dir, prefix=args.prefix)
    for N, err in report.convergence:
        print(f"N={N}: mean error {err:.6e}")
    if report.slope is not None:
        print(f"fitted log-log slope: {report.slope:.3f}")
    print(f"outputs in {args.out_dir}")


def cmd_compare_dm(args):
    config = _config_from_args(args, [args.N])
    config.operator = "LB"
    config.method = "SRBF"
    rec_s = run_experiment(config).runs[0]
    cfg_dm = replace(config, method="DM",
                     **_given({"dm_K": args.dm_K, "dm_epsilon": args.epsilon}))
    rec_d = run_experiment(cfg_dm).runs[0]

    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, f"{args.prefix}_dm_table.csv")
    if rec_s.truth_vals is not None and rec_d.truth_vals is not None:
        count = min(len(rec_s.truth_vals), len(rec_d.truth_vals))
        rows = [(k, rec_s.truth_vals[k], rec_s.aligned_est_vals[k],
                 rec_d.aligned_est_vals[k]) for k in range(count)]
    else:
        sv = np.abs(rec_s.result.nontrivial_values())
        dv = np.abs(rec_d.result.nontrivial_values())
        count = min(config.compare_count, len(sv), len(dv))
        rows = [(k, float("nan"), sv[k], dv[k]) for k in range(count)]
    with open(out, "w") as fh:
        fh.write("# schema=dm-compare-v1\n")
        fh.write("# config=" + json.dumps(config.to_dict(), sort_keys=True)
                 + "\n")
        fh.write("mode,truth_value,srbf_value,dm_value\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g}\n")
    print(f"{'mode':>4} {'truth':>12} {'SRBF':>12} {'DM':>12}")
    for row in rows:
        print(f"{row[0]:>4} {row[1]:>12.6g} {row[2]:>12.6g} {row[3]:>12.6g}")
    print(f"table written to {out}")


def cmd_truth(args):
    spec = _manifold_from_args(args)
    if args.operator == "LB":
        truth = zoo.scalar_eigen_truth(spec, args.count)
    else:
        name = {"Bochner": "Bochner", "Hodge": "Hodge",
                "Lich": "Lichnerowicz"}[args.operator]
        truth = zoo.vector_eigen_truth(spec, name)
    lines = ["eigenvalue,multiplicity"]
    for lam, mult in truth.values[:args.count]:
        lines.append(f"{lam:.17g},{mult}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("# schema=truth-v1\n# manifold="
                     + json.dumps(spec.to_dict(), sort_keys=True) + "\n"
                     + text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


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
                   choices=["LB", "Bochner", "Hodge", "Lich"])
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_truth)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
