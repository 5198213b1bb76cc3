"""Benchmark CLI: `cca-bench generate|run|compare`."""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import io
from .harness import SOLVERS, SolverConfig, parse_config_file, run_experiment
from .kernels import KernelSpec
from .planted import PlantedParams, generate_planted
from .stochastic import StepSchedule


def _add_run_flags(p):
    """One flag per SolverConfig field (``--lambda`` for ``lam``), parsed by its config type,
    so a bad value fails before any run; then the data and output flags."""
    p.add_argument("--config", help="flat key=value config file; flags override")
    for name, typ in _CONFIG_TYPES.items():
        p.add_argument("--lambda" if name == "lam" else "--" + name.replace("_", "-"),
                       dest=name, type=typ, choices=_CHOICES.get(name), help=_HELP.get(name))
    p.add_argument("--x", dest="x_path", help="path to the X view")
    p.add_argument("--y", dest="y_path", help="path to the Y view")
    p.add_argument("--format", choices=["csv", "matrix-market"], default="csv")
    p.add_argument("--report", help="write the run report here")
    p.add_argument("--trace", help="write the (FLOP, PCC) trace here")
    p.add_argument("--model-prefix", help="write PHI/PSI matrices with this prefix")


# each SolverConfig field parses with its annotated type, except the kernel spec
_CONFIG_TYPES = {f.name: f.type for f in fields(SolverConfig)} | {"kernel": KernelSpec.parse}
_CHOICES = {"solver": list(SOLVERS), "schedule": StepSchedule.KINDS}
_HELP = {"kernel": "linear | rbf:SIGMA | polynomial:DEGREE:OFFSET"}


def build_config(args):
    cfg = SolverConfig()
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _CONFIG_TYPES[key](raw))
    for key in _CONFIG_TYPES:
        if getattr(args, key, None) is not None:  # flags, parsed already, override the file
            setattr(cfg, key, getattr(args, key))
    return cfg


def _load_views(args):
    if not args.x_path or not args.y_path:
        raise SystemExit("run/compare need --x and --y data paths")
    X = io.load_dataset(args.x_path, args.format)
    Y = io.load_dataset(args.y_path, args.format)
    return X.values, Y.values


def cmd_generate(args):
    rho = tuple(float(v) for v in args.correlations.split(","))
    params = PlantedParams(
        n=args.n, p1=args.p1, p2=args.p2, correlations=rho,
        noise=args.noise, cond_x=args.cond, cond_y=args.cond,
    )
    inst = generate_planted(params, seed=args.seed)
    io.save_csv(args.x_out, inst.x)
    io.save_csv(args.y_out, inst.y)
    if args.truth_prefix:
        io.save_model_matrix(f"{args.truth_prefix}.phi.txt", inst.model.phi)
        io.save_model_matrix(f"{args.truth_prefix}.psi.txt", inst.model.psi)
    print(f"wrote {args.x_out} ({args.n}x{args.p1}) and {args.y_out} ({args.n}x{args.p2})")
    return 0


def cmd_run(args):
    cfg = build_config(args)
    X, Y = _load_views(args)
    result = run_experiment(
        cfg, x=X, y=Y,
        report_path=args.report, trace_path=args.trace,
        model_prefix=args.model_prefix,
    )
    print(f"solver={cfg.solver} k={cfg.k} seed={cfg.seed}")
    print(f"tcc={result.tcc_train:.6f}")
    if np.isfinite(result.pcc_train):
        print(f"pcc={result.pcc_train:.6f}")
    if np.isfinite(result.pcc_holdout):
        print(f"pcc_holdout={result.pcc_holdout:.6f}")
    return 0


def cmd_compare(args):
    X, Y = _load_views(args)
    solvers = args.solvers.split(",")
    print(f"{'solver':<20} {'tcc':>12} {'pcc':>12}")
    for name in solvers:
        cfg = build_config(args)
        cfg.solver = name.strip()
        result = run_experiment(cfg, x=X, y=Y)
        pcc_txt = f"{result.pcc_train:.6f}" if np.isfinite(result.pcc_train) else "-"
        print(f"{cfg.solver:<20} {result.tcc_train:>12.6f} {pcc_txt:>12}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cca-bench",
                                     description="CCA solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a planted synthetic instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p1", type=int, required=True)
    g.add_argument("--p2", type=int, required=True)
    g.add_argument("--correlations", required=True, help="e.g. 0.9,0.7,0.5")
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--cond", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--x", dest="x_out", required=True)
    g.add_argument("--y", dest="y_out", required=True)
    g.add_argument("--truth-prefix")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run one solver and report metrics")
    _add_run_flags(r)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="run several solvers on the same data")
    _add_run_flags(c)
    c.add_argument("--solvers", required=True, help="comma-separated solver names")
    c.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
