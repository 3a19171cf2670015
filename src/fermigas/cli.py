"""Command-line front door.

Subcommands: lattice-info, lune, momentum, momentum-sum, energy,
dv-compare, verify.  Each takes only the options it reads.  JSON is the
canonical output; lune and dv-compare also print CSV.  Numeric output is
deterministic for a given command line (fixed reduction order, seeded
Monte Carlo).

Exit codes: 0 success, 1 verify failure, 2 configuration error,
3 flagged non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import dvlimit, energy, momentum, verify
from .lattice import TailPolicy, fermi_ball, lune_points
from .potential import Potential, coulomb, load_table, validate
from .potential import zero as zero_potential
from .potential import yukawa


class ConfigError(ValueError):
    pass


def parse_vec(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"expected an integer triple 'x,y,z', got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad integer triple {text!r}") from exc


def parse_potential(spec: str) -> Potential:
    """Parse "coulomb:g=1", "yukawa:g=1,mu=0.5", "table:PATH", or "zero"."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "zero":
            return zero_potential()
        if kind == "table":
            if not rest:
                raise ConfigError("table potential needs a path: table:PATH")
            return load_table(rest)
        kv = {}
        for item in rest.split(",") if rest else []:
            key, _, val = item.partition("=")
            if not _:
                raise ConfigError(f"bad potential parameter {item!r}")
            kv[key.strip()] = float(val)
        if kind == "coulomb":
            return coulomb(kv.pop("g", 1.0))
        if kind == "yukawa":
            return yukawa(kv.pop("g", 1.0), kv.pop("mu", 1.0))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad potential spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown potential kind {kind!r}")


def _potential(args) -> Potential:
    """The --potential of a subcommand, checked against the hypotheses."""
    pot = parse_potential(args.potential)
    report = validate(pot, cutoff_radius=max(4, int(2 * args.kf)))
    if not report.ok:
        raise ConfigError(f"potential violates the hypotheses: offenders "
                          f"{[list(o) for o in report.offenders[:5]]}")
    return pot


def _policy(args) -> TailPolicy:
    return TailPolicy(k_max=args.k_max, tail_tol=args.tail_tol,
                      max_doublings=args.max_doublings)


def _json_default(x):
    if hasattr(x, "item"):
        return x.item()
    raise TypeError(f"not JSON serializable: {type(x)}")


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True, default=_json_default))


def cmd_lattice_info(args) -> int:
    cfg = fermi_ball(args.kf)
    _emit({"k_f": cfg.k_f, "n_particles": cfg.n_particles, "kappa": cfg.kappa,
           "r2": cfg.r2})
    return 0


def cmd_lune(args) -> int:
    cfg = fermi_ball(args.kf)
    k = parse_vec(args.k)
    pts, gaps = lune_points(k, cfg)
    if args.format == "csv":
        print("px,py,pz,lambda")
        for p, lam in zip(pts.tolist(), gaps.tolist()):
            print(f"{p[0]},{p[1]},{p[2]},{lam!r}")
    else:
        _emit({"k": list(k), "dim": len(pts), "points": pts.tolist(),
               "lambdas": gaps.tolist()})
    return 0


def cmd_momentum(args) -> int:
    cfg = fermi_ball(args.kf)
    pot = _potential(args)
    row = momentum.n_point(parse_vec(args.xi), cfg, pot, _policy(args),
                           route=args.route, quad_tol=args.quad_tol)
    _emit(row.to_json_dict())
    return 0 if row.converged else 3


def cmd_momentum_sum(args) -> int:
    cfg = fermi_ball(args.kf)
    pot = _potential(args)
    spec = args.observable
    try:
        if spec == "ball":
            obs = momentum.Observable.ball_indicator(cfg)
        elif spec.startswith("delta:"):
            obs = momentum.Observable.delta(parse_vec(spec[len("delta:"):]))
        elif spec.startswith("table:"):
            obs = momentum.Observable.load_table(spec[len("table:"):])
        else:
            raise ConfigError(f"unknown observable {spec!r} "
                              "(use ball | delta:X,Y,Z | table:PATH)")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    total, rows = momentum.n_weighted(obs, cfg, pot, _policy(args),
                                      route=args.route, quad_tol=args.quad_tol)
    _emit({"observable": spec, "value": total,
           "per_xi": [r.to_json_dict() for r in rows]})
    return 0 if all(r.converged for r in rows) else 3


def cmd_energy(args) -> int:
    cfg = fermi_ball(args.kf)
    pot = _potential(args)
    report = energy.energy_report(cfg, pot, _policy(args),
                                  quad_tol=args.quad_tol)
    _emit(report.to_json_dict())
    flags = report.tail_flags
    return 0 if flags["bos_converged"] and flags["ex_converged"] else 3


def cmd_dv_compare(args) -> int:
    cfg = fermi_ball(args.kf)
    pot = _potential(args)
    if pot.kind != "coulomb":
        raise ConfigError("dv-compare requires a coulomb potential")
    xi_list = [parse_vec(part) for part in args.xi_list.split(";") if part]
    if not xi_list:
        raise ConfigError("empty --xi-list")
    rows = dvlimit.compare_table(cfg, pot, xi_list, samples=args.samples,
                                 seed=args.seed)
    if args.format == "json":
        _emit([{"xi": list(r.xi), "n_b_disc": r.n_b_disc, "n_ex_disc": r.n_ex_disc,
                "n_b_dv": r.n_b_dv, "n_ex_dv": r.n_ex_dv,
                "ratio_b": r.ratio_b, "ratio_ex": r.ratio_ex} for r in rows])
    else:
        sys.stdout.write(dvlimit.rows_to_csv(rows))
    return 0


def cmd_verify(args) -> int:
    cfg = fermi_ball(args.kf)
    reports = verify.run_all(cfg, _potential(args))
    print(verify.reports_to_json(reports))
    return 1 if verify.any_failed(reports) else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fermigas",
        description="Mean-field electron gas: momentum distribution, "
                    "correlation energies, and identity checks.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, potential=True, sums=False, fmt=False):
        p.add_argument("--kf", type=float, required=True, help="Fermi momentum")
        if potential:
            p.add_argument("--potential", default="coulomb:g=1",
                           help="coulomb:g=G | yukawa:g=G,mu=M | table:PATH | zero")
        if sums:
            p.add_argument("--quad-tol", type=float, default=1e-9)
            p.add_argument("--k-max", type=int, default=None,
                           help="starting cutoff for truncated lattice sums")
            p.add_argument("--tail-tol", type=float, default=1e-6)
            p.add_argument("--max-doublings", type=int, default=5)
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("lattice-info", help="ball count and spectral midpoint")
    common(p, potential=False)
    p.set_defaults(fn=cmd_lattice_info)

    p = sub.add_parser("lune", help="points and gaps of one excitation lune")
    common(p, potential=False, fmt=True)
    p.add_argument("--k", required=True, help="momentum transfer, e.g. 1,0,0")
    p.set_defaults(fn=cmd_lune)

    p = sub.add_parser("momentum", help="occupancy record at one point")
    common(p, sums=True)
    p.add_argument("--xi", required=True, help="observable point, e.g. 1,1,0")
    p.add_argument("--route", choices=("auto", "spectral", "integral", "both"),
                   default="auto")
    p.set_defaults(fn=cmd_momentum)

    p = sub.add_parser("momentum-sum", help="weighted sum over an observable")
    common(p, sums=True)
    p.add_argument("--observable", default="ball",
                   help="ball | delta:X,Y,Z | table:PATH")
    p.add_argument("--route", choices=("auto", "spectral", "integral", "both"),
                   default="auto")
    p.set_defaults(fn=cmd_momentum_sum)

    p = sub.add_parser("energy", help="Fermi-state and correlation energies")
    common(p, sums=True)
    p.set_defaults(fn=cmd_energy)

    # outside the ball the k-sum is finite: no cutoff options
    p = sub.add_parser("dv-compare", help="discrete vs continuum table")
    common(p, fmt=True)
    p.add_argument("--xi-list", required=True,
                   help="semicolon-separated points, e.g. 2,0,0;0,3,0")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_dv_compare)

    p = sub.add_parser("verify", help="run the identity and bound checks")
    common(p)
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
