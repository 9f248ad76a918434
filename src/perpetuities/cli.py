"""Command line entry point for simulation, limits, verification, and demos.

Every emitted file embeds the resolved run configuration, and outputs
are byte-identical across reruns with the same configuration and seed,
independent of the job count.

Exit codes: 0 success, 1 configuration or usage error or any other
unexpected exception, 2 for a failing or degenerate verification.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigurationError, ParameterError, StatisticalError
from .functionals import (
    bundled_instance,
    check_conditions,
    convergence_demo,
    default_gamma,
    instance_names,
)
from .laws import (
    PRESET_NAMES,
    classify_regime,
    law_to_dict,
    preset_law,
)
from .limits import (
    LimitKind,
    PrmSpec,
    drift_marginal_cdf,
    extremal_path,
    peak_marginal_cdf,
    sample_prm,
)
from .simulate import (
    SimScenario,
    shared_batches,
    simulate_forward_chain_path,
    simulate_perpetuity_path,
    write_paths_csv,
)
from .verify import (
    DEFAULT_D_BOUND,
    TAG_RULES,
    canonical_tag,
    compatible_tags,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
    write_reports_csv,
    write_reports_json,
)

_LAW_OVERRIDE_KEYS = ("a", "c", "alpha", "beta", "m0", "q0")


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for failing verifications, so route misuse through the
    # configuration-error path instead
    def error(self, message):
        raise ConfigurationError(message)


# any other error makes argparse name the type function in its message
def _at_least_one(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _finite_floats(text):
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals or not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"must list finite values, got {text!r}")
    return vals


def _rounded_ints(text):
    return [int(round(v)) for v in _finite_floats(text)]


def _add_law_flags(p):
    p.add_argument("--law", choices=PRESET_NAMES)
    for key in _LAW_OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=float)


def _add_run_flags(p, T=1.0):
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--T", type=float, default=T)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--R", type=_at_least_one, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_at_least_one, default=1)
    p.add_argument("--out", type=str)
    p.add_argument("--threshold", type=float)
    p.add_argument("--config", type=str)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="perpetuities")
    sub = parser.add_subparsers(dest="command", parser_class=_CliParser)
    sub.required = True

    p = sub.add_parser("simulate", help="simulate chain paths to CSV")
    _add_law_flags(p)
    _add_run_flags(p)
    p.add_argument("--chain", choices=("backward", "forward"), default="backward")
    p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("limits", help="limit-process samples, paths, CDF tables")
    p.add_argument("mode", choices=("cdf", "prm", "path"))
    _add_run_flags(p)
    p.add_argument("--kind", type=str)
    p.add_argument("--ca", type=float,
                   help="tail-to-drift ratio c/a for the drift-family cdf")
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--xs", type=_finite_floats,
                   help="comma-separated evaluation points")

    p = sub.add_parser("verify", help="verification suite against limit laws")
    _add_law_flags(p)
    _add_run_flags(p, T=None)  # None: T falls back to u
    p.add_argument("--theorem", type=str)
    p.add_argument("--variant", type=str,
                   help="marginal tag behind a FunctionalSup check")

    p = sub.add_parser("theorem21", help="condition report and decay table")
    _add_run_flags(p, T=None)  # None: T falls back to the instance horizon
    p.add_argument("--instance", choices=instance_names(), default="mixed-sign")
    p.add_argument("--ns", type=_rounded_ints,
                   help="comma-separated stage sizes")
    p.add_argument("--gamma", type=float)

    p = sub.add_parser("classify", help="regime classification as JSON")
    _add_law_flags(p)
    _add_run_flags(p)

    return parser


def _config_flags(args) -> list:
    """The ``--config`` file's keys as ``--key=value`` flags.

    List values become comma lists and ``null`` values are left out, so
    the file passes the same type and choice checks as the command line.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {args.config}: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    flags = []
    for key, value in data.items():
        # an exact flag name only: argparse would accept a prefix of one
        if key == "config" or key.replace("-", "_") not in vars(args):
            raise ConfigurationError(f"unknown config key {key!r}")
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        if value is not None:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _resolve_law(args, default_preset=None):
    name = args.law or default_preset
    if name is None:
        raise ConfigurationError("a coefficient law is required; pass --law")
    overrides = {}
    for key in _LAW_OVERRIDE_KEYS:
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val
    return preset_law(name, **overrides)


def _resolved(args, law=None, **extra) -> dict:
    """Config dictionary embedded in every output file.

    The job count and output directory are omitted: neither affects
    any emitted value, and reruns that vary only those must stay
    byte-identical.  ``extra`` adds command-specific keys and may
    override the shared ones.
    """
    d = {
        "command": args.command,
        "version": __version__,
        "law": None if law is None else law_to_dict(law),
        "n": args.n,
        "T": args.T,
        "u": args.u,
        "R": args.R,
        "seed": args.seed,
        "threshold": args.threshold,
        **extra,
    }
    return {k: v for k, v in sorted(d.items()) if v is not None}


def _out_file(args, name: str):
    out = "." if args.out is None else args.out
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="")


def _config_line(args, law=None, **extra) -> str:
    return f"# config: {json.dumps(_resolved(args, law, **extra), sort_keys=True)}\n"


def _cmd_simulate(args) -> int:
    law = _resolve_law(args, "cauchy")
    scenario = SimScenario(law, args.n, T=args.T, x0=args.x0, seed=args.seed)
    simulate = (
        simulate_perpetuity_path if args.chain == "backward" else simulate_forward_chain_path
    )
    paths = [simulate(scenario, rep=r) for r in range(args.R)]
    with _out_file(args, "simulate_paths.csv") as fh:
        fh.write(_config_line(args, law, chain=args.chain, x0=args.x0))
        write_paths_csv(paths, fh)
    print(f"wrote {args.R} {args.chain} paths (n={args.n}, T={args.T})")
    return 0


_CDF_KINDS = ("thm11", "thm15")
_PATH_KINDS = {
    "backward": LimitKind.BACKWARD,
    "forward": LimitKind.FORWARD,
    "peak": LimitKind.PEAK,
}


def _cmd_limits(args) -> int:
    mode = args.mode
    if mode == "cdf":
        kind = "thm11" if args.kind is None else args.kind.lower()
        if kind not in _CDF_KINDS:
            raise ConfigurationError(f"--kind must be one of {_CDF_KINDS}, got {kind}")
        if args.xs is None:
            raise ConfigurationError("--xs is required here")
        if kind == "thm11":
            if args.ca is None:
                raise ConfigurationError("the drift-family cdf needs --ca")
            rows = [(x, float(drift_marginal_cdf(x, args.u, args.ca, 1.0))) for x in args.xs]
            extra = {"ca": args.ca}
        else:
            if args.alpha is None:
                raise ConfigurationError("the peak-family cdf needs --alpha")
            rows = [(x, float(peak_marginal_cdf(x, args.u, args.alpha))) for x in args.xs]
            extra = {"alpha": args.alpha}
        lines = ["x,F"] + [f"{x!r},{f!r}" for x, f in rows]
        if args.out is None:
            print("\n".join(lines))
        else:
            with _out_file(args, "limits_cdf.csv") as fh:
                fh.write(_config_line(args, mode=mode, kind=kind, xs=args.xs,
                                      grid_step=args.grid_step, **extra))
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(rows)} cdf rows")
        return 0

    alpha = 1.0 if args.alpha is None else args.alpha
    extra = {"mode": mode, "c": args.c, "alpha": alpha, "gamma": args.gamma,
             "grid_step": args.grid_step}
    spec = PrmSpec(c=args.c, alpha=alpha, T=args.T, gamma=args.gamma, seed=args.seed)
    if mode == "prm":
        with _out_file(args, "limits_prm.csv") as fh:
            fh.write(_config_line(args, **extra))
            fh.write("rep,time,mark\n")
            for r in range(args.R):
                pm = sample_prm(spec, rep=r)
                for t, y in zip(pm.times, pm.marks):
                    fh.write(f"{r},{float(t)!r},{float(y)!r}\n")
        print(f"wrote atom samples for {args.R} replications")
        return 0

    kind_name = "backward" if args.kind is None else args.kind.lower()
    if kind_name not in _PATH_KINDS:
        raise ConfigurationError(
            f"--kind must be one of {tuple(_PATH_KINDS)}, got {kind_name}"
        )
    kind = _PATH_KINDS[kind_name]
    step = args.grid_step if kind is LimitKind.FORWARD else None
    paths = []
    for r in range(args.R):
        pm = sample_prm(spec, rep=r)
        p = extremal_path(pm, kind, grid_step=step)
        p.meta["rep"] = r
        paths.append(p)
    with _out_file(args, "limits_paths.csv") as fh:
        fh.write(_config_line(args, kind=kind_name, **extra))
        write_paths_csv(paths, fh)
    print(f"wrote {args.R} {kind_name} limit paths")
    return 0


def _run_verification(args, T, law, tag, variant):
    common = dict(seed=args.seed, jobs=args.jobs)
    if tag == "ForwardBackwardEquality":
        return verify_forward_backward_equality(
            law, args.n, args.u, args.R, threshold=args.threshold, **common
        )
    if tag == "FunctionalSup":
        return verify_functional_sup(
            variant, law, args.n, T, args.R, threshold=args.threshold, **common
        )
    threshold = DEFAULT_D_BOUND if args.threshold is None else args.threshold
    return verify_marginal(tag, law, args.n, args.u, args.R, threshold=threshold, **common)


def _cmd_verify(args) -> int:
    tag = None if args.theorem is None else canonical_tag(args.theorem)
    preset = TAG_RULES[tag].preset if tag in TAG_RULES else "cauchy"
    law = _resolve_law(args, preset)
    variant = None
    if tag == "FunctionalSup" or tag is None:
        fallback = compatible_tags(law)
        variant = (
            canonical_tag(args.variant)
            if args.variant is not None
            else (fallback[0] if fallback else None)
        )
        if tag == "FunctionalSup" and variant is None:
            raise ConfigurationError(
                f"no marginal tag covers family {law.family}; "
                "FunctionalSup needs --variant"
            )
    T = args.u if args.T is None else args.T

    if tag is not None:
        tags = [tag]
    else:
        # full suite for this family: all compatible marginals (the
        # chainless sums have no time parameter, so only at u = 1) plus the
        # law-agnostic equality check and one functional-sup variant
        tags = [t for t in compatible_tags(law) if TAG_RULES[t].chain or args.u == 1.0]
        tags.append("ForwardBackwardEquality")
        if variant in TAG_RULES and TAG_RULES[variant].chain:
            tags.append("FunctionalSup")
    # the suite reads some batches twice (Thm11-forward and the equality
    # check, Thm11-backward and its sup), so they share one computation
    with shared_batches():
        reports = [_run_verification(args, T, law, t, variant) for t in tags]

    config = _resolved(args, law, T=T, theorem=tag, variant=variant)
    with _out_file(args, "verify_reports.json") as fh:
        write_reports_json(reports, fh, config=config)
    with _out_file(args, "verify_summary.csv") as fh:
        write_reports_csv(reports, fh, config=config)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.tag}: D={rep.D:.5f} threshold={rep.threshold:.5f} "
            f"degenerate={rep.degenerate} {status}"
        )
    return 0 if all(r.passed for r in reports) else 2


def _cmd_theorem21(args) -> int:
    ns = None if args.ns is None else tuple(args.ns)
    inst = bundled_instance(args.instance, ns=ns, seed=args.seed)
    horizon = float(inst.f_limit.horizon if args.T is None else args.T)
    gamma = args.gamma if args.gamma is not None else default_gamma(inst.nu_limit)
    config_line = _config_line(args, T=horizon, instance=args.instance, ns=ns,
                               gamma=float(gamma))

    report = check_conditions(inst, horizon, gamma)
    with _out_file(args, "theorem21_conditions.csv") as fh:
        fh.write(config_line)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "status", "detail"])
        writer.writerows(report.rows())
    for cname, status, _ in report.rows():
        print(f"{cname}: {status}")
    if report.has_fail:
        print("conditions failed; decay table withheld", file=sys.stderr)
        return 1

    rows = convergence_demo(inst, horizon, gamma=gamma)
    with _out_file(args, "theorem21_decay.csv") as fh:
        fh.write(config_line)
        fh.write("n,c_n,d_n\n")
        for n, c, d in rows:
            fh.write(f"{n},{float(c)!r},{float(d)!r}\n")
    print(f"decay table: d({rows[0][0]})={rows[0][2]:.3g} .. d({rows[-1][0]})={rows[-1][2]:.3g}")
    return 0


def _cmd_classify(args) -> int:
    law = _resolve_law(args)
    regime = classify_regime(law, rng=np.random.default_rng(args.seed))
    payload = dataclasses.asdict(regime)
    for key, value in payload.items():
        if isinstance(value, float) and math.isnan(value):
            payload[key] = None
        elif isinstance(value, tuple):
            payload[key] = list(value)
    doc = {"config": _resolved(args, law), "regime": payload}
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        with _out_file(args, "classify_regime.json") as fh:
            fh.write(text + "\n")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "limits": _cmd_limits,
    "verify": _cmd_verify,
    "theorem21": _cmd_theorem21,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's flags go first, so an explicit flag still wins
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return _HANDLERS[args.command](args)
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StatisticalError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
