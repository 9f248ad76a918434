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

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    command: str
    law: dict | None
    n: int
    T: float
    u: float
    R: int
    seed: int
    jobs: int
    out: str | None
    threshold: float | None
    grid_step: float | None
    extra: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.R < 1 or self.jobs < 1:
            raise ConfigurationError(f"--R and --jobs must be >= 1, got {self.R}, {self.jobs}")

    def resolved(self) -> dict:
        """Config dictionary embedded in every output file.

        The job count and output directory are omitted: neither affects
        any emitted value, and reruns that vary only those must stay
        byte-identical.
        """
        d = {
            "command": self.command,
            "version": __version__,
            "law": self.law,
            "n": self.n,
            "T": self.T,
            "u": self.u,
            "R": self.R,
            "seed": self.seed,
            "threshold": self.threshold,
            "grid_step": self.grid_step,
        }
        d.update(self.extra)
        return {k: v for k, v in sorted(d.items()) if v is not None}


class _CliParser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for failing verifications, so route misuse through the
    # configuration-error path instead
    def error(self, message):
        raise ConfigurationError(message)


def _add_law_flags(p):
    p.add_argument("--law", choices=PRESET_NAMES, default=None)
    for key in _LAW_OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=float, default=None)


def _add_run_flags(p):
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--u", type=float, default=None)
    p.add_argument("--R", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--config", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="perpetuities")
    sub = parser.add_subparsers(dest="command", parser_class=_CliParser)
    sub.required = True

    p = sub.add_parser("simulate", help="simulate chain paths to CSV")
    _add_law_flags(p)
    _add_run_flags(p)
    p.add_argument("--chain", choices=("backward", "forward"), default=None)
    p.add_argument("--x0", type=float, default=None)

    p = sub.add_parser("limits", help="limit-process samples, paths, CDF tables")
    p.add_argument("mode", choices=("cdf", "prm", "path"))
    _add_run_flags(p)
    p.add_argument("--kind", type=str, default=None)
    p.add_argument("--ca", type=float, default=None,
                   help="tail-to-drift ratio c/a for the drift-family cdf")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=None)
    p.add_argument("--xs", type=str, default=None,
                   help="comma-separated evaluation points")

    p = sub.add_parser("verify", help="verification suite against limit laws")
    _add_law_flags(p)
    _add_run_flags(p)
    p.add_argument("--theorem", type=str, default=None)
    p.add_argument("--variant", type=str, default=None,
                   help="marginal tag behind a FunctionalSup check")
    p.add_argument("--gamma", type=float, default=None)

    p = sub.add_parser("theorem21", help="condition report and decay table")
    _add_run_flags(p)
    p.add_argument("--instance", choices=instance_names(), default=None)
    p.add_argument("--ns", type=str, default=None,
                   help="comma-separated stage sizes")
    p.add_argument("--gamma", type=float, default=None)

    p = sub.add_parser("classify", help="regime classification as JSON")
    _add_law_flags(p)
    _add_run_flags(p)

    return parser


def _apply_config_file(args) -> None:
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config", "mode"):
            raise ConfigurationError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _resolve_law(args, default_preset=None):
    name = getattr(args, "law", None) or default_preset
    if name is None:
        raise ConfigurationError("a coefficient law is required; pass --law")
    overrides = {}
    for key in _LAW_OVERRIDE_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = float(val)
    return preset_law(name, **overrides)


def _floats_list(text, flag):
    if text is None:
        raise ConfigurationError(f"{flag} is required here")
    if isinstance(text, (list, tuple)):
        vals = [float(v) for v in text]
    else:
        vals = [float(s) for s in str(text).split(",") if s.strip()]
    if not vals or not all(math.isfinite(v) for v in vals):
        raise ConfigurationError(f"{flag} must list finite values, got {text!r}")
    return vals


def _ints_list(text, flag):
    return [int(round(v)) for v in _floats_list(text, flag)]


def _pick(value, fallback):
    return fallback if value is None else value


def _make_config(args, law, extra) -> RunConfig:
    return RunConfig(
        command=args.command,
        law=None if law is None else law_to_dict(law),
        n=int(_pick(getattr(args, "n", None), 1000)),
        T=float(_pick(getattr(args, "T", None), 1.0)),
        u=float(_pick(getattr(args, "u", None), 1.0)),
        R=int(_pick(getattr(args, "R", None), 1000)),
        seed=int(_pick(getattr(args, "seed", None), 0)),
        jobs=int(_pick(getattr(args, "jobs", None), os.cpu_count() or 1)),
        out=getattr(args, "out", None),
        threshold=getattr(args, "threshold", None),
        grid_step=getattr(args, "grid_step", None),
        extra=extra,
    )


def _out_file(cfg: RunConfig, name: str):
    out = cfg.out if cfg.out is not None else "."
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", newline="")


def _config_line(cfg: RunConfig) -> str:
    return f"# config: {json.dumps(cfg.resolved(), sort_keys=True)}\n"


def _cmd_simulate(args) -> int:
    law = _resolve_law(args, "cauchy")
    chain = _pick(getattr(args, "chain", None), "backward")
    cfg = _make_config(args, law, {"chain": chain, "x0": _pick(args.x0, 0.0)})
    scenario = SimScenario(law, cfg.n, T=cfg.T, x0=float(cfg.extra["x0"]), seed=cfg.seed)
    simulate = (
        simulate_perpetuity_path if chain == "backward" else simulate_forward_chain_path
    )
    paths = [simulate(scenario, rep=r) for r in range(cfg.R)]
    with _out_file(cfg, "simulate_paths.csv") as fh:
        fh.write(_config_line(cfg))
        write_paths_csv(paths, fh)
    print(f"wrote {cfg.R} {chain} paths (n={cfg.n}, T={cfg.T})")
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
        kind = _pick(args.kind, "thm11").lower()
        if kind not in _CDF_KINDS:
            raise ConfigurationError(f"--kind must be one of {_CDF_KINDS}, got {kind}")
        xs = _floats_list(args.xs, "--xs")
        u = float(_pick(args.u, 1.0))
        if kind == "thm11":
            ratio = _pick(args.ca, None)
            if ratio is None:
                raise ConfigurationError("the drift-family cdf needs --ca")
            rows = [(x, float(drift_marginal_cdf(x, u, float(ratio), 1.0))) for x in xs]
            extra = {"mode": mode, "kind": kind, "ca": float(ratio), "xs": xs}
        else:
            alpha = _pick(args.alpha, None)
            if alpha is None:
                raise ConfigurationError("the peak-family cdf needs --alpha")
            rows = [(x, float(peak_marginal_cdf(x, u, float(alpha)))) for x in xs]
            extra = {"mode": mode, "kind": kind, "alpha": float(alpha), "xs": xs}
        cfg = _make_config(args, None, extra)
        lines = ["x,F"] + [f"{float(x)!r},{f!r}" for x, f in rows]
        if cfg.out is None:
            print("\n".join(lines))
        else:
            with _out_file(cfg, "limits_cdf.csv") as fh:
                fh.write(_config_line(cfg))
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(rows)} cdf rows")
        return 0

    c = float(_pick(args.c, 1.0))
    alpha = float(_pick(args.alpha, 1.0))
    gamma = float(_pick(args.gamma, 0.01))
    if mode == "prm":
        cfg = _make_config(args, None, {"mode": mode, "c": c, "alpha": alpha, "gamma": gamma})
        spec = PrmSpec(c=c, alpha=alpha, T=cfg.T, gamma=gamma, seed=cfg.seed)
        with _out_file(cfg, "limits_prm.csv") as fh:
            fh.write(_config_line(cfg))
            fh.write("rep,time,mark\n")
            for r in range(cfg.R):
                pm = sample_prm(spec, rep=r)
                for t, y in zip(pm.times, pm.marks):
                    fh.write(f"{r},{float(t)!r},{float(y)!r}\n")
        print(f"wrote atom samples for {cfg.R} replications")
        return 0

    kind_name = _pick(args.kind, "backward").lower()
    if kind_name not in _PATH_KINDS:
        raise ConfigurationError(
            f"--kind must be one of {tuple(_PATH_KINDS)}, got {kind_name}"
        )
    kind = _PATH_KINDS[kind_name]
    cfg = _make_config(
        args, None, {"mode": mode, "kind": kind_name, "c": c, "alpha": alpha, "gamma": gamma}
    )
    spec = PrmSpec(c=c, alpha=alpha, T=cfg.T, gamma=gamma, seed=cfg.seed)
    step = cfg.grid_step if kind is LimitKind.FORWARD else None
    paths = []
    for r in range(cfg.R):
        pm = sample_prm(spec, rep=r)
        p = extremal_path(pm, kind, grid_step=step)
        p.meta["rep"] = r
        paths.append(p)
    with _out_file(cfg, "limits_paths.csv") as fh:
        fh.write(_config_line(cfg))
        write_paths_csv(paths, fh)
    print(f"wrote {cfg.R} {kind_name} limit paths")
    return 0


def _run_verification(cfg: RunConfig, law, tag, variant):
    common = dict(seed=cfg.seed, jobs=cfg.jobs)
    if tag == "ForwardBackwardEquality":
        return verify_forward_backward_equality(
            law, cfg.n, cfg.u, cfg.R, threshold=cfg.threshold, **common
        )
    if tag == "FunctionalSup":
        return verify_functional_sup(
            variant, law, cfg.n, cfg.T, cfg.R, threshold=cfg.threshold, **common
        )
    threshold = DEFAULT_D_BOUND if cfg.threshold is None else cfg.threshold
    return verify_marginal(tag, law, cfg.n, cfg.u, cfg.R, threshold=threshold, **common)


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
    if getattr(args, "T", None) is None and getattr(args, "u", None) is not None:
        args.T = args.u
    cfg = _make_config(args, law, {"theorem": tag, "variant": variant})

    if tag is not None:
        tags = [tag]
    else:
        # full suite for this family: all compatible marginals (the
        # chainless sums have no time parameter, so only at u = 1) plus the
        # law-agnostic equality check and one functional-sup variant
        tags = [t for t in compatible_tags(law) if TAG_RULES[t].chain or cfg.u == 1.0]
        tags.append("ForwardBackwardEquality")
        if variant in TAG_RULES and TAG_RULES[variant].chain:
            tags.append("FunctionalSup")
    # the suite reads some batches twice (Thm11-forward and the equality
    # check, Thm11-backward and its sup), so they share one computation
    with shared_batches():
        reports = [_run_verification(cfg, law, t, variant) for t in tags]

    with _out_file(cfg, "verify_reports.json") as fh:
        write_reports_json(reports, fh, config=cfg.resolved())
    with _out_file(cfg, "verify_summary.csv") as fh:
        write_reports_csv(reports, fh, config=cfg.resolved())
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.tag}: D={rep.D:.5f} threshold={rep.threshold:.5f} "
            f"degenerate={rep.degenerate} {status}"
        )
    return 0 if all(r.passed for r in reports) else 2


def _cmd_theorem21(args) -> int:
    name = _pick(args.instance, "mixed-sign")
    ns = None if args.ns is None else tuple(_ints_list(args.ns, "--ns"))
    inst = bundled_instance(name, ns=ns, seed=_pick(args.seed, 0))
    horizon = float(_pick(args.T, inst.f_limit.horizon))
    gamma = args.gamma if args.gamma is not None else default_gamma(inst.nu_limit)
    cfg = _make_config(args, None, {"instance": name, "ns": ns, "gamma": float(gamma)})
    cfg = dataclasses.replace(cfg, T=horizon)

    report = check_conditions(inst, horizon, gamma)
    with _out_file(cfg, "theorem21_conditions.csv") as fh:
        fh.write(_config_line(cfg))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "status", "detail"])
        writer.writerows(report.rows())
    for cname, status, _ in report.rows():
        print(f"{cname}: {status}")
    if report.has_fail:
        print("conditions failed; decay table withheld", file=sys.stderr)
        return 1

    rows = convergence_demo(inst, horizon, gamma=gamma)
    with _out_file(cfg, "theorem21_decay.csv") as fh:
        fh.write(_config_line(cfg))
        fh.write("n,c_n,d_n\n")
        for n, c, d in rows:
            fh.write(f"{n},{float(c)!r},{float(d)!r}\n")
    print(f"decay table: d({rows[0][0]})={rows[0][2]:.3g} .. d({rows[-1][0]})={rows[-1][2]:.3g}")
    return 0


def _cmd_classify(args) -> int:
    law = _resolve_law(args)
    cfg = _make_config(args, law, {})
    regime = classify_regime(law)
    payload = dataclasses.asdict(regime)
    for key, value in payload.items():
        if isinstance(value, float) and math.isnan(value):
            payload[key] = None
        elif isinstance(value, tuple):
            payload[key] = list(value)
    doc = {"config": cfg.resolved(), "regime": payload}
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if cfg.out is not None:
        with _out_file(cfg, "classify_regime.json") as fh:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
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
