"""Command line entry point for simulation, limits, verification, and demos.

This module writes every output file: the path and report writers live
here, and ``_config_line`` alone formats the ``# config:`` line.  Every
emitted file embeds the resolved run configuration, and outputs are
byte-identical across reruns with the same configuration and seed,
independent of the job count.

Exit codes: 0 success, 1 configuration or usage error or any other
unexpected exception, 2 for a failing or degenerate verification.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigurationError, ParameterError, StatisticalError, whole_number
from .functionals import (
    bundled_instance,
    check_conditions,
    decay_table,
    default_gamma,
    instance_names,
)
# unused here, kept importable for the hooks of bench/tracing.py
from .functionals import convergence_demo  # noqa: F401
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
from .simulate import SimScenario, simulate_forward_chain_path, simulate_perpetuity_path
from .verify import (
    REPORT_COLUMNS,
    TAG_RULES,
    canonical_tag,
    compatible_tags,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
    verify_suite,
)

_LAW_OVERRIDE_KEYS = ("a", "c", "alpha", "beta", "m0", "q0")


class _CliParser(argparse.ArgumentParser):
    # a flag name must match exactly: a prefix of one would run as that flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on usage problems; the contract here
    # reserves 2 for failing verifications, so route misuse through the
    # configuration-error path instead
    def error(self, message):
        raise ConfigurationError(message)


# any other error makes argparse name the type function in its message
def _int_at_least(low):
    def parse(text):
        try:
            return whole_number("value", int(text), low)
        except ValueError:  # from int() or whole_number
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}") from None
    return parse


def _finite_floats(text):
    try:
        vals = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        vals = []
    if not vals or not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"must list finite values, got {text!r}")
    return vals


def _add_law_flags(p):
    p.add_argument("--law", choices=PRESET_NAMES)
    for key in _LAW_OVERRIDE_KEYS:
        p.add_argument(f"--{key}", type=float)


_RUN_FLAGS = {
    "n": dict(type=_int_at_least(1), default=1000),
    "T": dict(type=float, default=1.0),
    "u": dict(type=float, default=1.0),
    "R": dict(type=_int_at_least(1), default=1000),
    "seed": dict(type=_int_at_least(0), default=0),
}


def _add_run_flags(p, *names, **defaults):
    """The named run flags, then the three that never reach an output byte."""
    for name in names:
        p.add_argument(f"--{name}", **_RUN_FLAGS[name])
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", type=str)
    p.add_argument("--config", type=str)
    p.set_defaults(**defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(prog="perpetuities")
    sub = parser.add_subparsers(dest="command", parser_class=_CliParser)
    sub.required = True

    p = sub.add_parser("simulate", help="simulate chain paths to CSV")
    _add_law_flags(p)
    _add_run_flags(p, "n", "T", "R", "seed")
    p.add_argument("--chain", choices=("backward", "forward"), default="backward")
    p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("limits", help="limit-process samples, paths, CDF tables")
    modes = p.add_subparsers(dest="mode", parser_class=_CliParser)
    modes.required = True
    p = modes.add_parser("cdf", help="limit marginal CDF table")
    _add_run_flags(p, "u")
    p.add_argument("--kind", type=str.lower, choices=("thm11", "thm15"), default="thm11")
    p.add_argument("--ca", type=float,
                   help="tail-to-drift ratio c/a for the drift-family cdf")
    p.add_argument("--alpha", type=float)
    p.add_argument("--xs", type=_finite_floats,
                   help="comma-separated evaluation points")
    for mode, text in (("prm", "Poisson measure atoms"), ("path", "extremal limit paths")):
        p = modes.add_parser(mode, help=text)
        _add_run_flags(p, "T", "R", "seed")
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--kind", type=str.lower, choices=[k.value for k in LimitKind],
                   default="backward")
    p.add_argument("--grid-step", dest="grid_step", type=float)

    p = sub.add_parser("verify", help="verification suite against limit laws")
    _add_law_flags(p)
    _add_run_flags(p, *_RUN_FLAGS, T=None)  # None: T falls back to u
    p.add_argument("--theorem", type=str)
    p.add_argument("--variant", type=str,
                   help="marginal tag behind a FunctionalSup check")

    p = sub.add_parser("theorem21", help="condition report and decay table")
    _add_run_flags(p, "T", "seed", T=None)  # None: T falls back to the instance horizon
    p.add_argument("--instance", choices=instance_names(), default="mixed-sign")
    p.add_argument("--ns", type=_finite_floats,
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
        # reported as a config key, not as the flag it would become
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
    # preset_law skips the overrides left unset (None)
    return preset_law(name, **{key: getattr(args, key) for key in _LAW_OVERRIDE_KEYS})


def _resolved(args, law=None) -> dict:
    """Config dictionary embedded in every output file: the parsed flags.

    Each command parses only the flags it reads, and its handler stores
    resolved values (a defaulted horizon, a canonical tag) back on
    ``args``, so every key is a setting that reached the output.  The
    job count, output directory and config file are left out: none
    affects any emitted value, and reruns that vary only those must stay
    byte-identical.  A resolved ``law`` replaces the law flags; in
    ``limits``, which takes no law, ``c`` and ``alpha`` are the Poisson
    measure's own.  Unset (None) flags are left out.
    """
    d = dict(vars(args), version=__version__)
    for key in ("jobs", "out", "config"):
        del d[key]
    for key, value in d.items():  # NaN or inf in a flag that no domain check read
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"--{key.replace('_', '-')} must be finite, got {value}")
    if law is not None:
        for key in _LAW_OVERRIDE_KEYS:
            del d[key]
        d["law"] = law_to_dict(law)
    return {k: v for k, v in sorted(d.items()) if v is not None}


def _missing_dirs(out: str) -> list:
    """The directories of the path ``out`` that do not exist yet, deepest
    first; ConfigurationError if its first existing ancestor is not a
    directory.  Creates nothing."""
    made, head = [], os.path.normpath(out)
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head) or "."
    if not os.path.isdir(head):
        raise ConfigurationError(f"cannot write to --out {out}: {head} is not a directory")
    return made


@contextlib.contextmanager
def _out_file(args, name: str):
    """The text file ``name`` in ``--out`` (default: the working
    directory), open for writing.

    The bytes go to a sibling temporary file, which replaces ``name``
    only when the block finishes.  A block that raises deletes it and
    removes the directories this call made, if they are left empty, so
    a failed run leaves no file and an existing ``name`` keeps its bytes.
    """
    out = "." if args.out is None else args.out
    made = _missing_dirs(out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # no permission, say; _missing_dirs refused a file in the way
        raise ConfigurationError(f"cannot write to --out {out}: {exc}")
    path = os.path.join(out, name)
    tmp = os.path.join(out, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        with contextlib.suppress(OSError):
            for directory in made:  # deepest first; stops at one left non-empty
                os.rmdir(directory)
        raise


def _config_line(args, law=None) -> str:
    return f"# config: {json.dumps(_resolved(args, law), sort_keys=True, allow_nan=False)}\n"


def _reprs(a) -> list:
    """``repr`` of each float of the array ``a``, in one C loop."""
    return list(map(repr, a.tolist()))


def _csv_rows(rep, left, right) -> str:
    """The rows ``rep,left[k],right[k]`` of two string columns of one
    length, laid out by list slicing and joined in C, so no Python
    bytecode runs per row."""
    rows = [f"{rep},", None, ",", None, "\n"] * len(left)
    rows[1::5] = left
    rows[3::5] = right
    return "".join(rows)


# rows per write of ``write_paths_csv``: bounds one path's row strings
_BLOCK_ROWS = 2048


def write_paths_csv(paths, fp):
    """Consolidated (rep, t, value) rows for an iterable of step paths.

    The iterable is read one path at a time, and each path is written in
    blocks of ``_BLOCK_ROWS`` rows, so a generator's paths are drawn,
    written and dropped in turn and no whole path becomes one string.

    Each distinct time is formatted once: a time that the previous path
    also holds reuses that path's string, so a grid shared across
    replications is formatted for the first path only.  Each run of
    equal values (equal bits, so -0.0 and 0.0 stay apart) is formatted
    once too, so each flat stretch of a backward path costs one repr.
    """
    fp.write("rep,t,value\n")
    prev_t, prev_s = np.empty(0), np.empty(0, dtype=object)
    for i, p in enumerate(paths):
        t = np.concatenate(([0.0], p.times))
        pos = np.searchsorted(prev_t, t)
        seen = pos < prev_t.size
        seen[seen] = prev_t[pos[seen]] == t[seen]
        s = np.empty(t.size, dtype=object)
        s[seen] = prev_s[pos[seen]]
        s[~seen] = np.array(_reprs(t[~seen]), dtype=object)
        v = p.values
        bits = v.view(np.int64)
        new = np.concatenate(([True], bits[1:] != bits[:-1]))
        if new.all():
            words = None
        else:
            words = np.array(_reprs(v[new]), dtype=object)
            run = np.cumsum(new) - 1
        rep = p.meta.get("rep", i)
        for lo in range(0, t.size, _BLOCK_ROWS):
            block = slice(lo, lo + _BLOCK_ROWS)
            right = _reprs(v[block]) if words is None else words[run[block]].tolist()
            fp.write(_csv_rows(rep, s[block].tolist(), right))
        prev_t, prev_s = t, s


def write_reports_json(reports, fp, config: dict) -> None:
    payload = {"config": config, "reports": [r.to_dict() for r in reports]}
    json.dump(payload, fp, indent=2, sort_keys=True, allow_nan=False)
    fp.write("\n")


def write_reports_csv(reports, fp, config_line: str) -> None:
    """``config_line`` (built by ``_config_line``), the header row of
    ``REPORT_COLUMNS``, then one row per report."""
    fp.write(config_line)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(key for key, _ in REPORT_COLUMNS)
    writer.writerows(r.to_dict().values() for r in reports)


def _cmd_simulate(args) -> int:
    law = _resolve_law(args, "cauchy")
    scenario = SimScenario(law, args.n, T=args.T, x0=args.x0, seed=args.seed)
    simulate = (
        simulate_perpetuity_path if args.chain == "backward" else simulate_forward_chain_path
    )
    # drawn one at a time inside the writer, so one path is held at once
    paths = (simulate(scenario, rep=r) for r in range(args.R))
    with _out_file(args, "simulate_paths.csv") as fh:
        fh.write(_config_line(args, law))
        write_paths_csv(paths, fh)
    print(f"wrote {args.R} {args.chain} paths (n={args.n}, T={args.T})")
    return 0


def _cmd_limits(args) -> int:
    if args.mode == "cdf":
        if args.xs is None:
            raise ConfigurationError("--xs is required here")
        if args.kind == "thm11":
            if args.ca is None:
                raise ConfigurationError("the drift-family cdf needs --ca")
            rows = [(x, float(drift_marginal_cdf(x, args.u, args.ca, 1.0))) for x in args.xs]
        else:
            if args.alpha is None:
                raise ConfigurationError("the peak-family cdf needs --alpha")
            rows = [(x, float(peak_marginal_cdf(x, args.u, args.alpha))) for x in args.xs]
        lines = ["x,F"] + [f"{x!r},{f!r}" for x, f in rows]
        config = _config_line(args)  # checks the flags on stdout too
        if args.out is None:
            print("\n".join(lines))
        else:
            with _out_file(args, "limits_cdf.csv") as fh:
                fh.write(config)
                fh.write("\n".join(lines) + "\n")
            print(f"wrote {len(rows)} cdf rows")
        return 0

    spec = PrmSpec(c=args.c, alpha=args.alpha, T=args.T, gamma=args.gamma, seed=args.seed)
    if args.mode == "prm":
        with _out_file(args, "limits_prm.csv") as fh:
            fh.write(_config_line(args))
            fh.write("rep,time,mark\n")
            for r in range(args.R):
                pm = sample_prm(spec, rep=r)
                fh.write(_csv_rows(r, _reprs(pm.times), _reprs(pm.marks)))
        print(f"wrote atom samples for {args.R} replications")
        return 0

    kind = LimitKind(args.kind)
    step = args.grid_step if kind is LimitKind.FORWARD else None

    def paths():
        for r in range(args.R):
            p = extremal_path(sample_prm(spec, rep=r), kind, grid_step=step)
            p.meta["rep"] = r
            yield p

    with _out_file(args, "limits_paths.csv") as fh:
        fh.write(_config_line(args))
        write_paths_csv(paths(), fh)
    print(f"wrote {args.R} {args.kind} limit paths")
    return 0


def _run_verification(args, law, tag):
    """The reports of one check, or of the full suite when ``tag`` is None."""
    if tag is None:
        return verify_suite(law, args.n, args.u, args.T, args.R, args.seed, args.variant)
    if tag == "ForwardBackwardEquality":
        return [verify_forward_backward_equality(law, args.n, args.u, args.R, args.seed)]
    if tag == "FunctionalSup":
        return [verify_functional_sup(args.variant, law, args.n, args.T, args.R, args.seed)]
    return [verify_marginal(tag, law, args.n, args.u, args.R, args.seed)]


def _cmd_verify(args) -> int:
    tag = None if args.theorem is None else canonical_tag(args.theorem)
    variant = None if args.variant is None else canonical_tag(args.variant)
    if tag not in (None, "FunctionalSup"):
        variant = None  # a marginal or equality check reads no variant
    # the default law is the preset of the tag the request reads
    rule = TAG_RULES.get(tag, TAG_RULES.get(variant))
    law = _resolve_law(args, "cauchy" if rule is None else rule.preset)
    if variant is None and tag in (None, "FunctionalSup"):
        variant = next(iter(compatible_tags(law)), None)
    if tag == "FunctionalSup" and variant is None:
        raise ConfigurationError(
            f"no marginal tag covers family {law.family}; FunctionalSup needs --variant"
        )
    args.theorem, args.variant = tag, variant
    args.T = args.u if args.T is None else args.T

    reports = _run_verification(args, law, tag)
    with _out_file(args, "verify_reports.json") as fh:
        write_reports_json(reports, fh, _resolved(args, law))
    with _out_file(args, "verify_summary.csv") as fh:
        write_reports_csv(reports, fh, _config_line(args, law))
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{rep.tag}: D={rep.D:.5f} threshold={rep.threshold:.5f} "
            f"degenerate={rep.degenerate} {status}"
        )
    return 0 if all(r.passed for r in reports) else 2


def _cmd_theorem21(args) -> int:
    inst = bundled_instance(args.instance, ns=args.ns, seed=args.seed)
    if args.ns is not None:
        args.ns = list(inst.ns)  # recorded as whole numbers, so 1e3 reads 1000
    args.T = float(inst.f_limit.horizon if args.T is None else args.T)
    if args.gamma is None:
        args.gamma = default_gamma(inst.nu_limit)
    # checked first, so a NaN window or level fails its domain check
    report = check_conditions(inst, args.T, args.gamma)
    config_line = _config_line(args)
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

    rows = decay_table(inst, args.T)
    with _out_file(args, "theorem21_decay.csv") as fh:
        fh.write(config_line)
        fh.write("n,c_n,d_n\n")
        for n, c, d in rows:
            fh.write(f"{n},{float(c)!r},{float(d)!r}\n")
    print(f"decay table: d({rows[0][0]})={rows[0][2]:.3g} .. d({rows[-1][0]})={rows[-1][2]:.3g}")
    return 0


def _finite_or_null(value):
    """``value``, or None (JSON null) for a NaN or inf float."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _cmd_classify(args) -> int:
    law = _resolve_law(args)
    regime = classify_regime(law)
    payload = {key: _finite_or_null(value) for key, value in dataclasses.asdict(regime).items()}
    doc = {"config": _resolved(args, law), "regime": payload}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
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
            # the file's flags go right after the command path (`limits
            # <mode>` is two words), so an explicit flag still wins
            k = 2 if args.command == "limits" else 1
            args = parser.parse_args(argv[:k] + _config_flags(args) + argv[k:])
        if args.out is not None:
            _missing_dirs(args.out)  # a bad --out fails before the run, not after it
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
