"""Command-line entry point: run orchestration and file serialization.

Subcommands
-----------
simulate        one filtered + smoothed trajectory, CSV or JSON
ensemble        Monte-Carlo average purities and ensemble means
validate        run the built-in consistency checks, JSON report
classical-demo  two-state classical smoothing by both routes

Configuration comes from defaults, then an optional `key = value` config
file (`#` comments), then command-line flags, in increasing precedence.
The resolved configuration is echoed and embedded in every output file so
any run can be regenerated bit-exactly.

Exit codes: 0 ok, 1 validation failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import checks, classical, ensemble, qmath, smoothing
from .dynamics import (
    UNRAVELINGS,
    InvalidParamsError,
    ModelParams,
    build_step_operators,
    unconditional_series,
)
from .qmath import NotPSDError, ZeroTraceError

SMOOTHERS = ("petz_fuchs", "recursive", "swv", "gw")

SIMULATE_HEADER = "t,outcome,fx,fy,fz,sx,sy,sz,ux,uy,uz,p_filt,p_smooth"
ENSEMBLE_HEADER = "t,ep_filt,se_filt,ep_smooth,se_smooth,p_uncond"


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


# -- configuration -----------------------------------------------------------

_DEFAULTS = {
    "omega": 5.0,
    "nbar": 0.5,
    "gamma": 1.0,
    "unraveling": "jump",
    "phi": None,
    "dt": 1e-3,
    "t_final": 7.5,
    "eta": 1.0,
    "seed": 0,
    "rho0": "0,0,-1",
    "n_traj": 100,
    "n_bob": 500,
    "bob_unraveling": "jump",
    "smoothers": "petz_fuchs",
    "format": "csv",
    "out": None,
    "demo_uniform": 0,
}

_FLOAT_KEYS = ("omega", "nbar", "gamma", "dt", "t_final", "eta", "phi")
_INT_KEYS = ("seed", "n_traj", "n_bob", "demo_uniform")


def load_config_file(path):
    """Parse a flat key=value file; returns {key: (raw, line_number)}."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}")
    for ln, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = (value.strip(), ln)
    return out


def _coerce(key, raw, where):
    if raw is None:
        return None
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: key {key!r} expects a number, got {raw!r}")
    if key in _INT_KEYS:
        try:
            return int(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{where}: key {key!r} expects an integer, got {raw!r}")
    return raw


def resolve_config(args):
    """Merge defaults, config file, and flags into one typed dict."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, (raw, ln) in load_config_file(args.config).items():
            cfg[key] = _coerce(key, raw, f"{args.config}:{ln}")
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _coerce(key, flag, f"--{key.replace('_', '-')}")
    if cfg["unraveling"] not in UNRAVELINGS:
        raise ConfigError(f"unraveling must be one of {UNRAVELINGS}, got {cfg['unraveling']!r}")
    if cfg["bob_unraveling"] not in UNRAVELINGS:
        raise ConfigError(f"bob_unraveling must be one of {UNRAVELINGS}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    smoothers = tuple(s.strip() for s in str(cfg["smoothers"]).split(",") if s.strip())
    bad = set(smoothers) - set(SMOOTHERS)
    if bad:
        raise ConfigError(f"unknown smoothers: {sorted(bad)}; choose from {SMOOTHERS}")
    if "petz_fuchs" in smoothers and "recursive" in smoothers:
        raise ConfigError("choose one of petz_fuchs or recursive for the smoothed columns")
    if not smoothers:
        smoothers = ("petz_fuchs",)
    cfg["smoothers"] = smoothers
    return cfg


def _parse_bloch(raw):
    try:
        parts = [float(x) for x in str(raw).split(",")]
        if len(parts) != 3:
            raise ValueError
    except ValueError:
        raise ConfigError(f"rho0 expects 'x,y,z' Bloch components, got {raw!r}")
    try:
        return qmath.bloch_state(*parts)
    except ValueError as exc:
        raise ConfigError(f"rho0: {exc}")


def build_params(cfg, **overrides):
    """ModelParams of the config, with any fields in `overrides` replaced."""
    fields = dict(omega=cfg["omega"], nbar=cfg["nbar"], gamma=cfg["gamma"],
                  unraveling=cfg["unraveling"], phi=cfg["phi"], dt=cfg["dt"],
                  t_final=cfg["t_final"], rho0=_parse_bloch(cfg["rho0"]),
                  eta=cfg["eta"], seed=cfg["seed"])
    try:
        return ModelParams(**{**fields, **overrides})
    except InvalidParamsError as exc:
        raise ConfigError(str(exc))


def _echo_config(cfg):
    for key in sorted(cfg):
        print(f"# {key} = {_fmt_value(cfg[key])}", file=sys.stderr)


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _fmt(x):
    return f"{x:.17g}"


def _write_csv(path, cfg, header, rows):
    # the output path plays no role in regenerating the data
    lines = [f"# {key} = {_fmt_value(cfg[key])}"
             for key in sorted(cfg) if key != "out"]
    lines.append(header)
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _emit(path, "\n".join(lines) + "\n")


def _json_clean(obj):
    """Strict JSON has no NaN/Inf; map non-finite floats to null."""
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _write_json(path, doc):
    _emit(path, json.dumps(_json_clean(doc), indent=1, sort_keys=True,
                           allow_nan=False) + "\n")


def _emit(path, text):
    """Write to `path`, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_config(cfg):
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in cfg.items() if k != "out"}


# -- simulate -----------------------------------------------------------------

def cmd_simulate(cfg):
    p = build_params(cfg)
    ops = build_step_operators(p)
    res = smoothing.smooth_trajectory(p, ops=ops)
    smoothed, pur_f, pur_s = res.smoothed, res.purity_filtered, res.purity_smoothed
    if "recursive" in cfg["smoothers"]:
        smoothed = smoothing.petz_fuchs_recursive(res.filtered, res.record, p, ops=ops)
        pur_s = np.einsum("tij,tji->t", smoothed, smoothed).real
    uncond = unconditional_series(p)

    bloch_f = qmath.bloch_vector(res.filtered)
    bloch_s = qmath.bloch_vector(smoothed)
    bloch_u = qmath.bloch_vector(uncond)

    header = SIMULATE_HEADER
    extras = []
    if "swv" in cfg["smoothers"]:
        swv_pur, swv_eig = smoothing.swv_purity_series(res.filtered, res.effects)
        extras.append(("p_swv", swv_pur))
        extras.append(("swv_min_eig", swv_eig))
    if "gw" in cfg["smoothers"]:
        gw = smoothing.gw_smooth(res.record, p, cfg["bob_unraveling"],
                                 cfg["n_bob"], seed=p.seed)
        gb = qmath.bloch_vector(gw.gw)
        extras.extend([("gx", gb[:, 0]), ("gy", gb[:, 1]), ("gz", gb[:, 2]),
                       ("p_gw", np.einsum("tij,tji->t", gw.gw, gw.gw).real),
                       ("p_gw_pf", np.einsum("tij,tji->t", gw.gw_pf, gw.gw_pf).real),
                       ("gw_ess", gw.ess)])
    if extras:
        header = header + "," + ",".join(name for name, _ in extras)

    n = p.n_steps
    outcome_col = np.concatenate([[np.nan], res.record.outcomes])
    rows = []
    for i in range(n + 1):
        row = [res.times[i], outcome_col[i],
               bloch_f[i, 0], bloch_f[i, 1], bloch_f[i, 2],
               bloch_s[i, 0], bloch_s[i, 1], bloch_s[i, 2],
               bloch_u[i, 0], bloch_u[i, 1], bloch_u[i, 2],
               pur_f[i], pur_s[i]]
        row.extend(col[i] for _, col in extras)
        rows.append(row)

    summary = {
        "pairing_rel_spread": checks.pairing_spread(res.log_pairing),
        "min_smoothed_eigenvalue": float(qmath.min_eigenvalue_stack(smoothed).min()),
    }

    if cfg["format"] == "csv":
        _write_csv(cfg["out"], cfg, header, rows)
    else:
        doc = {"config": _json_config(cfg),
               "times": res.times.tolist(),
               "outcome": outcome_col.tolist(),
               "filtered_bloch": bloch_f.tolist(),
               "smoothed_bloch": bloch_s.tolist(),
               "unconditional_bloch": bloch_u.tolist(),
               "purity_filtered": pur_f.tolist(),
               "purity_smoothed": pur_s.tolist(),
               "checks": summary}
        for name, col in extras:
            doc[name] = np.asarray(col).tolist()
        _write_json(cfg["out"], doc)
    return 0


# -- ensemble -------------------------------------------------------------------

def cmd_ensemble(cfg):
    p = build_params(cfg)
    spec = ensemble.EnsembleSpec(params=p, n_traj=cfg["n_traj"])
    res = ensemble.run_ensemble(spec)
    if np.isnan(res.purity_gain_mean):
        print("qsmooth: note: the steady window {:g} <= t <= {:g} holds no grid time, "
              "so the purity gains are null".format(*res.window), file=sys.stderr)
    rows = [
        [res.times[i], res.avg_purity_filtered[i], res.se_purity_filtered[i],
         res.avg_purity_smoothed[i], res.se_purity_smoothed[i],
         res.uncond_purity[i]]
        for i in range(len(res.times))
    ]
    summary = {
        "purity_gain_mean": res.purity_gain_mean,
        "purity_gain_se": res.purity_gain_se,
        "relative_improvement": res.relative_improvement,
        "min_smoothed_eigenvalue": res.min_smoothed_eigenvalue,
        "max_smoothed_trace_defect": res.max_smoothed_trace_defect,
    }
    if cfg["format"] == "csv":
        _write_csv(cfg["out"], cfg, ENSEMBLE_HEADER, rows)
    else:
        doc = {"config": _json_config(cfg),
               "times": res.times.tolist(),
               "avg_purity_filtered": res.avg_purity_filtered.tolist(),
               "se_purity_filtered": res.se_purity_filtered.tolist(),
               "avg_purity_smoothed": res.avg_purity_smoothed.tolist(),
               "se_purity_smoothed": res.se_purity_smoothed.tolist(),
               "uncond_purity": res.uncond_purity.tolist(),
               "mean_bloch_filtered": res.mean_bloch_filtered.tolist(),
               "mean_bloch_smoothed": res.mean_bloch_smoothed.tolist(),
               "uncond_bloch": res.uncond_bloch.tolist(),
               "checks": summary}
        _write_json(cfg["out"], doc)
    return 0


# -- validate -------------------------------------------------------------------

def cmd_validate(cfg):
    """Run every row of `checks.CHECKS` on models derived from the config."""
    p = build_params(cfg)
    report = []
    for name, check, models in checks.CHECKS:
        results = [check(build_params(cfg, **ov)) for ov in models(p)]
        defect, tol = max(d for d, _ in results), min(t for _, t in results)
        report.append({"check": name, "passed": bool(defect < tol),
                       "defect": float(defect), "tolerance": float(tol)})
    all_pass = all(c["passed"] for c in report)
    doc = {"config": _json_config(cfg), "checks": report,
           "all_passed": all_pass}
    _write_json(cfg["out"], doc)
    if not all_pass:
        raise CheckFailure("one or more validation checks failed")
    return 0


# -- classical demo --------------------------------------------------------------

def cmd_classical_demo(cfg):
    """Two-state chain driven by the undriven thermal model at Omega = 0.

    With demo_uniform = 1 the outcome likelihoods are replaced by a fair
    coin while keeping the backaction, so the record carries no
    information and the smoothed columns reproduce the filtered ones.
    """
    demo_cfg = {**cfg, "omega": 0.0, "unraveling": "jump",
                "dt": max(cfg["dt"], 1e-2), "t_final": min(cfg["t_final"], 2.0)}
    p = build_params(demo_cfg)
    ops = build_step_operators(p)
    kernel = classical.diagonal_kernel({y: ops.conditional_map(y) for y in (0, 1)})
    if cfg["demo_uniform"]:
        mats = {}
        for y, f in kernel.matrices.items():
            lik = f.sum(axis=0)
            if np.any(lik <= 0):
                raise ConfigError("demo_uniform needs strictly positive likelihoods; "
                                  "raise nbar above 0")
            mats[y] = (f / lik[None, :]) * 0.5
        kernel = classical.ConditionalKernel(mats)
    prior = np.array([0.3, 0.7])
    steps = p.n_steps
    rng = np.random.default_rng(p.seed)
    record, _ = classical.sample_record(kernel, prior, steps, rng)
    filt = classical.filter_series(kernel, record, prior)
    bayes = classical.smooth_bayes_series(kernel, record, prior)
    retro = classical.smooth_retro_series(kernel, record, prior)
    filt = filt / filt.sum(axis=1)[:, None]
    bayes = bayes / bayes.sum(axis=1)[:, None]
    retro = retro / retro.sum(axis=1)[:, None]
    header = "t,pf_0,pf_1,ps_bayes_0,ps_bayes_1,ps_retro_0,ps_retro_1"
    rows = [[i * p.dt, filt[i, 0], filt[i, 1], bayes[i, 0], bayes[i, 1],
             retro[i, 0], retro[i, 1]] for i in range(steps + 1)]
    agreement = float(np.max(np.abs(bayes - retro)))
    if cfg["format"] == "csv":
        _write_csv(cfg["out"], demo_cfg, header, rows)
    else:
        _write_json(cfg["out"], {
            "config": _json_config(demo_cfg),
            "times": [i * p.dt for i in range(steps + 1)],
            "record": [int(y) for y in record],
            "filtered": filt.tolist(),
            "smoothed_bayes": bayes.tolist(),
            "smoothed_retro": retro.tolist(),
            "checks": {"route_agreement": agreement}})
    if agreement > 1e-10:
        raise CheckFailure(f"smoothing routes disagree by {agreement:.2e}")
    return 0


# -- entry point -------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="key = value configuration file")
    for key in _FLOAT_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key)
    for key in _INT_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key)
    sub.add_argument("--unraveling", dest="unraveling", help=f"one of {UNRAVELINGS}")
    sub.add_argument("--bob-unraveling", dest="bob_unraveling")
    sub.add_argument("--rho0", dest="rho0", help="initial state Bloch components 'x,y,z'")
    sub.add_argument("--smoothers", dest="smoothers",
                     help=f"comma list from {SMOOTHERS}")
    sub.add_argument("--format", dest="format", choices=("csv", "json"))
    sub.add_argument("--out", dest="out", help="output path ('-' for stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsmooth",
        description="Quantum trajectory filtering and retrodictive smoothing")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("simulate", "single filtered + smoothed trajectory"),
                      ("ensemble", "Monte-Carlo average purities"),
                      ("validate", "run the built-in consistency checks"),
                      ("classical-demo", "two-state classical smoothing demo")):
        sub = subs.add_parser(name, help=doc)
        _add_common(sub)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "validate": cmd_validate,
    "classical-demo": cmd_classical_demo,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"qsmooth: config error: {exc}", file=sys.stderr)
        return 2
    _echo_config(cfg)
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"qsmooth: config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"qsmooth: {exc}", file=sys.stderr)
        return 1
    except (NotPSDError, ZeroTraceError, smoothing.DegenerateWeightsError,
            FloatingPointError) as exc:
        print(f"qsmooth: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
