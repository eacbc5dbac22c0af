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
    to_vector,
    unconditional_series,
)
from .qmath import NotPSDError, ZeroTraceError

SMOOTHERS = ("petz_fuchs", "recursive", "swv", "gw")


class ConfigError(Exception):
    pass


class CheckFailure(Exception):
    pass


# -- configuration -----------------------------------------------------------

# key: (type, default, help); every key is both a config-file key and a flag
_KEYS = {
    "omega": (float, 5.0, None),
    "nbar": (float, 0.5, None),
    "gamma": (float, 1.0, None),
    "unraveling": (str, "jump", f"one of {UNRAVELINGS}"),
    "phi": (float, None, None),
    "dt": (float, 1e-3, None),
    "t_final": (float, 7.5, None),
    "eta": (float, 1.0, None),
    "seed": (int, 0, None),
    "rho0": (str, "0,0,-1", "initial state Bloch components 'x,y,z'"),
    "n_traj": (int, 100, None),
    "n_bob": (int, 500, None),
    "bob_unraveling": (str, "jump", None),
    "smoothers": (str, "petz_fuchs", f"comma list from {SMOOTHERS}"),
    "format": (str, "csv", None),
    "out": (str, None, "output path ('-' for stdout)"),
    "demo_uniform": (int, 0, None),
}

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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        out[key] = (value.strip(), ln)
    return out


def _coerce(key, raw, where):
    kind = _KEYS[key][0]
    try:
        return kind(raw)
    except ValueError:
        expects = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: key {key!r} expects {expects}, got {raw!r}")


def resolve_config(args):
    """Merge defaults, config file, and flags into one typed dict."""
    cfg = {key: default for key, (_, default, _) in _KEYS.items()}
    if args.config:
        for key, (raw, ln) in load_config_file(args.config).items():
            cfg[key] = _coerce(key, raw, f"{args.config}:{ln}")
    for key in _KEYS:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = _coerce(key, flag, f"--{key.replace('_', '-')}")
    if cfg["unraveling"] not in UNRAVELINGS:
        raise ConfigError(f"unraveling must be one of {UNRAVELINGS}, got {cfg['unraveling']!r}")
    if cfg["bob_unraveling"] not in UNRAVELINGS:
        raise ConfigError(f"bob_unraveling must be one of {UNRAVELINGS}, "
                          f"got {cfg['bob_unraveling']!r}")
    for key in ("n_traj", "n_bob"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {cfg[key]}")
    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    smoothers = tuple(s.strip() for s in cfg["smoothers"].split(",") if s.strip())
    bad = set(smoothers) - set(SMOOTHERS)
    if bad:
        raise ConfigError(f"unknown smoothers: {sorted(bad)}; choose from {SMOOTHERS}")
    if "petz_fuchs" in smoothers and "recursive" in smoothers:
        raise ConfigError("choose one of petz_fuchs or recursive for the smoothed columns")
    cfg["smoothers"] = smoothers or ("petz_fuchs",)
    return cfg


def _parse_bloch(raw):
    try:
        parts = [float(x) for x in raw.split(",")]
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


def _preamble(cfg):
    return [f"# {key} = {_fmt_value(cfg[key])}" for key in sorted(cfg)]


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _fmt(x):
    return f"{x:.17g}"


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
    # the output path plays no role in regenerating the data
    return {k: (list(v) if isinstance(v, tuple) else v)
            for k, v in cfg.items() if k != "out"}


def _write(cfg, columns, summary):
    """Write `columns`, each (CSV names or None, JSON key, values with one
    row per grid time), as the config preamble plus CSV or as a JSON doc
    that also holds the config and the `checks` summary."""
    config = _json_config(cfg)
    if cfg["format"] == "json":
        doc = {key: np.asarray(values).tolist() for _, key, values in columns}
        _write_json(cfg["out"], {**doc, "config": config, "checks": summary})
        return
    lines = _preamble({k: cfg[k] for k in config})
    lines.append(",".join(names for names, _, _ in columns if names))
    table = np.column_stack([values for names, _, values in columns if names])
    lines.extend(",".join(_fmt(x) for x in row) for row in table)
    _emit(cfg["out"], "\n".join(lines) + "\n")


# -- simulate -----------------------------------------------------------------

def cmd_simulate(cfg):
    p = build_params(cfg)
    res = smoothing.smooth_trajectory(p)
    smoothed = res.smoothed_coords.T
    if "recursive" in cfg["smoothers"]:
        smoothed = to_vector(smoothing.petz_fuchs_recursive(res.filtered, res.record, p)).T
    pur_f, bloch_f, _, _ = smoothing.qubit_statistics(res.filtered_coords.T)
    pur_s, bloch_s, low, _ = smoothing.qubit_statistics(smoothed)
    bloch_u = smoothing.qubit_statistics(unconditional_series(p).T)[1]
    columns = [
        ("t", "times", res.times),
        ("outcome", "outcome", np.concatenate([[np.nan], res.record])),
        ("fx,fy,fz", "filtered_bloch", bloch_f.T),
        ("sx,sy,sz", "smoothed_bloch", bloch_s.T),
        ("ux,uy,uz", "unconditional_bloch", bloch_u.T),
        ("p_filt", "purity_filtered", pur_f),
        ("p_smooth", "purity_smoothed", pur_s),
    ]
    extras = []
    if "swv" in cfg["smoothers"]:
        extras.extend(zip(("p_swv", "swv_min_eig"), smoothing.swv_purity_series(
            res.filtered_coords.T, res.effect_coords.T)))
    if "gw" in cfg["smoothers"]:
        gw = smoothing.gw_smooth(res.record, p, cfg["bob_unraveling"],
                                 cfg["n_bob"], seed=p.seed)
        pur_g, (gx, gy, gz), _, _ = smoothing.qubit_statistics(to_vector(gw.gw).T)
        pur_g_pf = smoothing.qubit_statistics(to_vector(gw.gw_pf).T)[0]
        extras.extend([("gx", gx), ("gy", gy), ("gz", gz), ("p_gw", pur_g),
                       ("p_gw_pf", pur_g_pf), ("gw_ess", gw.ess)])
    columns.extend((name, name, col) for name, col in extras)
    _write(cfg, columns, {
        "pairing_rel_spread": checks.pairing_spread(res.log_pairing),
        "min_smoothed_eigenvalue": float(low.min()),
    })
    return 0


# -- ensemble -------------------------------------------------------------------

def cmd_ensemble(cfg):
    p = build_params(cfg)
    spec = ensemble.EnsembleSpec(params=p, n_traj=cfg["n_traj"])
    res = ensemble.run_ensemble(spec)
    if np.isnan(res.purity_gain_mean):
        print("qsmooth: note: the steady window {:g} <= t <= {:g} holds no grid time, "
              "so the purity gains are null".format(*res.window), file=sys.stderr)
    _write(cfg, [
        ("t", "times", res.times),
        ("ep_filt", "avg_purity_filtered", res.avg_purity_filtered),
        ("se_filt", "se_purity_filtered", res.se_purity_filtered),
        ("ep_smooth", "avg_purity_smoothed", res.avg_purity_smoothed),
        ("se_smooth", "se_purity_smoothed", res.se_purity_smoothed),
        ("p_uncond", "uncond_purity", res.uncond_purity),
        (None, "mean_bloch_filtered", res.mean_bloch_filtered),
        (None, "mean_bloch_smoothed", res.mean_bloch_smoothed),
        (None, "uncond_bloch", res.uncond_bloch),
    ], {
        "purity_gain_mean": res.purity_gain_mean,
        "purity_gain_se": res.purity_gain_se,
        "relative_improvement": res.relative_improvement,
        "min_smoothed_eigenvalue": res.min_smoothed_eigenvalue,
        "max_smoothed_trace_defect": res.max_smoothed_trace_defect,
    })
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
    rng = np.random.default_rng(p.seed)
    record, _ = classical.sample_record(kernel, prior, p.n_steps, rng)
    filt, bayes, retro = (probs / probs.sum(axis=1)[:, None] for probs in (
        classical.filter_series(kernel, record, prior),
        classical.smooth_bayes_series(kernel, record, prior),
        classical.smooth_retro_series(kernel, record, prior)))
    agreement = float(np.max(np.abs(bayes - retro)))
    _write(demo_cfg, [
        ("t", "times", np.arange(p.n_steps + 1) * p.dt),
        (None, "record", record),
        ("pf_0,pf_1", "filtered", filt),
        ("ps_bayes_0,ps_bayes_1", "smoothed_bayes", bayes),
        ("ps_retro_0,ps_retro_1", "smoothed_retro", retro),
    ], {"route_agreement": agreement})
    if agreement > 1e-10:
        raise CheckFailure(f"smoothing routes disagree by {agreement:.2e}")
    return 0


# -- entry point -------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, "single filtered + smoothed trajectory"),
    "ensemble": (cmd_ensemble, "Monte-Carlo average purities"),
    "validate": (cmd_validate, "run the built-in consistency checks"),
    "classical-demo": (cmd_classical_demo, "two-state classical smoothing demo"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsmooth",
        description="Quantum trajectory filtering and retrodictive smoothing")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, doc) in _COMMANDS.items():
        sub = subs.add_parser(name, help=doc)
        sub.add_argument("--config", help="key = value configuration file")
        for key, (_, _, text) in _KEYS.items():
            sub.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        print("\n".join(_preamble(cfg)), file=sys.stderr)
        return _COMMANDS[args.command][0](cfg)
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
