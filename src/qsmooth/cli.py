"""Command-line entry point: run orchestration and file serialization.

Commands
--------
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
import dataclasses
import json
import sys

import numpy as np

from . import checks, classical, ensemble, qmath, smoothing
from .dynamics import (
    UNRAVELINGS,
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

def _at_least_one(n):
    if n < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _bloch_state(text):
    """The qubit state of the Bloch components in the text 'x,y,z'."""
    try:
        x, y, z = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"expects 'x,y,z' Bloch components, got {text!r}") from None
    return qmath.bloch_state(x, y, z)


def _bloch_text(text):
    _bloch_state(text)  # checked here; outputs echo the text
    return text


def _smoother_list(text):
    smoothers = tuple(s.strip() for s in text.split(",") if s.strip())
    bad = set(smoothers) - set(SMOOTHERS)
    if bad:
        raise ValueError(f"names unknown {sorted(bad)}; choose from {SMOOTHERS}")
    if "petz_fuchs" in smoothers and "recursive" in smoothers:
        raise ValueError("names both petz_fuchs and recursive; choose one")
    return smoothers or ("petz_fuchs",)


# key: (type, default, rule, help); every key is both a config-file key and a
# flag. A rule is the tuple of allowed values, or a function from the typed
# value to the value kept that raises ValueError on a bad one.
_KEYS = {
    "omega": (float, 5.0, None, None),
    "nbar": (float, 0.5, None, None),
    "gamma": (float, 1.0, None, None),
    "unraveling": (str, "jump", UNRAVELINGS, None),
    "phi": (float, None, None, None),
    "dt": (float, 1e-3, None, None),
    "t_final": (float, 7.5, None, None),
    "eta": (float, 1.0, None, None),
    "seed": (int, 0, None, None),
    "rho0": (str, "0,0,-1", _bloch_text, "initial state Bloch components 'x,y,z'"),
    "n_traj": (int, 100, _at_least_one, None),
    "n_bob": (int, 500, _at_least_one, None),
    "bob_unraveling": (str, "jump", UNRAVELINGS, None),
    "smoothers": (str, ("petz_fuchs",), _smoother_list, f"comma list from {SMOOTHERS}"),
    "format": (str, "csv", ("csv", "json"), None),
    "out": (str, None, None, "output path ('-' for stdout)"),
    "demo_uniform": (int, 0, None, None),
}


def load_config_file(path):
    """Parse a flat key=value file; returns {key: (raw, line_number)}."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    kind, _, rule, _ = _KEYS[key]
    try:
        value = kind(raw)
    except ValueError:
        expects = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where}: {key} expects {expects}, got {raw!r}")
    try:
        if isinstance(rule, tuple) and value not in rule:
            raise ValueError(f"must be one of {rule}, got {raw!r}")
        return rule(value) if callable(rule) else value
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} {exc}")


def resolve_config(args):
    """Merge defaults, config file and flags (any `args` holds) into one
    dict, and check that it gives a model. An error in one key's value
    names the file and line or the flag it came from."""
    cfg = {key: row[1] for key, row in _KEYS.items()}
    origin = {}
    path = getattr(args, "config", None)
    if path:
        for key, (raw, ln) in load_config_file(path).items():
            origin[key] = f"{path}:{ln}"
            cfg[key] = _coerce(key, raw, origin[key])
    for key in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            origin[key] = f"--{key.replace('_', '-')}"
            cfg[key] = _coerce(key, flag, origin[key])
    build_params(cfg, origin)
    return cfg


def build_params(cfg, origin=None, **overrides):
    """ModelParams of the config, with any fields in `overrides` replaced.
    A rule over one field that fails names where `origin` says it was set."""
    fields = {f.name: cfg[f.name] for f in dataclasses.fields(ModelParams)}
    try:
        return ModelParams(**{**fields, "rho0": _bloch_state(cfg["rho0"]), **overrides})
    except ValueError as exc:
        field = getattr(exc, "field", None)
        raise ConfigError(f"{origin[field]}: {exc}" if field in (origin or {}) else str(exc))


def _preamble(cfg):
    return [f"# {key} = {_fmt_value(cfg[key])}" for key in sorted(cfg)]


def _fmt_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return str(v)


def _fmt(x):
    return f"{x:.17g}"


def _render_json(obj, level=0):
    """`json.dumps(obj, indent=1, sort_keys=True)` with every non-finite
    float written as null. An ndarray's numbers are formatted in one flat
    pass, then joined into nested lists, innermost axis first."""
    if isinstance(obj, dict):
        return _wrap([f"{json.dumps(k)}: {_render_json(obj[k], level + 1)}"
                      for k in sorted(obj)], level, "{}")
    if isinstance(obj, (list, tuple)):
        return _wrap([_render_json(v, level + 1) for v in obj], level)
    if not isinstance(obj, (float, np.ndarray)):
        return json.dumps(obj)
    a = np.asarray(obj)
    items = list(map(float.__repr__ if a.dtype.kind == "f" else json.dumps,
                     a.ravel().tolist()))
    for i in np.flatnonzero(~np.isfinite(a)):
        items[i] = "null"
    for depth in range(a.ndim - 1, -1, -1):
        n = a.shape[depth]
        items = [_wrap(items[i * n:(i + 1) * n], level + depth)
                 for i in range(int(np.prod(a.shape[:depth])))]
    return items[0]


def _wrap(items, level, brackets="[]"):
    """JSON list or object of rendered `items`, closing at depth `level`."""
    if not items:
        return brackets
    pad = "\n" + " " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + brackets[1]


def _write_json(path, doc):
    _emit(path, _render_json(doc) + "\n")


def _emit(path, text):
    """Write to `path`, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"{path}: cannot write output: {exc}")


def _json_config(cfg):
    # the output path plays no role in regenerating the data
    return {k: v for k, v in cfg.items() if k != "out"}


def _write(cfg, columns, summary):
    """Write `columns`, each (CSV names or None, JSON key, values with one
    row per grid time), as the config preamble plus CSV or as a JSON doc
    that also holds the config and the `checks` summary."""
    config = _json_config(cfg)
    if cfg["format"] == "json":
        doc = {key: np.asarray(values) for _, key, values in columns}
        _write_json(cfg["out"], {**doc, "config": config, "checks": summary})
        return
    lines = _preamble({k: cfg[k] for k in config})
    lines.append(",".join(names for names, _, _ in columns if names))
    table = np.column_stack([values for names, _, values in columns if names])
    cells, width = list(map(_fmt, table.ravel().tolist())), table.shape[1]
    lines.extend(",".join(cells[i:i + width]) for i in range(0, len(cells), width))
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
    """One parser for every command; flags may come before or after it."""
    parser = argparse.ArgumentParser(
        prog="qsmooth", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Quantum trajectory filtering and retrodictive smoothing",
        epilog="commands:\n" + "\n".join(f"  {n:<16}{doc}" for n, (_, doc) in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key = value configuration file")
    for key, (_, _, rule, text) in _KEYS.items():
        choices = "{" + ",".join(rule) + "}" if isinstance(rule, tuple) else None
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, help=text, metavar=choices)
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
