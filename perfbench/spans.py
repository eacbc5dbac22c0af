"""In-memory span tracing around the qsmooth module attributes.

The tracer replaces module attributes (for example
`qsmooth.qmath.sqrt_psd_stack`) with wrappers that record one span per
call: its name, the op it belongs to, the span that caused it, start and
end. Callers reach the wrapper because every call site in qsmooth looks the
function up through a module namespace at call time, either as
`module.func` or as a module global. Spans stay in memory until `dump`.

A layer's self time is its span's duration minus the time covered by its
direct child spans; calls run on one thread, so there is no waiting time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict


def _matrices(args, kwargs, result):
    """Matrices in a (..., d, d) stack argument."""
    return math.prod(args[0].shape[:-2])


def _batch_width(args, kwargs, result):
    """Trajectories advanced by one backward effect step."""
    effect = args[2]
    return effect.shape[0] if effect.ndim == 3 else 1


def _filter_traj_steps(args, kwargs, result):
    p, _, idx = args[:3]
    return len(idx) * p.n_steps


def _result_mb(args, kwargs, result):
    """Computed bytes of the arrays filter_batch returns, in MB."""
    return sum(a.nbytes for a in result if a is not None) / 1e6


# (span name, [(module, attribute), ...], {count name: counter}).
# Every module that binds the function under its own name is listed, so the
# span sees calls from each caller.
LAYERS = (
    ("dynamics.build_step_operators",
     [("dynamics", "build_step_operators"), ("ensemble", "build_step_operators"),
      ("smoothing", "build_step_operators"), ("cli", "build_step_operators")], {}),
    ("dynamics.filter_batch",
     [("dynamics", "filter_batch"), ("ensemble", "filter_batch")],
     {"traj_steps": _filter_traj_steps, "states_mb": _result_mb}),
    ("dynamics.unconditional_series",
     [("dynamics", "unconditional_series"), ("cli", "unconditional_series")], {}),
    ("channels.apply", [("channels", "apply")], {}),
    ("channels.petz_recover", [("channels", "petz_recover")], {}),
    # Named for the F_y-dagger operation, not for the helpers that do it.
    ("smoothing.backward_step",
     [("smoothing", "_adjoint_step"), ("smoothing", "_adjoint_step_batch")],
     {"traj_steps": _batch_width}),
    ("smoothing.retrofilter", [("smoothing", "retrofilter")], {}),
    ("smoothing.petz_fuchs_series", [("smoothing", "petz_fuchs_series")], {}),
    ("smoothing.swv_purity_series", [("smoothing", "swv_purity_series")], {}),
    ("smoothing.petz_fuchs_recursive", [("smoothing", "petz_fuchs_recursive")], {}),
    ("smoothing.gw_smooth", [("smoothing", "gw_smooth")], {}),
    ("smoothing.gw_combine", [("smoothing", "_combine_true_states")], {}),
    ("qmath.sqrt_psd_stack", [("qmath", "sqrt_psd_stack")], {"matrices": _matrices}),
    ("qmath.min_eigenvalue_stack", [("qmath", "min_eigenvalue_stack")], {}),
    ("ensemble.run_ensemble", [("ensemble", "run_ensemble")], {}),
    ("cli.main", [("cli", "main")], {}),
)


class Tracer:
    """Records spans while installed; `op` tags the spans of one request."""

    def __init__(self, package):
        self.package = package
        self.names = [name for name, _, _ in LAYERS]
        # (name index, op, parent span or -1, start, end)
        self.spans = []
        # per layer name: {"calls": n, "self_s": s, <count>: total}
        self.totals = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name_idx, fn, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        totals = self.totals[self.names[name_idx]]

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0]  # span id, time covered by direct children
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[sid] = (name_idx, self.op, parent, t0, t1)
                totals["calls"] += 1
                totals["self_s"] += (t1 - t0) - frame[1]
            for key, count in counters.items():
                totals[key] += count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        """Install the wrappers."""
        for name_idx, (_, targets, counters) in enumerate(LAYERS):
            for mod_name, attr in targets:
                module = getattr(self.package, mod_name)
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name_idx, fn, counters))
        return self

    def __exit__(self, *exc):
        """Put the original functions back."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def add(self, name, key, value):
        """Count work measured by the caller at a layer boundary."""
        self.totals[name][key] += value

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for sid, (name_idx, op, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[name_idx]}\t"
                         f"{t0!r}\t{t1!r}\n")
