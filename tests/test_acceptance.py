"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion. The three full-size ensembles (3000 trajectories each) are
shared between the physicality, average-purity, and convergence criteria;
expect a few minutes of total runtime. Criteria 1, 3, 4, 5 and 8(b) run the
functions of `qsmooth.checks` that `qsmooth validate` runs, on fixed models.
"""

import time

import numpy as np
import pytest
from gw_enumeration import gw_enumerate
from path_enumeration import enumerate_joint

from qsmooth import checks, classical, smoothing
from qsmooth.dynamics import (
    ModelParams,
    build_step_operators,
    filter_batch,
    filter_trajectory,
    to_matrix,
)
from qsmooth.ensemble import EnsembleSpec, run_ensemble

BASE = dict(omega=5.0, nbar=0.5, gamma=1.0, dt=1e-3, t_final=7.5)
ENSEMBLE_SEED = 2024
N_TRAJ = 3000
WINDOW = (4.0, 7.5)


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fig2_ensembles():
    out = {}
    for unraveling in ("jump", "homodyne_x", "homodyne_y"):
        p = ModelParams(unraveling=unraveling, seed=ENSEMBLE_SEED, **BASE)
        out[unraveling] = run_ensemble(
            EnsembleSpec(params=p, n_traj=N_TRAJ, steady_window=WINDOW))
    return out


def _window_avg_purity_smoothed(res):
    lo, hi = res.window
    sel = (res.times >= lo) & (res.times <= hi)
    return float(np.mean(res.avg_purity_smoothed[sel]))


def test_criterion_1_future_enumeration_exact():
    p = ModelParams(unraveling="jump", seed=7, **{**BASE, "dt": 1e-2})
    start = time.perf_counter()
    defect, tol = checks.future_enumeration(p)
    elapsed = time.perf_counter() - start
    _report("criterion 1 (future-record enumeration)",
            defect < tol and elapsed < 1.0,
            f"max defect {defect:.3e} (tol {tol:g}), runtime {elapsed:.2f}s")


def test_criterion_2_physicality(fig2_ensembles):
    worst_eig = min(r.min_smoothed_eigenvalue for r in fig2_ensembles.values())
    worst_tr = max(r.max_smoothed_trace_defect for r in fig2_ensembles.values())
    n_total = sum(r.n_traj for r in fig2_ensembles.values())
    _report("criterion 2 (physicality over seeded trajectories)",
            worst_eig >= -1e-10 and worst_tr <= 1e-12,
            f"{n_total} trajectories: min eigenvalue {worst_eig:.2e} "
            f"(tol -1e-10), trace defect {worst_tr:.2e} (tol 1e-12)")


def test_criterion_3_closed_form_equals_recursion():
    unravelings = ("jump", "homodyne_x", "homodyne_y")
    results = [checks.closed_vs_recursive(
        ModelParams(unraveling=unravelings[i % 3], seed=1000 + i,
                    **{**BASE, "dt": 1e-2, "t_final": 0.5})) for i in range(100)]
    worst, tol = max(d for d, _ in results), results[0][1]
    _report("criterion 3 (closed form vs recursion, 100 x 50 steps)",
            worst < tol, f"max deviation {worst:.3e} (tol {tol:g})")


def test_criterion_4_classical_reduction():
    rho0 = np.diag([0.3, 0.7]).astype(complex)
    p = ModelParams(unraveling="jump", omega=0.0, nbar=0.5, dt=1e-2,
                    t_final=2.0, rho0=rho0, seed=31)
    assert p.n_steps == 200
    diag_dev, tol = checks.classical_reduction(p)
    smoothed, _ = checks.diagonal_smoothing(p)
    offdiag = float(np.max(np.abs(smoothed[:, 0, 1])))
    _report("criterion 4 (classical reduction, 200 steps)",
            diag_dev < tol and offdiag < 1e-12,
            f"max diagonal deviation {diag_dev:.3e} (tol {tol:g}), "
            f"max coherence {offdiag:.2e}")


def test_criterion_5_petz_composability():
    worst, tol = checks.petz_composability(ModelParams(seed=99, **BASE))
    _report("criterion 5 (Petz composability, 200 channel pairs)",
            worst < tol, f"max deviation {worst:.3e} (tol {tol:g})")


def test_criterion_6_average_purity_improvement(fig2_ensembles):
    details = []
    ok = True
    for unraveling, res in fig2_ensembles.items():
        sig = res.purity_gain_mean / res.purity_gain_se
        ok &= res.purity_gain_mean > 0 and sig > 3.0
        details.append(f"{unraveling}: gain {res.purity_gain_mean:.4f} "
                       f"+/- {res.purity_gain_se:.4f} ({sig:.0f} sigma), "
                       f"rel {res.relative_improvement:.4f}")
    rels = {u: r.relative_improvement for u, r in fig2_ensembles.items()}
    jump_largest = rels["jump"] > rels["homodyne_x"] and rels["jump"] > rels["homodyne_y"]
    ok &= jump_largest
    y_beats_x = (_window_avg_purity_smoothed(fig2_ensembles["homodyne_y"])
                 >= _window_avg_purity_smoothed(fig2_ensembles["homodyne_x"]))
    ok &= y_beats_x
    _report("criterion 6 (average purity, steady window)",
            ok,
            "; ".join(details) + f"; jump largest relative: {jump_largest}; "
            f"Y >= X absolute: {y_beats_x}")


def test_criterion_7_ensemble_mean_convergence(fig2_ensembles):
    tol = 4.0 / np.sqrt(N_TRAJ) + 5.0 * BASE["dt"]
    worst = 0.0
    for res in fig2_ensembles.values():
        worst = max(worst,
                    float(np.max(np.abs(res.mean_bloch_filtered - res.uncond_bloch))),
                    float(np.max(np.abs(res.mean_bloch_smoothed - res.uncond_bloch))))
    _report("criterion 7 (ensemble means track the unconditional solution)",
            worst < tol, f"max Bloch deviation {worst:.4f} (tol {tol:.4f})")


def test_criterion_8_swv_unphysical_and_identity():
    # part (a): some smoothed weak-valued state exceeds unit purity
    p = ModelParams(unraveling="jump", seed=55, **BASE)
    ops = build_step_operators(p)
    outcomes, states, _ = filter_batch(p, ops, range(240))
    with_click = np.nonzero((outcomes >= 0.5).any(axis=0))[0][:200]
    assert len(with_click) == 200
    states = states[:, :, with_click]
    max_swv_purity = 0.0
    for s, effect, _ in smoothing.backward_walk(ops, outcomes[:, with_click]):
        pur, _ = smoothing.swv_purity_series(states[s], effect)
        max_swv_purity = max(max_swv_purity, float(pur.max()))
    unphysical = max_swv_purity > 1.0 + 1e-6

    # part (b): the double-commutator relation to the closed form
    worst, tol = checks.swv_identity(ModelParams(seed=4, **BASE))
    _report("criterion 8 (SWV unphysicality and identity)",
            unphysical and worst < tol,
            f"max SWV purity {max_swv_purity:.4f} (> 1 + 1e-6: {unphysical}); "
            f"identity deviation {worst:.3e} (tol {tol:g})")


def test_criterion_9_two_observer_equivalence():
    pure_ground = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    p = ModelParams(unraveling="jump", omega=5.0, nbar=0.5, dt=1e-2,
                    t_final=0.1, rho0=pure_ground, seed=5)
    assert p.n_steps == 10
    fr = filter_trajectory(p)
    exact, alice_coords = gw_enumerate(fr.record, p)
    alice = to_matrix(alice_coords)
    equiv = float(np.max(np.abs(exact.gw - exact.gw_pf)))
    alice_norm = alice / np.einsum("tii->t", alice).real[:, None, None]
    filt_dev = float(np.max(np.abs(alice_norm - to_matrix(fr.coords))))

    mc1 = smoothing.gw_smooth(fr.record, p, "jump", n_bob=1000, seed=123)
    mc4 = smoothing.gw_smooth(fr.record, p, "jump", n_bob=4000, seed=123)
    e1 = float(np.max(np.abs(mc1.gw - exact.gw)))
    e4 = float(np.max(np.abs(mc4.gw - exact.gw)))
    shrinks = e4 < 0.8 * e1
    _report("criterion 9 (two-observer smoothing, pure true states)",
            equiv < 1e-9 and filt_dev < 1e-10 and shrinks,
            f"mixture vs closed-form gap {equiv:.3e} (tol 1e-9); "
            f"unobserved sum vs filtered {filt_dev:.2e}; "
            f"MC error {e1:.3e} -> {e4:.3e} at 4x samples")


def test_criterion_10_classical_route_equivalence():
    rng = np.random.default_rng(12)
    worst_routes = 0.0
    worst_enum = 0.0
    for _ in range(25):
        raw = rng.random((2, 3, 3)) + 0.05
        col = raw.sum(axis=(0, 1))
        kernel = classical.ConditionalKernel(
            {0: raw[0] / col[None, :], 1: raw[1] / col[None, :]})
        prior = rng.random(3) + 0.1
        record = list(rng.integers(0, 2, size=8))
        bayes = classical.smooth_bayes_series(kernel, record, prior)
        retro = classical.smooth_retro_series(kernel, record, prior)
        scale = bayes.max()
        worst_routes = max(worst_routes, float(np.max(np.abs(bayes - retro)) / scale))
        for t in (0, 4, 8):
            joint = enumerate_joint(kernel, record, prior, t)
            worst_enum = max(worst_enum, float(np.max(np.abs(bayes[t] - joint)) / scale))
    _report("criterion 10 (classical smoothing routes)",
            worst_routes < 1e-10 and worst_enum < 1e-10,
            f"Bayes vs retrodictive {worst_routes:.3e}, "
            f"vs path enumeration {worst_enum:.3e} (tol 1e-10)")
