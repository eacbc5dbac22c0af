"""Driven thermal qubit: discretized step operators, record generation,
unconditional evolution, and forward filtering.

One time step of the conditional evolution applies, in order, the
dissipation Kraus pair for the unmeasured channel, the measurement
operator for the realized outcome, and the drive unitary:

    rho ->  U M_y ( sum_l K_l rho K_l^dag ) M_y^dag U^dag .

No-event operators are exact operator square roots, M_0 = sqrt(1 - c^dag c dt)
and K_0 = sqrt(1 - a^dag a dt), so each outcome set is complete to machine
precision and conditional step probabilities are exact for the discrete
model. Records are generated from the actual outcome distribution (for
photon counting this just renormalizes the state each step; for homodyne
the Gaussian ostensible noise dW is shifted by the quadrature mean). A
record is the (n,) array of its outcomes.

All propagation goes through one transfer-matrix core. In the orthonormal
Pauli coordinates of `BASIS`, (1, X, Y, Z) / sqrt(2), each F_y is a real
4 x 4 matrix S_y acting on the real coordinate vector of a state, and the
adjoint F_y^dag is its transpose. `StepOperators` builds the matrices once
from its Kraus lists: S_0 and S_1 for photon counting, and S_y = A + y B +
y^2 C for homodyne, where M_y is affine in y. Forward steps compute
r <- S_y r, backward steps e <- S_y^T e. `forward_walk` is the one forward
loop: it draws each outcome, steps, checks and divides out the weight, for
`filter_batch` and for the two-observer `smoothing.gw_smooth`; the backward
loop is `smoothing.backward_walk`.

The filtering engine is vectorized over a batch of trajectories; a single
trajectory is the batch of size one. All per-trajectory randomness comes
from an independent stream derived from (master seed, trajectory index):
PCG64 seeded by SeedSequence(entropy=seed, spawn_key=(domain, index)).
numpy seeds each stream; `draw_noise` hashes only the index word itself,
for a whole batch in one numpy pass, and gives the same draws as seeding
each stream on its own.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import channels, qmath
from .channels import CPMap
from .qmath import (GROUND, IDENTITY2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                    ZERO_TRACE_TOL, dag, mm, trace_of)

UNRAVELINGS = ("jump", "homodyne_x", "homodyne_y")
_DEFAULT_PHI = {"homodyne_x": 0.0, "homodyne_y": np.pi / 2}


class InvalidParamsError(ValueError):
    """Model parameters fail validation."""


def _validated_rho0(rho0):
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise InvalidParamsError(f"rho0 must be 2x2, got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise InvalidParamsError("rho0 has non-finite entries")
    if np.max(np.abs(rho0 - dag(rho0))) > 1e-12:
        raise InvalidParamsError("rho0 must be Hermitian")
    if qmath.min_eigenvalue(rho0) < -qmath.PSD_CLAMP_TOL:
        raise InvalidParamsError("rho0 must be positive semidefinite")
    tr = trace_of(rho0).real
    if abs(tr - 1.0) > 1e-9:
        raise InvalidParamsError(f"rho0 trace {tr} is not 1")
    out = rho0 / tr
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Physical and numerical configuration of the monitored qubit.

    Rates are in units of gamma, times in units of 1/gamma. `phi` is the
    homodyne phase; when left unset it resolves to 0 for homodyne_x and
    pi/2 for homodyne_y. `eta` is the detection efficiency of the
    monitored emission channel.
    """

    omega: float
    nbar: float
    unraveling: str = "jump"
    gamma: float = 1.0
    phi: Optional[float] = None
    dt: float = 1e-3
    t_final: float = 7.5
    rho0: Optional[np.ndarray] = None
    eta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.unraveling not in UNRAVELINGS:
            raise InvalidParamsError(
                f"unraveling must be one of {UNRAVELINGS}, got {self.unraveling!r}")
        for name in ("omega", "nbar", "gamma", "phi", "t_final"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value}")
        if not (self.gamma > 0):
            raise InvalidParamsError("gamma must be positive")
        if self.nbar < 0:
            raise InvalidParamsError("nbar must be nonnegative")
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidParamsError("eta must lie in [0, 1]")
        if not (self.dt > 0):
            raise InvalidParamsError("dt must be positive")
        if self.t_final < self.dt:
            raise InvalidParamsError("t_final must be at least dt")
        if self.seed < 0 or self.seed % 1 != 0:
            raise InvalidParamsError(f"seed must be a nonnegative integer, got {self.seed}")
        # The no-event roots sqrt(1 - c^dag c dt) and sqrt(1 - sum L^dag L dt)
        # need both arguments PSD.
        _, c, unmeasured = model_operators(self)
        rates = [dag(c) @ c, sum(dag(a) @ a for a in unmeasured)]
        step = np.linalg.eigvalsh(np.array(rates))[:, -1].max() * self.dt
        if not step < 1.0:
            raise InvalidParamsError(
                f"dt too large: max(|c^dag c|, |sum L^dag L|) * dt = {step:.6g} must stay below 1")
        if self.phi is None:
            object.__setattr__(self, "phi", _DEFAULT_PHI.get(self.unraveling))
        rho0 = GROUND if self.rho0 is None else self.rho0
        object.__setattr__(self, "rho0", _validated_rho0(rho0))

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))

    @property
    def times(self):
        return np.arange(self.n_steps + 1) * self.dt

    def replace(self, **kw):
        """Copy with the given fields replaced; a new unraveling resets phi."""
        if "unraveling" in kw:
            kw.setdefault("phi", None)
        return dataclasses.replace(self, **kw)


def _expm_hermitian(h, scale):
    """exp(1j * scale * H) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale * w)) @ dag(v)


# -- the transfer-matrix core ---------------------------------------------------

SQRT2 = math.sqrt(2.0)

# The orthonormal Hermitian basis G_a, Tr[G_a G_b] = delta_ab, of the qubit
# coordinates: (1, X, Y, Z) / sqrt(2), shape (4, 2, 2).
BASIS = np.array([IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z]) / SQRT2
BASIS.setflags(write=False)


def to_vector(m):
    """Real coordinates Tr[G_a m] of Hermitian 2x2 matrices, shape (..., 4)."""
    return np.einsum("aij,...ji->...a", BASIS, m).real


def to_matrix(r):
    """Matrices sum_a r_a G_a from coordinates, shape (..., 2, 2).

    Explicit multiply-adds, so an entry's bits do not depend on the shape
    of the batch it sits in.
    """
    r = np.asarray(r)[..., None, None]
    out = r[..., 0, :, :] * BASIS[0]
    for a in range(1, len(BASIS)):
        out += r[..., a, :, :] * BASIS[a]
    return out


def matrix_property(field):
    """Cached property: the coordinate rows in `field` as matrices."""
    return functools.cached_property(lambda self: to_matrix(getattr(self, field)))


def vector_trace(r):
    """Tr of the matrices with coordinates r (4, ...); only G_0 has a trace."""
    return SQRT2 * r[0]


def transfer_matrix(cpmap):
    """Real matrix S of a CP map, vec(F(m)) = S vec(m); F^dag has S^T."""
    return np.stack([to_vector(channels.apply(cpmap, g)) for g in BASIS], axis=-1)


def stack_products(stack, r):
    """stack @ r: (m, N) from (m, 4) and coordinate columns r (4, N).

    Explicit multiply-adds, so a column's bits do not depend on the batch
    width (a BLAS product may block differently as N changes). Each
    multiply-add runs over a contiguous row of N columns.
    """
    out = stack[:, :1] * r[0]
    term = np.empty_like(out)
    for j in range(1, r.shape[0]):
        out += np.multiply(stack[:, j:j + 1], r[j], out=term)
    return out


@dataclass(frozen=True, eq=False)
class StepOperators:
    """Discretized one-step operators for one unraveling choice.

    All operators are 2x2: the model is one qubit. `c` is the monitored
    (detected) collapse operator; `k` holds the dissipation Kraus list for
    every unmeasured channel, with k[0] the exact no-event square root.

    `blocks` are the transfer matrices F_y is assembled from: (S_0, S_1)
    for photon counting, (A, B, C) with S_y = A + y B + y^2 C for homodyne.
    `forward` stacks them row-wise; for homodyne one more row gives the
    quadrature mean Tr[x K(rho)] after the dissipation K. `backward` stacks
    their transposes.
    """

    u: np.ndarray
    k: tuple
    c: np.ndarray
    dt: float
    unraveling: str
    phi: Optional[float] = None
    # derived operators, filled in __post_init__
    ctc: np.ndarray = field(init=False)
    m0: np.ndarray = field(init=False)
    m1: np.ndarray = field(init=False)
    xquad: Optional[np.ndarray] = field(init=False)
    _hom_base: Optional[np.ndarray] = field(init=False)
    _hom_lin: Optional[np.ndarray] = field(init=False)
    blocks: tuple = field(init=False)
    forward: np.ndarray = field(init=False)
    backward: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.unraveling not in UNRAVELINGS:
            raise ValueError(
                f"unraveling must be one of {UNRAVELINGS}, got {self.unraveling!r}")
        for op in (self.u, self.c, *self.k):
            if np.shape(op) != (2, 2):
                raise ValueError(f"step operators must be 2x2, got shape {np.shape(op)}")
        ctc = mm(dag(self.c), self.c)
        object.__setattr__(self, "ctc", ctc)
        object.__setattr__(self, "m1", np.sqrt(self.dt) * self.c)
        object.__setattr__(self, "m0", qmath.hermitian_sqrt(IDENTITY2 - ctc * self.dt))
        if self.unraveling == "jump":
            object.__setattr__(self, "xquad", None)
            object.__setattr__(self, "_hom_base", None)
            object.__setattr__(self, "_hom_lin", None)
            blocks = tuple(transfer_matrix(self.conditional_map(y)) for y in (0, 1))
            extra = ()
        else:
            if self.phi is None:
                object.__setattr__(self, "phi", _DEFAULT_PHI[self.unraveling])
            ph = np.exp(1j * self.phi)
            object.__setattr__(self, "xquad", self.c * ph + dag(self.c) * np.conj(ph))
            y2 = ctc * self.dt
            object.__setattr__(self, "_hom_base", IDENTITY2 - 0.5 * y2 + 0.125 * mm(y2, y2))
            object.__setattr__(self, "_hom_lin", self.c * ph * self.dt)
            # F_y is quadratic in y: read A, B, C off three evaluations at
            # the size of a typical current, 1/sqrt(dt). At y = +-1 the
            # O(dt^2) term C would come out of an O(1) difference, and S_y
            # would miss F_y by up to 3e-12 at realistic currents.
            scale = 1.0 / np.sqrt(self.dt)
            s_m, s_0, s_p = (transfer_matrix(self.conditional_map(y * scale))
                             for y in (-1.0, 0.0, 1.0))
            blocks = (s_0, (s_p - s_m) / (2.0 * scale),
                      (0.5 * (s_p + s_m) - s_0) / scale ** 2)
            mean = channels.adjoint_apply(self.dissipation_map(), self.xquad)
            extra = (to_vector(mean)[None, :],)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "forward", np.vstack(blocks + extra))
        object.__setattr__(self, "backward", np.vstack([b.T for b in blocks]))

    @classmethod
    def from_operators(cls, h, c, unmeasured, dt, unraveling, phi=None):
        """Build step operators from a Hamiltonian and collapse operators.

        `unmeasured` is the list of Lindblad operators whose dissipation is
        not resolved by the detector; they become the event Kraus
        operators, with the exact no-event root completing the set.
        """
        h = np.asarray(h, dtype=complex)
        d = h.shape[0]
        eye = np.eye(d, dtype=complex)
        u = _expm_hermitian(h, -dt)
        total = np.zeros((d, d), dtype=complex)
        events = []
        for L in unmeasured:
            L = np.asarray(L, dtype=complex)
            total += mm(dag(L), L)
            events.append(np.sqrt(dt) * L)
        k0 = qmath.hermitian_sqrt(eye - total * dt)
        return cls(u=u, k=(k0, *events), c=np.asarray(c, dtype=complex),
                   dt=dt, unraveling=unraveling, phi=phi)

    # -- measurement operators -------------------------------------------

    def measurement_op(self, outcome):
        """Physical measurement operator for one recorded outcome: M_0 or M_1
        for photon counting, M_y = 1 + c e^{i phi} y dt - c^dag c dt / 2 +
        (c^dag c dt)^2 / 8 for homodyne."""
        if self.unraveling == "jump":
            return self.m1 if outcome >= 0.5 else self.m0
        return self._hom_base + float(outcome) * self._hom_lin

    # -- channels ---------------------------------------------------------

    def conditional_map(self, outcome):
        """The one-step conditional CP map F_y as a Kraus list."""
        m = self.measurement_op(outcome)
        um = mm(self.u, m)
        return CPMap(tuple(mm(um, kk) for kk in self.k))

    def dissipation_map(self):
        return CPMap(self.k)

    def unconditional_map(self):
        """Outcome-summed channel; exactly trace preserving."""
        ops = []
        for m in (self.m0, self.m1):
            um = mm(self.u, m)
            ops.extend(mm(um, kk) for kk in self.k)
        return CPMap(tuple(ops))

    # -- transfer matrices --------------------------------------------------

    def combine(self, u, y):
        """S_y r for each column of u = stack @ r, with stack `forward`,
        `backward` or one built from them; y is one outcome per column, or a
        scalar.

        Photon counting picks the block of the outcome; homodyne sums the
        polynomial in y. Applied to the stacked blocks it gives S_y.
        """
        parts = [u[4 * i:4 * (i + 1)] for i in range(len(self.blocks))]
        y = np.asarray(y, dtype=float)
        if self.unraveling == "jump":
            return np.where(y >= 0.5, parts[1], parts[0])
        return parts[0] + y * (parts[1] + y * parts[2])

    def transfer(self, y):
        """The transfer matrix S_y of F_y for one outcome."""
        return self.combine(np.vstack(self.blocks), y)


def model_operators(p: ModelParams):
    """(H, monitored c, unmeasured Lindblad operators) of the driven qubit.

    H = omega sigma_y / 2, monitored channel sqrt(eta gamma (nbar+1)) sigma-,
    unmeasured channels sqrt(gamma nbar) sigma+ plus, for eta < 1, the
    undetected part sqrt((1-eta) gamma (nbar+1)) sigma-.
    """
    h = 0.5 * p.omega * SIGMA_Y
    c_full = np.sqrt(p.gamma * (p.nbar + 1.0)) * SIGMA_MINUS
    unmeasured = [np.sqrt(p.gamma * p.nbar) * SIGMA_PLUS]
    if p.eta < 1.0:
        unmeasured.append(np.sqrt(1.0 - p.eta) * c_full)
    return h, np.sqrt(p.eta) * c_full, unmeasured


def build_step_operators(p: ModelParams) -> StepOperators:
    """Step operators for the driven thermal qubit (see `model_operators`)."""
    return StepOperators.from_operators(
        *model_operators(p), p.dt, p.unraveling, phi=p.phi)


def sample_outcomes(ops: StepOperators, u, r, noise):
    """Outcomes drawn from their actual distribution, given u = stack @ r.

    Photon counting clicks when the uniform draw falls below t1 / (t0 + t1),
    the traces of the two blocks (u may stop after the trace row of the
    second); homodyne adds dW/dt to the quadrature mean read off the last
    row of u. Returns (outcomes, t0 + t1) or (outcomes, mean).
    """
    if ops.unraveling == "jump":
        t0, t1 = vector_trace(u), vector_trace(u[4:])
        total = t0 + t1
        return (noise < t1 / total).astype(float), total
    mean = u[-1] / vector_trace(r)
    return mean + noise / ops.dt, mean


def forward_walk(ops: StepOperators, stacks, states, noise, columns):
    """(s, outcomes, weight, summary) for s = 0, 1, ...: one forward step
    S_y r per column of r = states[s] (4, N), one stack per step from
    `stacks` (`ops.forward` or one built from it), with y drawn by
    `sample_outcomes` from noise[s]. The weight Tr[S_y r] is divided out
    into states[s + 1]; `summary` is what `sample_outcomes` returned beside y.

    Photon counting is click-sparse: every column needs S_0 r and only the
    trace row of S_1 r to draw y, and S_1 r itself is computed for the
    columns that click. Each entry sees the multiply-adds of the full
    product, so the bits equal `ops.combine(stack_products(stack, r), y)`.
    A weight at or below ZERO_TRACE_TOL raises ZeroTraceError naming the
    step and the column's label in `columns`.
    """
    r = states[0]
    for s, stack in enumerate(stacks):
        if ops.unraveling != "jump":
            u = stack_products(stack, r)
            y, summary = sample_outcomes(ops, u, r, noise[s])
            u = ops.combine(u, y)
        else:
            u = stack_products(stack[:5], r)
            y, summary = sample_outcomes(ops, u, r, noise[s])
            u = u[:4]
            clicks = y.nonzero()[0]  # y is 0.0 or 1.0
            if clicks.size:
                u[:, clicks] = stack_products(stack[4:8], r[:, clicks])
        w = vector_trace(u)
        if w.min() <= ZERO_TRACE_TOL:
            raise qmath.ZeroTraceError(
                f"state lost its weight at step {s}, "
                f"trajectory {columns[int(np.argmax(w <= ZERO_TRACE_TOL))]}")
        r = np.divide(u, w, out=states[s + 1])
        yield s, y, w, summary


# -- unconditional evolution ----------------------------------------------

def unconditional_series(p: ModelParams):
    """Unconditional evolution on the full grid, as (n+1, 4) coordinates."""
    ops = build_step_operators(p)
    s_mat = transfer_matrix(ops.unconditional_map())
    r = np.empty((p.n_steps + 1, 4))
    r[0] = to_vector(p.rho0)
    for s in range(p.n_steps):
        r[s + 1] = s_mat @ r[s]
    return r


# -- records and filtering --------------------------------------------------

@dataclass(eq=False)
class FilterResult:
    """Forward filtering output along one record.

    `record` (n,) holds the outcomes: click bits (0.0 / 1.0) for photon
    counting, measured currents y_t for homodyne. `coords` (n+1, 4) are the
    normalized filtered states in `BASIS`; `log_weight` accumulates the
    per-step outcome likelihoods, so exp(log_weight[i]) times the state of
    coords[i] is the unnormalized filtered state (for photon counting its
    trace is the probability of the record so far).
    """

    record: np.ndarray
    coords: np.ndarray
    log_weight: np.ndarray


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), for
# hashing the index word and the output words of a batch of streams in one pass
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _schedule(const, mult, count):
    """xor and multiply constants of `count` successive hashmix steps that
    start from hash constant `const`, as (count,) uint32 arrays."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


def _stream_rows(master_seed, domain, index_words):
    """(N, 4) uint64 rows: row i is SeedSequence(entropy=master_seed,
    spawn_key=(domain, index_words[i])).generate_state(4, np.uint64).

    numpy hashes the words all indices share into the pool of
    SeedSequence(master_seed, spawn_key=(domain,)), after which its hash
    constant has taken 16 + 4 (w - 4) steps for the w words of the seed
    (padded to four) and the domain. The index and output words are hashed
    here on uint32 arrays, where products wrap mod 2^32 without a warning.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(domain,)).pool
    words = [max(1, -(-x.bit_length() // 32)) for x in (master_seed, domain)]
    w = max(4, words[0]) + words[1]
    const = _INIT_A * pow(_MULT_A, 16 + 4 * (w - 4), 1 << 32) & _MASK32
    # the index word, the last one, mixes into the four pool words in turn
    xor, mult = _schedule(const, _MULT_A, 4)
    hashed = (index_words[:, None] ^ xor) * mult
    hashed ^= hashed >> 16
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
    mixed ^= mixed >> 16
    # output words 0..7 cycle the pool and pair little-endian into uint64s
    xor, mult = _schedule(_INIT_B, _MULT_B, 8)
    out = (np.tile(mixed, 2) ^ xor) * mult
    out ^= out >> 16
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Row(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is one precomputed `_stream_rows` row."""

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def draw_noise(master_seed, indices, n, unraveling, dt, domain=0):
    """(n, N) per-step draws, column i from trajectory indices[i]'s stream:
    uniforms for photon counting, N(0, dt) ostensible noise for homodyne.

    The stream of index i is PCG64 seeded by
    SeedSequence(entropy=master_seed, spawn_key=(domain, i)); `domain`
    separates stream families (0 for trajectories, 1 for second-observer
    samples). numpy seeds each stream from its generate_state row, whose
    index-word hash runs here for the whole batch at once; the draws equal
    those of seeding each stream on its own. The seed and domain must be
    nonnegative, and an index must lie in [0, 2^32).
    """
    idx = np.asarray(indices)
    bad = (idx < 0) | (idx > _MASK32)
    if bad.any():
        raise ValueError(f"trajectory index {idx[bad][0]} is outside [0, 2**32)")
    noise = np.empty((n, idx.size))
    scale = np.sqrt(dt)
    rows = _stream_rows(int(master_seed), int(domain), idx.astype(np.uint32))
    for col, row in enumerate(rows):
        rng = np.random.Generator(np.random.PCG64(_Row(row)))
        noise[:, col] = rng.random(n) if unraveling == "jump" \
            else rng.normal(0.0, scale, size=n)
    return noise


def filter_batch(p: ModelParams, ops: StepOperators, traj_indices):
    """Filter a batch of trajectories in lockstep.

    Returns (outcomes (n, N), states (n+1, 4, N), log_weight (n+1, N)),
    time-major with the trajectory axis last; states are coordinate
    columns. Trajectory i consumes only the
    stream derived from (p.seed, traj_indices[i]), so results do not depend
    on how trajectories are grouped into batches.
    """
    n = p.n_steps
    idx = list(traj_indices)
    nb = len(idx)
    noise = draw_noise(p.seed, idx, n, p.unraveling, p.dt)
    states = np.empty((n + 1, 4, nb))
    log_weight = np.zeros((n + 1, nb))
    outcomes = np.empty((n, nb))
    states[0] = to_vector(p.rho0)[:, None]
    for s, y, w, _ in forward_walk(ops, itertools.repeat(ops.forward, n), states, noise, idx):
        outcomes[s] = y
        np.add(log_weight[s], np.log(w), out=log_weight[s + 1])
    return outcomes, states, log_weight


def filter_trajectory(p: ModelParams, traj_index=0,
                      ops: StepOperators | None = None) -> FilterResult:
    """Filtered quantum trajectory for one seeded record.

    Deterministic given (p.seed, traj_index); the stored series includes
    the filtered state at every grid point.
    """
    ops = build_step_operators(p) if ops is None else ops
    outcomes, states, logw = filter_batch(p, ops, [traj_index])
    return FilterResult(outcomes[:, 0], coords=states[:, :, 0], log_weight=logw[:, 0])
