"""Environment laws for marked Galton-Watson trees and their exact analytics.

A law specifies one generation of the branching environment: how many
children a vertex produces and which displacement each child adds to the
branching potential. Two families are supported in closed form:

* ``two-point``: with probability q one child with displacement a, with
  probability 1-q exactly m children each with displacement b. When b is
  omitted it is calibrated so the log-Laplace transform vanishes at 1.
* ``generic``: a finite list of (probability, displacement-vector) atoms.

A ``gaussian`` family (fixed child count, i.i.d. normal displacements) is
provided for regime and ellipticity experiments; its transform is closed
form but its displacements are unbounded below, so it fails the ellipticity
requirement by construction.

All transforms, moments and schedule constants are evaluated exactly over
the atoms; nothing here is Monte Carlo except the explicit estimators.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError, ScheduleInfeasibleError, SolverError

__all__ = [
    "EnvironmentLaw",
    "two_point_law",
    "generic_law",
    "gaussian_law",
    "default_law",
    "log_laplace",
    "log_laplace_prime",
    "kappa",
    "classify_regime",
    "check_assumptions",
    "many_to_one_step_law",
    "sample_tilted_walk",
    "estimate_c_infinity",
    "c_infinity",
    "CInfinity",
    "moment_c_j",
    "c_zero",
    "Schedule",
    "compute_schedule",
    "rate_delta0",
    "band_shrink_values",
    "law_to_text",
    "law_from_text",
]

# Tolerances pinned once for the whole package.
CALIBRATION_TOL = 1e-12
ROOT_TOL = 1e-9
KAPPA_T_MAX = 64.0
# Rows of tilted-walk paths per recursion block: the block holds one small
# unsigned atom index per step and row, and the recursion state one float
# per row.
TILTED_BLOCK_ROWS = 4096
# Uniforms _atom_index draws at once (512 KiB of float64), whatever the size.
_ATOM_SLAB = 1 << 16
# Deterministic c_inf (see c_infinity): intervals of the coarser log-y grid,
# top of the grid, sup-norm tolerance and cap of the fixed-point sweeps, and
# quadrature nodes of the gaussian family's tilted step.
C_INF_GRID = 20_000
C_INF_Y_MAX = 1e7
C_INF_TOL = 1e-13
C_INF_MAX_ITER = 2_000
GAUSS_HERMITE_NODES = 24

# Generation-band formulas use base-10 logarithms (see compute_schedule).
_LOG = math.log10


@dataclass(frozen=True)
class EnvironmentLaw:
    """Finite description of the offspring/displacement law of one generation.

    ``atoms`` is a tuple of (probability, displacement-vector) pairs; the
    vector length is the number of children produced by that atom. The
    gaussian family keeps ``atoms`` empty and carries its own parameters.
    """

    family: str
    atoms: tuple = ()
    q: float = None
    a: float = None
    m: int = None
    b: float = None
    gauss_children: int = None
    gauss_mean: float = None
    gauss_sd: float = None

    def __post_init__(self):
        if self.family in ("two-point", "generic"):
            if any(not (math.isfinite(p) and p >= 0.0) for p, _ in self.atoms):
                raise CalibrationError("atom probabilities must be finite and >= 0")
            total = sum(p for p, _ in self.atoms)
            if abs(total - 1.0) > 1e-12:
                raise CalibrationError(f"atom probabilities sum to {total}, not 1")
            for _, disp in self.atoms:
                if any(not math.isfinite(d) for d in disp):
                    raise CalibrationError("non-finite displacement in atom")

    # -- basic structure ---------------------------------------------------

    @property
    def mean_offspring(self) -> float:
        if self.family == "gaussian":
            return float(self.gauss_children)
        return sum(p * len(d) for p, d in self.atoms)

    @property
    def max_offspring(self) -> int:
        if self.family == "gaussian":
            return self.gauss_children
        return max((len(d) for _, d in self.atoms), default=0)

    @property
    def can_die_out(self) -> bool:
        """True when some atom of positive mass has no children."""
        return any(p > 0.0 and not d for p, d in self.atoms)

    @property
    def ellipticity_bound(self) -> float:
        """Uniform lower bound -h on displacements; inf when unbounded below."""
        if self.family == "gaussian":
            return math.inf
        lo = min((min(d) for _, d in self.atoms if d), default=0.0)
        return max(0.0, -lo)

    # -- sampling ----------------------------------------------------------

    def sample_generation(self, rng: np.random.Generator, n_parents: int):
        """Vectorized one-generation draw for ``n_parents`` vertices.

        Returns (counts, displacements) with displacements flattened in
        parent order. For atom laws the only draw is one
        :func:`_atom_index` call (one uniform per parent) picking each
        parent's atom; the displacements are read off the chosen atoms.
        The gaussian family draws one normal per child, in parent order.
        """
        if self.family == "gaussian":
            counts = np.full(n_parents, self.gauss_children, dtype=np.int64)
            disp = rng.normal(self.gauss_mean, self.gauss_sd, int(counts.sum()))
            return counts, disp
        idx = _atom_index(rng, np.array([p for p, _ in self.atoms]), n_parents)
        sizes = np.array([len(d) for _, d in self.atoms], dtype=np.int64)
        counts = sizes[idx.astype(np.intp)]
        starts = np.cumsum(counts)
        disp = np.empty(int(starts[-1]) if n_parents else 0)
        starts -= counts
        # One scatter per (atom, child slot) into the parents' blocks.
        for j, (_, d) in enumerate(self.atoms):
            if not d:
                continue
            pos = np.compress(idx == j, starts)
            for x in d:
                disp[pos] = x
                pos += 1
        return counts, disp

    def child_weights(self, rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
        """Per parent potential in ``v``, the sum of exp(-(v + d)) over the
        displacements d of one drawn generation of its children.

        The draw is that of ``sample_generation(rng, len(v))``, and each sum
        adds its children's weights in child order starting from 0.0, so the
        result is bitwise that of reducing the drawn generation child by
        child. Atom laws take one exponential per parent and *distinct*
        displacement of its atom; the gaussian family sums its (parents,
        children) weights column by column.
        """
        if self.family == "gaussian":
            disp = rng.normal(self.gauss_mean, self.gauss_sd, (len(v), self.gauss_children))
            return sum(np.exp(-(disp + v[:, None])).T, np.zeros(len(v)))
        idx = _atom_index(rng, np.array([p for p, _ in self.atoms]), len(v))
        out = np.zeros(len(v))
        for j, (_, d) in enumerate(self.atoms):
            if d:
                rows = np.flatnonzero(idx == j)
                vj = v[rows]
                weight = {x: np.exp(-(vj + x)) for x in set(d)}
                out[rows] = sum(weight[x] for x in d)
        return out


def _atom_index(rng: np.random.Generator, probs: np.ndarray, size, out=None) -> np.ndarray:
    """Categorical draw of atom indices with masses ``probs``.

    Equal, value for value, to ``rng.choice(len(probs), size=size,
    p=probs)``, and leaves ``rng`` where that call would: one uniform per
    draw, filled row-major, and the index is the number of normalized
    cumulative masses at or below it (the last mass excluded). The indices
    go into ``out``, a C-contiguous array of shape ``size``, or else into a
    new array of the smallest unsigned dtype that holds ``len(probs) - 1``.
    The uniforms are drawn ``_ATOM_SLAB`` at a time along the row-major
    order, which consumes the stream exactly as one whole draw does, so no
    float array larger than one slab is ever allocated.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    if out is None:
        out = np.empty(size, dtype=np.min_scalar_type(len(probs) - 1))
    out.fill(0)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _ATOM_SLAB):
        u = rng.random(min(_ATOM_SLAB, flat.size - lo))
        idx = flat[lo:lo + len(u)]
        for c in cdf[:-1]:
            idx += u >= c
    return out


def two_point_law(q: float = 0.5, a: float = -0.1, m: int = 3, b: float = None) -> EnvironmentLaw:
    """Two-point family; b calibrated to make the transform vanish at 1 if omitted."""
    if not 0.0 < q < 1.0:
        raise CalibrationError("q must lie in (0,1)")
    if m < 1:
        raise CalibrationError("m must be a positive integer")
    if b is None:
        mass = 1.0 - q * math.exp(-a)
        if mass <= 0.0:
            raise CalibrationError("cannot calibrate: q*exp(-a) >= 1")
        b = -math.log(mass / ((1.0 - q) * m))
    atoms = ((q, (a,)), (1.0 - q, (b,) * m))
    return EnvironmentLaw(family="two-point", atoms=atoms, q=q, a=a, m=m, b=b)


def generic_law(atoms) -> EnvironmentLaw:
    """Law from an explicit finite list of (probability, displacement-vector) atoms."""
    norm = tuple((float(p), tuple(float(x) for x in d)) for p, d in atoms)
    return EnvironmentLaw(family="generic", atoms=norm)


def gaussian_law(children: int = 2, sd: float = 0.5, mean: float = None) -> EnvironmentLaw:
    """Fixed child count with i.i.d. normal displacements.

    The mean defaults to the calibrated value log(children) + sd^2/2.
    """
    if mean is None:
        mean = math.log(children) + 0.5 * sd * sd
    return EnvironmentLaw(
        family="gaussian", gauss_children=children, gauss_mean=mean, gauss_sd=sd
    )


def default_law() -> EnvironmentLaw:
    """The calibrated reference law used throughout the test-bench."""
    return two_point_law()


# ---------------------------------------------------------------------------
# log-Laplace transform and derived constants
# ---------------------------------------------------------------------------


def log_laplace(law: EnvironmentLaw, t: float) -> float:
    """psi(t) = log E[sum over children of exp(-t * displacement)]."""
    if law.family == "gaussian":
        return (
            math.log(law.gauss_children)
            - t * law.gauss_mean
            + 0.5 * t * t * law.gauss_sd**2
        )
    total = 0.0
    for p, disp in law.atoms:
        total += p * sum(math.exp(-t * d) for d in disp)
    if total <= 0.0 or not math.isfinite(total):
        raise DomainError(f"transform diverges at t={t}")
    return math.log(total)


def log_laplace_prime(law: EnvironmentLaw, t: float) -> float:
    """Exact derivative of the transform."""
    if law.family == "gaussian":
        return -law.gauss_mean + t * law.gauss_sd**2
    num = 0.0
    den = 0.0
    for p, disp in law.atoms:
        for d in disp:
            w = p * math.exp(-t * d)
            num += d * w
            den += w
    return -num / den


def is_calibrated(law: EnvironmentLaw, tol: float = CALIBRATION_TOL) -> bool:
    return abs(log_laplace(law, 1.0)) <= tol


def kappa(law: EnvironmentLaw) -> float:
    """Second zero of the transform on (1, KAPPA_T_MAX]; inf when none exists there.

    Requires calibration (psi(1)=0) and negative drift at 1. The sentinel
    ``math.inf`` is returned only after verifying the transform stays
    negative and is still decreasing at ``KAPPA_T_MAX``.
    """
    if not is_calibrated(law, tol=ROOT_TOL):
        raise CalibrationError("psi(1) != 0; calibrate the law first")
    if log_laplace_prime(law, 1.0) >= 0.0:
        raise CalibrationError("psi'(1) >= 0; no second zero beyond 1")
    # Scan for a sign change; psi is convex with psi(1)=0 and psi'(1)<0.
    lo = 1.0
    hi = None
    t = 1.0
    step = 0.25
    while t < KAPPA_T_MAX:
        t = min(t + step, KAPPA_T_MAX)
        v = log_laplace(law, t)
        if v > 0.0:
            hi = t
            break
        lo = t
    if hi is None:
        if log_laplace(law, KAPPA_T_MAX) < 0.0 and log_laplace_prime(law, KAPPA_T_MAX) < 0.0:
            return math.inf
        raise DomainError("transform neither crosses zero nor decreases at KAPPA_T_MAX")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        v = log_laplace(law, mid)
        if abs(v) < ROOT_TOL * 1e-3:
            return mid
        if v < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a convex f over [lo, hi]: the lower of the
    two inner values once the bracket is below 1e-12 wide (at most 200 cuts)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
        if hi - lo < 1e-12:
            break
    return min(fc, fd)


def _inf_psi_01(law: EnvironmentLaw) -> float:
    """Minimum of the transform over [0,1] (convex: golden-section)."""
    inner = _golden_min(lambda t: log_laplace(law, t), 0.0, 1.0)
    return min(inner, log_laplace(law, 0.0), log_laplace(law, 1.0))


def classify_regime(law: EnvironmentLaw) -> str:
    """Walk regime implied by the transform's shape on [0,1] and beyond."""
    inf01 = _inf_psi_01(law)
    if inf01 > ROOT_TOL:
        return "transient"
    if inf01 < -ROOT_TOL:
        return "positive-recurrent"
    slope = log_laplace_prime(law, 1.0)
    if slope > ROOT_TOL:
        return "positive-recurrent"
    if abs(slope) <= ROOT_TOL:
        return "null-recurrent-slow"
    k = kappa(law)
    if k > 2.0:
        return "null-recurrent-diffusive"
    return "null-recurrent-subdiffusive"


# ---------------------------------------------------------------------------
# joint moments over one generation
# ---------------------------------------------------------------------------


def moment_c_j(law: EnvironmentLaw, j: int, beta) -> float:
    """E[sum over ordered j-tuples of distinct children of exp(-<beta, V>)].

    Exact over the atoms; 0 when no atom has at least j children.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    beta = tuple(beta)
    if len(beta) != j:
        raise ValueError("beta must have length j")
    if law.family == "gaussian":
        n = law.gauss_children
        if n < j:
            return 0.0
        falling = 1.0
        for i in range(j):
            falling *= n - i
        prod = 1.0
        for bi in beta:
            prod *= math.exp(-bi * law.gauss_mean + 0.5 * (bi * law.gauss_sd) ** 2)
        return falling * prod
    total = 0.0
    import itertools

    for p, disp in law.atoms:
        if len(disp) < j:
            continue
        acc = 0.0
        for perm in itertools.permutations(disp, j):
            acc += math.exp(-sum(bi * di for bi, di in zip(beta, perm)))
        total += p * acc
    return total


def c_zero(law: EnvironmentLaw) -> float:
    """Distinct-pair moment normalized by the level-2 contraction factor."""
    psi2 = log_laplace(law, 2.0)
    if psi2 >= 0.0:
        raise DomainError("psi(2) >= 0: normalizing denominator vanishes")
    return moment_c_j(law, 2, (1, 1)) / (1.0 - math.exp(psi2))


# ---------------------------------------------------------------------------
# tilted one-dimensional walk
# ---------------------------------------------------------------------------


def many_to_one_step_law(law: EnvironmentLaw):
    """Discrete step law of the size-biased (tilted) walk.

    Atoms: each child displacement d receives mass p * exp(-d). Requires
    the masses to sum to 1 within ``ROOT_TOL`` (calibration).
    """
    if law.family == "gaussian":
        raise DomainError("step law is continuous for the gaussian family")
    masses = {}
    for p, disp in law.atoms:
        for d in disp:
            masses[d] = masses.get(d, 0.0) + p * math.exp(-d)
    total = sum(masses.values())
    if abs(total - 1.0) > ROOT_TOL:
        raise CalibrationError(f"tilted masses sum to {total}, not 1")
    values = sorted(masses)
    return [(v, masses[v]) for v in values]


def _tilted_atoms(law: EnvironmentLaw):
    """Values and renormalized masses of :func:`many_to_one_step_law`."""
    atoms = many_to_one_step_law(law)
    probs = np.array([p for _, p in atoms])
    return np.array([v for v, _ in atoms]), probs / probs.sum()


def sample_tilted_walk(law: EnvironmentLaw, steps: int, rng: np.random.Generator, replicas: int = 1):
    """Paths of the tilted walk, shape (replicas, steps+1), starting at 0."""
    values, probs = _tilted_atoms(law)
    incs = values.take(_atom_index(rng, probs, (replicas, steps)))
    paths = np.zeros((replicas, steps + 1))
    np.cumsum(incs, axis=1, out=paths[:, 1:])
    return paths


def _tilted_perpetuity(law: EnvironmentLaw, steps: int, rng: np.random.Generator,
                       replicas: int, start: float, backward: bool) -> np.ndarray:
    """Q = 1 + e^{-xi_j} Q over the steps xi_1..xi_steps of each tilted path,
    from Q = ``start``, first step to last or, if ``backward``, last to first.

    Forward gives (start - 1) e^{-S_d} + sum_{j<=d} e^{S_j - S_d}; backward
    from 1 gives sum_{j<=d} e^{-S_j}. The steps are those of
    :func:`sample_tilted_walk` on the same ``rng``: blocks of
    ``TILTED_BLOCK_ROWS`` rows draw their atom indices row-major through
    :func:`_atom_index`, so the stream is consumed as by one (replicas,
    steps) draw and ends where that draw leaves it. One index block and its
    transpose, both of the atom index dtype (one byte per step and row), are
    allocated per call and refilled block by block; each step's factors
    e^{-xi} are read from a per-atom table one step at a time. Beyond the
    output, no float array larger than one step's factors or one slab of
    uniforms is held.
    """
    values, probs = _tilted_atoms(law)
    factor = np.exp(-values)
    out = np.empty(replicas)
    rows = min(TILTED_BLOCK_ROWS, replicas)
    rows_first = np.empty((rows, steps), dtype=np.min_scalar_type(len(probs) - 1))
    steps_first = np.empty((steps, rows), dtype=rows_first.dtype)
    for lo in range(0, replicas, TILTED_BLOCK_ROWS):
        block = rows_first[:replicas - lo]
        _atom_index(rng, probs, block.shape, out=block)
        columns = steps_first[:, :len(block)]
        columns[...] = block.T
        q = out[lo:lo + len(block)]
        q.fill(start)
        for col in columns[::-1] if backward else columns:
            q *= factor.take(col)
            q += 1.0
    return out


def _mean_se(vals: np.ndarray) -> tuple:
    """(mean, standard error of the mean) of a sample, as floats; None for a
    mean of no value and for a standard error of one."""
    n = len(vals)
    return (float(vals.mean()) if n else None,
            float(vals.std(ddof=1) / math.sqrt(n)) if n >= 2 else None)


@dataclass(frozen=True)
class CInfinityEstimate:
    value: float
    se: float
    truncation: int
    replicas: int
    bracket: tuple

    def within_bracket(self) -> bool:
        lo, hi = self.bracket
        return lo <= self.value <= hi


def estimate_c_infinity(
    law: EnvironmentLaw,
    truncation: int = 200,
    replicas: int = 100_000,
    rng: np.random.Generator = None,
) -> CInfinityEstimate:
    """Monte Carlo mean of 1 / sum_{j<=L} exp(-S_j) along the tilted walk.

    Each path's sum is the perpetuity Q = 1 + e^{-xi_j} Q run from Q = 1
    over its steps from the L-th back to the first (Horner's rule), with no
    path matrix and no exponential per step. The draws are those of
    :func:`sample_tilted_walk` on ``rng``, and each value agrees with the
    exp-cumsum form on those paths up to rounding. ``replicas`` must be at
    least 2, for the standard error. The deterministic bracket
    [1 - exp(psi(2)), 1] is attached to the estimate; the mean always lies
    inside it.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    if replicas < 2:
        raise ValueError("replicas must be >= 2")
    lo = 1.0 - math.exp(log_laplace(law, 2.0))
    if truncation == 0:
        return CInfinityEstimate(1.0, 0.0, 0, replicas, (lo, 1.0))
    value, se = _mean_se(1.0 / _tilted_perpetuity(law, truncation, rng, replicas, 1.0,
                                                   backward=True))
    return CInfinityEstimate(value, se, truncation, replicas, (lo, 1.0))


@dataclass(frozen=True)
class CInfinity:
    """Deterministic c_inf; ``error`` estimates its grid discretization error."""

    value: float
    error: float
    bracket: tuple


def _tilted_step_nodes(law: EnvironmentLaw):
    """(values, probabilities) of the tilted step.

    Finite-atom laws give the atoms of :func:`many_to_one_step_law`. The
    gaussian family's tilted step is N(mean - sd^2, sd^2); it is replaced by
    ``GAUSS_HERMITE_NODES`` Gauss-Hermite nodes.
    """
    if law.family != "gaussian":
        atoms = many_to_one_step_law(law)
        return np.array([v for v, _ in atoms]), np.array([p for _, p in atoms])
    psi1 = log_laplace(law, 1.0)
    if abs(psi1) > ROOT_TOL:
        raise CalibrationError(f"psi(1) = {psi1}, not 0: the tilted step has no law")
    x, w = np.polynomial.hermite_e.hermegauss(GAUSS_HERMITE_NODES)
    sd = law.gauss_sd
    return law.gauss_mean - sd * sd + sd * x, w / math.sqrt(2.0 * math.pi)


def _interpolation(logq, weights, x0, h, intervals, mean_p):
    """Gather indices K, weights W and tail values t such that
    (u[K] * W).sum(axis=0) + t == (weights * u(exp(logq))).sum(axis=0).

    ``u`` holds values on the grid x0 + h * i, i = 0..intervals, of log y, is
    linear in log y between grid points and equals 1 - mean_p / y above the
    grid. Every query must lie at or above x0.
    """
    pos = (logq - x0) / h
    inside = pos <= intervals
    k = np.minimum(pos.astype(np.int64), intervals - 1)
    t = pos - k
    w = np.where(inside, weights, 0.0)
    tail = np.where(inside, 0.0, weights * (1.0 - mean_p * np.exp(-logq))).sum(axis=0)
    return np.concatenate([k, k + 1]), np.concatenate([w * (1.0 - t), w * t]), tail


def _perpetuity_solve(xi, p, mean_p, intervals):
    """c_inf = E[u(e^xi)] from the fixed point u(y) = y/(1+y) E[u(e^xi (1+y))]
    on a grid of ``intervals`` intervals in log y."""
    x0 = float(xi.min())
    x1 = max(math.log(C_INF_Y_MAX), x0 + 1.0)
    h = (x1 - x0) / intervals
    x = x0 + h * np.arange(intervals + 1)
    # one row per step value; log(e^xi (1+y)) >= x0, so the grid covers each query
    logq = xi[:, None] + np.logaddexp(0.0, x)
    ratio = 1.0 / (1.0 + np.exp(-x))  # y / (1+y)
    idx, w, tail = _interpolation(logq, p[:, None] * ratio, x0, h, intervals, mean_p)
    u = 1.0 / (1.0 + mean_p * np.exp(-x))  # y / (y + E[P]), the tail's first order
    for _ in range(C_INF_MAX_ITER):
        nxt = (u[idx] * w).sum(axis=0) + tail
        gap = float(np.max(np.abs(nxt - u)))
        u = nxt
        if gap <= C_INF_TOL:
            break
    else:
        raise SolverError(
            f"c_inf fixed point not converged in {C_INF_MAX_ITER} iterations", residual=gap)
    idx, w, tail = _interpolation(xi[:, None], p[:, None], x0, h, intervals, mean_p)
    return float((u[idx] * w).sum() + tail[0])


def c_infinity(law: EnvironmentLaw) -> CInfinity:
    """Deterministic c_inf = E[1/P] with P = sum_{j>=0} exp(-S_j) along the
    tilted walk.

    P is the perpetuity P = 1 + exp(-xi) P' (xi one tilted step, P' an
    independent copy), so u(y) = E[y/(y+P)] solves u(y) = y/(1+y) *
    E[u(e^xi (1+y))] and c_inf = E[u(e^xi)]. The fixed point is iterated on a
    uniform grid in log y from the lowest step value to ``C_INF_Y_MAX``, with
    linear interpolation and the tail u(y) = 1 - E[P]/y above the grid,
    E[P] = 1/(1 - exp(psi(2))). The value is that of ``2 * C_INF_GRID``
    intervals, and ``error`` is a third of its gap to ``C_INF_GRID``
    intervals, which assumes a second-order scheme. It is an estimate, not a
    bound: for the default law the gap shrinks by 4.0 and then 3.5 per grid
    doubling, so the true grid error can be about 20% larger. The sweeps
    contract roughly like exp(psi(2)) per sweep, so laws near psi(2) = 0
    need many; the solve raises :class:`SolverError` when the sup-norm
    change has not fallen to ``C_INF_TOL`` within ``C_INF_MAX_ITER`` sweeps,
    and :class:`DomainError` when psi(2) >= 0 (E[P] infinite).
    """
    psi2 = log_laplace(law, 2.0)
    if psi2 >= 0.0:
        raise DomainError("psi(2) >= 0: the perpetuity has no finite mean")
    xi, p = _tilted_step_nodes(law)
    mean_p = 1.0 / (1.0 - math.exp(psi2))
    coarse = _perpetuity_solve(xi, p, mean_p, C_INF_GRID)
    fine = _perpetuity_solve(xi, p, mean_p, 2 * C_INF_GRID)
    return CInfinity(fine, abs(fine - coarse) / 3.0, (1.0 - math.exp(psi2), 1.0))


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------


def check_assumptions(law: EnvironmentLaw, k: int) -> dict:
    """Verify the standing assumptions needed by the k-tuple range results.

    Returns a JSON-ready report: one record per check plus the computed
    constants (psi1, psi_prime1, kappa, h_ell, delta0).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    checks = []
    psi1 = log_laplace(law, 1.0)
    psi_prime1 = log_laplace_prime(law, 1.0)
    calibrated = abs(psi1) <= CALIBRATION_TOL
    checks.append({"name": "psi1_zero", "passed": bool(calibrated), "value": psi1})
    drift = psi_prime1 < 0.0
    checks.append({"name": "psi_prime1_negative", "passed": bool(drift), "value": psi_prime1})

    kap = None
    if calibrated and drift:
        kap = kappa(law)
        checks.append(
            {"name": f"kappa_gt_{2 * k}", "passed": bool(kap > 2 * k), "value": kap}
        )
    else:
        checks.append({"name": f"kappa_gt_{2 * k}", "passed": False, "value": None})

    h_ell = law.ellipticity_bound
    checks.append(
        {"name": "ellipticity_finite", "passed": bool(math.isfinite(h_ell)), "value": h_ell}
    )

    # Joint moments c_j(beta) for j and total weight up to ceil(kappa); for
    # finite-atom (and gaussian) families every such moment is finite, and we
    # record the largest one actually evaluated.
    moment_ok = True
    moment_val = None
    if kap is not None and math.isfinite(kap):
        jmax = min(int(math.ceil(kap)), max(law.max_offspring, 1), 6)
        worst = 0.0
        for j in range(1, jmax + 1):
            val = moment_c_j(law, j, (1,) * j)
            if not math.isfinite(val):
                moment_ok = False
            worst = max(worst, val)
        moment_val = worst
    checks.append({"name": "joint_moments_finite", "passed": bool(moment_ok), "value": moment_val})

    delta0 = None
    if kap is not None and kap > 2.0:
        delta0 = rate_delta0(law, kap)
    report = {
        "law": law_to_text(law),
        "k": k,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "psi1": psi1,
        "psi_prime1": psi_prime1,
        "kappa": kap if kap is None or math.isfinite(kap) else "inf",
        "h_ell": h_ell if math.isfinite(h_ell) else "inf",
        "delta0": delta0,
    }
    return report


# ---------------------------------------------------------------------------
# schedule constants
# ---------------------------------------------------------------------------


def rate_delta0(law: EnvironmentLaw, kap: float = None) -> float:
    """Schedule rate: 0.9/3 times the peak of -psi(t)/t over (1, kappa).

    The peak equals the linear growth rate of the branching-potential
    minimum, so generations at or beyond delta0^{-1} * log(budget) carry
    potential at least 3 * log(budget) with high probability, with a 0.9
    safety factor.
    """
    if kap is None:
        kap = kappa(law)
    peak = -_golden_min(lambda t: log_laplace(law, t) / t, 1.0 + 1e-9,
                        min(kap, KAPPA_T_MAX) - 1e-9)
    return 0.9 * peak / 3.0


@dataclass(frozen=True)
class Schedule:
    """Deterministic generation-band parameters for a time budget n.

    ``warmup`` is the coalescence boundary a_n, ``lower``/``upper`` the
    generation band, ``width`` its height. Band formulas use base-10
    logarithms; the slow-growth factor in the admissibility check is the
    natural logarithm.
    """

    delta0: float
    n: int
    warmup: int
    lower: int
    upper: int

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1

    @property
    def excursions(self) -> int:
        return int(math.ceil(math.sqrt(self.n)))

    def shrink_value(self) -> float:
        """upper * log(upper) / sqrt(n); must decrease along n-grids."""
        return self.upper * math.log(self.upper) / math.sqrt(self.n)


def compute_schedule(
    law: EnvironmentLaw,
    n: int,
    lower: int = None,
    upper: int = None,
) -> Schedule:
    """Default band for budget n: lower = ceil(log(n)/delta0), upper =
    floor(sqrt(n)/log(n)^2) clamped to >= lower, warmup = ceil(log(n)/(2 delta0)).

    Logs are base 10. Raises when even the clamped band violates
    upper <= sqrt(n), reporting the minimal feasible budget. Both band
    edges can be overridden.
    """
    kap = kappa(law)
    if not kap > 2.0:
        raise DomainError("schedule requires kappa > 2")
    d0 = rate_delta0(law, kap)
    if n < 3:
        raise ScheduleInfeasibleError("budget too small", min_feasible_n=3)
    logn = _LOG(n)
    warmup = int(math.ceil(logn / (2.0 * d0)))
    ell = int(math.ceil(logn / d0)) if lower is None else int(lower)
    raw_upper = int(math.floor(math.sqrt(n) / logn**2)) if upper is None else int(upper)
    big = max(raw_upper, ell)
    if big > math.sqrt(n):
        min_n = _min_feasible_n(d0)
        raise ScheduleInfeasibleError(
            f"band upper edge {big} exceeds sqrt(n)={math.sqrt(n):.1f} at n={n}",
            min_feasible_n=min_n,
        )
    return Schedule(delta0=d0, n=int(n), warmup=warmup, lower=ell, upper=big)


def _min_feasible_n(d0: float) -> int:
    n = 10
    while n < 10**15:
        if math.ceil(_LOG(n) / d0) <= math.sqrt(n):
            return n
        n *= 2
    return n


def band_shrink_values(law: EnvironmentLaw, n_grid, **kw) -> list:
    """shrink_value along an n-grid (admissibility requires a decreasing run)."""
    return [compute_schedule(law, n, **kw).shrink_value() for n in n_grid]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def law_to_text(law: EnvironmentLaw) -> str:
    """Structured-text form of a law (round-trips through law_from_text)."""
    buf = io.StringIO()
    buf.write(f'family = "{law.family}"\n')
    if law.family == "two-point":
        buf.write(f"q = {law.q!r}\n")
        buf.write(f"a = {law.a!r}\n")
        buf.write(f"m = {law.m}\n")
        buf.write(f"b = {law.b!r}\n")
    elif law.family == "gaussian":
        buf.write(f"children = {law.gauss_children}\n")
        buf.write(f"mean = {law.gauss_mean!r}\n")
        buf.write(f"sd = {law.gauss_sd!r}\n")
    else:
        buf.write(f"atoms = {json.dumps([[p, list(d)] for p, d in law.atoms])}\n")
    return buf.getvalue()


def law_from_text(text: str) -> EnvironmentLaw:
    """Parse the structured-text law format. Omitted b means calibrated."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, _, val = line.partition("=")
        fields[key.strip()] = val.strip()
    family = fields.get("family", "two-point").strip('"')
    if family == "two-point":
        return two_point_law(
            q=float(fields.get("q", 0.5)),
            a=float(fields.get("a", -0.1)),
            m=int(fields.get("m", 3)),
            b=float(fields["b"]) if "b" in fields else None,
        )
    if family == "gaussian":
        return gaussian_law(
            children=int(fields.get("children", 2)),
            sd=float(fields.get("sd", 0.5)),
            mean=float(fields["mean"]) if "mean" in fields else None,
        )
    atoms = json.loads(fields["atoms"])
    return generic_law([(p, tuple(d)) for p, d in atoms])
