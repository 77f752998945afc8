import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

import gwrange as g
from gwrange import environment
from gwrange import rng as rngmod
from gwrange.environment import (
    TILTED_BLOCK_ROWS,
    band_shrink_values,
    compute_schedule,
    is_calibrated,
    rate_delta0,
)
from gwrange.errors import CalibrationError, DomainError, ScheduleInfeasibleError, SolverError
from gwrange.quenched import phi

SAMPLING_LAWS = {
    "default": g.default_law(),
    "mixed": g.generic_law([(0.2, (-0.3,)), (0.5, (0.1, 0.6, 1.2)), (0.3, (0.4, 0.9))]),
    "extinct": g.generic_law([(0.3, ()), (0.7, (0.2, 0.5))]),
    "gaussian": g.gaussian_law(),
}
# sha256 prefixes of (counts, displacements) for 5000 parents drawn from
# default_rng(7), pinned from the per-parent sampler the scatter replaced.
SAMPLING_DIGESTS = {
    "default": ("09043a55b95bca3e", "3fcc3e06a4c6c5e0"),
    "mixed": ("6850d7c547b2e845", "f1364c89c48bf2f1"),
    "extinct": ("4784a48c01d72aca", "279b5bca72bbbf99"),
    "gaussian": ("5ba2741bd8c80364", "6ac9700bcaf3c727"),
}


class TestTransform:
    def test_calibration_exact(self, law):
        assert abs(g.log_laplace(law, 1.0)) <= 1e-12
        assert abs(law.b - 1.209735) < 1e-5

    def test_value_at_zero_is_log_mean_offspring(self, law):
        assert g.log_laplace(law, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_derivative_at_one(self, law):
        assert g.log_laplace_prime(law, 1.0) == pytest.approx(-0.48599, abs=1e-5)

    def test_convexity_on_grid(self, law):
        ts = np.linspace(0.0, 8.0, 33)
        for a, b in zip(ts, ts[1:]):
            mid = g.log_laplace(law, (a + b) / 2)
            chord = 0.5 * (g.log_laplace(law, a) + g.log_laplace(law, b))
            assert mid <= chord + 1e-12

    def test_negative_strictly_between_roots(self, law):
        kap = g.kappa(law)
        for t in np.linspace(1.05, kap - 0.05, 25):
            assert g.log_laplace(law, t) < 0.0


class TestSampleGeneration:
    @pytest.mark.parametrize("name", sorted(SAMPLING_LAWS))
    def test_draws_bitwise_pinned(self, name):
        counts, disp = SAMPLING_LAWS[name].sample_generation(np.random.default_rng(7), 5000)
        assert (counts.dtype.str, disp.dtype.str) == ("<i8", "<f8")
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (counts, disp))
        assert got == SAMPLING_DIGESTS[name]

    def test_displacements_follow_atoms(self):
        law = SAMPLING_LAWS["mixed"]
        counts, disp = law.sample_generation(np.random.default_rng(8), 300)
        atoms = {len(d): d for _, d in law.atoms}
        blocks = np.split(disp, np.cumsum(counts)[:-1])
        assert all(tuple(b) == atoms[c] for b, c in zip(blocks, counts))

    @pytest.mark.parametrize("name", sorted(SAMPLING_LAWS))
    def test_no_parents(self, name):
        rng = np.random.default_rng(1)
        counts, disp = SAMPLING_LAWS[name].sample_generation(rng, 0)
        assert counts.shape == disp.shape == (0,)
        assert (counts.dtype.str, disp.dtype.str) == ("<i8", "<f8")
        assert rng.random() == np.random.default_rng(1).random()


def _child_by_child_weights(law, rng, v):
    """The frontier reduction ``child_weights`` replaced: one weight per drawn
    child, summed per parent by ``np.bincount``."""
    counts, weight = law.sample_generation(rng, len(v))
    rows = np.repeat(np.arange(len(v)), counts)
    weight += v[rows]
    np.negative(weight, out=weight)
    np.exp(weight, out=weight)
    return np.bincount(rows, weights=weight, minlength=len(v))


# Unnormalized atom masses: exact zeros, masses near 1e-12 and ordinary ones.
MASSES = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-13, 1e-11), st.floats(0.01, 1.0)),
    min_size=1, max_size=8,
).filter(lambda w: sum(w) > 0.0)
SIZES = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(0, 500).map(lambda n: 2 * n + 1),
    st.tuples(st.integers(0, 6), st.integers(0, 40)),
)


class TestAtomIndex:
    @settings(max_examples=300, deadline=None)
    @given(masses=MASSES, size=SIZES, seed=st.integers(0, 2**32 - 1))
    def test_equals_generator_choice(self, masses, size, seed):
        probs = np.array(masses) / sum(masses)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = environment._atom_index(got_rng, probs, size)
        want = want_rng.choice(len(probs), size=size, p=probs)
        assert got.shape == want.shape and np.iinfo(got.dtype).max >= len(probs) - 1
        assert np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()

    @settings(max_examples=300, deadline=None)
    @given(masses=MASSES, size=SIZES, slab=st.integers(1, 64),
           dtype=st.sampled_from([None, np.uint8, np.int64]), seed=st.integers(0, 2**32 - 1))
    def test_slabs_and_out_equal_generator_choice(self, masses, size, slab, dtype, seed):
        # small slabs cross row boundaries; ``out`` starts with garbage
        probs = np.array(masses) / sum(masses)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(len(probs), size=size, p=probs)
        out = None if dtype is None else np.full(want.shape, 99, dtype=dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(environment, "_ATOM_SLAB", slab)
            got = environment._atom_index(got_rng, probs, size, out=out)
        assert out is None or got is out
        assert got.shape == want.shape and np.array_equal(got, want)
        assert got_rng.random() == want_rng.random()


class TestChildWeights:
    @pytest.mark.parametrize("name", sorted(SAMPLING_LAWS))
    def test_bitwise_equal_to_child_by_child_sum(self, name):
        law = SAMPLING_LAWS[name]
        v = np.random.default_rng(3).normal(0.0, 2.0, 5000)
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = law.child_weights(got_rng, v)
        want = _child_by_child_weights(law, want_rng, v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()

    def test_childless_atom_weighs_zero(self):
        law = SAMPLING_LAWS["extinct"]
        counts, _ = law.sample_generation(np.random.default_rng(7), 5000)
        weights = law.child_weights(np.random.default_rng(7), np.zeros(5000))
        assert counts.min() == 0
        assert np.array_equal(weights == 0.0, counts == 0)

    @pytest.mark.parametrize("name", sorted(SAMPLING_LAWS))
    def test_no_parents(self, name):
        law = SAMPLING_LAWS[name]
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        weights = law.child_weights(rng, np.zeros(0))
        law.sample_generation(ref, 0)
        assert weights.shape == (0,) and weights.dtype.str == "<f8"
        assert rng.random() == ref.random()


class TestAtomMasses:
    @pytest.mark.parametrize("atoms", [
        [(math.nan, (0.1,)), (1.0, (0.2,))],
        [(-0.5, (0.1,)), (1.5, (0.2,))],
        [(math.inf, (0.1,)), (1.0, (0.2,))],
    ], ids=["nan", "negative", "inf"])
    def test_refused_when_built(self, atoms):
        with pytest.raises(CalibrationError):
            g.generic_law(atoms)
        text = f'family = "generic"\natoms = {json.dumps([[p, list(d)] for p, d in atoms])}\n'
        with pytest.raises(CalibrationError):
            g.law_from_text(text)


class TestKappa:
    def test_default_law_bracket(self, law):
        kap = g.kappa(law)
        assert 6.9 <= kap <= 7.0
        assert abs(g.log_laplace(law, kap)) < 1e-9

    def test_perturbed_law(self):
        law = g.two_point_law(q=0.5, a=-0.2, m=3)
        kap = g.kappa(law)
        assert 3.3 < kap < 3.45  # rounds to 3.4

    def test_positive_displacements_give_infinity(self):
        law = g.two_point_law(q=0.5, a=0.5, m=3)
        assert all(d > 0 for _, disp in law.atoms for d in disp)
        assert g.kappa(law) == math.inf

    def test_uncalibrated_law_rejected(self):
        law = g.two_point_law(q=0.5, a=-0.1, m=3, b=0.9)
        with pytest.raises(CalibrationError):
            g.kappa(law)


class TestRegime:
    def test_default_is_diffusive(self, law):
        assert g.classify_regime(law) == "null-recurrent-diffusive"

    def test_strong_uniform_bias_is_positive_recurrent(self):
        # fixed offspring count 2, constant displacement log(3) > log E[N]
        lam = 3.0
        law = g.generic_law([(1.0, (math.log(lam), math.log(lam)))])
        assert g.classify_regime(law) == "positive-recurrent"

    def test_calibrated_zero_slope_is_slow(self):
        # solve psi(1)=0 and psi'(1)=0 for (a, b) at q=0.5, m=3
        def eqs(v):
            a, b = v
            law = g.two_point_law(q=0.5, a=a, m=3, b=b)
            return [g.log_laplace(law, 1.0), g.log_laplace_prime(law, 1.0)]

        a, b = optimize.fsolve(eqs, [-1.0, 2.0], xtol=1e-13)
        law = g.two_point_law(q=0.5, a=float(a), m=3, b=float(b))
        assert g.classify_regime(law) == "null-recurrent-slow"

    def test_transient_when_transform_stays_positive(self):
        # negative displacements everywhere: transform positive on [0,1]
        law = g.generic_law([(1.0, (-0.3, -0.3))])
        assert g.classify_regime(law) == "transient"


class TestAssumptionReport:
    def test_default_law_k2_passes(self, law):
        rep = g.check_assumptions(law, 2)
        assert rep["passed"]
        assert rep["kappa"] > 4

    def test_default_law_k4_fails_on_kappa(self, law):
        rep = g.check_assumptions(law, 4)
        assert not rep["passed"]
        failing = [c for c in rep["checks"] if not c["passed"]]
        assert failing == [c for c in rep["checks"] if c["name"] == "kappa_gt_8"]

    def test_gaussian_family_fails_ellipticity(self):
        law = g.gaussian_law(children=2, sd=0.4)
        rep = g.check_assumptions(law, 2)
        names = {c["name"]: c["passed"] for c in rep["checks"]}
        assert not names["ellipticity_finite"]
        assert not rep["passed"]


class TestTiltedWalk:
    def test_step_law_masses(self, law):
        atoms = g.many_to_one_step_law(law)
        d = dict(atoms)
        assert d[-0.1] == pytest.approx(0.552585, abs=1e-6)
        assert d[law.b] == pytest.approx(0.447415, abs=1e-6)
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)

    def test_mean_step_equals_negative_slope(self, law):
        atoms = g.many_to_one_step_law(law)
        mean = sum(v * p for v, p in atoms)
        assert mean == pytest.approx(-g.log_laplace_prime(law, 1.0), abs=1e-12)

    def test_uncalibrated_rejected(self):
        law = g.two_point_law(b=2.0)
        with pytest.raises(CalibrationError):
            g.many_to_one_step_law(law)

    def test_paths_start_at_zero(self, law, rng):
        paths = g.sample_tilted_walk(law, 5, rng, replicas=7)
        assert paths.shape == (7, 6)
        assert np.all(paths[:, 0] == 0.0)


class TestCInfinity:
    def test_zero_truncation_returns_one(self, law, rng):
        est = g.estimate_c_infinity(law, truncation=0, replicas=10, rng=rng)
        assert est.value == 1.0

    @pytest.mark.parametrize("replicas", [0, 1])
    @pytest.mark.parametrize("truncation", [0, 200])
    def test_fewer_than_two_replicas_refused(self, law, replicas, truncation):
        # one path has no standard error: the estimate would carry a NaN
        with pytest.raises(ValueError, match="replicas"):
            g.estimate_c_infinity(law, truncation=truncation, replicas=replicas)

    def test_bracket_default_law(self, law):
        est = g.estimate_c_infinity(law, truncation=200, replicas=50_000,
                                    rng=rngmod.stream(5, "cinf"))
        lo, hi = est.bracket
        assert lo == pytest.approx(0.2558, abs=2e-4)
        assert lo <= est.value <= hi

    def test_truncation_doubling_stability(self, law):
        e1 = g.estimate_c_infinity(law, truncation=100, replicas=60_000,
                                   rng=rngmod.stream(6, "cinf"))
        e2 = g.estimate_c_infinity(law, truncation=200, replicas=60_000,
                                   rng=rngmod.stream(7, "cinf"))
        assert abs(e1.value - e2.value) <= 3.0 * math.hypot(e1.se, e2.se)


def _three_atom_law():
    """Calibrated generic law with one, two and three children."""
    c = -math.log((1.0 - 0.2 * math.exp(0.3) - math.exp(-0.9)) / 0.9)
    return g.generic_law([(0.2, (-0.3,)), (0.5, (0.9, 0.9)), (0.3, (c, c, c))])


C_INF_LAWS = {
    "default": g.default_law(),
    "two-point": g.two_point_law(q=0.3, a=-0.2, m=4),
    "three-atom": _three_atom_law(),
    "gaussian": g.gaussian_law(),
}


class TestDeterministicCInfinity:
    @pytest.mark.parametrize("name", ["default", "two-point", "three-atom"])
    def test_matches_monte_carlo(self, name):
        law = C_INF_LAWS[name]
        est = g.estimate_c_infinity(law, truncation=200, replicas=200_000,
                                    rng=rngmod.stream(21, "cinf"))
        assert abs(g.c_infinity(law).value - est.value) <= 4.0 * est.se

    def test_gaussian_matches_direct_normal_increments(self):
        law = C_INF_LAWS["gaussian"]
        sd = law.gauss_sd
        rng = rngmod.stream(22, "gaussian-cinf")
        vals = []
        for _ in range(20):
            incs = rng.normal(law.gauss_mean - sd * sd, sd, size=(10_000, 200))
            vals.append(1.0 / (1.0 + np.exp(-np.cumsum(incs, axis=1)).sum(axis=1)))
        vals = np.concatenate(vals)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(g.c_infinity(law).value - vals.mean()) <= 4.0 * se

    @pytest.mark.parametrize("name", list(C_INF_LAWS))
    def test_inside_bracket(self, name):
        law = C_INF_LAWS[name]
        got = g.c_infinity(law)
        assert got.bracket == (1.0 - math.exp(g.log_laplace(law, 2.0)), 1.0)
        assert got.bracket[0] <= got.value <= got.bracket[1]

    @pytest.mark.parametrize("name", list(C_INF_LAWS))
    def test_grid_doubling_within_error(self, name, monkeypatch):
        law = C_INF_LAWS[name]
        got = g.c_infinity(law)
        monkeypatch.setattr(environment, "C_INF_GRID", 2 * environment.C_INF_GRID)
        finer = g.c_infinity(law)
        assert 0.0 < abs(finer.value - got.value) < got.error

    def test_unconverged_iteration_raises(self, law, monkeypatch):
        monkeypatch.setattr(environment, "C_INF_MAX_ITER", 3)
        with pytest.raises(SolverError):
            g.c_infinity(law)

    def test_infinite_perpetuity_mean_refused(self):
        law = g.two_point_law(q=0.9, a=-0.1, m=3)
        assert g.log_laplace(law, 2.0) > 0.0
        with pytest.raises(DomainError):
            g.c_infinity(law)

    def test_gaussian_step_law_still_refused(self):
        with pytest.raises(DomainError):
            g.many_to_one_step_law(C_INF_LAWS["gaussian"])


class TestTiltedBlocks:
    # the perpetuity kernel reads the steps sample_tilted_walk would draw
    @staticmethod
    def exp_cumsum(paths, r):
        # (r-1) e^{-S_d} + sum_j e^{S_j - S_d}, or sum_j e^{-S_j} for r=None
        if r is None:
            return np.exp(-paths).sum(axis=1)
        end = paths[:, -1]
        return (r - 1.0) * np.exp(-end) + np.exp(paths - end[:, None]).sum(axis=1)

    @pytest.mark.parametrize("replicas", [2 * 64 + 37, 2 * TILTED_BLOCK_ROWS + 37])
    def test_block_rows_invisible(self, law, monkeypatch, replicas):
        def estimates():
            cinf = g.estimate_c_infinity(law, truncation=30, replicas=replicas,
                                         rng=np.random.default_rng(3))
            return [(cinf.value, cinf.se)] + [
                phi(law, 25, 4, r, replicas=replicas, rng=np.random.default_rng(4),
                    mode="tilted") for r in (1.0, 2.5)]

        want = estimates()
        monkeypatch.setattr(environment, "TILTED_BLOCK_ROWS", 64)
        assert estimates() == want

    @pytest.mark.parametrize("name", ["default", "three-atom"])
    def test_c_infinity_matches_whole_matrix(self, name):
        law = C_INF_LAWS[name]
        replicas = 2 * TILTED_BLOCK_ROWS + 37
        paths = g.sample_tilted_walk(law, 200, np.random.default_rng(3), replicas)
        got = environment._tilted_perpetuity(law, 200, np.random.default_rng(3), replicas,
                                             1.0, backward=True)
        np.testing.assert_allclose(got, self.exp_cumsum(paths, None), rtol=1e-12, atol=0)
        est = g.estimate_c_infinity(law, truncation=200, replicas=replicas,
                                    rng=np.random.default_rng(3))
        assert est.value == (1.0 / got).mean()

    @pytest.mark.parametrize("name", ["default", "three-atom"])
    @pytest.mark.parametrize("r", [1.0, 2.5])
    def test_tilted_phi_matches_whole_matrix(self, name, r):
        # at depth 21 the (r-1) e^{-S_d} term still counts; 200 is the deep case
        law = C_INF_LAWS[name]
        replicas = 2 * TILTED_BLOCK_ROWS + 37
        for d in (21, 200):
            paths = g.sample_tilted_walk(law, d, np.random.default_rng(4), replicas)
            got = environment._tilted_perpetuity(law, d, np.random.default_rng(4), replicas,
                                                 r, backward=False)
            np.testing.assert_allclose(got, self.exp_cumsum(paths, r), rtol=1e-12, atol=0)
            val, _ = phi(law, d + 10, 10, r, replicas=replicas, rng=np.random.default_rng(4),
                         mode="tilted")
            assert val == (1.0 / got).mean()

    @pytest.mark.parametrize("rows", [64, TILTED_BLOCK_ROWS])
    def test_stream_left_as_whole_matrix(self, law, monkeypatch, rows):
        monkeypatch.setattr(environment, "TILTED_BLOCK_ROWS", rows)
        replicas = 2 * rows + 37
        whole = np.random.default_rng(5)
        g.sample_tilted_walk(law, 30, whole, replicas)
        cinf, tilted = np.random.default_rng(5), np.random.default_rng(5)
        g.estimate_c_infinity(law, truncation=30, replicas=replicas, rng=cinf)
        phi(law, 34, 4, 2.0, replicas=replicas, rng=tilted, mode="tilted")
        assert whole.random() == cinf.random() == tilted.random()


# One (4096, 200) float64 block is 6.25 MiB: a call that holds one beside its
# one-byte index blocks and a uniform slab breaks this bound.
TILTED_PEAK_BYTES = 8 * 2**20


@pytest.mark.parametrize("op", ["c_infinity", "phi"])
def test_tilted_call_memory_bounded(law, op):
    # 60k paths of 200 steps: one-byte index blocks and one uniform slab
    calls = {
        "c_infinity": lambda: g.estimate_c_infinity(law, truncation=200, replicas=60_000,
                                                    rng=np.random.default_rng(1)),
        "phi": lambda: phi(law, 210, 10, 1.0, replicas=60_000, rng=np.random.default_rng(1),
                           mode="tilted"),
    }
    tracemalloc.start()
    try:
        calls[op]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TILTED_PEAK_BYTES


class TestJointMoments:
    def test_pair_moment_closed_form(self, law):
        val = g.moment_c_j(law, 2, (1, 1))
        assert val == pytest.approx(3.0 * math.exp(-2 * law.b), abs=1e-14)
        assert val == pytest.approx(0.26691, abs=1e-5)

    def test_single_moment_is_one(self, law):
        assert g.moment_c_j(law, 1, (1,)) == pytest.approx(1.0, abs=1e-14)

    def test_beyond_max_offspring_vanishes(self, law):
        assert g.moment_c_j(law, 4, (1, 1, 1, 1)) == 0.0

    def test_c_zero_value(self, law):
        assert g.c_zero(law) == pytest.approx(1.0432, abs=2e-4)

    def test_c_zero_single_child_law(self):
        law = g.generic_law([(1.0, (0.3,))])
        assert g.c_zero(law) == 0.0

    def test_c_zero_guard(self):
        # psi(2) >= 0 for this supercritical unbiased-ish law
        law = g.generic_law([(1.0, (0.0, 0.0))])
        with pytest.raises(DomainError):
            g.c_zero(law)

    def test_denominator_positive_in_diffusive_regime(self, law):
        assert g.log_laplace(law, 2.0) < 0.0


class TestSchedule:
    def test_rate_positive(self, law):
        assert rate_delta0(law) > 0.0

    def test_shrink_decreasing_on_grid(self, law):
        vals = band_shrink_values(law, [10**4, 10**6, 10**8])
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_small_budget_infeasible_or_clamped(self, law):
        try:
            sch = compute_schedule(law, 100)
            assert sch.lower == sch.upper  # clamped equality
        except ScheduleInfeasibleError as err:
            assert err.min_feasible_n is not None

    def test_band_invariants(self, law):
        for n in (10**4, 10**6, 10**8):
            sch = compute_schedule(law, n)
            assert sch.lower <= sch.upper <= math.sqrt(n)
            assert sch.warmup <= sch.lower
            assert sch.width == sch.upper - sch.lower + 1


class TestManyToOne:
    """Tilted-walk means against tree sums for several horizons and test
    functions (identity, square, negative exponential)."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_consistency(self, law, p):
        reps = 20_000
        paths = g.sample_tilted_walk(law, p, rngmod.stream(40 + p, "s"), replicas=reps)
        end = paths[:, -1]
        for name, fn in (("t", lambda v: v), ("t2", lambda v: v * v),
                         ("exp", lambda v: np.exp(-v))):
            walk_vals = fn(end)
            tree_vals = _tree_side(law, p, fn, reps=6000, seed=60 + p)
            gap = abs(walk_vals.mean() - tree_vals.mean())
            se = math.hypot(walk_vals.std(ddof=1) / math.sqrt(len(walk_vals)),
                            tree_vals.std(ddof=1) / math.sqrt(len(tree_vals)))
            assert gap <= 4.0 * se, (name, p, gap, se)


def _tree_side(law, p, fn, reps, seed):
    out = np.empty(reps)
    rng = rngmod.stream(seed, "trees")
    for i in range(reps):
        t = g.generate(law, p, rng=rng)
        ids = t.generation_ids(p)
        out[i] = float((np.exp(-t.V[ids]) * fn(t.V[ids])).sum())
    return out


class TestSerialization:
    def test_round_trip_two_point(self, law):
        text = g.law_to_text(law)
        back = g.law_from_text(text)
        assert back == law

    def test_omitted_b_calibrates(self):
        back = g.law_from_text('family = "two-point"\nq = 0.5\na = -0.1\nm = 3\n')
        assert is_calibrated(back)

    def test_generic_round_trip(self):
        law = g.generic_law([(0.25, (0.1,)), (0.75, (0.5, 0.9))])
        assert g.law_from_text(g.law_to_text(law)) == law


def _calibrated_generic(weights, disps):
    probs = [w / sum(weights) for w in weights]
    shift = math.log(sum(p * sum(math.exp(-d) for d in ds) for p, ds in zip(probs, disps)))
    return g.generic_law([(p, tuple(d + shift for d in ds)) for p, ds in zip(probs, disps)])


_finite = dict(allow_nan=False, allow_infinity=False)
LAWS = st.one_of(
    st.builds(g.two_point_law, q=st.floats(0.05, 0.6, **_finite),
              a=st.floats(-0.3, 0.3, **_finite), m=st.integers(2, 5)),
    st.integers(1, 3).flatmap(lambda n: st.builds(
        _calibrated_generic,
        st.lists(st.floats(0.1, 1.0, **_finite), min_size=n, max_size=n),
        st.lists(st.lists(st.floats(-1.0, 2.0, **_finite), min_size=1, max_size=3),
                 min_size=n, max_size=n))),
    st.builds(g.gaussian_law, children=st.integers(2, 4), sd=st.floats(0.1, 0.6, **_finite)),
)


@settings(max_examples=15, deadline=None)
@given(law=LAWS)
def test_law_text_round_trip_keeps_c_infinity(law):
    # away from psi(2) = 0 the fixed point converges well inside its sweep cap
    assume(g.log_laplace(law, 2.0) < -0.2)
    back = g.law_from_text(g.law_to_text(law))
    assert back == law
    assert g.c_infinity(back) == g.c_infinity(law)
