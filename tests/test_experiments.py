import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublelambda import SystemParams
from doublelambda.entanglement import duan_v12
from doublelambda.experiments import (SWEEP_SELECTORS, SweepSpec,
                                      alignment_spec, amplitude_spec,
                                      calibrate_coupling, compute_point,
                                      dephasing_spec, detuning_spec,
                                      evaluate_points, run_sweep, spectrum)
from doublelambda.atom import build_generator
from doublelambda.fluctuations import linearize
from doublelambda import propagation as pr
from doublelambda.params import CALIBRATED_G, ParamStack
from doublelambda.propagation import (input_covariance, make_setup,
                                      propagate_covariance)
from doublelambda.steady import solve_steady_state


class TestSweepSpec:
    def test_grid_must_be_monotone(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="delta1", grid=[0.0, 1.0, 0.5])

    def test_grid_must_be_nonempty(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="delta1", grid=[])

    def test_unknown_axis(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="gamma1", grid=[0.1, 0.2])

    def test_scalings_applied(self, defaults):
        spec = amplitude_spec(defaults, points=3, lo=1.0, hi=3.0, variant="a")
        p = spec.params_at(3.0)
        assert p.a1_mean == 3.0 and p.a2_mean == 3.0
        assert p.n0 == pytest.approx(defaults.n0 * 3.0)
        assert p.gamma0 == pytest.approx(0.003)
        ps = spec.param_stack()
        assert ps.n0.tolist() == [defaults.n0 * v for v in (1.0, 2.0, 3.0)]
        assert ps.gamma0.tolist() == [0.001 * v for v in (1.0, 2.0, 3.0)]
        assert [ps.point(i) for i in range(3)] == \
            [spec.params_at(v) for v in spec.grid]

    def test_invalid_grid_point_named(self, defaults):
        spec = SweepSpec(base=defaults, axis="p", grid=[0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match=r"^\|p1\| must be <= 1, got 1.5$"):
            run_sweep(spec)

    def test_variant_b_keeps_exchange_fixed(self, defaults):
        spec = amplitude_spec(defaults, points=3, variant="b")
        p = spec.params_at(5.0)
        assert p.gamma0 == defaults.gamma0
        assert p.n0 == pytest.approx(defaults.n0 * 5.0)


class TestDetuningSweep:
    def test_populations_and_v12_profile(self, defaults):
        spec = detuning_spec(defaults, points=41)
        result = run_sweep(spec)
        assert len(result.rows) == 41
        assert not any(r.failed for r in result.rows)
        pops1 = np.array([r.populations[0] for r in result.rows])
        pops2 = np.array([r.populations[1] for r in result.rows])
        mid = np.argmin(np.abs(result.axis_values + 1.0))
        # population dip/peak sit at the doublet midpoint
        assert np.argmin(pops1) == mid
        assert np.argmax(pops2) == mid
        assert pops1[mid] == pytest.approx(0.436, abs=0.002)
        assert pops2[mid] == pytest.approx(0.064, abs=0.002)

    def test_deterministic(self, defaults):
        spec = detuning_spec(defaults, points=5)
        a = run_sweep(spec)
        b = run_sweep(spec)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.v12 == rb.v12  # bit-identical reruns


class TestDephasingSweep:
    def test_dark_endpoint_is_transparent(self, defaults):
        spec = dephasing_spec(defaults, points=6, hi=0.005)
        result = run_sweep(spec)
        first = result.rows[0]
        assert first.axis_value == 0.0
        assert first.v12 == pytest.approx(4.0)
        assert first.alpha1 == 0.0 and first.alpha2 == 0.0
        assert "dark-transparent" in first.method
        # away from zero the medium responds
        assert all(not r.failed for r in result.rows)
        assert abs(result.rows[-1].alpha1) > 0


class TestAlignmentSweep:
    def test_runs_at_midpoint(self, defaults):
        spec = alignment_spec(defaults, points=5)
        assert spec.base.delta1 == -defaults.omega42 / 2
        result = run_sweep(spec)
        assert all(not r.failed for r in result.rows)


class TestErrorMarking:
    def test_failed_point_is_recorded(self, defaults, monkeypatch):
        import doublelambda.experiments as ex
        from doublelambda.atom import build_generator

        spec = detuning_spec(defaults, points=3)
        # the stack computes each generator exactly as build_generator does
        poisoned = build_generator(spec.params_at(spec.grid[1])).matrix
        real = ex.steady_state_stack
        stacks = []

        def flaky(lmats, method="auto"):
            stacks.append(len(lmats))
            if any(np.array_equal(lmat, poisoned) for lmat in lmats):
                raise RuntimeError("synthetic solver failure")
            return real(lmats, method)

        monkeypatch.setattr(ex, "steady_state_stack", flaky)
        result = run_sweep(spec, workers=1)
        # the failing stack is re-run point by point
        assert stacks == [3, 1, 1, 1]
        assert result.rows[1].failed
        assert "synthetic solver failure" in result.rows[1].error
        assert not result.rows[0].failed and not result.rows[2].failed
        # the failed row still carries its axis value
        assert result.rows[1].axis_value == result.axis_values[1]


def _column(rows, name, k=None):
    values = [getattr(r, name) for r in rows]
    if k is not None:
        values = [None if v is None else v[k] for v in values]
    return np.array([np.nan if v is None else v for v in values], dtype=float)


def assert_rows_match(rows, reference, rtol=1e-12):
    """Same method, error and warnings; numbers to rtol times the column's
    largest magnitude."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert (row.method, row.error, row.warnings) == \
            (ref.method, ref.error, ref.warnings)
    columns = [(n, None) for n in ("v12", "du2", "dv2", "alpha1", "alpha2")]
    columns += [("populations", k) for k in range(4)]
    for name, k in columns:
        x, y = _column(rows, name, k), _column(reference, name, k)
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        finite = np.isfinite(y)
        assert np.array_equal(finite, np.isfinite(x)), name
        if finite.any():
            scale = np.max(np.abs(y[finite]))
            assert np.max(np.abs(x[finite] - y[finite])) <= rtol * scale, name


class TestBatchedStack:
    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    @pytest.mark.parametrize("selector", sorted(SWEEP_SELECTORS))
    def test_batched_rows_match_compute_point(self, defaults, selector,
                                              noise_model):
        spec = SWEEP_SELECTORS[selector](defaults, points=21,
                                         noise_model=noise_model)
        batched = run_sweep(spec, workers=1).rows
        alone = [compute_point(spec.params_at(v), noise_model=noise_model)
                 for v in spec.grid]
        assert_rows_match(batched, alone)
        if selector == "fig4":
            # the masked paths ran inside the stack
            assert batched[0].method == "long-time-integration+dark-transparent"

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.builds(
        SystemParams,
        gamma1=st.floats(0, 2), gamma2=st.floats(0, 2),
        gamma3=st.floats(0, 2), gamma4=st.floats(0, 2),
        gamma0=st.floats(0, 2), gamma_phi=st.floats(0, 1),
        p1=st.floats(-1, 1), p2=st.floats(-1, 1),
        omega42=st.floats(0, 3), delta1=st.floats(-4, 4),
        g=st.floats(0, 0.6), a1_mean=st.floats(0, 2), a2_mean=st.floats(0, 2),
        n0=st.sampled_from([3e16, 3e19, 3e22])), min_size=1, max_size=6),
        st.sampled_from([0.0, 0.5]),
        st.sampled_from(["einstein", "vacuum-reservoir"]))
    def test_stack_matches_points_alone(self, points, omega, noise_model):
        batched = evaluate_points(points, omega, noise_model)
        alone = [compute_point(p, omega, noise_model) for p in points]
        # each stacked operation acts on one point at a time: exact equality
        assert_rows_match(batched, alone, rtol=0.0)

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_mixed_outcomes_in_every_order(self, defaults, noise_model,
                                           monkeypatch):
        from doublelambda.experiments import _evaluate_stack

        # Kronecker residuals: 3.3e-16 at defaults, 9.4e-15 at the gain
        # point; this bound warns the gain point alone
        monkeypatch.setattr(pr, "SELF_CHECK_TOL", 2e-15)
        no_rates = dict(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                        gamma0=0.0)
        points = [
            defaults,                                         # null-space
            defaults.replace(gamma0=0.0),                     # integrated, dark
            defaults.replace(gamma0=0.0, gamma4=0.0, a2_mean=0.0),  # dark
            defaults.replace(**no_rates),                     # steady fails
            defaults.replace(g=0.0, gamma0=0.0, gamma_phi=0.5, gamma4=0.0,
                             a2_mean=0.0),                    # response fails
            defaults.replace(n0=3e24, delta1=0.0),            # overflows
            defaults.replace(n0=1e22, delta1=0.0),            # warned
        ]
        alone = [compute_point(p, noise_model=noise_model) for p in points]
        assert [bool(r.error) for r in alone] == [0, 0, 0, 1, 1, 1, 0]
        assert "propagation overflow" in alone[5].error
        assert [bool(r.warnings) for r in alone] == [0, 0, 0, 0, 0, 0, 1]
        for shift in range(len(points)):
            order = points[shift:] + points[:shift]
            for stack in (order, order[::-1]):
                ref = [alone[points.index(p)] for p in stack]
                # no per-point fallback here: the stack bookkeeping alone
                # must put every outcome in its own row
                rows = _evaluate_stack(ParamStack.of(stack),
                                       np.full(len(stack), np.nan), 0.0,
                                       noise_model)
                assert_rows_match(rows, ref, rtol=0.0)

    def test_stacks_split_long_grids(self, defaults):
        from doublelambda.experiments import STACK_POINTS
        spec = detuning_spec(defaults, points=STACK_POINTS + 3)
        rows = run_sweep(spec, workers=1).rows
        ends = [0, STACK_POINTS - 1, STACK_POINTS, STACK_POINTS + 2]
        assert_rows_match([rows[i] for i in ends],
                          [compute_point(spec.params_at(spec.grid[i]))
                           for i in ends], rtol=0.0)

    def test_spectrum_matches_pointwise(self, defaults):
        p = defaults.replace(n0=3e19)
        omegas = np.linspace(-2.0, 3.0, 11)  # includes 0
        rows = spectrum(p, omegas, noise_model="vacuum-reservoir")
        gen = build_generator(p)
        lin = linearize(gen, solve_steady_state(gen, p), p,
                        noise_model="vacuum-reservoir")
        for row, w in zip(rows, omegas):
            res = propagate_covariance(make_setup(lin, p, omega=w),
                                       input_covariance(omega=w))
            duan = duan_v12(res.covariance)
            assert row["omega"] == w
            assert row["warnings"] == list(res.warnings)
            for name in ("v12", "du2", "dv2"):
                assert row[name] == pytest.approx(getattr(duan, name),
                                                  rel=1e-12, abs=0)

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_dark_point_spectrum_is_transparent(self, defaults, noise_model):
        p = defaults.replace(gamma0=0.0)
        rows = spectrum(p, [0.0, 0.5], noise_model=noise_model)
        for row, w in zip(rows, (0.0, 0.5)):
            point = compute_point(p, omega=w, noise_model=noise_model)
            assert point.method.endswith("+dark-transparent")
            assert row == {"omega": w, "v12": point.v12, "du2": point.du2,
                           "dv2": point.dv2, "warnings": list(point.warnings)}

    def test_spectrum_raises_steady_failure(self, defaults, monkeypatch):
        from doublelambda import steady

        monkeypatch.setattr(steady, "_state_failures", lambda rhos: {
            0: steady.SteadyStateError("synthetic steady failure")})
        with pytest.raises(steady.SteadyStateError, match="synthetic"):
            spectrum(defaults, [0.0, 0.5])

    def test_spectrum_through_zero_matches_one_point_stacks(self, defaults):
        # omega = 0 skips the R(-omega) inversion; mixed with nonzero
        # frequencies in one stack, every row must stay bit for bit its own
        p = defaults.replace(n0=3e19)
        omegas = np.linspace(-1.0, 1.0, 5)  # includes 0
        rows = spectrum(p, omegas)
        assert rows == [spectrum(p, [w])[0] for w in omegas]


def test_fig2_sweep_runs_as_columns(defaults, monkeypatch):
    # the 201 points travel as one ParamStack and every one of them is
    # accepted by the kappa_1 bracket, with no SVD condition number
    counts = {"cond": 0, "points": 0}
    cond, check = np.linalg.cond, SystemParams.__post_init__

    def counted_cond(m):
        counts["cond"] += 1
        return cond(m)

    def counted_check(self):
        counts["points"] += 1
        check(self)

    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    monkeypatch.setattr(SystemParams, "__post_init__", counted_check)
    rows = run_sweep(detuning_spec(defaults), workers=1).rows
    assert len(rows) == 201 and not any(r.failed for r in rows)
    assert counts["cond"] == 0
    assert counts["points"] <= 2


class TestValidationSampling:
    def test_every_tenth_point(self, defaults):
        spec = detuning_spec(defaults, points=21, validate_every=10)
        result = run_sweep(spec)
        assert set(result.manifest["validations"].keys()) == {0, 10, 20}
        assert all(v["passed"] for v in result.manifest["validations"].values())


class TestParallelism:
    def test_workers_match_serial(self, defaults):
        spec = detuning_spec(defaults, points=5)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        for ra, rb in zip(serial.rows, parallel.rows):
            assert ra.axis_value == rb.axis_value
            assert ra.v12 == rb.v12


class PoolRecorder:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and maps in this process, so no process is started."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestWorkerBound:
    @pytest.fixture
    def pools(self, monkeypatch):
        import doublelambda.experiments as ex
        sizes = []
        monkeypatch.setattr(ex, "ProcessPoolExecutor", PoolRecorder(sizes))
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        return sizes

    @pytest.mark.parametrize("points, workers, size", [
        (5, 5000, 3), (2, 5000, 2), (5, 2, 2)])
    def test_pool_is_bounded(self, defaults, pools, points, workers, size):
        spec = detuning_spec(defaults, points=points)
        rows = run_sweep(spec, workers=workers).rows
        assert pools == [size]
        assert_rows_match(rows, run_sweep(spec, workers=1).rows, rtol=0.0)
        assert pools == [size]  # one worker starts no pool

    def test_environment_is_bounded(self, defaults, pools, monkeypatch):
        monkeypatch.setenv("SIMULATE_WORKERS", "5000")
        run_sweep(detuning_spec(defaults, points=5))
        assert pools == [3]


def calibrate_by_generator(base, target=0.064, bracket=(0.05, 1.0)):
    """Reference route: a full generator build and steady solve per step."""
    from scipy.optimize import brentq
    base = base.replace(delta1=-base.omega42 / 2.0)

    def objective(g):
        p = base.replace(g=g)
        return solve_steady_state(build_generator(p), p).populations[1] - target

    return float(brentq(objective, *bracket, xtol=1e-12))


def calibration_cases():
    """Eight seeded (base, target) draws as the calibrate-batch workload
    draws them, then three off-default bases."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(8):
        target = float(rng.uniform(0.02, 0.1))
        cases.append((SystemParams(gamma0=float(rng.uniform(5e-4, 2e-3)),
                                   a1_mean=float(rng.uniform(0.8, 1.2))),
                      {"target": target}))
    # partial alignment keeps <sigma_22> near 2.6e-4 at the midpoint
    cases.append((SystemParams(p1=0.6, p2=0.6),
                  {"target": 2.5e-4, "bracket": (0.05, 0.2)}))
    cases.append((SystemParams(gamma_phi=0.01), {}))
    cases.append((SystemParams(a1_mean=1.3, a2_mean=0.7), {}))
    return cases


class TestCalibration:
    @pytest.mark.parametrize("case", range(11))
    def test_matches_generator_route_exactly(self, case):
        base, kw = calibration_cases()[case]
        assert calibrate_coupling(base, **kw) == calibrate_by_generator(base,
                                                                        **kw)

    @pytest.mark.parametrize("bracket", [(-0.1, 1.0), (0.05, -1.0)])
    def test_negative_bracket_end_rejected_before_solving(
            self, defaults, bracket, monkeypatch):
        from doublelambda import experiments
        calls = []
        solve = experiments.steady_state_stack
        monkeypatch.setattr(experiments, "steady_state_stack",
                            lambda *a: calls.append(1) or solve(*a))
        with pytest.raises(ValueError, match="g must be >= 0"):
            calibrate_coupling(defaults, bracket=bracket)
        assert calls == []
        with pytest.raises(ValueError, match="g must be >= 0"):
            calibrate_by_generator(defaults, bracket=bracket)

    def test_bracket_without_sign_change(self, defaults):
        with pytest.raises(ValueError) as new:
            calibrate_coupling(defaults, bracket=(0.05, 0.1))
        with pytest.raises(ValueError) as old:
            calibrate_by_generator(defaults, bracket=(0.05, 0.1))
        assert str(new.value) == str(old.value)
        assert "different signs" in str(new.value)

    def test_recovers_frozen_constant(self, defaults):
        g = calibrate_coupling(defaults)
        assert g == pytest.approx(CALIBRATED_G, abs=5e-4)

    def test_target_populations(self, defaults):
        from doublelambda.atom import build_generator
        from doublelambda.steady import solve_steady_state
        g = calibrate_coupling(defaults)
        p = defaults.replace(g=g, delta1=-1.0)
        st = solve_steady_state(build_generator(p), p)
        assert st.populations[1] == pytest.approx(0.064, abs=1e-9)


class TestNoiseModels:
    def test_models_differ_in_v12(self):
        # at elevated density the collisional Langevin forces dominate the
        # joint-quadrature spectra; dropping them (vacuum-reservoir model)
        # must change V12 visibly
        p = SystemParams(n0=3e22)
        row_e = compute_point(p, noise_model="einstein")
        row_v = compute_point(p, noise_model="vacuum-reservoir")
        assert not row_e.failed and not row_v.failed
        assert abs(row_e.v12 - row_v.v12) > 1.0
        assert row_v.v12 < 4.0  # interference-surviving noise only: entangled

    def test_vacuum_reservoir_reproduces_dephasing_trend(self):
        # with radiative noise only, entanglement switches on with the
        # lower-level exchange, deepens, and weakens again as dissipation
        # grows: a non-monotone profile with an interior minimum
        base = SystemParams(n0=3e22)
        spec = dephasing_spec(base, points=7, hi=0.01,
                              noise_model="vacuum-reservoir")
        result = run_sweep(spec)
        v = result.column("v12")
        assert result.rows[0].v12 == pytest.approx(4.0)  # transparent endpoint
        interior = v[1:]
        assert np.min(interior) < 1.2
        imin = int(np.argmin(v))
        assert 0 < imin < len(v) - 1
        assert v[-1] > np.min(interior)
