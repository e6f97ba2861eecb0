import numpy as np
import pytest

from doublelambda import SystemParams
from doublelambda.experiments import (SweepSpec, alignment_spec,
                                      amplitude_spec, calibrate_coupling,
                                      compute_point, dephasing_spec,
                                      detuning_spec, run_sweep)
from doublelambda.params import CALIBRATED_G


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

        real = ex.solve_steady_state
        calls = {"n": 0}

        def flaky(gen, params, method="auto"):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic solver failure")
            return real(gen, params, method)

        monkeypatch.setattr(ex, "solve_steady_state", flaky)
        spec = detuning_spec(defaults, points=3)
        result = run_sweep(spec)
        assert result.rows[1].failed
        assert "synthetic solver failure" in result.rows[1].error
        assert not result.rows[0].failed and not result.rows[2].failed
        # the failed row still carries its axis value
        assert result.rows[1].axis_value == result.axis_values[1]


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


class TestCalibration:
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
