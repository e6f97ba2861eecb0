import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublelambda import SystemParams
from doublelambda import experiments
from doublelambda.entanglement import duan_stack
from doublelambda.experiments import (SWEEP_SELECTORS, ScalingRule,
                                      SweepSpec,
                                      alignment_spec, amplitude_spec,
                                      calibrate_coupling, compute_point,
                                      dephasing_spec, detuning_spec,
                                      evaluate_points, run_sweep, spectrum)
from doublelambda.atom import build_generator
from doublelambda import propagation as pr
from doublelambda.params import CALIBRATED_G, ParamStack
from doublelambda.propagation import (input_covariance, make_setup,
                                      propagate_covariance)
from doublelambda.steady import solve_steady_state, steady_state_stack
from conftest import linearized


class TestSweepSpec:
    def test_grid_must_be_monotone(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="delta1", grid=[0.0, 1.0, 0.5])

    def test_negative_validate_every_rejected(self, defaults):
        # a negative stride would silently validate nothing
        with pytest.raises(ValueError,
                           match="validate_every must be >= 0, got -3"):
            SweepSpec(base=defaults, axis="delta1", grid=[0.0, 1.0],
                      validate_every=-3)

    def test_grid_must_be_nonempty(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="delta1", grid=[])

    def test_unknown_axis(self, defaults):
        with pytest.raises(ValueError):
            SweepSpec(base=defaults, axis="gamma1", grid=[0.1, 0.2])

    def test_scalings_applied(self, defaults):
        spec = amplitude_spec(defaults, points=3, lo=1.0, hi=3.0, variant="a")
        p = spec.param_stack().point(2)
        assert p.a1_mean == 3.0 and p.a2_mean == 3.0
        assert p.n0 == pytest.approx(defaults.n0 * 3.0)
        assert p.gamma0 == pytest.approx(0.003)
        ps = spec.param_stack()
        assert ps.n0.tolist() == [defaults.n0 * v for v in (1.0, 2.0, 3.0)]
        assert ps.gamma0.tolist() == [0.001 * v for v in (1.0, 2.0, 3.0)]
        assert [ps.point(i) for i in range(3)] == \
            [replace(spec, grid=[v]).param_stack().point(0) for v in spec.grid]

    def test_invalid_grid_point_named(self, defaults):
        spec = SweepSpec(base=defaults, axis="p", grid=[0.5, 1.5, 2.5])
        with pytest.raises(ValueError, match=r"^\|p1\| must be <= 1, got 1.5$"):
            run_sweep(spec)

    @pytest.mark.parametrize("axis, rules, message", [
        ("delta1", "delta1=0.5", "scaling rules delta1=0.5 take over the "
         "delta1 axis: they set every parameter it sweeps (delta1)"),
        ("delta1", "delta1=base*axis", "scaling rules delta1=base*axis take "
         "over the delta1 axis: they set every parameter it sweeps (delta1)"),
        ("p", "p1=0.5; p2=-1*axis", "scaling rules p1=0.5; p2=-1.0*axis take "
         "over the p axis: they set every parameter it sweeps (p1, p2)"),
        ("delta1", "n0=base*axis; n0=0.001*axis", "scaling rule n0=0.001*axis "
         "sets n0 a second time (axis delta1)"),
    ], ids=["value", "base-times-axis", "both-of-a-pair", "twice"])
    def test_scalings_may_not_take_over_the_axis(self, defaults, axis, rules,
                                                 message):
        # delta1=0.5 on -2:2:3 gave one row labelled -2.0 at delta1 = 0.5;
        # delta1=base*axis labelled the point at delta1 = +2 as -2.0
        scalings = tuple(ScalingRule.parse(r) for r in rules.split("; "))
        with pytest.raises(ValueError) as err:
            SweepSpec(base=defaults, axis=axis, grid=[-0.5, 0.0, 0.5],
                      scalings=scalings)
        assert str(err.value) == message

    @pytest.mark.parametrize("axis, rule", [("p", "p2=-1*axis"),
                                            ("amplitude", "a2_mean=1.0")])
    def test_scaling_one_parameter_of_a_pair(self, defaults, axis, rule):
        spec = SweepSpec(base=defaults, axis=axis, grid=[0.25, 0.5],
                         scalings=(ScalingRule.parse(rule),))
        assert len(spec.param_stack()) == 2

    def test_variant_b_keeps_exchange_fixed(self, defaults):
        spec = amplitude_spec(defaults, points=3, variant="b")
        p = replace(spec, grid=[5.0]).param_stack().point(0)
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
        mid = np.argmin(np.abs(result.columns["axis_value"] + 1.0))
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
        # the stack computes each real generator exactly as build_generator
        # does
        poisoned = build_generator(spec.param_stack().point(1)).real
        solve = ex.steady_state_stack
        stacks = []

        def flaky(real, h, r, method="auto"):
            stacks.append(len(real))
            if any(np.array_equal(x, poisoned) for x in real):
                raise RuntimeError("synthetic solver failure")
            return solve(real, h, r, method)

        monkeypatch.setattr(ex, "steady_state_stack", flaky)
        result = run_sweep(spec)
        # the failing stack is re-run point by point
        assert stacks == [3, 1, 1, 1]
        assert result.rows[1].failed
        assert "synthetic solver failure" in result.rows[1].error
        assert not result.rows[0].failed and not result.rows[2].failed
        # the failed row still carries its axis value
        assert result.rows[1].axis_value == spec.grid[1]


class TestSubnormalField:
    """The absorption of a vanishing field is its weak-field limit until
    the field's coupling g·a_i underflows to 0; that point fails by name."""

    def test_underflowed_coupling_fails_by_name(self, defaults):
        for a1, a2, i in ((5e-324, 5e-324, 1), (1.0, 5e-324, 2)):
            row = compute_point(defaults.replace(a1_mean=a1, a2_mean=a2))
            assert row.error == (
                f"ValueError: mean field a{i} = 4.94e-324 underflows its "
                f"coupling: g·a{i} rounds to 0 (g = 0.293807)")
            assert (row.alpha1, row.alpha2, row.v12) == (None, None, None)

    def test_subnormal_field_keeps_weak_field_absorption(self, defaults):
        weak = compute_point(defaults.replace(a1_mean=1e-6, a2_mean=1e-6))
        row = compute_point(defaults.replace(a1_mean=2.0 ** -1023,
                                             a2_mean=2.0 ** -1023))
        assert not weak.error and not row.error
        for alpha in (weak.alpha1, weak.alpha2, row.alpha1, row.alpha2):
            assert alpha == pytest.approx(1.5699e-4, rel=1e-4)
        # measured 2.8e-12: the coherences are subnormal at 2^-1023
        assert row.alpha1 == pytest.approx(weak.alpha1, rel=1e-11)

    def test_only_the_underflowed_point_fails_in_a_stack(self, defaults):
        points = [defaults, defaults.replace(a1_mean=5e-324), defaults]
        rows = evaluate_points(points, 0.0, "einstein")
        assert [bool(r.error) for r in rows] == [False, True, False]
        assert "underflows its coupling" in rows[1].error

    def test_subnormal_coupling_warns_by_name(self, defaults):
        # at a = 2^-1060 alpha is off by 22 %; the row stays ok and says so
        a = 2.0 ** -1060
        both = compute_point(defaults.replace(a1_mean=a, a2_mean=a))
        second = compute_point(defaults.replace(a2_mean=a))
        assert not both.error and not second.error
        coupling = f"{defaults.g * a:.2e}"
        assert both.warnings == tuple(
            f"coupling g·a{i} = {coupling} is subnormal: alpha{i} may have "
            "lost digits" for i in (1, 2))
        assert second.warnings == both.warnings[1:]
        # the smallest normal coupling does not warn, nor does a field that
        # is off
        tiny = np.finfo(float).tiny
        for p in (defaults.replace(a1_mean=2.0 * tiny / defaults.g),
                  defaults.replace(a2_mean=0.0)):
            assert compute_point(p).warnings == ()


class TestNegativeVariance:
    def test_text(self):
        from doublelambda.entanglement import variance_warnings
        assert variance_warnings(2.0, -1.1e28) == (
            "dv2 = -1.1e+28 below 0: rounding noise",)
        assert len(variance_warnings(-1.0, -2.0)) == 2
        assert variance_warnings(0.0, 2.0) == ()

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_thick_fig2_rows_warn_where_a_variance_is_negative(
            self, defaults, noise_model):
        # at n0 x 1e6 dv2 is rounding noise of a cancelling sum, below 0 in
        # about 40 % of the rows; those rows stay ok and say so
        spec = detuning_spec(defaults.replace(n0=defaults.n0 * 1e6),
                             noise_model=noise_model)
        columns = run_sweep(spec).columns
        assert not any(columns["error"])
        negative = (columns["du2"] < 0) | (columns["dv2"] < 0)
        assert negative.sum() > 20
        warned = np.array([any("below 0: rounding noise" in w for w in ws)
                           for ws in columns["warnings"]])
        assert np.array_equal(warned, negative)


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
        batched = run_sweep(spec).rows
        ps = spec.param_stack()
        alone = [compute_point(ps.point(i), noise_model=noise_model)
                 for i in range(len(ps))]
        assert_rows_match(batched, alone)
        if selector == "fig4":
            # the masked paths ran inside the stack
            assert batched[0].method == "long-time-integration+dark-transparent"

    @settings(max_examples=25, derandomize=True, deadline=None,
              database=None)
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
    # a dark point, a point whose steady state fails and a normal point
    @example([SystemParams(gamma0=0.0),
              SystemParams(gamma1=0.0, gamma2=0.0, gamma3=0.0, gamma4=0.0,
                           gamma0=0.0),
              SystemParams()], 0.0, "einstein")
    def test_stack_matches_points_alone(self, points, omega, noise_model):
        batched = evaluate_points(points, omega, noise_model)
        alone = [compute_point(p, omega, noise_model) for p in points]
        # each stacked operation acts on one point at a time: exact equality
        assert_rows_match(batched, alone, rtol=0.0)

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_mixed_outcomes_in_every_order(self, defaults, noise_model,
                                           monkeypatch):
        from doublelambda.experiments import _evaluate_stack, _rows

        # propagator residuals: 1.1e-22 at defaults, 1.8e-15
        # (vacuum-reservoir) and 5.0e-15 (einstein) at the gain point; this
        # bound warns the gain point alone
        monkeypatch.setattr(pr, "SELF_CHECK_TOL", 5e-16)
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
        # dark with no second field: transparent, and no alpha2 at all
        assert (alone[2].alpha1, alone[2].alpha2) == (0.0, None)
        for shift in range(len(points)):
            order = points[shift:] + points[:shift]
            for stack in (order, order[::-1]):
                ref = [alone[points.index(p)] for p in stack]
                # no per-point fallback here: the stack bookkeeping alone
                # must put every outcome in its own row
                rows = _rows(_evaluate_stack(ParamStack.of(stack),
                                             np.zeros(1), noise_model))
                assert_rows_match(rows, ref, rtol=0.0)

    def test_stacks_split_long_grids(self, defaults):
        from doublelambda.experiments import STACK_POINTS
        spec = detuning_spec(defaults, points=STACK_POINTS + 3)
        rows = run_sweep(spec).rows
        ends = [0, STACK_POINTS - 1, STACK_POINTS, STACK_POINTS + 2]
        assert_rows_match([rows[i] for i in ends],
                          [compute_point(spec.param_stack().point(i))
                           for i in ends], rtol=0.0)

    def test_spectrum_matches_pointwise(self, defaults):
        p = defaults.replace(n0=3e19)
        omegas = np.linspace(-2.0, 3.0, 11)  # includes 0
        rows = spectrum(p, omegas, noise_model="vacuum-reservoir")
        gen = build_generator(p)
        lin = linearized(gen, solve_steady_state(gen, p), p,
                         noise_model="vacuum-reservoir")
        for row, w in zip(rows, omegas):
            res = propagate_covariance(make_setup(*lin, p, omega=w),
                                       input_covariance(omega=w))
            du2, dv2, failures = duan_stack(res.covariance.c[None])
            assert failures == {}
            duan = {"v12": du2[0] + dv2[0], "du2": du2[0], "dv2": dv2[0]}
            assert row.axis_value == w
            assert row.warnings == tuple(res.warnings)
            for name, value in duan.items():
                assert getattr(row, name) == pytest.approx(
                    value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
    def test_dark_point_spectrum_is_transparent(self, defaults, noise_model):
        p = defaults.replace(gamma0=0.0)
        rows = spectrum(p, [0.0, 0.5], noise_model=noise_model)
        assert [row.axis_value for row in rows] == [0.0, 0.5]
        assert_rows_match(rows, [
            compute_point(p, omega=w, noise_model=noise_model)
            for w in (0.0, 0.5)], rtol=0.0)
        assert rows[0].method.endswith("+dark-transparent")
        assert rows[0].v12 == 4.0

    def test_spectrum_rows_carry_steady_failure(self, defaults, monkeypatch):
        from doublelambda import steady

        monkeypatch.setattr(steady, "_state_failures", lambda raw, rhos: {
            0: steady.SteadyStateError("synthetic steady failure")})
        rows = spectrum(defaults, [0.0, 0.5])
        # the point fails once, and every frequency's row names it
        assert [row.axis_value for row in rows] == [0.0, 0.5]
        assert [row.error for row in rows] == [
            "SteadyStateError: synthetic steady failure"] * 2
        assert all(row.v12 is None for row in rows)

    def test_spectrum_through_zero_matches_one_point_stacks(self, defaults):
        # omega = 0 skips the R(-omega) inversion; mixed with nonzero
        # frequencies in one stack, every row must stay bit for bit its own
        p = defaults.replace(n0=3e19)
        omegas = np.linspace(-1.0, 1.0, 5)  # includes 0
        rows = spectrum(p, omegas)
        assert [row.axis_value for row in rows] == omegas.tolist()
        assert_rows_match(rows, [spectrum(p, [w])[0] for w in omegas],
                          rtol=0.0)

    def test_failed_frequency_leaves_the_other_rows(self, defaults):
        # at this density only the zero-frequency Raman gain overflows
        p = defaults.replace(n0=3e24, delta1=0.0)
        omegas = np.linspace(-1.0, 1.0, 5)
        rows = spectrum(p, omegas)
        assert [bool(row.error) for row in rows] == [0, 0, 1, 0, 0]
        assert "propagation overflow" in rows[2].error
        assert_rows_match(rows, [spectrum(p, [w])[0] for w in omegas],
                          rtol=0.0)

    def test_spectrum_linearizes_its_point_once(self, defaults, monkeypatch):
        # spectrum-dense's 128 frequencies share one steady solve
        sizes = []

        def counted(real, h, r):
            sizes.append(len(real))
            return steady_state_stack(real, h, r)

        monkeypatch.setattr(experiments, "steady_state_stack", counted)
        rows = spectrum(defaults.replace(n0=3e19), np.linspace(0.0, 5.0, 128),
                        noise_model="vacuum-reservoir")
        assert sizes == [1]
        assert len(rows) == 128 and not any(row.failed for row in rows)

    def test_spectrum_rows_run_in_capped_stacks(self, defaults, monkeypatch):
        # one linearization, then transfer, propagation and Duan on stacks
        # of at most STACK_ROWS frequencies, each row as in its own piece
        cap, steady_sizes, transfer_sizes = experiments.STACK_ROWS, [], []
        transfer = pr.transfer_stack

        def counted_steady(real, h, r):
            steady_sizes.append(len(real))
            return steady_state_stack(real, h, r)

        def counted_transfer(a, *args):
            transfer_sizes.append(len(a))
            return transfer(a, *args)

        monkeypatch.setattr(experiments, "steady_state_stack", counted_steady)
        monkeypatch.setattr(pr, "transfer_stack", counted_transfer)
        p, omegas = defaults.replace(n0=3e19), np.linspace(0.0, 5.0, 1001)
        rows = spectrum(p, omegas, noise_model="vacuum-reservoir")
        assert steady_sizes == [1]
        assert max(transfer_sizes) <= cap
        assert sum(transfer_sizes) == len(omegas) == len(rows)
        pieces = [row for start in range(0, len(omegas), cap)
                  for row in spectrum(p, omegas[start:start + cap],
                                      noise_model="vacuum-reservoir")]
        assert_rows_match(rows, pieces, rtol=0.0)


def test_fig2_sweep_runs_as_columns(defaults, monkeypatch, tmp_path):
    # the 201 points travel as one ParamStack and every one of them is
    # accepted by the kappa_1 bracket, with no SVD condition number; the
    # rows stay columns through the CSV and SVG writers
    from doublelambda.io import emit_plot, write_results
    counts = {"cond": 0, "points": 0, "rows": 0}
    cond, check = np.linalg.cond, SystemParams.__post_init__
    row_init = experiments.SweepRow.__init__

    def counted_cond(m):
        counts["cond"] += 1
        return cond(m)

    def counted_check(self):
        counts["points"] += 1
        check(self)

    def counted_row(self, *args, **kwargs):
        counts["rows"] += 1
        row_init(self, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counted_cond)
    monkeypatch.setattr(SystemParams, "__post_init__", counted_check)
    monkeypatch.setattr(experiments.SweepRow, "__init__", counted_row)
    result = run_sweep(detuning_spec(defaults))
    write_results(result, "csv", tmp_path / "fig2.csv")
    assert len(emit_plot(result, tmp_path / "fig2")) == 3
    assert counts["rows"] == 0
    assert len(result.columns["error"]) == 201
    assert not any(result.columns["error"])
    assert counts["cond"] == 0
    assert counts["points"] <= 2
    assert len(result.rows) == counts["rows"] == 201  # the view builds them


def test_fig2_sweep_takes_no_eigenvalues_and_no_complex_l(defaults,
                                                         monkeypatch):
    # drift stability is certified from the rates, and every point is
    # certified by the bordered solve, which reads the real generator
    from doublelambda import atom
    calls = []
    for owner, name in ((np.linalg, "eigvals"), (np.linalg, "eig"),
                        (atom, "liouvillian_stack")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: (
            calls.append(name)))
    result = run_sweep(detuning_spec(defaults))
    assert len(result.columns["error"]) == 201
    assert not any(result.columns["error"])
    assert calls == []


@pytest.mark.parametrize("noise_model", ["einstein", "vacuum-reservoir"])
def test_sweep_stack_diffusion_reads_the_tables(defaults, monkeypatch,
                                                noise_model):
    # the point stages read the steady solve's real coordinates: no state
    # product and no Einstein relation runs in a stack, and the table D of
    # the live points is the relation on the dissipators of their rates
    # (the radiative entries alone under vacuum-reservoir), so no
    # Hamiltonian part reaches it.  fig4's first point is dark.
    from doublelambda import atom
    from doublelambda import fluctuations as fl
    from doublelambda.experiments import _evaluate_stack
    from doublelambda.params import HERMITIAN_FRAME
    einstein, products, stack = (fl._einstein_diffusion, fl._state_products,
                                 fl.diffusion_stack)

    def refuse(*args):
        raise AssertionError("a stack formed a complex state product")

    calls = []
    monkeypatch.setattr(fl, "_einstein_diffusion", refuse)
    monkeypatch.setattr(fl, "_state_products", refuse)
    monkeypatch.setattr(fl, "diffusion_stack", lambda *args: (
        calls.append(args) or stack(*args)))
    ps = dephasing_spec(defaults, points=9,
                        noise_model=noise_model).param_stack()
    columns = _evaluate_stack(ps, np.zeros(1), noise_model)
    assert not any(columns["error"])
    (model, rates, x), = calls
    assert model == noise_model
    assert np.array_equal(rates, atom.coefficient_stack(ps)[1][1:])
    n = atom.RADIATIVE_ENTRIES if noise_model == "vacuum-reservoir" else 11
    rhos = (x @ HERMITIAN_FRAME.T).reshape(-1, 4, 4)
    ref = fl.FRAME @ einstein(atom.dissipator_stack(rates[:, :n]),
                              products(rhos)) @ fl.FRAME.T
    d = stack(model, rates, x)
    assert np.max(np.abs(d - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_points_times_frequencies_match_each_spectrum(defaults, monkeypatch):
    # one evaluation of 3 points x 5 frequencies: a normal point, a dark
    # point and a point whose zero-frequency gain overflows
    from doublelambda.experiments import _evaluate, _rows
    points = [defaults.replace(n0=3e19), defaults.replace(gamma0=0.0),
              defaults.replace(n0=3e24, delta1=0.0)]
    omegas = np.linspace(-1.0, 1.0, 5)
    alone = [spectrum(p, omegas) for p in points]
    sizes = []

    def counted(real, h, r):
        sizes.append(len(real))
        return steady_state_stack(real, h, r)

    monkeypatch.setattr(experiments, "steady_state_stack", counted)
    rows = _rows(_evaluate(ParamStack.of(points), omegas, "einstein"))
    assert sizes == [3]
    assert [bool(row.error) for row in rows[10:]] == [0, 0, 1, 0, 0]
    assert rows[5].method.endswith("+dark-transparent")
    for k, ref in enumerate(alone):  # point-major rows
        assert_rows_match(rows[5 * k:5 * k + 5], ref, rtol=0.0)


class TestZeroFrequencyBlock:
    """A row at omega = 0 reads R(0) off the steady stage's bordered inverse
    and inverts -A only where that block fails the response test."""

    def test_fig2_sweep_inverts_bordered_matrices_alone(self, defaults,
                                                        monkeypatch):
        # the model is test_sweep_path_exponentiates_no_17x17: before the
        # block, every stack of drifts was inverted too, as (P, 15, 15)
        shapes, inv = set(), np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda m: shapes.add(m.shape[1:]) or inv(m))
        result = run_sweep(SWEEP_SELECTORS["fig2"](defaults))
        assert not any(result.columns["error"])
        assert shapes == {(16, 16)}

    @staticmethod
    def run_with(spec, change, monkeypatch):
        """The sweep's rows with change applied to the bordered inverses
        the transfer receives, and the rows of each inversion of -A."""
        from doublelambda import fluctuations as fl
        transfer, inv_stack, inverted = pr.transfer_stack, fl.inv_stack, []
        with monkeypatch.context() as mp:
            mp.setattr(pr, "transfer_stack", lambda *args: transfer(
                *args[:-1], change(args[-1])))
            mp.setattr(fl, "inv_stack",
                       lambda m: inverted.append(m.shape) or inv_stack(m))
            return run_sweep(spec).rows, inverted

    @pytest.mark.parametrize("corruption", ["nan", "perturbed"])
    def test_corrupted_block_alone_is_inverted(self, defaults, corruption,
                                               monkeypatch):
        spec, k = SWEEP_SELECTORS["fig2"](defaults, points=21), 7

        def corrupt(binv):
            binv = binv.copy()
            if corruption == "nan":
                binv[k] = np.nan
            else:  # R(0) off by 1e-6: residual 3.9e-6
                binv[k] *= 1.0 + 1e-6
            return binv

        clean, none = self.run_with(spec, lambda binv: binv, monkeypatch)
        direct, every = self.run_with(spec, lambda binv: None, monkeypatch)
        rows, one = self.run_with(spec, corrupt, monkeypatch)
        assert (none, every, one) == ([], [(21, 15, 15)], [(1, 15, 15)])
        # the corrupted row is the directly inverted one, bit for bit; the
        # others are untouched
        assert_rows_match(rows[k:k + 1], direct[k:k + 1], rtol=0.0)
        assert_rows_match(rows[:k] + rows[k + 1:], clean[:k] + clean[k + 1:],
                          rtol=0.0)
        # and the two routes differ there, so the comparison sees the route
        assert (clean[k].du2, clean[k].dv2) != (direct[k].du2, direct[k].dv2)


class TestValidationSampling:
    def test_every_tenth_point(self, defaults):
        spec = detuning_spec(defaults, points=21, validate_every=10)
        result = run_sweep(spec)
        assert set(result.manifest["validations"].keys()) == {0, 10, 20}
        assert all(v["passed"] for v in result.manifest["validations"].values())

    def test_failed_validation_keeps_every_row(self, defaults):
        # at gamma0 = 0 the null space is degenerate: the sweep's row takes
        # the long-time integration, and the dual-method check, which asks
        # for the null-space route, raises
        from doublelambda.oracle import cross_validate
        spec = dephasing_spec(defaults, points=5, validate_every=1)
        result = run_sweep(spec)
        assert len(result.rows) == 5
        assert not any(row.failed for row in result.rows)
        with pytest.raises(Exception) as err:
            cross_validate(spec.param_stack().point(0))
        validations = result.manifest["validations"]
        assert sorted(validations) == [0, 1, 2, 3, 4]
        assert validations[0] == {
            "passed": False,
            "error": f"{type(err.value).__name__}: {err.value}"}
        assert validations[0]["error"].startswith(
            "SteadyStateError: null space degenerate")
        for idx in range(1, 5):
            assert validations[idx]["passed"] is True
            assert validations[idx]["checks"]


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

    def test_certified_steps_build_no_complex_l(self, defaults, monkeypatch):
        # every step's point is certified by the bordered solve, which reads
        # the real generator alone
        from doublelambda import atom
        complex_builds, steps = [], []
        generators = atom.real_generator_stack
        for name in ("dissipator_stack", "liouvillian_stack"):
            monkeypatch.setattr(atom, name,
                                lambda *a: complex_builds.append(a))
        monkeypatch.setattr(atom, "real_generator_stack",
                            lambda *a: steps.append(1) or generators(*a))
        calibrate_coupling(defaults)
        assert complex_builds == []
        assert len(steps) > 2


def _steep(x):
    return math.exp(20.0 * x) - 10.0


def _step(x):
    return -1.0 if x < 0.3 else 1.0


def _nan_inside(x):
    return x - 0.3 if x in (0.0, 1.0) else math.nan


def _nan_at(nan_x, f):
    return lambda x: math.nan if x == nan_x else f(x)


#: (f, bracket) pairs: smooth, steep, flat at the root, a root at either
#: end, a sign step, signed-zero ends and values, no sign change, and NaN
#: at a, at b and at the first inner point.  Both solvers stop x**3 on
#: (-2, 1) at the 100-iteration cap; a small linear term lets it converge.
BRENT_CASES = {
    "smooth": (lambda x: math.cos(x) - x, (0.0, 1.0)),
    "steep": (_steep, (-1.0, 1.0)),
    "flat": (lambda x: x ** 3, (-2.0, 1.0)),
    "flat-converging": (lambda x: x ** 3 + 1e-3 * x, (-1.0, 2.0)),
    "root-at-a": (lambda x: x - 0.5, (0.5, 2.0)),
    "root-at-b": (lambda x: x - 2.0, (0.5, 2.0)),
    "step": (_step, (0.0, 1.0)),
    "end-minus-zero": (lambda x: x, (-0.0, 1.0)),
    "value-minus-zero": (lambda x: math.copysign(0.0, x), (-1.0, 1.0)),
    "same-signs": (lambda x: x * x + 1.0, (-1.0, 1.0)),
    "nan-at-a": (_nan_at(0.0, lambda x: x - 0.3), (0.0, 1.0)),
    "nan-at-b": (_nan_at(1.0, lambda x: x - 0.3), (0.0, 1.0)),
    "nan-inside": (_nan_inside, (0.0, 1.0)),
}


def brent_outcome(solve, f, bracket):
    """What solve(f, *bracket) returns or raises, and the reprs of the
    points it evaluated f at, in order."""
    seen = []

    def recorded(x):
        seen.append(repr(x))
        return f(x)

    try:
        root = solve(recorded, *bracket)
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), seen
    return (type(root), root, math.copysign(1.0, root)), seen


class TestBrentPort:
    """experiments._brentq against scipy.optimize.brentq at the same xtol."""

    @staticmethod
    def reference(f, a, b, maxiter=100):
        from scipy.optimize import brentq
        return brentq(f, a, b, xtol=experiments._BRENT_XTOL, maxiter=maxiter)

    @pytest.mark.parametrize("case", sorted(BRENT_CASES))
    def test_matches_scipy(self, case):
        f, bracket = BRENT_CASES[case]
        port, port_seen = brent_outcome(experiments._brentq, f, bracket)
        ref, ref_seen = brent_outcome(self.reference, f, bracket)
        assert port == ref
        assert port_seen == ref_seen

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "_BRENT_MAXITER", 3)
        f, bracket = BRENT_CASES["steep"]
        port, port_seen = brent_outcome(experiments._brentq, f, bracket)
        ref, ref_seen = brent_outcome(
            lambda *a: self.reference(*a, maxiter=3), f, bracket)
        assert port == ref == (RuntimeError,
                               "Failed to converge after 3 iterations.")
        assert port_seen == ref_seen


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
        v = result.columns["v12"]
        assert result.rows[0].v12 == pytest.approx(4.0)  # transparent endpoint
        interior = v[1:]
        assert np.min(interior) < 1.2
        imin = int(np.argmin(v))
        assert 0 < imin < len(v) - 1
        assert v[-1] > np.min(interior)
