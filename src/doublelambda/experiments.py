"""Parameter sweeps implementing the published figure protocols.

Each grid point runs the full pipeline: steady state -> linearization ->
propagation -> Duan criterion, with per-point failures recorded rather than
aborting the sweep.  A grid runs as stacks of up to STACK_POINTS points:
every stage is one batched call on the points of a stack still live.
Strictly dark working points (no dissipation channel fires) short-circuit
to the transparent-medium limit where the zero-frequency response is
undefined but the physical answer is exact: the fields pass through
unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from . import atom
from . import fluctuations as fl
from . import propagation as pr
from .atom import build_generator
from .entanglement import duan_stack
from .oracle import cross_validate
from .params import BASIS, SystemParams
from .steady import (AtomState, observables, solve_steady_state,
                     steady_state_stack)

DARK_ACTIVITY_TOL = 1e-12

#: points per stack: larger stacks ran no faster (fig2 grid on a 2-core VM,
#: one BLAS thread: 92 ms in stacks of 64, 94 ms as one stack of 201), and
#: the cap bounds the memory of the stacked intermediates on any grid (one
#: stack of 201 raised the peak RSS of a fig2 sweep by ~10 MB, 64 by ~3 MB)
STACK_POINTS = 64

AXES = ("delta1", "amplitude", "gamma0", "p")


@dataclass(frozen=True)
class ScalingRule:
    """Coupled-parameter rule applied at each grid point.

    mode "base*axis" sets param to its base value times the axis value;
    mode "value*axis" to coef times the axis value; mode "value" to coef.
    """

    param: str
    mode: str
    coef: float = 1.0

    def apply(self, base_value: float, axis_value: float) -> float:
        if self.mode == "base*axis":
            return base_value * axis_value
        if self.mode == "value*axis":
            return self.coef * axis_value
        if self.mode == "value":
            return self.coef
        raise ValueError(f"unknown scaling mode {self.mode!r}")


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axis: str
    grid: np.ndarray
    scalings: tuple = ()
    omega: float = 0.0
    noise_model: str = "einstein"
    validate_every: int = 0  # 0 disables in-sweep cross-validation

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        diffs = np.diff(grid)
        if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)

    def params_at(self, axis_value: float) -> SystemParams:
        changes = {}
        if self.axis == "delta1":
            changes["delta1"] = float(axis_value)
        elif self.axis == "amplitude":
            changes["a1_mean"] = float(axis_value)
            changes["a2_mean"] = float(axis_value)
        elif self.axis == "gamma0":
            changes["gamma0"] = float(axis_value)
        elif self.axis == "p":
            changes["p1"] = float(axis_value)
            changes["p2"] = float(axis_value)
        for rule in self.scalings:
            base_value = getattr(self.base, rule.param)
            changes[rule.param] = rule.apply(base_value, float(axis_value))
        return self.base.replace(**changes)


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    v12: Optional[float] = None
    du2: Optional[float] = None
    dv2: Optional[float] = None
    populations: Optional[np.ndarray] = None
    alpha1: Optional[float] = None
    alpha2: Optional[float] = None
    method: str = ""
    error: str = ""
    warnings: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass(frozen=True)
class SweepResult:
    axis: str
    rows: tuple
    manifest: dict

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) if getattr(r, name) is not None
                         else np.nan for r in self.rows], dtype=float)

    @property
    def axis_values(self) -> np.ndarray:
        return np.array([r.axis_value for r in self.rows])


class _Stack:
    """Stack positions of the points still being evaluated, and the outcome
    (a finished row or the exception of a failed check) of those that left."""

    def __init__(self, n: int):
        self.live = np.arange(n)
        self.outcomes = {}

    def drop(self, outcomes: dict, *arrays) -> list:
        """Retire the live points keyed in outcomes; return arrays (aligned
        with the live points) restricted to the points that stay."""
        keep = np.ones(self.live.size, dtype=bool)
        for k, outcome in outcomes.items():
            self.outcomes[int(self.live[k])] = outcome
            keep[k] = False
        self.live = self.live[keep]
        return [x[keep] for x in arrays]


def _propagate(stack: _Stack, a, b, d, points, omegas) -> tuple:
    """Response -> transfer -> propagation -> Duan on the live points.

    a, b, d are the live points' linearized systems, points their
    SystemParams and omegas their frequencies.  Returns du2, dv2 and the
    warnings of the points still live afterwards.
    """
    noise = np.array([fl.noise_scale(p) for p in points])
    m, m_minus, nfield, failures = pr.transfer_stack(a, b, d, noise, points,
                                                     omegas)
    lengths = np.array([p.cell_length for p in points])
    m, m_minus, nfield, lengths = stack.drop(failures, m, m_minus, nfield,
                                             lengths)
    c_in = pr.input_covariance().c
    c_out, residual, converged = pr.propagate_stack(m, m_minus, nfield,
                                                    lengths, c_in)
    du2, dv2, failures = duan_stack(c_out)
    du2, dv2, residual, converged = stack.drop(failures, du2, dv2, residual,
                                               converged)
    warnings = [pr.self_check_warnings(r, ok) for r, ok in zip(residual, converged)]
    return du2, dv2, warnings


def _error_row(exc: Exception) -> SweepRow:
    return SweepRow(axis_value=np.nan, error=f"{type(exc).__name__}: {exc}")


def _evaluate_stack(points: list, omega: float, noise_model: str) -> list:
    """The pipeline on all points at once; see evaluate_points."""
    n = len(points)
    stack = _Stack(n)
    h, r = atom.coefficient_stack(points)
    coherent, lmat = atom.liouvillian_stack(h, r)
    rho, methods, failures = steady_state_stack(lmat)
    rho_all = rho
    coherent, lmat, r, rho = stack.drop(failures, coherent, lmat, r, rho)

    def observed(i: int):
        state = AtomState(expectations=BASIS.expectations(rho_all[i]),
                          method=methods[i])
        return state, observables(state, points[i])

    activity = atom.dissipative_activity_stack(r, rho)
    dark = {}
    for k in np.flatnonzero(activity < DARK_ACTIVITY_TOL):
        # strictly dark medium: no scattering, no noise, no response --
        # the fields emerge exactly as they entered
        p = points[stack.live[k]]
        state, _ = observed(stack.live[k])
        dark[k] = SweepRow(axis_value=np.nan, v12=4.0, du2=2.0, dv2=2.0,
                           populations=state.populations,
                           alpha1=0.0 if p.a1_mean > 0 else None,
                           alpha2=0.0 if p.a2_mean > 0 else None,
                           method=state.method + "+dark-transparent")
    coherent, lmat, r, rho = stack.drop(dark, coherent, lmat, r, rho)

    a, failures = fl.drift_stack(atom.adjoint_stack(lmat))
    a, coherent, lmat, r, rho = stack.drop(failures, a, coherent, lmat, r, rho)
    g = np.array([points[i].g for i in stack.live])
    b = fl.field_coupling_stack(g, rho)
    d, failures = fl.diffusion_stack(noise_model, lmat, coherent, r, rho)
    a, b, d = stack.drop(failures, a, b, d)

    live = [points[i] for i in stack.live]
    du2, dv2, warnings = _propagate(stack, a, b, d, live,
                                    np.full(len(live), float(omega)))
    for k, i in enumerate(stack.live):
        state, obs = observed(i)
        stack.outcomes[int(i)] = SweepRow(
            axis_value=np.nan, v12=float(du2[k] + dv2[k]), du2=float(du2[k]),
            dv2=float(dv2[k]), populations=state.populations,
            alpha1=obs.alpha1, alpha2=obs.alpha2, method=state.method,
            warnings=warnings[k])
    return [row if isinstance(row, SweepRow) else _error_row(row)
            for row in (stack.outcomes[i] for i in range(n))]


def evaluate_points(points, omega: float = 0.0,
                    noise_model: str = "einstein") -> list:
    """Full pipeline on a list of SystemParams, evaluated as stacks.

    Consecutive runs of up to STACK_POINTS points form one stack each, and
    every stage runs once per stack on the points still live; a point that
    fails a check leaves the stack with the error row its own evaluation
    gives, and strictly dark points leave it with the transparent-medium
    row.  An exception raised by a stage re-runs the points one at a time,
    so it reaches only the row of the point that raised it.  Never raises;
    rows come back in input order with axis_value NaN.
    """
    points = list(points)
    if len(points) > STACK_POINTS:
        return [row for start in range(0, len(points), STACK_POINTS)
                for row in evaluate_points(points[start:start + STACK_POINTS],
                                           omega, noise_model)]
    try:
        return _evaluate_stack(points, omega, noise_model)
    except Exception as exc:  # per-point failures must not kill the sweep
        if len(points) == 1:
            return [_error_row(exc)]
    return [evaluate_points([p], omega, noise_model)[0] for p in points]


def compute_point(params: SystemParams, omega: float = 0.0,
                  noise_model: str = "einstein") -> SweepRow:
    """Full single-point pipeline; never raises, failures land in the row."""
    return evaluate_points([params], omega, noise_model)[0]


def spectrum(params: SystemParams, omegas, noise_model: str = "einstein") -> list:
    """Duan spectrum of one working point over sideband frequencies.

    The steady state and the linearized system are solved once; response,
    transfer, propagation and Duan run on the stack of frequencies.  Returns
    one dict per frequency (omega, v12, du2, dv2, warnings); raises the
    exception of the first frequency that fails.
    """
    gen = build_generator(params)
    state = solve_steady_state(gen, params)
    lin = fl.linearize(gen, state, params, noise_model=noise_model)
    omegas = np.asarray(omegas, dtype=float)
    count = omegas.size
    stack = _Stack(count)

    def tiled(x):
        return np.broadcast_to(x, (count,) + x.shape)

    du2, dv2, warnings = _propagate(stack, tiled(lin.a), tiled(lin.b),
                                    tiled(lin.d), [params] * count, omegas)
    if stack.outcomes:
        raise stack.outcomes[min(stack.outcomes)]
    return [{"omega": float(w), "v12": float(u + v), "du2": float(u),
             "dv2": float(v), "warnings": list(warn)}
            for w, u, v, warn in zip(omegas, du2, dv2, warnings)]


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("SIMULATE_WORKERS", "1")))
    except ValueError:
        return 1


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    """Evaluate the pipeline on every grid point, in grid order.

    The grid runs as one stack (see evaluate_points); with workers > 1 each
    worker process evaluates one contiguous chunk of it as a stack.
    """
    if workers is None:
        workers = worker_count()
    points = [spec.params_at(v) for v in spec.grid]
    if workers > 1:
        chunks = [[points[i] for i in c]
                  for c in np.array_split(np.arange(len(points)), workers)
                  if c.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(evaluate_points, chunks,
                             [spec.omega] * len(chunks),
                             [spec.noise_model] * len(chunks))
            rows = [row for part in parts for row in part]
    else:
        rows = evaluate_points(points, spec.omega, spec.noise_model)
    rows = [replace(row, axis_value=float(v)) for row, v in zip(rows, spec.grid)]
    validations = {}
    if spec.validate_every > 0:
        for idx in range(0, len(spec.grid), spec.validate_every):
            report = cross_validate(spec.params_at(spec.grid[idx]))
            validations[idx] = report.as_dict()
    manifest = {
        "axis": spec.axis,
        "grid": {"start": float(spec.grid[0]), "stop": float(spec.grid[-1]),
                 "points": int(spec.grid.size)},
        "omega": spec.omega,
        "noise_model": spec.noise_model,
        "scalings": [
            {"param": r.param, "mode": r.mode, "coef": r.coef}
            for r in spec.scalings],
        "base_params": spec.base.as_dict(),
        "validations": validations,
    }
    if spec.axis == "gamma0":
        # the derived coherence decay accompanying the swept exchange rate
        manifest["gamma13"] = [2.0 * float(v) + spec.base.gamma_phi
                               for v in spec.grid]
    return SweepResult(axis=spec.axis, rows=tuple(rows), manifest=manifest)


# -- canonical figure protocols ---------------------------------------------

def detuning_spec(base: SystemParams, points: int = 201,
                  span: float = 4.0, **kw) -> SweepSpec:
    """One-photon detuning sweep bracketing the doublet (fig2)."""
    return SweepSpec(base=base, axis="delta1",
                     grid=np.linspace(-span, span, points), **kw)


def alignment_spec(base: SystemParams, points: int = 201, **kw) -> SweepSpec:
    """Dipole-alignment sweep p = p1 = p2 at the midpoint (fig2 inset)."""
    base = base.replace(delta1=-base.omega42 / 2.0)
    return SweepSpec(base=base, axis="p", grid=np.linspace(0.0, 1.0, points),
                     **kw)


def amplitude_spec(base: SystemParams, points: int = 201,
                   lo: float = 2.0, hi: float = 20.0,
                   variant: str = "a", **kw) -> SweepSpec:
    """Drive-amplitude sweep at the midpoint (fig3).

    Variant "a" rescales both the density and the lower-level exchange with
    the amplitude; variant "b" rescales the density only.  The default range
    starts in the saturated regime where the absorption is past its peak.
    """
    base = base.replace(delta1=-base.omega42 / 2.0)
    scalings = [ScalingRule("n0", "base*axis")]
    if variant == "a":
        scalings.append(ScalingRule("gamma0", "value*axis", 0.001))
    elif variant != "b":
        raise ValueError(f"unknown amplitude-sweep variant {variant!r}")
    return SweepSpec(base=base, axis="amplitude",
                     grid=np.linspace(lo, hi, points),
                     scalings=tuple(scalings), **kw)


def dephasing_spec(base: SystemParams, points: int = 201,
                   hi: float = 0.005, **kw) -> SweepSpec:
    """Lower-level exchange sweep at the midpoint (fig4); gamma13 = 2*gamma0."""
    base = base.replace(delta1=-base.omega42 / 2.0)
    return SweepSpec(base=base, axis="gamma0",
                     grid=np.linspace(0.0, hi, points), **kw)


#: figure selector -> spec builder; every selector runs through run_sweep
SWEEP_SELECTORS = {
    "fig2": detuning_spec,
    "fig2-inset": alignment_spec,
    "fig3": amplitude_spec,
    "fig4": dephasing_spec,
}


# -- coupling calibration ----------------------------------------------------

POP2_TARGET = 0.064  # upper-level population peak at the symmetric midpoint


def calibrate_coupling(base: Optional[SystemParams] = None,
                       target: float = POP2_TARGET,
                       bracket: tuple = (0.05, 1.0)) -> float:
    """Fit g so the midpoint steady state reaches the reference populations.

    Solves <sigma_22>(g) = target at the symmetric working point; the
    companion value <sigma_11> = 1/2 - target follows from the reflection
    symmetry of the configuration.
    """
    if base is None:
        base = SystemParams()
    base = base.replace(delta1=-base.omega42 / 2.0)

    def objective(g: float) -> float:
        p = base.replace(g=g)
        state = solve_steady_state(build_generator(p), p)
        return state.populations[1] - target

    return float(brentq(objective, *bracket, xtol=1e-12))
