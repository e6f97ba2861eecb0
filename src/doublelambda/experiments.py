"""Parameter sweeps implementing the published figure protocols.

Each grid point runs the full pipeline: steady state -> linearization ->
propagation -> Duan criterion, with per-point failures recorded rather than
aborting the sweep.  Strictly dark working points (no dissipation channel
fires) short-circuit to the transparent-medium limit where the zero-frequency
response is undefined but the physical answer is exact: the fields pass
through unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from . import fluctuations as fl
from . import propagation as pr
from .atom import build_generator, dissipative_activity
from .entanglement import duan_v12
from .oracle import cross_validate
from .params import SystemParams
from .steady import observables, solve_steady_state

DARK_ACTIVITY_TOL = 1e-12

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


def compute_point(params: SystemParams, omega: float = 0.0,
                  noise_model: str = "einstein") -> SweepRow:
    """Full single-point pipeline; never raises, failures land in the row."""
    try:
        gen = build_generator(params)
        state = solve_steady_state(gen, params)
        obs = observables(state, params)
        activity = dissipative_activity(gen, state.rho)
        if activity < DARK_ACTIVITY_TOL:
            # strictly dark medium: no scattering, no noise, no response --
            # the fields emerge exactly as they entered
            return SweepRow(axis_value=np.nan, v12=4.0, du2=2.0, dv2=2.0,
                            populations=state.populations,
                            alpha1=0.0 if params.a1_mean > 0 else None,
                            alpha2=0.0 if params.a2_mean > 0 else None,
                            method=state.method + "+dark-transparent")
        lin = fl.linearize(gen, state, params, noise_model=noise_model)
        setup = pr.make_setup(lin, params, omega=omega)
        res = pr.propagate_covariance(setup, pr.input_covariance(omega=omega))
        duan = duan_v12(res.covariance)
        return SweepRow(axis_value=np.nan, v12=duan.v12, du2=duan.du2,
                        dv2=duan.dv2, populations=state.populations,
                        alpha1=obs.alpha1, alpha2=obs.alpha2,
                        method=state.method, warnings=res.warnings)
    except Exception as exc:  # per-point failures must not kill the sweep
        return SweepRow(axis_value=np.nan, error=f"{type(exc).__name__}: {exc}")


def _point_task(args) -> SweepRow:
    spec, axis_value = args
    params = spec.params_at(axis_value)
    row = compute_point(params, omega=spec.omega,
                        noise_model=spec.noise_model)
    return replace(row, axis_value=float(axis_value))


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get("SIMULATE_WORKERS", "1")))
    except ValueError:
        return 1


def run_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    """Evaluate the pipeline on every grid point, in grid order."""
    if workers is None:
        workers = worker_count()
    tasks = [(spec, v) for v in spec.grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_point_task, tasks))
    else:
        rows = [_point_task(t) for t in tasks]
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


def run_detuning_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    if spec.axis not in ("delta1", "p"):
        raise ValueError("detuning sweep expects axis delta1 (or p for the inset)")
    return run_sweep(spec, workers)


def run_amplitude_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    if spec.axis != "amplitude":
        raise ValueError("amplitude sweep expects axis=amplitude")
    return run_sweep(spec, workers)


def run_dephasing_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    if spec.axis != "gamma0":
        raise ValueError("dephasing sweep expects axis=gamma0")
    return run_sweep(spec, workers)


def run_alignment_sweep(spec: SweepSpec, workers: Optional[int] = None) -> SweepResult:
    if spec.axis != "p":
        raise ValueError("alignment sweep expects axis=p")
    if np.any(spec.grid < 0) or np.any(spec.grid > 1):
        raise ValueError("alignment grid must lie in [0, 1]")
    return run_sweep(spec, workers)


SWEEP_SELECTORS = {
    "fig2": (detuning_spec, run_detuning_sweep),
    "fig2-inset": (alignment_spec, run_alignment_sweep),
    "fig3": (amplitude_spec, run_amplitude_sweep),
    "fig4": (dephasing_spec, run_dephasing_sweep),
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
