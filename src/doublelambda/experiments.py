"""Parameter sweeps implementing the published figure protocols.

Each grid point runs the full pipeline: steady state -> linearization ->
propagation -> Duan criterion, with per-point failures recorded rather than
aborting the sweep.  A grid runs as stacks of up to STACK_POINTS points:
every stage is one batched call on the points of a stack still live, and
every point is evaluated at every frequency: a sweep is its points at one
frequency, a spectrum one point at its frequencies.
Strictly dark working points (no dissipation channel fires) short-circuit
to the transparent-medium limit where the zero-frequency response is
undefined but the physical answer is exact: the fields pass through
unchanged.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from . import atom
from . import fluctuations as fl
from . import propagation as pr
from .atom import build_generator  # noqa: F401  (the benchmark reads it)
from .entanglement import duan_stack, variance_warnings
from .oracle import cross_validate
from .params import BASIS, ParamStack, SystemParams, hermitian_coordinates
from .steady import absorption, steady_state_stack

DARK_ACTIVITY_TOL = 1e-12

#: points per stack: larger stacks ran no faster (fig2 grid on a 2-core VM,
#: one BLAS thread, cli's heap policy, best CPU time, median of 5
#: processes: 34.2 ms in stacks of 64, 36.0 ms as one stack of 201), and the
#: cap bounds the memory of the stacked intermediates on any grid (one stack
#: of 201 raised the peak RSS of a fig2 sweep by 10.7 MB, 64 by 5.2 MB)
STACK_POINTS = 64

#: rows per stack of transfer, propagation and Duan, which a spectrum runs
#: on all its frequencies after one linearization.  At n0 = 3e19
#: (vacuum-reservoir, 2-core VM, one BLAS thread, cli's heap policy, best CPU
#: time, median of 5 processes) 1024 frequencies took 53.5 ms under this
#: cap, 60.5 under 64 and 97.2 uncapped, 128 took 7.7 ms under 128 or none
#: and 8.2 under 64, and a fresh process's peak RSS for 4096 is 46 MB (145
#: uncapped)
STACK_ROWS = 128


class Axis(NamedTuple):
    params: tuple  # the SystemParams fields set to the axis value
    unit: str      # unit of the axis column in the result tables


#: sweep axis -> the parameters it sets and its unit
AXES = {
    "delta1": Axis(("delta1",), "[gamma1]"),
    "amplitude": Axis(("a1_mean", "a2_mean"), "[1]"),
    "gamma0": Axis(("gamma0",), "[gamma1]"),
    "p": Axis(("p1", "p2"), "[1]"),
}

_SCALING_RE = re.compile(
    r"^(?P<param>\w+)\s*=\s*(?:(?P<base>base\*axis)"
    r"|(?P<coef_axis>[-+0-9.eE]+)\s*\*\s*axis"
    r"|(?P<coef>[-+0-9.eE]+))$")


@dataclass(frozen=True)
class ScalingRule:
    """Coupled-parameter rule applied at each grid point.

    mode "base*axis" sets param to its base value times the axis value;
    mode "value*axis" to coef times the axis value; mode "value" to coef.
    Their text forms are param=base*axis, param=COEF*axis and param=COEF.
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

    def __str__(self) -> str:
        """The text form (see parse)."""
        if self.mode == "base*axis":
            return f"{self.param}=base*axis"
        suffix = "*axis" if self.mode == "value*axis" else ""
        return f"{self.param}={self.coef!r}{suffix}"

    @classmethod
    def parse(cls, text: str) -> "ScalingRule":
        """The rule of a text form; ValueError names what is malformed."""
        m = _SCALING_RE.match(text)
        if not m:
            raise ValueError(
                f"malformed scaling rule {text!r} "
                "(expected 'param=base*axis', 'param=COEF*axis' or 'param=COEF')")
        param = m.group("param")
        if param not in SystemParams.__dataclass_fields__:
            raise ValueError(f"unknown scaling target {param!r}")
        if m.group("base"):
            return cls(param, "base*axis")
        mode = "value" if m.group("coef_axis") is None else "value*axis"
        raw = m.group("coef_axis") or m.group("coef")
        try:
            return cls(param, mode, float(raw))
        except ValueError:
            raise ValueError(f"malformed number {raw!r}") from None


def check_grid(grid: np.ndarray) -> None:
    """Refuse an empty sweep grid, or one that is not strictly monotone."""
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    diffs = np.diff(grid)
    if grid.size > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("grid must be strictly monotone")


def check_scalings(axis: str, scalings) -> None:
    """Refuse scaling rules that set a parameter twice or take the axis over."""
    seen = set()
    for rule in scalings:
        if rule.param in seen:
            raise ValueError(f"scaling rule {rule} sets {rule.param} a "
                             f"second time (axis {axis})")
        seen.add(rule.param)
    swept = AXES[axis].params
    if seen.issuperset(swept):
        rules = "; ".join(str(r) for r in scalings if r.param in swept)
        raise ValueError(f"scaling rules {rules} take over the {axis} axis: "
                         f"they set every parameter it sweeps "
                         f"({', '.join(swept)})")


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
            raise ValueError(f"axis must be one of {tuple(AXES)}, "
                             f"got {self.axis!r}")
        if self.validate_every < 0:
            raise ValueError("validate_every must be >= 0, "
                             f"got {self.validate_every}")
        grid = np.asarray(self.grid, dtype=float)
        check_grid(grid)
        object.__setattr__(self, "grid", grid)
        check_scalings(self.axis, self.scalings)

    def param_stack(self) -> ParamStack:
        """The grid's points: the axis sets its parameters, then each
        scaling rule its own from the base."""
        columns = self.base.as_dict()
        columns.update(dict.fromkeys(AXES[self.axis].params, self.grid))
        for rule in self.scalings:
            columns[rule.param] = rule.apply(getattr(self.base, rule.param),
                                             self.grid)
        return ParamStack(**columns)


@dataclass(frozen=True)
class SweepRow:
    """A point's result at one frequency.  The fields are the result-table
    columns in order; a field's metadata gives its unit and, for an array,
    the columns it splits into.  axis_value has the unit of the swept axis."""

    axis_value: float
    v12: Optional[float] = field(default=None, metadata={"unit": "[1]"})
    du2: Optional[float] = field(default=None, metadata={"unit": "[1]"})
    dv2: Optional[float] = field(default=None, metadata={"unit": "[1]"})
    populations: Optional[np.ndarray] = field(default=None, metadata={
        "unit": "[1]", "split": ("pop1", "pop2", "pop3", "pop4")})
    alpha1: Optional[float] = field(default=None, metadata={"unit": "[1/m]"})
    alpha2: Optional[float] = field(default=None, metadata={"unit": "[1/m]"})
    method: str = ""
    error: str = ""
    warnings: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.error)


def _no_values(rows: int) -> dict:
    """Columns of `rows` rows with no values: NaN for a number (one column
    per entry of a split field), the field's default for a text field."""
    columns = {}
    for f in fields(SweepRow):
        if isinstance(f.default, (str, tuple)):
            columns[f.name] = np.empty(rows, dtype=object)
            columns[f.name].fill(f.default)
        else:
            split = f.metadata.get("split")
            columns[f.name] = np.full((rows, len(split)) if split else rows,
                                      np.nan)
    return columns


def _values(f, column: np.ndarray) -> list:
    """Field f's values from its column: the rows of a 2-D column as arrays,
    and None where a field that may be None holds NaN."""
    values = list(column) if column.ndim > 1 else column.tolist()
    if f.default is not None:
        return values
    missing = np.isnan(column.reshape(len(column), -1)).any(1)
    return [None if m else v for m, v in zip(missing.tolist(), values)]


def _rows(columns: dict) -> list:
    return [SweepRow(*cells) for cells in
            zip(*(_values(f, columns[f.name]) for f in fields(SweepRow)))]


@dataclass(frozen=True)
class SweepResult:
    """A sweep's rows as columns: one array per SweepRow field, a number
    NaN where a row has no value, populations of shape (rows, 4), and
    method, error and warnings as object arrays."""

    axis: str
    columns: dict
    manifest: dict

    @property
    def rows(self) -> tuple:
        """The rows as SweepRow objects, built on each call."""
        return tuple(_rows(self.columns))


class _Stack:
    """Stack positions of the points (or rows) still being evaluated, and
    an error column that the points leaving on a failed check write to."""

    def __init__(self, live: np.ndarray, error: np.ndarray):
        self.live, self.error = live, error

    def drop(self, failures: dict, *arrays) -> list:
        """Retire the live points keyed in failures, writing the error text
        of each exception (None leaves no error); return arrays (aligned
        with the live points) restricted to the points that stay."""
        if not failures:  # no copies when every point stays
            return list(arrays)
        keep = np.ones(self.live.size, dtype=bool)
        for k, exc in failures.items():
            if exc is not None:
                self.error[self.live[k]] = _error_text(exc)
            keep[k] = False
        self.live = self.live[keep]
        return [x[keep] for x in arrays]


def _coupling_checks(ps: ParamStack, h: np.ndarray) -> tuple[dict, dict]:
    """{stack position: ValueError} where a field's coupling g·a_i (column
    2 or 4 of h) rounds to 0 from a nonzero a_i and g: the field drives
    nothing, and its absorption would read 0, not its weak-field limit;
    {stack position: warnings} where it is subnormal, as then are the
    coherences the absorption divides by a_i."""
    failures, warnings = {}, {}
    for i, a, coupling in ((1, ps.a1_mean, h[:, 2]), (2, ps.a2_mean, h[:, 4])):
        for k in np.flatnonzero((a > 0) & (ps.g > 0) & (coupling == 0)):
            failures.setdefault(int(k), ValueError(
                f"mean field a{i} = {a[k]:.3g} underflows its coupling: "
                f"g·a{i} rounds to 0 (g = {ps.g[k]:.6g})"))
        for k in np.flatnonzero((coupling > 0)
                                & (coupling < np.finfo(float).tiny)):
            warnings[int(k)] = warnings.get(int(k), ()) + (
                f"coupling g·a{i} = {coupling[k]:.2e} is subnormal: "
                f"alpha{i} may have lost digits",)
    return failures, warnings


def _evaluate_stack(ps: ParamStack, omegas: np.ndarray,
                    noise_model: str) -> dict:
    """The pipeline on every point of ps at every frequency of omegas, as
    columns (see SweepResult) with no axis values: row p * len(omegas) + k
    is the point ps[p] at omegas[k].

    The stages up to the frequency (coefficients -> steady state -> dark
    check -> drift, field coupling and diffusion, the last three from the
    state coordinates x) run once per point; response, transfer,
    propagation and Duan run on the rows of the live points in stacks of
    at most STACK_ROWS rows, each of which gathers its rows' a, b and d.
    """
    points = _Stack(np.arange(len(ps)), np.full(len(ps), "", dtype=object))
    h, r = atom.coefficient_stack(ps)
    real = atom.real_generator_stack(h, r)
    rho_all, _, methods, failures, binv = steady_state_stack(real, h, r)
    underflowed, subnormal = _coupling_checks(ps, h)
    failures = {**failures, **underflowed}
    real, r, x = points.drop(failures, real, r, hermitian_coordinates(rho_all))
    activity = atom.dissipative_activity_stack(r, x)
    dark = np.zeros(len(ps), dtype=bool)  # no dissipation: transparent
    dark[points.live] = activity < DARK_ACTIVITY_TOL
    real, r, x = points.drop(dict.fromkeys(np.flatnonzero(
        dark[points.live])), real, r, x)
    a, failures = fl.drift_stack(real, r)
    a, r, x = points.drop(failures, a, r, x)
    b = fl.field_coupling_stack(ps.g[points.live], x)
    d = fl.diffusion_stack(noise_model, r, x)
    # dropped before the row stages: kept alive, they raised the peak RSS of
    # a fig2 sweep by 0.9 MB and of a 128-frequency spectrum by 0.5 MB
    del h, r, real, x, activity
    point = np.repeat(np.arange(len(ps)), len(omegas))  # of each row
    omega = np.tile(omegas, len(ps))
    columns = _no_values(point.size)
    columns["error"] = points.error[point]
    at = np.full(len(ps), -1)  # a live point's position in a, b and d
    at[points.live] = np.arange(points.live.size)
    live = np.flatnonzero(at[point] >= 0)  # the rows of the live points
    chi, scale = np.stack([ps.chi1, ps.chi2], 1), fl.noise_scale(ps)
    for start in range(0, live.size, STACK_ROWS):
        part = _Stack(live[start:start + STACK_ROWS], columns["error"])
        p, w = point[part.live], omega[part.live]
        m, nfield, failures = pr.transfer_stack(
            a[at[p]], b[at[p]], d[at[p]], w, chi[p], ps.cell_length[p],
            scale[p], binv[p[w == 0]])  # of the rows at 0 only
        m, nfield, length = part.drop(failures, m, nfield, ps.cell_length[p])
        c_out, residual, converged, failures = pr.propagate_stack(
            m, nfield, length, pr.input_covariance().c)
        c_out, residual, converged = part.drop(failures, c_out, residual,
                                               converged)
        u, v, failures = duan_stack(c_out)
        u, v, residual, converged = part.drop(failures, u, v, residual,
                                              converged)
        columns["du2"][part.live], columns["dv2"][part.live] = u, v
        for i, res, ok in zip(part.live.tolist(), residual, converged):
            columns["warnings"][i] = pr.self_check_warnings(res, ok)
        for k in np.flatnonzero((u < 0) | (v < 0)):
            columns["warnings"][part.live[k]] += variance_warnings(u[k], v[k])
    columns["du2"][dark[point]] = columns["dv2"][dark[point]] = 2.0
    columns["v12"] = columns["du2"] + columns["dv2"]
    expectations = rho_all.transpose(0, 2, 1).reshape(len(ps), 16)
    alphas = np.stack(absorption(expectations, ps)[2:])  # NaN at <a_i> = 0
    alphas[dark & ~np.isnan(alphas)] = 0.0  # a dark medium absorbs nothing
    method = np.array([name + ("+dark-transparent" if is_dark else "")
                       for name, is_dark in zip(methods, dark)], dtype=object)
    ok = columns["error"] == ""  # the rows that did not fail
    p = point[ok]
    columns["populations"][ok] = expectations[p][:, BASIS.diagonal].real
    columns["alpha1"][ok], columns["alpha2"][ok] = alphas[:, p]
    columns["method"][ok] = method[p]
    for k, texts in subnormal.items():
        for i in np.flatnonzero(ok & (point == k)):
            columns["warnings"][i] += texts
    return columns


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluate(ps: ParamStack, omegas: np.ndarray, noise_model: str) -> dict:
    """The columns of _evaluate_stack, in stacks of at most STACK_POINTS
    points.  An exception re-runs the points one at a time, and then a
    point's frequencies one at a time, so it reaches only the rows it
    raised on."""
    if len(ps) <= STACK_POINTS:
        try:
            return _evaluate_stack(ps, omegas, noise_model)
        except Exception as exc:  # per-point failures must not kill the sweep
            if len(ps) == len(omegas) == 1:
                return {**_no_values(1),
                        "error": np.array([_error_text(exc)], dtype=object)}
    if len(ps) > 1:
        step = STACK_POINTS if len(ps) > STACK_POINTS else 1
        parts = [_evaluate(ps[i:i + step], omegas, noise_model)
                 for i in range(0, len(ps), step)]
    else:
        parts = [_evaluate(ps, omegas[k:k + 1], noise_model)
                 for k in range(len(omegas))]
    return {name: np.concatenate([part[name] for part in parts])
            for name in parts[0]}


def evaluate_points(points, omega: float = 0.0,
                    noise_model: str = "einstein") -> list:
    """Full pipeline on a list of SystemParams, evaluated as stacks (see
    _evaluate): one row per point, in input order, with axis_value NaN.
    Never raises; a point that fails gets the error row its own evaluation
    gives, and a strictly dark point the transparent-medium row."""
    return _rows(_evaluate(ParamStack.of(points), np.array([float(omega)]),
                           noise_model))


def compute_point(params: SystemParams, omega: float = 0.0,
                  noise_model: str = "einstein") -> SweepRow:
    """Full single-point pipeline; never raises, failures land in the row."""
    return evaluate_points([params], omega, noise_model)[0]


def spectrum(params: SystemParams, omegas, noise_model: str = "einstein") -> list:
    """Duan spectrum of one working point over sideband frequencies.

    One SweepRow per frequency, with the frequency as its axis_value.  The
    point is solved and linearized once, as in a sweep (a strictly dark
    point is transparent at every frequency); response, transfer,
    propagation and Duan run on stacks of at most STACK_ROWS frequencies.
    Never raises: a failure of the point fails every row, and a failure at
    one frequency only that frequency's row.
    """
    omegas = np.asarray(omegas, dtype=float)
    return _rows({**_evaluate(ParamStack.of([params]), omegas, noise_model),
                  "axis_value": omegas})


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the pipeline on every grid point, in grid order and in
    stacks of up to STACK_POINTS points (see _evaluate), as columns."""
    ps = spec.param_stack()
    columns = {**_evaluate(ps, np.array([float(spec.omega)]),
                           spec.noise_model), "axis_value": spec.grid.copy()}
    validations = {}
    if spec.validate_every > 0:
        for idx in range(0, len(spec.grid), spec.validate_every):
            try:
                validations[idx] = cross_validate(ps.point(idx)).as_dict()
            except Exception as exc:  # a sampled check must not kill the sweep
                validations[idx] = {"passed": False, "error": _error_text(exc)}
    manifest = {
        "axis": spec.axis,
        "grid": {"start": float(spec.grid[0]), "stop": float(spec.grid[-1]),
                 "points": int(spec.grid.size)},
        "omega": spec.omega,
        "noise_model": spec.noise_model,
        "scalings": [asdict(r) for r in spec.scalings],
        "base_params": spec.base.as_dict(),
        "validations": validations,
    }
    if spec.axis == "gamma0":
        # the derived coherence decay accompanying the swept exchange rate
        manifest["gamma13"] = ps.gamma13.tolist()
    return SweepResult(axis=spec.axis, columns=columns, manifest=manifest)


# -- canonical figure protocols ---------------------------------------------

def detuning_spec(base: SystemParams, points: int = 201, **kw) -> SweepSpec:
    """One-photon detuning sweep over [-4, 4], bracketing the doublet (fig2)."""
    return SweepSpec(base=base, axis="delta1",
                     grid=np.linspace(-4.0, 4.0, points), **kw)


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

#: Brent settings of calibrate_coupling: absolute and relative tolerance on
#: g and the iteration cap (scipy.optimize.brentq's rtol and maxiter)
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brent_value(f, x: float) -> float:
    """f(x) as a float; a NaN stops the search with scipy's message."""
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _brentq(f, a: float, b: float) -> float:
    """A root of f in the bracket [a, b] by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4).

    A line-for-line port of scipy.optimize.brentq (brentq.c and its NaN
    guard) at xtol = _BRENT_XTOL: it evaluates f at the same points, returns
    the same float and raises the same errors, without importing
    scipy.optimize and the modules that import pulls in.  xpre and xcur are
    the previous and current iterates, xblk the contrapoint with f of the
    other sign, spre and scur the previous and current steps.
    """
    xpre, xcur = float(a), float(b)
    fpre = _brent_value(f, xpre)
    fcur = _brent_value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # both ends are nonzero and not NaN, so `< 0` is the sign bit
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def calibrate_coupling(base: Optional[SystemParams] = None,
                       target: float = POP2_TARGET,
                       bracket: tuple = (0.05, 1.0)) -> float:
    """Fit g so the midpoint steady state reaches the reference populations.

    Solves <sigma_22>(g) = target at the symmetric working point with
    _brentq; the companion value <sigma_11> = 1/2 - target follows from the
    reflection symmetry of the configuration.  Only the field coefficients
    g*a depend on g: each step rewrites them, contracts the real generator
    and runs the steady solve with all checks, which contracts the complex
    L only at a step its bordered solve does not certify.
    """
    if base is None:
        base = SystemParams()
    base = base.replace(delta1=-base.omega42 / 2.0)
    for g in bracket:
        base.replace(g=g)  # same ValueError as a step at that end would give
    h, r = (x[None] for x in atom.coefficient_stack(base))
    a1, a2 = base.a1_mean, base.a2_mean

    def objective(g: float) -> float:
        h[0, 2:] = g * a1, g * a1, g * a2, g * a2
        rho, _, _, failures, _ = steady_state_stack(
            atom.real_generator_stack(h, r), h, r)
        if failures:
            raise failures[0]
        return rho[0, 1, 1].real - target

    return _brentq(objective, *bracket)
