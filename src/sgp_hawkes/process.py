"""Hawkes process core: sequences, intensities, likelihood, Ogata thinning.

A process on the window [0, T] has conditional intensity

    lambda(t) = mu(t) + sum_{t_i < t, t - t_i <= T_phi} phi(t - t_i)

with a nonnegative background mu on [0, T] and a trigger kernel phi supported
on (0, T_phi]. Both compensators are exact antiderivatives carried by the
rates (``mu_integral``, ``phi_integral``): the likelihood here and the time
rescaling in ``evaluation`` integrate one rate the same way. The likelihood
of the window charges each event the integral of phi up to min(T_phi, T - t_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import solve_banded

_TABLE_NODES = 257  # first size of a rate table; each refinement doubles the cells
_TABLE_MAX_NODES = 2**20 + 1
_TABLE_RTOL = 1e-10  # allowed midpoint error, relative to the rate's maximum
_TABLE_CHUNK = 65536  # points per call of the rate being tabulated, to bound its temporaries
_BOUND_GRID = 4096  # simulate_thinning takes sup mu on 2 * _BOUND_GRID cells and phi's tail maxima on _BOUND_GRID
_MAX_EVENTS = 1_000_000  # simulate_thinning gives up on a sequence this long as non-stationary


class NonFiniteLikelihoodError(ValueError):
    """Likelihood is undefined: non-positive or non-finite intensity at an event."""


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing event times inside an observation window [0, T]."""

    times: np.ndarray
    T: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).ravel()
        object.__setattr__(self, "times", t)
        if not np.isfinite(self.T) or self.T <= 0.0:
            raise ValueError(f"window length must be positive, got {self.T}")
        if t.size:
            if not np.all(np.isfinite(t)):
                raise ValueError("event times must be finite")
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("event times must be strictly increasing")
            if t[0] < 0.0 or t[-1] > self.T:
                raise ValueError("event times must lie within [0, T]")

    def __len__(self) -> int:
        return self.times.size


def as_sequences(seqs: EventSequence | Sequence[EventSequence]) -> tuple[EventSequence, ...]:
    """One sequence or several, as a non-empty tuple."""
    seqs = (seqs,) if isinstance(seqs, EventSequence) else tuple(seqs)
    if not seqs:
        raise ValueError("need at least one sequence")
    return seqs


@dataclass(frozen=True)
class RateFunctions:
    """Background and trigger rate of a Hawkes model.

    ``mu`` and ``phi`` must accept numpy arrays and return finite,
    non-negative values wherever they are evaluated; ``simulate_thinning``'s
    mu-only acceptance is exact under that contract. ``phi`` is treated as
    zero outside (0, T_phi]. The exact antiderivatives ``mu_integral(t) =
    int_0^t mu`` and ``phi_integral(x) = int_0^x phi`` for x in [0, T_phi]
    are the compensators; simulation runs without them, scoring requires
    them (see ``antiderivative``).
    """

    mu: Callable
    phi: Callable
    T_phi: float
    mu_integral: Callable | None = None
    phi_integral: Callable | None = None

    def __post_init__(self):
        if not np.isfinite(self.T_phi) or self.T_phi <= 0.0:
            raise ValueError(f"trigger support length must be positive, got {self.T_phi}")

    def antiderivative(self, name: str) -> Callable:
        """``mu_integral`` or ``phi_integral``; raises ValueError if it is missing."""
        field = f"{name}_integral"
        value = getattr(self, field)
        if value is None:
            raise ValueError(
                f"rates have no {field}: scoring needs exact antiderivatives; build rates "
                "with them through process.tabulate or serialize.rates_for_eval"
            )
        return value


def trigger_support(tau, t_phi: float) -> np.ndarray:
    """Mask of the trigger support (0, T_phi]."""
    tau = np.asarray(tau, dtype=float)
    return (tau > 0.0) & (tau <= t_phi)


def admissible_pairs(times: np.ndarray, t_phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Index/lag arrays of all (child i, parent j) pairs with 0 < t_i - t_j <= T_phi.

    Returns (child, lag) where child[k] is the index of the later event and
    lag[k] = t_child - t_parent, grouped by child in time order.
    """
    times = np.asarray(times, dtype=float)
    n = times.size
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=float)
    starts = np.searchsorted(times, times - t_phi, side="left")
    counts = np.arange(n) - starts
    child = np.repeat(np.arange(n), counts)
    # parent index sequence: starts[i], ..., i-1 for each child i
    offsets = np.concatenate(([0], np.cumsum(counts)))
    parent = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts) + np.repeat(starts, counts)
    lag = times[child] - times[parent]
    return child, lag


def intensities_at_events(seq: EventSequence, rates: RateFunctions) -> np.ndarray:
    """Conditional intensity evaluated at each event of the sequence."""
    lam = np.asarray(rates.mu(seq.times), dtype=float).copy()
    child, lag = admissible_pairs(seq.times, rates.T_phi)
    if child.size:
        lam += np.bincount(child, weights=np.asarray(rates.phi(lag), dtype=float), minlength=len(seq))
    return lam


def trigger_integral(rates: RateFunctions, upper) -> np.ndarray:
    """int_0^x phi for x clipped to [0, T_phi], from ``phi_integral``."""
    x = np.clip(np.atleast_1d(np.asarray(upper, dtype=float)), 0.0, rates.T_phi)
    return np.asarray(rates.antiderivative("phi")(x), dtype=float)


def log_likelihood(seq: EventSequence, rates: RateFunctions) -> float:
    """Log likelihood of the sequence under the given rates.

    The background compensator is ``mu_integral(T) - mu_integral(0)``; event i
    is charged ``phi_integral`` up to min(T_phi, T - t_i).
    """
    ends = np.asarray(rates.antiderivative("mu")(np.array([0.0, seq.T])), dtype=float)
    mu_comp = float(ends[1] - ends[0])
    if not np.isfinite(mu_comp):
        raise NonFiniteLikelihoodError(f"background compensator {mu_comp} over [0, {seq.T}] is not finite")
    if len(seq) == 0:
        return -mu_comp
    lam = intensities_at_events(seq, rates)
    if np.any(~np.isfinite(lam)) or np.any(lam <= 0.0):
        idx = int(np.argmax(~np.isfinite(lam) | (lam <= 0.0)))
        raise NonFiniteLikelihoodError(
            f"intensity {lam[idx]} at event {idx} (t={seq.times[idx]}) is not a positive finite value"
        )
    trig_comp = float(np.sum(trigger_integral(rates, seq.T - seq.times)))
    return float(np.sum(np.log(lam))) - mu_comp - trig_comp


# ---------------------------------------------------------------------------
# Ogata thinning


def _tail_max_table(f, upper: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid x of ``size`` points on [0, upper] and bounds M, one longer, with
    M[searchsorted(x, tau, "right")] >= sup_{tau' >= tau} f(tau') for tau in [0, upper]."""
    x = np.linspace(0.0, upper, size)
    vals = np.asarray(f(x), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("trigger rate must be finite and non-negative on [0, T_phi]")
    tail = np.maximum.accumulate(vals[::-1])[::-1]
    # headroom for the sup-on-a-grid underestimate of smooth rates
    return x, np.concatenate([tail[:1], tail]) * (1.0 + 1e-3) + 1e-12


def simulate_thinning(
    rates: RateFunctions,
    T: float,
    seed: int,
) -> EventSequence:
    """Sample one sequence on [0, T] by Ogata thinning.

    The dominating rate is sup mu plus the sum over active events of the
    running maximum of phi over each event's remaining support; it is
    refreshed after every accepted event and every rejected candidate.
    Rates must be bounded; their suprema are taken on a dense grid with a
    0.1% safety margin, so pathologically spiky rates are out of scope.

    mu and phi must be finite and non-negative wherever evaluated (checked on
    the bound grids); then accepting on u * bound <= mu(t) alone, without phi,
    decides as the full intensity does, since mu(t) + (sum >= 0) >= mu(t).
    """
    if not np.isfinite(T) or T <= 0.0:
        raise ValueError(f"window length must be positive, got {T}")
    rng = np.random.default_rng(seed)
    mu_grid = np.asarray(rates.mu(np.linspace(0.0, T, 2 * _BOUND_GRID + 1)), dtype=float)
    if np.any(~np.isfinite(mu_grid)) or np.any(mu_grid < 0.0):
        raise ValueError("background rate must be finite and non-negative on [0, T]")
    mu_sup = float(np.max(mu_grid)) * (1.0 + 1e-3) + 1e-12
    tail_x, tail_at = _tail_max_table(rates.phi, rates.T_phi, _BOUND_GRID + 1)

    buf = np.empty(256)  # events so far in buf[:n]; it doubles when full
    n = start = 0  # start: index of the oldest event still within T_phi of t
    t = 0.0
    while True:  # t and the active events buf[start:n] are those of the last candidate, pruned there
        bound = mu_sup
        if start < n:
            bound += float(np.add.reduce(tail_at[tail_x.searchsorted(t - buf[start:n], "right")]))
        if bound <= 1e-12:
            break
        t = t + rng.exponential(1.0 / bound)
        if t > T:
            break
        while start < n and t - buf[start] > rates.T_phi:
            start += 1
        level = rng.random() * bound
        lam = float(rates.mu(np.array([t]))[0])
        if level > lam and start < n:
            lam += float(np.add.reduce(np.asarray(rates.phi(t - buf[start:n]), dtype=float)))
        if level <= lam:
            if n == buf.size:
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[n] = t
            n += 1
            if n >= _MAX_EVENTS:
                raise RuntimeError(f"simulation exceeded {_MAX_EVENTS} events; rates look non-stationary")
    return EventSequence(buf[:n].copy(), float(T))


# ---------------------------------------------------------------------------
# Named generator presets

CASE_T = 100.0
CASE_T_PHI = 6.0


def case1_rates() -> RateFunctions:
    """Constant background mu = 1 with a half-sine trigger 0.33 sin(tau) on (0, pi]."""

    def mu(t):
        return np.ones_like(np.asarray(t, dtype=float))

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        return np.where(trigger_support(tau, np.pi), 0.33 * np.sin(tau), 0.0)

    def mu_integral(t):
        return np.asarray(t, dtype=float).copy()

    def phi_integral(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, None)
        return 0.33 * (1.0 - np.cos(np.minimum(x, np.pi)))

    return RateFunctions(mu, phi, T_phi=CASE_T_PHI, mu_integral=mu_integral, phi_integral=phi_integral)


def case2_rates(T: float = CASE_T) -> RateFunctions:
    """Sinusoidal background sin(2 pi t / T) + 1 with a damped oscillating trigger."""
    freq = 2.0 * np.pi / T
    a, b = 0.7, 2.0 * np.pi / 3.0

    def mu(t):
        t = np.asarray(t, dtype=float)
        return np.sin(freq * t) + 1.0

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        val = 0.3 * (np.sin(b * tau) + 1.0) * np.exp(-a * tau)
        return np.where(trigger_support(tau, CASE_T_PHI), val, 0.0)

    def mu_integral(t):
        t = np.asarray(t, dtype=float)
        return t + (1.0 - np.cos(freq * t)) / freq

    def phi_integral(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, CASE_T_PHI)
        decay = np.exp(-a * x)
        i_sin = (b - decay * (a * np.sin(b * x) + b * np.cos(b * x))) / (a * a + b * b)
        i_exp = (1.0 - decay) / a
        return 0.3 * (i_sin + i_exp)

    return RateFunctions(mu, phi, T_phi=CASE_T_PHI, mu_integral=mu_integral, phi_integral=phi_integral)


def table_rates(mu_t, mu_value, phi_tau, phi_value, t_phi: float) -> RateFunctions:
    """Rates given as linear-interpolation tables (used by the CLI)."""
    mu_t = np.asarray(mu_t, dtype=float)
    mu_value = np.asarray(mu_value, dtype=float)
    phi_tau = np.asarray(phi_tau, dtype=float)
    phi_value = np.asarray(phi_value, dtype=float)
    for name, x, value in (("mu", mu_t, mu_value), ("phi", phi_tau, phi_value)):
        if x.size != value.size or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ValueError(f"{name} table needs >= 2 strictly increasing abscissae matching values")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(value))):
            raise ValueError(f"{name} table needs finite abscissae and values")
    if np.any(mu_value < 0) or np.any(phi_value < 0):
        raise ValueError("rate tables must be non-negative")

    def mu(t):
        return np.interp(np.asarray(t, dtype=float), mu_t, mu_value)

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        return np.where(trigger_support(tau, t_phi), np.interp(tau, phi_tau, phi_value), 0.0)

    return RateFunctions(mu, phi, T_phi=float(t_phi))


class TabulationError(FloatingPointError):
    """A spline table of a rate missed its tolerance at the largest allowed size."""


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``CubicSpline(x, y)``'s PPoly coefficients and its values at the cell midpoints, to the bit:
    scipy's banded not-a-knot slope solve, CubicHermiteSpline's coefficients and PPoly's power sum."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    band = np.zeros((3, x.size))  # upper, main and lower diagonal
    band[0, 2:], band[1, 1:-1], band[2, :-2] = dx[:-1], 2 * (dx[:-1] + dx[1:]), dx[1:]
    band[0, 1], band[1, 0], band[1, -1], band[2, -2] = d0, dx[1], dx[-2], d1
    rhs = np.empty(x.size)
    rhs[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    s = solve_banded((1, 1), band, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
    h = 0.5 * (x[:-1] + x[1:]) - x[:-1]
    return c, c[3] + c[2] * h + c[1] * (h * h) + c[0] * (h * h * h)


def _checked_spline(f, upper: float, name: str) -> PPoly:
    """Cubic spline of f on [0, upper] that matches f at every cell midpoint.

    The nodes double (each level adds the previous midpoints) until the
    midpoint error is within _TABLE_RTOL of max |f|; NaN outside [0, upper].
    Each level checks ``_not_a_knot``'s midpoints; only the accepted one becomes a spline.
    """
    if upper <= 0.0:
        raise ValueError(f"{name} table needs a positive window, got [0, {upper}]")

    def values(x):
        chunks = [f(x[i : i + _TABLE_CHUNK]) for i in range(0, x.size, _TABLE_CHUNK)]
        return np.concatenate([np.asarray(c, dtype=float) for c in chunks])

    x = np.linspace(0.0, upper, _TABLE_NODES)
    y = values(x)
    while True:
        mid = 0.5 * (x[:-1] + x[1:])
        y_mid = values(mid)
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(y_mid))):
            raise TabulationError(f"{name} is not finite on [0, {upper}]")
        c, at_mid = _not_a_knot(x, y)
        error = float(np.max(np.abs(at_mid - y_mid)))
        if error <= _TABLE_RTOL * max(float(np.max(np.abs(y))), float(np.max(np.abs(y_mid)))):
            return PPoly(c, x, extrapolate=False)
        if x.size >= _TABLE_MAX_NODES:
            raise TabulationError(
                f"{name} table of {x.size} nodes misses its tolerance: midpoint error {error:.3g}"
            )
        x = np.insert(x, np.arange(1, x.size), mid)
        y = np.insert(y, np.arange(1, y.size), y_mid)


def tabulate(rates: RateFunctions, T: float) -> RateFunctions:
    """Spline tables of smooth rates with the exact antiderivatives of the splines.

    ``mu`` is tabulated on [0, T] and ``phi`` on [0, T_phi]; each table checks
    itself against the given rates (see ``_checked_spline``) and raises
    ``TabulationError`` rather than return a table that misses. ``phi`` is
    tabulated through its unmasked limit at lag 0 and masked again when
    evaluated. Values are clipped at zero, a change no larger than the
    tolerance; outside their windows the tables give NaN.
    """
    mu_spline = _checked_spline(rates.mu, float(T), "mu")
    # The smallest positive lag stands in for 0, where the support mask would
    # put a kink into the table.
    phi_spline = _checked_spline(
        lambda tau: rates.phi(np.maximum(tau, np.nextafter(0.0, 1.0))), rates.T_phi, "phi"
    )

    def mu(t):
        return np.maximum(mu_spline(np.asarray(t, dtype=float)), 0.0)

    def phi(tau):
        tau = np.asarray(tau, dtype=float)
        return np.where(trigger_support(tau, rates.T_phi), np.maximum(phi_spline(tau), 0.0), 0.0)

    return RateFunctions(
        mu,
        phi,
        T_phi=rates.T_phi,
        mu_integral=mu_spline.antiderivative(),
        phi_integral=phi_spline.antiderivative(),
    )


# ---------------------------------------------------------------------------
# On-disk format: one timestamp per line under a 't' header (``write_csv``);
# the window metadata sits in a sidecar JSON manifest (``serialize.write_manifest``).


def write_csv(path, header: str, *columns) -> None:
    """A header line, then one line per row of the columns, each value as format(v, ".17g")."""
    cells = [[format(v, ".17g") for v in column] for column in columns]
    Path(path).write_text("\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def read_events_csv(path, T: float) -> EventSequence:
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0].strip() != "t":
        raise ValueError(f"{path}: expected a CSV with a single 't' header line")
    times = np.asarray([float(line) for line in text[1:]], dtype=float)
    return EventSequence(times, float(T))
