"""Generators for the stochastic processes and dependence scenarios used in
the power studies.

Discrete series come from AR/ARMA recursions driven by Gaussian white noise
(500 burn-in steps discarded).  Continuous series live on the equispaced grid
t = 0, 1/len, ..., (len-1)/len:

* fractional Brownian motion with covariance 0.5 * (|t|^2H + |s|^2H -
  |t-s|^2H), pinned to zero at t = 0, drawn exactly by circulant embedding
  of its increments (O(N log N) time and O(N) memory in the N grid points);
* the exponential-kernel moving average Y_t = sigma * int_{-inf}^t
  e^{-lambda (t - s)} dX_s of a (fractional) Brownian driver.  For H = 0.5
  the recursion is exact with a stationary start, with the step innovation
  decomposed conditionally on the returned driver increment.  For H != 0.5
  the integral is a Riemann-Stieltjes sum over a driver extended across a
  burn-in window [-10/lambda, 0) at the grid resolution (truncation error
  ~e^-10) of at most 2**21 grid points, so lambda >= 10 * len / 2**21;
* the fixed two-rate combination lam1/(lam1-lam2) * Y(lam1) +
  lam2/(lam2-lam1) * Y(lam2) sharing one driver.  The two components also
  share the standardized innovation draws, so the combination is exactly
  linear in its components; each (driver, component) pair keeps its exact
  joint law, while the residual cross-correlation between components is
  approximated to O(lambda/len).

Every replication draws from a stream that depends only on (seed, index).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice
from math import ceil, exp, expm1, isfinite, log, prod, sqrt
from operator import methodcaller

import numpy as np

from . import streams
from .exceptions import InternalConsistencyError, InvalidInputError, positive_count, typed

_SCENARIOS = (
    "null",
    "D1",
    "D2",
    "D3",
    "C1",
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C7",
    "X-OU-Y-OU",
    "X-FOU-Y-FOU",
)

# Default Hurst exponent of the long-memory scenario variants.
_LONG_MEMORY_DEFAULT = 0.7

# Most grid points the long-memory burn-in window may have.  One C5
# replication at this cap (len 100, the smallest allowed lambda) peaks at
# 277 MB RSS, 248 MB above the import: about 120 bytes per point, nearly all
# of it the draws and FFTs of its 4,199,040-point circulant (ru_maxrss in a
# fresh interpreter).
_MAX_BURN_IN = 2**21

# Largest share of the largest fGn circulant eigenvalue that a computed
# eigenvalue may fall below zero by and still count as round-off.  At the
# burn-in cap the smallest computed eigenvalue is above zero for every H tried
# from 0.001 to 0.9999, and -3.7e-13 of the largest at H = 0.9999999; the
# autocovariance's textbook form, which cancels badly at large lags, gave
# -3.4e-7 there at H = 0.95.
_EIGEN_ROUND_OFF = 1e-10

# Most values a scenario may draw into one (n, len) matrix.  The X and Y
# matrices take 16 bytes per value, 256 MiB at the cap; generation peaks at
# about 17 bytes per value above the import (D1 308 MB at the cap, len 100),
# and at about 25 for D2 and C2 (433 and 420 MB), whose pooled noise scale
# takes one more full-size matrix (ru_maxrss in a fresh interpreter).
_MAX_VALUES = 2**24

# Steps the ARMA recursion runs, and discards, before a discrete series
# starts: far beyond the mixing time of every parameter set the study
# scenarios use.  Near the unit root it is not: from the zero start an AR(1)
# series has 1 - phi**(2 t) of its stationary variance at step t, so in
# D1-D3's units of its stationary spread its variance is about 0.67 at
# phi = 0.999 and 0.10 at phi = 0.9999 (len 100), and at phi = 0.99999 that
# spread, summed over at most 100,000 terms of the expansion, is itself 7% low.
_ARMA_BURN_IN = 500

# Most values a block of replications that step together may hold (8 MiB of
# floats), whatever n is, as _scenario_step counts them; a block has one
# replication at least.
_BLOCK_VALUES = 2**20

# Fewest positions per row for which _lfilter steps numpy rows: below this,
# one position at a time as Python floats is faster.  The crossover is about
# 18 positions for the first-order kernel sum and 22 for ARMA(2,1) (numpy
# 2.4, Python 3.11, 2-core Xeon).
_ROW_COLUMNS = 20

# Values _lfilter converts to Python floats at a time in that case.
_FLOAT_CHUNK = 2**16


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulation scenario.

    ``n`` replications of an (X, Y) series pair of length ``length`` are
    generated.  ``phi``/``theta`` parametrize D1-D3, ``lam`` C4/C5,
    ``lam1``/``lam2`` C6/C7, X-OU-Y-OU and X-FOU-Y-FOU, and ``sigma`` all six;
    scenarios ignore the fields they do not use.  ``hurst=None`` resolves to
    the scenario default: 0.7 for the long-memory variants C5/C7/X-FOU-Y-FOU,
    0.5 otherwise.  A given ``hurst`` must lie in (0, 1), and be 0.5 for C4,
    C6 and X-OU-Y-OU, which are defined on a Brownian driver.
    """

    scenario: str
    n: int
    length: int = 100
    phi: tuple[float, ...] = (0.1,)
    theta: float = 0.0
    hurst: float | None = None
    lam: float = 0.3
    lam1: float = 0.3
    lam2: float = 0.8
    sigma: float = 1.0
    seed: int = 0


def _number(name: str, value, kind: type):
    what = "an integer" if kind is int else "a real number"
    return kind(typed(value, kind, f"scenario parameter {name!r} must be {what}, got {value!r}"))


def _reals(name: str, value) -> tuple[float, ...]:
    try:
        if isinstance(value, str):  # comma-separated, as on the command line
            return tuple(float(v) for v in value.split(","))
        if isinstance(value, (list, tuple)):
            return tuple(_number(name, v, float) for v in value)
    except ValueError:
        pass
    raise InvalidInputError(f"scenario parameter {name!r} must be a list of real numbers, got {value!r}")


# External scenario-parameter names (``recurtest simulate`` flags, power-config
# keys), each with the ScenarioConfig field it sets and the type of its value.
SCENARIO_PARAMETERS = {
    "len": ("length", int),
    "phi": ("phi", tuple),
    "theta": ("theta", float),
    "hurst": ("hurst", float),
    "lambda": ("lam", float),
    "lambda1": ("lam1", float),
    "lambda2": ("lam2", float),
    "sigma": ("sigma", float),
}


def scenario_config(scenario: str, n: int, params: dict, seed: int = 0) -> ScenarioConfig:
    """``ScenarioConfig`` from parameters under their external names.

    ``len`` must be an integer, ``phi`` a list of real numbers or their
    comma-separated text, every other value a real number; parameters not
    given keep the ``ScenarioConfig`` defaults.  The config is checked as
    ``gen_scenario`` checks it, without drawing.
    """
    fields = {}
    for name, value in params.items():
        if name not in SCENARIO_PARAMETERS:
            raise InvalidInputError(
                f"unknown scenario parameter {name!r} (choose from {', '.join(SCENARIO_PARAMETERS)})"
            )
        field, kind = SCENARIO_PARAMETERS[name]
        fields[field] = _reals(name, value) if kind is tuple else _number(name, value, kind)
    cfg = ScenarioConfig(scenario=scenario, n=n, seed=seed, **fields)
    _check_scenario(cfg)
    return cfg


def _lfilter(b, a, steps, state=None, skip: int = 0) -> np.ndarray:
    """Outputs of the recursive filter ``b(z) / a(z)``, ``a[0] == 1``, over
    the rows of ``steps``, without the first ``skip``.

    Transposed direct form II with the shorter of ``b``/``a`` zero-padded to
    the common order (at least 2), in the operation order of
    ``scipy.signal.lfilter``, so the outputs equal its outputs bit for bit.
    ``steps`` is an array whose rows are the steps of its positions: a 1-D
    array is one sequence, and a row may have any shape.  Each coefficient
    and each entry of ``state``, the initial delay line (zeros when
    omitted), is a number or an array that broadcasts against a row, so
    every position is filtered with its own coefficients and start; the
    outputs take the broadcast shape.  The result has ``len(steps) - skip``
    rows, and only those outputs are stored.  Rows of fewer than
    ``_ROW_COLUMNS`` positions are filtered one position at a time, as
    Python floats.
    """
    order = max(len(a), len(b))
    b = [*b, *[0.0] * (order - len(b))]
    a = [*a, *[0.0] * (order - len(a))]
    state = [*state] if state is not None else [0.0] * (order - 1)
    steps = np.asarray(steps)
    row = np.broadcast_shapes(steps.shape[1:], *(np.shape(c) for c in (*b, *a, *state)))
    out_shape = (len(steps) - skip, *row)
    if prod(row) >= _ROW_COLUMNS:
        # Array coefficients are laid out at the row's shape once: a ufunc
        # that broadcasts costs more per step than the arithmetic here.
        def full(c):
            return np.ascontiguousarray(np.broadcast_to(c, row)) if np.ndim(c) else c

        return _transposed_form([*map(full, b)], [*map(full, a)], [*map(full, state)], steps, skip, out_shape)
    out = np.empty(out_shape)
    lead = (1,) * (len(row) + 1 - steps.ndim)  # the axes a row gains from broadcasting
    steps = np.broadcast_to(steps.reshape(len(steps), *lead, *steps.shape[1:]), (len(steps), *row))
    for at in np.ndindex(row):
        b_at, a_at, z_at = ([float(np.broadcast_to(c, row)[at]) for c in cs] for cs in (b, a, state))
        column = steps[(slice(None), *at)]
        floats = chain.from_iterable(
            column[i : i + _FLOAT_CHUNK].tolist() for i in range(0, len(column), _FLOAT_CHUNK)
        )
        out[(slice(None), *at)] = _transposed_form(b_at, a_at, z_at, floats, skip, out_shape[:1])
    return out


def _transposed_form(b, a, z, steps, skip: int, out_shape) -> np.ndarray:
    """``_lfilter``'s recursion over an iterable of steps, from the delay line
    ``z``, which it updates: the outputs after the first ``skip``, an array
    of shape ``out_shape``."""
    # Coefficients bound once: list indexing would double the cost of a float step.
    b_first, b_last, a_last = b[0], b[-1], a[-1]
    middle = [(i, b[i + 1], a[i + 1]) for i in range(len(b) - 2)]

    def outputs():
        for x in steps:
            y = z[0] + b_first * x
            for i, b_i, a_i in middle:
                z[i] = z[i + 1] + x * b_i - y * a_i
            z[-1] = x * b_last - y * a_last
            yield y

    return np.fromiter(islice(outputs(), skip, None), np.dtype((float, out_shape[1:])), out_shape[0])


def _arma_coefficients(phi, theta) -> tuple[tuple[float, ...], float]:
    """Validated ``(phi, theta)``: finite, with a stationary autoregressive part."""
    phi = tuple(float(p) for p in np.atleast_1d(phi))
    theta = float(theta)
    if not all(isfinite(c) for c in (*phi, theta)):
        raise InvalidInputError(f"ARMA coefficients must be finite, got phi {phi}, theta {theta}")
    if any(phi):  # otherwise a pure moving average
        # Roots of 1 - phi_1 z - ... - phi_p z^p must lie outside the unit circle.
        roots = np.roots([*(-c for c in phi[::-1]), 1.0])
        if np.min(np.abs(roots)) <= 1.0:
            raise InvalidInputError(f"autoregressive coefficients {phi} are not stationary")
    return phi, theta


def _arma(phi: tuple[float, ...], theta: float, noise, burnin: int) -> np.ndarray:
    """ARMA recursion over ``noise`` (as ``_lfilter`` takes steps) from a zero
    start, without its first ``burnin`` outputs."""
    return _lfilter((1.0, theta), (1.0, *(-p for p in phi)), noise, skip=burnin)


def _stationary_sd(phi: tuple[float, ...], theta: float) -> float:
    psi = [1.0]
    total = 1.0
    for j in range(1, 100_000):
        value = theta if j == 1 else 0.0
        for i, p in enumerate(phi, start=1):
            if j - i >= 0:
                value += p * psi[j - i]
        psi.append(value)
        total += value * value
        if j > max(2, len(phi)) and value * value < 1e-15 * total:
            break
    return float(np.sqrt(total))


def arma_stationary_sd(phi, theta: float) -> float:
    """Stationary standard deviation of the ARMA recursion under unit noise,
    from its moving-average expansion."""
    return _stationary_sd(*_arma_coefficients(phi, theta))


def _smooth_length(steps: int) -> int:
    """The smallest integer >= ``steps`` whose prime factors are all 2, 3 or 5."""
    best = 1 << max(steps - 1, 0).bit_length()  # the smallest power of two >= steps
    five = 1
    while five < best:
        three = five
        while three < best:
            two = three
            while two < steps:
                two *= 2
            best = min(best, two)
            three *= 3
        five *= 5
    return best


def _fgn_autocovariance(hurst: float, count: int) -> np.ndarray:
    """Autocovariance of unit-spaced fGn at lags 0, ..., count - 1 (count >= 2):
    0.5 (|k+1|^2H - 2 |k|^2H + |k-1|^2H).

    That sum cancels to H (2H - 1) k^(2H-2) from terms of size k^2H, so from
    lag 2 on it is computed as 0.5 k^2H (expm1(2H log1p(1/k)) +
    expm1(2H log1p(-1/k))): relative error about 1e-16 k, not 1e-16 k^2.
    """
    h2 = 2.0 * hurst
    acov = np.empty(count)
    acov[0] = 1.0
    acov[1] = expm1((h2 - 1.0) * log(2.0))
    lags = np.arange(2.0, count)
    inverse = 1.0 / lags
    bracket = np.expm1(h2 * np.log1p(inverse))
    bracket += np.expm1(h2 * np.log1p(-inverse))
    del inverse
    acov[2:] = 0.5 * lags**h2 * bracket
    return acov


def _fgn_eigenvalues(hurst: float, steps: int) -> np.ndarray:
    """Eigenvalues, before any clipping, of the circulant of 2M points that
    embeds M unit-spaced fGn increments, M = ``_smooth_length(steps)``: the
    spectrum of the autocovariance at lags 0..M, M-1..1."""
    return np.fft.hfft(_fgn_autocovariance(hurst, _smooth_length(steps) + 1))


def _fgn_scale(hurst: float, steps: int) -> np.ndarray:
    """Square roots of ``_fgn_eigenvalues(hurst, steps)`` over the root of
    their count: the scale ``_fbm_path`` gives its complex draws.

    The exact eigenvalues are nonnegative; computed ones below zero by at
    most ``_EIGEN_ROUND_OFF`` of the largest are clipped to zero, and any
    lower raises ``InternalConsistencyError``."""
    eig = _fgn_eigenvalues(hurst, steps)
    top = eig.max()
    if eig.min() < -_EIGEN_ROUND_OFF * top:
        raise InternalConsistencyError(
            f"fGn circulant eigenvalue {eig.min()!r} at H {hurst} is below the round-off "
            f"floor of -{_EIGEN_ROUND_OFF} times the largest, {top!r}"
        )
    np.maximum(eig, 0.0, out=eig)
    eig /= eig.size
    return np.sqrt(eig, out=eig)


def _fbm_path(length: int, hurst: float, pre_steps: int, rng: np.random.Generator, scale: np.ndarray):
    """fBm on the grid (k - pre_steps)/length, k = 0, ..., pre_steps + length - 1,
    pinned to zero at t = 0; ``scale`` is ``_fgn_scale(hurst, pre_steps +
    length - 1)``, computed once for every path of a call.

    The increments are fractional Gaussian noise, drawn exactly by circulant
    embedding (Davies & Harte 1987): the autocovariance of M >= steps
    unit-spaced increments is wrapped into a circulant of 2M points, whose
    eigenvalues are nonnegative for every H in (0, 1) and every M (Dietrich
    & Newsam 1997; Wood & Chan 1994).  M is the smallest 5-smooth integer
    >= steps, so the FFTs never fall back to a prime-length algorithm.  A
    complex Gaussian vector scaled by their square roots and transformed by
    one FFT has that covariance in its real part, whose first ``steps``
    entries are the increments.  fBm has stationary increments, so the
    cumulative sum minus its value at t = 0 has the fBm law on the whole
    grid.  O(N log N) time, O(N) memory; the draws are scaled and
    transformed in place.
    """
    steps = pre_steps + length - 1
    noise = rng.standard_normal(2 * scale.size).view(np.complex128)
    noise *= scale
    unit = np.fft.fft(noise, out=noise)[:steps].real
    path = np.zeros(steps + 1)
    np.cumsum(unit * length**-hurst, out=path[1:])
    path -= path[pre_steps]
    return path


def _fbm_sampler(length: int, hurst: float):
    """``rng -> path``: fractional Brownian motion on t = 0, 1/length, ...,
    (length-1)/length, starting at zero, drawn exactly (unit scale) by
    ``_fbm_path`` with the eigenvalues computed once for every path."""
    if length == 1:
        return lambda rng: np.zeros(1)
    return partial(_fbm_path, length, hurst, 0, scale=_fgn_scale(hurst, length - 1))


def _blocks(n: int, values: int):
    """Replications 0..n-1 in blocks of at most ``_BLOCK_VALUES`` values, when
    each replication takes ``values`` of them."""
    width = max(1, _BLOCK_VALUES // values)
    return (range(first, min(first + width, n)) for first in range(0, n, width))


def _flows(length: int, hurst: float, lams, sigma: float):
    """``(values, step)``, as ``_scenario_step`` returns them, of the drivers
    on [0, 1) and their exponential-kernel averages at the checked rates
    ``lams``: a block's ``x`` holds the drivers, and its ``y`` has the shape
    ``(len(lams), width, length)``.

    Each replication draws from its own generator; one filter then steps
    every replication and rate of the block together, with per-rate
    coefficients.  For H = 0.5 every rate consumes the same stationary-start
    and residual draws; otherwise the driver starts ``10 / min(lams)``
    before t = 0."""
    delta = 1.0 / length
    if hurst != 0.5:
        pre_steps = ceil(10.0 / (min(lams) * delta))
        scale = _fgn_scale(hurst, pre_steps + length - 1)
        decay = np.array([[exp(-lam * delta)] for lam in lams])
        # Per replication: its path increments.
        return pre_steps + length, partial(_fractional_block, length, hurst, pre_steps, sigma, decay, scale)

    rates = []
    for lam in lams:
        # Exact one-step law: y_{k+1} = decay * y_k + eta_k with the innovation
        # split into its projection on the driver increment plus an independent
        # residual, so (driver, y) has the exact joint distribution.
        decay = exp(-lam * delta)
        eta_var = sigma * sigma * (1.0 - decay * decay) / (2.0 * lam)
        loading = sigma * (1.0 - decay) / (lam * delta)
        resid_var = max(eta_var - loading * loading * delta, 0.0)
        rates.append((decay, loading, sqrt(resid_var), sqrt(sigma * sigma / (2.0 * lam))))
    # Per replication: its draws, its driver and its innovations at every rate.
    return (3 + len(lams)) * length, partial(_brownian_block, length, np.array(rates).T[..., None])


def _fractional_block(length, hurst, pre_steps, sigma, decay, scale, width, rngs):
    """``(x, y)`` of ``_flows`` for H != 0.5 and one block of ``width``
    replications: the kernel sums at the rates of ``decay``, shape
    ``(rates, 1)``, of the fBm paths drawn from ``rngs``."""
    x = np.empty((width, length))
    # Riemann-Stieltjes sum of the exponential kernel against each path.
    steps = np.empty((pre_steps + length, width))
    steps[0] = 0.0
    for column, rng in enumerate(rngs):
        path = _fbm_path(length, hurst, pre_steps, rng, scale)
        x[column] = path[pre_steps:]
        np.subtract(path[1:], path[:-1], out=steps[1:, column])
        steps[1:, column] *= sigma
    return x, _lfilter((decay,), (1.0, -decay), steps, skip=pre_steps).transpose(1, 2, 0)


def _brownian_block(length, coefficients, width, rngs):
    """``(x, y)`` of ``_flows`` for H = 0.5 and one block of ``width``
    replications drawing from ``rngs``; ``coefficients`` holds each rate's
    decay, driver loading, residual and stationary standard deviations,
    shape ``(4, rates, 1)``."""
    decay, loading, resid_sd, stationary_sd = coefficients
    d_w = np.empty((width, length - 1))
    start = np.empty(width)
    resid = np.empty((width, length - 1))
    for column, rng in enumerate(rngs):
        d_w[column] = rng.standard_normal(length - 1)
        start[column] = rng.standard_normal()
        resid[column] = rng.standard_normal(length - 1)
    x = np.zeros((width, length))
    d_w *= sqrt(1.0 / length)
    np.cumsum(d_w, axis=1, out=x[:, 1:])
    np.subtract(x[:, 1:], x[:, :-1], out=d_w)
    # The innovations, one row per step as _lfilter takes them.
    eta = np.empty((length - 1, len(decay), width))
    np.multiply(loading, d_w.T[:, None], out=eta)
    for rate, sd in enumerate(resid_sd[:, 0]):
        np.multiply(resid, sd, out=d_w)  # the increments are in eta now
        eta[:, rate] += d_w.T
    del d_w, resid
    y0 = stationary_sd * start
    steps = _lfilter((1.0,), (1.0, -decay), eta, (decay * y0,))
    del eta
    y = np.empty((len(decay), width, length))
    y[:, :, 0] = y0
    y[:, :, 1:] = steps.transpose(1, 2, 0)
    return x, y


def fou_pair_weights(lam1: float, lam2: float) -> tuple[float, float]:
    """Combination weights lam1/(lam1-lam2) and lam2/(lam2-lam1)."""
    if lam1 == lam2:
        raise InvalidInputError("the two mean-reversion rates must differ")
    return lam1 / (lam1 - lam2), lam2 / (lam2 - lam1)


def _rates(cfg: ScenarioConfig) -> tuple[float, ...]:
    """Mean-reversion rates of a smoothed-driver scenario; none for the others."""
    if cfg.scenario in ("C4", "C5"):
        return (float(cfg.lam),)
    if cfg.scenario in ("C6", "C7", "X-OU-Y-OU", "X-FOU-Y-FOU"):
        return (float(cfg.lam1), float(cfg.lam2))
    return ()


def _check_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Run every parameter check of ``gen_scenario`` without drawing.

    Returns the config with its counts as ``int``, its Hurst exponent
    resolved and its ARMA coefficients (D1-D3) or scale (smoothed drivers)
    as floats.
    """
    if cfg.scenario not in _SCENARIOS:
        raise InvalidInputError(
            f"unknown scenario {cfg.scenario!r} (choose from {', '.join(_SCENARIOS)})"
        )
    n = positive_count(cfg.n, "replication count")
    length = positive_count(cfg.length, "series length")
    if n * length > _MAX_VALUES:
        raise InvalidInputError(
            f"n {n} and len {length} need {n * length} values per matrix, "
            f"more than the cap of {_MAX_VALUES}"
        )
    cfg = replace(cfg, n=n, length=length)
    if cfg.scenario in ("C4", "C6", "X-OU-Y-OU"):
        if cfg.hurst is not None and cfg.hurst != 0.5:
            raise InvalidInputError(f"scenario {cfg.scenario} has a Brownian driver: hurst must be 0.5, got {cfg.hurst}")
        hurst = 0.5
    elif cfg.hurst is not None:
        hurst = float(cfg.hurst)
        if not 0.0 < hurst < 1.0:
            raise InvalidInputError(f"Hurst exponent must be in (0, 1), got {hurst}")
    else:
        hurst = _LONG_MEMORY_DEFAULT if cfg.scenario in ("C5", "C7", "X-FOU-Y-FOU") else 0.5
    if cfg.scenario in ("D1", "D2", "D3"):
        phi, theta = _arma_coefficients(cfg.phi, cfg.theta)
        return replace(cfg, hurst=hurst, phi=phi, theta=theta)
    if cfg.scenario in ("C6", "C7"):
        fou_pair_weights(cfg.lam1, cfg.lam2)
    if not (rates := _rates(cfg)):
        return replace(cfg, hurst=hurst)
    if length < 2:
        raise InvalidInputError(f"length must be >= 2, got {length}")
    sigma = float(cfg.sigma)
    for lam in rates:
        if not (0.0 < lam < float("inf") and sigma > 0.0 and isfinite(sigma * sigma / (2.0 * lam))):
            raise InvalidInputError(
                "mean-reversion rate lambda and scale sigma must be positive and finite, with a "
                f"finite stationary variance sigma^2/(2 lambda); got lambda {lam}, sigma {sigma}"
            )
    slowest = min(rates)
    # 10*len and the power-of-two cap times a rate are exact, so this admits
    # exactly the rates >= the smallest one named below.
    if hurst != 0.5 and 10.0 * length > _MAX_BURN_IN * slowest:
        raise InvalidInputError(
            f"mean-reversion rate lambda {slowest} is too small for len {length}: the "
            f"long-memory burn-in would need more than {_MAX_BURN_IN} grid points; the "
            f"smallest lambda allowed at this length is {10.0 * length / _MAX_BURN_IN}"
        )
    return replace(cfg, hurst=hurst, sigma=sigma)


def _response_block(cfg: ScenarioConfig, size: int, signal, to_x, width: int, rngs):
    """``(x, y)`` of null, D1-D3 or C1-C3 for a block of ``width``
    replications drawing from ``rngs``.  Each replication draws ``size``
    values with ``signal(rng)``, then its noise (a second one for C3), each
    into a row, so that its draws are contiguous; ``to_x`` turns the block's
    signal rows into those of x.  Y is the noise for null and for D2/C2,
    which scale it later, and the alternative of x and the noise otherwise."""
    draws = np.empty((width, size))
    eps = np.empty((1 + (cfg.scenario == "C3"), width, cfg.length))
    for row, rng in enumerate(rngs):
        draws[row] = signal(rng)
        for noise in eps:
            noise[row] = rng.standard_normal(cfg.length)
    x = to_x(draws)
    y = eps[0]
    if cfg.scenario in ("D1", "C1"):
        y = x * x + 3.0 * y
    elif cfg.scenario in ("D3", "C3"):
        y = y * x
        for noise in eps[1:]:  # C3's second noise
            y += 3.0 * noise
    return x, y


def _scenario_step(cfg: ScenarioConfig):
    """``(values, step)`` of a checked config.  ``step(width, rngs)`` returns
    the rows ``(x, y)`` of a block of ``width`` replications, the i-th
    drawing from the i-th of ``rngs``; ``values`` is what one replication
    counts against ``_blocks``'s budget."""
    if cfg.scenario in ("D1", "D2", "D3"):
        steps = _ARMA_BURN_IN + cfg.length
        # The discrete scenarios use the series in units of its stationary
        # spread; only the quadratic alternative is sensitive to the scale
        # (the other transforms are exactly scale-equivariant).
        sd = _stationary_sd(cfg.phi, cfg.theta)

        def arma(noise):
            # The rows' transpose steps the block's replications together.
            return (_arma(cfg.phi, cfg.theta, noise.T, _ARMA_BURN_IN) / sd).T

        # Only the burn-in rows count: numpy rows beat the float loop only
        # when wide, so a block stays wide however long the series; its
        # other rows are no more than the output's.
        return _ARMA_BURN_IN, partial(_response_block, cfg, steps, methodcaller("standard_normal", steps), arma)
    if not (rates := _rates(cfg)):  # null and C1-C3, whose replications each draw their path
        if cfg.scenario == "null":
            signal = methodcaller("standard_normal", cfg.length)
        else:
            signal = _fbm_sampler(cfg.length, cfg.hurst)
        # The signal, its noises and the response.
        return 4 * cfg.length, partial(_response_block, cfg, cfg.length, signal, lambda path: path)
    values, flows = _flows(cfg.length, cfg.hurst, rates, cfg.sigma)
    if cfg.scenario in ("C6", "C7"):
        w1, w2 = fou_pair_weights(cfg.lam1, cfg.lam2)

    def step(width, rngs):
        x, y = flows(width, rngs)
        if cfg.scenario in ("C4", "C5"):
            return x, y[0]
        if cfg.scenario in ("C6", "C7"):
            return x, w1 * y[0] + w2 * y[1]
        return y  # the two rates' averages of one shared driver

    return values, step


def gen_scenario(cfg: ScenarioConfig):
    """Generate ``cfg.n`` independent replications of the scenario.

    Returns two (n, length) matrices, one series per row.  Replication k
    draws only from the stream (cfg.seed, k).  In D2/C2 the noise added to
    sqrt(|x|) is scaled by the pooled sample standard deviation of sqrt(|x|)
    across the whole replication batch.

    A scenario may draw at most 2**24 values (n * len) per matrix.  The two
    matrices then take 256 MiB, and generation peaks at about 0.3 GB, or
    0.43 GB for D2/C2.  A larger config raises ``InvalidInputError`` before
    anything is allocated.  This is the one-seed case of ``gen_scenarios``.
    """
    (scenario,) = gen_scenarios(cfg, [cfg.seed])
    return scenario


def gen_scenarios(cfg: ScenarioConfig, seeds):
    """Yield ``gen_scenario``'s matrices of ``cfg`` at each of ``seeds`` in
    turn, as if ``cfg.seed`` were that seed; ``cfg.seed`` itself is unused.

    The series of consecutive seeds share the blocks of ``_blocks``, so a
    few short series step together as numpy rows; series k of seed s still
    draws only from the stream (s, k), and D2/C2 scale a seed's noise once
    its matrices are complete, so every seed's matrices have the bits
    ``gen_scenario`` gives them alone.  A seed's matrices are yielded as
    soon as its last series is drawn: the generator then holds one block
    and the matrices of the seeds the block spans.  The config is checked
    on the first ``next``, before anything is drawn.
    """
    cfg = _check_scenario(cfg)
    values, step = _scenario_step(cfg)
    seeds, n = list(seeds), cfg.n
    for block in _blocks(len(seeds) * n, values):
        # The seeds the block spans, with the range of each one's series in it.
        spans = [
            (seeds[s], range(max(block.start - s * n, 0), min(block.stop - s * n, n)))
            for s in range(block.start // n, -(-block.stop // n))
        ]
        rngs = chain.from_iterable(
            map(streams.Substreams(seed, streams.SCENARIO, ks=ks).generator, ks) for seed, ks in spans
        )
        x, y = step(len(block), rngs)
        row = 0
        for _, ks in spans:
            if ks.start == 0:
                xs, ys = np.empty((n, cfg.length)), np.empty((n, cfg.length))
            xs[ks.start : ks.stop] = x[row : row + len(ks)]
            ys[ks.start : ks.stop] = y[row : row + len(ks)]
            row += len(ks)
            if ks.stop == n:
                if cfg.scenario in ("D2", "C2"):
                    _pool_noise(xs, ys)
                yield xs, ys
        del x, y  # freed before the next block is drawn


def _pool_noise(xs: np.ndarray, ys: np.ndarray) -> None:
    """D2/C2's response: ``ys = root + root.std() * ys`` for root =
    sqrt(|xs|), in place, in one more matrix: the deviations from the
    pooled mean and their squares overwrite the root, summed over the whole
    batch as np.std sums them (the same bits), and the root is then taken
    again."""
    buf = np.abs(xs)
    np.sqrt(buf, out=buf)
    buf -= np.add.reduce(buf, axis=None) / buf.size
    ys *= np.sqrt(np.add.reduce(np.square(buf, out=buf), axis=None) / buf.size)
    ys += np.sqrt(np.abs(xs, out=buf), out=buf)
