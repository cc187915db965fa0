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
from itertools import islice
from math import ceil, exp, isfinite, sqrt

import numpy as np

from . import streams
from .exceptions import InvalidInputError

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
# 820 MB RSS, 790 MB above the import: about 400 bytes per point, mostly the
# FFT temporaries of _fbm_path (ru_maxrss in a fresh interpreter).
_MAX_BURN_IN = 2**21

# Most values a scenario may draw into one (n, len) matrix.  The X and Y
# matrices take 16 bytes per value, 256 MiB at the cap; generation peaks at
# up to about 40 bytes per value for D1-D3 (0.7 GB at the cap) and about 18
# for the other scenarios (0.3 GB), measured with ru_maxrss above the import.
_MAX_VALUES = 2**24

# Steps the ARMA recursion runs, and discards, before a discrete series starts.
_ARMA_BURN_IN = 500

# Replications whose ARMA recursions step together: their burn-in noise then
# takes at most 500 * 4096 * 8 bytes (16 MiB), whatever n is.
_ARMA_BLOCK = 4096


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
    try:
        if not isinstance(value, bool) and isinstance(value, (int, kind)):
            return kind(value)
    except OverflowError:  # an integer beyond the float range
        pass
    what = "an integer" if kind is int else "a real number"
    raise InvalidInputError(f"scenario parameter {name!r} must be {what}, got {value!r}")


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


def gen_white_noise(length: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian white noise of the given length."""
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    return rng.standard_normal(length)


def _lfilter(b, a, steps, state=None, skip: int = 0) -> np.ndarray:
    """Outputs of the recursive filter ``b(z) / a(z)``, ``a[0] == 1``, over
    ``steps``, without the first ``skip``.

    Transposed direct form II with the shorter of ``b``/``a`` zero-padded to
    the common order (at least 2), in the operation order of
    ``scipy.signal.lfilter``, so the outputs equal its outputs bit for bit.
    ``steps`` is a list of floats (one sequence), or a 2-D array whose rows
    are the steps of its columns, filtered together; the result has the
    shape of ``steps`` less ``skip`` rows, and only those outputs are stored.
    ``state`` is the initial delay line (zeros when omitted).
    """
    order = max(len(a), len(b))
    b = [*b, *[0.0] * (order - len(b))]
    a = [*a, *[0.0] * (order - len(a))]
    z = list(state) if state is not None else [0.0] * (order - 1)
    # Coefficients bound once: list indexing would double the cost of a float step.
    b_first, b_last, a_last = b[0], b[-1], a[-1]
    middle = [(i, b[i + 1], a[i + 1]) for i in range(order - 2)]

    def outputs():
        for x in steps:
            y = z[0] + b_first * x
            for i, b_i, a_i in middle:
                z[i] = z[i + 1] + x * b_i - y * a_i
            z[-1] = x * b_last - y * a_last
            yield y

    kept = np.dtype((float, np.shape(steps[0])))
    return np.fromiter(islice(outputs(), skip, None), kept, len(steps) - skip)


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


def gen_ar_arma(length: int, phi, theta: float, rng: np.random.Generator) -> np.ndarray:
    """ARMA series x_t = sum_i phi_i x_{t-i} + e_t + theta e_{t-1}.

    Driven by standard Gaussian noise; the first ``_ARMA_BURN_IN`` steps are
    discarded, which far exceeds the mixing time of every parameter set used
    in the study scenarios.
    """
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    phi, theta = _arma_coefficients(phi, theta)
    eps = rng.standard_normal(_ARMA_BURN_IN + length)
    return _arma(phi, theta, eps.tolist(), _ARMA_BURN_IN)


def _validate_hurst(hurst: float) -> float:
    hurst = float(hurst)
    if not 0.0 < hurst < 1.0:
        raise InvalidInputError(f"Hurst exponent must be in (0, 1), got {hurst}")
    return hurst


def _fbm_path(length: int, hurst: float, pre_steps: int, rng: np.random.Generator):
    """fBm on the grid (k - pre_steps)/length, k = 0, ..., pre_steps + length - 1,
    pinned to zero at t = 0.

    The increments are fractional Gaussian noise, drawn exactly by circulant
    embedding (Davies & Harte 1987): the autocovariance of the unit-spaced
    increments is wrapped into a circulant of twice their count, whose
    eigenvalues are nonnegative for every H in (0, 1) (Dietrich & Newsam
    1997).  A complex Gaussian vector scaled by their square roots and
    transformed by one FFT has that covariance in its real part.  fBm has
    stationary increments, so the cumulative sum minus its value at t = 0 has
    the fBm law on the whole grid.  O(N log N) time, O(N) memory.
    """
    steps = pre_steps + length - 1
    lags = np.arange(steps + 1.0)
    h2 = 2.0 * hurst
    acov = 0.5 * ((lags + 1.0) ** h2 - 2.0 * lags**h2 + np.abs(lags - 1.0) ** h2)
    eig = np.fft.hfft(acov)  # spectrum of the circulant acov[0..steps], acov[steps-1..1]
    noise = rng.standard_normal(2 * eig.size).view(np.complex128)
    # Clip round-off below zero; the exact eigenvalues are nonnegative.
    unit = np.fft.fft(np.sqrt(np.maximum(eig, 0.0) / eig.size) * noise)[:steps].real
    path = np.zeros(steps + 1)
    np.cumsum(unit * length**-hurst, out=path[1:])
    return path - path[pre_steps]


def gen_fbm(length: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """Fractional Brownian motion on t = 0, 1/length, ..., (length-1)/length.

    Exact Gaussian draw (unit scale) by circulant embedding of its
    increments; the path starts at zero.
    """
    if length < 1:
        raise InvalidInputError(f"length must be >= 1, got {length}")
    hurst = _validate_hurst(hurst)
    if length == 1:
        return np.zeros(1)
    return _fbm_path(length, hurst, 0, rng)


def _flow_parameters(length: int, hurst: float, lams, sigma: float):
    """Validated ``(hurst, lams, sigma)`` of ``_flows`` and its burn-in step count."""
    if length < 2:
        raise InvalidInputError(f"length must be >= 2, got {length}")
    hurst = _validate_hurst(hurst)
    lams = tuple(float(lam) for lam in lams)
    sigma = float(sigma)
    for lam in lams:
        if not (0.0 < lam < float("inf") and sigma > 0.0 and isfinite(sigma * sigma / (2.0 * lam))):
            raise InvalidInputError(
                "mean-reversion rate lambda and scale sigma must be positive and finite, with a "
                f"finite stationary variance sigma^2/(2 lambda); got lambda {lam}, sigma {sigma}"
            )
    if hurst == 0.5:
        return hurst, lams, sigma, 0
    slowest = min(lams)
    # 10*len and the power-of-two cap times a rate are exact, so this admits
    # exactly the rates >= the smallest one named below.
    if 10.0 * length > _MAX_BURN_IN * slowest:
        raise InvalidInputError(
            f"mean-reversion rate lambda {slowest} is too small for len {length}: the "
            f"long-memory burn-in would need more than {_MAX_BURN_IN} grid points; the "
            f"smallest lambda allowed at this length is {10.0 * length / _MAX_BURN_IN}"
        )
    delta = 1.0 / length
    return hurst, lams, sigma, ceil(10.0 / (slowest * delta))


def _flows(length: int, hurst: float, lams, sigma: float, rng: np.random.Generator):
    """Driver on [0, 1) and its exponential-kernel averages at the rates ``lams``,
    ``(x, y_1, ..., y_k)`` of ``length`` points each.  For H = 0.5 every rate
    consumes the same stationary-start and residual draws."""
    hurst, lams, sigma, pre_steps = _flow_parameters(length, hurst, lams, sigma)
    delta = 1.0 / length

    if hurst != 0.5:
        path = _fbm_path(length, hurst, pre_steps, rng)
        # Riemann-Stieltjes sum of the exponential kernel against the path.
        inp = [0.0, *(sigma * np.diff(path)).tolist()]
        flows = []
        for lam in lams:
            decay = exp(-lam * delta)
            flows.append(_lfilter((decay,), (1.0, -decay), inp, skip=pre_steps))
        return (path[pre_steps:], *flows)

    driver = np.zeros(length)
    np.cumsum(rng.standard_normal(length - 1) * sqrt(1.0 / length), out=driver[1:])
    d_w = np.diff(driver)
    start = rng.standard_normal()
    resid = rng.standard_normal(length - 1)
    flows = []
    for lam in lams:
        # Exact one-step law: y_{k+1} = decay * y_k + eta_k with the innovation
        # split into its projection on the driver increment plus an independent
        # residual, so (driver, y) has the exact joint distribution.
        decay = exp(-lam * delta)
        eta_var = sigma * sigma * (1.0 - decay * decay) / (2.0 * lam)
        loading = sigma * (1.0 - decay) / (lam * delta)
        resid_var = max(eta_var - loading * loading * delta, 0.0)
        y0 = sqrt(sigma * sigma / (2.0 * lam)) * start
        eta = loading * d_w + sqrt(resid_var) * resid
        y = _lfilter((1.0,), (1.0, -decay), eta.tolist(), (decay * y0,))
        flows.append(np.concatenate(([y0], y)))
    return (driver, *flows)


def gen_fou(length: int, hurst: float, lam: float, sigma: float, rng: np.random.Generator):
    """Exponential-kernel average of a (fractional) Brownian driver.

    Returns ``(x, y)`` where ``x`` is the driver path on [0, 1) and ``y`` the
    smoothed process, both of ``length`` points.
    """
    return _flows(length, hurst, (lam,), sigma, rng)


def fou_pair_weights(lam1: float, lam2: float) -> tuple[float, float]:
    """Combination weights lam1/(lam1-lam2) and lam2/(lam2-lam1)."""
    if lam1 == lam2:
        raise InvalidInputError("the two mean-reversion rates must differ")
    return lam1 / (lam1 - lam2), lam2 / (lam2 - lam1)


def gen_fou2(length: int, hurst: float, lam1: float, lam2: float, sigma: float, rng: np.random.Generator):
    """Two-rate combination of exponential-kernel averages of one driver.

    Equals w1 * y(lam1) + w2 * y(lam2) exactly, where both components consume
    identical innovation draws against the shared driver.
    """
    w1, w2 = fou_pair_weights(lam1, lam2)
    x, y1, y2 = _flows(length, hurst, (lam1, lam2), sigma, rng)
    return x, w1 * y1 + w2 * y2


def _resolve_hurst(cfg: ScenarioConfig) -> float:
    if cfg.scenario in ("C4", "C6", "X-OU-Y-OU"):
        if cfg.hurst is not None and cfg.hurst != 0.5:
            raise InvalidInputError(f"scenario {cfg.scenario} has a Brownian driver: hurst must be 0.5, got {cfg.hurst}")
        return 0.5
    if cfg.hurst is not None:
        return _validate_hurst(cfg.hurst)
    return _LONG_MEMORY_DEFAULT if cfg.scenario in ("C5", "C7", "X-FOU-Y-FOU") else 0.5


def _check_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Run every parameter check of ``gen_scenario`` without drawing.

    Returns the config with its Hurst exponent resolved and, for D1-D3, its
    ARMA coefficients validated as floats.
    """
    if cfg.scenario not in _SCENARIOS:
        raise InvalidInputError(
            f"unknown scenario {cfg.scenario!r} (choose from {', '.join(_SCENARIOS)})"
        )
    if cfg.n < 1:
        raise InvalidInputError(f"replication count must be >= 1, got {cfg.n}")
    if cfg.length < 1:
        raise InvalidInputError(f"series length must be >= 1, got {cfg.length}")
    values = cfg.n * cfg.length
    if values > _MAX_VALUES:
        raise InvalidInputError(
            f"n {cfg.n} and len {cfg.length} need {values} values per matrix, "
            f"more than the cap of {_MAX_VALUES}"
        )
    hurst = _resolve_hurst(cfg)
    if cfg.scenario in ("D1", "D2", "D3"):
        phi, theta = _arma_coefficients(cfg.phi, cfg.theta)
        return replace(cfg, hurst=hurst, phi=phi, theta=theta)
    if cfg.scenario in ("C4", "C5"):
        _flow_parameters(cfg.length, hurst, (cfg.lam,), cfg.sigma)
    elif cfg.scenario in ("C6", "C7", "X-OU-Y-OU", "X-FOU-Y-FOU"):
        if cfg.scenario in ("C6", "C7"):
            fou_pair_weights(cfg.lam1, cfg.lam2)
        _flow_parameters(cfg.length, hurst, (cfg.lam1, cfg.lam2), cfg.sigma)
    return replace(cfg, hurst=hurst)


def _response(scenario: str, x: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Y of the D/C alternatives from the signal and its noise; D2/C2 defer
    their noise scaling to the batch, and C3 adds a second noise."""
    if scenario in ("D1", "C1"):
        return x * x + 3.0 * eps
    if scenario in ("D2", "C2"):
        return eps
    return eps * x


def _discrete_batch(cfg: ScenarioConfig):
    """D1-D3: replication k draws its ARMA noise and then its response noise
    from the stream (cfg.seed, k); the recursion then steps a block of
    replications together, one numpy row per time step."""
    steps = _ARMA_BURN_IN + cfg.length
    x = np.empty((cfg.n, cfg.length))
    eps = np.empty((cfg.n, cfg.length))
    for first in range(0, cfg.n, _ARMA_BLOCK):
        block = range(first, min(first + _ARMA_BLOCK, cfg.n))
        noise = np.empty((steps, len(block)))
        for column, k in enumerate(block):
            rng = streams.substream(cfg.seed, streams.SCENARIO, k)
            noise[:, column] = rng.standard_normal(steps)
            eps[k] = gen_white_noise(cfg.length, rng)
        x[block.start : block.stop] = _arma(cfg.phi, cfg.theta, noise, _ARMA_BURN_IN).T
    # The discrete scenarios use the series in units of its stationary
    # spread; only the quadratic alternative is sensitive to the scale (the
    # other transforms are exactly scale-equivariant).
    x /= _stationary_sd(cfg.phi, cfg.theta)
    return x, _response(cfg.scenario, x, eps)


def _one_replication(cfg: ScenarioConfig, rng: np.random.Generator):
    """One (x, y) draw of a scenario other than D1-D3."""
    scenario = cfg.scenario
    if scenario == "null":
        x = gen_white_noise(cfg.length, rng)
        y = gen_white_noise(cfg.length, rng)
        return x, y
    if scenario == "C4" or scenario == "C5":
        return gen_fou(cfg.length, cfg.hurst, cfg.lam, cfg.sigma, rng)
    if scenario == "C6" or scenario == "C7":
        return gen_fou2(cfg.length, cfg.hurst, cfg.lam1, cfg.lam2, cfg.sigma, rng)
    if scenario in ("X-OU-Y-OU", "X-FOU-Y-FOU"):
        _, xs, ys = _flows(cfg.length, cfg.hurst, (cfg.lam1, cfg.lam2), cfg.sigma, rng)
        return xs, ys
    x = gen_fbm(cfg.length, cfg.hurst, rng)
    y = _response(scenario, x, gen_white_noise(cfg.length, rng))
    if scenario == "C3":
        y = y + 3.0 * gen_white_noise(cfg.length, rng)
    return x, y


def gen_scenario(cfg: ScenarioConfig):
    """Generate ``cfg.n`` independent replications of the scenario.

    Returns two (n, length) matrices, one series per row.  Replication k
    draws only from the stream (cfg.seed, k).  In D2/C2 the noise added to
    sqrt(|x|) is scaled by the pooled sample standard deviation of sqrt(|x|)
    across the whole replication batch.

    A scenario may draw at most 2**24 values (n * len) per matrix.  The two
    matrices then take 256 MiB, and generation peaks at about 0.7 GB (D1-D3)
    or 0.3 GB (the others).  A larger config raises ``InvalidInputError``
    before anything is allocated.
    """
    cfg = _check_scenario(cfg)
    if cfg.scenario in ("D1", "D2", "D3"):
        xs, ys = _discrete_batch(cfg)
    else:
        xs = np.empty((cfg.n, cfg.length))
        ys = np.empty((cfg.n, cfg.length))
        for k in range(cfg.n):
            rng = streams.substream(cfg.seed, streams.SCENARIO, k)
            xs[k], ys[k] = _one_replication(cfg, rng)

    if cfg.scenario in ("D2", "C2"):
        root = np.sqrt(np.abs(xs))
        scale = float(root.std())  # pooled over the whole batch
        ys = root + scale * ys
    return xs, ys
