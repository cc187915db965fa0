"""Permutation-based inference: p-values, critical values, dependograms.

Calibration permutes the second sample against the first.  Each side's
pairwise distances are computed once, and the statistic is prepared once:
permuting rows leaves the X side and the Y-side distance multiset unchanged,
so only the pairing between the two coupled lists differs between
permutations.  The pairings are then evaluated in blocks: row k of the
blocks is permutation k, drawn from a stream that depends only on (seed, k),
and row 0 is the identity, the observed pairing.  Each block maps its
permutations to the pair indices of its rows, a ``(P, pairs)`` array
(``PairedDistances.pair_index``), and the prepared statistic sweeps all of
them at once.  The blocks are the units of ``_workers.run_units``, so they
run over this process and forked workers.  Each row's statistic is
independent of its block, so the result is identical for any block size and
any number of processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from math import ceil

import numpy as np

from . import streams
from ._workers import run_units
from .exceptions import InvalidInputError, positive_count
from .metrics import ensure_sample, paired_distances
from .stats_core import StatisticSpec, prepare

# Cap on the elements of each (pairings, pairs) buffer of a block; the
# block holds max(1, _BLOCK_ELEMENTS // pairs) pairings.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class TestReport:
    """Outcome of one permutation test."""

    spec: StatisticSpec
    n: int
    observed: float
    p_value: float
    m: int
    seed: int
    perm_stats: np.ndarray
    elapsed: float = 0.0


@dataclass(frozen=True)
class DependogramEntry:
    label_a: str
    label_b: str
    observed: float
    p_value: float
    critical_values: dict[float, float]
    rejects: dict[float, bool]


@dataclass(frozen=True)
class Dependogram:
    """All pairwise test outcomes between a list of groups."""

    labels: list[str]
    levels: list[float]
    entries: list[DependogramEntry] = field(default_factory=list)


def permutation_test(
    x,
    y,
    spec: StatisticSpec,
    m: int,
    seed: int,
    *,
    jobs: int | None = None,
) -> TestReport:
    """Test independence of two samples with ``m`` random permutations.

    The p-value uses the add-one estimator (1 + #{permuted >= observed}) /
    (m + 1), which is finite-sample valid under exchangeability and never
    zero; ties with the observed value count toward rejection.

    The observed pairing and the permutations are evaluated in blocks of
    rows, the observed one first.  ``jobs`` bounds the processes, this one
    and forked workers, that share the blocks (default: every usable CPU;
    ``jobs=1`` starts none, and nor does a test of one block).  Each process
    holds one block at a time.  The report, ``perm_stats`` included, is the
    same for every ``jobs``, but for ``elapsed``.
    """
    m = positive_count(m, "permutation count")
    start = time.perf_counter()

    pd0 = paired_distances(x, y, spec.metric_x, spec.metric_y)
    n = pd0.n
    if n < 3:
        raise InvalidInputError(f"permutation test needs n >= 3 observations, got {n}")

    evaluate = prepare(pd0, spec.functional)
    identity = np.arange(n)
    block = max(1, _BLOCK_ELEMENTS // pd0.pair_count)

    def block_stats(b: int) -> np.ndarray:
        """The statistics of rows b*block .. of the m + 1: row k pairs by
        permutation k, and row 0 by the identity."""
        perms = np.array(
            [
                identity if k == 0 else streams.substream(seed, streams.PERMUTATION, k).permutation(n)
                for k in range(b * block, min((b + 1) * block, m + 1))
            ]
        )
        return evaluate(pd0.pair_index(perms))

    stats = np.concatenate(run_units(block_stats, (m + block) // block, jobs))
    observed = float(stats[0])
    perm_stats = stats[1:]

    p_value = (1.0 + float(np.count_nonzero(perm_stats >= observed))) / (m + 1)
    return TestReport(
        spec=spec,
        n=n,
        observed=observed,
        p_value=p_value,
        m=m,
        seed=int(seed),  # an integer: permutation 1's stream checked it
        perm_stats=perm_stats,
        elapsed=time.perf_counter() - start,
    )


def min_permutations(alpha: float) -> int:
    """Smallest m for which the level-alpha permutation quantile exists."""
    return ceil(1.0 / alpha - 1e-9) - 1


def check_levels(levels, m) -> list[float]:
    """``levels`` as floats, checked for a test of ``m`` permutations: ``m``
    must be a positive count, and each level in turn must lie in (0, 1), be
    resolvable with ``m`` permutations (see ``min_permutations``) and differ
    in its ``%g`` form, which names it in the outputs, from the levels
    before it.  Raises ``InvalidInputError`` otherwise."""
    m = positive_count(m, "permutation count")
    levels = [float(a) for a in levels]
    names = [format(a, "g") for a in levels]
    for i, alpha in enumerate(levels):
        if not 0.0 < alpha < 1.0:
            raise InvalidInputError(f"level must be in (0, 1), got {alpha}")
        if m < min_permutations(alpha):
            raise InvalidInputError(
                f"level {alpha} needs at least m = {min_permutations(alpha)} "
                f"permutations, got {m}"
            )
        if names[i] in names[:i]:
            raise InvalidInputError(f"level {names[i]} is repeated")
    return levels


def critical_values(perm_stats, levels) -> list[float]:
    """Finite-sample permutation critical values at the requested levels.

    For level alpha the critical value is the ceil((1 - alpha) * (m + 1))-th
    order statistic of the m permuted values.  The levels are checked as
    ``check_levels`` checks them.
    """
    stats = np.sort(np.asarray(perm_stats, dtype=float))
    m = stats.size
    out = []
    for alpha in check_levels(levels, m):
        # Small epsilon keeps exact lattice points (e.g. 0.95 * 100) from
        # rounding up through floating noise; a level within it of 1 still
        # takes the first order statistic.
        out.append(float(stats[max(1, ceil((1.0 - alpha) * (m + 1) - 1e-12)) - 1]))
    return out


def _pair_entry(samples, labels, pairs, spec, m, seed, levels, jobs, i) -> DependogramEntry:
    """The dependogram entry of group pair ``pairs[i]``, its test run over up
    to ``jobs`` processes."""
    a, b = pairs[i]
    pair_seed = streams.derive_seed(seed, streams.GROUP_PAIR, a, b)
    report = permutation_test(samples[a], samples[b], spec, m, pair_seed, jobs=jobs)
    crits = critical_values(report.perm_stats, levels)
    return DependogramEntry(
        label_a=labels[a],
        label_b=labels[b],
        observed=report.observed,
        p_value=report.p_value,
        critical_values=dict(zip(levels, crits)),
        rejects={alpha: report.p_value <= alpha for alpha in levels},
    )


def dependogram(
    groups,
    spec: StatisticSpec,
    m: int,
    seed: int,
    levels=(0.05, 0.10),
    *,
    labels=None,
    jobs: int | None = None,
) -> Dependogram:
    """Pairwise mutual-independence tests between several groups.

    Runs the permutation test on every unordered pair of groups with a
    per-pair derived seed, and records observed values, permutation critical
    values and rejection flags at each level (see ``check_levels``).  Labels
    must be nonempty, unique and free of ',' and ':'.  ``jobs`` bounds the
    processes, this one and forked workers, that the call uses (default:
    every usable CPU; ``jobs=1`` starts none).  Each process holds one
    pair's test at a time, so peak memory grows with the process count.
    The entries are the same for every ``jobs``.
    """
    samples = [ensure_sample(g, f"group {i}") for i, g in enumerate(groups)]
    if len(samples) < 2:
        raise InvalidInputError(f"need at least 2 groups, got {len(samples)}")
    sizes = {s.shape[0] for s in samples}
    if len(sizes) != 1:
        raise InvalidInputError(f"groups must share a common sample size, got {sorted(sizes)}")
    levels = check_levels(levels, m)
    if labels is None:
        labels = [f"g{i}" for i in range(len(samples))]
    labels = [str(l) for l in labels]
    if len(labels) != len(samples):
        raise InvalidInputError("one label per group required")
    # The CSV names a pair "a:b" in a comma-separated row.
    for i, label in enumerate(labels):
        if not label or "," in label or ":" in label or label in labels[:i]:
            raise InvalidInputError(
                f"group {label!r}: a name must be nonempty, unique and free of ',' and ':'"
            )

    pairs = [(a, b) for a in range(len(samples)) for b in range(a + 1, len(samples))]
    test_jobs = jobs if len(pairs) == 1 else 1
    entry = partial(_pair_entry, samples, labels, pairs, spec, m, seed, levels, test_jobs)
    entries = run_units(entry, len(pairs), jobs)
    return Dependogram(labels=labels, levels=levels, entries=entries)
