"""Permutation-based inference: p-values, critical values, dependograms.

Calibration permutes the second sample against the first.  Each side's
pairwise distances are computed once, and the statistic is prepared once:
permuting rows leaves the X side and the Y-side distance multiset unchanged,
so only the pairing between the two coupled lists differs between
permutations.  The pairings are then evaluated in blocks: row k of the
blocks is permutation k, drawn from a stream that depends only on (seed, k),
and row 0 is the identity, the observed pairing.  The prepared statistic
evaluates each block of permutations at once (``Evaluator.permuted``), and
names the most rows a block should hold (``Evaluator.block_rows``) and the
predicted time of one row (``Evaluator.row_seconds``).  The m + 1 rows are
shared by as many processes as their predicted work, draws included, pays
for (``_block_bounds``): a fork costs a few milliseconds, more than a test
on small or tied samples takes.  They are cut into the fewest blocks,
raised to a multiple of those processes, of sizes that differ by at most
one row.  The blocks are the units of ``_workers.run_units``, so they run
over this process and forked workers, as many blocks in each.  Each row's
statistic is independent of its block, so the result is identical for any
block size and any number of processes.  The plan depends only on the
input sizes and the constants in the source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from math import ceil

import numpy as np

from . import streams
from ._workers import check_jobs, run_units, worker_count
from .exceptions import InvalidInputError, positive_count
from .metrics import ensure_sample, paired_distances
from .stats_core import Evaluator, StatisticSpec, prepare

# The predicted time of drawing one permutation of the observations: its
# stream's generator, which costs about the same at every n up to a few
# hundred (16-17 us at n = 30-100 on a 2-core x86-64 VM).
_DRAW_SECONDS = 16e-6


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
    rows, the observed one first, and a block holds at most the rows the
    prepared statistic names: 2^15 pairs' worth for the absolute and
    supremum functionals on a large grid, 2^14 otherwise, and at least one
    row.  ``jobs`` bounds the processes, this one and forked workers, that
    share the blocks, as many in each (default: every usable CPU;
    ``jobs=1`` starts none).  A test forks only as many workers as its
    predicted work pays for, and none while its rows fit one block.  Each
    process holds one block at a time.  The seed and ``jobs`` are checked
    before any work.  The report, ``perm_stats`` included, is the same for
    every ``jobs``, but for ``elapsed``.
    """
    m = positive_count(m, "permutation count")
    seed = streams.check_seed(seed)
    jobs = check_jobs(jobs)
    start = time.perf_counter()

    pd0 = paired_distances(x, y, spec.metric_x, spec.metric_y)
    n = pd0.n
    if n < 3:
        raise InvalidInputError(f"permutation test needs n >= 3 observations, got {n}")

    evaluate = prepare(pd0, spec.functional)
    identity = np.arange(n)
    bounds, processes = _block_bounds(m + 1, evaluate, jobs)

    def block_stats(b: int) -> np.ndarray:
        """The statistics of block b's rows of the m + 1: row k pairs by
        permutation k, and row 0 by the identity."""
        perms = np.array(
            [
                identity if k == 0 else streams.substream(seed, streams.PERMUTATION, k).permutation(n)
                for k in range(bounds[b], bounds[b + 1])
            ]
        )
        return evaluate.permuted(perms)

    stats = np.concatenate(run_units(block_stats, len(bounds) - 1, processes))
    observed = float(stats[0])
    perm_stats = stats[1:]

    p_value = (1.0 + float(np.count_nonzero(perm_stats >= observed))) / (m + 1)
    return TestReport(
        spec=spec,
        n=n,
        observed=observed,
        p_value=p_value,
        m=m,
        seed=seed,
        perm_stats=perm_stats,
        elapsed=time.perf_counter() - start,
    )


def _block_bounds(rows: int, evaluate: Evaluator, jobs) -> tuple[list[int], int]:
    """The bounds of the blocks in which ``rows`` rows are evaluated, and the
    processes that share them: block b holds rows ``bounds[b] .. bounds[b +
    1] - 1``.  The processes are as many as the rows' predicted work pays
    for (``worker_count(jobs, blocks, seconds)``, with ``_DRAW_SECONDS``
    added to ``evaluate.row_seconds`` per row).  The blocks are the fewest
    of at most ``evaluate.block_rows`` rows, raised to a multiple of the
    processes while there are rows for each, so every process gets as many;
    their sizes differ by at most one row, the larger first.  Rows that fit
    one block make one."""
    blocks = -(-rows // evaluate.block_rows)
    workers = 1
    if blocks > 1:
        workers = worker_count(jobs, blocks, rows * (evaluate.row_seconds + _DRAW_SECONDS))
        blocks = min(rows, -(-blocks // workers) * workers)
    size, larger = divmod(rows, blocks)
    return [b * size + min(b, larger) for b in range(blocks + 1)], workers


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
    streams.check_seed(seed)
    jobs = check_jobs(jobs)
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
