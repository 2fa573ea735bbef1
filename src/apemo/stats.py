"""Run-level statistics: paired deltas, bootstrap CIs, exact sign tests.

Everything here consumes run-level records only; episode rows never reach
the statistics, which keeps runs the unit of analysis. Resampling is seeded
and chunked so results replay exactly regardless of machine. A report draws
its resample indices once per pair count, for every block it compares,
while the draws it keeps fit in one chunk, and resample means are summed in numpy's pairwise order, so each interval
equals the one a separate call on its row alone returns. The interval ends
are read from one sort of the resample means at the ranks of numpy's
"linear" quantile, with its interpolation, so they equal ``np.quantile``'s
bits. numpy loads at the first ``bootstrap_ci`` or ``block_report`` call,
not at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .benchmark import RunRecord, no_fallback_rate

if TYPE_CHECKING:
    import numpy as np

REPORT_METRICS = (
    "mean_quality",
    "peak_end_quality",
    "endpoint_quality",
    "reuse_probability",
    "reuse_per_cost",
    "avg_frustration",
    "total_cost",
)
TRAP_METRICS = ("trap_quality_drop", "trap_quality_rebound2", "trap_frustration_drop2")
PAIR_METRICS = REPORT_METRICS + TRAP_METRICS


@dataclass(frozen=True)
class DeltaReport:
    """One metric's paired delta row: target minus baseline over matched runs."""

    metric: str
    baseline: str
    mean_delta: float
    ci_low: float
    ci_high: float
    sign_p: float
    n: int
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.ci_low > self.ci_high:
            raise ValueError(f"ci_low {self.ci_low} above ci_high {self.ci_high}")

    def to_dict(self) -> dict:
        # every field is flat, so a shallow copy serializes exactly like asdict
        return dict(vars(self))


@dataclass(frozen=True)
class Pairing:
    """Matched target/baseline run pairs plus anything that failed to match."""

    pairs: tuple[tuple[RunRecord, RunRecord], ...]
    orphans: tuple[RunRecord, ...]

    @property
    def n(self) -> int:
        return len(self.pairs)


def pair_key(record: RunRecord) -> tuple:
    """What pair_runs matches runs on: (model, seed, horizon, episode count)."""
    return (record.model_id, record.seed, record.horizon, record.episodes)


def pair_runs(
    target_records: Sequence[RunRecord], baseline_records: Sequence[RunRecord]
) -> Pairing:
    """Match runs exactly on (model, seed, horizon, episode count).

    Unmatched records on either side are returned as orphans, never dropped
    silently. Zero matches is an error.
    """
    baseline_by_key = {pair_key(r): r for r in baseline_records}
    pairs = []
    orphans = []
    matched_keys = set()
    for rec in sorted(target_records, key=pair_key):
        key = pair_key(rec)
        other = baseline_by_key.get(key)
        if other is None:
            orphans.append(rec)
        else:
            pairs.append((rec, other))
            matched_keys.add(key)
    orphans.extend(
        r for r in sorted(baseline_records, key=pair_key) if pair_key(r) not in matched_keys
    )
    if not pairs:
        raise ValueError("no matched run pairs between target and baseline records")
    return Pairing(pairs=tuple(pairs), orphans=tuple(orphans))


def metric_deltas(pairing: Pairing, metric: str) -> list[float]:
    """Per-pair target-minus-baseline values for one metric."""
    if metric not in PAIR_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {PAIR_METRICS}")
    deltas = []
    for target, baseline in pairing.pairs:
        a = getattr(target, metric)
        b = getattr(baseline, metric)
        if a is None or b is None:
            raise ValueError(f"metric {metric!r} missing on a paired record")
        deltas.append(a - b)
    return deltas


# Largest resample-index matrix drawn at once (elements); bounds draw memory.
_DRAW_ELEMENTS = 10_000_000
# Largest gathered block, n samples x resamples x rows (elements); bounds its copy.
_GATHER_ELEMENTS = 65_536


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's pairwise summation adds one row.

    ``x[idx].sum(axis=1)`` sums each resample along a contiguous axis with
    numpy's pairwise loop: 8 partial sums over spans of at most 128, combined
    as ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))`` with the rest added after,
    and a split at ``n//2`` rounded down to a multiple of 8 above that. Doing
    the same adds on whole slices of ``x[idx.T]`` gives the same bits for
    every resample at once. The caller adds the reduction's ``+0.0`` start.
    """
    n = x.shape[0]
    if n < 8:
        res = x[0].copy()
        for i in range(1, n):
            res += x[i]
        return res
    if n <= 128:
        r = x[:8].copy()
        whole = n - n % 8
        for i in range(8, whole, 8):
            r += x[i : i + 8]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(whole, n):
            res += x[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


def _index_chunks(n: int, resamples: int, seed: int) -> Iterator[np.ndarray]:
    """The resample indices of one seeded draw, as transposed ``(n, take)``
    chunks of at most ``_DRAW_ELEMENTS`` indices, in draw order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    chunk = max(1, min(resamples, _DRAW_ELEMENTS // n))
    for done in range(0, resamples, chunk):
        yield rng.integers(0, n, size=(min(chunk, resamples - done), n)).T


def bootstrap_ci(
    samples: Sequence[float] | Sequence[Sequence[float]],
    resamples: int = 10_000,
    coverage: float = 0.95,
    seed: int = 0,
    draws: Optional[dict] = None,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Percentile bootstrap interval of the mean, deterministic per seed.

    ``samples`` is one vector ``(n,)`` or a stack of equal-length rows
    ``(k, n)``. Resample indices are drawn in fixed-size chunks from a single
    seeded generator, and every row is gathered from the same draw. Each
    resample mean is summed in numpy's pairwise order (``_pairwise_sum``),
    so each row's interval equals the one a 1-D call on that row returns, bit
    for bit, and neither depends on parallelism. Every row's means are sorted
    in place at once, and both ends are interpolated between the order
    statistics numpy's "linear" quantile picks, with its arithmetic: a mean
    is never -0.0, so the sort holds the same values at those ranks as the
    partition inside ``np.quantile``, and the ends equal its bits (a row whose
    means hold a NaN gives NaN). A vector gives ``(low, high)``; a stack gives
    one ``(low, high)`` per row.

    ``draws`` is a dict the caller owns for the span of one report: a draw
    is kept there under ``(n, resamples, seed)`` while the indices kept in it
    total at most one chunk, ``_DRAW_ELEMENTS``, and a later call with that
    key gathers from it instead of drawing the same indices again. A draw
    that would pass that total is streamed chunk by chunk and not kept.
    """
    import numpy as np

    arr = np.asarray(samples, dtype=float)  # ragged rows raise ValueError here
    if arr.ndim not in (1, 2):
        raise ValueError(f"bootstrap_ci takes a vector or a stack of rows, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    rows = arr.reshape(-1, arr.shape[-1])
    n = rows.shape[1]
    intervals: list = [None] * len(rows)
    live = []
    for i, row in enumerate(rows):
        if np.all(row == row[0]):
            # resampling a constant is the constant; skip the FP summation noise
            intervals[i] = (float(row[0]), float(row[0]))
        else:
            live.append(i)
    if live:
        key = (n, resamples, seed)
        chunks = draws.get(key) if draws is not None else None
        if chunks is None:
            chunks = _index_chunks(n, resamples, seed)
            kept = sum(size * count for size, count, _ in draws) if draws is not None else 0
            if draws is not None and kept + resamples * n <= _DRAW_ELEMENTS:
                chunks = draws[key] = list(chunks)  # the whole draw is one chunk
        # one resample index picks one row of this table: every live sample at it
        table = np.ascontiguousarray(rows[live].T)
        step = max(1, _GATHER_ELEMENTS // table.size)
        means = np.empty((len(live), resamples), dtype=float)
        done = 0
        for cols in chunks:
            take = cols.shape[1]
            for lo in range(0, take, step):
                hi = min(lo + step, take)
                block = np.take(table, cols[:, lo:hi], axis=0)  # (n, hi - lo, live)
                # + 0.0 is the reduction's start: numpy's sum of zeros is +0.0
                means[:, done + lo : done + hi] = ((_pairwise_sum(block) + 0.0) / n).T
            done += take
        alpha = (1.0 - coverage) / 2.0
        means.sort(axis=1)
        # numpy's "linear" quantile (Hyndman & Fan type 7), step for step, at both ends
        virtual = (resamples - 1) * np.array([alpha, 1.0 - alpha])
        below = np.floor(virtual)
        above = below + 1
        top = virtual >= resamples - 1
        below[top] = above[top] = -1
        gamma = virtual - below
        low, high = means[:, below.astype(np.intp)], means[:, above.astype(np.intp)]
        diff = high - low
        ends = np.where(gamma >= 0.5, high - diff * (1 - gamma), low + diff * gamma)
        ends[np.isnan(means[:, -1])] = np.nan  # NaN sorts last; a row holding one gives NaN
        for j, i in enumerate(live):
            intervals[i] = (float(ends[j, 0]), float(ends[j, 1]))
    return intervals[0] if arr.ndim == 1 else intervals


@dataclass(frozen=True)
class SignTestResult:
    p_value: float
    wins: int
    losses: int
    ties: int
    degenerate: bool = False


def sign_test(deltas: Sequence[float]) -> SignTestResult:
    """Exact two-sided binomial sign test; zero deltas are excluded from n.

    p = min(1, 2 * min(P[X <= wins], P[X >= wins])) for X ~ Binomial(n, 1/2).
    All-tie input is degenerate with p = 1.
    """
    if len(deltas) == 0:
        raise ValueError("sign_test needs at least one delta")
    wins = sum(1 for d in deltas if d > 0)
    losses = sum(1 for d in deltas if d < 0)
    ties = len(deltas) - wins - losses
    n = wins + losses
    if n == 0:
        return SignTestResult(p_value=1.0, wins=0, losses=0, ties=ties, degenerate=True)
    denom = 2**n
    tail_low = sum(comb(n, i) for i in range(0, wins + 1)) / denom
    tail_high = sum(comb(n, i) for i in range(wins, n + 1)) / denom
    p = min(1.0, 2.0 * min(tail_low, tail_high))
    return SignTestResult(p_value=p, wins=wins, losses=losses, ties=ties)


@dataclass(frozen=True)
class BlockReport:
    """All delta rows for one block against one or more baselines."""

    block: str
    target: str
    gate: float  # no-fallback rate over every record in the block
    stats_seed: int
    rows: tuple[DeltaReport, ...]
    orphan_keys: tuple[str, ...] = ()

    @property
    def directional_only(self) -> bool:
        return self.gate < 1.0


def block_report(
    records: Sequence[RunRecord],
    baselines: Sequence[str],
    metrics: Sequence[str],
    target: str = "apemo",
    *,
    resamples: int,
    stats_seed: int,
    draws: Optional[dict] = None,
) -> BlockReport:
    """Per-metric delta rows for every (target, baseline) pair in a block.

    Comparisons with equal pair counts share one ``bootstrap_ci`` call. A
    report passes the same ``draws`` dict to every block it compares, so
    resample indices are drawn once per distinct pair count per report
    while the kept draws fit in one chunk (``bootstrap_ci``), and each
    block's rows equal those of a call without it.
    """
    import numpy as np

    if not records:
        raise ValueError("block_report needs at least one record")
    gate = no_fallback_rate(records)
    block_name = records[0].block
    target_records = [r for r in records if r.policy == target]
    if not target_records:
        raise ValueError(f"no records for target policy {target!r} in block {block_name!r}")
    comparisons = []
    orphan_keys: list[str] = []
    for baseline in baselines:
        base_records = [r for r in records if r.policy == baseline]
        if not base_records:
            raise ValueError(f"no records for baseline {baseline!r} in block {block_name!r}")
        pairing = pair_runs(target_records, base_records)
        orphan_keys.extend(
            f"{r.policy}:{r.model_id}/seed={r.seed}/T={r.horizon}" for r in pairing.orphans
        )
        comparisons.append((baseline, pairing.n, [metric_deltas(pairing, m) for m in metrics]))
    # one resample draw per pair count, shared by every metric row of every
    # comparison with that many pairs; the intervals come back in stacking order
    stacks: dict[int, list[list[float]]] = {}
    for _, n, all_deltas in comparisons:
        stacks.setdefault(n, []).extend(all_deltas)
    cis = {
        n: iter(bootstrap_ci(stack, resamples=resamples, seed=stats_seed, draws=draws))
        for n, stack in stacks.items()
        if stack
    }
    rows = []
    for baseline, n, all_deltas in comparisons:
        for metric, deltas in zip(metrics, all_deltas):
            low, high = next(cis[n])
            test = sign_test(deltas)
            rows.append(
                DeltaReport(
                    metric=metric,
                    baseline=baseline,
                    mean_delta=float(np.mean(deltas)),
                    ci_low=low,
                    ci_high=high,
                    sign_p=test.p_value,
                    n=n,
                    degenerate=test.degenerate,
                )
            )
    return BlockReport(
        block=block_name,
        target=target,
        gate=gate,
        stats_seed=stats_seed,
        rows=tuple(rows),
        orphan_keys=tuple(orphan_keys),
    )


def format_block_table(report: BlockReport) -> str:
    """Aligned text table: one row per (baseline, metric) delta with CI and p."""
    lines = []
    title = f"block {report.block}: {report.target} minus baseline (run-level deltas)"
    lines.append(title)
    lines.append(f"no_fallback_rate = {report.gate:.4f}   stats_seed = {report.stats_seed}")
    if report.directional_only:
        lines.append("NOTE: gate below 1.0 -- directional evidence only")
    if report.orphan_keys:
        lines.append("unmatched runs: " + ", ".join(report.orphan_keys))
    lines.append("")
    header = f"{'baseline':<22} {'metric':<22} {'delta':>10} {'95% CI':>24} {'sign p':>12} {'n':>4}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in report.rows:
        ci = f"[{row.ci_low:+.4f}, {row.ci_high:+.4f}]"
        p = f"{row.sign_p:.3g}" + ("*" if row.degenerate else "")
        lines.append(
            f"{row.baseline:<22} {row.metric:<22} {row.mean_delta:>+10.4f} {ci:>24} {p:>12} {row.n:>4}"
        )
    lines.append("")
    return "\n".join(lines)
