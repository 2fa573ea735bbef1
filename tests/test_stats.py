"""Pairing, bootstrap intervals, and the exact sign test against oracles."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from apemo import stats
from apemo.abm import AbmConfig
from apemo.benchmark import BlockConfig, RuntimeSettings, run_block
from apemo.scheduler import PolicyKind
from apemo.stats import (
    DeltaReport,
    block_report,
    bootstrap_ci,
    format_block_table,
    metric_deltas,
    pair_runs,
    sign_test,
)


def records_for(policies, seeds=range(1, 6), name="statsblock"):
    block = BlockConfig(
        name=name,
        executor="abm",
        models=("abm-a",),
        horizon=4,
        episodes=1,
        budget_cap=600,
        policies=tuple(policies),
        seeds=tuple(seeds),
        abm=AbmConfig(noise_sd=0.1),
    )
    return run_block(block, RuntimeSettings())


# ------------------------------------------------------------------ pairing


def test_pair_runs_self_pairing_gives_zero_deltas():
    records = records_for([PolicyKind.APEMO])
    pairing = pair_runs(records, records)
    assert pairing.n == len(records)
    assert metric_deltas(pairing, "mean_quality") == [0.0] * pairing.n


def test_pair_runs_subtraction():
    records = records_for([PolicyKind.APEMO, PolicyKind.UNIFORM])
    apemo = [r for r in records if r.policy == "apemo"]
    base = [r for r in records if r.policy == "uniform"]
    pairing = pair_runs(apemo, base)
    deltas = metric_deltas(pairing, "mean_quality")
    for (a, b), d in zip(pairing.pairs, deltas):
        assert d == pytest.approx(a.mean_quality - b.mean_quality)


def test_pair_runs_reports_orphans():
    records = records_for([PolicyKind.APEMO, PolicyKind.UNIFORM])
    apemo = [r for r in records if r.policy == "apemo"]
    base = [r for r in records if r.policy == "uniform"][:-1]  # one seed missing
    pairing = pair_runs(apemo, base)
    assert pairing.n == len(apemo) - 1
    assert len(pairing.orphans) == 1


def test_pair_runs_zero_matches_is_error():
    a = records_for([PolicyKind.APEMO], seeds=(1, 2))
    b = records_for([PolicyKind.UNIFORM], seeds=(7, 8))
    with pytest.raises(ValueError):
        pair_runs(a, b)


# ----------------------------------------------------------------- bootstrap


def test_bootstrap_constant_samples_degenerate():
    assert bootstrap_ci([0.3] * 20, resamples=2000, seed=1) == (0.3, 0.3)


def test_bootstrap_balanced_binary_matches_frozen_oracle():
    # frozen from a one-off 1,000,000-resample run: (0.400000, 0.600000)
    samples = [0.0] * 50 + [1.0] * 50
    low, high = bootstrap_ci(samples, resamples=10_000, seed=0)
    assert low == pytest.approx(0.40, abs=0.015)
    assert high == pytest.approx(0.60, abs=0.015)
    assert 0.38 <= low and high <= 0.62
    assert low < 0.5 < high


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(5)
    samples = rng.normal(size=40).tolist()
    a = bootstrap_ci(samples, resamples=5000, seed=9)
    b = bootstrap_ci(samples, resamples=5000, seed=9)
    c = bootstrap_ci(samples, resamples=5000, seed=10)
    assert a == b
    assert a != c


def test_bootstrap_interval_shrinks_with_n():
    rng = np.random.default_rng(17)
    draws = rng.normal(size=400)
    lo_small, hi_small = bootstrap_ci(draws[:25].tolist(), resamples=4000, seed=2)
    lo_big, hi_big = bootstrap_ci(draws.tolist(), resamples=4000, seed=2)
    assert (hi_big - lo_big) < (hi_small - lo_small)


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], resamples=1000)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], resamples=0)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0], coverage=1.0)


def definition_ci(row, resamples, coverages, seed, draw_elements=10_000_000):
    """bootstrap_ci by its definition: ``x[idx].sum(axis=1) / n`` on a fresh
    seeded draw, chunked as ``_index_chunks`` draws it, then np.quantile."""
    x = np.asarray(row, dtype=float)
    n = len(x)
    if np.all(x == x[0]):
        return [(float(x[0]), float(x[0]))] * len(coverages)
    rng = np.random.default_rng(seed)
    chunk = max(1, min(resamples, draw_elements // n))
    means = np.concatenate([
        x[rng.integers(0, n, size=(min(chunk, resamples - done), n))].sum(axis=1) / n
        for done in range(0, resamples, chunk)
    ])
    return [tuple(np.quantile(means, [(1 - c) / 2, 1 - (1 - c) / 2], method="linear"))
            for c in coverages]


def assert_same_interval(got, expected, where):
    got, expected = np.array(got), np.array(expected)
    # a NaN's sign bit depends on sort versus partition, so NaN is only required to be NaN
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan), where
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64)), where


def stacked_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(5, n)) * np.array([[1e-3], [1.0], [30.0], [1.0], [0.2]])
    rows[1] = np.round(rows[1], 2)
    rows[2] = 0.125  # a constant row in the middle of the stack
    return rows.tolist()


@pytest.mark.parametrize("n", [2, 7, 8, 9, 17, 30, 129, 257])
@pytest.mark.parametrize("resamples", [4097, 10_000])
def test_bootstrap_stack_rows_equal_one_vector_calls(n, resamples):
    rows = stacked_rows(n, seed=n)
    got = bootstrap_ci(rows, resamples=resamples, seed=1234)
    assert isinstance(got, list) and len(got) == len(rows)
    for row, interval in zip(rows, got):
        (expected,) = definition_ci(row, resamples, [0.95], 1234)
        assert interval == expected  # exact, not approx
        assert bootstrap_ci(row, resamples=resamples, seed=1234) == expected
    assert got[2] == (0.125, 0.125)


def test_bootstrap_stack_multi_chunk_path(monkeypatch):
    # 50 elements per draw gives n=7 a 7-resample chunk: 143 draws for 1001 resamples;
    # 4 live rows of 7 samples in 100 elements: the exact pass gathers at most 3
    # resamples a block, the float32 screen 7
    monkeypatch.setattr(stats, "_DRAW_ELEMENTS", 50)
    monkeypatch.setattr(stats, "_GATHER_ELEMENTS", 100)
    rows = stacked_rows(7, seed=3)
    got = bootstrap_ci(rows, resamples=1001, seed=9)
    for row, interval in zip(rows, got):
        assert [interval] == definition_ci(row, 1001, [0.95], 9, draw_elements=50)


def fuzz_rows(n, rng):
    """Named sample rows whose resample sums stress the summation order."""
    normal = rng.normal(size=n)
    heavy_neg_zero = normal.copy()
    heavy_neg_zero[rng.random(n) < 0.6] = -0.0
    with_inf = normal.copy()
    with_inf[rng.integers(n)] = np.inf
    return {
        "normal": normal,
        "scaled 1e12": normal * 1e12,
        "scaled 1e-12": normal * 1e-12,
        "heavy in -0.0": heavy_neg_zero,
        "all +-0.0": np.where(rng.random(n) < 0.5, -0.0, 0.0),
        "one +inf": with_inf,
    }


@pytest.mark.parametrize(
    "n", [*range(1, 41), 64, 127, 128, 129, 136, 255, 256, 257, 1000, 1031]
)
def test_pairwise_sum_matches_numpy_mean_bit_for_bit(n):
    rng = np.random.default_rng(n)
    idx = rng.integers(0, n, size=(64, n))
    for kind, x in fuzz_rows(n, rng).items():
        expected = x[idx].mean(axis=1)
        got = (stats._pairwise_sum(x[idx.T]) + 0.0) / n
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (
            f"{kind} row, n={n}: summation order differs from numpy {np.__version__}"
        )


def percentile_rows(n, rng):
    """Named sample rows whose resample means stress the interval ends."""
    normal = rng.normal(size=n)
    one_inf = normal.copy()
    one_inf[rng.integers(n)] = np.inf
    both_inf = normal.copy()
    both_inf[:2] = np.inf, -np.inf
    return {
        "normal": normal,
        "scaled 1e12": normal * 1e12,
        "scaled 1e-12": normal * 1e-12,
        "rounded to 0.1": np.round(normal, 1),  # equal means: ties at the ranks
        "one +inf": one_inf,
        "+inf and -inf": both_inf,
    }


RANDOM_COVERAGE = float(np.random.default_rng(24).uniform(0.01, 0.99))
TOP_COVERAGE = 1.0 - 2.0**-53  # 1 - alpha rounds to 1.0: the upper rank is the last mean


@pytest.mark.parametrize("coverage", [0.5, 0.8, 0.95, 0.99, RANDOM_COVERAGE, TOP_COVERAGE])
@pytest.mark.parametrize("resamples", [1, 2, 3, 4097, 10_000])
def test_bootstrap_interval_ends_match_numpy_quantile_bit_for_bit(resamples, coverage):
    named = percentile_rows(30, np.random.default_rng(resamples))
    with np.errstate(invalid="ignore"):  # +inf + -inf in a resample sum is NaN, as meant
        got = bootstrap_ci(list(named.values()), resamples=resamples, coverage=coverage, seed=5)
        expected_ends = [definition_ci(row, resamples, [coverage], 5)[0] for row in named.values()]
    for kind, interval, expected in zip(named, got, expected_ends):
        assert_same_interval(interval, expected, (
            f"{kind} row, resamples={resamples}, coverage={coverage}: interval {interval} "
            f"is not np.quantile's {tuple(expected)} in numpy {np.__version__}"))


def adversarial_rows(n, rng):
    """Named rows that stress the float32 screen: its scaling, its error
    bound, ties at the ranks read, and the rows it must leave to the exact pass."""
    normal = rng.normal(size=n)
    peak = np.abs(normal).max()

    def planted(*values):
        row = normal.copy()
        row[rng.choice(n, size=len(values), replace=False)] = values
        return row

    return {
        "scaled 1e-300": normal * 1e-300,
        "scaled 1e300": normal * 1e300,
        "subnormal": rng.integers(-40, 41, n) * 5e-324,
        "subnormal and 1e-307": np.where(rng.random(n) < 0.5, rng.integers(-9, 10, n) * 5e-324,
                                         normal * 1e-307),
        "scales 1e-300 to 1e300": normal * 10.0 ** rng.uniform(-300, 300, n),
        "scales 1e-6 to 1e6": normal * 10.0 ** rng.integers(-6, 7, n),
        "cost-like halves": rng.integers(-80, 81, n) * 0.5,
        "-1, 0, 1": rng.integers(-1, 2, n).astype(float),
        "90% zeros": np.where(rng.random(n) < 0.9, 0.0, normal),
        "one NaN": planted(np.nan),
        "one +inf": planted(np.inf),
        "+inf and -inf": planted(np.inf, -np.inf),
        "float64 sums overflow": np.sign(normal) * rng.uniform(0.5, 1.0, n) * np.finfo(float).max,
        # a pairwise partial sum can overflow where the whole sum would not
        "float64 partial sums overflow": (np.where(rng.random(n) < 0.5, 0.6, -0.05)
                                          * rng.uniform(0.5, 1.0, n) * np.finfo(float).max),
        # peak = 1.9 * 2**e at the edge of the overflow check n * 2**(e+1) <= 2**1023
        "n * 2**(e+1) below 2**1023": normal / peak * 1.9 * 2.0 ** (1022 - n.bit_length()),
        "n * 2**(e+1) past 2**1023": normal / peak * 1.9 * 2.0 ** (1023 - (n - 1).bit_length()),
    }


FUZZ_COVERAGES = (0.5, 0.95, 0.999)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 30, 129, 300])
def test_bootstrap_equals_its_definition_on_adversarial_rows_fuzz(n):
    named = adversarial_rows(n, np.random.default_rng(n))
    rows = list(named.values())
    for resamples in (1, 7, 1000, 10_000):
        seed = 31 * n + resamples
        shared: dict = {}
        with np.errstate(all="ignore"):  # overflow, inf - inf and NaN are meant here
            expected = [definition_ci(row, resamples, FUZZ_COVERAGES, seed) for row in rows]
            for c, coverage in enumerate(FUZZ_COVERAGES):
                stacked = bootstrap_ci(rows, resamples=resamples, coverage=coverage, seed=seed)
                reused = bootstrap_ci(rows, resamples=resamples, coverage=coverage, seed=seed,
                                      draws=shared)
                for r, kind in enumerate(named):
                    where = (f"{kind} row, n={n}, resamples={resamples}, coverage={coverage}, "
                             f"numpy {np.__version__}")
                    alone = bootstrap_ci(rows[r], resamples=resamples, coverage=coverage,
                                         seed=seed, draws=shared)
                    for got in (stacked[r], reused[r], alone):
                        assert_same_interval(got, expected[r][c], where)
                    if c == 0:
                        fresh = bootstrap_ci(rows[r], resamples=resamples, coverage=coverage,
                                             seed=seed)
                        assert_same_interval(fresh, expected[r][c], where)


def test_bootstrap_streamed_draw_equals_its_definition(monkeypatch):
    # 1,000 indices a chunk give n=30 a 33-resample chunk: 31 chunks, streamed twice
    monkeypatch.setattr(stats, "_DRAW_ELEMENTS", 1000)
    named = adversarial_rows(30, np.random.default_rng(77))
    rows = list(named.values())
    shared: dict = {}
    with np.errstate(all="ignore"):
        expected = [definition_ci(row, 1000, FUZZ_COVERAGES, 8, draw_elements=1000)
                    for row in rows]
        for c, coverage in enumerate(FUZZ_COVERAGES):
            got = bootstrap_ci(rows, resamples=1000, coverage=coverage, seed=8, draws=shared)
            for r, kind in enumerate(named):
                assert_same_interval(got[r], expected[r][c], f"{kind} row, coverage={coverage}")
    assert shared == {}  # a streamed draw is not kept


def test_bootstrap_rows_past_the_screen_limit_equal_their_definition():
    # at n = 9,000 the screen's bound passes its limit, so the row is summed exactly throughout
    n = 9000
    assert stats._screen_bounds(n, np.zeros(1, dtype=int))[0] > n * stats._SCREEN_LIMIT
    row = np.random.default_rng(3).normal(size=n)
    (expected,) = definition_ci(row, 40, [0.9], seed=2)
    assert_same_interval(bootstrap_ci(row, resamples=40, coverage=0.9, seed=2), expected, "n=9000")


def test_bootstrap_stack_rejects_ragged_and_empty_rows():
    with pytest.raises(ValueError):
        bootstrap_ci([[0.1, 0.2, 0.3], [0.1, 0.2]], resamples=100)
    with pytest.raises(ValueError):
        bootstrap_ci([[], []], resamples=100)
    with pytest.raises(ValueError):
        bootstrap_ci(np.empty((0, 4)), resamples=100)
    with pytest.raises(ValueError):
        bootstrap_ci(np.ones((2, 2, 2)), resamples=100)


# ----------------------------------------------------------------- sign test


def test_sign_test_five_wins_exact():
    result = sign_test([1.0, 0.5, 0.2, 0.1, 0.3])
    assert result.p_value == 0.0625  # 2 * (1/32), exactly representable
    assert result.wins == 5 and result.losses == 0


def test_sign_test_balanced_capped_at_one():
    deltas = [1.0] * 10 + [-1.0] * 10
    assert sign_test(deltas).p_value == 1.0


def test_sign_test_nineteen_of_twenty():
    # two-sided value for 19 wins, 1 loss is exactly 42/2^20 (~4.01e-5)
    deltas = [1.0] * 19 + [-1.0]
    result = sign_test(deltas)
    assert result.p_value == pytest.approx(42 / 2**20, abs=1e-12)
    assert result.p_value == pytest.approx(4.01e-5, abs=1e-7)


def test_sign_test_excludes_ties():
    result = sign_test([1.0, -1.0, 0.0, 0.0])
    assert result.ties == 2
    assert result.wins == 1 and result.losses == 1
    assert result.p_value == 1.0


def test_sign_test_all_ties_degenerate():
    result = sign_test([0.0, 0.0, 0.0])
    assert result.p_value == 1.0
    assert result.degenerate


def test_sign_test_matches_enumeration_for_small_n():
    # oracle: direct binomial pmf summation for every win count at n <= 12
    for n in range(1, 13):
        for wins in range(n + 1):
            deltas = [1.0] * wins + [-1.0] * (n - wins)
            expected_low = sum(comb(n, i) for i in range(0, wins + 1)) / 2**n
            expected_high = sum(comb(n, i) for i in range(wins, n + 1)) / 2**n
            expected = min(1.0, 2 * min(expected_low, expected_high))
            assert sign_test(deltas).p_value == pytest.approx(expected, abs=1e-15)


def test_sign_test_empty_is_error():
    with pytest.raises(ValueError):
        sign_test([])


# -------------------------------------------------------------- block report


def test_block_report_self_comparison_is_null():
    records = records_for([PolicyKind.APEMO])
    report = block_report(
        records, baselines=["apemo"], metrics=["mean_quality", "reuse_probability"],
        target="apemo", resamples=2000, stats_seed=3,
    )
    for row in report.rows:
        assert row.mean_delta == 0.0
        assert row.sign_p == 1.0
        assert row.degenerate


def test_block_report_rows_and_ci_ordering():
    records = records_for(
        [PolicyKind.APEMO, PolicyKind.TASK_PEAK_END, PolicyKind.TASK_AFFECT],
        seeds=range(1, 9),
    )
    report = block_report(
        records,
        baselines=["task_peak_end", "task_affect"],
        metrics=["mean_quality", "reuse_probability", "avg_frustration"],
        resamples=2000,
        stats_seed=11,
    )
    assert len(report.rows) == 6  # 2 baselines x 3 metrics
    for row in report.rows:
        assert row.ci_low <= row.ci_high
        assert row.n == 8
    assert report.gate == 1.0
    assert not report.directional_only
    table = format_block_table(report)
    assert "task_peak_end" in table and "mean_quality" in table


def test_block_report_draws_once_per_pair_count(monkeypatch):
    records = records_for(
        [PolicyKind.APEMO, PolicyKind.TASK_PEAK_END, PolicyKind.UNIFORM], seeds=range(1, 7)
    )
    metrics = ["mean_quality", "total_cost", "avg_frustration"]
    calls = []

    def counting(samples, **kwargs):
        calls.append(len(samples))
        return bootstrap_ci(samples, **kwargs)

    monkeypatch.setattr(stats, "bootstrap_ci", counting)
    full = block_report(records, ["task_peak_end", "uniform"], metrics,
                        resamples=1000, stats_seed=4)
    assert calls == [2 * len(metrics)]
    # uniform without seed 6 leaves an orphan: 5 pairs against 6, so two draws
    calls.clear()
    orphaned = [r for r in records if (r.policy, r.seed) != ("uniform", 6)]
    partial = block_report(orphaned, ["task_peak_end", "uniform"], metrics,
                           resamples=1000, stats_seed=4)
    assert calls == [len(metrics), len(metrics)]
    assert [row.n for row in partial.rows] == [6] * len(metrics) + [5] * len(metrics)
    for report, block_records in ((full, records), (partial, orphaned)):
        for row in report.rows:
            pairing = pair_runs(
                [r for r in block_records if r.policy == "apemo"],
                [r for r in block_records if r.policy == row.baseline],
            )
            deltas = metric_deltas(pairing, row.metric)
            assert (row.ci_low, row.ci_high) == bootstrap_ci(deltas, resamples=1000, seed=4)


def test_report_draws_kept_total_at_most_one_chunk(monkeypatch):
    # each draw fits in one chunk alone, 6 x 1000 and 5 x 1000 indices, but not both
    monkeypatch.setattr(stats, "_DRAW_ELEMENTS", 6000)
    blocks = [records_for([PolicyKind.APEMO, PolicyKind.UNIFORM], seeds=range(1, pairs + 1))
              for pairs in (6, 5, 6, 5)]
    drawn = []
    real_chunks = stats._index_chunks

    def counted(n, resamples, seed):
        drawn.append(n)
        return real_chunks(n, resamples, seed)

    monkeypatch.setattr(stats, "_index_chunks", counted)
    draws: dict = {}
    shared = [block_report(records, ["uniform"], ["mean_quality", "total_cost"],
                           resamples=1000, stats_seed=4, draws=draws) for records in blocks]
    assert list(draws) == [(6, 1000, 4)]  # the 5-pair draw would pass one chunk in total
    assert drawn == [6, 5, 5]
    for records, report in zip(blocks, shared):
        alone = block_report(records, ["uniform"], ["mean_quality", "total_cost"],
                             resamples=1000, stats_seed=4)
        assert [row.to_dict() for row in report.rows] == [row.to_dict() for row in alone.rows]


def test_block_report_gate_annotation():
    records = records_for([PolicyKind.APEMO, PolicyKind.UNIFORM], seeds=range(1, 5))
    flipped = []
    for i, r in enumerate(records):
        d = r.to_dict()
        d["fallback"] = i == 0
        from apemo.benchmark import RunRecord

        flipped.append(RunRecord.from_dict(d))
    report = block_report(
        flipped, baselines=["uniform"], metrics=["mean_quality"],
        resamples=1000, stats_seed=1,
    )
    assert report.gate < 1.0
    assert report.directional_only
    assert "directional evidence" in format_block_table(report)


def test_block_report_order_invariant_to_input_order():
    records = records_for([PolicyKind.APEMO, PolicyKind.UNIFORM], seeds=range(1, 7))
    report_a = block_report(records, ["uniform"], ["mean_quality"], resamples=2000, stats_seed=5)
    report_b = block_report(list(reversed(records)), ["uniform"], ["mean_quality"],
                            resamples=2000, stats_seed=5)
    assert [r.to_dict() for r in report_a.rows] == [r.to_dict() for r in report_b.rows]


def test_delta_report_rejects_inverted_interval():
    with pytest.raises(ValueError):
        DeltaReport(metric="m", baseline="b", mean_delta=0.0,
                    ci_low=0.5, ci_high=0.1, sign_p=1.0, n=3)


def test_metric_deltas_rejects_unknown_metric():
    records = records_for([PolicyKind.APEMO])
    pairing = pair_runs(records, records)
    with pytest.raises(ValueError):
        metric_deltas(pairing, "episode_quality_row")  # episode-level access is not a thing
