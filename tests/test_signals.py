"""Proxy and frustration-score behavior, including hand-derived values."""

from __future__ import annotations

import random

import pytest

from apemo.signals import (
    ProxyVector,
    SignalConfig,
    TextDigest,
    compute_proxies,
    context_drift,
    frustration_score,
    jaccard,
    length_anomaly,
    ngram_set,
    repetition_similarity,
    tokenize,
)


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("Plan, the Route!") == ["plan", "the", "route"]


def test_ngram_set_bigrams():
    assert ngram_set(["a", "b", "c"], 2) == {("a", "b"), ("b", "c")}


def test_ngram_set_rejects_zero_order():
    with pytest.raises(ValueError):
        ngram_set(["a"], 0)


def test_repetition_identical_text_is_one():
    d = TextDigest.from_text("the same answer again", order=2)
    assert repetition_similarity(d, [d]) == 1.0


def test_repetition_empty_history_is_zero():
    d = TextDigest.from_text("anything at all", order=2)
    assert repetition_similarity(d, []) == 0.0


def test_repetition_hand_enumerated_bigrams():
    # current {"a b","b c","c d"} vs history {"a b","b x","x y"}: 1 shared of 5
    current = TextDigest.from_text("a b c d", order=2)
    past = TextDigest.from_text("a b x y", order=2)
    assert repetition_similarity(current, [past]) == pytest.approx(0.2)


def test_repetition_is_symmetric_and_one_iff_sets_match():
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(200):
        a = TextDigest.from_tokens([rng.choice(vocab) for _ in range(rng.randint(2, 14))], 2)
        b = TextDigest.from_tokens([rng.choice(vocab) for _ in range(rng.randint(2, 14))], 2)
        ab = repetition_similarity(a, [b])
        ba = repetition_similarity(b, [a])
        assert ab == ba
        assert (ab == 1.0) == (a.ngrams == b.ngrams)


def test_drift_verbatim_task_is_zero():
    task = TextDigest.from_text("plan the route", 2)
    assert context_drift(task, task) == 0.0


def test_drift_disjoint_tokens_is_one():
    task = TextDigest.from_text("plan the route", 2)
    out = TextDigest.from_text("xxx yyy zzz", 2)
    assert context_drift(out, task) == 1.0


def test_drift_overlap_coefficient():
    # |{route, cost}| / min(3, 5) = 2/3
    task = TextDigest.from_tokens(["plan", "route", "cost"], 2)
    out = TextDigest.from_tokens(["route", "cost", "x", "y", "z"], 2)
    assert context_drift(out, task) == pytest.approx(1.0 - 2.0 / 3.0)


def test_drift_rejects_empty_task():
    with pytest.raises(ValueError):
        context_drift(TextDigest.from_text("hi", 2), TextDigest.from_tokens((), 2))


def test_drift_empty_output_is_max():
    assert context_drift(TextDigest.from_tokens((), 2), TextDigest.from_text("plan route", 2)) == 1.0


def test_length_anomaly_against_median():
    assert length_anomaly(30, [30, 30, 30]) == 0.0
    assert length_anomaly(45, [30, 30, 30]) == pytest.approx(0.5)
    assert length_anomaly(200, [30]) == 1.0  # clamped
    assert length_anomaly(10, []) == 0.0


def test_frustration_zero_proxies_zero_score():
    cfg = SignalConfig()
    p = ProxyVector(0.0, 0.0, 0.0)
    assert frustration_score(p, cfg, prev=None) == 0.0


def test_frustration_dot_product():
    cfg = SignalConfig(proxy_weights=(0.5, 0.4, 0.1))
    p = ProxyVector(0.6, 0.3, 0.0)
    assert frustration_score(p, cfg, prev=None) == pytest.approx(0.42)


def test_frustration_smoothing_arithmetic():
    # raw 0.4, prev 0.8, smoothing 0.5 -> 0.6
    cfg = SignalConfig(proxy_weights=(1.0, 0.0, 0.0), smoothing=0.5)
    p = ProxyVector(0.4, 0.0, 0.0)
    assert frustration_score(p, cfg, prev=0.8) == pytest.approx(0.6)


def test_frustration_smoothing_zero_ignores_prev():
    cfg = SignalConfig(smoothing=0.0)
    p = ProxyVector(0.3, 0.3, 0.3)
    assert frustration_score(p, cfg, prev=0.9) == frustration_score(p, cfg, prev=None)


def test_frustration_monotone_in_each_proxy():
    cfg = SignalConfig()
    rng = random.Random(11)
    for _ in range(300):
        base = [rng.random() for _ in range(3)]
        bumped = list(base)
        i = rng.randrange(3)
        bumped[i] = min(1.0, base[i] + rng.random() * (1 - base[i]))
        prev = rng.random()
        low = frustration_score(ProxyVector(*base), cfg, prev)
        high = frustration_score(ProxyVector(*bumped), cfg, prev)
        assert high >= low - 1e-12


def test_all_signals_bounded_fuzz():
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(30)]
    cfg = SignalConfig()
    task = TextDigest.from_tokens(["plan", "route", "cost", "risk"], 2)
    history: list[TextDigest] = []
    prev = None
    for _ in range(500):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
        d = TextDigest.from_tokens(tokens, 2)
        p = compute_proxies(d, history, task)
        for value in (p.repetition_similarity, p.context_drift, p.length_anomaly):
            assert 0.0 <= value <= 1.0
        score = frustration_score(p, cfg, prev)
        assert 0.0 <= score <= 1.0
        prev = score
        history.append(d)


def test_signal_config_validation():
    with pytest.raises(ValueError):
        SignalConfig(proxy_weights=(0.5, 0.4, 0.2))  # sums to 1.1
    with pytest.raises(ValueError):
        SignalConfig(smoothing=1.0)
    with pytest.raises(ValueError):
        SignalConfig(ngram_order=0)


def test_jaccard_empty_sets_identical():
    assert jaccard(frozenset(), frozenset()) == 1.0


def _ngram_reference(tokens, order):
    return frozenset(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def test_ngram_set_matches_slice_join_reference():
    # tuples of consecutive tokens, so int ids and tokens with spaces never collide
    rng = random.Random(7)
    vocab = ["a", "b", "c", "plan", "route", "x y", 7, 1_000_007]
    for order in range(1, 5):
        assert ngram_set([], order) == frozenset()
        for n in range(0, 12):
            tokens = [rng.choice(vocab) for _ in range(n)]
            assert ngram_set(tokens, order) == _ngram_reference(tokens, order)
            assert ngram_set(tuple(tokens), order) == _ngram_reference(tokens, order)
    assert ngram_set(["a", "b"], 3) == frozenset()


def test_jaccard_matches_union_definition():
    rng = random.Random(11)
    for _ in range(300):
        a = frozenset(rng.sample(range(20), rng.randint(0, 10)))
        b = frozenset(rng.sample(range(20), rng.randint(0, 10)))
        expected = 1.0 if not (a | b) else len(a & b) / len(a | b)
        assert jaccard(a, b) == expected
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({"a b"}), frozenset()) == 0.0
    assert jaccard(frozenset(), frozenset({"a b"})) == 0.0
