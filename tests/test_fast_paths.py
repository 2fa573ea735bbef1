"""The turn path's fast forms equal the definitions they replace.

Each check runs a seeded stdlib fuzz against a plain reference: the proxy
loops against max/jaccard and statistics.median, the ledger against the
two invariant checks in their original order, negative-peak detection on
the current turn against the definition over whole histories (and its
detect flags against thresholds that no quality or score reaches), the
simulator's cached draws against a fresh Philox per attempt, and the
slotted record types against the frozen-dataclass behaviour callers rely on.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, get_type_hints

import numpy as np
import pytest

from apemo import abm
from apemo.abm import AbmConfig, AbmExecutor, abm_step, uniform_count
from apemo.benchmark import SCHEMA_VERSION, RunRecord
from apemo.executor import TurnContext, TurnOutcome
from apemo.scheduler import (
    BudgetError,
    BudgetLedger,
    DetectionConfig,
    PolicyTraits,
    detect_negative_peak,
)
from apemo.signals import (
    ProxyVector,
    SignalConfig,
    TextDigest,
    frustration_score,
    jaccard,
    length_anomaly,
    repetition_similarity,
)
from apemo.trajectory import TurnRecord


def _random_tokens(rng: random.Random) -> list:
    """Mixed str/int tokens from a small vocabulary, empty about one time in eight."""
    if rng.random() < 0.125:
        return []
    return [
        rng.choice("abcdef") if rng.random() < 0.6 else rng.randrange(8)
        for _ in range(rng.randrange(1, 12))
    ]


def test_repetition_similarity_equals_max_jaccard_fuzz():
    rng = random.Random(20261019)
    for _ in range(3000):
        order = rng.choice((1, 2, 2, 3))
        current = TextDigest.from_tokens(_random_tokens(rng), order)
        history = [
            TextDigest.from_tokens(_random_tokens(rng), order) for _ in range(rng.randrange(6))
        ]
        expected = (
            max(jaccard(current.ngrams, past.ngrams) for past in history) if history else 0.0
        )
        got = repetition_similarity(current, history)
        assert got == expected
        assert type(got) is float


def _reference_length_anomaly(current: int, history: list[int]) -> float:
    if not history:
        return 0.0
    med = statistics.median(history)
    if med <= 0:
        return 1.0 if current > 0 else 0.0
    return min(abs(current - med) / med, 1.0)


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_length_anomaly_equals_statistics_median_fuzz(parity):
    rng = random.Random(f"length|{parity}")
    for _ in range(2000):
        n = rng.randrange(0, 9) * 2 + (1 if parity == "odd" else 2)
        # zeros often, so a zero or half-zero median comes up
        history = [0 if rng.random() < 0.3 else rng.randrange(1, 60) for _ in range(n)]
        current = rng.choice((0, rng.randrange(1, 90)))
        assert length_anomaly(current, history) == _reference_length_anomaly(current, history)
    assert length_anomaly(5, []) == 0.0
    assert length_anomaly(0, [0, 0, 3]) == 0.0  # zero median, empty output
    assert length_anomaly(2, [0, 0, 0, 4]) == 1.0  # zero median, some output
    assert length_anomaly(2, [0, 1, 3, 4]) == _reference_length_anomaly(2, [0, 1, 3, 4])


def _reference_check(cap: int, spent: int, reserve: int) -> str | None:
    """The invariant checks in their original order; the message, or None when valid."""
    if spent > cap:
        return f"spent {spent} exceeds cap {cap}"
    if reserve < 0 or reserve > cap - spent:
        return f"reserve {reserve} invalid against cap {cap}, spent {spent}"
    return None


def test_ledger_raises_exactly_when_the_invariant_breaks_fuzz():
    rng = random.Random(99)
    for _ in range(5000):
        cap = rng.randrange(0, 60)
        ledger = BudgetLedger(cap=cap)
        ledger.policy_cost = rng.randrange(0, 40)
        ledger.repair_cost = rng.randrange(0, 30)
        ledger.overhead_cost = rng.randrange(0, 20)
        ledger.reserve_end = rng.randrange(-5, 60)
        spent = ledger.policy_cost + ledger.repair_cost + ledger.overhead_cost
        expected = _reference_check(cap, spent, ledger.reserve_end)
        if expected is None:
            ledger.charge_policy(0)
        else:
            with pytest.raises(BudgetError) as info:
                ledger.charge_policy(0)
            assert str(info.value) == expected


def test_ledger_mutators_raise_the_old_messages():
    ledger = BudgetLedger(cap=10)
    with pytest.raises(BudgetError, match=r"^spent 11 exceeds cap 10$"):
        ledger.charge_policy(11)
    ledger = BudgetLedger(cap=10)
    ledger.charge_overhead(4)
    with pytest.raises(BudgetError, match=r"^reserve 7 invalid against cap 10, spent 4$"):
        ledger.add_reserve(7)


def _reference_detect(q_history: list, s_history: list, cfg: DetectionConfig):
    """Detection over aligned histories: the current 1-based index when it fires, else None."""
    if not q_history or len(q_history) != len(s_history):
        raise ValueError("quality and frustration histories must be aligned and non-empty")
    t = len(q_history)
    q_now = q_history[-1]
    if t >= 2:
        drop = q_history[-2] - q_now
        if q_now < cfg.quality_floor and drop >= cfg.drop_threshold:
            return t
    if s_history[-1] >= cfg.frustration_threshold:
        return t
    return None


def _sentinel_detection(traits: PolicyTraits, cfg: DetectionConfig) -> DetectionConfig:
    """The clauses of traits as thresholds: an unused clause gets a floor of 0
    or a threshold of 2, which no quality or score in [0, 1] reaches."""
    return DetectionConfig(
        quality_floor=cfg.quality_floor if traits.detect_quality else 0.0,
        drop_threshold=cfg.drop_threshold,
        frustration_threshold=cfg.frustration_threshold if traits.detect_frustration else 2.0,
    )


# every combination of the two detect flags; the last row detects by both clauses
DETECT_ROWS = tuple(PolicyTraits(detect_quality=q, detect_frustration=f)
                    for q in (False, True) for f in (False, True))


def _near(rng: random.Random, value: float) -> float:
    """The value itself, a float next to it, or a point up to 0.05 away."""
    pick = rng.randrange(4)
    if pick == 0:
        return value
    if pick == 1:
        return math.nextafter(value, math.inf)
    if pick == 2:
        return math.nextafter(value, -math.inf)
    return value + rng.uniform(-0.05, 0.05)


def test_detection_on_the_current_turn_equals_the_history_definition_fuzz():
    rng = random.Random(1919)
    fired = 0
    fired_by_row = dict.fromkeys(DETECT_ROWS, 0)
    for _ in range(20000):
        cfg = DetectionConfig(
            quality_floor=rng.choice((0.0, 0.5, rng.random())),
            drop_threshold=rng.choice((0.2, rng.random())),
            frustration_threshold=rng.choice((0.7, 2.0, rng.random())),
        )
        quality = _near(rng, cfg.quality_floor) if rng.random() < 0.7 else rng.random()
        if rng.random() < 0.2:
            prior = None
        else:
            prior = _near(rng, quality + cfg.drop_threshold)
        score = _near(rng, cfg.frustration_threshold) if rng.random() < 0.7 else rng.random()
        earlier = [rng.random() for _ in range(rng.randrange(3))] if prior is not None else []
        q_history = earlier + ([prior] if prior is not None else []) + [quality]
        s_history = [rng.random() for _ in q_history[:-1]] + [score]
        expected = _reference_detect(q_history, s_history, cfg) is not None
        assert detect_negative_peak(DETECT_ROWS[-1], prior, quality, score, cfg) is expected
        fired += expected
        # a row's flags gate its clauses as the sentinel thresholds did, on the
        # qualities and scores a trajectory has; with both flags off none fires
        in_unit_range = 0.0 <= quality <= 1.0 and 0.0 <= score <= 1.0
        for traits in DETECT_ROWS:
            gated = detect_negative_peak(traits, prior, quality, score, cfg)
            if in_unit_range:
                sentinel = _sentinel_detection(traits, cfg)
                assert gated is (_reference_detect(q_history, s_history, sentinel) is not None)
            fired_by_row[traits] += gated
    assert 4000 < fired < 16000  # both outcomes are well represented
    assert fired_by_row[DETECT_ROWS[0]] == 0
    assert all(count > 2000 for count in list(fired_by_row.values())[1:]), fired_by_row


def _philox_uniforms(exec_seed, seed, turn, attempt, n):
    """The definition: a fresh Philox keyed (exec_seed, seed) at counter (0, turn, attempt, 0)."""
    bitgen = np.random.Philox(key=(exec_seed, seed), counter=(0, turn, attempt, 0))
    return tuple(np.random.Generator(bitgen).random(n).tolist())


def test_simulator_draws_equal_a_fresh_philox_fuzz():
    rng = random.Random(2121)
    # three times the streams the cache holds, visited in random order, so
    # hits, misses and evictions all occur; each seed pair has two lengths
    pairs = [
        (rng.randrange(-(2**63), 2**63), rng.randrange(-(2**63), 2**63))
        for _ in range(3 * abm._CACHED_STREAMS // 2)
    ]
    streams = [
        (exec_seed, seed, uniform_count(AbmConfig(digest_tokens=digest)))
        for exec_seed, seed in pairs
        for digest in rng.sample(range(8, 64), 2)
    ]
    for _ in range(3000):
        exec_seed, seed, n = rng.choice(streams)
        turn, attempt = rng.randrange(1, 13), rng.randrange(4)
        u = abm._uniforms(exec_seed, seed, turn, attempt, n)
        assert u == _philox_uniforms(exec_seed, seed, turn, attempt, n)
    assert len(abm._draws.streams) == abm._CACHED_STREAMS


def test_one_simulator_executor_runs_from_several_threads_at_once():
    cfg = AbmConfig(noise_sd=0.12)
    shared = AbmExecutor(cfg, seed=31)
    task = "plan the route"
    keys = [(traj, turn, attempt) for traj in range(40) for turn in range(1, 9) for attempt in (0, 1)]
    expected = {
        (traj, turn, attempt): abm_step(
            cfg, _philox_uniforms(31, traj, turn, attempt, uniform_count(cfg)), 0.5, 200,
            turn, abm._task_tokens(task), apply_trap_impulse=(attempt == 0),
        )
        for traj, turn, attempt in keys
    }
    orders = [keys, keys[::-1]] + [random.Random(i).sample(keys, len(keys)) for i in (1, 2)]
    start = threading.Barrier(len(orders))

    def run(order):
        start.wait(timeout=30)
        got = {}
        for traj, turn, attempt in order:
            ctx = TurnContext(task=task, turn=turn, horizon=8, attempt=attempt, prior_quality=0.5)
            out = shared.execute_turn(ctx, 200, seed=traj)
            got[(traj, turn, attempt)] = (out.quality, out.tokens)
        return got

    # more threads than cores, switching often, so draws interleave mid-attempt
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            results = list(pool.map(run, orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * len(orders)


def test_cached_draws_cannot_be_changed_by_a_consumer():
    u = abm._uniforms(7, 8, 3, 1, 39)
    assert type(u) is tuple
    with pytest.raises(TypeError):
        u[0] = 0.5  # type: ignore[index]
    assert abm._uniforms(7, 8, 3, 1, 39) == _philox_uniforms(7, 8, 3, 1, 39)


SLOTTED = [
    TurnContext(task="t", turn=1, horizon=2),
    TurnOutcome(tokens=("a", 1), tokens_used=3, quality=0.5),
    TextDigest.from_tokens(["a", "b"], 2),
    ProxyVector(repetition_similarity=0.1, context_drift=0.2, length_anomaly=0.3),
    TurnRecord(index=1, quality=0.5, frustration=0.2, tokens_spent=3),
]


@pytest.mark.parametrize("value", SLOTTED, ids=lambda v: type(v).__name__)
def test_slotted_records_stay_frozen(value):
    assert not hasattr(value, "__dict__")
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))
    assert dataclasses.replace(value) == value


def test_replace_on_turn_context_keeps_the_other_fields():
    ctx = TurnContext(task="t", turn=2, horizon=4, prior_quality=0.4, history=("x",))
    retry = dataclasses.replace(ctx, attempt=1, critique="again")
    assert (retry.task, retry.turn, retry.horizon, retry.prior_quality, retry.history) == (
        "t", 2, 4, 0.4, ("x",)
    )
    assert (retry.attempt, retry.critique) == (1, "again")


@pytest.mark.parametrize("kwargs, message", [
    ({"index": 0}, "turn index must be >= 1, got 0"),
    ({"quality": 1.5}, "quality must be in [0, 1], got 1.5"),
    ({"frustration": float("nan")}, "frustration must be in [0, 1], got nan"),
    ({"tokens_spent": -1}, "tokens_spent must be >= 0, got -1"),
])
def test_turn_record_validation_keeps_its_messages(kwargs, message):
    args = {"index": 1, "quality": 0.5, "frustration": 0.5, "tokens_spent": 0, **kwargs}
    with pytest.raises(ValueError) as info:
        TurnRecord(**args)
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["repetition_similarity", "context_drift", "length_anomaly"])
@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_proxy_vector_validation_keeps_its_messages(field, bad):
    args = {"repetition_similarity": 0.5, "context_drift": 0.5, "length_anomaly": 0.5, field: bad}
    with pytest.raises(ValueError) as info:
        ProxyVector(**args)
    assert str(info.value) == f"{field} must be in [0, 1], got {bad}"


@pytest.mark.parametrize("prev", [-0.1, 1.1, float("nan")])
def test_frustration_prev_validation_keeps_its_message(prev):
    proxies = ProxyVector(repetition_similarity=0.5, context_drift=0.5, length_anomaly=0.5)
    with pytest.raises(ValueError) as info:
        frustration_score(proxies, SignalConfig(), prev)
    assert str(info.value) == f"prev must be in [0, 1], got {prev}"


_FLOAT_MAX = sys.float_info.max


def _ref_is_number(v) -> bool:
    return (type(v) is float or type(v) is int) and -_FLOAT_MAX <= v <= _FLOAT_MAX


def _ref_is_int(v) -> bool:
    return type(v) is int


# the predicate, one call per field, that RunRecord.from_dict applied before
# its one-pass table, with what a failure names
_REFERENCE_KINDS = {
    int: (_ref_is_int, "an int"),
    float: (_ref_is_number, "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    bool: (lambda v: type(v) is bool, "a bool"),
    tuple[float, ...]: (
        lambda v: type(v) in (list, tuple) and all(map(_ref_is_number, v)),
        "a list of finite numbers",
    ),
    Optional[int]: (lambda v: v is None or _ref_is_int(v), "an int or null"),
    Optional[float]: (lambda v: v is None or _ref_is_number(v), "a finite number or null"),
}
_HINTS = get_type_hints(RunRecord)
_TURN_FIELDS = ("quality_by_turn", "frustration_by_turn")


def _reference_from_dict(d: dict) -> RunRecord:
    """RunRecord.from_dict as it was: one predicate per field, then __init__."""
    d = dict(d)
    version = d.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {version!r}; this reader handles {SCHEMA_VERSION}"
        )
    for name, annotation in _HINTS.items():
        if name == "schema_version":
            continue
        is_kind, kind = _REFERENCE_KINDS[annotation]
        value = d.get(name)
        if not is_kind(value):
            raise TypeError(f"field {name!r} is missing" if name not in d
                            else f"field {name!r} is {value!r}, not {kind}")
    for name in _TURN_FIELDS:
        if len(d[name]) != d["horizon"]:
            raise ValueError(f"field {name!r} holds {len(d[name])} values, "
                             f"not one per turn of horizon {d['horizon']}")
        d[name] = tuple(d[name])
    return RunRecord(**d)  # a key that is not a field raises TypeError here


_BASE_VALUES = {
    int: 3, float: 0.5, str: "s", bool: False, tuple[float, ...]: [0.25, 0.5, 0.75],
    Optional[int]: 4, Optional[float]: -0.125,
}
BASE_RECORD = {name: _BASE_VALUES[annotation] for name, annotation in _HINTS.items()}
BASE_RECORD["schema_version"] = SCHEMA_VERSION  # horizon 3, one value a turn
POOL = [
    3, 0, -7, 1.5, 0.5, -0.0, True, False, "x", "1", None, [], [0.5], {}, {"a": 1},
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400),
    int(_FLOAT_MAX) + 1, _FLOAT_MAX, -_FLOAT_MAX,
]


def _outcome(read, d: dict):
    try:
        return read(d)
    except (TypeError, ValueError) as exc:
        return exc


def _check_reader_matches_reference(d: dict) -> None:
    expected = _outcome(_reference_from_dict, d)
    got = _outcome(RunRecord.from_dict, d)
    if isinstance(expected, RunRecord):
        assert type(got) is RunRecord and got == expected and hash(got) == hash(expected)
        assert vars(got) == vars(expected)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.seed = 1  # type: ignore[misc]
        return
    assert isinstance(got, Exception), (d, expected)
    if "unexpected keyword argument" in str(expected):
        extra = next(key for key in d if key not in _HINTS)
        assert type(got) is TypeError and repr(extra) in str(got)
    else:
        assert (type(got), str(got)) == (type(expected), str(expected))


def test_record_reader_refuses_exactly_what_the_field_predicates_refused():
    _check_reader_matches_reference(BASE_RECORD)
    for name in _HINTS:  # every field x every pool value, one at a time
        for value in POOL:
            _check_reader_matches_reference({**BASE_RECORD, name: value})
        _check_reader_matches_reference({k: v for k, v in BASE_RECORD.items() if k != name})
    for name in _TURN_FIELDS:  # every pool value as one turn's value, and as every turn's
        for value in POOL:
            _check_reader_matches_reference({**BASE_RECORD, name: [0.5, value, 0.25]})
            _check_reader_matches_reference({**BASE_RECORD, name: (value,) * 3})
    _check_reader_matches_reference({**BASE_RECORD, "quality_by_turn": [_FLOAT_MAX] * 3})

    rng = random.Random(20261020)
    names = list(_HINTS)
    for _ in range(3000):  # several faults at once, in any field order
        d = dict(BASE_RECORD)
        for _ in range(rng.randrange(1, 4)):
            move = rng.random()
            name = rng.choice(names)
            if move < 0.5:
                d[name] = rng.choice(POOL)
            elif move < 0.7 and name in _TURN_FIELDS:
                d[name] = [rng.choice(POOL) for _ in range(rng.choice((2, 3, 3, 4)))]
            elif move < 0.85:
                d.pop(name, None)
            else:
                d[rng.choice(("extra", "mean_qualty", "Seed"))] = rng.choice(POOL)
        if rng.random() < 0.5:  # JSON order is sorted; a caller's dict may be in any order
            d = dict(rng.sample(sorted(d.items(), key=lambda kv: kv[0]), len(d)))
        _check_reader_matches_reference(d)
