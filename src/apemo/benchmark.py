"""Experimental blocks: cell execution, run-level aggregation, persistence.

A block is a grid of (model, seed, policy) cells sharing a horizon, budget
cap, episode count, executor kind, and optional trap. Each cell runs its
episodes, aggregates episode metrics into one run record, and persists it
as a JSON line keyed by (model, seed, policy); reruns resume from the
persisted store without re-executing completed cells.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields, replace
from itertools import chain, groupby
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, get_type_hints

from .abm import STREAM_VERSION, AbmConfig, AbmExecutor, TrapSpec
from .executor import Executor
from .llm import DecodingParams, LlmExecutor, ModelEndpoint, ping
from .scheduler import POLICY_TRAITS, PolicyKind, SchedulerConfig, run_trajectory
from .tasks import TASKS
from .trajectory import (
    ObjectiveWeights,
    ReuseParams,
    Trajectory,
    average_frustration,
    peak_end_quality,
    reuse_per_cost,
    reuse_probability,
)

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

RunKey = tuple[str, int, str]  # (model, seed, policy); a store holds one horizon


class StoreError(ValueError):
    """A record store that resume or report cannot use; the message names the
    file, and the line where there is one."""


class Stamp(NamedTuple):
    """The record fields one block run fixes, named as on the record; a store,
    a resume and a report never mix records of two stamps."""

    block: str
    horizon: int
    episodes: int
    trap_turn: Optional[int]
    stream_version: Optional[int]  # abm.STREAM_VERSION on simulator records

    def difference(self, other: "Stamp") -> tuple[str, object, object]:
        """The first field where the stamps differ, with this value and other's."""
        return next((name, mine, theirs) for name, mine, theirs
                    in zip(self._fields, self, other) if mine != theirs)


@dataclass(frozen=True)
class BlockConfig:
    """One experimental block: the cell grid plus shared run parameters."""

    name: str
    executor: str  # abm | llm
    models: tuple[str, ...]
    horizon: int
    episodes: int
    budget_cap: int
    policies: tuple[PolicyKind, ...]
    seeds: tuple[int, ...]
    trap: Optional[TrapSpec] = None
    abm: AbmConfig = field(default_factory=AbmConfig)

    def __post_init__(self) -> None:
        if self.executor not in ("abm", "llm"):
            raise ValueError(f"executor must be 'abm' or 'llm', got {self.executor!r}")
        if not self.models:
            raise ValueError("models must be non-empty")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if self.budget_cap < self.horizon:
            raise ValueError(
                f"budget_cap {self.budget_cap} below one token per turn for T={self.horizon}"
            )
        if not self.policies:
            raise ValueError("policies must be non-empty")
        if self.executor == "abm":
            topology = [p.value for p in self.policies if POLICY_TRAITS[p].topology != "single"]
            if topology:
                raise ValueError(
                    f"policies {topology} need a role topology, which executor 'abm' "
                    "does not have; run them on an 'llm' block"
                )
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for name in ("models", "seeds", "policies"):  # each names one cell of the grid
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} lists {repeated[0]} more than once")
        if self.trap is not None:
            if self.trap.trap_turn < 2 or self.trap.trap_turn + 2 > self.horizon:
                raise ValueError(
                    f"trap turn {self.trap.trap_turn} leaves no 2-turn rebound window "
                    f"inside horizon {self.horizon}"
                )

    @property
    def runs_per_policy(self) -> int:
        return len(self.models) * len(self.seeds)

    @property
    def stamp(self) -> Stamp:
        """The stamp of this block's records: the one place that derives their
        trap turn and simulator stream version."""
        trap_turn = self.trap.trap_turn if self.trap is not None else None
        stream_version = STREAM_VERSION if self.executor == "abm" else None
        return Stamp(self.name, self.horizon, self.episodes, trap_turn, stream_version)


@dataclass(frozen=True)
class RunRecord:
    """Run-level aggregate of episode metrics for one (model, seed, policy) cell."""

    schema_version: int
    block: str
    model_id: str
    seed: int
    policy: str
    horizon: int
    episodes: int
    mean_quality: float
    peak_end_quality: float
    endpoint_quality: float
    reuse_probability: float
    reuse_per_cost: float
    avg_frustration: float
    total_cost: float
    policy_cost: float
    repair_cost: float
    overhead_cost: float
    repair_count: float
    fallback: bool
    quality_by_turn: tuple[float, ...]
    frustration_by_turn: tuple[float, ...]
    trap_turn: Optional[int] = None
    trap_quality_drop: Optional[float] = None
    trap_quality_rebound2: Optional[float] = None
    trap_frustration_drop2: Optional[float] = None
    stream_version: Optional[int] = None  # abm.STREAM_VERSION on simulator records

    @property
    def run_key(self) -> RunKey:
        return (self.model_id, self.seed, self.policy)

    @property
    def stamp(self) -> Stamp:
        return Stamp(self.block, self.horizon, self.episodes, self.trap_turn, self.stream_version)

    def to_dict(self) -> dict:
        # every field is flat, so a shallow copy serializes exactly like asdict
        d = {name: getattr(self, name) for name in _RECORD_FIELDS}
        d["quality_by_turn"] = list(self.quality_by_turn)
        d["frustration_by_turn"] = list(self.frustration_by_turn)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        """Build a record from its JSON object in one pass over _FIELD_CHECKS.

        Every field must have one of its annotation's exact types, and a
        number must be finite; a missing optional field takes its default,
        and a key that is not a field is refused. A failure raises TypeError
        or ValueError naming the field. The record is built without calling
        __init__, so it is equal to, and as frozen as, one built normally.
        """
        if type(d) is not dict:
            d = dict(d)  # a JSON value that is not an object raises TypeError or ValueError
        version = d.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}; this reader handles {SCHEMA_VERSION}"
            )
        values = {**_DEFAULTS, **d}
        for name, accepted, finite, kind in _FIELD_CHECKS:
            value = values.get(name)
            ok = type(value) in accepted
            if ok and finite and value is not None:
                ok = (_all_finite(value) if type(value) in _SEQUENCES
                      else -_FLOAT_MAX <= value <= _FLOAT_MAX)
            if not ok:
                raise TypeError(f"field {name!r} is missing" if name not in values
                                else f"field {name!r} is {value!r}, not {kind}")
        for name in _TURN_FIELDS:
            turns = values[name]
            if len(turns) != values["horizon"]:
                raise ValueError(f"field {name!r} holds {len(turns)} values, "
                                 f"not one per turn of horizon {values['horizon']}")
            values[name] = tuple(turns)
        if len(values) != len(_RECORD_FIELDS):  # every field is present, so a key is extra
            extra = next(key for key in values if key not in _RECORD_FIELDS)
            raise TypeError(f"field {extra!r} is not a field of a run record")
        record = object.__new__(cls)
        object.__setattr__(record, "__dict__", values)
        return record


_RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))
_DEFAULTS = {f.name: f.default for f in fields(RunRecord) if f.default is not MISSING}
_TURN_FIELDS = ("quality_by_turn", "frustration_by_turn")
_FLOAT_MAX = sys.float_info.max
_SEQUENCES = (list, tuple)
_NUMBERS = (float, int)


def _all_finite(values: Sequence) -> bool:
    """Whether every value is a finite float or an int a float can hold."""
    return (set(map(type, values)).issubset(_NUMBERS)
            and all(-_FLOAT_MAX <= v <= _FLOAT_MAX for v in values))


# annotation -> (accepted exact types, whether a number must be finite, what a
# failure names). A record is read from JSON, whose values have exactly these
# types, so a bool is not an int; per-turn tuples hold one number a turn.
_KINDS = {
    int: ((int,), False, "an int"),
    float: (_NUMBERS, True, "a finite number"),
    str: ((str,), False, "a string"),
    bool: ((bool,), False, "a bool"),
    tuple[float, ...]: (_SEQUENCES, True, "a list of finite numbers"),
    Optional[int]: ((int, type(None)), False, "an int or null"),
    Optional[float]: ((*_NUMBERS, type(None)), True, "a finite number or null"),
}
_FIELD_CHECKS = tuple(
    (name, *_KINDS[annotation])
    for name, annotation in get_type_hints(RunRecord).items()
    if name != "schema_version"
)


def derive_seed(model_id: str, seed: int, episode: int) -> int:
    """Stable executor seed shared by all policies in a (model, seed, episode) cell."""
    key = f"{model_id}|{seed}|{episode}".encode("utf-8")
    return zlib.crc32(key) & 0x7FFFFFFF


def trap_metrics(traj: Trajectory, trap_turn: int) -> dict[str, float]:
    """Endpoint, drop, and +2-turn rebound metrics around the trap turn."""
    horizon = traj.horizon
    if trap_turn < 2 or trap_turn + 2 > horizon:
        raise ValueError(
            f"trap turn {trap_turn} too close to the horizon ends for T={horizon}"
        )
    q = traj.qualities()
    s = traj.frustrations()
    return {
        "endpoint_quality": q[-1],
        "quality_drop": q[trap_turn - 2] - q[trap_turn - 1],
        "quality_rebound2": q[trap_turn + 1] - q[trap_turn - 1],
        "frustration_drop2": s[trap_turn - 1] - s[trap_turn + 1],
    }


def no_fallback_rate(records: Sequence[RunRecord]) -> float:
    """Fraction of runs that completed without any executor fallback."""
    if not records:
        raise ValueError("no_fallback_rate needs at least one record")
    clean = sum(1 for r in records if not r.fallback)
    return clean / len(records)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def aggregate_run(
    block: BlockConfig,
    model_id: str,
    seed: int,
    policy: PolicyKind,
    trajectories: Sequence[Trajectory],
    weights: ObjectiveWeights,
    reuse: ReuseParams,
) -> RunRecord:
    """Fold episode trajectories into one run-level record (means over episodes).

    An episode that spent no token has no reuse per cost; it counts as 0.
    """
    qualities = [t.qualities() for t in trajectories]
    frustrations = [t.frustrations() for t in trajectories]
    peq = [peak_end_quality(t, weights) for t in trajectories]
    frs = [average_frustration(t) for t in trajectories]
    reuse_vals = [reuse_probability(q, f, reuse) for q, f in zip(peq, frs)]
    costs = [t.cost.total for t in trajectories]
    rpc = [reuse_per_cost(r, c) if c > 0 else 0.0 for r, c in zip(reuse_vals, costs)]
    stamp = block.stamp
    q_by_turn = tuple(_mean([q[i] for q in qualities]) for i in range(stamp.horizon))
    s_by_turn = tuple(_mean([s[i] for s in frustrations]) for i in range(stamp.horizon))
    trap_fields: dict[str, float] = {}
    if stamp.trap_turn is not None:
        metrics = [trap_metrics(t, stamp.trap_turn) for t in trajectories]
        trap_fields = {
            "trap_quality_drop": _mean([m["quality_drop"] for m in metrics]),
            "trap_quality_rebound2": _mean([m["quality_rebound2"] for m in metrics]),
            "trap_frustration_drop2": _mean([m["frustration_drop2"] for m in metrics]),
        }
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        **stamp._asdict(),
        model_id=model_id,
        seed=seed,
        policy=policy.value,
        mean_quality=_mean([_mean(q) for q in qualities]),
        peak_end_quality=_mean(peq),
        endpoint_quality=_mean([q[-1] for q in qualities]),
        reuse_probability=_mean(reuse_vals),
        reuse_per_cost=_mean(rpc),
        avg_frustration=_mean(frs),
        total_cost=_mean([float(c) for c in costs]),
        policy_cost=_mean([float(t.cost.policy_cost) for t in trajectories]),
        repair_cost=_mean([float(t.cost.repair_cost) for t in trajectories]),
        overhead_cost=_mean([float(t.cost.overhead_cost) for t in trajectories]),
        repair_count=_mean(
            [float(sum(1 for turn in t.turns if turn.repaired)) for t in trajectories]
        ),
        fallback=any(t.fallback for t in trajectories),
        quality_by_turn=q_by_turn,
        frustration_by_turn=s_by_turn,
        **trap_fields,
    )


_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT


class RunStore:
    """Append-only JSONL store of run records, resumable by run key; a store
    holds one block, horizon, episode count, trap turn and simulator stream."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[RunKey, RunRecord] = {}
        self.stamp: Optional[Stamp] = None  # every stored record's stamp; None while empty
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read every record, then leave the file ending on a newline.

        A final line with no newline that does not parse is the tail of an
        interrupted append: it is dropped with a warning and cut from the
        file. Any other line that is not a record, or that _admit refuses,
        raises StoreError naming path:line and changes nothing.
        """
        offset = 0
        torn_at = None
        complete = True
        with self.path.open("rb") as fh:
            for number, line in enumerate(fh, 1):
                where = f"{self.path}:{number}"
                complete = line.endswith(b"\n")
                if line.strip():
                    try:
                        data = json.loads(line.decode("utf-8"))
                    except ValueError as exc:
                        if complete:
                            raise StoreError(f"{where}: not a JSON line ({exc})") from None
                        torn_at = offset
                        break
                    try:
                        record = RunRecord.from_dict(data)
                    except (TypeError, ValueError) as exc:
                        raise StoreError(f"{where}: not a run record ({exc})") from None
                    self._admit(record, where)
                offset += len(line)
        if torn_at is not None:
            log.warning(
                "%s: dropping a torn final line (%d bytes) left by an interrupted append",
                self.path, self.path.stat().st_size - torn_at,
            )
            os.truncate(self.path, torn_at)
        elif not complete:
            with self.path.open("ab") as fh:
                fh.write(b"\n")

    def _admit(self, record: RunRecord, where: str) -> None:
        """File one record, refusing one of another stamp (checked first, so
        both blocks are named even when the run keys are equal) or a stored
        run key."""
        stamp = record.stamp
        if self.stamp is not None and stamp != self.stamp:
            name, stored, found = self.stamp.difference(stamp)
            raise StoreError(f"{where}: a record of {name} {found!r} in a store of {name} "
                             f"{stored!r}; a store holds one block, horizon, episode count, "
                             "trap turn and simulator stream")
        if record.run_key in self._records:
            raise StoreError(f"{where}: run key {record.run_key} is stored twice; a store "
                             "holds one record per run key")
        self._records[record.run_key] = record
        self.stamp = stamp

    def get(self, key: RunKey) -> Optional[RunRecord]:
        return self._records.get(key)

    def append(self, record: RunRecord) -> None:
        """Persist one record as one line, handed to the OS in a single write."""
        line = (json.dumps(record.to_dict(), sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            self._admit(record, str(self.path))
            try:
                fd = os.open(self.path, _APPEND_FLAGS, 0o666)
            except FileNotFoundError:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, _APPEND_FLAGS, 0o666)
            try:
                written = os.write(fd, line)
                while written < len(line):  # a short write, e.g. on a full disk
                    written += os.write(fd, line[written:])
            finally:
                os.close(fd)

    def records(self) -> list[RunRecord]:
        return list(self._records.values())


def check_store(block: BlockConfig, store: RunStore) -> None:
    """Refuse a store that resuming or reporting `block` would mix: one whose
    stamp is not the block's, so of another block, horizon, episode count,
    trap turn or simulator stream (a model-server block's records carry none)."""
    if store.stamp is None or store.stamp == block.stamp:
        return
    name, stored, wanted = store.stamp.difference(block.stamp)
    raise StoreError(
        f"{store.path}: holds records of {name} {stored!r}, but block {block.name!r} "
        f"writes {name} {wanted!r}; resuming or reporting it would mix them, so move "
        "the file or rerun the block afresh (--no-resume)"
    )


@dataclass(frozen=True)
class RuntimeSettings:
    """Cross-block knobs forwarded into every trajectory run."""

    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    reuse: ReuseParams = field(default_factory=ReuseParams)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    endpoint: Optional[ModelEndpoint] = None
    decoding: DecodingParams = field(default_factory=DecodingParams)


def _make_executor(
    block: BlockConfig, settings: RuntimeSettings, model_id: str, exec_seed: int,
    policy: PolicyKind,
) -> Executor:
    if block.executor == "abm":
        return AbmExecutor(block.abm, exec_seed, trap=block.trap)
    return LlmExecutor(
        replace(settings.endpoint, model_id=model_id),
        topology=POLICY_TRAITS[policy].topology,
        decoding=settings.decoding,
        trap=block.trap,
    )


def run_cell(
    block: BlockConfig,
    settings: RuntimeSettings,
    model_id: str,
    seed: int,
    policy: PolicyKind,
    shared: Optional[dict] = None,
) -> RunRecord:
    """Run all episodes of one cell and aggregate them.

    shared, one dict per (model, seed) task of a simulator block, passes runs
    between that task's cells: each cell stores its episodes' logs under its
    policy's trait row. A detecting policy whose twin row
    (scheduler.PolicyTraits.twin) ran earlier in the task hands each twin
    log to run_trajectory(twin=...), which takes the twin's turns up to the
    first negative-peak repair and executes the rest. A twin that has not
    run (listed later, or its record was resumed from the store) has no
    entry, and the policy runs in full. The records are those of full runs
    because the simulator is a pure function of (context, allocation, seed);
    a model server is not, so an llm block passes no dict.
    """
    traits = POLICY_TRAITS[policy]
    twin_logs = shared.get(traits.twin) if shared is not None else None
    logs = []
    trajectories = []
    for episode in range(block.episodes):
        task = TASKS[episode % len(TASKS)]
        cfg = replace(settings.scheduler, task=task)
        exec_seed = derive_seed(model_id, seed, episode)
        executor = _make_executor(block, settings, model_id, exec_seed, policy)
        log = []
        trajectories.append(run_trajectory(
            traits,
            executor,
            block.horizon,
            block.budget_cap,
            seed=exec_seed,
            cfg=cfg,
            log=log,
            twin=twin_logs[episode] if twin_logs is not None else None,
        ))
        logs.append(log)
    if shared is not None:
        shared[traits] = logs
    return aggregate_run(block, model_id, seed, policy, trajectories, settings.weights, settings.reuse)


def run_block(
    block: BlockConfig,
    settings: RuntimeSettings,
    store: Optional[RunStore] = None,
    workers: int = 1,
    on_record: Optional[Callable[[RunRecord, bool], None]] = None,
) -> list[RunRecord]:
    """Execute every (model x seed x policy) cell, resuming from the store.

    Completed cells are returned from the store without re-execution; new
    records are persisted, and passed to on_record, in grid order at any
    worker count. A task is the pending cells of one (model, seed), so its
    policies share one thread's draw cache on a simulator block. At
    workers = 1 each record is stored as its cell completes; at workers > 1
    a task's records are stored together, so an interrupted run keeps whole
    (model, seed) groups. On a simulator block a task also shares runs, keyed
    by trait row: a detecting policy resumes each episode from the log of
    its twin row (scheduler.PolicyTraits.twin) at its first negative-peak
    repair, or takes the whole log when it has none, if that row ran earlier
    in the task (see run_cell). That relies on the simulator being a pure
    function of (context, allocation, seed); the records are those of cells
    run alone. A twin resumed from the store shares nothing. A store holds
    one block, horizon, episode count, trap turn and simulator stream, so a
    store of another stamp raises StoreError (see check_store); that, a
    model-server block without an endpoint (ValueError) and an unreachable
    endpoint all abort before any cell runs. Per-turn executor failures only mark runs.
    """
    if store is not None:
        check_store(block, store)
    if block.executor == "llm":
        if settings.endpoint is None:
            raise ValueError(f"block {block.name!r} needs an LLM endpoint configuration")
        ping(settings.endpoint)

    cells = [
        (model, seed, policy)
        for model in block.models
        for seed in block.seeds
        for policy in block.policies
    ]
    results: dict[RunKey, RunRecord] = {}
    pending = []
    for model, seed, policy in cells:
        key = (model, seed, policy.value)
        record = store.get(key) if store is not None else None
        if record is not None:
            results[key] = record
            if on_record:
                on_record(record, True)
        else:
            pending.append((model, seed, policy))

    def execute(task: list[tuple[str, int, PolicyKind]]) -> Iterator[RunRecord]:
        shared = {} if block.executor == "abm" else None
        for model, seed, policy in task:
            yield run_cell(block, settings, model, seed, policy, shared)

    # one task per (model, seed): its policies share one thread's draw cache
    tasks = [list(group) for _, group in groupby(pending, key=lambda cell: cell[:2])]
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or nullcontext():
        batches = pool.map(lambda task: list(execute(task)), tasks) if pool else map(execute, tasks)
        for record in chain.from_iterable(batches):
            if store is not None:
                store.append(record)
            results[record.run_key] = record
            if on_record:
                on_record(record, False)

    ordered = [
        results[(model, seed, policy.value)]
        for model, seed, policy in cells
    ]
    return ordered
