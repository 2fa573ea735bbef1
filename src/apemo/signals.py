"""Behavioral frustration proxies computed from output text statistics.

Each turn's output is reduced to a :class:`TextDigest` (token count plus
token and n-gram sets). Three proxies are derived from digests alone:
repetition similarity against prior turns, drift away from the task
wording, and length anomaly against the turn-length history. A weighted,
optionally smoothed combination yields the per-turn frustration score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .trajectory import _check_unit

# Text tokens are strings; the simulator also emits int ids for fresh content.
Token = str | int

_PUNCT = ".,;:!?\"'()[]{}"


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization with edge punctuation stripped."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


def ngram_set(tokens: Sequence[Token], order: int) -> frozenset[tuple[Token, ...]]:
    """Distinct n-grams of the given order, each a tuple of consecutive tokens."""
    if order == 2:
        return frozenset(zip(tokens, tokens[1:]))
    if order < 1:
        raise ValueError(f"ngram order must be >= 1, got {order}")
    return frozenset(zip(*(tokens[i:] for i in range(order))))


@dataclass(frozen=True, slots=True)
class TextDigest:
    """Order-free text statistics: token count, token set, n-gram set."""

    token_count: int
    tokens: frozenset[Token]
    ngrams: frozenset[tuple[Token, ...]]

    @classmethod
    def from_text(cls, text: str, order: int) -> "TextDigest":
        return cls.from_tokens(tokenize(text), order)

    @classmethod
    def from_tokens(cls, tokens: Sequence[Token], order: int) -> "TextDigest":
        return cls(
            token_count=len(tokens),
            tokens=frozenset(tokens),
            ngrams=ngram_set(tokens, order),
        )


@dataclass(frozen=True, slots=True)
class ProxyVector:
    """One turn's proxy readings, each in [0, 1]."""

    repetition_similarity: float
    context_drift: float
    length_anomaly: float

    def __post_init__(self) -> None:
        if (
            0.0 <= self.repetition_similarity <= 1.0
            and 0.0 <= self.context_drift <= 1.0
            and 0.0 <= self.length_anomaly <= 1.0
        ):
            return
        _check_unit("repetition_similarity", self.repetition_similarity)
        _check_unit("context_drift", self.context_drift)
        _check_unit("length_anomaly", self.length_anomaly)


@dataclass(frozen=True)
class SignalConfig:
    """Weights and knobs for aggregating proxies into the frustration score.

    proxy_weights applies to (repetition, drift, length anomaly) and must
    sum to 1. smoothing is the exponential weight given to the previous
    turn's score; 0 disables smoothing entirely.
    """

    proxy_weights: tuple[float, float, float] = (0.4, 0.4, 0.2)
    ngram_order: int = 2
    smoothing: float = 0.3

    def __post_init__(self) -> None:
        if len(self.proxy_weights) != 3 or any(w < 0 for w in self.proxy_weights):
            raise ValueError(f"proxy_weights must be 3 non-negative reals, got {self.proxy_weights}")
        if abs(sum(self.proxy_weights) - 1.0) > 1e-9:
            raise ValueError(f"proxy_weights must sum to 1, got {sum(self.proxy_weights)}")
        if self.ngram_order < 1:
            raise ValueError(f"ngram_order must be >= 1, got {self.ngram_order}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError(f"smoothing must be in [0, 1), got {self.smoothing}")


def jaccard(a: frozenset, b: frozenset) -> float:
    """Set Jaccard similarity; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def repetition_similarity(current: TextDigest, history: Sequence[TextDigest]) -> float:
    """Maximum n-gram Jaccard between the current output and any prior turn.

    Returns 0 when there is no history.
    """
    if not history:
        return 0.0
    cur = current.ngrams
    best = 0.0
    for past in history:
        value = jaccard(cur, past.ngrams)
        if value > best:
            best = value
    return best


def context_drift(current: TextDigest, task: TextDigest) -> float:
    """1 minus the unigram overlap coefficient against the task wording.

    Higher means further off-task. An empty current output is maximally
    drifted.
    """
    if not task.tokens:
        raise ValueError("task digest has no tokens; cannot measure drift")
    if not current.tokens:
        return 1.0
    inter = len(current.tokens & task.tokens)
    overlap = inter / min(len(current.tokens), len(task.tokens))
    return min(max(1.0 - overlap, 0.0), 1.0)


def length_anomaly(current_count: int, history_counts: Sequence[int]) -> float:
    """Relative deviation of the output length from the running median, clamped to [0, 1]."""
    if not history_counts:
        return 0.0
    ordered = sorted(history_counts)
    mid = len(ordered) // 2
    med = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    if med <= 0:
        return 1.0 if current_count > 0 else 0.0
    return min(abs(current_count - med) / med, 1.0)


def frustration_score(
    proxies: ProxyVector, cfg: SignalConfig, prev: Optional[float] = None
) -> float:
    """Weighted proxy combination, exponentially smoothed against the prior score."""
    if prev is not None and not 0.0 <= prev <= 1.0:
        _check_unit("prev", prev)
    w_rep, w_drift, w_len = cfg.proxy_weights
    raw = (
        w_rep * proxies.repetition_similarity
        + w_drift * proxies.context_drift
        + w_len * proxies.length_anomaly
    )
    value = raw if prev is None else cfg.smoothing * prev + (1.0 - cfg.smoothing) * raw
    return min(max(value, 0.0), 1.0)


def compute_proxies(
    current: TextDigest, history: Sequence[TextDigest], task: TextDigest
) -> ProxyVector:
    """Evaluate all three proxies for the current output against the prior
    turns' digests, whose token counts are the length history."""
    return ProxyVector(
        repetition_similarity=repetition_similarity(current, history),
        context_drift=context_drift(current, task),
        length_anomaly=length_anomaly(current.token_count, [d.token_count for d in history]),
    )
