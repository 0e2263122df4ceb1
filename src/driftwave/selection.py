"""Model selection over drifting validation-loss series.

Each candidate's loss history is denoised and the model with the smallest
denoised latest loss wins (ties broken by lexicographically smallest id).
With the threshold forced to zero this reduces exactly to picking the
smallest raw latest loss.  The series share a length, so the panel is one
(models x T) stack through the estimator's one intake,
``denoise._estimate_rows``, which checks and refuses each row: a panel of
one model scores and refuses as :func:`~driftwave.denoise.estimate_latest`
does.  Only the panel's own checks (empty, ragged, duplicate ids) are here.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

# estimate_latest stays importable here: perfbench's traced select-stream run wraps it
from .denoise import DenoiseConfig, _estimate_rows, estimate_latest  # noqa: F401
from .errors import EmptyPanel, NonFiniteValue, ParseError, RaggedPanel


@dataclass(frozen=True)
class LossSeries:
    """One model's validation losses, ordered oldest to newest."""

    model_id: str
    losses: np.ndarray


@lru_cache(maxsize=64)
def _shared_ids(model_ids: tuple[str, ...]) -> tuple[str, ...]:
    """One tuple per distinct id sequence, so the results of one panel share
    it instead of each holding its own."""
    return model_ids


@dataclass(frozen=True, slots=True, eq=False, init=False)
class SelectionResult:
    """The chosen model id, and per model (in panel order) its denoised and
    raw latest loss, with the configuration that produced them.

    Stored packed: the model ids (one tuple shared by the results of a
    panel), one immutable buffer of float64 holding the denoised losses then
    the raw ones, and the configuration as given; ``scores`` and ``config``
    build the dicts when read.  ``SelectionResult(chosen, scores, config)``
    takes those dicts (or a :class:`DenoiseConfig` for ``config``), so it and
    ``dataclasses.replace`` with any of the three names work as on a
    dict-backed result.  Two results are equal when their choice, scores and
    config are.
    """

    chosen: str
    model_ids: tuple[str, ...] = field(init=False)
    packed: bytes = field(init=False)  # float64: denoised per model, then raw
    cfg: DenoiseConfig | dict = field(init=False)
    # Constructor arguments only.  The properties of the same name below are
    # their defaults, so dataclasses.replace reads them back from the result.
    scores: InitVar[dict]
    config: InitVar[dict]

    def __init__(self, chosen: str, scores: dict, config: DenoiseConfig | dict):
        denoised = [s["denoised"] for s in scores.values()]
        raw = [s["raw"] for s in scores.values()]
        self._store(
            chosen,
            _shared_ids(tuple(scores)),
            np.array(denoised + raw, dtype=np.float64).tobytes(),
            config if isinstance(config, DenoiseConfig) else dict(config),
        )

    @classmethod
    def _packed(cls, chosen, model_ids, packed, cfg) -> SelectionResult:
        """A result from its stored parts, without building the dicts."""
        result = object.__new__(cls)
        result._store(chosen, model_ids, packed, cfg)
        return result

    def _store(self, chosen, model_ids, packed, cfg) -> None:
        object.__setattr__(self, "chosen", chosen)
        object.__setattr__(self, "model_ids", model_ids)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "cfg", cfg)

    @property
    def scores(self) -> dict:
        """model id -> {"denoised": float, "raw": float}, in panel order."""
        values = memoryview(self.packed).cast("d").tolist()
        n = len(self.model_ids)
        return {
            mid: {"denoised": d, "raw": r}
            for mid, d, r in zip(self.model_ids, values[:n], values[n:])
        }

    @property
    def config(self) -> dict:
        return self.cfg.to_dict() if isinstance(self.cfg, DenoiseConfig) else dict(self.cfg)

    def __eq__(self, other):
        if not isinstance(other, SelectionResult):
            return NotImplemented
        return (self.chosen, self.scores, self.config) == (other.chosen, other.scores, other.config)

    def to_json(self) -> str:
        scores = self.scores
        payload = {
            "chosen": self.chosen,
            "scores": {mid: scores[mid] for mid in sorted(scores)},
            "config": self.config,
        }
        return json.dumps(payload, indent=2)


def select(
    panel: list[LossSeries], cfg: DenoiseConfig, *, clamp: bool = False
) -> SelectionResult:
    """Pick the model whose denoised latest loss is smallest.

    ``clamp`` restricts each denoised estimate to the observed range of its
    own series (useful for losses with hard bounds); off by default so the
    estimator is never silently clipped.  A NaN or infinite loss raises
    :class:`NonFiniteValue` naming the first such model in panel order, as
    does a denoised loss, threshold or noise scale that overflows float64.
    """
    if not panel:
        raise EmptyPanel("panel holds no loss series")
    lengths = {len(s.losses) for s in panel}
    if len(lengths) != 1:
        raise RaggedPanel(f"series lengths differ: {sorted(lengths)}")
    ids = [s.model_id for s in panel]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate model ids: {ids}")

    losses = np.array([s.losses for s in panel], dtype=np.float64)  # (models, T)
    denoised, _, _ = _estimate_rows(losses, cfg, lambda i: f"model {ids[i]!r}")
    if clamp:
        denoised = np.clip(denoised, losses.min(axis=1), losses.max(axis=1))
    model_ids = _shared_ids(tuple(ids))
    chosen = min(zip(denoised.tolist(), model_ids))[1]
    packed = np.concatenate((denoised, losses[:, -1])).tobytes()
    return SelectionResult._packed(chosen, model_ids, packed, cfg)


def ingest_panel(stream) -> list[LossSeries]:
    """Parse a loss panel CSV: header ``t,<id1>,<id2>,...``, rows ascending t.

    Raises ParseError for malformed rows or a non-finite or non-ascending time,
    RaggedPanel for missing cells, NonFiniteValue for NaN or infinite losses.
    """
    lines = stream.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "empty panel")
    header = [c.strip() for c in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t":
        raise ParseError(1, f"expected header 't,<model>,...', got {lines[0]!r}")
    ids = header[1:]
    if len(set(ids)) != len(ids):
        raise ParseError(1, f"duplicate model columns: {ids}")

    columns: list[list[float]] = [[] for _ in ids]
    prev_t = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header) or any(c == "" for c in cells):
            raise RaggedPanel(f"line {lineno}: expected {len(header)} cells, got {line!r}")
        try:
            t = float(cells[0])
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise ParseError(lineno, f"bad time value {cells[0]!r}; need a finite number")
        if prev_t is not None and t <= prev_t:
            raise ParseError(lineno, f"time must ascend, got {t} after {prev_t}")
        prev_t = t
        for ci, cell in enumerate(cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(lineno, f"bad loss value {cell!r}") from None
            if not math.isfinite(value):
                raise NonFiniteValue(f"loss {cell!r} is not finite", line=lineno)
            columns[ci].append(value)

    if not columns[0]:
        raise ParseError(2, "panel has a header but no rows")
    return [LossSeries(mid, np.array(col)) for mid, col in zip(ids, columns)]
