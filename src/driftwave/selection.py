"""Model selection over drifting validation-loss series.

Each candidate's loss history is denoised and the model with the smallest
denoised latest loss wins (ties broken by lexicographically smallest id).
With the threshold forced to zero this reduces exactly to picking the
smallest raw latest loss.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .denoise import DenoiseConfig, estimate_latest
from .errors import EmptyPanel, NonFiniteValue, ParseError, RaggedPanel


@dataclass(frozen=True)
class LossSeries:
    """One model's validation losses, ordered oldest to newest."""

    model_id: str
    losses: np.ndarray


@dataclass(frozen=True)
class SelectionResult:
    chosen: str
    scores: dict  # model id -> {"denoised": float, "raw": float}
    config: dict

    def to_json(self) -> str:
        payload = {
            "chosen": self.chosen,
            "scores": {mid: self.scores[mid] for mid in sorted(self.scores)},
            "config": self.config,
        }
        return json.dumps(payload, indent=2)


def select(
    panel: list[LossSeries], cfg: DenoiseConfig, *, clamp: bool = False
) -> SelectionResult:
    """Pick the model whose denoised latest loss is smallest.

    ``clamp`` restricts each denoised estimate to the observed range of its
    own series (useful for losses with hard bounds); off by default so the
    estimator is never silently clipped.  A NaN or infinite loss in any
    series raises :class:`NonFiniteValue`.
    """
    if not panel:
        raise EmptyPanel("panel holds no loss series")
    lengths = {len(s.losses) for s in panel}
    if len(lengths) != 1:
        raise RaggedPanel(f"series lengths differ: {sorted(lengths)}")
    ids = [s.model_id for s in panel]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate model ids: {ids}")

    scores = {}
    for series in panel:
        if not np.all(np.isfinite(series.losses)):
            raise NonFiniteValue(f"model {series.model_id!r} has a NaN or infinite loss")
        est = estimate_latest(series.losses, cfg)
        denoised = est.value
        if clamp:
            denoised = float(np.clip(denoised, series.losses.min(), series.losses.max()))
        scores[series.model_id] = {
            "denoised": denoised,
            "raw": float(series.losses[-1]),
        }
    chosen = min(scores, key=lambda mid: (scores[mid]["denoised"], mid))
    return SelectionResult(chosen, scores, cfg.to_dict())


def ingest_panel(stream) -> list[LossSeries]:
    """Parse a loss panel CSV: header ``t,<id1>,<id2>,...``, rows ascending t.

    Raises ParseError for malformed rows or non-ascending time, RaggedPanel
    for missing cells, NonFiniteValue for NaN or infinite losses.
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
            raise ParseError(lineno, f"bad time value {cells[0]!r}") from None
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
