"""Shared helpers for the benchmark modules (imported as ``from _helpers import ...``)."""

from __future__ import annotations

import os
import pathlib

import numpy as np

from repro.core import ModelCompressor, build_strategy
from repro.data import zipfian_corpus
from repro.eval import format_rows, format_table
from repro.models import build_model

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Evaluation-environment sizes shared by the accuracy benchmarks.
EVAL_SEQUENCES = 24
EVAL_SEQ_LEN = 32
TASK_ITEMS = 128
CALIBRATION_SEQUENCES = 32
CALIBRATION_SEQ_LEN = 32


def results_dir() -> pathlib.Path:
    """Where a benchmark writes what it regenerates.

    The tracked ``benchmarks/results/`` only when ``MILO_UPDATE_RESULTS=1``;
    otherwise the git-ignored ``benchmarks/results/latest/``, so an ordinary
    test run leaves the tracked tree clean (several tables carry wall-clock
    columns that change on every run).
    """
    if os.environ.get("MILO_UPDATE_RESULTS") == "1":
        return RESULTS_DIR
    return RESULTS_DIR / "latest"


def save_result(name: str, text: str) -> None:
    """Print a regenerated table and persist it under :func:`results_dir`."""
    out_dir = results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def calibration_tokens(vocab_size: int, seed: int = 3) -> np.ndarray:
    """Model-independent calibration corpus for GPTQ."""
    return zipfian_corpus(
        vocab_size,
        num_sequences=CALIBRATION_SEQUENCES,
        seq_len=CALIBRATION_SEQ_LEN,
        seed=seed,
    ).tokens


def compress_model(
    model_name: str,
    method: str,
    bits: int = 3,
    strategy: str | None = None,
    rank_policy=None,
    compensator_bits: int | None = 3,
    milo_config=None,
):
    """Build a fresh mini model and compress it with the requested method."""
    model = build_model(model_name)
    policy = rank_policy
    if strategy is not None:
        policy = build_strategy(strategy, model.config)
    calibration = calibration_tokens(model.config.vocab_size) if method == "gptq" else None
    compressor = ModelCompressor(
        method=method,
        bits=bits,
        rank_policy=policy,
        calibration_tokens=calibration,
        compensator_bits=compensator_bits,
        milo_config=milo_config,
    )
    return compressor.compress(model)


__all__ = [
    "results_dir",
    "save_result",
    "compress_model",
    "calibration_tokens",
    "format_rows",
    "format_table",
    "EVAL_SEQUENCES",
    "EVAL_SEQ_LEN",
    "TASK_ITEMS",
]
