"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
convention is:

* heavy work happens once inside ``benchmark.pedantic(..., rounds=1)`` so
  pytest-benchmark records the wall time without re-running the experiment;
* the regenerated rows/series are printed and also written to
  ``benchmarks/results/latest/<experiment>.txt`` (git-ignored), or to the
  tracked ``benchmarks/results/<experiment>.txt`` when
  ``MILO_UPDATE_RESULTS=1`` is set;
* each module asserts the *shape* of the paper's result (who wins, in which
  direction), never absolute values.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval import EvaluationEnvironment, EvaluationHarness
from repro.models import build_model

from _helpers import EVAL_SEQ_LEN, EVAL_SEQUENCES, TASK_ITEMS

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(items):
    """Mark every benchmark as ``slow``.

    The benchmarks regenerate whole paper tables (model builds, quantization
    sweeps, evaluation harness runs) and dominate the suite's wall time; CI's
    fast tier deselects them with ``-m "not slow"`` while the full tier and
    the tier-1 command still run everything.
    """
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def evaluation_setups():
    """Lazily-built (teacher, harness) pairs per mini model, shared across benches."""
    cache: dict[str, tuple] = {}

    def get(model_name: str):
        if model_name not in cache:
            teacher = build_model(model_name)
            environment = EvaluationEnvironment.from_teacher(
                teacher,
                num_sequences=EVAL_SEQUENCES,
                seq_len=EVAL_SEQ_LEN,
                num_task_items=TASK_ITEMS,
                seed=0,
            )
            cache[model_name] = (teacher, EvaluationHarness(environment))
        return cache[model_name]

    return get
