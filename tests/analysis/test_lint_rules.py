"""Tests for the ``milo lint`` AST rule engine (:mod:`repro.analysis.lint`).

Each rule gets a trigger fixture (a snippet that must be flagged with the
right code) and a clear fixture (the corrected idiom, which must pass).
Fixtures are written into ``tmp_path`` trees that mirror the repo layout
(``src/repro/serving/...``) so the path-scoped rules see them as in-scope —
and so no file with a deliberate violation is ever committed where the CI
self-run would trip over it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULE_REGISTRY,
    LintEngine,
    default_rules,
    load_baseline,
    suppressed_codes,
    write_baseline,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.lint.engine import SYNTAX_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Repo-relative path in DET/SLOT/RPT scope; fixtures are written here.
SERVING_REL = "src/repro/serving"


def lint_snippet(
    tmp_path: Path,
    source: str,
    rel_path: str = f"{SERVING_REL}/fixture.py",
    select: tuple[str, ...] | None = None,
):
    """Write ``source`` at ``rel_path`` under a scratch root and lint it."""
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    engine = LintEngine(root=tmp_path, rules=default_rules(select))
    return engine.run([target])


def codes(result) -> list[str]:
    return [d.code for d in result.fresh]


# ---------------------------------------------------------------------------
# DET001 — wall-clock
# ---------------------------------------------------------------------------


class TestDet001WallClock:
    def test_time_time_flagged(self, tmp_path):
        result = lint_snippet(tmp_path, "import time\nnow = time.time()\n")
        assert codes(result) == ["DET001"]
        assert "time.time" in result.fresh[0].message

    def test_perf_counter_from_import_alias_flagged(self, tmp_path):
        source = "from time import perf_counter as pc\nstamp = pc()\n"
        result = lint_snippet(tmp_path, source)
        assert codes(result) == ["DET001"]

    def test_datetime_now_flagged(self, tmp_path):
        source = "from datetime import datetime\nwhen = datetime.now()\n"
        result = lint_snippet(tmp_path, source)
        assert codes(result) == ["DET001"]

    def test_simulated_clock_clean(self, tmp_path):
        source = "def step(clock):\n    return clock + 0.5\n"
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_quant_timing_whitelisted(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        result = lint_snippet(
            tmp_path, source, rel_path="src/repro/quant/timing.py"
        )
        assert codes(result) == []

    def test_benchmarks_whitelisted(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        result = lint_snippet(
            tmp_path,
            source,
            rel_path="benchmarks/bench_engine.py",
            select=("DET001",),
        )
        assert codes(result) == []

    def test_outside_serving_not_in_scope(self, tmp_path):
        source = "import time\nnow = time.time()\n"
        result = lint_snippet(
            tmp_path, source, rel_path="src/repro/eval/harness.py"
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# DET002 — global-state randomness
# ---------------------------------------------------------------------------


class TestDet002GlobalRandomness:
    def test_random_module_flagged(self, tmp_path):
        source = "import random\nx = random.random()\n"
        result = lint_snippet(tmp_path, source, rel_path="src/repro/util.py")
        assert codes(result) == ["DET002"]

    def test_np_random_legacy_flagged(self, tmp_path):
        source = "import numpy as np\nx = np.random.rand(4)\n"
        result = lint_snippet(tmp_path, source, rel_path="src/repro/util.py")
        assert codes(result) == ["DET002"]

    def test_np_random_from_import_flagged(self, tmp_path):
        source = "from numpy.random import shuffle\nshuffle([1, 2])\n"
        result = lint_snippet(tmp_path, source, rel_path="src/repro/util.py")
        assert codes(result) == ["DET002"]

    def test_default_rng_allowed(self, tmp_path):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.random(4)\n"
        )
        result = lint_snippet(tmp_path, source, rel_path="src/repro/util.py")
        assert codes(result) == []

    def test_explicit_random_instance_allowed(self, tmp_path):
        source = "import random\nrng = random.Random(0)\nx = rng.random()\n"
        result = lint_snippet(tmp_path, source, rel_path="src/repro/util.py")
        assert codes(result) == []

    @pytest.mark.parametrize(
        "call",
        [
            "svds(a, k=2)",
            "linalg.eigsh(a, 2, which='LM')",
            "spla.lobpcg(a)",
            "spla.eigs(a, k=2, tol=0)",
        ],
    )
    def test_arpack_without_start_vector_flagged(self, tmp_path, call):
        source = (
            "from scipy.sparse.linalg import svds\n"
            "from scipy.sparse import linalg\n"
            "import scipy.sparse.linalg as spla\n"
            f"u = {call}\n"
        )
        result = lint_snippet(tmp_path, source, rel_path="src/repro/core/fixture.py")
        assert codes(result) == ["DET002"]
        assert "start vector" in result.fresh[0].message

    @pytest.mark.parametrize(
        "call",
        [
            "svds(a, k=2, v0=v0)",
            "svds(a, 2, None, 0, 'LM', v0)",
            "svds(a, k=2, rng=rng)",
            "spla.eigsh(a, 2, random_state=rng)",
            "spla.lobpcg(a, x0)",
            "spla.lobpcg(a, X=x0)",
            "svds(a, **options)",
        ],
    )
    def test_arpack_with_start_vector_clean(self, tmp_path, call):
        source = (
            "from scipy.sparse.linalg import svds\n"
            "import scipy.sparse.linalg as spla\n"
            f"u = {call}\n"
        )
        result = lint_snippet(tmp_path, source, rel_path="src/repro/core/fixture.py")
        assert codes(result) == []


# ---------------------------------------------------------------------------
# DET003 — unordered-set iteration
# ---------------------------------------------------------------------------


class TestDet003UnorderedIteration:
    def test_for_over_set_literal_flagged(self, tmp_path):
        source = "total = 0\nfor x in {3, 1, 2}:\n    total += x\n"
        assert codes(lint_snippet(tmp_path, source)) == ["DET003"]

    def test_for_over_set_call_flagged(self, tmp_path):
        source = "def f(items):\n    for x in set(items):\n        print(x)\n"
        assert codes(lint_snippet(tmp_path, source)) == ["DET003"]

    def test_for_over_set_valued_name_flagged(self, tmp_path):
        source = (
            "def f(a, b):\n"
            "    pending = set(a) - set(b)\n"
            "    for x in pending:\n"
            "        print(x)\n"
        )
        assert codes(lint_snippet(tmp_path, source)) == ["DET003"]

    def test_list_of_set_flagged(self, tmp_path):
        source = "def f(items):\n    return list(set(items))\n"
        assert codes(lint_snippet(tmp_path, source)) == ["DET003"]

    def test_comprehension_over_set_flagged(self, tmp_path):
        source = "def f(items):\n    return [x + 1 for x in set(items)]\n"
        assert codes(lint_snippet(tmp_path, source)) == ["DET003"]

    def test_sorted_wrapped_clean(self, tmp_path):
        source = (
            "def f(a, b):\n"
            "    for x in sorted(set(a) - set(b)):\n"
            "        print(x)\n"
            "    return sorted(set(a))\n"
        )
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_membership_test_clean(self, tmp_path):
        source = "def f(items, x):\n    seen = set(items)\n    return x in seen\n"
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_set_comprehension_over_set_clean(self, tmp_path):
        # A set built from a set is order-insensitive by construction.
        source = "def f(items):\n    return {x + 1 for x in set(items)}\n"
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_reassigned_name_not_flagged(self, tmp_path):
        source = (
            "def f(items):\n"
            "    xs = set(items)\n"
            "    xs = sorted(xs)\n"
            "    for x in xs:\n"
            "        print(x)\n"
        )
        assert codes(lint_snippet(tmp_path, source)) == []


# ---------------------------------------------------------------------------
# REG001 — hardcoded argparse choices
# ---------------------------------------------------------------------------


class TestReg001HardcodedChoices:
    CLI_PATH = "src/repro/cli.py"

    def test_literal_choices_flagged(self, tmp_path):
        source = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            'p.add_argument("--method", choices=["rtn", "milo"])\n'
        )
        result = lint_snippet(tmp_path, source, rel_path=self.CLI_PATH)
        assert codes(result) == ["REG001"]

    def test_constant_choices_clean(self, tmp_path):
        source = (
            "import argparse\n"
            'METHODS = ("rtn", "milo")\n'
            "p = argparse.ArgumentParser()\n"
            'p.add_argument("--method", choices=METHODS)\n'
        )
        result = lint_snippet(tmp_path, source, rel_path=self.CLI_PATH)
        assert codes(result) == []

    def test_registry_derived_choices_clean(self, tmp_path):
        source = (
            "import argparse\n"
            "REGISTRY = {'a': 1, 'b': 2}\n"
            "p = argparse.ArgumentParser()\n"
            'p.add_argument("--policy", choices=sorted(REGISTRY))\n'
        )
        result = lint_snippet(tmp_path, source, rel_path=self.CLI_PATH)
        assert codes(result) == []

    def test_non_cli_module_not_in_scope(self, tmp_path):
        source = (
            "import argparse\n"
            "p = argparse.ArgumentParser()\n"
            'p.add_argument("--method", choices=["rtn", "milo"])\n'
        )
        result = lint_snippet(tmp_path, source, rel_path="src/repro/tool.py")
        assert codes(result) == []


# ---------------------------------------------------------------------------
# SLOT001 — hot-path __slots__
# ---------------------------------------------------------------------------


class TestSlot001Slots:
    HOT_MODULE = "src/repro/serving/request.py"

    @pytest.mark.parametrize(
        "module", ["src/repro/serving/request.py", "src/repro/serving/cost.py"]
    )
    def test_unslotted_class_in_hot_module_flagged(self, tmp_path, module):
        source = "class Sequence:\n    def __init__(self):\n        self.x = 1\n"
        result = lint_snippet(tmp_path, source, rel_path=module)
        assert codes(result) == ["SLOT001"]

    def test_slots_clean(self, tmp_path):
        source = "class Sequence:\n    __slots__ = ('x',)\n"
        result = lint_snippet(tmp_path, source, rel_path=self.HOT_MODULE)
        assert codes(result) == []

    def test_dataclass_slots_clean(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(slots=True)\n"
            "class Sequence:\n"
            "    x: int = 0\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.HOT_MODULE)
        assert codes(result) == []

    def test_enum_exempt(self, tmp_path):
        source = "import enum\nclass State(enum.Enum):\n    A = 1\n"
        result = lint_snippet(tmp_path, source, rel_path=self.HOT_MODULE)
        assert codes(result) == []

    def test_marker_comment_opts_in(self, tmp_path):
        source = (
            "# milo: hot-path\n"
            "class Entry:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        )
        result = lint_snippet(
            tmp_path, source, rel_path="src/repro/serving/extra.py"
        )
        assert codes(result) == ["SLOT001"]

    def test_unmarked_class_elsewhere_clean(self, tmp_path):
        source = "class Entry:\n    def __init__(self):\n        self.x = 1\n"
        result = lint_snippet(
            tmp_path, source, rel_path="src/repro/serving/extra.py"
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# RPT001 — report schema closure
# ---------------------------------------------------------------------------


class TestRpt001ReportSchema:
    ENGINE_PATH = "src/repro/serving/engine.py"

    def test_undeclared_key_flagged(self, tmp_path):
        source = (
            "REPORT_SCHEMA_KEYS = frozenset({'backend'})\n"
            "def _build_report():\n"
            "    return {'backend': 'milo', 'surprise': 1}\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == ["RPT001"]
        assert "surprise" in result.fresh[0].message

    def test_subscript_store_flagged(self, tmp_path):
        source = (
            "REPORT_SCHEMA_KEYS = frozenset({'backend'})\n"
            "def _build_report():\n"
            "    out = {'backend': 'milo'}\n"
            "    out['sneaky'] = 2\n"
            "    return out\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == ["RPT001"]

    @pytest.mark.parametrize(
        "section", ["cluster_section", "overlap_section", "migration_section"]
    )
    def test_run_totals_section_builders_checked(self, tmp_path, section):
        source = (
            "REPORT_SCHEMA_KEYS = frozenset({'handoffs'})\n"
            "class RunTotals:\n"
            f"    def {section}(self):\n"
            "        return {'handoffs': 0, 'surprise': 1}\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == ["RPT001"]
        assert "surprise" in result.fresh[0].message
        clean = source.replace(", 'surprise': 1", "")
        assert codes(lint_snippet(tmp_path, clean, rel_path=self.ENGINE_PATH)) == []

    def test_missing_schema_constant_flagged(self, tmp_path):
        source = "def _build_report():\n    return {'backend': 'milo'}\n"
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == ["RPT001"]
        assert "REPORT_SCHEMA_KEYS" in result.fresh[0].message

    def test_declared_keys_clean(self, tmp_path):
        source = (
            "REPORT_SCHEMA_KEYS = frozenset({'backend', 'model'})\n"
            "def _build_report():\n"
            "    out = {'backend': 'milo'}\n"
            "    out['model'] = 'mixtral'\n"
            "    return out\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == []

    def test_non_report_function_ignored(self, tmp_path):
        source = (
            "REPORT_SCHEMA_KEYS = frozenset({'backend'})\n"
            "def helper():\n"
            "    return {'anything': 'goes'}\n"
        )
        result = lint_snippet(tmp_path, source, rel_path=self.ENGINE_PATH)
        assert codes(result) == []


# ---------------------------------------------------------------------------
# OBS001 — guarded telemetry hooks
# ---------------------------------------------------------------------------


class TestObs001GuardedTelemetry:
    def test_unguarded_call_in_loop_flagged(self, tmp_path):
        source = (
            "def run(self, tracer):\n"
            "    while True:\n"
            "        tracer.iteration(0, 0.0, 1.0, 4, 2)\n"
        )
        result = lint_snippet(tmp_path, source, select=("OBS001",))
        assert codes(result) == ["OBS001"]
        assert "tracer.iteration" in result.fresh[0].message

    def test_unguarded_metrics_in_for_flagged(self, tmp_path):
        source = (
            "def run(self, metrics):\n"
            "    for step in steps:\n"
            "        metrics.sample(step)\n"
        )
        result = lint_snippet(tmp_path, source, select=("OBS001",))
        assert codes(result) == ["OBS001"]

    def test_guarded_call_clean(self, tmp_path):
        source = (
            "def run(self, tracer):\n"
            "    while True:\n"
            "        if tracer is not None:\n"
            "            tracer.iteration(0, 0.0, 1.0, 4, 2)\n"
        )
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []

    def test_inverted_fast_path_split_clean(self, tmp_path):
        # The fast-path idiom: the *disabled* branch holds the original
        # loop, the else branch emits telemetry.  Branch polarity is the
        # equivalence tests' business, not the linter's.
        source = (
            "def run(self, tracer, metrics):\n"
            "    while True:\n"
            "        if tracer is None and metrics is None:\n"
            "            pass\n"
            "        else:\n"
            "            tracer.iteration(0, 0.0, 1.0, 4, 2)\n"
        )
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []

    def test_conditional_expression_guard_clean(self, tmp_path):
        source = (
            "def run(self, tracer):\n"
            "    while True:\n"
            "        pd = self._telemetry_per_device(4) "
            "if tracer is not None else None\n"
        )
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []

    def test_guard_outside_loop_clean(self, tmp_path):
        source = (
            "def drain(self):\n"
            "    tracer = self.tracer\n"
            "    if tracer is not None:\n"
            "        for seq in self.stranded:\n"
            "            tracer.strand(seq)\n"
        )
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []

    def test_call_outside_loop_clean(self, tmp_path):
        source = "def add(self, tracer, req):\n    tracer.submit(req)\n"
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []

    def test_unrelated_guard_still_flagged(self, tmp_path):
        source = (
            "def run(self, tracer):\n"
            "    while True:\n"
            "        if batch:\n"
            "            tracer.iteration(0, 0.0, 1.0, 4, 2)\n"
        )
        result = lint_snippet(tmp_path, source, select=("OBS001",))
        assert codes(result) == ["OBS001"]

    def test_telemetry_package_exempt(self, tmp_path):
        source = (
            "def flush(self):\n"
            "    for event in queue:\n"
            "        self.tracer.emit(event)\n"
        )
        result = lint_snippet(
            tmp_path,
            source,
            rel_path=f"{SERVING_REL}/telemetry/tracer.py",
            select=("OBS001",),
        )
        assert codes(result) == []

    def test_outside_serving_not_in_scope(self, tmp_path):
        source = (
            "def run(tracer):\n"
            "    for _ in range(3):\n"
            "        tracer.submit(None)\n"
        )
        result = lint_snippet(
            tmp_path,
            source,
            rel_path="src/repro/eval/fixture.py",
            select=("OBS001",),
        )
        assert codes(result) == []

    def test_non_telemetry_call_in_loop_clean(self, tmp_path):
        source = (
            "def run(self):\n"
            "    while True:\n"
            "        self.scheduler.admit(0.0)\n"
        )
        assert codes(lint_snippet(tmp_path, source, select=("OBS001",))) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_inline_disable_silences_code(self, tmp_path):
        source = "import time\nnow = time.time()  # milo: disable=DET001\n"
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_disable_wrong_code_does_not_silence(self, tmp_path):
        source = "import time\nnow = time.time()  # milo: disable=DET002\n"
        assert codes(lint_snippet(tmp_path, source)) == ["DET001"]

    def test_disable_all_silences_everything(self, tmp_path):
        source = "import time\nnow = time.time()  # milo: disable=all\n"
        assert codes(lint_snippet(tmp_path, source)) == []

    def test_multiple_codes(self):
        line = "x = 1  # milo: disable=DET001, RPT001"
        assert suppressed_codes(line) == {"DET001", "RPT001"}

    def test_no_comment(self):
        assert suppressed_codes("x = 1") == frozenset()


# ---------------------------------------------------------------------------
# Baseline round trip
# ---------------------------------------------------------------------------


class TestBaseline:
    SOURCE = "import time\nnow = time.time()\n"

    def test_round_trip_grandfathers_finding(self, tmp_path):
        result = lint_snippet(tmp_path, self.SOURCE)
        assert codes(result) == ["DET001"]

        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, result.all_findings)

        engine = LintEngine(root=tmp_path, baseline_path=baseline_path)
        rerun = engine.run([tmp_path / SERVING_REL / "fixture.py"])
        assert rerun.fresh == []
        assert len(rerun.all_findings) == 1

    def test_baseline_survives_line_shift(self, tmp_path):
        result = lint_snippet(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, result.all_findings)

        # Unrelated edit above the finding shifts its line number.
        target = tmp_path / SERVING_REL / "fixture.py"
        target.write_text("import time\n\n\nnow = time.time()\n", encoding="utf-8")
        engine = LintEngine(root=tmp_path, baseline_path=baseline_path)
        assert engine.run([target]).fresh == []

    def test_new_finding_not_covered(self, tmp_path):
        result = lint_snippet(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, result.all_findings)

        target = tmp_path / SERVING_REL / "fixture.py"
        target.write_text(
            "import time\nnow = time.time()\nlater = time.monotonic()\n",
            encoding="utf-8",
        )
        engine = LintEngine(root=tmp_path, baseline_path=baseline_path)
        rerun = engine.run([target])
        assert [d.code for d in rerun.fresh] == ["DET001"]
        assert "monotonic" in rerun.fresh[0].message

    def test_malformed_baseline_raises(self, tmp_path):
        baseline_path = tmp_path / "lint-baseline.json"
        baseline_path.write_text("not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(baseline_path)

    def test_baseline_file_is_sorted_json(self, tmp_path):
        result = lint_snippet(tmp_path, self.SOURCE)
        baseline_path = tmp_path / "lint-baseline.json"
        write_baseline(baseline_path, result.all_findings)
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == 1
        assert payload["findings"][0]["code"] == "DET001"
        assert payload["findings"][0]["path"] == f"{SERVING_REL}/fixture.py"


# ---------------------------------------------------------------------------
# Engine / CLI behavior
# ---------------------------------------------------------------------------


class TestEngineAndCli:
    def test_syntax_error_is_a_finding(self, tmp_path):
        result = lint_snippet(tmp_path, "def broken(:\n")
        assert codes(result) == [SYNTAX_ERROR_CODE]

    def test_registry_has_all_documented_codes(self):
        assert set(RULE_REGISTRY) == {
            "DET001",
            "DET002",
            "DET003",
            "REG001",
            "SLOT001",
            "RPT001",
            "OBS001",
        }

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            default_rules(("NOPE999",))

    def test_cli_exit_one_on_finding(self, tmp_path, capsys):
        target = tmp_path / SERVING_REL / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nnow = time.time()\n", encoding="utf-8")
        code = lint_main(["--root", str(tmp_path), str(target)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET001" in out
        assert f"{SERVING_REL}/fixture.py:2:" in out

    def test_cli_exit_zero_on_clean(self, tmp_path, capsys):
        target = tmp_path / SERVING_REL / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n", encoding="utf-8")
        assert lint_main(["--root", str(tmp_path), str(target)]) == 0

    def test_cli_exit_two_on_missing_path(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "no/such/dir"])
        assert code == 2

    def test_cli_exit_two_on_bad_select(self, tmp_path, capsys):
        code = lint_main(["--root", str(tmp_path), "--select", "NOPE999", "."])
        assert code == 2

    def test_cli_write_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / SERVING_REL / "fixture.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nnow = time.time()\n", encoding="utf-8")
        assert (
            lint_main(["--root", str(tmp_path), "--write-baseline", str(target)])
            == 0
        )
        assert lint_main(["--root", str(tmp_path), str(target)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_REGISTRY:
            assert code in out


# ---------------------------------------------------------------------------
# Self-run: the repo passes its own linter at HEAD
# ---------------------------------------------------------------------------


class TestSelfRun:
    def test_repo_src_is_clean_at_head(self):
        engine = LintEngine(
            root=REPO_ROOT,
            baseline_path=REPO_ROOT / "lint-baseline.json",
        )
        result = engine.run([REPO_ROOT / "src"])
        assert result.fresh == [], "\n".join(d.render() for d in result.fresh)
        assert result.files_checked > 50

    def test_milo_lint_subcommand_clean_at_head(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--root", str(REPO_ROOT), "src"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
