"""The invariant table of ``tools/invariants.py``: it holds on this tree, and
every rule fires, by name and ``file:line``, on a breach planted in a copy
of the files it scans."""

import importlib.util
import shutil
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("invariants",
                                               ROOT / "tools" / "invariants.py")
invariants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = invariants
_spec.loader.exec_module(invariants)

SCHEDULER = "src/repro/server/scheduler.py"
SERVER_CORE = "src/repro/server/core.py"

# rule -> (file, text to replace or None to append, planted text); a retired
# name is written in two pieces so that this file does not match it
MUTATIONS = {
    "no-trainer-call-in-strategies": (
        "src/repro/core/strategy.py", None, "ClientUpdate(client_id=0)"),
    "retired-per-client-trainers": (
        "examples/custom_strategy.py", None, "train_locally(model)"),
    "retired-dictionary-optimizer": (
        "src/repro/federated/__init__.py", None, "from .local import train"),
    **{f"one-{call}-call": (SCHEDULER, None, f"{call}()")
       for call in ("run_local_updates", "take_fanout_report", "RoundRecord",
                    "after_round", "restore_run")},
    "retired-report-channels": (
        SERVER_CORE, None, "executor.map(fn, items, ordered=True)"),
    "no-deep-copied-state-store": (
        "src/repro/checkpoint.py", None,
        "copy.deepcopy(fleet.state_store.snapshot())"),
    "one-remember_accuracy-call": (
        "src/repro/federated/fleet.py", None, "store.remember_accuracy(0, 1.0)"),
    "remember_accuracy-called-in-server-core": (
        SERVER_CORE, None, "store.remember_accuracy(0, 1.0)"),
    "memo-dropped-only-by-fleet": (
        SERVER_CORE, None, "store._remembered.clear()"),
    "two-_evaluate_client-calls": (
        SCHEDULER, None, "_evaluate_client(strategy, client)"),
    "_evaluate_client-in-server-core": (
        SERVER_CORE, None, "_evaluate_client(strategy, client)"),
    "evaluates-from-state-opt-in": (
        "src/repro/baselines/conventional.py", None,
        'class Stray:\n    name = "stray"\n\n'
        "    def evaluates_from_state(self):\n        return True"),
    "two-_balanced_chunks-calls": (SCHEDULER, None, "_balanced_chunks(ids, 2)"),
    "two-chunk-functions-in-server": (
        "src/repro/server/clock.py", None,
        "def _even_chunks(ids):\n    return [ids]"),
    "no-list-splitting-in-server": (
        SERVER_CORE, None, "parts = np.array_split(ids, 2)"),
    "one-_CHUNK_ROWS": ("src/repro/federated/batched.py", None,
                        "_CHUNK_ROWS = 32"),
    "no-environment-in-server": (
        SERVER_CORE, None, 'rows = os.environ.get("ROWS")'),
    "_balanced_chunks-callers": (
        SERVER_CORE, None, "def stray(ids): return _balanced_chunks(ids, 2)"),
    "retired-second-benchmark-harness": (".gitignore", None, "BEN" "CH_*.json"),
    "retired-grid-helpers": ("README.md", None, "Call `run_" "sweep` for a grid."),
    "retired-ablation-helpers": (
        "tests/conftest.py", None, "# fedlps_" "with_pattern(0.5)"),
    "retired-history-rows-helper": (
        "src/repro/experiments/tables.py", None, "rows = histories_" "to_rows(h)"),
    "no-hand-copied-override": (
        "src/repro/cli.py", None, 'overrides["rounds"] = 3'),
    "run_jobs-callers": (
        "src/repro/experiments/tables.py", None,
        "def stray(): return run_jobs([])"),
    "run_method-takes-no-strategy": (
        "src/repro/experiments/runner.py",
        "def run_method(method: str, preset: ExperimentPreset, *,",
        "def run_method(method: str, preset: ExperimentPreset, *, strategy=None,"),
    "no-run_method-in-paper-artifacts": (
        "src/repro/experiments/figures.py", None,
        'def stray(preset): return run_method("fedavg", preset)'),
    "retired-executor-entries": (
        "README.md", None, "`Executor.map_" "unordered` yields as tasks finish."),
    "one-map_ordered": (
        "src/repro/parallel/distributed.py", None,
        "def map_ordered(fn, items):\n    return [fn(item) for item in items]"),
    "no-submit-probe": (
        "src/repro/parallel/supervision.py", None,
        'if hasattr(executor, "submit"):\n    pass'),
    "no-can_replenish-probe": (
        "src/repro/parallel/supervision.py", None,
        'flag = getattr(executor, "can_replenish", False)'),
    "no-strided-unfold": (
        "src/repro/nn/conv.py", None,
        "from numpy.lib.stride_tricks import as_strided"),
    "no-strided-pooling": (
        "src/repro/nn/conv.py", None, "window = x[position // k::k]"),
    "no-per-key-step": (
        "src/repro/core/sparse_training.py", None, "drift[key] = 0.0"),
    "finite-checks-only-in-util": (
        "src/repro/federated/config.py", None,
        "assert 0 < learning_rate < math.inf"),
    "dead-definitions": (
        "src/repro/systems/metrics.py", None,
        "def orphaned_helper():\n    return 0"),
}


def test_the_tree_keeps_every_invariant():
    assert invariants.check(ROOT) == []


def test_every_rule_has_a_mutation_case():
    assert sorted(MUTATIONS) == sorted(invariants.RULES)


def copy_scanned_files(name, destination):
    """Copy the files the rule ``name`` reads into ``destination``."""
    for path in invariants.RULES[name].paths:
        source, target = ROOT / path, destination / path
        if source.is_dir():
            shutil.copytree(source, target,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, target)


def plant(file, old, new):
    """Write the breach into ``file``; return the first line it changed."""
    before = file.read_text()
    after = before + "\n" + new if old is None else before.replace(old, new, 1)
    assert after != before
    file.write_text(after)
    return next(number for number, (was, now) in enumerate(
        zip_longest(before.split("\n"), after.split("\n")), 1) if was != now)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_rule_fires_on_a_planted_breach(name, tmp_path):
    copy_scanned_files(name, tmp_path)
    assert invariants.check(tmp_path, [name]) == []
    path, old, new = MUTATIONS[name]
    line = plant(tmp_path / path, old, new)
    findings = invariants.check(tmp_path, [name])
    assert any(finding.startswith(f"{path}:{line}: [{name}] ")
               for finding in findings), findings


def test_a_stale_allowlist_entry_is_reported(tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / "src/repro/experiments/tables.py", None,
          "rows_of = TrainingHistory.as_rows")
    assert invariants.check(tmp_path, ["dead-definitions"]) == [
        "src/repro/systems/metrics.py: [dead-definitions] DEAD_ALLOWED lists "
        "src/repro/systems/metrics.py::as_rows, which is in use or gone"]
