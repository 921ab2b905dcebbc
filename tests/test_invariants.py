"""The invariant table of ``tools/invariants.py``: it holds on this tree, and
every rule fires, by name and ``file:line``, on a breach planted in a copy
of the files it scans."""

import importlib.util
import re
import shutil
import subprocess
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
    "retired-client-hook-fallback": (
        "README.md", None, "A strategy answers `cohort_" "batchable()`."),
    **{f"one-{call}-call": (SCHEDULER, None, f"{call}()")
       for call in ("run_local_updates", "take_fanout_report", "RoundRecord",
                    "after_round", "restore_run")},
    "retired-report-channels": (
        SERVER_CORE, None, "executor.map(fn, items, ordered=True)"),
    "no-deep-copied-state-store": (
        "src/repro/checkpoint.py", None,
        "copy.deepcopy(fleet.state_store.snapshot())"),
    "no-deep-copied-restored-states": (
        "src/repro/checkpoint.py", None,
        "copy.deepcopy(checkpoint.client_states)"),
    "retired-self-" "contained-form": (
        "tests/test_checkpoint.py", None,
        "# a self-" "contained head inlines every state"),
    "_read_blob-callers": (
        "src/repro/checkpoint.py", None,
        "def compact(path, ref): return _read_blob(path, ref, None)"),
    "_unpickle-callers": (
        "src/repro/checkpoint.py", None,
        "def materialize(blob, path): return _unpickle(blob, path)"),
    "retired-resident-switch": (
        "src/repro/checkpoint.py", None,
        "def spi" "lls(core):\n    return False"),
    "one-remember_accuracy-call": (
        "src/repro/federated/fleet.py", None, "store.remember_accuracy(0, 1.0)"),
    "remember_accuracy-called-in-server-core": (
        SERVER_CORE, None, "store.remember_accuracy(0, 1.0)"),
    "memo-dropped-only-by-fleet": (
        SERVER_CORE, None, "store._remembered.clear()"),
    "states-read-only-through-the-store": (
        SERVER_CORE, None, "state = store._states.get(0)"),
    "queue-entries-through-the-queue": (
        SCHEDULER, None, "event = self.queue._heap[0][2]"),
    "_bind_clients-callers": (
        SERVER_CORE, None,
        "def stray(ids): return _bind_clients(None, None, None, ids, ids)"),
    "one-worker-task": (
        SERVER_CORE, None, "def _evaluation_task(payload):\n    return payload"),
    "retired-second-fan-out": (
        "tests/federated/test_fleet.py", None, "fleet._fa" "cades.clear()"),
    "no-cohort-program-in-server": (
        SERVER_CORE, None, "program = BatchedModel(self.model, 2)"),
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
    "two-self.supervised-lines-in-server": (
        SERVER_CORE, None,
        "if self.supervised:\n    chunks = [[cid] for cid in ids]"),
    "one-stacked-predicate": (
        SERVER_CORE, None,
        "if not (self.config.batch_cohort and batchable_model(self.model)):\n"
        "    chunks = [[cid] for cid in ids]"),
    "_balanced_chunks-callers": (
        SERVER_CORE, None, "def stray(ids): return _balanced_chunks(ids, 2)"),
    "retired-second-benchmark-harness": (".gitignore", None, "BEN" "CH_*.json"),
    "no-wall-clock-in-src": (
        "src/repro/checkpoint.py", None,
        "started = time.perf_" "counter()"),
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


def test_the_tool_runs_on_the_standard_library_alone():
    # -S: no site-packages, so a third-party import would fail here
    done = subprocess.run([sys.executable, "-S",
                           str(ROOT / "tools" / "invariants.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == f"{len(invariants.RULES)} invariants, 0 findings\n"


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


METRICS = "src/repro/systems/metrics.py"
TABLES = "src/repro/experiments/tables.py"

#: what dead-definitions let through when it counted words: each case is a
#: list of plants (file, text to replace or None to append, planted text),
#: the first of which is the unreached definition, and the name it defines
DEAD_DEFINITION_HOLES = {
    # the __init__ import and the __all__ entry are words, not readers
    "named-only-by-a-package-re-export": ([
        (METRICS, None, "def exported_helper():\n    return 0"),
        ("src/repro/systems/__init__.py",
         "from .metrics import RoundRecord, TrainingHistory",
         "from .metrics import RoundRecord, TrainingHistory, exported_helper"),
        ("src/repro/systems/__init__.py", '    "TrainingHistory",\n]',
         '    "TrainingHistory",\n    "exported_helper",\n]'),
    ], "exported_helper"),
    # the word count read def lines only
    "a-class-nobody-instantiates": ([
        (METRICS, None,
         'class OrphanedRecord:\n    """An OrphanedRecord nobody builds."""'),
    ], "OrphanedRecord"),
    # a getattr name is a string
    "a-method-reached-only-through-getattr": ([
        (METRICS, "    def as_rows(self",
         "    def orphaned_probe(self):\n        return 0\n\n"
         "    def as_rows(self"),
        ("src/repro/experiments/tables.py", None,
         'probe = getattr(TrainingHistory, "orphaned_probe")'),
    ], "orphaned_probe"),
    # a docstring is a string
    "named-only-in-a-docstring": ([
        (METRICS, None, "def documented_helper():\n    return 0"),
        (TABLES, None,
         'def stray():\n    """Unlike documented_helper, returns one."""\n'
         "    return 1"),
    ], "documented_helper"),
    # a comment is not in the syntax tree at all
    "named-only-in-a-comment": ([
        (METRICS, None, "def commented_helper():\n    return 0"),
        (TABLES, None, "# commented_helper would return 0 here"),
    ], "commented_helper"),
    # an import binds a name, it does not read one
    "imported-but-never-read": ([
        (METRICS, None, "def imported_helper():\n    return 0"),
        (TABLES, None, "from ..systems.metrics import imported_helper"),
    ], "imported_helper"),
    # a package __init__ is no reader, even where it calls the name
    "called-only-from-a-package-init": ([
        (METRICS, None, "def init_only_helper():\n    return 0"),
        ("src/repro/systems/__init__.py", None,
         "from .metrics import init_only_helper\n\n"
         "DEFAULT = init_only_helper()"),
    ], "init_only_helper"),
}


@pytest.mark.parametrize("hole", sorted(DEAD_DEFINITION_HOLES))
def test_dead_definitions_sees_through_what_a_word_count_cannot(hole,
                                                                tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    plants, name = DEAD_DEFINITION_HOLES[hole]
    lines = [plant(tmp_path / path, old, new) for path, old, new in plants]
    # a word count passes each: the name is a word beyond its def line, or
    # it names a class, and the word count read def lines only
    words = sum(re.findall(r"\w+", (tmp_path / path).read_text()).count(name)
                for path in invariants.Tree(tmp_path).files(("src",), ".py"))
    assert words > 1 or plants[0][2].startswith("class ")
    findings = invariants.check(tmp_path, ["dead-definitions"])
    assert any(finding.startswith(
        f"{plants[0][0]}:{lines[0]}: [dead-definitions] ") and name in finding
        for finding in findings), findings


def test_allowlist_keys_tell_same_named_methods_apart(tmp_path, monkeypatch):
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / METRICS, None, "".join(
        f"\n\nclass {owner}:\n    def orphaned_twin(self):\n        return 0\n"
        for owner in ("First", "Second")))
    monkeypatch.setitem(invariants.DEAD_ALLOWED,
                        f"{METRICS}::First.orphaned_twin", "planted")
    # the line of Second's method
    line = (tmp_path / METRICS).read_text().split("\n").index(
        "class Second:") + 2
    assert [finding for finding in invariants.check(
        tmp_path, ["dead-definitions"]) if "orphaned_twin" in finding] == [
        f"{METRICS}:{line}: [dead-definitions] Second.orphaned_twin is "
        "reached from nowhere in src, bench, examples, benchmarks: delete it "
        "(a test utility moves under tests/)"]


def test_a_stale_allowlist_entry_is_reported(tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / TABLES, None, "rows_of = TrainingHistory.as_rows")
    assert invariants.check(tmp_path, ["dead-definitions"]) == [
        "src/repro/systems/metrics.py: [dead-definitions] DEAD_ALLOWED lists "
        "src/repro/systems/metrics.py::TrainingHistory.as_rows, which is in "
        "use or gone"]


def _dead_findings(root, name):
    return [finding for finding in invariants.check(root, ["dead-definitions"])
            if name in finding]


#: a module under each reader root to plant a call in
READER_MODULES = {"src": TABLES, "bench": "bench/run.py",
                  "examples": "examples/custom_strategy.py",
                  "benchmarks": "benchmarks/conftest.py"}


@pytest.mark.parametrize("root", invariants.READERS)
def test_a_name_under_any_reader_root_reaches_a_definition(root, tmp_path):
    assert sorted(READER_MODULES) == sorted(invariants.READERS)
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / METRICS, None, "def reached_helper():\n    return 0")
    assert _dead_findings(tmp_path, "reached_helper")
    plant(tmp_path / READER_MODULES[root], None, "value = reached_helper()")
    assert _dead_findings(tmp_path, "reached_helper") == []


def test_a_caller_under_tests_reaches_nothing(tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    line = plant(tmp_path / METRICS, None,
                 "def tested_helper():\n    return 0")
    caller = tmp_path / "tests" / "test_tested_helper.py"
    caller.parent.mkdir()
    caller.write_text("from repro.systems.metrics import tested_helper\n\n\n"
                      "def test_it():\n    assert tested_helper() == 0\n")
    assert [finding.split(" is ")[0] for finding in _dead_findings(
        tmp_path, "tested_helper")] == [
        f"{METRICS}:{line}: [dead-definitions] tested_helper"]


def test_dunders_are_exempt(tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / METRICS, "    def as_rows(self",
          "    def __orphaned__(self):\n        return 0\n\n"
          "    def as_rows(self")
    assert invariants.check(tmp_path, ["dead-definitions"]) == []


def test_nested_class_bodies_are_checked_under_qualified_names(tmp_path):
    copy_scanned_files("dead-definitions", tmp_path)
    plant(tmp_path / METRICS, None,
          "class NestOuter:\n    class NestInner:\n"
          "        def nested_probe(self):\n            return 0")
    lines = (tmp_path / METRICS).read_text().split("\n")
    start = lines.index("class NestOuter:") + 1
    assert [finding.split(" is ")[0] for finding in _dead_findings(
        tmp_path, "Nest")] == [
        f"{METRICS}:{start}: [dead-definitions] NestOuter",
        f"{METRICS}:{start + 1}: [dead-definitions] NestOuter.NestInner",
        f"{METRICS}:{start + 2}: [dead-definitions] "
        "NestOuter.NestInner.nested_probe"]


def test_every_allowlist_entry_names_a_source_definition_and_a_reason():
    for key, reason in invariants.DEAD_ALLOWED.items():
        path, qualified = key.split("::")
        assert path.startswith("src/") and (ROOT / path).is_file(), key
        assert re.fullmatch(r"\w+(\.\w+)*", qualified), key
        assert reason.strip(), key
