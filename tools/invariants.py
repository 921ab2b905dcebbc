"""The repository's "one of each" invariants, checked from one rule table.

:data:`RULES` maps a rule name to a check over the source tree.  A check is
one of four kinds:

* :class:`Absent` -- a retired name or a forbidden idiom matches no line
  under its paths (any text file, so ``README.md``, ``.gitignore`` and
  ``.github/`` too);
* :class:`Count` -- exactly N lines match: a name defined once, a call made
  N times;
* :class:`OnlyIn` -- a pattern appears in exactly the permitted files;
* :class:`Callers` -- a call's permitted sites, as ``path:function`` pairs
  read from the syntax tree;

or a named function, for a check that fits no kind.  Text patterns are
Python regular expressions matched line by line, like ``grep -rn``.

Run ``python tools/invariants.py`` (stdlib only, no options): it checks the
checkout it lives in, prints one ``path:line: [rule] message`` line per
finding and exits 1 if there is any.  Tests call :func:`check` on a
temporary copy instead.
"""

import ast
import re
import sys
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

#: one finding: (repository-relative path, line number or 0, message)
Finding = tuple[str, int, str]


class Tree:
    """The files of one checkout, as git would list them, read once each."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        gitignore = self.root / ".gitignore"
        lines = gitignore.read_text().split("\n") if gitignore.is_file() else []
        self._ignored = [line.rstrip("/") for line in lines
                         if line and not line.startswith("#")]
        self._listing: dict[str, list[str]] = {}
        self._text: dict[str, str] = {}
        self._syntax: dict[str, ast.Module] = {}

    def _is_ignored(self, path: str) -> bool:
        parts = path.split("/")
        for pattern in self._ignored:
            if "/" in pattern:
                if path == pattern or path.startswith(pattern + "/"):
                    return True
            elif any(fnmatch(part, pattern) for part in parts):
                return True
        return "__pycache__" in parts

    def files(self, paths: Iterable[str], suffix: str = "") -> list[str]:
        """Repository-relative files under ``paths`` (files or directories)."""
        for path in paths:
            if path not in self._listing:
                base = self.root / path
                found = [base] if base.is_file() else sorted(base.rglob("*"))
                relative = [file.relative_to(self.root).as_posix()
                            for file in found if file.is_file()]
                self._listing[path] = [file for file in relative
                                       if not self._is_ignored(file)]
        return [file for path in paths for file in self._listing[path]
                if file.endswith(suffix)]

    def text(self, path: str) -> str:
        if path not in self._text:
            self._text[path] = (self.root / path).read_bytes().decode(
                "utf-8", errors="replace")
        return self._text[path]

    def syntax(self, path: str) -> ast.Module:
        if path not in self._syntax:
            self._syntax[path] = ast.parse(self.text(path), filename=path)
        return self._syntax[path]

    def grep(self, pattern: str, paths: Iterable[str]
             ) -> Iterator[tuple[str, int, str]]:
        """``(path, line number, line)`` for every line ``pattern`` matches."""
        compiled = re.compile(pattern, re.MULTILINE)
        for path in self.files(paths):
            text = self.text(path)
            if compiled.search(text) is None:
                continue
            for number, line in enumerate(text.split("\n"), 1):
                if compiled.search(line):
                    yield path, number, line


@dataclass(frozen=True)
class Absent:
    """No line under ``paths`` matches ``pattern``."""

    pattern: str
    paths: tuple[str, ...]

    def __call__(self, tree: Tree) -> Iterator[Finding]:
        for path, number, _ in tree.grep(self.pattern, self.paths):
            yield path, number, f"matches {self.pattern!r}"


@dataclass(frozen=True)
class Count:
    """Exactly ``count`` lines under ``paths`` match ``pattern``.

    Lines that also match ``unless`` (a definition, say) are not counted.
    """

    pattern: str
    paths: tuple[str, ...]
    count: int
    unless: Optional[str] = None

    def __call__(self, tree: Tree) -> Iterator[Finding]:
        hits = [(path, number)
                for path, number, line in tree.grep(self.pattern, self.paths)
                if not (self.unless and re.search(self.unless, line))]
        if len(hits) != self.count:
            message = (f"{len(hits)} lines match {self.pattern!r}, "
                       f"expected {self.count}")
            for path, number in hits or [(self.paths[0], 0)]:
                yield path, number, message


@dataclass(frozen=True)
class OnlyIn:
    """``pattern`` appears under ``paths`` in exactly the files ``files``."""

    pattern: str
    paths: tuple[str, ...]
    files: tuple[str, ...]

    def __call__(self, tree: Tree) -> Iterator[Finding]:
        seen = set()
        for path, number, _ in tree.grep(self.pattern, self.paths):
            seen.add(path)
            if path not in self.files:
                yield (path, number,
                       f"{self.pattern!r} outside {', '.join(self.files)}")
        for path in sorted(set(self.files) - seen):
            yield path, 0, f"{self.pattern!r} no longer appears here"


def _call_sites(module: ast.Module) -> Iterator[tuple[str, ast.Call]]:
    """``(function, call)`` for every call in ``module``.

    A call is listed once per enclosing function (a nested function's call
    counts for its outer function too) and under ``<module>`` when no
    function encloses it.
    """
    def visit(node: ast.AST, scopes: tuple[str, ...]
              ) -> Iterator[tuple[str, ast.Call]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                for scope in scopes or ("<module>",):
                    yield scope, child
            inner = scopes
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scopes + (child.name,)
            yield from visit(child, inner)
    return visit(module, ())


@dataclass(frozen=True)
class Callers:
    """Under ``paths``, ``callee`` is called from exactly ``expected``.

    ``expected`` holds one ``path:function`` entry per call (see
    :func:`_call_sites`); a call by name and a call as a method both count.
    """

    callee: str
    paths: tuple[str, ...]
    expected: tuple[str, ...] = ()

    def __call__(self, tree: Tree) -> Iterator[Finding]:
        calls = [(f"{path}:{scope}", path, node.lineno)
                 for path in tree.files(self.paths, ".py")
                 if self.callee in tree.text(path)
                 for scope, node in _call_sites(tree.syntax(path))
                 if getattr(node.func, "id", getattr(node.func, "attr", ""))
                 == self.callee]
        callers = sorted(caller for caller, _, _ in calls)
        if callers != sorted(self.expected):
            message = (f"{self.callee} is called from {callers}, "
                       f"expected {sorted(self.expected)}")
            for _, path, number in calls or [("", self.paths[0], 0)]:
                yield path, number, message


def scans(*paths: str) -> Callable:
    """Record the paths a named check reads, as the kinds' ``paths`` do."""
    def mark(check: Callable) -> Callable:
        check.paths = paths
        return check
    return mark


#: modules whose strategies' ``evaluates_from_state`` answers are audited
#: by hand; anywhere else an override needs a row in the oracle's OPT_IN
AUDITED = ("src/repro/federated/strategy.py", "src/repro/core/strategy.py",
           "src/repro/baselines/personalized_sparse.py",
           "src/repro/baselines/personalized.py")
MEMO_ORACLE = "tests/federated/test_evaluation_memo.py"


@scans("src", "examples", MEMO_ORACLE)
def evaluates_from_state_opt_in(tree: Tree) -> Iterator[Finding]:
    """No ``evaluates_from_state`` override outside :data:`AUDITED` unless
    the predicate-truth oracle's ``OPT_IN`` names its strategy."""
    opt_in = next((ast.literal_eval(node.value)
                   for node in tree.syntax(MEMO_ORACLE).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", "") == "OPT_IN"), None)
    if opt_in is None:
        yield MEMO_ORACLE, 0, "no OPT_IN set"
        return
    for path in tree.files(("src", "examples"), ".py"):
        if path in AUDITED or "evaluates_from_state" not in tree.text(path):
            continue
        for cls in ast.walk(tree.syntax(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            defined = {item.name for item in cls.body
                       if isinstance(item, ast.FunctionDef)}
            names = {item.value.value for item in cls.body
                     if isinstance(item, ast.Assign)
                     and getattr(item.targets[0], "id", "") == "name"
                     and isinstance(item.value, ast.Constant)}
            if "evaluates_from_state" in defined and not names & opt_in:
                yield (path, cls.lineno,
                       f"{cls.name} overrides evaluates_from_state without "
                       f"an OPT_IN row in {MEMO_ORACLE}")


RUNNER = "src/repro/experiments/runner.py"


@scans(RUNNER)
def run_method_takes_no_strategy(tree: Tree) -> Iterator[Finding]:
    """``run_method`` is defined once and takes no pre-built strategy."""
    found = [node for node in tree.syntax(RUNNER).body
             if isinstance(node, ast.FunctionDef) and node.name == "run_method"]
    if len(found) != 1:
        yield RUNNER, 0, f"{len(found)} run_method definitions, expected 1"
    for node in found:
        arguments = node.args
        if "strategy" in [argument.arg for argument in arguments.posonlyargs
                          + arguments.args + arguments.kwonlyargs]:
            yield (RUNNER, node.lineno,
                   "run_method takes a pre-built strategy; pass a registry "
                   "name and strategy_kwargs")


#: definitions that only tests use, kept on purpose: ``path::Qualified.name``
#: -> why
DEAD_ALLOWED = {
    **{f"src/repro/core/convergence.py::{name}":
       "paper Theorem 1 / Lemma 1, checked by "
       "tests/core/test_bandit_convergence.py; the paper-claims ledger is "
       "to read it"
       for name in ("theorem1_bound", "lemma1_gap_bound", "max_learning_rate",
                    "empirical_parameter_gap", "gradient_norm_trajectory")},
    **{f"src/repro/systems/metrics.py::TrainingHistory.{name}":
       "a TrainingHistory metric the paper-claims ledger is to read"
       for name in ("cumulative_time", "flops_to_accuracy",
                    "accuracy_at_flops", "as_rows")},
    "src/repro/experiments/tables.py::scenario_table":
        "pinned in tests/fixtures/paper_rows_pin.json; the paper-claims "
        "ledger is to read it",
}

#: where a definition under src/ may be reached from
READERS = ("src", "bench", "examples", "benchmarks")


def _definitions(body: list[ast.stmt], prefix: str = ""
                 ) -> Iterator[tuple[str, ast.stmt]]:
    """``(qualified name, node)`` for every ``def`` and ``class`` of a module
    or class body, class bodies searched recursively."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{prefix}{node.name}.")


@scans(*READERS)
def dead_definitions(tree: Tree) -> Iterator[Finding]:
    """Every module-level and class-body ``def``/``class`` under ``src/`` is
    reached, or is in :data:`DEAD_ALLOWED`; dunders are exempt.

    A definition is reached when its name appears as an ``ast.Name`` or an
    ``ast.Attribute`` in a module under :data:`READERS` other than an
    ``__init__.py``.  Strings never count -- not ``__all__``, a docstring or
    a ``getattr`` name -- and neither does an import.  The rule matches
    names, not objects (one call of ``x.run`` reaches every ``run``), so it
    finds a lower bound of what is dead.
    """
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for path in tree.files(READERS, ".py")
             if not path.endswith("__init__.py")
             for node in ast.walk(tree.syntax(path))
             if isinstance(node, (ast.Name, ast.Attribute))}
    dead = {f"{path}::{qualified}": (path, node.lineno)
            for path in tree.files(("src",), ".py")
            for qualified, node in _definitions(tree.syntax(path).body)
            if node.name not in names
            and not re.fullmatch(r"__\w+__", node.name)}
    for key, (path, number) in dead.items():
        if key not in DEAD_ALLOWED:
            yield (path, number,
                   f"{key.split('::')[1]} is reached from nowhere in "
                   f"{', '.join(READERS)}: delete it (a test utility moves "
                   "under tests/)")
    for key in sorted(DEAD_ALLOWED.keys() - dead.keys()):
        yield (key.split("::")[0], 0,
               f"DEAD_ALLOWED lists {key}, which is in use or gone")


Rule = Callable[[Tree], Iterable[Finding]]

SCHEDULER = "src/repro/server/scheduler.py"
SERVER_CORE = "src/repro/server/core.py"
CHECKPOINT = "src/repro/checkpoint.py"

RULES: dict[str, Rule] = {
    # One trainer call site: strategies train through Strategy._train and
    # report through Strategy._report (federated/strategy.py); each trainer
    # family has one entry for any cohort size and BatchedSGD is the one
    # step, so the per-client entries and the dictionary optimizer stay gone.
    "no-trainer-call-in-strategies": Absent(
        r"train_locally\(|train_cohort_batched\(|ClientUpdate\(",
        ("src/repro/baselines", "src/repro/core/strategy.py")),
    "retired-per-client-trainers": Absent(
        r"train_locally\(|learnable_sparse_training\(", ("src", "examples")),
    "retired-dictionary-optimizer": Absent(
        r"apply_gradient_step|class SGD|from \.local import",
        ("src", "examples")),
    # One client hook: a method overrides Strategy.local_updates alone (the
    # base class raises on a subclass that defines local_update or
    # local_update_cohort), so the batchability probe, the per-client
    # sub-model pass and the dense-update helper it chose between stay gone.
    "retired-client-hook-fallback": Absent(
        r"cohort_batchable|_train_submodel\b|_dense_updates",
        ("src", "tests", "examples", "README.md")),
    # One round loop: Scheduler.run is the only one; a second call site of
    # any of these is a re-forked loop body.  One fan-out report channel.
    **{f"one-{call}-call": Count(re.escape(call) + r"\(", (SCHEDULER,), 1)
       for call in ("run_local_updates", "take_fanout_report", "RoundRecord",
                    "after_round", "restore_run")},
    "retired-report-channels": Absent(
        r"ordered=|take_wire_report|take_fault_report", ("src",)),
    # One checkpoint capture, incremental: a boundary pickles the dirty
    # client states only; the full deep copy is the oracle in
    # tests/test_checkpoint_layout.py.
    "no-deep-copied-state-store": Absent(
        r"deepcopy\(.*state_store\.snapshot\(\)", ("src",)),
    # One copy of a restored state: restore_run adopts the states unread,
    # through a copy of the loaded capsule's table, never a deep copy.
    "no-deep-copied-restored-states": Absent(
        r"deepcopy\(.*client_states", ("src",)),
    # One checkpoint form: a head references its blobs, and a loaded
    # capsule is that head plus its table, which is never pickled, so no
    # view materializes states or events into a head of another shape.
    "retired-self-contained-form": Absent(
        r"_ClientStates|_QueuedEvents|self-contained",
        ("src", "tests", "README.md")),
    # One verifier per checkpoint blob: every blob is checked against the
    # SHA-256 its reference carries by _read_blob, whether load_checkpoint
    # (the trust root) checks it in the segment it read once or a later
    # read (a capsule's state or event, a spilled entry, a compaction) goes
    # through BlobTable.read; and only BlobTable.load and read_head
    # unpickle, so a load unpickles nothing but the head.
    "_read_blob-callers": Callers(
        "_read_blob", ("src",),
        (f"{CHECKPOINT}:read", f"{CHECKPOINT}:load_checkpoint")),
    "_unpickle-callers": Callers(
        "_unpickle", ("src",),
        (f"{CHECKPOINT}:load", f"{CHECKPOINT}:read_head")),
    # One resident policy: every committed save of a checkpointed run
    # spills its clean states and queued events, whatever the fleet size,
    # so the manager's fleet-size switch stays gone (the store's and the
    # queue's own spill() are the mechanism, not the switch).
    "retired-resident-switch": Absent(
        r"def spills\b|\.spills\(", ("src", "tests", "examples", "README.md")),
    # One evaluation memo: evaluate_personalized is its only writer and only
    # FleetStateStore's write hooks drop an entry.
    "one-remember_accuracy-call": Count(
        r"remember_accuracy\(", ("src",), 1, unless=r"def remember_accuracy\("),
    "remember_accuracy-called-in-server-core": Count(
        r"remember_accuracy\(", (SERVER_CORE,), 1,
        unless=r"def remember_accuracy\("),
    "memo-dropped-only-by-fleet": OnlyIn(
        r"\._remembered", ("src",), ("src/repro/federated/fleet.py",)),
    # One owner of the stored client states: every read goes through
    # FleetStateStore's loading accessors (get / touch / snapshot), so a
    # state the checkpoint layer spilled is read back wherever it is read.
    "states-read-only-through-the-store": OnlyIn(
        r"\._states\b", ("src",), ("src/repro/federated/fleet.py",)),
    # One reader of the event queue's entries: an event the checkpoint
    # layer spilled sits in the heap as its stub, and EventQueue.pop reads
    # it back, so nothing else may reach into the heap.
    "queue-entries-through-the-queue": OnlyIn(
        r"\._heap\b", ("src",), ("src/repro/server/clock.py",)),
    "evaluates-from-state-opt-in": evaluates_from_state_opt_in,
    # One fan-out: training and evaluation both run through
    # ServerCore._fan_out, whose chunks bind their clients in one binder —
    # inline (the nested task's call counts for _fan_out too) or in the one
    # worker task — so the per-fan-out worker tasks, their binder and the
    # fleet's facade cache stay gone.
    "_bind_clients-callers": Callers(
        "_bind_clients", (SERVER_CORE,),
        (f"{SERVER_CORE}:_fan_out", f"{SERVER_CORE}:inline_task",
         f"{SERVER_CORE}:_fanout_task")),
    "one-worker-task": Count(r"^def \w*_task\(", (SERVER_CORE,), 1),
    "retired-second-fan-out": Absent(
        r"_broadcast_update_task|_broadcast_evaluation_task|_bind_broadcast"
        r"|facade_builds|_facades|transient=",
        ("src", "tests", "examples", "README.md")),
    # The server plans chunks and never builds a stacked program: training
    # and evaluation programs come from federated/ (nn.batched underneath).
    "no-cohort-program-in-server": Absent(
        r"BatchedModel\(|cohort_program\(", ("src/repro/server",)),
    # One chunk planner, one splitter, one row budget: _plan_chunks shapes
    # every training chunk, _balanced_chunks is the only id-list cutter
    # under server/, and the row budget is a constant, not an environment
    # knob.
    "two-_balanced_chunks-calls": Count(
        r"_balanced_chunks\(", ("src",), 2, unless=r"def _balanced_chunks\("),
    "two-chunk-functions-in-server": Count(
        r"def [A-Za-z_]*chunks\(", ("src/repro/server",), 2),
    "no-list-splitting-in-server": Absent(
        r"array_split|np\.split\(|range\(0, len\(", ("src/repro/server",)),
    "one-_CHUNK_ROWS": Count(r"_CHUNK_ROWS = ", ("src",), 1),
    "no-environment-in-server": Absent(r"environ|getenv", ("src/repro/server",)),
    # Supervision picks how a fan-out dispatches, never how it is chunked:
    # the flag's assignment and _fan_out's branch are its only reads.
    "two-self.supervised-lines-in-server": Count(
        r"self\.supervised", ("src/repro/server",), 2),
    # One stacked predicate: whether a chunk runs as a (C, ...) program is
    # read by the task bodies through _trains_stacked alone, so batching
    # never shapes the chunk plan again.
    "one-stacked-predicate": Count(r"batchable_model\(", (SERVER_CORE,), 1),
    "_balanced_chunks-callers": Callers(
        "_balanced_chunks", (SERVER_CORE,),
        (f"{SERVER_CORE}:_plan_chunks", f"{SERVER_CORE}:evaluate_personalized")),
    # One timing system: wall-clock and memory are bench/'s job; the retired
    # second harness, its CLI command and its JSON artifacts stay gone (\b
    # spares benchmarks/' REPRO_BENCH_SCALE knob).
    "retired-second-benchmark-harness": Absent(
        r"repro\.benchmarking|repro bench|run_bench|\bBENCH_",
        ("src", "tests", "benchmarks", "examples", ".github", ".gitignore")),
    # ... and only bench/ reads the clock for telemetry (a time.monotonic
    # deadline is control flow, and stays legal).
    "no-wall-clock-in-src": Absent(r"perf_counter|process_time", ("src",)),
    # One declaration per knob, one grid: an option's dest is its preset
    # field, run_grid is the one grid over run_jobs, every table and figure
    # is run_grid cells and an ablation variant is a (label, name, kwargs)
    # spec.
    "retired-grid-helpers": Absent(
        r"run_sweep|run_scenario_sweep|run_across_datasets",
        ("src", "tests", "examples", "README.md")),
    "retired-ablation-helpers": Absent(
        r"fedlps_with_pattern|fedlps_learnable_fixed_ratio",
        ("src", "tests", "examples", "README.md")),
    "retired-history-rows-helper": Absent(
        r"histories_to_rows", ("src", "tests", "examples", "README.md")),
    "no-hand-copied-override": Absent(
        re.escape('overrides["'), ("src/repro/cli.py",)),
    "run_jobs-callers": Callers("run_jobs", ("src",), (f"{RUNNER}:run_grid",)),
    "run_method-takes-no-strategy": run_method_takes_no_strategy,
    "no-run_method-in-paper-artifacts": Callers(
        "run_method", ("src/repro/experiments/figures.py",
                       "src/repro/experiments/tables.py")),
    # One executor primitive, one supervision loop: a backend implements
    # Executor.submit alone, map_ordered is the base class's, and
    # can_replenish is the one "faults are real" flag.
    "retired-executor-entries": Absent(
        r"map_unordered|run_inline|supports_real_faults",
        ("src", "tests", "examples", "README.md")),
    "one-map_ordered": Count(r"def map_ordered", ("src/repro/parallel",), 1),
    "no-submit-probe": Absent(
        re.escape('hasattr(executor, "submit")'), ("src",)),
    "no-can_replenish-probe": Absent(r'getattr\(.*"can_replenish"', ("src",)),
    # One unfold, one pooling kernel, one flat step: convolutions and max
    # pooling read through nn/conv.py's cached-index gathers (the strided
    # forms are oracles in tests/nn/test_kernel_equivalence.py), and both
    # trainer bodies step whole arenas (nn/arena.py), not key by key.
    "no-strided-unfold": Absent(r"as_strided", ("src/repro/nn",)),
    "no-strided-pooling": Absent(r"position // k::k", ("src/repro/nn",)),
    "no-per-key-step": Absent(
        r"drift\[key\]|live_gradients\(\).items\(\)",
        ("src/repro/core", "src/repro/federated")),
    # One meaning of "a valid number": the finite-only validators of
    # repro.util own every range check (data checks use np.isfinite).
    "finite-checks-only-in-util": OnlyIn(
        r"math\.inf|math\.isfinite", ("src",), ("src/repro/util.py",)),
    # Nothing under src/ lives for its tests alone.
    "dead-definitions": dead_definitions,
}


def check(root: Path, names: Optional[Iterable[str]] = None) -> list[str]:
    """Run the named rules (default: all) over the checkout at ``root``."""
    tree = Tree(root)
    findings = []
    for name in RULES if names is None else names:
        for path, number, message in RULES[name](tree):
            where = f"{path}:{number}" if number else path
            findings.append(f"{where}: [{name}] {message}")
    return findings


def main() -> int:
    findings = check(Path(__file__).resolve().parents[1])
    for finding in findings:
        print(finding)
    print(f"{len(RULES)} invariants, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
