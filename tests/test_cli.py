"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main, non_negative_int, positive

TINY = ["--rounds", "2", "--clients", "5", "--clients-per-round", "2",
        "--local-iterations", "2", "--seed", "1"]

#: the commands that share ``_add_common_arguments``
EXPERIMENT_COMMANDS = ["run", "compare", "table1", "sweep"]

#: misuse of a shared option, and what the one usage line must say
SHARED_OPTION_MISUSE = [
    (["--rounds", "0"], "argument --rounds: '0' is not a positive int"),
    (["--clients", "-3"], "argument --clients: '-3' is not a positive int"),
    (["--clients-per-round", "0"], "is not a positive int"),
    (["--local-iterations", "0"], "is not a positive int"),
    (["--reducer-shards", "0"], "is not a positive int"),
    (["--rounds", "2.5"], "argument --rounds: invalid positive int value"),
    (["--task-timeout", "0"], "is not a positive float"),
    (["--task-timeout", "nan"], "is not a positive float"),
    (["--task-timeout", "inf"], "is not a positive float"),
    (["--max-retries", "-1"], "is not a non-negative int"),
    (["--seed", "-1"], "argument --seed: '-1' is not a non-negative int"),
    (["--seed", "x"], "argument --seed: invalid non_negative_int value"),
    (["--workers", "-2"],
     "argument --workers: '-2' is not a non-negative int"),
    (["--backend", "gpu"], "argument --backend: invalid choice: 'gpu'"),
    (["--codec", "gzip"], "argument --codec: invalid choice: 'gzip'"),
    (["--aggregation", "eventually"], "invalid choice: 'eventually'"),
    (["--fault-plan", "meteor-strike"], "invalid choice: 'meteor-strike'"),
    (["--scenario", "nope"], "argument --scenario: invalid choice: 'nope'"),
    (["--hosts", "a:1"], "--hosts/--worker-token need --backend socket"),
    (["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
]

#: the axes of the retired ``bench`` command
RETIRED_BENCH_AXES = ["fanout", "fleet", "checkpoint", "codec", "faults",
                      "batch", "dist"]


def _assert_usage_error(argv, expected, capsys):
    """``main(argv)`` exits 2 with one usage line — never a traceback."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert expected in captured.err.strip().splitlines()[-1]


class TestArgumentTypes:
    @pytest.mark.parametrize("parse, text, value", [
        (positive(int), "1", 1),
        (positive(int), "12", 12),
        (positive(float), "0.5", 0.5),
        (positive(float), "1e-9", 1e-9),
        (positive(float), "30", 30.0),
        (non_negative_int, "0", 0),
        (non_negative_int, "3", 3),
    ])
    def test_accepts(self, parse, text, value):
        parsed = parse(text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("parse, text, error", [
        (positive(int), "0", argparse.ArgumentTypeError),
        (positive(int), "-1", argparse.ArgumentTypeError),
        (positive(int), "1.5", ValueError),
        (positive(int), "abc", ValueError),
        (positive(int), "", ValueError),
        (positive(float), "0", argparse.ArgumentTypeError),
        (positive(float), "-0.0", argparse.ArgumentTypeError),
        (positive(float), "-2", argparse.ArgumentTypeError),
        (positive(float), "inf", argparse.ArgumentTypeError),
        (positive(float), "-inf", argparse.ArgumentTypeError),
        (positive(float), "nan", argparse.ArgumentTypeError),
        (positive(float), "abc", ValueError),
        (non_negative_int, "-1", argparse.ArgumentTypeError),
        (non_negative_int, "2.5", ValueError),
        (non_negative_int, "x", ValueError),
    ])
    def test_rejects(self, parse, text, error):
        # argparse turns both into a usage error; ArgumentTypeError carries
        # the reason, a ValueError becomes "invalid <__name__> value"
        with pytest.raises(error):
            parse(text)

    def test_names_read_as_usage_text(self):
        assert positive(int).__name__ == "positive int"
        assert positive(float).__name__ == "positive float"
        assert non_negative_int.__name__ == "non_negative_int"


class TestSharedOptionMisuse:
    """Every experiment command validates the options it shares the same
    way: one usage line and exit 2, before any work starts."""

    @pytest.mark.parametrize("command", EXPERIMENT_COMMANDS)
    @pytest.mark.parametrize("argv, expected", SHARED_OPTION_MISUSE)
    def test_exit_2_with_one_usage_error(self, command, argv, expected,
                                         capsys):
        _assert_usage_error([command] + argv, expected, capsys)

    @pytest.mark.parametrize("command", EXPERIMENT_COMMANDS)
    def test_zero_stays_legal(self, command):
        args = build_parser().parse_args(
            [command, "--seed", "0", "--workers", "0", "--max-retries", "0"])
        assert (args.seed, args.workers, args.max_retries) == (0, 0, 0)


class TestBenchCommandIsGone:
    """Timing lives in ``bench/``; the old sub-command has no alias."""

    @pytest.mark.parametrize("argv", [["bench"]] + [
        ["bench", axis, "--check"] for axis in RETIRED_BENCH_AXES])
    def test_invalid_choice(self, argv, capsys):
        _assert_usage_error(argv, "invalid choice: 'bench'", capsys)

    def test_help_lists_no_bench(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "sweep" in text and "bench" not in text


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "fedlps"
        assert args.dataset == "mnist"
        assert args.backend == "serial"
        assert args.workers == 1

    def test_unknown_method_rejected(self, capsys):
        for argv in (["run", "--method", "nope"],
                     ["compare", "--methods", "fedavg", "nope"],
                     ["table1", "--methods", "nope"],
                     ["sweep", "--methods", "nope"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert "invalid choice: 'nope'" in message
            assert "'fedlps'" in message  # lists the strategy registry

    def test_backend_choices(self):
        args = build_parser().parse_args(
            ["run", "--backend", "process", "--workers", "4"])
        assert args.backend == "process"
        assert args.workers == 4
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "gpu"])

    def test_unknown_dataset_or_preset_rejected(self, capsys):
        for argv in (["run", "--dataset", "nope"],
                     ["compare", "--preset", "nope"],
                     ["table1", "--datasets", "mnist", "nope"],
                     ["sweep", "--datasets", "nope"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert "invalid choice: 'nope'" in message
            assert "'mnist-100k'" in message  # lists the preset registry
        # names stay case-insensitive, as preset_for always was
        args = build_parser().parse_args(["run", "--preset", "MNIST"])
        assert args.preset == "mnist"

    def test_nonpositive_counts_rejected(self, capsys):
        for argv in (["run", "--rounds", "0"],
                     ["run", "--clients", "0"],
                     ["compare", "--clients-per-round", "-1"],
                     ["table1", "--local-iterations", "0"],
                     ["sweep", "--reducer-shards", "0"],
                     ["run", "--checkpoint-every", "0"],
                     ["run", "--task-timeout", "0"],
                     ["sweep", "--task-timeout", "inf"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert f"argument {argv[1]}" in message
            assert "is not a positive" in message

    def test_negative_counts_and_stray_hosts_rejected(self, capsys):
        # a message and exit 2, not a ValueError traceback from the config /
        # run_jobs / resolve_executor (or, for --stop-after-round, a silent
        # interruption after round 0); a checkpoint flag without
        # --checkpoint-dir is a usage error too, never silently ignored
        for argv, expected in (
                (["run", "--max-retries", "-1"], "is not a non-negative"),
                (["sweep", "--retries", "-1"], "is not a non-negative"),
                (["run", "--stop-after-round", "-2", "--checkpoint-dir", "d"],
                 "is not a non-negative"),
                (["run", "--seed", "-1"], "is not a non-negative"),
                (["run", "--workers", "-2"], "is not a non-negative"),
                (["run", "--backend", "thread", "--hosts", "a:1"],
                 "need --backend socket"),
                (["sweep", "--worker-token", "secret"],
                 "need --backend socket"),
                (["run", "--resume"], "need --checkpoint-dir"),
                (["run", "--stop-after-round", "1"], "need --checkpoint-dir"),
                (["run", "--checkpoint-every", "3"],
                 "need --checkpoint-dir")):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            message = capsys.readouterr().err.strip().splitlines()[-1]
            assert argv[1] in message and expected in message
        # zero stays legal for every one of them (--workers 0 = auto-sized)
        args = build_parser().parse_args(
            ["run", "--max-retries", "0", "--stop-after-round", "0",
             "--seed", "0", "--workers", "0"])
        assert (args.max_retries, args.stop_after_round, args.seed,
                args.workers) == (0, 0, 0, 0)
        assert build_parser().parse_args(["sweep", "--retries", "0"]) \
            .retries == 0

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert "mnist" in args.datasets
        assert args.methods == ["fedavg", "fedlps"]
        assert not args.no_cache

    def test_aggregation_choices(self):
        args = build_parser().parse_args(["run", "--aggregation", "fedasync"])
        assert args.aggregation == "fedasync"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--aggregation", "eventually"])

    def test_sweep_aggregations_default_to_sync(self):
        args = build_parser().parse_args(["sweep"])
        assert args.aggregations == ["sync"]
        args = build_parser().parse_args(
            ["sweep", "--aggregations", "sync", "fedbuff"])
        assert args.aggregations == ["sync", "fedbuff"]

    def test_codec_choices(self):
        args = build_parser().parse_args(["run", "--codec", "sparse"])
        assert args.codec == "sparse"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--codec", "gzip"])

    def test_sweep_codecs_default_to_dense(self):
        args = build_parser().parse_args(["sweep"])
        assert args.codecs == ["dense"]
        args = build_parser().parse_args(
            ["sweep", "--codecs", "sparse", "int8"])
        assert args.codecs == ["sparse", "int8"]

    def test_fault_plan_choices(self):
        args = build_parser().parse_args(
            ["run", "--fault-plan", "chaos", "--max-retries", "3",
             "--task-timeout", "30"])
        assert args.fault_plan == "chaos"
        assert args.max_retries == 3
        assert args.task_timeout == 30.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fault-plan",
                                       "meteor-strike"])

    def test_batch_cohort_spellings(self, capsys):
        from repro.cli import _preset_overrides

        for command in ("run", "sweep"):
            parse = build_parser().parse_args
            # unset = the preset's own value: no override at all
            assert parse([command]).batch_cohort is None
            assert "batch_cohort" not in _preset_overrides(parse([command]))
            for flag, value in (("--batch-cohort", True),
                                ("--no-batch-cohort", False)):
                args = parse([command, flag])
                assert args.batch_cohort is value
                assert _preset_overrides(args)["batch_cohort"] is value
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--batch-cohort, --no-batch-cohort" in text
        assert "--no-batch-cohort selects the per-client loop" in text
        assert "default: the preset's value (on for mnist-100k" in text

    def test_fault_flags_default_off(self):
        for command in ("run", "sweep"):
            args = build_parser().parse_args([command])
            assert args.fault_plan is None
            assert args.task_timeout is None
            assert args.max_retries is None


class TestCommands:
    def test_list_prints_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fedlps" in out and "fedavg" in out

    def test_run_prints_summary(self, capsys):
        assert main(["run", "--method", "fedavg", "--dataset", "mnist"] + TINY) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "accuracy" in out

    @pytest.mark.parametrize("method", ["fedlps", "p-ucbv"])
    def test_run_on_a_fleet_smaller_than_the_cohort(self, method, capsys):
        # default clients_per_round (4) > 3 clients: selection clamps to the
        # fleet, and so must the bandit's selection fraction
        assert main(["run", "--method", method, "--dataset", "mnist",
                     "--clients", "3", "--rounds", "2",
                     "--local-iterations", "1"]) == 0
        assert method in capsys.readouterr().out

    def test_compare_prints_one_row_per_method(self, capsys):
        assert main(["compare", "--methods", "fedavg", "fedlps",
                     "--dataset", "mnist"] + TINY) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out and "fedlps" in out

    def test_table1_subset(self, capsys):
        assert main(["table1", "--datasets", "mnist",
                     "--methods", "fedavg", "fedlps"] + TINY) == 0
        out = capsys.readouterr().out
        assert "fedlps" in out

    def test_table1_with_thread_backend_matches_serial(self, capsys):
        argv = ["table1", "--datasets", "mnist",
                "--methods", "fedavg", "fedlps"] + TINY
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--backend", "thread", "--workers", "2"]) == 0
        thread_out = capsys.readouterr().out
        assert thread_out == serial_out

    def test_run_with_thread_backend_matches_serial(self, capsys):
        assert main(["run", "--method", "fedavg", "--dataset", "mnist"]
                    + TINY) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "--method", "fedavg", "--dataset", "mnist",
                     "--backend", "thread", "--workers", "2"] + TINY) == 0
        thread_out = capsys.readouterr().out
        assert thread_out == serial_out

    def test_run_with_recovered_chaos_matches_clean_run(self, capsys):
        """Supervised retries absorb the injected faults: same summary."""
        argv = ["run", "--method", "fedavg", "--dataset", "mnist"] + TINY
        assert main(argv) == 0
        clean_out = capsys.readouterr().out
        assert main(argv + ["--fault-plan", "chaos", "--max-retries", "4",
                            "--task-timeout", "30"]) == 0
        chaos_out = capsys.readouterr().out
        assert chaos_out == clean_out

    def test_run_with_fedasync_aggregation(self, capsys):
        assert main(["run", "--method", "fedavg", "--dataset", "mnist",
                     "--scenario", "flaky", "--aggregation", "fedasync"]
                    + TINY) == 0
        out = capsys.readouterr().out
        assert "fedasync" in out and "accuracy" in out

    def test_run_with_sparse_codec_matches_dense(self, capsys):
        assert main(["run", "--method", "fedlps"] + TINY) == 0
        dense_out = capsys.readouterr().out
        assert main(["run", "--method", "fedlps", "--codec", "sparse"]
                    + TINY) == 0
        sparse_out = capsys.readouterr().out
        # lossless wire codec: the summary table is bit-identical
        assert sparse_out == dense_out

    def test_sweep_grids_over_codecs(self, capsys, tmp_path):
        argv = ["sweep", "--datasets", "mnist", "--methods", "fedlps",
                "--codecs", "dense", "int8",
                "--cache-dir", str(tmp_path / "cache")] + TINY
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "codec" in out and "int8" in out
        assert "wire_upload_bytes" in out
        assert "2 miss(es)" in out

    def test_sweep_grids_over_aggregations(self, capsys, tmp_path):
        argv = ["sweep", "--datasets", "mnist", "--methods", "fedavg",
                "--scenarios", "flaky", "--aggregations", "sync", "fedasync",
                "--cache-dir", str(tmp_path / "cache")] + TINY
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "fedasync" in out
        assert "2 miss(es)" in out

    def test_sweep_writes_and_reuses_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["sweep", "--datasets", "mnist",
                "--methods", "fedavg", "fedlps",
                "--cache-dir", cache_dir] + TINY
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hit(s)" in second
        # cached rows must be identical to the freshly computed ones
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_sweep_no_cache(self, capsys, tmp_path):
        assert main(["sweep", "--datasets", "mnist", "--methods", "fedavg",
                     "--no-cache", "--cache-dir",
                     str(tmp_path / "unused")] + TINY) == 0
        out = capsys.readouterr().out
        assert "fedavg" in out
        assert "cache:" not in out
        assert not (tmp_path / "unused").exists()


class TestResumeFailures:
    """A checkpoint that cannot be resumed is bad input: one stderr line
    naming the file and the remedy, exit 2 — never a traceback."""

    RUN = ["run", "--method", "fedlps", "--dataset", "mnist", "--rounds", "3",
           "--clients", "5", "--clients-per-round", "2",
           "--local-iterations", "1"]

    def _interrupted(self, directory, capsys):
        args = self.RUN + ["--checkpoint-dir", str(directory)]
        assert main(args + ["--stop-after-round", "0"]) == 3
        capsys.readouterr()
        return args + ["--resume"]

    def _assert_refused(self, args, capsys, *fragments):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "Traceback" not in captured.err
        for fragment in ("checkpoint", "delete") + fragments:
            assert fragment in lines[0]
        if "fall back" not in fragments:
            assert "fall back" not in lines[0]

    def test_corrupt_head(self, tmp_path, capsys):
        args = self._interrupted(tmp_path, capsys)
        head = tmp_path / "checkpoint-000001.pkl"
        data = bytearray(head.read_bytes())
        data[len(data) // 2] ^= 0xFF
        head.write_bytes(data)
        self._assert_refused(args, capsys, "checkpoint-000001.pkl",
                             "corrupt", "fall back")

    def test_corrupt_and_missing_segment(self, tmp_path, capsys):
        args = self._interrupted(tmp_path, capsys)
        segment = tmp_path / "blobs-000001.bin"
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0x01
        segment.write_bytes(data)
        # heads share segments: no fallback to an older head is promised
        self._assert_refused(args, capsys, "blobs-000001.bin",
                             "older ones included")
        segment.unlink()
        self._assert_refused(args, capsys, "blobs-000001.bin", "missing",
                             "older ones included")

    def test_digest_mismatch(self, tmp_path, capsys):
        args = self._interrupted(tmp_path, capsys)
        self._assert_refused(args + ["--seed", "99"], capsys,
                             "different run", str(tmp_path))

    def test_no_batch_cohort_resumes_a_looped_fleet_preset_checkpoint(
            self, tmp_path, capsys):
        """``mnist-100k`` trains stacked by default; a checkpoint of it
        written by the loop (what every one written before the preset opted
        in is) holds ``batch_cohort=False`` in its run digest."""
        run = ["run", "--method", "fedlps", "--preset", "mnist-100k",
               "--clients", "40", "--clients-per-round", "5",
               "--checkpoint-dir", str(tmp_path)]
        assert main(run + ["--no-batch-cohort", "--stop-after-round",
                           "0"]) == 3
        capsys.readouterr()
        self._assert_refused(run + ["--resume"], capsys, "different run")
        assert main(run + ["--no-batch-cohort", "--resume"]) == 0
        looped = capsys.readouterr().out
        assert main(run[:-2]) == 0
        assert capsys.readouterr().out == looped

