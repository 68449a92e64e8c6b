"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main
from repro.core import load_monitor
from repro.graph.io import read_graph_set, read_stream


@pytest.fixture
def molecule_db(tmp_path):
    path = tmp_path / "db.txt"
    assert main(["generate", "molecules", "--out", str(path), "--count", "12", "--seed", "1"]) == 0
    return path


class TestGenerate:
    def test_molecules(self, molecule_db):
        graphs = read_graph_set(molecule_db)
        assert len(graphs) == 12
        assert all(g.num_vertices >= 4 for _, g in graphs)

    def test_ggen(self, tmp_path):
        path = tmp_path / "syn.txt"
        assert main(
            ["generate", "ggen", "--out", str(path), "--count", "5", "--size", "10"]
        ) == 0
        assert len(read_graph_set(path)) == 5

    def test_queries_from_db(self, tmp_path, molecule_db):
        out = tmp_path / "q.txt"
        assert main(
            [
                "generate", "queries", "--out", str(out),
                "--from-db", str(molecule_db), "--count", "4", "--query-edges", "3",
            ]
        ) == 0
        queries = read_graph_set(out)
        assert len(queries) == 4
        assert all(q.num_edges <= 3 for _, q in queries)

    def test_queries_requires_db(self, tmp_path):
        assert main(["generate", "queries", "--out", str(tmp_path / "q.txt")]) == 2

    def test_reality_stream(self, tmp_path):
        path = tmp_path / "rm.txt"
        assert main(
            [
                "generate", "reality-stream", "--out", str(path),
                "--timestamps", "6", "--devices", "20",
            ]
        ) == 0
        stream = read_stream(path)
        assert len(stream) == 6
        stream.final_graph()  # replayable

    def test_synthetic_stream(self, tmp_path):
        path = tmp_path / "syn_stream.txt"
        assert main(
            [
                "generate", "synthetic-stream", "--out", str(path),
                "--timestamps", "5", "--size", "6", "--density", "sparse",
            ]
        ) == 0
        stream = read_stream(path)
        assert len(stream) == 5
        stream.final_graph()


class TestSearch:
    def test_search_with_verify(self, tmp_path, molecule_db, capsys):
        queries = tmp_path / "q.txt"
        main(
            [
                "generate", "queries", "--out", str(queries),
                "--from-db", str(molecule_db), "--count", "2", "--query-edges", "2",
            ]
        )
        assert main(["search", "--db", str(molecule_db), "--queries", str(queries)]) == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert out.count("q") >= 2

    def test_search_filter_only(self, tmp_path, molecule_db, capsys):
        queries = tmp_path / "q.txt"
        main(
            [
                "generate", "queries", "--out", str(queries),
                "--from-db", str(molecule_db), "--count", "1", "--query-edges", "2",
            ]
        )
        assert main(
            ["search", "--db", str(molecule_db), "--queries", str(queries), "--no-verify"]
        ) == 0
        assert "candidates" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["search", "replay"])
    def test_duplicate_block_names_are_refused(self, tmp_path, capsys, verb):
        # Two blocks named q (A-B, then C-D): keyed by name, the A-B
        # query would vanish and its true match with it.
        dup = tmp_path / "dup.txt"
        dup.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 -\nt # q\nv 0 C\nv 1 D\ne 0 1 -\n")
        flags = {"search": ["--db", str(dup)], "replay": ["--streams", str(dup)]}[verb]
        assert main([verb, "--queries", str(dup), *flags]) == 2
        captured = capsys.readouterr()
        assert "duplicate graph block name 'q'" in captured.err
        assert "matches" not in captured.out


class TestMonitor:
    def test_monitor_replay(self, tmp_path, capsys):
        stream_path = tmp_path / "s.txt"
        main(
            [
                "generate", "synthetic-stream", "--out", str(stream_path),
                "--timestamps", "8", "--size", "6", "--seed", "3",
            ]
        )
        db_path = tmp_path / "base.txt"
        main(["generate", "ggen", "--out", str(db_path), "--count", "1", "--size", "6", "--seed", "3"])
        queries = tmp_path / "q.txt"
        main(
            [
                "generate", "queries", "--out", str(queries),
                "--from-db", str(db_path), "--count", "2", "--query-edges", "2",
            ]
        )
        capsys.readouterr()
        assert main(
            [
                "monitor", "--queries", str(queries), "--streams", str(stream_path),
                "--method", "dsc", "--verify",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "final possible pairs:" in out


class TestExperiment:
    def test_experiment_driver(self, capsys):
        assert main(["experiment", "fig12", "--scale", "smoke"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        assert main(["experiment", "nope", "--scale", "smoke"]) == 2


class TestExperimentExport:
    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "fig12.json"
        assert main(["experiment", "fig12", "--scale", "smoke", "--out", str(out)]) == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["figure_id"] == "Figure 12"

    def test_out_directory_per_figure(self, tmp_path, capsys):
        # A suffix-less --out is treated as a directory: one file per
        # figure, named <figure>.<format>.
        out = tmp_path / "results"
        assert main(
            ["experiment", "fig12", "--scale", "smoke", "--out", str(out),
             "--format", "md"]
        ) == 0
        text = (out / "fig12.md").read_text()
        assert text.startswith("## Figure 12")


@pytest.fixture
def replay_inputs(tmp_path):
    """Queries plus two recorded streams for the replay/serve tests."""
    db_path = tmp_path / "base.txt"
    main(["generate", "ggen", "--out", str(db_path), "--count", "1", "--size", "6", "--seed", "3"])
    queries = tmp_path / "q.txt"
    main(
        [
            "generate", "queries", "--out", str(queries),
            "--from-db", str(db_path), "--count", "2", "--query-edges", "2",
        ]
    )
    streams = []
    for seed in ("3", "5"):
        stream_path = tmp_path / f"s{seed}.txt"
        main(
            [
                "generate", "synthetic-stream", "--out", str(stream_path),
                "--timestamps", "5", "--size", "6", "--seed", seed,
            ]
        )
        streams.append(str(stream_path))
    return str(queries), streams


class TestReplay:
    def test_single_worker_matches_monitor_output(self, replay_inputs, capsys):
        queries, streams = replay_inputs
        assert main(["monitor", "--queries", queries, "--streams", *streams]) == 0
        monitor_out = capsys.readouterr().out
        assert main(["replay", "--queries", queries, "--streams", *streams]) == 0
        replay_out = capsys.readouterr().out
        # Satellite invariant: library and runtime paths report events in
        # the same format (both via events()).
        assert replay_out == monitor_out

    def test_sharded_replay_same_events(self, replay_inputs, capsys):
        queries, streams = replay_inputs
        assert main(["replay", "--queries", queries, "--streams", *streams]) == 0
        single = capsys.readouterr().out
        assert main(
            ["replay", "--queries", queries, "--streams", *streams, "--workers", "2"]
        ) == 0
        sharded = capsys.readouterr().out
        event_lines = [line for line in sharded.splitlines() if not line.startswith("workers:")]
        assert "\n".join(event_lines) + "\n" == single
        assert "batches:" in sharded

    def test_replay_with_live_rescale_same_events(self, replay_inputs, capsys):
        queries, streams = replay_inputs
        assert main(["replay", "--queries", queries, "--streams", *streams]) == 0
        single = capsys.readouterr().out
        assert main(
            [
                "replay", "--queries", queries, "--streams", *streams,
                "--workers", "2", "--rescale-at", "2:4", "--rescale-at", "4:2",
            ]
        ) == 0
        sharded = capsys.readouterr().out
        event_lines = [
            line
            for line in sharded.splitlines()
            if not line.startswith("workers:") and "rescale" not in line
        ]
        assert "\n".join(event_lines) + "\n" == single
        assert "t=2: rescale workers 2->4" in sharded
        assert "t=4: rescale workers 4->2" in sharded
        assert "rescales: 2" in sharded

    def test_replay_with_shm_plane_same_events(self, replay_inputs, capsys):
        queries, streams = replay_inputs
        assert main(["replay", "--queries", queries, "--streams", *streams]) == 0
        single = capsys.readouterr().out
        assert main(
            [
                "replay", "--queries", queries, "--streams", *streams,
                "--workers", "2", "--shm", "--method", "matrix",
            ]
        ) == 0
        sharded = capsys.readouterr().out
        event_lines = [
            line for line in sharded.splitlines() if not line.startswith("workers:")
        ]
        assert "\n".join(event_lines) + "\n" == single

    def test_rescale_and_shm_flags_need_workers(self, replay_inputs):
        queries, streams = replay_inputs
        with pytest.raises(SystemExit):
            main(
                ["replay", "--queries", queries, "--streams", *streams,
                 "--rescale-at", "2:4"]
            )
        with pytest.raises(SystemExit):
            main(["replay", "--queries", queries, "--streams", *streams, "--shm"])

    def test_policy_flag_is_gone(self, replay_inputs):
        """A full worker inbox always blocks: there is no policy to pick."""
        queries, streams = replay_inputs
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["replay", "--queries", queries, "--streams", *streams,
                 "--workers", "1", "--policy", "block"]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("verb", ("replay", "search"))
    def test_depth_below_one_is_a_usage_error(self, replay_inputs, verb, capsys):
        """Refused by argparse (exit 2), not by a ValueError traceback."""
        queries, streams = replay_inputs
        inputs = ["--streams", *streams] if verb == "replay" else ["--db", streams[0]]
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--queries", queries, *inputs, "--depth", "0"])
        assert excinfo.value.code == 2
        assert "--depth: NNT depth must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--probe-rate", "1.5", "probe rate must be in [0, 1], got 1.5"),
            ("--probe-rate", "-0.5", "probe rate must be in [0, 1], got -0.5"),
            ("--probe-rate", "nan", "must be a finite number, got 'nan'"),
            ("--probe-rate", "x", "invalid float value: 'x'"),
            ("--probe-budget-ms", "-1", "probe budget must be >= 0 ms, got -1.0"),
            ("--probe-budget-ms", "inf", "must be a finite number, got 'inf'"),
        ],
    )
    def test_bad_probe_flag_is_a_usage_error(self, replay_inputs, flag, value, message, capsys):
        """Refused by argparse (exit 2), not by a ValueError traceback or
        by running an unbudgeted probe."""
        queries, streams = replay_inputs
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--queries", queries, "--streams", *streams, flag, value])
        assert excinfo.value.code == 2
        assert f"{flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ("nope", "2", "x:3", "2:y", "0:2", "2:0"))
    def test_malformed_rescale_spec_rejected(self, replay_inputs, spec):
        queries, streams = replay_inputs
        with pytest.raises(SystemExit):
            main(
                ["replay", "--queries", queries, "--streams", *streams,
                 "--workers", "2", "--rescale-at", spec]
            )

    def test_repeated_rescale_timestamp_rejected(self, replay_inputs):
        """Two targets for one timestamp are refused, not last-one-wins."""
        queries, streams = replay_inputs
        with pytest.raises(SystemExit, match="repeats timestamp 3"):
            main(
                ["replay", "--queries", queries, "--streams", *streams,
                 "--workers", "2", "--rescale-at", "3:2", "--rescale-at", "3:4"]
            )

    @pytest.mark.parametrize(
        "plan, refusal",
        (
            (["--deregister-at", "2:nope"], "--deregister-at 2:nope: query 'nope' is not registered"),
            (
                ["--register-at", "2:x:{q}", "--register-at", "3:x:{q}"],
                "--register-at 3:x:{q}: query 'x' is already registered",
            ),
            (
                ["--deregister-at", "1:q0", "--deregister-at", "2:q0"],
                "--deregister-at 2:q0: query 'q0' is not registered",
            ),
            (["--register-at", "2::{q}"], "--register-at expects T:ID:FILE[:KEY], got '2::{q}'"),
            (
                ["--workers", "1", "--rescale-at", "99:2", "--deregister-at", "99:q0"],
                "--rescale-at 99:2: the streams end at timestamp 4",
            ),
        ),
        ids=("unknown-id", "register-twice", "deregister-twice", "empty-id", "past-horizon"),
    )
    def test_live_plan_is_refused_before_the_first_timestamp(
        self, replay_inputs, capsys, plan, refusal
    ):
        """One line naming the spec, and no timestamp replayed first."""
        queries, streams = replay_inputs
        plan = [arg.format(q=queries) for arg in plan]
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--queries", queries, "--streams", *streams, *plan])
        assert excinfo.value.code == refusal.format(q=queries)
        assert capsys.readouterr().out == ""

    def test_sharded_replay_with_checkpoints(self, replay_inputs, tmp_path, capsys):
        queries, streams = replay_inputs
        assert main(
            [
                "replay", "--queries", queries, "--streams", *streams,
                "--workers", "2", "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-every", "3",
            ]
        ) == 0
        assert "final possible pairs:" in capsys.readouterr().out
        # One export whatever the worker count, and it opens in process.
        assert not list((tmp_path / "ckpt").glob("shard_*"))
        assert load_monitor(tmp_path / "ckpt").stream_ids()


class TestServe:
    def _serve(self, monkeypatch, capsys, script, extra_args=()):
        import io
        import json
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(script))
        queries = getattr(self, "_queries_path")
        assert main(["serve", "--queries", queries, *extra_args]) == 0
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    @pytest.fixture(autouse=True)
    def _queries(self, replay_inputs):
        self._queries_path = replay_inputs[0]

    @pytest.mark.parametrize(
        "flag",
        (
            ["--rate", "1"],
            ["--breaker-threshold", "1"],
            ["--admission-policy", "shed"],
            ["--dlq-dir", "d"],
        ),
        ids=lambda flag: flag[0],
    )
    def test_overload_and_dead_letter_flags_are_gone(self, flag):
        """One bounded admission queue, and nothing keeps a refused batch."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--queries", self._queries_path, *flag])
        assert excinfo.value.code == 2

    def test_dlq_verb_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dlq", "list"])
        assert excinfo.value.code == 2

    def test_line_protocol_in_process(self, monkeypatch, capsys):
        script = (
            "stream a\n"
            "ins a 1 2 - X Y\n"
            "tick\n"
            "matches\n"
            "stats\n"
            "bogus\n"
            "quit\n"
        )
        responses = self._serve(monkeypatch, capsys, script)
        assert [r["ok"] for r in responses] == [True, True, True, True, True, False, True]
        assert responses[2]["cmd"] == "tick"
        assert responses[2]["t"] == 1
        assert responses[4]["stats"]["num_streams"] == 1
        assert "unknown command" in responses[5]["error"]

    def test_line_protocol_sharded(self, monkeypatch, capsys, tmp_path):
        script = (
            "stream a\n"
            "ins a 1 2 - X Y\n"
            "tick\n"
            "checkpoint\n"
            "poll\n"
            "quit\n"
        )
        responses = self._serve(
            monkeypatch,
            capsys,
            script,
            extra_args=["--workers", "2", "--checkpoint-dir", str(tmp_path / "ck")],
        )
        assert all(r["ok"] for r in responses)
        checkpoint = next(r for r in responses if r["cmd"] == "checkpoint")
        assert checkpoint["checkpoint"]["path"] == str(tmp_path / "ck")
        assert checkpoint["checkpoint"]["num_streams"] == 1
        assert load_monitor(tmp_path / "ck").graph("a").has_edge("1", "2")

    def test_in_process_serve_checkpoints_and_restarts(self, monkeypatch, capsys, tmp_path):
        """``--workers 0`` used to drop ``--checkpoint-dir`` and refuse
        the verb.  Now the verb and ``--checkpoint-every`` write it, and
        the next start on the same directory reads it."""
        flags = ["--workers", "0", "--checkpoint-dir", str(tmp_path / "ck")]
        script = (
            "stream a\nins a 1 2 - X Y\ntick\ncheckpoint\n"
            "ins a 2 3 - Y X\ntick\nins a 3 4 - X Y\ntick\nquit\n"
        )
        first = self._serve(
            monkeypatch, capsys, script, extra_args=[*flags, "--checkpoint-every", "2"]
        )
        assert all(r["ok"] for r in first)
        assert [r["checkpoint"]["generation"] for r in first if r["cmd"] == "checkpoint"] == [1]
        # Two ticks after the verb reach the cadence: generation 2, three edges.
        again = self._serve(monkeypatch, capsys, "stream a\nmatches\nstats\nquit\n", extra_args=flags)
        assert "already monitored" in again[0]["error"]
        assert again[2]["stats"]["streams"]["a"]["num_edges"] == 3
        assert again[1]["matches"] == [list(pair) for pair in sorted(load_monitor(tmp_path / "ck").matches())]

    def test_errors_are_reported_not_fatal(self, monkeypatch, capsys):
        script = (
            "stream a\n"
            "ins a 1 2 - X Y\n"
            "tick\n"
            "ins a 1 2 - X Y\n"
            "tick\n"
            "matches\n"
            "quit\n"
        )
        responses = self._serve(monkeypatch, capsys, script)
        # The duplicate edge insert fails at tick time but the server
        # keeps going and still answers the final commands.
        assert responses[-1]["cmd"] == "quit"
        assert any(not r["ok"] for r in responses)


@pytest.mark.parametrize(
    "argv",
    (
        ["replay", "--queries", "{missing}", "--streams", "{stream}"],
        ["replay", "--queries", "{queries}", "--streams", "{stream}", "{missing}"],
        ["replay", "--queries", "{queries}", "--streams", "{stream}", "--register-at", "2:x:{missing}"],
        ["search", "--db", "{missing}", "--queries", "{queries}"],
        ["serve", "--queries", "{missing}"],
        ["generate", "queries", "--out", "{stream}.out", "--from-db", "{missing}"],
    ),
    ids=("replay-queries", "replay-streams", "replay-register-at", "search-db", "serve", "generate"),
)
def test_missing_input_file_is_a_usage_error(replay_inputs, tmp_path, capsys, argv):
    queries, streams = replay_inputs
    missing = str(tmp_path / "missing.txt")
    argv = [arg.format(missing=missing, queries=queries, stream=streams[0]) for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code not in (0, None)
    assert f"no such file: {missing!r}" in capsys.readouterr().err + str(excinfo.value.code)


def test_lint_verb_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        main(["lint"])
    assert excinfo.value.code == 2


def test_slo_window_reaches_every_rule(replay_inputs, monkeypatch):
    from repro import obs
    from repro.obs import slo

    seen = []

    class Recording(slo.SloEngine):
        def __init__(self, rules=None, **kwargs):
            seen.extend(rules)
            super().__init__(rules=rules, **kwargs)

    monkeypatch.setattr(slo, "SloEngine", Recording)
    queries, streams = replay_inputs
    was_enabled = obs.enabled()
    try:
        assert main(["slo", "--queries", queries, "--streams", *streams, "--window", "7.5"]) in (0, 1)
        with pytest.raises(ValueError, match="window"):  # the rules still check it
            main(["slo", "--queries", queries, "--streams", *streams, "--window", "0"])
    finally:
        if not was_enabled:
            obs.disable()
    assert all(type(rule) is slo.SloRule and rule.window == 7.5 for rule in seen)
    assert [rule._replace(window=60.0) for rule in seen] == list(slo.DEFAULT_RULES)
