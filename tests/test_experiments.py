"""Integration tests for the experiment harness at smoke scale.

These replay every figure driver end-to-end and check the qualitative
shapes the paper reports (where the smoke scale is large enough to show
them) plus structural invariants of the harness itself.
"""

import pytest

from repro.experiments import (
    ALL_FIGURES,
    DEFAULT,
    ENGINE_METHODS,
    SMOKE,
    PROFILES,
    build_aids_workload,
    build_reality_stream_workload,
    build_synthetic_stream_workload,
    get_scale,
    run_static_method,
    run_stream_method,
)
from repro.experiments.reporting import FigureResult

from .figure_goldens import golden_rows, load_golden


class TestScaleProfiles:
    def test_profiles_resolve(self):
        for name in PROFILES:
            assert get_scale(name).name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale().name == "smoke"


class TestWorkloads:
    def test_static_workload_shape(self):
        workload = build_aids_workload(SMOKE)
        assert len(workload.graphs) == SMOKE.static_db_size
        assert set(workload.query_sets) == set(SMOKE.static_query_sizes)
        for queries in workload.query_sets.values():
            assert len(queries) == SMOKE.static_queries_per_set

    def test_stream_workload_shape(self):
        workload = build_synthetic_stream_workload(SMOKE, "dense")
        assert len(workload.queries) == SMOKE.syn_num_queries
        assert len(workload.streams) == SMOKE.syn_num_streams
        assert workload.timestamps == SMOKE.syn_timestamps

    def test_invalid_density(self):
        with pytest.raises(ValueError):
            build_synthetic_stream_workload(SMOKE, "medium")

    def test_limited_restriction(self):
        workload = build_synthetic_stream_workload(SMOKE, "sparse")
        limited = workload.limited(num_queries=2, num_streams=3, timestamps=3)
        assert len(limited.queries) == 2
        assert len(limited.streams) == 3
        assert limited.timestamps == 3

    def test_reality_workload(self):
        workload = build_reality_stream_workload(SMOKE)
        assert len(workload.queries) == SMOKE.real_num_queries
        assert all(q.is_connected() for q in workload.queries.values())


class TestRunners:
    def test_engine_runner_fields(self):
        workload = build_synthetic_stream_workload(SMOKE, "sparse").limited(timestamps=4)
        result = run_stream_method(workload, "dsc", SMOKE)
        assert result.method == "dsc"
        assert result.timestamps == 3  # 4 timestamps = 3 operations
        assert 0.0 <= result.candidate_ratio <= 1.0
        assert len(result.candidates_per_timestamp) == result.timestamps
        assert result.mean_join_ms_per_timestamp >= 0.0

    def test_engines_report_identical_candidates(self):
        workload = build_synthetic_stream_workload(SMOKE, "dense").limited(timestamps=4)
        series = {
            method: run_stream_method(workload, method, SMOKE).candidates_per_timestamp
            for method in ENGINE_METHODS
        }
        assert len(set(series.values())) == 1

    def test_ratio_over_window(self):
        workload = build_synthetic_stream_workload(SMOKE, "sparse").limited(timestamps=4)
        result = run_stream_method(workload, "dsc", SMOKE)
        assert result.ratio_over(result.timestamps) == pytest.approx(result.candidate_ratio)

    def test_unknown_method_rejected(self):
        workload = build_synthetic_stream_workload(SMOKE, "sparse").limited(timestamps=2)
        with pytest.raises(ValueError):
            run_stream_method(workload, "magic", SMOKE)

    def test_static_runner(self):
        workload = build_aids_workload(SMOKE)
        rows = run_static_method(workload, "npv", SMOKE)
        assert [row.query_size for row in rows] == sorted(SMOKE.static_query_sizes)
        assert all(0.0 <= row.candidate_ratio <= 1.0 for row in rows)

    def test_static_unknown_method(self):
        workload = build_aids_workload(SMOKE)
        with pytest.raises(ValueError):
            run_static_method(workload, "magic", SMOKE)


class TestBaselineSoundness:
    """Every stream method must report a superset of the exact answers."""

    @pytest.mark.parametrize("method", ("dsc", "ggrep", "gindex2"))
    def test_no_false_negatives_on_replay(self, method):
        from repro.graph.operations import apply_operation
        from repro.isomorphism import SubgraphMatcher

        workload = build_synthetic_stream_workload(SMOKE, "dense").limited(
            num_queries=3, num_streams=3, timestamps=3
        )
        result = run_stream_method(workload, method, SMOKE)
        mirrors = {sid: s.initial.copy() for sid, s in workload.streams.items()}
        for t in range(result.timestamps):
            truth = 0
            for sid, stream in workload.streams.items():
                apply_operation(mirrors[sid], stream.operations[t])
                matcher = SubgraphMatcher(mirrors[sid])
                truth += sum(
                    1 for q in workload.queries.values() if matcher.is_subgraph(q)
                )
            assert result.candidates_per_timestamp[t] >= truth


class TestFigureDrivers:
    @pytest.mark.parametrize("figure", sorted(ALL_FIGURES))
    def test_driver_runs_and_renders(self, figure):
        result = ALL_FIGURES[figure].run(SMOKE)
        assert isinstance(result, FigureResult)
        assert result.rows
        rendered = result.render()
        assert result.figure_id in rendered
        assert golden_rows(result) == load_golden(figure, SMOKE)

    @pytest.mark.slow
    @pytest.mark.parametrize("figure", sorted(ALL_FIGURES))
    def test_default_scale_matches_golden(self, figure):
        result = ALL_FIGURES[figure].run(DEFAULT)
        assert golden_rows(result) == load_golden(figure, DEFAULT)

    def test_fig12_depth_monotone(self):
        result = ALL_FIGURES["fig12"].run(SMOKE)
        for dataset in {row["dataset"] for row in result.rows}:
            series = result.series("depth", "candidate_ratio", dataset=dataset)
            ratios = [ratio for _, ratio in sorted(series)]
            assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_fig13_filters_sound_ordering(self):
        result = ALL_FIGURES["fig13"].run(SMOKE)
        # candidate ratios shrink (weakly) as queries grow, per method
        for dataset in {row["dataset"] for row in result.rows}:
            for method in {row["method"] for row in result.rows}:
                series = result.series(
                    "query_size", "candidate_ratio", dataset=dataset, method=method
                )
                sizes_sorted = sorted(series)
                assert sizes_sorted[0][1] >= sizes_sorted[-1][1] - 0.05

    def test_ablation_a1_branch_subset(self):
        result = ALL_FIGURES["ablation_a1"].run(SMOKE)
        by_filter = {row["filter"]: row for row in result.rows}
        assert (
            by_filter["branch compatibility"]["candidate_ratio"]
            <= by_filter["NPV dominance"]["candidate_ratio"] + 1e-9
        )

    def test_ablation_a2_finer_scheme_not_weaker(self):
        result = ALL_FIGURES["ablation_a2"].run(SMOKE)
        paper = {
            row["query_size"]: row["candidate_ratio"]
            for row in result.rows
            if row["scheme"].startswith("paper")
        }
        finer = {
            row["query_size"]: row["candidate_ratio"]
            for row in result.rows
            if not row["scheme"].startswith("paper")
        }
        for size, ratio in finer.items():
            assert ratio <= paper[size] + 1e-9

    def test_ablation_a3_incremental_wins(self):
        result = ALL_FIGURES["ablation_a3"].run(SMOKE)
        by_strategy = {row["strategy"]: row for row in result.rows}
        assert (
            by_strategy["incremental"]["avg_time_ms"]
            < by_strategy["full rebuild"]["avg_time_ms"]
        )
        assert (
            by_strategy["incremental"]["tree_nodes_touched"]
            < by_strategy["full rebuild"]["tree_nodes_touched"]
        )


class TestReporting:
    def test_table_rendering(self):
        result = FigureResult("F", "title")
        result.add(a=1, b=0.123456)
        result.add(a="xyz", c=True)
        table = result.format_table()
        assert "a" in table and "b" in table and "c" in table
        assert "0.123" in table
        assert "(no rows)" in FigureResult("F", "t").format_table()

    def test_series_extraction(self):
        result = FigureResult("F", "title")
        result.add(x=1, y=10, group="g1")
        result.add(x=2, y=20, group="g1")
        result.add(x=1, y=99, group="g2")
        assert result.series("x", "y", group="g1") == [(1, 10), (2, 20)]


class TestExports:
    def _result(self):
        result = FigureResult("Fig X", "demo title")
        result.add(method="a", value=1.5)
        result.add(method="b", value=2, extra="note")
        result.notes.append("a note")
        return result

    def test_csv_round_trip(self):
        import csv
        import io

        rows = list(csv.DictReader(io.StringIO(self._result().to_csv())))
        assert rows[0]["method"] == "a"
        assert rows[1]["extra"] == "note"

    def test_json_structure(self):
        import json

        doc = json.loads(self._result().to_json())
        assert doc["figure_id"] == "Fig X"
        assert len(doc["rows"]) == 2
        assert doc["notes"] == ["a note"]

    def test_markdown_table(self):
        text = self._result().to_markdown()
        assert text.startswith("## Fig X — demo title")
        assert "| method | value | extra |" in text
        assert "*a note*" in text

    def test_save_by_suffix(self, tmp_path):
        result = self._result()
        for suffix, probe in ((".csv", "method,"), (".json", '"figure_id"'), (".md", "## Fig X"), (".txt", "== Fig X")):
            path = tmp_path / f"r{suffix}"
            result.save(path)
            assert probe in path.read_text()


class TestPaperProfile:
    """The 'paper' profile must encode the published sizes exactly."""

    def test_published_sizes(self):
        paper = get_scale("paper")
        assert paper.static_db_size == 10_000
        assert paper.static_queries_per_set == 1_000
        assert paper.static_query_sizes == (4, 8, 12, 16, 20, 24)
        assert paper.syn_num_queries == paper.syn_num_streams == 70
        assert paper.syn_timestamps == 1_000
        assert paper.real_num_queries == paper.real_num_streams == 25
        assert paper.real_num_devices == 97
        assert paper.gindex1_static_max_edges == 10

    def test_all_profiles_share_query_size_grid_prefix(self):
        default = get_scale("default")
        paper = get_scale("paper")
        assert set(get_scale("smoke").static_query_sizes) <= set(paper.static_query_sizes)
        assert default.static_query_sizes == paper.static_query_sizes


class TestWorkloadEdgeCases:
    def test_limited_beyond_available_is_clamped(self):
        workload = build_synthetic_stream_workload(SMOKE, "sparse")
        limited = workload.limited(num_queries=999, num_streams=999)
        assert len(limited.queries) == len(workload.queries)
        assert len(limited.streams) == len(workload.streams)

    def test_workloads_are_deterministic(self):
        first = build_synthetic_stream_workload(SMOKE, "dense", seed=5)
        second = build_synthetic_stream_workload(SMOKE, "dense", seed=5)
        assert first.queries.keys() == second.queries.keys()
        for query_id in first.queries:
            assert first.queries[query_id] == second.queries[query_id]
        for stream_id in first.streams:
            assert (
                first.streams[stream_id].initial == second.streams[stream_id].initial
            )
            assert (
                first.streams[stream_id].operations
                == second.streams[stream_id].operations
            )
