"""Workload generator tests against the paper's Table 2 / Figures 1-3."""

import pytest

from repro.analysis import SemanticAnalyzer, paper_violations
from repro.sql.parser import try_parse
from repro.sql.render import render
from repro.workloads import (
    CASE_STUDY_QUERIES,
    load_all_workloads,
    load_workload,
    workload_stats,
)
from repro.workloads.statistics import WORD_BUCKETS, figure_histograms, histogram


@pytest.fixture(scope="module")
def workloads():
    return load_all_workloads(seed=0)


class TestSizes:
    def test_sampled_sizes_match_table2(self, workloads):
        assert len(workloads["sdss"]) == 285
        assert len(workloads["sqlshare"]) == 250
        assert len(workloads["join_order"]) == 157
        assert len(workloads["spider"]) == 200

    def test_query_ids_unique(self, workloads):
        for workload in workloads.values():
            ids = [q.query_id for q in workload]
            assert len(set(ids)) == len(ids)

    def test_determinism(self):
        first = load_workload("sdss", seed=3)
        second = load_workload("sdss", seed=3)
        assert [q.text for q in first] == [q.text for q in second]

    def test_seeds_vary_content(self):
        first = load_workload("sdss", seed=1)
        second = load_workload("sdss", seed=2)
        assert [q.text for q in first] != [q.text for q in second]

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            load_workload("tpch")


class TestWellFormedness:
    """Every query parses; every SELECT passes the semantic oracle."""

    @pytest.mark.parametrize(
        "name", ["sdss", "sqlshare", "join_order", "spider"]
    )
    def test_all_queries_parse(self, workloads, name):
        for query in workloads[name]:
            assert query.statement is not None, query.text

    @pytest.mark.parametrize(
        "name", ["sdss", "sqlshare", "join_order", "spider"]
    )
    def test_all_queries_semantically_clean(self, workloads, name):
        workload = workloads[name]
        for query in workload:
            analyzer = SemanticAnalyzer(workload.schema_for(query))
            violations = paper_violations(analyzer.analyze(query.statement))
            assert violations == [], (query.query_id, query.text, violations)

    @pytest.mark.parametrize(
        "name", ["sdss", "sqlshare", "join_order", "spider"]
    )
    def test_parse_render_round_trip_is_exact(self, workloads, name):
        """A builder's AST is the one the parser derives from its text.

        Negative numbers must be built as ``Unary('-', positive)``, the
        parser's normal form; a negative ``Literal`` renders to the same
        text but compares unequal to the reparsed tree.
        """
        for query in workloads[name]:
            statement = query.statement
            assert render(statement) == query.text, query.query_id
            assert try_parse(render(statement)) == statement, query.query_id


class TestSdssDistributions:
    """Figure 1 / Table 2 targets for SDSS."""

    def test_query_type_counts_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.query_type for q in workloads["sdss"])
        assert counts == {
            "SELECT": 251,
            "SET": 11,
            "EXEC": 8,
            "DROP": 6,
            "DECLARE": 4,
            "CREATE": 3,
            "INSERT": 2,
        }

    def test_word_count_buckets_close_to_paper(self, workloads):
        paper = {"1-30": 112, "30-60": 33, "60-90": 14, "90-120": 83, "120+": 43}
        ours = histogram(workloads["sdss"], "word_count", WORD_BUCKETS).as_dict()
        for label, expected in paper.items():
            assert abs(ours[label] - expected) <= 15, (label, ours[label], expected)

    def test_nestedness_counts_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.nestedness for q in workloads["sdss"])
        assert counts[0] == 251
        assert counts[1] == 4
        assert counts[2] == 7
        assert counts[3] == 8
        assert counts[4] == 3
        assert counts[5] == 5
        assert counts[6] == 7

    def test_aggregate_count_exact(self, workloads):
        assert sum(q.properties.aggregate for q in workloads["sdss"]) == 21

    def test_every_query_has_elapsed_time(self, workloads):
        assert all(q.elapsed_ms is not None for q in workloads["sdss"])

    def test_costly_fraction_near_paper(self, workloads):
        costly = sum(1 for q in workloads["sdss"] if q.elapsed_ms > 200)
        assert 25 <= costly <= 60  # paper: 41 / 285


class TestSqlshareDistributions:
    """Figure 2 / Table 2 targets for SQLShare."""

    def test_query_type_counts_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.query_type for q in workloads["sqlshare"])
        assert counts == {"SELECT": 238, "WITH": 10, "CREATE": 1, "WAITFOR": 1}

    def test_nestedness_counts_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.nestedness for q in workloads["sqlshare"])
        assert counts[0] == 211
        assert counts[1] == 28
        assert counts[2] == 7
        assert counts[3] == 2
        assert counts[4] == 1
        assert counts[5] == 1

    def test_aggregate_count_exact(self, workloads):
        assert sum(q.properties.aggregate for q in workloads["sqlshare"]) == 59

    def test_mostly_short_queries(self, workloads):
        ours = histogram(workloads["sqlshare"], "word_count", WORD_BUCKETS).as_dict()
        assert ours["1-30"] >= 150  # paper: 178
        assert ours["1-30"] > 2 * ours["30-60"]

    def test_single_table_dominates(self, workloads):
        single = sum(
            1 for q in workloads["sqlshare"] if q.properties.table_count == 1
        )
        assert single >= 150  # paper: 166

    def test_queries_span_multiple_schemas(self, workloads):
        names = {q.schema_name for q in workloads["sqlshare"]}
        assert len(names) == 5


class TestJoinOrderDistributions:
    """Figure 3 / Table 2 targets for Join-Order."""

    def test_query_type_split_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.query_type for q in workloads["join_order"])
        assert counts == {"SELECT": 113, "CREATE": 44}

    def test_aggregate_count_exact(self, workloads):
        assert sum(q.properties.aggregate for q in workloads["join_order"]) == 119

    def test_predicate_distribution_shape(self, workloads):
        from repro.workloads.statistics import JOIN_ORDER_PREDICATE_BUCKETS

        ours = histogram(
            workloads["join_order"], "predicate_count", JOIN_ORDER_PREDICATE_BUCKETS
        ).as_dict()
        # Paper: 0-1: 44, 2-6: 0, 7-10: 27, 10+: 86 -- "10+" must dominate.
        assert ours["10+"] >= 60
        assert ours["0-1"] >= 35
        assert ours["10+"] > ours["7-10"]

    def test_many_table_joins_present(self, workloads):
        huge = sum(
            1 for q in workloads["join_order"] if q.properties.table_count >= 8
        )
        assert huge >= 30  # paper: 8: 21, 9+: 51

    def test_min_aggregation_style(self, workloads):
        selects = [
            q
            for q in workloads["join_order"]
            if q.properties.query_type == "SELECT"
        ]
        with_min = sum(1 for q in selects if "MIN(" in q.text.upper())
        assert with_min == len(selects)


class TestSpiderDistributions:
    """Table 2 targets for Spider."""

    def test_all_selects(self, workloads):
        assert all(
            q.properties.query_type == "SELECT" for q in workloads["spider"]
        )

    def test_aggregate_split_exact(self, workloads):
        aggregates = sum(q.properties.aggregate for q in workloads["spider"])
        assert aggregates == 96

    def test_nestedness_split_exact(self, workloads):
        from collections import Counter

        counts = Counter(q.properties.nestedness for q in workloads["spider"])
        assert counts == {0: 185, 1: 15}

    def test_every_query_has_description(self, workloads):
        assert all(q.description for q in workloads["spider"])

    def test_case_study_queries_included(self, workloads):
        texts = {q.text for q in workloads["spider"]}
        for _, sql, _ in CASE_STUDY_QUERIES:
            assert sql in texts


class TestTable2Stats:
    def test_stats_row_fields(self, workloads):
        stats = workload_stats(workloads["sdss"])
        row = stats.as_row()
        assert row["sampled"] == 285
        assert row["agg_yes"] == 21
        assert row["SELECT"] == 251

    def test_figure_histograms_cover_expected_properties(self, workloads):
        assert set(figure_histograms(workloads["sdss"])) == {
            "query_type",
            "word_count",
            "table_count",
            "predicate_count",
            "nestedness",
        }
        assert set(figure_histograms(workloads["join_order"])) == {
            "word_count",
            "table_count",
            "predicate_count",
            "function_count",
        }

    def test_histogram_totals(self, workloads):
        for name, workload in workloads.items():
            for hist in figure_histograms(workload).values():
                assert hist.total == len(workload), (name, hist.property_name)
