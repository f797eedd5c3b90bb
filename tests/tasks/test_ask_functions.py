"""Tests for the model-interaction (ask_*) functions.

These exercise the complete prompt -> simulated response -> extraction
path for every task, verifying that extracted labels agree with the
simulation's internal decision (no information loss in the text channel).
"""

import pytest

from repro.llm import SimulatedLLM
from repro.tasks import (
    ask_miss_token,
    ask_performance_pred,
    ask_query_equiv,
    ask_query_exp,
    ask_syntax_error,
    build_miss_token_dataset,
    build_performance_dataset,
    build_query_equiv_dataset,
    build_query_exp_dataset,
    build_syntax_error_dataset,
    explanation_overlap_f1,
)
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def sdss():
    return load_workload("sdss", seed=0)


@pytest.fixture(scope="module")
def model():
    return SimulatedLLM("gpt35")


class TestSyntaxAsk:
    def test_extraction_matches_internal_decision(self, sdss, model):
        dataset = build_syntax_error_dataset(sdss, seed=0)
        for instance in dataset.instances[:60]:
            answer = ask_syntax_error(model, instance)
            response = model.answer_syntax_error(
                instance.instance_id,
                instance.payload["query"],
                instance.workload,
                instance.props,
                truth_has_error=bool(instance.label),
                truth_error_type=instance.label_type,
            )
            assert answer.predicted == response.metadata["says_error"]
            if response.metadata["claimed_type"] is not None:
                assert answer.predicted_type == response.metadata["claimed_type"]

    def test_answer_carries_model_and_text(self, sdss, model):
        dataset = build_syntax_error_dataset(sdss, seed=0)
        answer = ask_syntax_error(model, dataset.instances[0])
        assert answer.model == "gpt35"
        assert answer.response_text


class TestMissTokenAsk:
    def test_position_extraction_round_trip(self, sdss, model):
        dataset = build_miss_token_dataset(sdss, seed=0)
        for instance in dataset.positives[:60]:
            answer = ask_miss_token(model, instance)
            response = model.answer_miss_token(
                instance.instance_id,
                instance.payload["query"],
                instance.workload,
                instance.props,
                truth_missing=True,
                truth_token_type=instance.label_type,
                truth_token=instance.removed_token,
                truth_position=instance.position,
            )
            assert answer.predicted == response.metadata["says_missing"]
            assert answer.predicted_position == response.metadata["claimed_position"]


class TestEquivAsk:
    def test_equivalence_extraction(self, sdss, model):
        dataset = build_query_equiv_dataset(sdss, seed=0, max_pairs=25)
        for instance in dataset.instances:
            answer = ask_query_equiv(model, instance)
            response = model.answer_equivalence(
                instance.instance_id,
                instance.payload["query_1"],
                instance.payload["query_2"],
                instance.workload,
                instance.props,
                truth_equivalent=bool(instance.label),
                truth_pair_type=instance.label_type,
            )
            assert answer.predicted == response.metadata["says_equivalent"]


class TestPerformanceAsk:
    def test_costly_extraction(self, sdss, model):
        dataset = build_performance_dataset(sdss)
        for instance in dataset.instances[:60]:
            answer = ask_performance_pred(model, instance)
            response = model.answer_performance(
                instance.instance_id,
                instance.payload["query"],
                instance.props,
                truth_costly=bool(instance.label),
            )
            assert answer.predicted == response.metadata["says_costly"]


class TestExplanationAsk:
    def test_explanation_and_flaws(self, model):
        spider = load_workload("spider", seed=0)
        dataset = build_query_exp_dataset(spider)
        answer = ask_query_exp(model, dataset.instances[0])
        assert answer.explanation
        assert isinstance(answer.flaws, tuple)


class TestOverlapF1:
    def test_identical_text_scores_one(self):
        assert explanation_overlap_f1("count rows per college", "count rows per college") == 1.0

    def test_disjoint_text_scores_zero(self):
        assert explanation_overlap_f1("apples oranges", "trains planes") == 0.0

    def test_partial_overlap_between(self):
        score = explanation_overlap_f1(
            "count the students per college", "count the players per college"
        )
        assert 0.0 < score < 1.0

    def test_empty_inputs(self):
        assert explanation_overlap_f1("", "anything") == 0.0
        assert explanation_overlap_f1("anything", "") == 0.0

    def test_empty_gold_skips_the_tokenizer(self, monkeypatch):
        """Only query_exp instances carry gold text; for the rest the
        score is 0.0 without tokenizing the model's explanation."""
        import repro.tasks.explanation as explanation

        def tokens(text):
            raise AssertionError(f"tokenized {text!r}")

        monkeypatch.setattr(explanation, "_tokens", tokens)
        assert explanation_overlap_f1("", "Counts the rows per college.") == 0.0

    def test_detail_drop_lowers_score(self):
        gold = "find the name and location of stadiums hosting concerts"
        full = "Find the name and location of stadiums hosting concerts."
        dropped = "Find the name of stadiums hosting concerts."
        assert explanation_overlap_f1(gold, full) > explanation_overlap_f1(
            gold, dropped
        )
