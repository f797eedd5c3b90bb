"""query_exp task (sections 3.1.3, 4.5).

Spider-only and qualitative in the paper: model explanations are compared
against gold descriptions.  The reproduction scores explanations with a
token-overlap F1 (for aggregate trends) and keeps the per-response flaw
annotations for the section 4.5 case study.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.llm.simulated import SimulatedLLM
from repro.prompts.templates import QUERY_EXP as PROMPT_KEY
from repro.prompts.templates import PromptTemplate, prompt_for
from repro.tasks.base import QUERY_EXP, ModelAnswer, TaskDataset, TaskInstance
from repro.workloads.base import Workload

_STOPWORDS = frozenset(
    "the a an of for in on to and or with from where by is are that "
    "this find show list each every".split()
)


def iter_query_exp_instances(source):
    """Yield query_exp instances lazily, one per query.

    ``source`` is a :class:`Workload` or ``WorkloadStream``; both the
    materialised builder and the streaming engine consume this
    generator, so their instances are identical by construction.
    """
    for query in source:
        yield TaskInstance(
            instance_id=f"{query.query_id}-exp",
            task=QUERY_EXP,
            workload=source.name,
            schema_name=query.schema_name,
            payload={"query": query.text},
            gold_text=query.description,
            source_query_id=query.query_id,
            props=query.properties,
        )


def build_query_exp_dataset(workload: Workload) -> TaskDataset:
    """One instance per Spider query, gold description attached."""
    dataset = TaskDataset(task=QUERY_EXP, workload=workload.name)
    dataset.instances.extend(iter_query_exp_instances(workload))
    return dataset


def parse_query_exp_response(
    instance: TaskInstance,
    text: str,
    model_name: str,
    flaws: tuple[str, ...] = (),
) -> ModelAnswer:
    """Wrap an explanation response; ``flaws`` is simulator provenance.

    Real backends carry no flaw annotations — their explanations are
    scored purely by token overlap against the gold description.
    """
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        explanation=text,
        flaws=tuple(flaws),
    )


def ask_query_exp(
    model: SimulatedLLM,
    instance: TaskInstance,
    prompt: Optional[PromptTemplate] = None,
    statement=None,
) -> ModelAnswer:
    """Prompt the model for an explanation."""
    template = prompt or prompt_for(PROMPT_KEY)
    if statement is None:
        from repro.sql.analysis_cache import try_parse_cached

        statement = try_parse_cached(instance.payload["query"])
    response = model.answer_explanation(
        instance.instance_id,
        instance.payload["query"],
        statement,
        prompt_quality=template.quality,
    )
    return parse_query_exp_response(
        instance,
        response.text,
        model.name,
        flaws=tuple(response.metadata.get("flaws", ())),
    )


def _tokens(text: str) -> set[str]:
    words = re.findall(r"[a-z0-9_]+", text.lower())
    return {w for w in words if w not in _STOPWORDS and len(w) > 1}


def explanation_overlap_f1(gold: str, explanation: str) -> float:
    """Token-overlap F1 between gold description and model explanation.

    A crude but monotone proxy for explanation fidelity: detail-dropping
    lowers recall, hallucinated content lowers precision.  Only
    ``query_exp`` instances carry gold text; without it the score is 0
    and neither text is tokenized.
    """
    if not gold:
        return 0.0
    gold_tokens = _tokens(gold)
    pred_tokens = _tokens(explanation)
    if not gold_tokens or not pred_tokens:
        return 0.0
    overlap = len(gold_tokens & pred_tokens)
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)
