"""Join-Order Benchmark workload generator: 157 queries (Figure 3 / Table 2).

Real JOB queries are ``SELECT MIN(...)`` aggregations over comma-joined
IMDB tables whose join conditions live in the WHERE clause — which is why
the paper measures huge predicate counts (10+ for 86 of 157 queries) and
table counts (9+ for 51).  Quota plan:

* query_type (Table 2): SELECT 113, CREATE 44 (38 DDL + 6 CTAS).
* aggregate (Table 2): 119 yes (113 SELECTs + 6 CTAS), 38 no.
* word_count (Fig 3a): 1-30 ≈ 40 (CREATEs + 2 tiny SELECTs), then an
  increasing tail to 120+ ≈ 47.
* table_count (Fig 3b): bimodal — small CREATE/mini queries vs 5-12-table
  join monsters.
* function_count (Fig 3d): 1-4 MIN() calls per SELECT.
"""

from __future__ import annotations

import random

from repro.schema.imdb import build_imdb_schema
from repro.schema.model import Schema
from repro.sql import nodes as n
from repro.sql.properties import extract_statement_properties
from repro.sql.render import render
from repro.util import derive_rng
from repro.workloads.base import JOIN_ORDER, Workload, WorkloadQuery
from repro.workloads.builders import (
    SourceCtx,
    and_all,
    fk_join_path,
    number_literal,
    random_predicate,
    statement_word_count,
)

#: Conventional JOB table aliases.
_ALIASES: dict[str, str] = {
    "title": "t",
    "kind_type": "kt",
    "movie_companies": "mc",
    "company_name": "cn",
    "company_type": "ct",
    "movie_info": "mi",
    "movie_info_idx": "mi_idx",
    "info_type": "it",
    "cast_info": "ci",
    "name": "na",
    "char_name": "chn",
    "role_type": "rt",
    "movie_keyword": "mk",
    "keyword": "k",
    "aka_name": "an",
    "movie_link": "ml",
    "link_type": "lt",
    "person_info": "pi",
    "complete_cast": "cc",
    "comp_cast_type": "cct",
    "movie_rating": "mr",
}


def generate_join_order(seed: int = 0) -> Workload:
    """Build the deterministic 157-query Join-Order dataset."""
    schema = build_imdb_schema()
    rng = derive_rng("join-order-workload", seed)
    builder = _JobBuilder(schema, rng)
    jobs: list[tuple[n.Statement, str]] = []

    for index in range(38):
        jobs.append((builder.create_ddl(index), "create_ddl"))
    for _ in range(6):
        jobs.append((builder.create_as_select(), "create_as_select"))
    for _ in range(2):
        jobs.append((builder.mini_select(), "mini_select"))
    for _ in range(19):
        jobs.append((builder.job_select(3, rng.randint(34, 56)), "job_small"))
    for _ in range(27):
        jobs.append((builder.job_select(rng.randint(4, 5), rng.randint(62, 86)), "job_mid"))
    for _ in range(24):
        jobs.append(
            (builder.job_select(rng.randint(6, 7), rng.randint(92, 114)), "job_large")
        )
    for _ in range(41):
        jobs.append(
            (builder.job_select(rng.randint(8, 12), rng.randint(122, 190)), "job_huge")
        )

    rng.shuffle(jobs)
    workload = Workload(name=JOIN_ORDER, schemas={schema.name: schema})
    for index, (statement, archetype) in enumerate(jobs):
        text = render(statement)
        query = WorkloadQuery(
            query_id=f"job-{index:04d}",
            text=text,
            workload=JOIN_ORDER,
            schema_name=schema.name,
            archetype=archetype,
        )
        query._statement = statement
        query._properties = extract_statement_properties(statement, text)
        workload.queries.append(query)
    return workload


class _JobBuilder:
    """JOB-style query builders over the IMDB schema."""

    def __init__(self, schema: Schema, rng: random.Random) -> None:
        self.schema = schema
        self.rng = rng

    def _ctxs_for_tables(self, tables: list[str]) -> dict[str, SourceCtx]:
        ctxs = {}
        for name in tables:
            alias = _ALIASES.get(name.lower(), name[:2])
            ctxs[name.lower()] = SourceCtx(
                table=self.schema.table(name), alias=alias
            )
        return ctxs

    def job_select(self, table_count: int, target_words: int) -> n.Statement:
        """The canonical JOB shape: MIN() select over comma joins."""
        rng = self.rng
        edges = fk_join_path(self.schema, rng, table_count - 1, start="title")
        tables: list[str] = []
        for child, _, parent, _ in edges:
            for name in (child, parent):
                if name.lower() not in {t.lower() for t in tables}:
                    tables.append(name)
        ctxs = self._ctxs_for_tables(tables)
        from_items: list[n.TableRef] = [
            n.NamedTable(name=ctx.table.name, alias=ctx.alias)
            for ctx in ctxs.values()
        ]
        join_conditions: list[n.Expr] = [
            n.Binary(
                op="=",
                left=n.ColumnRef(name=child_col, table=ctxs[child.lower()].alias),
                right=n.ColumnRef(name=parent_col, table=ctxs[parent.lower()].alias),
            )
            for child, child_col, parent, parent_col in edges
        ]
        filters: list[n.Expr] = []
        ctx_list = list(ctxs.values())
        for _ in range(rng.randint(1, 3)):
            predicate = random_predicate(rng.choice(ctx_list), rng, qualify=True)
            if predicate is not None:
                filters.append(predicate)
        core = n.SelectCore(
            items=self._min_items(ctx_list, rng.randint(1, 3)),
            from_items=from_items,
            where=and_all(join_conditions + filters),
        )
        statement = n.SelectStatement(query=n.Query(body=core))
        guard = 0
        while statement_word_count(statement) < target_words and guard < 80:
            guard += 1
            if rng.random() < 0.15 and len(core.items) < 4:
                core.items.extend(self._min_items(ctx_list, 1, offset=len(core.items)))
            else:
                predicate = random_predicate(rng.choice(ctx_list), rng, qualify=True)
                if predicate is not None:
                    core.where = n.Binary(op="AND", left=core.where, right=predicate)
        return statement

    def _min_items(
        self, ctxs: list[SourceCtx], count: int, offset: int = 0
    ) -> list[n.SelectItem]:
        items = []
        for index in range(count):
            ctx = self.rng.choice(ctxs)
            column = self.rng.choice(ctx.table.columns)
            items.append(
                n.SelectItem(
                    expr=n.FuncCall(
                        name="MIN",
                        args=[n.ColumnRef(name=column.name, table=ctx.alias)],
                    ),
                    alias=f"{ctx.alias}_{column.name.lower()}_{offset + index}",
                )
            )
        return items

    def mini_select(self) -> n.Statement:
        rng = self.rng
        ctx = SourceCtx(table=self.schema.table("title"))
        core = n.SelectCore(
            items=[
                n.SelectItem(
                    expr=n.FuncCall(
                        name="MIN", args=[n.ColumnRef(name="production_year")]
                    )
                )
            ],
            from_items=[n.NamedTable(name="title")],
        )
        predicate = random_predicate(ctx, rng, qualify=False)
        if predicate is not None:
            core.where = predicate
        return n.SelectStatement(query=n.Query(body=core))

    def create_ddl(self, index: int) -> n.Statement:
        rng = self.rng
        extra_cols = [
            n.ColumnDef(name="note", type_name="VARCHAR(100)"),
            n.ColumnDef(name="score", type_name="FLOAT"),
            n.ColumnDef(name="year", type_name="INT"),
        ]
        columns = [
            n.ColumnDef(name="id", type_name="INT", primary_key=True),
            n.ColumnDef(name="movie_id", type_name="INT", not_null=True),
        ] + rng.sample(extra_cols, k=rng.randint(1, 3))
        return n.CreateTable(name=f"job_scratch_{index}", columns=columns)

    def create_as_select(self) -> n.Statement:
        rng = self.rng
        # The threshold is the second of two draws: the recorded workload
        # (and every dataset fingerprint built from it) takes the first.
        rng.uniform(5.0, 9.0)
        threshold = number_literal(round(rng.uniform(5.0, 9.0), 1))
        core = n.SelectCore(
            items=[
                n.SelectItem(
                    expr=n.FuncCall(
                        name="MIN", args=[n.ColumnRef(name="title", table="t")]
                    ),
                    alias="best_title",
                ),
                n.SelectItem(
                    expr=n.FuncCall(
                        name="MAX", args=[n.ColumnRef(name="rating", table="mr")]
                    ),
                    alias="top_rating",
                ),
            ],
            from_items=[
                n.NamedTable(name="title", alias="t"),
                n.NamedTable(name="movie_rating", alias="mr"),
            ],
            where=n.Binary(
                op="AND",
                left=n.Binary(
                    op="=",
                    left=n.ColumnRef(name="id", table="t"),
                    right=n.ColumnRef(name="movie_id", table="mr"),
                ),
                right=n.Binary(
                    op=">",
                    left=n.ColumnRef(name="rating", table="mr"),
                    right=threshold,
                ),
            ),
        )
        return n.CreateTable(
            name=f"top_movies_{rng.randint(1, 99)}",
            as_query=n.Query(body=core),
        )
