"""Grammar-driven synthetic query generation, stratified by complexity.

The generator emits valid ASTs directly (:mod:`repro.sql.nodes`),
renders them through :mod:`repro.sql.render` (both dialects work), and
never post-processes text — which is what unlocks exact
``parse(render(ast)) == ast`` round-trips, execution on the SQLite
backend, and AST-level corruption downstream.  Every query is derived
from ``(spec, stratum, index, seed)`` alone, so workloads are
deterministic and shard-/cache-friendly: the same spec and seed always
produce byte-identical query text.

Queries are *semantically clean* by construction (the same invariant the
four paper workloads uphold): every predicate is type-correct against
the schema, column references are alias-qualified whenever more than one
source is in scope, HAVING only constrains aggregates, and IN-subqueries
compare key columns along FK edges.
"""

from __future__ import annotations

import random

from repro.llm.describer import describe_statement
from repro.perf.cost_model import simulate_elapsed_ms
from repro.schema.imdb import build_imdb_schema
from repro.schema.model import Schema
from repro.schema.sdss import build_sdss_schema
from repro.sql import nodes as n
from repro.sql.analysis_cache import ensure_capacity
from repro.sql.properties import extract_statement_properties
from repro.sql.render import render
from repro.util import derive_rng
from repro.workloads.base import Workload, WorkloadQuery
from repro.workloads.builders import (
    SourceCtx,
    and_all,
    fk_join_path,
    join_tree_from_edges,
    number_literal,
    random_predicate,
    select_columns,
)
from repro.workloads.synthetic.profiles import Stratum, SyntheticSpec

#: Schema sources a profile/spec can draw from.
SCHEMA_SOURCES = {
    "sdss": build_sdss_schema,
    "imdb": build_imdb_schema,
}

#: Aggregate functions the generator applies to numeric columns; all of
#: them execute unchanged on SQLite.
_AGGREGATES = ("AVG", "MIN", "MAX", "SUM")


def build_schema(source: str) -> Schema:
    """Resolve a spec's schema source name to a built schema."""
    try:
        builder = SCHEMA_SOURCES[source]
    except KeyError:
        raise ValueError(
            f"unknown synthetic schema source {source!r}; "
            f"expected one of {sorted(SCHEMA_SOURCES)}"
        ) from None
    return builder()


class StratumBuilder:
    """Builds one statement for one (stratum, rng) draw."""

    def __init__(self, schema: Schema, stratum: Stratum, rng: random.Random) -> None:
        self.schema = schema
        self.stratum = stratum
        self.rng = rng

    # -- sources -----------------------------------------------------------

    def _single_ctx(self) -> SourceCtx:
        tables = [t for t in self.schema.tables if t.numeric_columns()]
        return SourceCtx(table=self.rng.choice(tables))

    def _sources(self) -> tuple[list[SourceCtx], list[n.TableRef]]:
        """FROM-clause sources for the stratum's join count."""
        if self.stratum.joins <= 0:
            ctx = self._single_ctx()
            return [ctx], [n.NamedTable(name=ctx.table.name)]
        for _ in range(8):  # rare: a walk may dead-end below the target
            edges = fk_join_path(self.schema, self.rng, self.stratum.joins)
            built = join_tree_from_edges(self.schema, edges[: self.stratum.joins])
            if built is not None:
                ctxs, tree = built
                return ctxs, [tree]
        ctx = self._single_ctx()
        return [ctx], [n.NamedTable(name=ctx.table.name)]

    # -- clause builders ---------------------------------------------------

    def _where(self, ctxs: list[SourceCtx], qualify: bool) -> n.Expr | None:
        predicates: list[n.Expr] = []
        guard = 0
        while len(predicates) < self.stratum.predicates and guard < 40:
            guard += 1
            predicate = random_predicate(self.rng.choice(ctxs), self.rng, qualify)
            if predicate is not None:
                predicates.append(predicate)
        return and_all(predicates)

    def _nest_condition(
        self, ctx: SourceCtx, depth: int, qualify: bool
    ) -> n.Expr | None:
        """``key IN (SELECT key FROM next WHERE ... )`` chained *depth* deep.

        The chain walks FK edges outward from ``ctx``; when a table has
        no edge the chain falls back to any numeric column pair, which
        stays type-correct (numerics inter-compare).
        """
        if depth <= 0:
            return None
        edges = [
            edge
            for edge in self.schema.join_edges()
            if ctx.table.name.lower() in (edge[0].lower(), edge[2].lower())
            and edge[0].lower() != edge[2].lower()
        ]
        if edges:
            child, child_col, parent, parent_col = self.rng.choice(edges)
            if ctx.table.name.lower() == child.lower():
                outer_col, inner_table, inner_col = child_col, parent, parent_col
            else:
                outer_col, inner_table, inner_col = parent_col, child, child_col
            inner_ctx = SourceCtx(table=self.schema.table(inner_table))
        else:
            outer = self.rng.choice(ctx.table.numeric_columns())
            outer_col = outer.name
            others = [
                t
                for t in self.schema.tables
                if t.name.lower() != ctx.table.name.lower()
                and t.numeric_columns()
            ]
            inner_ctx = SourceCtx(table=self.rng.choice(others))
            inner_col = self.rng.choice(inner_ctx.table.numeric_columns()).name
        inner_core = n.SelectCore(
            items=[n.SelectItem(expr=n.ColumnRef(name=inner_col))],
            from_items=[n.NamedTable(name=inner_ctx.table.name)],
        )
        conditions: list[n.Expr] = []
        predicate = random_predicate(inner_ctx, self.rng, qualify=False)
        if predicate is not None:
            conditions.append(predicate)
        deeper = self._nest_condition(inner_ctx, depth - 1, qualify=False)
        if deeper is not None:
            conditions.append(deeper)
        inner_core.where = and_all(conditions)
        return n.InSubquery(
            expr=ctx.ref(outer_col, qualify),
            query=n.Query(body=inner_core),
        )

    def _aggregate_core(
        self, ctxs: list[SourceCtx], from_items: list[n.TableRef], qualify: bool
    ) -> n.SelectCore:
        """``SELECT g, AGG(x) ... GROUP BY g [HAVING AGG(y) cmp v]``."""
        group_ctx = self.rng.choice(ctxs)
        group_pool = group_ctx.table.text_columns() or group_ctx.table.columns
        group_col = self.rng.choice(group_pool)
        group_ref = group_ctx.ref(group_col.name, qualify)
        items = [n.SelectItem(expr=group_ref)]
        agg_ctx = self.rng.choice(ctxs)
        numeric = agg_ctx.table.numeric_columns()
        agg_fn = self.rng.choice(_AGGREGATES)
        items.append(
            n.SelectItem(
                expr=n.FuncCall(
                    name=agg_fn, args=[agg_ctx.ref(self.rng.choice(numeric).name, qualify)]
                ),
                alias="agg_value",
            )
        )
        items.append(
            n.SelectItem(expr=n.FuncCall(name="COUNT", args=[n.Star()]), alias="n_rows")
        )
        core = n.SelectCore(items=items, from_items=from_items)
        core.where = self._where(ctxs, qualify)
        core.group_by = [group_ctx.ref(group_col.name, qualify)]
        if self.rng.random() < 0.6:
            having_col = self.rng.choice(numeric)
            spec = having_col.spec
            low = spec.low if spec else 0
            high = spec.high if spec else 1000
            value = round(self.rng.uniform(low, high), 3)
            core.having = n.Binary(
                op=self.rng.choice([">", ">=", "<"]),
                left=n.FuncCall(
                    name="AVG", args=[agg_ctx.ref(having_col.name, qualify)]
                ),
                right=number_literal(value),
            )
        return core

    def _plain_core(
        self, ctxs: list[SourceCtx], from_items: list[n.TableRef], qualify: bool
    ) -> n.SelectCore:
        items = select_columns(ctxs, self.rng, self.stratum.select_width, qualify)
        core = n.SelectCore(items=items, from_items=from_items)
        core.where = self._where(ctxs, qualify)
        nest = self._nest_condition(
            self.rng.choice(ctxs), self.stratum.nesting, qualify
        )
        if nest is not None:
            core.where = (
                nest if core.where is None else n.Binary(op="AND", left=core.where, right=nest)
            )
        return core

    def _order_by(self, core: n.SelectCore) -> list[n.OrderItem]:
        for item in core.items:
            if isinstance(item.expr, n.ColumnRef):
                return [
                    n.OrderItem(
                        expr=n.ColumnRef(
                            name=item.expr.name, table=item.expr.table
                        ),
                        direction=self.rng.choice(["ASC", "DESC", None]),
                    )
                ]
        return []

    # -- entry point -------------------------------------------------------

    def build(self) -> n.Statement:
        ctxs, from_items = self._sources()
        qualify = len(ctxs) > 1
        if self.stratum.aggregate:
            core = self._aggregate_core(ctxs, from_items, qualify)
        else:
            core = self._plain_core(ctxs, from_items, qualify)
        body: n.QueryBody = core
        if self.stratum.set_op is not None:
            # The second branch selects the *same* columns from the same
            # sources (set operators require union-compatible shapes) but
            # filters differently.
            second = n.SelectCore(
                items=[
                    n.SelectItem(expr=n.clone(item.expr), alias=item.alias)
                    for item in core.items
                ],
                from_items=[n.clone(ref) for ref in from_items],
            )
            second.where = self._where(ctxs, qualify)
            second.group_by = [n.clone(expr) for expr in core.group_by]
            op, _, all_suffix = self.stratum.set_op.partition(" ")
            body = n.Compound(
                op=op, left=core, right=second, all=all_suffix == "ALL"
            )
        elif self.stratum.order_by:
            core.order_by = self._order_by(core)
        return n.SelectStatement(query=n.Query(body=body))


def synthetic_total(spec: SyntheticSpec) -> int:
    """Number of queries the spec yields, without generating any."""
    return sum(stratum.instances for stratum in spec.selected_strata())


def iter_synthetic_queries(
    spec: SyntheticSpec, seed: int = 0, schema: Schema | None = None
):
    """Yield the spec's queries lazily, in workload order.

    This is the single source of truth for synthetic query generation:
    :func:`generate_synthetic` materialises this exact stream, and the
    streaming engine consumes it chunk by chunk — so the two paths are
    byte-identical by construction.  The elapsed-ms runtime model draws
    from ONE sequential rng across the whole workload (its internal
    state, including ``gauss`` carry-over, spans query boundaries), which
    is why queries can only be produced front-to-back, never by random
    access into a chunk.
    """
    if schema is None:
        schema = build_schema(spec.schema_source)
    canonical = spec.canonical()
    runtime_rng = derive_rng("synthetic-runtimes", canonical, seed)
    for stratum in spec.selected_strata():
        for index in range(stratum.instances):
            rng = derive_rng("synthetic", canonical, stratum.name, index, seed)
            statement = StratumBuilder(schema, stratum, rng).build()
            text = render(statement)
            props = extract_statement_properties(statement, text)
            query = WorkloadQuery(
                query_id=f"syn-{stratum.name}-{index:04d}",
                text=text,
                workload=canonical,
                schema_name=schema.name,
                description=describe_statement(statement),
                elapsed_ms=simulate_elapsed_ms(props, runtime_rng),
                archetype=stratum.name,
            )
            query._statement = statement
            query._properties = props
            yield query


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> Workload:
    """Generate the deterministic workload a spec describes.

    Query ids are ``syn-<stratum>-<index>`` (the stratum rides along for
    the reporting layer's accuracy-vs-complexity breakdown and is also
    kept in ``WorkloadQuery.archetype``).  Every query carries a
    simulated elapsed-time log entry (so ``performance_pred`` applies)
    and a gold natural-language description (so ``query_exp`` applies).
    """
    schema = build_schema(spec.schema_source)
    workload = Workload(name=spec.canonical(), schemas={schema.name: schema})
    # Size the process memo layer to the run before the first text is
    # parsed: a default-sized LRU thrashes at n=1M (every entry evicted
    # before its first reuse), turning the cache into pure overhead.
    # Only the materialised path does this — the streaming path keeps the
    # default capacity precisely so memory stays bounded by chunk size.
    ensure_capacity(synthetic_total(spec))
    workload.queries.extend(iter_synthetic_queries(spec, seed, schema=schema))
    return workload
