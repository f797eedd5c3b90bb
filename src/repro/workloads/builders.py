"""Shared query-construction helpers for the workload generators.

Every builder produces *semantically clean* queries: type-correct
predicates and fully qualified column references whenever more than one
source is in scope, so that the semantic analyzer reports zero violations
on uncorrupted workload queries (a test-enforced invariant).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.schema.model import ColType, Column, Schema, Table
from repro.sql import nodes as n
from repro.sql.render import render


@dataclass
class SourceCtx:
    """A table with the alias it is referenced by in a query under build."""

    table: Table
    alias: str | None = None

    @property
    def label(self) -> str | None:
        return self.alias

    def ref(self, column_name: str, qualify: bool) -> n.ColumnRef:
        table = self.alias if qualify else None
        return n.ColumnRef(name=column_name, table=table)


def number_literal(value: float | int) -> n.Expr:
    """A number literal in parser normal form (floats rounded to 3 places).

    The parser derives ``-20.5`` as unary minus over a positive literal,
    and schema value specs span negative ranges (SDSS declination), so
    a negative value is built the same way; ``parse(render(ast)) == ast``
    then holds exactly for every statement it ends up in.
    """
    if not isinstance(value, int):
        value = round(value, 3)
    if math.copysign(1, value) < 0:  # -0.0 too: it renders as "-0.0"
        return n.Unary(op="-", operand=number_literal(-value))
    return n.Literal(value=value, kind="number", text=str(value))


def string_literal(value: str) -> n.Literal:
    return n.Literal(value=value, kind="string", text=value)


def and_all(exprs: list[n.Expr]) -> n.Expr | None:
    """Left-associated AND of *exprs* (None when empty)."""
    if not exprs:
        return None
    combined = exprs[0]
    for expr in exprs[1:]:
        combined = n.Binary(op="AND", left=combined, right=expr)
    return combined


def append_condition(core: n.SelectCore, condition: n.Expr) -> None:
    """AND *condition* onto the core's WHERE clause."""
    if core.where is None:
        core.where = condition
    else:
        core.where = n.Binary(op="AND", left=core.where, right=condition)


def pick_numeric_column(
    ctx: SourceCtx, rng: random.Random, exclude: set[str] | None = None
) -> Column | None:
    columns = [
        c
        for c in ctx.table.numeric_columns()
        if exclude is None or c.name.lower() not in exclude
    ]
    return rng.choice(columns) if columns else None


def pick_text_column(ctx: SourceCtx, rng: random.Random) -> Column | None:
    columns = ctx.table.text_columns()
    return rng.choice(columns) if columns else None


def numeric_predicate(
    ctx: SourceCtx, rng: random.Random, qualify: bool
) -> n.Expr | None:
    """A type-correct predicate on a random numeric column."""
    column = pick_numeric_column(ctx, rng)
    if column is None:
        return None
    ref = ctx.ref(column.name, qualify)
    spec = column.spec
    low = spec.low if spec else 0
    high = spec.high if spec else 1000
    style = rng.randrange(4)
    if column.col_type is ColType.INT:
        value = rng.randint(int(low), int(high))
        second = rng.randint(int(low), int(high))
    else:
        value = round(rng.uniform(low, high), 3)
        second = round(rng.uniform(low, high), 3)
    if style == 0:
        op = rng.choice([">", "<", ">=", "<=", "="])
        return n.Binary(op=op, left=ref, right=number_literal(value))
    if style == 1:
        lo, hi = sorted((value, second))
        return n.Between(expr=ref, low=number_literal(lo), high=number_literal(hi))
    if style == 2 and column.col_type is ColType.INT:
        items = sorted({rng.randint(int(low), int(high)) for _ in range(3)})
        return n.InList(expr=ref, items=[number_literal(v) for v in items])
    return n.Binary(op=rng.choice([">", "<"]), left=ref, right=number_literal(value))


def text_predicate(
    ctx: SourceCtx, rng: random.Random, qualify: bool
) -> n.Expr | None:
    """A type-correct predicate on a random text column."""
    column = pick_text_column(ctx, rng)
    if column is None:
        return None
    ref = ctx.ref(column.name, qualify)
    choices = column.spec.choices if column.spec and column.spec.choices else ()
    if choices:
        value = rng.choice(choices)
        if rng.random() < 0.7:
            return n.Binary(op="=", left=ref, right=string_literal(value))
        items = [string_literal(v) for v in rng.sample(choices, k=min(2, len(choices)))]
        return n.InList(expr=ref, items=items)
    return n.Like(expr=ref, pattern=string_literal(rng.choice(["a%", "%x%", "b%"])))


def random_predicate(
    ctx: SourceCtx, rng: random.Random, qualify: bool
) -> n.Expr | None:
    """Numeric-or-text predicate, preferring numeric (as the workloads do)."""
    if rng.random() < 0.75:
        predicate = numeric_predicate(ctx, rng, qualify)
        if predicate is not None:
            return predicate
    predicate = text_predicate(ctx, rng, qualify)
    if predicate is not None:
        return predicate
    return numeric_predicate(ctx, rng, qualify)


def select_columns(
    ctxs: list[SourceCtx],
    rng: random.Random,
    count: int,
    qualify: bool,
) -> list[n.SelectItem]:
    """Pick *count* distinct select-list columns across the given sources."""
    pool: list[tuple[SourceCtx, Column]] = []
    for ctx in ctxs:
        for column in ctx.table.columns:
            pool.append((ctx, column))
    rng.shuffle(pool)
    items: list[n.SelectItem] = []
    seen: set[tuple[str, str]] = set()
    for ctx, column in pool:
        key = (ctx.label or ctx.table.name, column.name.lower())
        if key in seen:
            continue
        seen.add(key)
        items.append(n.SelectItem(expr=ctx.ref(column.name, qualify)))
        if len(items) >= count:
            break
    if not items:
        items.append(n.SelectItem(expr=n.Star()))
    return items


def statement_word_count(statement: n.Statement) -> int:
    return len(render(statement).split())


def pad_select_to_words(
    statement: n.Statement,
    core: n.SelectCore,
    ctxs: list[SourceCtx],
    rng: random.Random,
    target_words: int,
    qualify: bool,
    max_predicates: int | None = None,
) -> None:
    """Grow a SELECT until its rendered text reaches *target_words*.

    Growth alternates between widening the select list and appending
    type-correct predicates; select-list widening switches to expression
    columns once plain columns run out, so arbitrarily long queries stay
    clean.  ``max_predicates`` caps WHERE growth to keep predicate_count
    distributions in range.
    """
    added_predicates = 0
    guard = 0
    while statement_word_count(statement) < target_words and guard < 300:
        guard += 1
        grow_select = rng.random() < 0.62
        if not grow_select and (
            max_predicates is None or added_predicates < max_predicates
        ):
            ctx = rng.choice(ctxs)
            predicate = random_predicate(ctx, rng, qualify)
            if predicate is not None:
                append_condition(core, predicate)
                added_predicates += 1
                continue
        ctx = rng.choice(ctxs)
        existing = {
            (item.expr.table, item.expr.name.lower())
            for item in core.items
            if isinstance(item.expr, n.ColumnRef)
        }
        candidates = [
            c
            for c in ctx.table.columns
            if (ctx.label if qualify else None, c.name.lower()) not in existing
        ]
        if candidates:
            column = rng.choice(candidates)
            core.items.append(n.SelectItem(expr=ctx.ref(column.name, qualify)))
            continue
        column = pick_numeric_column(ctx, rng)
        if column is None:
            continue
        expr = n.Binary(
            op=rng.choice(["+", "-", "*"]),
            left=ctx.ref(column.name, qualify),
            right=number_literal(rng.randint(1, 9)),
        )
        alias = f"expr_{len(core.items)}"
        core.items.append(n.SelectItem(expr=expr, alias=alias))


def join_tree_from_edges(
    schema: Schema,
    edges: list[tuple[str, str, str, str]],
    alias_prefix: str = "t",
) -> tuple[list[SourceCtx], n.TableRef] | None:
    """A left-deep aliased join tree from a connected FK edge walk.

    ``edges`` must come from :func:`fk_join_path` (or satisfy the same
    invariant: after the first edge, every edge connects exactly one new
    table to the already-included set).  Returns the source contexts in
    join order plus the join tree, with every ON condition qualified by
    the table aliases — or None for an empty/degenerate walk.
    """
    if not edges or edges[0][0].lower() == edges[0][2].lower():
        return None
    ctxs: dict[str, SourceCtx] = {}
    order: list[str] = []

    def include(table_name: str) -> SourceCtx:
        key = table_name.lower()
        if key not in ctxs:
            table = schema.table(table_name)
            if table is None:
                raise KeyError(f"edge names unknown table {table_name!r}")
            ctxs[key] = SourceCtx(
                table=table, alias=f"{alias_prefix}{len(ctxs) + 1}"
            )
            order.append(key)
        return ctxs[key]

    child, child_col, parent, parent_col = edges[0]
    left_ctx = include(child)
    right_ctx = include(parent)
    tree: n.TableRef = n.Join(
        left=n.NamedTable(name=left_ctx.table.name, alias=left_ctx.alias),
        right=n.NamedTable(name=right_ctx.table.name, alias=right_ctx.alias),
        condition=n.Binary(
            op="=",
            left=left_ctx.ref(child_col, qualify=True),
            right=right_ctx.ref(parent_col, qualify=True),
        ),
    )
    for child, child_col, parent, parent_col in edges[1:]:
        child_new = child.lower() not in ctxs
        parent_new = parent.lower() not in ctxs
        if child_new == parent_new:  # disconnected or redundant edge
            return None
        new_ctx = include(child if child_new else parent)
        child_ctx, parent_ctx = ctxs[child.lower()], ctxs[parent.lower()]
        tree = n.Join(
            left=tree,
            right=n.NamedTable(name=new_ctx.table.name, alias=new_ctx.alias),
            condition=n.Binary(
                op="=",
                left=child_ctx.ref(child_col, qualify=True),
                right=parent_ctx.ref(parent_col, qualify=True),
            ),
        )
    return [ctxs[key] for key in order], tree


def fk_join_path(
    schema: Schema, rng: random.Random, length: int, start: str | None = None
) -> list[tuple[str, str, str, str]]:
    """A connected chain of FK edges covering up to *length* + 1 tables.

    Returns edges (child_table, child_column, parent_table, parent_column).
    The walk grows a connected set of tables, so rendering the edges as
    join conditions yields a well-formed join graph.
    """
    edges = schema.join_edges()
    if not edges:
        return []
    if start is None:
        first = rng.choice(edges)
    else:
        starting = [e for e in edges if start in (e[0], e[2])]
        first = rng.choice(starting) if starting else rng.choice(edges)
    chosen = [first]
    included = {first[0].lower(), first[2].lower()}
    guard = 0
    while len(included) < length + 1 and guard < 50:
        guard += 1
        frontier = [
            e
            for e in edges
            if (e[0].lower() in included) != (e[2].lower() in included)
        ]
        if not frontier:
            break
        edge = rng.choice(frontier)
        chosen.append(edge)
        included.add(edge[0].lower())
        included.add(edge[2].lower())
    return chosen
