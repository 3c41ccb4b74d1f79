"""Hypothesis strategies generating random well-typed λNRC queries, and
the trap stores (:func:`trap_stores`) every suite checks them over.

Strategy: first draw a *type plan* (a nested bag/record/base structure),
then draw a query producing exactly that plan, so unions always join
branches of identical type.  Generated queries exercise:

* multi-generator comprehensions over the organisation tables,
* unions (including empty branches and 3-way top-level unions),
  where-conditions with ∧/∨/¬,
* correlated ``empty`` probes (anti-joins),
* nested bags up to depth 3,
* gratuitous β-redexes and bag-typed conditionals, so normalisation always
  has real work to do,
* optionally (``with_params=True`` / :func:`queries_with_bindings`) typed
  host-parameter placeholders, with bindings generated for exactly the
  parameters the drawn term uses — the PR 4 prepared-statement path under
  randomisation.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.data.organisation import ORGANISATION_SCHEMA
from repro.nrc import builders as b
from repro.nrc.ast import App, Empty, If, Lam, Param, Term, Var
from repro.nrc.types import BOOL, INT, STRING, BaseType

_TABLES = {
    "departments": ORGANISATION_SCHEMA.table("departments"),
    "employees": ORGANISATION_SCHEMA.table("employees"),
    "tasks": ORGANISATION_SCHEMA.table("tasks"),
    "contacts": ORGANISATION_SCHEMA.table("contacts"),
}

_LABELS = ["f1", "f2", "f3"]

#: Host-parameter pool: one fixed name per base type, so every occurrence
#: of a name carries one type (the signature rule `collect_param_specs`
#: enforces) while a term may still use several parameters.
_PARAM_POOL = {
    INT: ("p_int", "p_lo"),
    STRING: ("p_str",),
    BOOL: ("p_flag",),
}

#: Values drawn for generated bindings, per base type.
_PARAM_VALUES = {
    INT: st.integers(-3, 3),
    STRING: st.sampled_from(["Sales", "Product", "Cora", "build", "zzz"]),
    BOOL: st.booleans(),
}


class _Plan:
    pass


class _BagPlan(_Plan):
    def __init__(self, element):
        self.element = element


class _RecordPlan(_Plan):
    def __init__(self, fields):
        self.fields = fields  # list[(label, _Plan)]


class _BasePlan(_Plan):
    def __init__(self, base: BaseType):
        self.base = base


@st.composite
def type_plans(draw, depth: int = 2) -> _Plan:
    """A random result-type plan: Bag ⟨…⟩ with nesting up to ``depth``."""
    return _BagPlan(draw(_record_plan(depth)))


@st.composite
def _record_plan(draw, depth: int) -> _Plan:
    n_fields = draw(st.integers(1, 3))
    fields = []
    for i in range(n_fields):
        if depth > 0 and draw(st.booleans()) and i == n_fields - 1:
            fields.append((_LABELS[i], _BagPlan(draw(_leafy_plan(depth - 1)))))
        else:
            fields.append(
                (_LABELS[i], _BasePlan(draw(st.sampled_from([INT, STRING, BOOL]))))
            )
    return _RecordPlan(fields)


@st.composite
def _leafy_plan(draw, depth: int) -> _Plan:
    if depth > 0 and draw(st.booleans()):
        return draw(_record_plan(depth))
    return _BasePlan(draw(st.sampled_from([INT, STRING])))


Env = list[tuple[str, str]]  # (variable, table name)


@st.composite
def _base_term(
    draw,
    env: Env,
    want: BaseType,
    allow_empty: bool = True,
    params: bool = False,
) -> Term:
    """A base-typed term over the generator environment."""
    candidates = [
        (var, column, ctype)
        for var, table in env
        for column, ctype in _TABLES[table].columns
        if ctype == want
    ]
    choices = ["const"]
    if candidates:
        choices += ["field", "field", "field"]
    if params and want in _PARAM_POOL:
        choices.append("param")
    if want == BOOL:
        choices += ["cmp", "logic"]
        if allow_empty and env:
            choices.append("empty")
    picked = draw(st.sampled_from(choices))

    if picked == "field":
        var, column, _ = draw(st.sampled_from(candidates))
        return Var(var)[column]
    if picked == "param":
        return Param(draw(st.sampled_from(_PARAM_POOL[want])), want)
    if picked == "cmp":
        operand = draw(st.sampled_from([INT, STRING]))
        left = draw(_base_term(env, operand, allow_empty=False, params=params))
        right = draw(_base_term(env, operand, allow_empty=False, params=params))
        op = draw(st.sampled_from([b.eq, b.ne, b.lt, b.le, b.gt, b.ge]))
        return op(left, right)
    if picked == "logic":
        op = draw(st.sampled_from(["and", "or", "not"]))
        left = draw(_base_term(env, BOOL, allow_empty=False, params=params))
        if op == "not":
            return b.not_(left)
        right = draw(_base_term(env, BOOL, allow_empty=False, params=params))
        return b.and_(left, right) if op == "and" else b.or_(left, right)
    if picked == "empty":
        # A correlated anti-join probe.
        probe = draw(_comprehension(env, _BasePlan(INT), depth=0, params=params))
        return b.is_empty(probe)
    # Constants.
    if want == INT:
        return b.const(draw(st.integers(-3, 3)))
    if want == BOOL:
        return b.const(draw(st.booleans()))
    return b.const(
        draw(st.sampled_from(["Sales", "Product", "Cora", "build", "zzz"]))
    )


_FRESH = {"n": 0}


def _fresh_var() -> str:
    _FRESH["n"] += 1
    return f"v{_FRESH['n']}"


@st.composite
def _term_for(draw, plan: _Plan, env: Env, depth: int, params: bool = False) -> Term:
    if isinstance(plan, _BasePlan):
        return draw(_base_term(env, plan.base, params=params))
    if isinstance(plan, _RecordPlan):
        from repro.nrc.ast import Record

        return Record(
            tuple(
                (label, draw(_term_for(sub, env, depth, params=params)))
                for label, sub in plan.fields
            )
        )
    assert isinstance(plan, _BagPlan)
    # Mostly 1–2 branches, occasionally a 3-way union.
    n_branches = draw(st.sampled_from([1, 1, 2, 2, 2, 3]))
    branches = [
        draw(_comprehension(env, plan.element, depth, params=params))
        for _ in range(n_branches)
    ]
    if draw(st.integers(0, 9)) == 0:
        branches.append(Empty())
    query = b.union(*branches)
    if draw(st.integers(0, 4)) == 0 and env:
        # A bag-typed conditional: normalisation hoists it to a where.
        condition = draw(_base_term(env, BOOL, allow_empty=False, params=params))
        query = If(condition, query, Empty())
    return query


@st.composite
def _comprehension(
    draw, env: Env, element_plan: _Plan, depth: int, params: bool = False
) -> Term:
    n_generators = draw(st.integers(1, 2))
    inner_env = list(env)
    new_vars = []
    for _ in range(n_generators):
        table = draw(st.sampled_from(sorted(_TABLES)))
        var = _fresh_var()
        inner_env.append((var, table))
        new_vars.append((var, table))
    condition = draw(_base_term(inner_env, BOOL, params=params))
    body = draw(_term_for(element_plan, inner_env, depth - 1, params=params))
    result: Term = b.where(condition, b.ret(body))
    if draw(st.integers(0, 4)) == 0:
        # A β-redex for the normaliser: (λx. where … return x-body) ⟨⟩.
        wrapper = _fresh_var()
        result = App(Lam(wrapper, result), b.record())
    for var, table in reversed(new_vars):
        result = b.for_(var, b.table(table), result)
    return result


@st.composite
def queries_with_nesting(
    draw, max_depth: int = 2, with_params: bool = False
) -> Term:
    """A random closed, well-typed, flat–nested λNRC query."""
    plan = draw(type_plans(max_depth))
    return draw(_term_for(plan, [], max_depth, params=with_params))


@st.composite
def queries_with_bindings(draw, max_depth: int = 2) -> tuple[Term, dict]:
    """A random query that may use host parameters, plus bindings for
    exactly the parameters it uses (``run(params=bindings)`` is valid —
    no missing names, no unknown names)."""
    from repro.pipeline.shredder import collect_param_specs

    query = draw(queries_with_nesting(max_depth, with_params=True))
    bindings = {
        name: draw(_PARAM_VALUES[declared])
        for name, declared in collect_param_specs(query)
    }
    return query, bindings


# --------------------------------------------------------------------------
# The trap stores: small, as the oracle's cost is the product of the table
# sizes its generators range over, and breaking every assumption a plan
# could lean on.

#: A cut of Fig. 3 (the size of the cut the in-memory theorem properties
#: always ran on) carrying the multiplicity traps.
TRAP_ROWS = {
    "departments": [
        {"id": 1, "name": "Product"},
        {"id": 2, "name": "Quality"},  # nobody works here: empty inner bags
        {"id": 4, "name": "Sales"},
        {"id": 5, "name": "Sales"},  # a duplicate outer record under another key
    ],
    "employees": [
        {"id": 1, "dept": "Product", "name": "Alex", "salary": 20_000},
        {"id": 5, "dept": "Sales", "name": "Erik", "salary": 2_000_000},
        {"id": 7, "dept": "Product", "name": "Erik", "salary": 500},  # a duplicate join value
        {"id": 9, "dept": "Nowhere", "name": "Hank", "salary": 900},  # an orphan
    ],
    "tasks": [
        {"id": 1, "employee": "Alex", "task": "build"},
        {"id": 10, "employee": "Erik", "task": "call"},
        {"id": 11, "employee": "Erik", "task": "enthuse"},
        {"id": 12, "employee": "Hank", "task": "call"},
        {"id": 16, "employee": "Nobody", "task": "build"},  # an orphan
    ],
    "contacts": [
        {"id": 1, "dept": "Product", "name": "Pam", "client": False},
        {"id": 7, "dept": "Sales", "name": "Sue", "client": True},
        {"id": 8, "dept": "Nowhere", "name": "Zed", "client": True},  # an orphan
    ],
}


def trap_stores(references: dict | None = None) -> dict:
    """Fresh trap stores: ``traps`` (:data:`TRAP_ROWS` under the organisation
    schema, whose references the rows break somewhere) and ``keyless`` (the
    same rows, ``tasks`` declaring no key and holding two fully duplicate
    rows).  ``references`` (``{table: ((column, "t.c"), …)}``) replaces the
    schema's own."""
    from repro.backend.database import Database

    schema = ORGANISATION_SCHEMA if references is None else with_references(references)
    return {
        "traps": Database(schema, TRAP_ROWS),
        "keyless": Database(
            without_key(schema, "tasks"),
            {**TRAP_ROWS, "tasks": TRAP_ROWS["tasks"] + TRAP_ROWS["tasks"][1:3]},
        ),
    }


def with_references(references: dict):
    """The organisation schema with ``references`` as its only references."""
    import dataclasses

    from repro.nrc.schema import Schema

    return Schema(
        tuple(
            dataclasses.replace(table, references=references.get(table.name, ()))
            for table in ORGANISATION_SCHEMA.tables
        )
    )


_STRING_COLUMNS = [
    (table.name, column)
    for table in ORGANISATION_SCHEMA.tables
    for column, ctype in table.columns
    if ctype == STRING
]
#: The organisation's join columns, as declared and the other way round.
_JOINS = [
    (join, target)
    for table in ORGANISATION_SCHEMA.tables
    for column, referenced in table.references
    for join, target in [
        ((table.name, column), tuple(referenced.split("."))),
        (tuple(referenced.split(".")), (table.name, column)),
    ]
]


@st.composite
def references(draw) -> dict:
    """Random references for :func:`trap_stores`: each of the organisation's
    three ¾ of the time, plus up to four drawn from its joins either way
    round and from any String column to any other."""
    drawn: dict[str, list[tuple[str, str]]] = {}
    any_pair = st.tuples(st.sampled_from(_STRING_COLUMNS), st.sampled_from(_STRING_COLUMNS))
    likely = [join for join in _JOINS[::2] if draw(st.integers(0, 3))]
    for (table, column), (target, target_column) in likely + draw(
        st.lists(st.one_of(st.sampled_from(_JOINS), any_pair), max_size=4)
    ):
        if (table, column) != (target, target_column):
            drawn.setdefault(table, []).append((column, f"{target}.{target_column}"))
    return {table: tuple(dict.fromkeys(refs)) for table, refs in drawn.items()}


def without_key(schema, table: str):
    """``schema`` with ``table``'s key declaration dropped (same columns)."""
    from repro.nrc.schema import Schema, TableSchema

    return Schema(
        tuple(
            TableSchema(t.name, t.columns) if t.name == table else t
            for t in schema.tables
        )
    )


def asymmetric_union_query() -> Term:
    """A union whose branches bind 3 vs 2 generators at one nesting level —
    §6.1's "need to pad some subqueries with null columns": under key
    indexes the ``people`` statement mixes index arities 3 and 2."""
    return b.for_(
        "d",
        b.table("departments"),
        lambda d: b.ret(
            b.record(
                n=d["name"],
                people=b.union(
                    b.for_(
                        "e",
                        b.table("employees"),
                        lambda e: b.for_(
                            "t",
                            b.table("tasks"),
                            lambda t: b.where(
                                b.and_(
                                    b.eq(e["dept"], d["name"]),
                                    b.eq(t["employee"], e["name"]),
                                ),
                                b.ret(
                                    b.record(
                                        who=e["name"],
                                        stuff=b.for_(
                                            "u",
                                            b.table("tasks"),
                                            lambda u: b.where(
                                                b.eq(u["employee"], e["name"]),
                                                b.ret(u["task"]),
                                            ),
                                        ),
                                    )
                                ),
                            ),
                        ),
                    ),
                    b.for_(
                        "c",
                        b.table("contacts"),
                        lambda c: b.where(
                            b.eq(c["dept"], d["name"]),
                            b.ret(
                                b.record(
                                    who=c["name"],
                                    stuff=b.ret(b.const("z")),
                                )
                            ),
                        ),
                    ),
                ),
            )
        ),
    )
