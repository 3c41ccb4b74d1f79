"""Shardability analysis over the normal form (§2.2 grammar).

Given a normalised query ⊎ C̄ and a :class:`~repro.shard.placement.
Placement`, decide how a sharded deployment may evaluate it without
changing its meaning *as a nested multiset*:

``single``
    The query references only replicated tables: every shard holds full
    copies of everything it reads, so any one shard (we use shard 0,
    deterministically) computes the exact answer.

``routed``
    Exactly one sharded table T (partitioned by column k) is referenced,
    and *every* generator ``x ← T`` — at any nesting depth, including
    emptiness probes — is pinned to one common routing-key value by the
    equality closure of the conjuncts in scope (``x.k = :dept``,
    transitively through chains like ``x.k = d.name ∧ d.name = :dept``).
    All T-rows that can contribute live on the shard owning that value, so
    that single shard computes the exact answer.  The pin may be a
    constant (shard known at compile time) or a host parameter (shard
    resolved when the parameter binds — the ``dept_staff(:dept)`` point
    lookup).

``fanout``
    The query is *distributive* over one sharded table T: every top-level
    comprehension has exactly one generator over T, and T is referenced
    nowhere else (not in nested bodies, not in probes).  Then

        C(T, R̄) = C(⊎ᵢ Tᵢ, R̄) = ⊎ᵢ C(Tᵢ, R̄)

    because a comprehension is linear in each of its generators and the
    replicated tables R̄ are whole on every shard — so the deployment runs
    the same plan on every shard and bag-unions the stitched nested
    values.

``fallback``
    Anything else (a self-join over T, T in a nested body with a
    different outer table, two sharded tables, …) is routed to the
    designated full-copy shard and marked in
    :class:`~repro.backend.executor.ExecutionStats` as a fallback.

Soundness of the pinning scope: a probe's value can only flip a
comprehension's output for rows on which all *other* top-level conjuncts
of its ``where`` hold (conjunction is commutative boolean algebra with no
effects), so every probe under a ``where`` — and everything in the body,
which only matters for rows passing the ``where`` — may assume the
equality conjuncts of its enclosing comprehensions.  Variables are
resolved through a scope map to unique generator ids before entering the
union-find, so shadowed names in disjoint scopes never merge classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.errors import ShardingError
from repro.normalise.normal_form import (
    BaseExpr,
    Comprehension,
    ConstNF,
    EmptyNF,
    NormQuery,
    ParamNF,
    PrimNF,
    RecordNF,
    VarField,
    conjuncts,
)
from repro.shard.placement import Placement, shard_for

__all__ = [
    "ShardPlan",
    "RouteDecision",
    "analyse",
    "plan_route",
    "referenced_tables",
    "resolve_shard",
]

#: Plan modes, in decreasing order of how much of the deployment they use.
#: ``failover`` is not an analysis verdict but a *route* mode: a plan whose
#: shards are known-down gets diverted whole to the full-copy fallback.
MODES = ("fanout", "routed", "single", "fallback", "failover")


@dataclass(frozen=True)
class ShardPlan:
    """The analysis verdict for one query under one placement.

    ``pin`` is only set for ``routed`` plans: ``("const", value)`` or
    ``("param", name)`` — :func:`resolve_shard` turns it into a shard
    index (using the host-parameter bindings when needed).
    """

    mode: str
    table: Optional[str] = None
    key_column: Optional[str] = None
    pin: Optional[tuple[str, object]] = None
    reason: str = ""


# --------------------------------------------------------------------------
# Table references (generators are the only way the normal form reads Σ).


def referenced_tables(query: NormQuery) -> set[str]:
    """Every table some generator ranges over, at any depth (bodies and
    emptiness probes included)."""
    tables: set[str] = set()
    _collect_tables_query(query, tables)
    return tables


def _collect_tables_query(query: NormQuery, tables: set[str]) -> None:
    for comp in query.comprehensions:
        for generator in comp.generators:
            tables.add(generator.table)
        _collect_tables_base(comp.where, tables)
        _collect_tables_term(comp.body, tables)


def _collect_tables_term(term, tables: set[str]) -> None:
    if isinstance(term, NormQuery):
        _collect_tables_query(term, tables)
    elif isinstance(term, RecordNF):
        for _label, value in term.fields:
            _collect_tables_term(value, tables)
    elif isinstance(term, BaseExpr):
        _collect_tables_base(term, tables)


def _collect_tables_base(expr: BaseExpr, tables: set[str]) -> None:
    if isinstance(expr, PrimNF):
        for arg in expr.args:
            _collect_tables_base(arg, tables)
    elif isinstance(expr, EmptyNF) and isinstance(expr.query, NormQuery):
        _collect_tables_query(expr.query, tables)


# --------------------------------------------------------------------------
# Routing-pin inference: a union-find over equality conjuncts.

# Atoms: ("f", generator_id, label) | ("c", type_name, value) | ("p", name)
Atom = tuple


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Atom, Atom] = {}

    def find(self, atom: Atom) -> Atom:
        parent = self.parent.setdefault(atom, atom)
        if parent == atom:
            return atom
        root = self.find(parent)
        self.parent[atom] = root
        return root

    def union(self, left: Atom, right: Atom) -> None:
        self.parent[self.find(left)] = self.find(right)

    def class_of(self, atom: Atom) -> set[Atom]:
        root = self.find(atom)
        return {a for a in self.parent if self.find(a) == root}


def _atom(expr: BaseExpr, scope: dict[str, int]) -> Optional[Atom]:
    if isinstance(expr, VarField):
        generator_id = scope.get(expr.var)
        if generator_id is None:
            return None
        return ("f", generator_id, expr.label)
    if isinstance(expr, ConstNF):
        return ("c", type(expr.value).__name__, expr.value)
    if isinstance(expr, ParamNF):
        return ("p", expr.name)
    return None


def _equalities(
    expr: BaseExpr, scope: dict[str, int]
) -> list[tuple[Atom, Atom]]:
    pairs: list[tuple[Atom, Atom]] = []
    for conjunct in conjuncts(expr):
        if isinstance(conjunct, PrimNF) and conjunct.op == "=":
            left = _atom(conjunct.args[0], scope)
            right = _atom(conjunct.args[1], scope)
            if left is not None and right is not None:
                pairs.append((left, right))
    return pairs


class _PinCollector:
    """Walks the normal form collecting, for every generator over a
    sharded table, the set of ground atoms (consts/params) its routing
    column is provably equal to in scope.

    ``targets`` maps each sharded table to its routing column; with more
    than one entry the collector gathers pins for *all* of them, which is
    how a multi-sharded-table query can still be ``routed``: if every
    generator over every sharded table is pinned to one common ground
    value, all contributing rows share :func:`shard_for` of that value
    (the hash reads the value, never the table name)."""

    def __init__(self, targets: "dict[str, str]") -> None:
        self.targets = dict(targets)
        self.pins: list[set[Atom]] = []
        self._next_id = 0

    def query(
        self,
        query: NormQuery,
        scope: dict[str, int],
        env: list[tuple[Atom, Atom]],
    ) -> None:
        for comp in query.comprehensions:
            self._comprehension(comp, dict(scope), list(env))

    def _comprehension(
        self,
        comp: Comprehension,
        scope: dict[str, int],
        env: list[tuple[Atom, Atom]],
    ) -> None:
        targets: list[Atom] = []
        for generator in comp.generators:
            self._next_id += 1
            scope[generator.var] = self._next_id
            key = self.targets.get(generator.table)
            if key is not None:
                targets.append(("f", self._next_id, key))
        env = env + _equalities(comp.where, scope)
        uf = _UnionFind()
        for left, right in env:
            uf.union(left, right)
        for target in targets:
            ground = {
                atom
                for atom in uf.class_of(target)
                if atom[0] in ("c", "p")
            }
            self.pins.append(ground)
        self._base(comp.where, scope, env)
        self._term(comp.body, scope, env)

    def _term(self, term, scope, env) -> None:
        if isinstance(term, NormQuery):
            self.query(term, scope, env)
        elif isinstance(term, RecordNF):
            for _label, value in term.fields:
                self._term(value, scope, env)
        elif isinstance(term, BaseExpr):
            self._base(term, scope, env)

    def _base(self, expr: BaseExpr, scope, env) -> None:
        if isinstance(expr, PrimNF):
            for arg in expr.args:
                self._base(arg, scope, env)
        elif isinstance(expr, EmptyNF) and isinstance(expr.query, NormQuery):
            self.query(expr.query, scope, env)


def _routing_pin(
    query: NormQuery, targets: "dict[str, str]"
) -> Optional[tuple[str, object]]:
    """The common pin of every generator over the target tables, or None."""
    collector = _PinCollector(targets)
    collector.query(query, {}, [])
    if not collector.pins:
        return None
    common = set.intersection(*collector.pins)
    if not common:
        return None
    # Deterministic choice: constants before parameters, then by repr.
    consts = sorted(
        (atom for atom in common if atom[0] == "c"),
        key=lambda atom: (atom[1], repr(atom[2])),
    )
    if consts:
        return ("const", consts[0][2])
    params = sorted(atom for atom in common if atom[0] == "p")
    return ("param", params[0][1])


# --------------------------------------------------------------------------
# Distributivity.


def _distributive(query: NormQuery, table: str) -> bool:
    for comp in query.comprehensions:
        over = [g for g in comp.generators if g.table == table]
        if len(over) != 1:
            return False
        inner: set[str] = set()
        _collect_tables_base(comp.where, inner)
        _collect_tables_term(comp.body, inner)
        if table in inner:
            return False
    return True


# --------------------------------------------------------------------------
# Co-partitioned fanout.


class _AlignmentChecker:
    """Checks every generator over an aligned table is pinned — by the
    equality closure of the conjuncts in scope — to the routing column of
    an *in-scope* generator over the anchor table.

    If it is, all rows of the aligned table that can contribute for a
    given anchor row carry the anchor row's routing value, so they live
    on the anchor row's shard (:func:`shard_for` hashes values, not table
    names, and the placement declared the key domains aligned).  Nested
    bodies and emptiness probes over the aligned table's *partition* then
    equal the same expressions over the full table for exactly the rows
    that matter, and the per-shard bag-union is exact."""

    def __init__(
        self, anchor: str, anchor_key: str, aligned: "dict[str, str]"
    ) -> None:
        self.anchor = anchor
        self.anchor_key = anchor_key
        self.aligned = dict(aligned)
        self.ok = True
        self._next_id = 0

    def query(
        self,
        query: NormQuery,
        scope: dict[str, int],
        env: list[tuple[Atom, Atom]],
        anchors: list[int],
    ) -> None:
        for comp in query.comprehensions:
            self._comprehension(comp, dict(scope), list(env), list(anchors))

    def _comprehension(
        self,
        comp: Comprehension,
        scope: dict[str, int],
        env: list[tuple[Atom, Atom]],
        anchors: list[int],
    ) -> None:
        targets: list[tuple[Atom, str]] = []
        for generator in comp.generators:
            self._next_id += 1
            scope[generator.var] = self._next_id
            if generator.table == self.anchor:
                anchors.append(self._next_id)
            key = self.aligned.get(generator.table)
            if key is not None:
                targets.append(
                    (("f", self._next_id, key), generator.table)
                )
        env = env + _equalities(comp.where, scope)
        uf = _UnionFind()
        for left, right in env:
            uf.union(left, right)
        for target, _table in targets:
            cls = uf.class_of(target)
            if not any(
                ("f", aid, self.anchor_key) in cls for aid in anchors
            ):
                self.ok = False
        self._base(comp.where, scope, env, anchors)
        self._term(comp.body, scope, env, anchors)

    def _term(self, term, scope, env, anchors) -> None:
        if isinstance(term, NormQuery):
            self.query(term, scope, env, anchors)
        elif isinstance(term, RecordNF):
            for _label, value in term.fields:
                self._term(value, scope, env, anchors)
        elif isinstance(term, BaseExpr):
            self._base(term, scope, env, anchors)

    def _base(self, expr: BaseExpr, scope, env, anchors) -> None:
        if isinstance(expr, PrimNF):
            for arg in expr.args:
                self._base(arg, scope, env, anchors)
        elif isinstance(expr, EmptyNF) and isinstance(expr.query, NormQuery):
            self.query(expr.query, scope, env, anchors)


def _copartitioned_fanout(
    query: NormQuery,
    placement: Placement,
    sharded_refs: list[str],
    keys: "dict[str, str]",
) -> Optional[ShardPlan]:
    """Try each sharded table as the fan-out anchor: the query must be
    distributive over it, every other sharded table must be declared
    aligned with it, and every generator over those tables must be pinned
    to an in-scope anchor generator's routing column."""
    for anchor in sharded_refs:
        others = [t for t in sharded_refs if t != anchor]
        if not all(placement.is_aligned(anchor, t) for t in others):
            continue
        if not _distributive(query, anchor):
            continue
        checker = _AlignmentChecker(
            anchor, keys[anchor], {t: keys[t] for t in others}
        )
        checker.query(query, {}, [], [])
        if not checker.ok:
            continue
        pinned = ", ".join(f"{t}.{keys[t]}" for t in others)
        return ShardPlan(
            "fanout",
            table=anchor,
            key_column=keys[anchor],
            reason=(
                f"distributive over {anchor} (partitioned by "
                f"{keys[anchor]}); co-partitioned {pinned} pinned to the "
                f"anchor in every scope"
            ),
        )
    return None


# --------------------------------------------------------------------------
# The verdict.


def analyse(query: NormQuery, placement: Placement) -> ShardPlan:
    """Classify ``query`` for execution on a sharded deployment."""
    tables = referenced_tables(query)
    sharded_refs = sorted(t for t in tables if placement.is_sharded(t))
    if not sharded_refs:
        return ShardPlan(
            "single", reason="references only replicated tables"
        )
    keys = {
        table: placement.routing_column(table) or ""
        for table in sharded_refs
    }
    pin = _routing_pin(query, keys)
    if pin is not None:
        kind, value = pin
        detail = f":{value}" if kind == "param" else repr(value)
        pinned = ", ".join(f"{t}.{keys[t]}" for t in sharded_refs)
        table = sharded_refs[0]
        return ShardPlan(
            "routed",
            table=table,
            key_column=keys[table],
            pin=pin,
            reason=f"every generator over {pinned} pinned to {detail}",
        )
    if len(sharded_refs) > 1:
        plan = _copartitioned_fanout(query, placement, sharded_refs, keys)
        if plan is not None:
            return plan
        return ShardPlan(
            "fallback",
            reason="references multiple sharded tables without a common "
            "pin or co-partitioned alignment: " + ", ".join(sharded_refs),
        )
    table = sharded_refs[0]
    key = keys[table]
    if _distributive(query, table):
        return ShardPlan(
            "fanout",
            table=table,
            key_column=key,
            reason=f"distributive over {table} (partitioned by {key})",
        )
    return ShardPlan(
        "fallback",
        table=table,
        key_column=key,
        reason=f"non-distributive reference to sharded table {table!r}",
    )


def resolve_shard(
    plan: ShardPlan, params: Optional[dict], shard_count: int
) -> int:
    """The shard index a ``routed`` plan executes on."""
    if plan.mode != "routed" or plan.pin is None:
        raise ShardingError(f"plan is not routed: {plan}")
    kind, value = plan.pin
    if kind == "param":
        if not params or value not in params:
            raise ShardingError(
                f"routing on host parameter :{value} needs a binding "
                f"(run(params={{{value!r}: ...}}))"
            )
        value = params[value]
    return shard_for(value, shard_count)


@dataclass(frozen=True)
class RouteDecision:
    """The concrete route for one execution of a planned query.

    ``mode`` is the plan mode after per-call adjustments (list semantics
    divert fanout/routed to the fallback), ``shards`` the partition
    shards to execute on (empty for fallback), ``per_shard_collection``
    what each executing store should compute (set semantics run shards
    under bag and deduplicate *after* the union — set-union is global),
    and ``route``/``reason`` the labels results carry.
    """

    mode: str
    route: str
    shards: tuple[int, ...]
    per_shard_collection: str
    reason: str


def plan_route(
    plan: ShardPlan,
    shard_count: int,
    params: Optional[dict] = None,
    collection: Optional[str] = None,
    down_shards: "Iterable[int]" = (),
) -> RouteDecision:
    """Resolve ``plan`` into this call's route — the policy
    :meth:`~repro.shard.client.ShardedServiceClient.execute_full` applies
    before sending anything.

    ``down_shards`` names partition shards currently presumed dead (open
    circuit breakers, failed health checks).  A route that would touch one
    is adjusted *before* any request is sent: a ``single`` route (any
    shard can answer — replicated tables only) moves to the lowest live
    shard; anything else diverts whole to the full-copy fallback as mode
    ``failover`` (partition results cannot be patched piecemeal, and the
    fallback holds everything).  Callers count these diversions as
    ``failover_reroutes``.
    """
    collection = collection or "bag"
    down = {s for s in down_shards if 0 <= s < shard_count}
    mode = plan.mode
    reason = plan.reason
    if collection == "list" and mode in ("fanout", "routed"):
        # List semantics are defined by the *full* store's canonical row
        # order; partitions cannot reproduce the interleaving.
        mode = "fallback"
        reason = "list semantics need the full-copy shard's row order"
    per_shard = "bag" if collection == "set" else collection

    def failover(shards: tuple[int, ...], base_route: str) -> RouteDecision:
        dead = sorted(down.intersection(shards))
        return RouteDecision(
            "failover",
            f"failover:{base_route}",
            (),
            per_shard,
            f"shard(s) {', '.join(map(str, dead))} down; "
            f"diverted {base_route} to the full-copy fallback",
        )

    if mode == "fanout":
        shards = tuple(range(shard_count))
        if down:
            return failover(shards, "fanout")
        return RouteDecision(mode, "fanout", shards, per_shard, reason)
    if mode == "routed":
        shard = resolve_shard(plan, params, shard_count)
        if shard in down:
            return failover((shard,), f"routed:{shard}")
        return RouteDecision(
            mode, f"routed:{shard}", (shard,), per_shard, reason
        )
    if mode == "single":
        live = [s for s in range(shard_count) if s not in down]
        if not live:
            return failover((0,), "single:0")
        shard = live[0]
        return RouteDecision(mode, f"single:{shard}", (shard,), per_shard, reason)
    return RouteDecision(mode, "fallback", (), per_shard, reason)
