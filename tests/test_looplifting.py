"""Tests for the loop-lifting baseline (algebra, mini-Pathfinder, runner)."""

from __future__ import annotations

import pytest

from repro.baselines.looplifting.algebra import (
    Attach,
    Derive,
    LoopLiftingError,
    Product,
    ProjectCols,
    RowNum,
    Scan,
    Select,
    UnionAll,
    Unit,
    column_ref,
    plan_size,
)
from repro.baselines.looplifting.compile import compile_levels, parent_path
from repro.baselines.looplifting.pathfinder import (
    deserialise,
    optimise,
    serialise,
)
from repro.baselines.looplifting.runner import (
    LoopLiftingPipeline,
    loop_lift_run,
)
from repro.data import queries
from repro.normalise import normalise
from repro.normalise.normal_form import ConstNF, PrimNF, VarField
from repro.nrc.semantics import evaluate
from repro.nrc.typecheck import infer
from repro.shred.paths import EPSILON, Path
from repro.values import bag_equal


def _scan():
    return Scan("departments", "x1", ("id", "name"))


def _pred(var, label, value):
    return PrimNF("=", (VarField(var, label), ConstNF(value)))


class TestAlgebra:
    def test_scan_columns_prefixed(self):
        assert _scan().columns == ("x1_id", "x1_name")

    def test_product_rejects_overlap(self):
        with pytest.raises(LoopLiftingError):
            Product(_scan(), _scan())

    def test_attach_and_derive_extend_schema(self):
        plan = Attach(_scan(), "branch1", "a")
        plan = Derive(plan, "iter1", column_ref("x1_id"))
        assert plan.columns[-2:] == ("branch1", "iter1")

    def test_rownum_validates_order_columns(self):
        with pytest.raises(LoopLiftingError):
            RowNum(_scan(), "pos", ("nope",))

    def test_union_requires_same_schema(self):
        other = Scan("tasks", "t1", ("id", "employee", "task"))
        with pytest.raises(LoopLiftingError):
            UnionAll(_scan(), other)

    def test_unit_has_no_columns(self):
        assert Unit().columns == ()

    def test_plan_size(self):
        plan = Select(_scan(), _pred("x1", "name", "Sales"))
        assert plan_size(plan) == 2


class TestParentPath:
    def test_epsilon_has_no_parent(self):
        assert parent_path(EPSILON) is None

    def test_one_level(self):
        from repro.shred.paths import DOWN

        assert parent_path(Path((DOWN, "people"))) == EPSILON

    def test_two_levels(self):
        from repro.shred.paths import DOWN

        p = Path((DOWN, "people", DOWN, "tasks"))
        assert parent_path(p) == Path((DOWN, "people"))


class TestPathfinder:
    def test_serialisation_round_trip(self, schema, db):
        nf = normalise(queries.Q6, schema)
        result_type = infer(queries.Q6, schema)
        for level in compile_levels(nf, result_type, schema).values():
            assert deserialise(serialise(level.plan)) == level.plan

    def test_selection_pushed_into_product(self):
        left = _scan()
        right = Scan("employees", "x2", ("id", "dept", "name", "salary"))
        plan = Select(Product(left, right), _pred("x2", "dept", "Sales"))
        optimised = optimise(plan)
        # The conjunct moved onto the employees side of the product.
        assert isinstance(optimised, Product)
        assert any(
            isinstance(node, Select)
            for node in __import__(
                "repro.baselines.looplifting.algebra",
                fromlist=["iter_nodes"],
            ).iter_nodes(optimised.right)
        )

    def test_selection_not_pushed_below_rownum(self):
        numbered = RowNum(_scan(), "pos1", ("x1_id",))
        plan = Select(numbered, _pred("x1", "name", "Sales"))
        optimised = optimise(plan)
        # The Select must stay above the RowNum: numbering is pinned.
        assert isinstance(optimised, Select)
        assert isinstance(optimised.child, RowNum)

    def test_merges_adjacent_selects(self):
        plan = Select(
            Select(_scan(), _pred("x1", "name", "Sales")),
            _pred("x1", "id", 1),
        )
        optimised = optimise(plan)
        selects = [
            node
            for node in __import__(
                "repro.baselines.looplifting.algebra", fromlist=["iter_nodes"]
            ).iter_nodes(optimised)
            if isinstance(node, Select)
        ]
        assert len(selects) == 1

    def test_drops_noop_projection(self):
        plan = ProjectCols(_scan(), _scan().columns)
        assert optimise(plan) == _scan()

    def test_optimise_preserves_results(self, schema, db):
        pipeline = LoopLiftingPipeline(schema, use_pathfinder=True)
        raw_pipeline = LoopLiftingPipeline(schema, use_pathfinder=False)
        for name in ("Q1", "Q4", "Q6"):
            query = queries.NESTED_QUERIES[name]
            assert bag_equal(
                pipeline.run(query, db), raw_pipeline.run(query, db)
            ), name


class TestStructure:
    def test_level_count_is_nesting_degree(self, schema, db):
        compiled = LoopLiftingPipeline(schema).compile(queries.Q6)
        assert compiled.query_count == 3

    def test_inner_levels_embed_parent_rownum(self, schema):
        """The defining pathology: a product *under* a RowNum in every
        non-top level (what Pathfinder cannot undo on Q1/Q6)."""
        from repro.baselines.looplifting.algebra import iter_nodes

        nf = normalise(queries.Q6, schema)
        result_type = infer(queries.Q6, schema)
        levels = compile_levels(nf, result_type, schema)
        for path, level in levels.items():
            if path.is_empty:
                continue
            assert isinstance(level.plan, RowNum)
            has_product_under_rownum = any(
                isinstance(node, Product)
                for node in iter_nodes(level.plan.child)
            )
            assert has_product_under_rownum, str(path)
            # And the embedded parent numbering survives optimisation.
            optimised = optimise(level.plan)
            rownums = [
                node
                for node in iter_nodes(optimised)
                if isinstance(node, RowNum)
            ]
            assert len(rownums) >= 2, str(path)

    def test_sql_orders_by_iter_pos(self, schema):
        compiled = LoopLiftingPipeline(schema).compile(queries.Q3)
        for _, sql in compiled.sql_by_path:
            assert "ORDER BY" in sql  # list semantics maintained


class TestCorrectness:
    @pytest.mark.parametrize(
        "name", sorted({**queries.FLAT_QUERIES, **queries.NESTED_QUERIES})
    )
    def test_matches_semantics_fig3(self, name, schema, db):
        query = {**queries.FLAT_QUERIES, **queries.NESTED_QUERIES}[name]
        assert bag_equal(loop_lift_run(query, db), evaluate(query, db)), name

    @pytest.mark.parametrize("name", ["Q1", "Q5", "Q6"])
    def test_matches_semantics_random(self, name, small_random_db):
        query = queries.NESTED_QUERIES[name]
        assert bag_equal(
            loop_lift_run(query, small_random_db),
            evaluate(query, small_random_db),
        )

    def test_empty_database(self, empty_db):
        assert loop_lift_run(queries.Q6, empty_db) == []

    def test_matches_shredding(self, schema, db):
        from .conftest import run_per_path

        for name, query in queries.NESTED_QUERIES.items():
            assert bag_equal(
                loop_lift_run(query, db), run_per_path(query, db)
            ), name

    def test_list_order_by_position(self, schema, db):
        """Loop-lifting maintains list semantics: top-level rows arrive in
        position order (deterministic, not just bag-equal)."""
        out1 = loop_lift_run(queries.Q4, db)
        out2 = loop_lift_run(queries.Q4, db)
        assert out1 == out2


class TestDeepComposition:
    def test_deep_union_chain_stays_within_parser_stack(self, schema, db):
        """A 40-arm union chain must render to SQL SQLite can parse.

        Nested derived tables grow the parser stack with composition
        depth (hypothesis found an overflow around 20 levels); the
        renderer hoists wraps and union arms into a flat WITH list, so
        depth stays constant however deep the plan composes.
        """
        from repro.nrc.ast import For, Project, Return, Table, Union, Var

        arm = For(
            var="e",
            source=Table(name="employees"),
            body=Return(element=Project(record=Var(name="e"), label="salary")),
        )
        query = arm
        for _ in range(39):
            query = Union(left=query, right=arm)
        out = loop_lift_run(query, db)
        assert bag_equal(out, evaluate(query, db))
