"""Tests for stage 1: symbolic evaluation ⇝c (App. C.1)."""

from __future__ import annotations

import pytest

from repro.nrc import builders as b
from repro.nrc.ast import (
    App,
    Const,
    Empty,
    For,
    If,
    Lam,
    Project,
    Record,
    Return,
    Table,
    Union,
    Var,
    map_subterms,
    substitute,
    subterms,
)
from repro.normalise.rewrite import is_c_normal, symbolic_eval


class TestBetaRules:
    def test_beta_lambda(self):
        term = App(Lam("x", Var("x")), Const(1))
        assert symbolic_eval(term) == Const(1)

    def test_beta_projection(self):
        term = Project(Record((("a", Const(1)), ("b", Const(2)))), "b")
        assert symbolic_eval(term) == Const(2)

    def test_beta_if_true_false(self):
        assert symbolic_eval(If(Const(True), Const(1), Const(2))) == Const(1)
        assert symbolic_eval(If(Const(False), Const(1), Const(2))) == Const(2)

    def test_beta_for_return(self):
        term = For("x", Return(Const(1)), Return(Var("x")))
        assert symbolic_eval(term) == Return(Const(1))

    def test_nested_beta(self):
        # (λf. f 1) (λx. x + 1)  →  1 + 1
        term = App(
            Lam("f", App(Var("f"), Const(1))),
            Lam("x", b.add(Var("x"), Const(1))),
        )
        assert symbolic_eval(term) == b.add(Const(1), Const(1))


class TestCommutingConversions:
    def test_for_over_empty_source(self):
        term = For("x", Empty(), Return(Var("x")))
        assert symbolic_eval(term) == Empty()

    def test_for_over_union_source(self):
        term = For("x", Union(Table("t"), Table("u")), Return(Var("x")))
        out = symbolic_eval(term)
        assert out == Union(
            For("x", Table("t"), Return(Var("x"))),
            For("x", Table("u"), Return(Var("x"))),
        )

    def test_for_over_for_source(self):
        inner = For("y", Table("t"), Return(Var("y")))
        term = For("x", inner, Return(Var("x")))
        out = symbolic_eval(term)
        # for (x ← for (y ← t) return y) return x  →  for (y ← t) return y
        assert out == For("y", Table("t"), Return(Var("y")))

    def test_for_over_for_capture_avoidance(self):
        # for (x ← for (y ← t) return y) return ⟨a = x, b = y_free⟩ where the
        # body mentions a *free* y: the inner binder must be renamed.
        body = Return(Record((("a", Var("x")), ("b", Var("y")))))
        term = For("x", For("y", Table("t"), Return(Var("y"))), body)
        out = symbolic_eval(term)
        assert isinstance(out, For)
        assert out.var != "y"  # renamed to avoid capturing the free y

    def test_for_over_if_source(self):
        term = For(
            "x", If(Var("c"), Table("t"), Empty()), Return(Var("x"))
        )
        out = symbolic_eval(term)
        assert out == If(
            Var("c"),
            For("x", Table("t"), Return(Var("x"))),
            Empty(),
        )

    def test_projection_from_if(self):
        term = Project(
            If(Var("c"), Record((("a", Const(1)),)), Record((("a", Const(2)),))),
            "a",
        )
        assert symbolic_eval(term) == If(Var("c"), Const(1), Const(2))

    def test_application_of_if(self):
        # (if c then (λx.x) else (λx.x)) 1 — hoist, then β in both branches.
        identity = Lam("x", Var("x"))
        term = App(If(Var("c"), identity, identity), Const(1))
        assert symbolic_eval(term) == If(Var("c"), Const(1), Const(1))

    def test_if_in_if_condition(self):
        term = If(
            If(Var("c"), Const(True), Var("d")),
            Const(1),
            Const(2),
        )
        out = symbolic_eval(term)
        assert out == If(
            Var("c"), Const(1), If(Var("d"), Const(1), Const(2))
        )


class TestNormalForm:
    def test_reports_normal(self):
        term = For("x", Table("t"), Return(Var("x")))
        assert is_c_normal(term)
        assert symbolic_eval(term) == term

    def test_reports_redex(self):
        assert not is_c_normal(App(Lam("x", Var("x")), Const(1)))
        assert not is_c_normal(For("x", Return(Const(1)), Return(Var("x"))))

    def test_result_is_always_normal(self):
        from repro.data import queries

        for name, query in {**queries.FLAT_QUERIES, **queries.NESTED_QUERIES}.items():
            out = symbolic_eval(query)
            assert is_c_normal(out), f"{name} not ⇝c-normal after rewriting"

    def test_idempotent(self):
        from repro.data import queries

        once = symbolic_eval(queries.Q6)
        assert symbolic_eval(once) == once

    def test_preserves_semantics_q6(self):
        from repro.data import queries
        from repro.data.organisation import figure3_database
        from repro.nrc.semantics import evaluate
        from repro.values import bag_equal

        db = figure3_database()
        assert bag_equal(
            evaluate(queries.Q6, db), evaluate(symbolic_eval(queries.Q6), db)
        )

    def test_eliminates_higher_order(self):
        from repro.data import queries
        from repro.nrc.ast import subterms

        out = symbolic_eval(queries.Q2)
        assert not any(
            isinstance(sub, (Lam, App)) for sub in subterms(out)
        ), "λ/application survived symbolic evaluation"


# --------------------------------------------------------------------------
# The environment machine: named capture cases.  Each is checked three ways —
# the result is c-normal, it means what the input means on Fig. 3 data, and
# (for a β-redex) it is the normal form of the textbook one-step reduct
# ``ast.substitute`` builds.


def canonical(term, names=None, depth=0):
    """``term`` with every ``for``/λ-bound variable named after the depth of
    its binder: α-equivalent terms become equal."""
    names = names or {}
    if isinstance(term, Var):
        return Var(names.get(term.name, term.name))
    if isinstance(term, For):
        return For(
            f"#{depth}",
            canonical(term.source, names, depth),
            canonical(term.body, {**names, term.var: f"#{depth}"}, depth + 1),
        )
    if isinstance(term, Lam):
        inner = {**names, term.param: f"#{depth}"}
        return Lam(f"#{depth}", canonical(term.body, inner, depth + 1), term.param_type)
    return map_subterms(term, lambda sub: canonical(sub, names, depth))


def alpha_equal(left, right) -> bool:
    return canonical(left) == canonical(right)


def _same_meaning(term, env=None) -> bool:
    from repro.data.organisation import figure3_database
    from repro.nrc.semantics import evaluate
    from repro.values import bag_equal

    db = figure3_database()
    return bag_equal(
        evaluate(term, db, env), evaluate(symbolic_eval(term), db, env)
    )


def _beta_law(redex: App) -> bool:
    """nf_c((λx.N) M) =α nf_c(N[x := M]), the reduct built by the public
    capture-avoiding ``ast.substitute``."""
    reduct = substitute(redex.fun.body, redex.fun.param, redex.arg)
    return alpha_equal(symbolic_eval(redex), symbolic_eval(reduct))


DEPTS, STAFF = Table("departments"), Table("employees")

#: Terms whose normal form needs a fresh name: ``for (x ← for (y ← t) M) N``
#: with y free in N, and a β-redex whose argument mentions a variable the
#: body binds.
RENAMING = {
    "for-over-for": For(
        "x",
        For("y", STAFF, Return(Var("y"))),
        Return(b.record(a=Var("x"), b=Var("y"))),
    ),
    "beta-redex": App(
        Lam("x", For("y", STAFF, Return(b.record(a=Var("x"), b=Var("y"))))),
        Var("y"),
    ),
}


class TestEnvironmentMachine:
    def test_shadowed_generator(self):
        # for (x ← departments) for (x ← employees) return x.name: the inner
        # x shadows the outer one, in the input and in whatever comes out.
        term = For("x", DEPTS, For("x", STAFF, Return(Project(Var("x"), "name"))))
        out = symbolic_eval(term)
        assert is_c_normal(out)
        assert alpha_equal(out, term)
        assert _same_meaning(term)

    def test_argument_free_in_a_body_that_rebinds_its_name(self):
        # (λx. for (y ← employees) return ⟨a = x, b = y.name⟩) y — the
        # argument is the *free* y; the generator y must not capture it.
        body = For(
            "y", STAFF, Return(b.record(a=Var("x"), b=Project(Var("y"), "name")))
        )
        redex = App(Lam("x", body), Var("y"))
        out = symbolic_eval(redex)
        assert is_c_normal(out)
        assert isinstance(out, For) and out.var != "y"
        assert out.body == Return(
            b.record(a=Var("y"), b=Project(Var(out.var), "name"))
        )
        assert _same_meaning(redex, {"y": "free"})
        assert _beta_law(redex)

    def test_for_over_for_with_the_inner_binder_free_in_the_body(self):
        # for (x ← for (y ← employees) return y) return ⟨a = x.name, b = y⟩
        term = For(
            "x",
            For("y", STAFF, Return(Var("y"))),
            Return(b.record(a=Project(Var("x"), "name"), b=Var("y"))),
        )
        out = symbolic_eval(term)
        assert is_c_normal(out)
        assert out == For(
            out.var,
            STAFF,
            Return(b.record(a=Project(Var(out.var), "name"), b=Var("y"))),
        )
        assert out.var != "y"
        assert _same_meaning(term, {"y": 7})

    def test_closure_applied_twice_under_different_binders(self):
        # (λf. for (a ← departments) for (b ← employees)
        #        return ⟨d = f a, e = f b⟩) (λr. r.name)
        body = For(
            "a",
            DEPTS,
            For(
                "b",
                STAFF,
                Return(b.record(d=App(Var("f"), Var("a")), e=App(Var("f"), Var("b")))),
            ),
        )
        redex = App(Lam("f", body), Lam("r", Project(Var("r"), "name")))
        out = symbolic_eval(redex)
        assert out == For(
            "a",
            DEPTS,
            For(
                "b",
                STAFF,
                Return(b.record(d=Project(Var("a"), "name"), e=Project(Var("b"), "name"))),
            ),
        )
        assert _same_meaning(redex)
        assert _beta_law(redex)

    def test_bag_used_inside_itself_renames_the_reemitted_binder(self):
        # (λv. for (a ← v) for (b ← v) return ⟨l = a.name, r = b.name⟩)
        #   (for (y ← employees) return y): the normal bag is re-emitted
        # under its own binder, which must then take a fresh name.
        body = For(
            "a",
            Var("v"),
            For(
                "b",
                Var("v"),
                Return(
                    b.record(l=Project(Var("a"), "name"), r=Project(Var("b"), "name"))
                ),
            ),
        )
        redex = App(Lam("v", body), For("y", STAFF, Return(Var("y"))))
        out = symbolic_eval(redex)
        assert is_c_normal(out)
        assert isinstance(out, For) and isinstance(out.body, For)
        assert out.var != out.body.var
        assert _same_meaning(redex)
        assert _beta_law(redex)

    def test_argument_moved_under_a_comprehension_is_not_captured(self):
        # (for (z ← employees) f) z — E[for] with E = [ ] M moves the
        # argument, the *free* z, under the binder z (the substitution-based
        # normaliser captured it).
        term = App(For("z", STAFF, Var("f")), Var("z"))
        out = symbolic_eval(term)
        assert is_c_normal(out)
        assert isinstance(out, For) and out.var != "z"
        assert out.body == App(Var("f"), Var("z"))

    def test_escaping_closures_are_reified(self):
        # A λ that is never applied — under a record, a conditional and a
        # return — comes back as a λ over its normalised body, with the
        # environment it closed over written in.
        escaping = App(
            Lam(
                "k",
                Return(
                    b.record(
                        f=If(
                            Var("c"),
                            Lam("x", App(Lam("y", Var("y")), Var("x"))),
                            Lam("x", Var("k")),
                        )
                    )
                ),
            ),
            Const(7),
        )
        out = symbolic_eval(escaping)
        assert is_c_normal(out)
        assert out == Return(
            b.record(f=If(Var("c"), Lam("x", Var("x")), Lam("x", Const(7))))
        )
        assert symbolic_eval(out) == out
        assert _beta_law(escaping)

    def test_reified_parameter_avoids_the_names_it_closes_over(self):
        # (λk. λx. ⟨a = k, b = x⟩) x — the result is a λ whose parameter may
        # not be called x: the free x it closed over would be captured.
        redex = App(Lam("k", Lam("x", b.record(a=Var("k"), b=Var("x")))), Var("x"))
        out = symbolic_eval(redex)
        assert isinstance(out, Lam) and out.param != "x"
        assert out.body == b.record(a=Var("x"), b=Var(out.param))
        assert _beta_law(redex)

    def test_stdlib_combinators_nested_three_deep(self):
        from repro.nrc import stdlib

        # Departments all of whose employees earn something and have a task
        # nobody in the department shares a name with: all_ ∘ any_ ∘ contains.
        term = b.for_(
            "d",
            DEPTS,
            lambda d: b.where(
                stdlib.all_(
                    stdlib.filter_(
                        b.lam("e", lambda e: b.eq(e["dept"], d["name"])), STAFF
                    ),
                    b.lam(
                        "e",
                        lambda e: stdlib.any_(
                            Table("tasks"),
                            b.lam(
                                "t",
                                lambda t: b.and_(
                                    b.eq(t["employee"], e["name"]),
                                    b.not_(
                                        stdlib.contains(
                                            b.for_(
                                                "o",
                                                STAFF,
                                                lambda o: b.ret(o["name"]),
                                            ),
                                            t["task"],
                                        )
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
                b.ret(d["name"]),
            ),
        )
        out = symbolic_eval(term)
        assert is_c_normal(out)
        assert not any(isinstance(sub, (Lam, App)) for sub in subterms(out))
        assert _same_meaning(term)

    @pytest.mark.parametrize("term", sorted(RENAMING), ids=sorted(RENAMING))
    def test_normal_forms_do_not_depend_on_process_history(self, term):
        # Each forces a rename, and the name comes from a per-call counter.
        first = symbolic_eval(RENAMING[term])
        for other in RENAMING.values():
            symbolic_eval(other)
        assert symbolic_eval(RENAMING[term]) == first
