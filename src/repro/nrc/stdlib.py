"""Higher-order query combinators from §3 of the paper.

These are *object-level* definitions: they build λNRC terms containing
λ-abstractions and applications, which the normaliser then eliminates
(App. C).  Using them exercises the higher-order fragment the same way the
paper's examples do::

    filter p xs   = for (x ← xs) where (p x) return x
    any xs p      = ¬ empty(for (x ← xs) where (p x) return ⟨⟩)
    all xs p      = ¬ (any xs (λx. ¬ (p x)))
    contains xs u = any xs (λx. x = u)

Each combinator takes and returns :class:`~repro.nrc.ast.Term`; predicate
arguments may be object-level lambdas or any term of function type.
"""

from __future__ import annotations

import itertools

from repro.nrc import builders as b
from repro.nrc.ast import App, Term

__all__ = ["filter_", "any_", "all_", "contains", "count_via_empty"]

_COUNTER = itertools.count(1)  # next() is one atomic step


def _fresh(base: str) -> str:
    return f"{base}_{next(_COUNTER)}"


def filter_(predicate: Term, xs: Term) -> Term:
    """``filter p xs = for (x ← xs) where (p x) return x``."""
    x = _fresh("x")
    return b.for_(
        x, xs, lambda v: b.where(App(predicate, v), b.ret(v))
    )


def any_(xs: Term, predicate: Term) -> Term:
    """``any xs p = ¬ empty (for (x ← xs) where (p x) return ⟨⟩)``."""
    x = _fresh("x")
    probe = b.for_(x, xs, lambda v: b.where(App(predicate, v), b.ret(b.record())))
    return b.not_(b.is_empty(probe))


def all_(xs: Term, predicate: Term) -> Term:
    """``all xs p = ¬ (any xs (λx. ¬ (p x)))``."""
    x = _fresh("x")
    negated = b.lam(x, lambda v: b.not_(App(predicate, v)))
    return b.not_(any_(xs, negated))


def contains(xs: Term, element: Term) -> Term:
    """``contains xs u = any xs (λx. x = u)`` (equality at base type)."""
    x = _fresh("x")
    return any_(xs, b.lam(x, lambda v: b.eq(v, element)))


def count_via_empty(xs: Term) -> Term:
    """``empty``-based emptiness flag as Int (0/1) — a tiny helper used by
    examples to show that aggregation is *not* in the fragment (§8 notes
    Ferry supports grouping/aggregation; our translation, like the paper's,
    does not).  Returns ``if empty xs then 0 else 1``.
    """
    return b.if_(b.is_empty(xs), b.const(0), b.const(1))
