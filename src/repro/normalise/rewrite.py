"""Stage 1 of normalisation: symbolic evaluation ⇝c (App. C.1).

β-rules (each eliminates an introduction form inside an elimination form):

    (λx.N) M                     ⇝c  N[x := M]
    ⟨…, ℓᵢ = Mᵢ, …⟩.ℓᵢ           ⇝c  Mᵢ
    if true  then M else N       ⇝c  M
    if false then M else N       ⇝c  N
    for (x ← return M) N         ⇝c  N[x := M]

Commuting conversions hoist comprehensions, conditionals, ∅ and ⊎ out of the
elimination frames  E ::= [ ] M | [ ].ℓ | if [ ] then M else N | for (x ← [ ]) N:

    E[for (x ← M) N]   ⇝c  for (x ← M) E[N]
    E[if L then M else N] ⇝c if L then E[M] else E[N]
    E[∅]               ⇝c  ∅
    E[M₁ ⊎ M₂]          ⇝c  E[M₁] ⊎ E[M₂]

The relation is strongly normalising (Theorem 15), so any strategy reaches
nf_c; ours is an **environment machine**.  ``_Machine.nfc(term, env, scope)``
never builds ``N[x := M]``:

* ``env`` maps each *input* variable bound on the way down to the
  already-normal term it stands for — the argument of the β-redex that bound
  it, the element of the ``return`` it ranged over, or ``Var(name)`` for a
  generator that stays in the output.  A variable is one dictionary lookup;
  an input-free variable is not in ``env`` and stands for itself.
* A ``λ`` evaluates to a closure (its body, parameter and ``env``);
  ``_apply`` enters the body under ``env + {param: arg}``.  The operands the
  commuting conversions distribute over are *normal*, so ``E[if]``,
  ``E[for]``, ``E[∅]`` and ``E[⊎]`` destructure them and never re-normalise;
  the untouched half of a frame (a conditional's branches, a comprehension's
  body) stays an input term paired with its ``env`` until the position it
  lands in is known, and is then evaluated once per landing.
* ``scope`` is the set of names an output binder at this position must
  avoid: the output binders enclosing it plus the input's free variables.
  Every value in ``env`` was built at an enclosing position, so its free
  variables lie in ``scope``; a binder keeps its name unless that name is in
  ``scope`` and otherwise takes a fresh one from a per-call counter.  That is
  why no capture check is needed: nothing that can be placed under a binder
  mentions its name.  (A normal comprehension re-emitted under a binder of
  its own name — a bag used inside itself — is the one case where a normal
  term is walked again, to rename.)
* A closure that is never applied (a higher-order or ill-typed result) is
  reified to a ``λ`` in one final walk, taken only if a closure was built.

``nf_c`` of a c-normal term without shadowed binders is the term itself, and
the result depends on the input alone — never on what was normalised before.
``empty`` is treated as an uninterpreted constant: we reduce inside it but it
does not otherwise interact with the rules.
"""

from __future__ import annotations

from repro.nrc import ast
from repro.nrc.ast import free_vars

__all__ = ["symbolic_eval", "is_c_normal"]

#: Input variable name → the normal term (or closure) it stands for.
_Env = dict[str, ast.Term]

_ATOMS = frozenset({ast.Const, ast.Table, ast.Empty, ast.Param})


def symbolic_eval(term: ast.Term) -> ast.Term:
    """Compute the ⇝c-normal form nf_c(term)."""
    machine = _Machine()
    scope = free_vars(term)
    normal = machine.nfc(term, {}, scope)
    return machine.reify(normal, scope) if machine.closures else normal


class _Closure(ast.Term):
    """The value of ``λparam.body`` under ``env``: a λ whose substitution is
    pending.  A :class:`~repro.nrc.ast.Term` only so that it can sit inside
    a record, a conditional or a ``return`` on its way to an application."""

    __slots__ = ("param", "body", "param_type", "env")

    def __init__(self, param: str, body: ast.Term, param_type, env: _Env) -> None:
        self.param = param
        self.body = body
        self.param_type = param_type
        self.env = env


class _Machine:
    """One ``symbolic_eval`` call: the fresh-name counter and whether any
    closure was built (only then can one have escaped into the result)."""

    __slots__ = ("renames", "closures")

    def __init__(self) -> None:
        self.renames = 0
        self.closures = False

    def binder(self, name: str, scope: frozenset[str]) -> str:
        """``name``, or a fresh variant of it if ``scope`` already has it."""
        fresh = name
        while fresh in scope:
            self.renames += 1
            fresh = f"{name}%{self.renames}"
        return fresh

    def nfc(self, term: ast.Term, env: _Env, scope: frozenset[str]) -> ast.Term:
        kind = type(term)
        if kind is ast.Var:
            return env.get(term.name, term)

        if kind is ast.Project:
            return self._project(self.nfc(term.record, env, scope), term.label, scope)

        if kind is ast.For:
            return self._comprehend(
                term.var, self.nfc(term.source, env, scope), term.body, env, scope
            )

        if kind is ast.Record:
            return ast.Record(
                tuple(
                    (label, self.nfc(value, env, scope))
                    for label, value in term.fields
                )
            )

        if kind is ast.Prim:
            return ast.Prim(
                term.op, tuple(self.nfc(arg, env, scope) for arg in term.args)
            )

        if kind is ast.Return:
            return ast.Return(self.nfc(term.element, env, scope))

        if kind is ast.App:
            fun = self.nfc(term.fun, env, scope)
            return self._apply(fun, self.nfc(term.arg, env, scope), scope)

        if kind is ast.Lam:
            self.closures = True
            return _Closure(term.param, term.body, term.param_type, env)

        if kind is ast.If:
            return self._conditional(
                self.nfc(term.cond, env, scope), term.then, term.orelse, env, scope
            )

        if kind is ast.Union:
            return ast.Union(
                self.nfc(term.left, env, scope), self.nfc(term.right, env, scope)
            )

        if kind is ast.IsEmpty:
            return ast.IsEmpty(self.nfc(term.bag, env, scope))

        if kind in _ATOMS:
            return term

        if kind is _Closure:
            # Only reached while renaming a normal term: rename what the
            # closure captured.
            captured = {
                name: self.nfc(value, env, scope) for name, value in term.env.items()
            }
            return _Closure(term.param, term.body, term.param_type, captured)

        raise TypeError(f"not a λNRC term: {term!r}")

    def _rebind(
        self, term: ast.For, scope: frozenset[str]
    ) -> tuple[str, ast.Term, frozenset[str]]:
        """The binder, body and inner scope of a *normal* comprehension whose
        binder is re-emitted at ``scope`` (``E[for …]``)."""
        name = self.binder(term.var, scope)
        inner = scope | {name}
        if name == term.var:
            return name, term.body, inner
        return name, self.nfc(term.body, {term.var: ast.Var(name)}, inner), inner

    def _apply(
        self, fun: ast.Term, arg: ast.Term, scope: frozenset[str]
    ) -> ast.Term:
        """Normalise an application of normal ``fun`` to normal ``arg``."""
        kind = type(fun)
        if kind is _Closure:
            # β: (λx.N) M — enter N with x standing for M.
            return self.nfc(fun.body, {**fun.env, fun.param: arg}, scope)
        if kind is ast.If:
            # E[if…] with E = [ ] M.
            return ast.If(
                fun.cond,
                self._apply(fun.then, arg, scope),
                self._apply(fun.orelse, arg, scope),
            )
        if kind is ast.For:
            # E[for…] with E = [ ] M (only well-typed in degenerate cases).
            var, body, inner = self._rebind(fun, scope)
            return ast.For(var, fun.source, self._apply(body, arg, inner))
        return ast.App(fun, arg)

    def _project(
        self, record: ast.Term, label: str, scope: frozenset[str]
    ) -> ast.Term:
        """Normalise a projection from normal ``record``."""
        kind = type(record)
        if kind is ast.Record:
            return record.field(label)  # β (already normal)
        if kind is ast.If:
            return ast.If(
                record.cond,
                self._project(record.then, label, scope),
                self._project(record.orelse, label, scope),
            )
        if kind is ast.For:
            var, body, inner = self._rebind(record, scope)
            return ast.For(var, record.source, self._project(body, label, inner))
        return ast.Project(record, label)

    def _conditional(
        self,
        cond: ast.Term,
        then: ast.Term,
        orelse: ast.Term,
        env: _Env,
        scope: frozenset[str],
    ) -> ast.Term:
        """Normalise a conditional on normal ``cond``; the branches are input
        terms under ``env``."""
        kind = type(cond)
        if kind is ast.Const and cond.value is True:
            return self.nfc(then, env, scope)
        if kind is ast.Const and cond.value is False:
            return self.nfc(orelse, env, scope)
        if kind is ast.If:
            # E[if…] with E = if [ ] then M else N (boolean-in-boolean).
            return ast.If(
                cond.cond,
                self._conditional(cond.then, then, orelse, env, scope),
                self._conditional(cond.orelse, then, orelse, env, scope),
            )
        return ast.If(cond, self.nfc(then, env, scope), self.nfc(orelse, env, scope))

    def _comprehend(
        self,
        var: str,
        source: ast.Term,
        body: ast.Term,
        env: _Env,
        scope: frozenset[str],
    ) -> ast.Term:
        """Normalise ``for (var ← source) body`` on normal ``source``; ``body``
        is an input term under ``env``."""
        kind = type(source)
        if kind is ast.Return:
            # β: for (x ← return M) N — enter N with x standing for M.
            return self.nfc(body, {**env, var: source.element}, scope)
        if kind is ast.Empty:
            # E[∅] with E = for (x ← [ ]) N.
            return ast.Empty()
        if kind is ast.Union:
            # E[M₁ ⊎ M₂].
            return ast.Union(
                self._comprehend(var, source.left, body, env, scope),
                self._comprehend(var, source.right, body, env, scope),
            )
        if kind is ast.For:
            # E[for (y ← M) N] ⇝ for (y ← M) for (x ← N) body.
            inner_var, inner_body, inner = self._rebind(source, scope)
            return ast.For(
                inner_var,
                source.source,
                self._comprehend(var, inner_body, body, env, inner),
            )
        if kind is ast.If:
            # E[if L then M else N].
            return ast.If(
                source.cond,
                self._comprehend(var, source.then, body, env, scope),
                self._comprehend(var, source.orelse, body, env, scope),
            )
        name = self.binder(var, scope)
        return ast.For(
            name,
            source,
            self.nfc(body, {**env, var: ast.Var(name)}, scope | {name}),
        )

    def reify(self, term: ast.Term, scope: frozenset[str]) -> ast.Term:
        """Turn the closures left in a normal ``term`` back into λs."""
        if isinstance(term, _Closure):
            name = self.binder(term.param, scope)
            inner = scope | {name}
            body = self.nfc(term.body, {**term.env, term.param: ast.Var(name)}, inner)
            return ast.Lam(name, self.reify(body, inner), term.param_type)
        if isinstance(term, ast.For):
            return ast.For(
                term.var,
                self.reify(term.source, scope),
                self.reify(term.body, scope | {term.var}),
            )
        return ast.map_subterms(term, lambda sub: self.reify(sub, scope))


def is_c_normal(term: ast.Term) -> bool:
    """True iff no ⇝c rule applies anywhere in ``term`` (term ∈ nf_c)."""
    for sub in ast.subterms(term):
        if isinstance(sub, ast.App) and isinstance(
            sub.fun, (ast.Lam, ast.If, ast.For)
        ):
            return False
        if isinstance(sub, ast.Project) and isinstance(
            sub.record, (ast.Record, ast.If, ast.For)
        ):
            return False
        if isinstance(sub, ast.If):
            if isinstance(sub.cond, ast.If):
                return False
            if isinstance(sub.cond, ast.Const) and isinstance(
                sub.cond.value, bool
            ):
                return False
        if isinstance(sub, ast.For) and isinstance(
            sub.source, (ast.Return, ast.Empty, ast.Union, ast.For, ast.If)
        ):
            return False
    return True
