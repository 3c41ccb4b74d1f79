"""Query normalisation (§2.2, App. C): λNRC → normal form.

Three stages:

1. :func:`repro.normalise.rewrite.symbolic_eval` — β-reduction and commuting
   conversions (⇝c), eliminating higher-order features and flattening
   nesting.  An environment machine: variables are looked up in an
   environment of already-normal terms, a λ is a closure entered when it is
   applied, and an output binder is renamed (from a per-call counter) only
   when an enclosing binder already has its name — nothing is substituted,
   and the normal form is a function of the input term alone.
2. :func:`repro.normalise.hoist.hoist_ifs` — hoist conditionals to the
   nearest enclosing comprehension (⇝h).
3. :func:`repro.normalise.norm.normalise` — the structural pass producing
   the normal form of §2.2, with static-index annotation (§4); generators
   are renamed apart ``x1, x2, …`` by lookup in its own environment.

:func:`repro.nrc.ast.substitute` is not used here; it stays the textbook
definition the tests compare the machine against.
"""

from repro.normalise.hoist import hoist_ifs, is_h_normal
from repro.normalise.norm import annotate, normalise
from repro.normalise.normal_form import (
    BaseExpr,
    Comprehension,
    ConstNF,
    EmptyNF,
    Generator,
    NormQuery,
    NormTerm,
    ParamNF,
    PrimNF,
    RecordNF,
    VarField,
    nf_to_term,
    pretty_nf,
)
from repro.normalise.rewrite import is_c_normal, symbolic_eval

__all__ = [
    "normalise",
    "annotate",
    "symbolic_eval",
    "hoist_ifs",
    "is_c_normal",
    "is_h_normal",
    "nf_to_term",
    "pretty_nf",
    "BaseExpr",
    "Comprehension",
    "ConstNF",
    "EmptyNF",
    "Generator",
    "NormQuery",
    "NormTerm",
    "ParamNF",
    "PrimNF",
    "RecordNF",
    "VarField",
]
