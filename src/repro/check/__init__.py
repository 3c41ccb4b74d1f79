"""Static checking for the shredding pipeline: verifiers + diagnostics.

Two faces, one subsystem (the compiler analogy is LLVM's ``-verify-each``
plus clang's diagnostics):

* :mod:`repro.check.verifier` — **stage verifiers** that re-establish each
  translation stage's invariants on its output (after normalise, shred,
  let-insertion, codegen, and after every individual optimizer rewrite)
  and raise :class:`~repro.errors.VerifierError` naming the stage and
  failing rule.  Enabled via ``SqlOptions(verify=True)`` or ``REPRO_VERIFY=1``; on by
  default under pytest/CI, off in production compiles.

* :mod:`repro.check.diagnostics` — **query diagnostics**
  (:class:`Diagnostic` values) explaining well-formed but surprising
  queries: dead parameters, shard-fallback causes, the shredding bound,
  advisory-index hints.  Surfaced as ``Prepared.diagnostics()``,
  ``Session.lint()`` and ``python -m repro lint``.
"""

from repro.check.diagnostics import (
    SEVERITIES,
    Diagnostic,
    collect_diagnostics,
    has_failures,
)
from repro.check.verifier import (
    rewrite_hook,
    verification_enabled,
    verify_compiled_package,
    verify_compiled_sql,
    verify_let_inserted,
    verify_normal_form,
    verify_normalisation,
    verify_rewrite,
    verify_shredded_package,
    verify_statement,
)
from repro.errors import VerifierError

__all__ = [
    "Diagnostic",
    "SEVERITIES",
    "VerifierError",
    "collect_diagnostics",
    "has_failures",
    "rewrite_hook",
    "verification_enabled",
    "verify_compiled_package",
    "verify_compiled_sql",
    "verify_let_inserted",
    "verify_normal_form",
    "verify_normalisation",
    "verify_rewrite",
    "verify_shredded_package",
    "verify_statement",
]
