"""Stitching shredded results back into nested values (§5.2).

    stitch(Â)                 = stitch_{⊤·1}(Â)
    stitch_c(O)               = c
    stitch_r(⟨ℓᵢ : Âᵢ⟩)       = ⟨ℓᵢ = stitch_{r.ℓᵢ}(Âᵢ)⟩
    stitch_I((Bag Â)^s)       = [stitch_w(Â) | ⟨I', w⟩ ← s, I' = I]

Two implementations of :func:`stitch`, the per-path engine's (and the
reference the batched engine's fold is tested against):

* ``one_pass=True`` (default) — §8's "implementing stitching in one pass"
  optimisation: each result list is grouped by outer index into a hash map
  once, making stitching O(total rows);
* ``one_pass=False`` — the naive definition above, which rescans every
  result list at every lookup (quadratic; kept for the ablation benchmark).

The batched engine does not come through here: its executor folds each
row straight into its parent's record (decode fused into stitch), and
:func:`stitch_grouped` only picks the finished ⊤·1 bucket.
"""

from __future__ import annotations

from typing import Any

from repro.errors import StitchError
from repro.shred.indexes import IndexFn, canonical_index_fn
from repro.shred.packages import Package, PkgBag, PkgBase, PkgRecord, pmap
from repro.shred.semantics import top_index

__all__ = ["stitch", "stitch_value", "stitch_grouped"]


def stitch(
    result_package: Package,
    index: IndexFn = canonical_index_fn,
    one_pass: bool = True,
) -> list:
    """Stitch a shredded *value* package into the nested result.

    ``result_package`` carries, on each bag node, the result list
    ``[⟨index, flat value⟩, …]`` of the corresponding shredded query.
    (The batched engine's results are already nested: see
    :func:`stitch_grouped`.)
    """
    if not isinstance(result_package, PkgBag):
        raise StitchError("the top of a query package must be a bag")
    if one_pass:
        result_package = pmap(_group, result_package)
    return _stitch_bag(result_package, top_index(index), one_pass)


def stitch_value(package: Package, value: Any, one_pass: bool = True) -> Any:
    """stitch_w(Â): stitch along ``value`` (index / record of indexes)."""
    if isinstance(package, PkgBase):
        return value
    if isinstance(package, PkgRecord):
        if not isinstance(value, dict):
            raise StitchError(f"expected a record value, got {value!r}")
        return {
            label: stitch_value(sub, value[label], one_pass)
            for label, sub in package.fields
        }
    if isinstance(package, PkgBag):
        return _stitch_bag(package, value, one_pass)
    raise StitchError(f"not a package: {package!r}")


def _stitch_bag(package: PkgBag, index_value: Any, one_pass: bool) -> list:
    rows = package.annotation
    if one_pass:
        if not isinstance(rows, dict):
            raise StitchError("one-pass stitching requires grouped results")
        matches = rows.get(index_value, [])
    else:
        if not isinstance(rows, list):
            raise StitchError(f"expected a result list, got {type(rows)}")
        matches = [w for (i, w) in rows if i == index_value]
    return [stitch_value(package.element, w, one_pass) for w in matches]


def _group(rows: list) -> dict:
    """Group a result list by outer index, preserving encounter order."""
    grouped: dict[Any, list] = {}
    for outer, value in rows:
        grouped.setdefault(outer, []).append(value)
    return grouped


def stitch_grouped(result_package: Package, top_index_value: Any) -> list:
    """The nested result of a package the batched engine has run: the top
    bag's bucket for ``top_index_value`` (⊤·1).

    :func:`repro.backend.executor.execute_package_batched` folds children
    first and builds every record with its inner bags already in place, so
    by the time it returns there is nothing left to stitch — each bag node
    carries ``{outer index: [finished element, …]}`` and this picks one
    list out of the top one (the list itself, not a copy).
    """
    if not isinstance(result_package, PkgBag) or not isinstance(
        result_package.annotation, dict
    ):
        raise StitchError("expected a bag package of pre-grouped results")
    return result_package.annotation.get(top_index_value) or []
