"""Shredded packages (§4.2).

A shredded package Â is the result *type* with an annotation attached to
every bag constructor:

    Â ::= O | ⟨ℓ : Â⟩ | (Bag Â)^α

Annotations α are drawn from one set per package: shredded types (for the
type-level package), shredded queries (for the query package), SQL strings,
or result lists (for the value package after evaluation).  ``pmap`` maps a
function over the annotations, which is how the pipeline turns a query
package into a result package (§5.1) without touching the structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Union as PyUnion

from repro.errors import ShreddingError
from repro.nrc.types import BagType, BaseType, RecordType, Type
from repro.shred.paths import DOWN, EPSILON, Path

__all__ = [
    "PkgBase",
    "PkgRecord",
    "PkgBag",
    "Package",
    "erase",
    "package_from",
    "pmap",
    "annotations",
    "annotation_at",
    "shred_type_package",
    "shred_query_package",
]


@dataclass(frozen=True)
class PkgBase:
    """A base-type leaf O."""

    base: BaseType


@dataclass(frozen=True)
class PkgRecord:
    """A record node ⟨ℓᵢ : Âᵢ⟩ (fields sorted by label)."""

    fields: tuple[tuple[str, "Package"], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fields", tuple(sorted(self.fields, key=lambda f: f[0]))
        )

    def field(self, label: str) -> "Package":
        for name, pkg in self.fields:
            if name == label:
                return pkg
        raise ShreddingError(f"package record has no field {label!r}")


@dataclass(frozen=True)
class PkgBag:
    """An annotated bag node (Bag Â)^annotation."""

    element: "Package"
    annotation: Any


Package = PyUnion[PkgBase, PkgRecord, PkgBag]


def erase(package: Package) -> Type:
    """Erase annotations, recovering the underlying type (Theorem 3)."""
    if isinstance(package, PkgBase):
        return package.base
    if isinstance(package, PkgRecord):
        return RecordType(
            tuple((label, erase(pkg)) for label, pkg in package.fields)
        )
    if isinstance(package, PkgBag):
        return BagType(erase(package.element))
    raise ShreddingError(f"not a package: {package!r}")


def package_from(a: Type, annotate: Callable[[Path], Any]) -> Package:
    """package_f(A): annotate each bag constructor with f(path-to-it)."""
    return _package(a, annotate, EPSILON)


def _package(a: Type, annotate: Callable[[Path], Any], path: Path) -> Package:
    if isinstance(a, BaseType):
        return PkgBase(a)
    if isinstance(a, RecordType):
        return PkgRecord(
            tuple(
                (label, _package(ftype, annotate, path.label(label)))
                for label, ftype in a.fields
            )
        )
    if isinstance(a, BagType):
        return PkgBag(_package(a.element, annotate, path.down()), annotate(path))
    raise ShreddingError(f"cannot package non-nested type {a}")


def pmap(f: Callable[[Any], Any], package: Package) -> Package:
    """Map ``f`` over the annotations; the erasure is unchanged (§5.1)."""
    if isinstance(package, PkgBase):
        return package
    if isinstance(package, PkgRecord):
        return PkgRecord(
            tuple((label, pmap(f, pkg)) for label, pkg in package.fields)
        )
    if isinstance(package, PkgBag):
        return PkgBag(pmap(f, package.element), f(package.annotation))
    raise ShreddingError(f"not a package: {package!r}")


def annotations(
    package: Package, path: Path = EPSILON
) -> Iterator[tuple[Path, Any]]:
    """Yield (path, annotation) for every bag node, in paths(A) order: a
    bag before the bags in its element, record fields by label.  ``path``
    is where ``package`` itself sits."""
    if isinstance(package, PkgBag):
        yield path, package.annotation
        yield from annotations(package.element, path.down())
    elif isinstance(package, PkgRecord):
        for label, pkg in package.fields:
            yield from annotations(pkg, path.label(label))
    elif not isinstance(package, PkgBase):
        raise ShreddingError(f"not a package: {package!r}")


def annotation_at(package: Package, path: Path) -> Any:
    """The annotation on the bag constructor at ``path``."""
    current = package
    for step in path.steps:
        if step is DOWN:
            if not isinstance(current, PkgBag):
                raise ShreddingError(f"↓ at non-bag package node")
            current = current.element
        else:
            if not isinstance(current, PkgRecord):
                raise ShreddingError(f"label {step!r} at non-record package node")
            current = current.field(str(step))
    if not isinstance(current, PkgBag):
        raise ShreddingError(f"path {path} does not end at a bag")
    return current.annotation


def shred_type_package(a: Type) -> Package:
    """shred_A(A): annotate each bag with its shredded type ⟦A⟧p."""
    from repro.shred.shred_types import outer_shred

    return package_from(a, lambda path: outer_shred(a, path))


def shred_query_package(query, a: Type) -> Package:
    """shred_L(A): annotate each bag with the shredded query ⟦L⟧p.

    ``query`` is an annotated :class:`~repro.normalise.normal_form.NormQuery`
    of type ``a``.
    """
    from repro.shred.translate import shred_query

    return package_from(a, lambda path: shred_query(query, path))
