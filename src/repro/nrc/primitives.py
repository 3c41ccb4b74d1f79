"""Primitive operators and constants Σ(c) (§2.1).

The paper assumes "boolean values with negation and conjunction, and integer
values with standard arithmetic operations and equality tests"; constants
must be of base type or first-order n-ary functions ⟨O₁, …, Oₙ⟩ → O.

Each primitive carries:

* a *signature checker* mapping argument base types to the result base type
  (equality and ordering are polymorphic across base types),
* a Python implementation used by the in-memory semantics,
* the SQL spelling used by the renderers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import TypeCheckError, UnknownPrimitiveError
from repro.nrc.types import BOOL, INT, STRING, BaseType, Type

__all__ = [
    "PrimSpec",
    "PRIMITIVES",
    "spec",
    "check_prim",
    "apply_prim",
]


@dataclass(frozen=True)
class PrimSpec:
    """Specification of a single primitive operator."""

    name: str
    arity: int
    result_type: Callable[[Sequence[BaseType]], BaseType]
    implementation: Callable[..., object]
    #: SQL template: ``infix`` (binary operator), ``prefix`` (function call
    #: style) or ``custom`` (renderer handles it specially, e.g. NOT).
    sql: str


def _require_base(name: str, args: Sequence[Type]) -> list[BaseType]:
    checked: list[BaseType] = []
    for i, arg in enumerate(args, 1):
        if not isinstance(arg, BaseType):
            raise TypeCheckError(
                f"primitive {name!r}: argument {i} must have base type, got {arg}"
            )
        checked.append(arg)
    return checked


def _comparison(name: str) -> Callable[[Sequence[BaseType]], BaseType]:
    def check(args: Sequence[BaseType]) -> BaseType:
        left, right = args
        if left != right:
            raise TypeCheckError(
                f"primitive {name!r}: operands must share a base type, "
                f"got {left} and {right}"
            )
        return BOOL

    return check


def _ordering(name: str) -> Callable[[Sequence[BaseType]], BaseType]:
    def check(args: Sequence[BaseType]) -> BaseType:
        left, right = args
        if left != right or left == BOOL:
            raise TypeCheckError(
                f"primitive {name!r}: operands must both be Int or String, "
                f"got {left} and {right}"
            )
        return BOOL

    return check


def _fixed(
    name: str, params: tuple[BaseType, ...], result: BaseType
) -> Callable[[Sequence[BaseType]], BaseType]:
    def check(args: Sequence[BaseType]) -> BaseType:
        for i, (got, expected) in enumerate(zip(args, params), 1):
            if got != expected:
                raise TypeCheckError(
                    f"primitive {name!r}: argument {i} has type {got}, "
                    f"expected {expected}"
                )
        return result

    return check


PRIMITIVES: dict[str, PrimSpec] = {}


def _register(
    name: str,
    arity: int,
    result_type: Callable[[Sequence[BaseType]], BaseType],
    implementation: Callable[..., object],
    sql: str,
) -> None:
    PRIMITIVES[name] = PrimSpec(  # CC006: only this module's body calls it
        name, arity, result_type, implementation, sql
    )


_register("=", 2, _comparison("="), lambda a, b: a == b, "infix:=")
_register("<>", 2, _comparison("<>"), lambda a, b: a != b, "infix:<>")
_register("<", 2, _ordering("<"), lambda a, b: a < b, "infix:<")
_register("<=", 2, _ordering("<="), lambda a, b: a <= b, "infix:<=")
_register(">", 2, _ordering(">"), lambda a, b: a > b, "infix:>")
_register(">=", 2, _ordering(">="), lambda a, b: a >= b, "infix:>=")
_register("+", 2, _fixed("+", (INT, INT), INT), lambda a, b: a + b, "infix:+")
_register("-", 2, _fixed("-", (INT, INT), INT), lambda a, b: a - b, "infix:-")
_register("*", 2, _fixed("*", (INT, INT), INT), lambda a, b: a * b, "infix:*")
_register(
    "div",
    2,
    _fixed("div", (INT, INT), INT),
    lambda a, b: int(a / b) if b else 0,
    "infix:/",
)
_register(
    "mod", 2, _fixed("mod", (INT, INT), INT), lambda a, b: a % b if b else 0, "infix:%"
)
_register(
    "and", 2, _fixed("and", (BOOL, BOOL), BOOL), lambda a, b: a and b, "infix:AND"
)
_register("or", 2, _fixed("or", (BOOL, BOOL), BOOL), lambda a, b: a or b, "infix:OR")
_register("not", 1, _fixed("not", (BOOL,), BOOL), lambda a: not a, "prefix:NOT")
_register(
    "^",
    2,
    _fixed("^", (STRING, STRING), STRING),
    lambda a, b: a + b,
    "infix:||",
)


def spec(op: str) -> PrimSpec:
    """Look up the specification of primitive ``op``."""
    try:
        return PRIMITIVES[op]
    except KeyError:
        raise UnknownPrimitiveError(op) from None


def check_prim(op: str, arg_types: Sequence[Type]) -> BaseType:
    """Type-check a primitive application; returns the result base type."""
    prim = spec(op)
    if len(arg_types) != prim.arity:
        raise TypeCheckError(
            f"primitive {op!r} expects {prim.arity} arguments, "
            f"got {len(arg_types)}"
        )
    bases = _require_base(op, arg_types)
    return prim.result_type(bases)


def apply_prim(op: str, args: Sequence[object]) -> object:
    """Evaluate a primitive application on Python values (⟦c⟧, §2.1)."""
    return spec(op).implementation(*args)
