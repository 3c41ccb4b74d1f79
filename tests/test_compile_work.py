"""Work counters for a cold compile: each fact of a plan is computed once,
by the stage that produces it, and not derived again from its output.

Counted by call, not timed: the result type is read off the normal form
(no λNRC term is rebuilt and re-inferred), each statement's row type is
flattened once, the term is walked once for its parameters, and the
verification switch is resolved once per compile: the pipeline's options
leave it undecided, the environment decides it, and every statement's
codegen gets the decision as an explicit ``SqlOptions.verify``.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.flatten.flatten as flatten
from repro.check import verifier
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.normalise import normal_form
from repro.nrc import ast, typecheck
from repro.pipeline import shredder
from repro.pipeline.shredder import ShreddingPipeline
from repro.service.registry import paper_registry
from repro.shred.packages import annotations
from repro.sql.codegen import SqlOptions

REGISTRY = paper_registry()
SHAPES = {"default": SqlOptions(), "flat": SqlOptions(scheme="flat")}
PARAMS = {"dept_staff": {"dept": "Sales"}, "staff_above": {"min_salary": 1000}}


def _undecided(*args, **kwargs) -> bool:
    """A ``verification_enabled`` call that has to read the environment."""
    options = args[0] if args else kwargs.get("options")
    return getattr(options, "verify", None) is None


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the counted functions, wherever a module holds them
    (``verification_enabled`` only when it resolves an undecided switch).
    Verification is off through the environment unless a test turns it on."""
    monkeypatch.setenv("REPRO_VERIFY", "0")
    counted = {
        "infer": typecheck.infer,
        "nf_to_term": normal_form.nf_to_term,
        "flatten_type": flatten.flatten_type,
        "subterms": ast.subterms,
        "collect_param_specs": shredder.collect_param_specs,
        "verification_enabled": verifier.verification_enabled,
    }
    counts: Counter = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            if name != "verification_enabled" or _undecided(*args, **kwargs):
                counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, original in counted.items():
        wrapper = counting(name, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", REGISTRY.names())
def test_cold_compile_derives_nothing_twice(name, shape, calls):
    db = figure3_database()
    compiled = ShreddingPipeline(ORGANISATION_SCHEMA, SHAPES[shape]).compile(
        REGISTRY.lookup(name).term
    )
    statements = [member for _path, member in annotations(compiled.sql_package)]
    for statement in statements:
        statement.fold_source
    compiled.run(db, engine="batched", params=PARAMS.get(name))

    assert compiled.normal_form.comprehensions
    assert calls["infer"] == 0
    assert calls["nf_to_term"] == 0
    assert calls["flatten_type"] == len(statements)
    assert calls["collect_param_specs"] == 1
    assert calls["subterms"] == 1
    assert calls["verification_enabled"] == 1


def test_verification_switch_read_once_with_verification_on(calls, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    for name in REGISTRY.names():
        ShreddingPipeline(ORGANISATION_SCHEMA, SqlOptions()).compile(
            REGISTRY.lookup(name).term
        )
    assert calls["verification_enabled"] == len(REGISTRY.names())


def test_an_empty_normal_form_asks_the_original_term(calls):
    """∅ erased the element type: the one place ``infer`` still runs."""
    from repro.nrc import builders as b

    query = b.for_(
        "d",
        b.table("departments"),
        lambda d: b.where(
            b.const(False),
            b.ret(
                b.record(
                    name=d["name"],
                    staff=b.for_(
                        "e",
                        b.table("employees"),
                        lambda e: b.where(
                            b.eq(e["dept"], d["name"]), b.ret(e["name"])
                        ),
                    ),
                )
            ),
        ),
    )
    pipeline = ShreddingPipeline(ORGANISATION_SCHEMA, SHAPES["default"])
    compiled = pipeline.compile(query)
    assert not compiled.normal_form.comprehensions
    assert calls["nf_to_term"] == 0
    assert calls["infer"] == 1
    assert compiled.run(figure3_database(), engine="batched") == []
