"""Compile outputs, pinned: every registry query under both plan shapes
compiles to the same SQL, folds, index hints, parameter signature, result
type and plan fingerprint as the recorded digests.

A compile refactor must reproduce them exactly.  A change that means to
alter a plan updates the digest it changes, and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.backend.executor import index_hints
from repro.data.organisation import ORGANISATION_SCHEMA
from repro.pipeline.shredder import ShreddingPipeline
from repro.service.registry import paper_registry
from repro.shred.packages import annotations
from repro.sql.codegen import SqlOptions

OPTIONS = {"default": SqlOptions(), "flat": SqlOptions(scheme="flat")}

#: (query, options) → sha256 prefix of :func:`plan_digest`.
GOLDEN = {
    ("Q1", "default"): "795b96ad08424ec2",
    ("Q1", "flat"): "d1e06a8573f32a6c",
    ("Q2", "default"): "b3745343fd083b41",
    ("Q2", "flat"): "b3745343fd083b41",
    ("Q3", "default"): "29cdf32e1b9618bb",
    ("Q3", "flat"): "aa9129516fb33601",
    ("Q4", "default"): "e3c748a6f62f3627",
    ("Q4", "flat"): "3e24e8f7b87c9734",
    ("Q5", "default"): "349519000694ad00",
    ("Q5", "flat"): "e347f106dc8becca",
    ("Q6", "default"): "5fd9daffca15a3f4",
    ("Q6", "flat"): "058b732f35f1bd15",
    ("dept_staff", "default"): "a52d4442292f9d60",
    ("dept_staff", "flat"): "ca2e67f91b3b5bf7",
    ("staff_above", "default"): "fabc64049e1b68b1",
    ("staff_above", "flat"): "fabc64049e1b68b1",
}


def plan_digest(compiled) -> str:
    digest = hashlib.sha256()

    def add(text: str) -> None:
        digest.update(text.encode("utf-8") + b"\x00")

    for path, statement in annotations(compiled.sql_package):
        add(str(path))
        add(statement.sql)
        add(statement.fold_source)
        add(repr(index_hints(statement)))
    add(repr([(name, str(declared)) for name, declared in compiled.param_specs]))
    add(str(compiled.result_type))
    add(compiled.plan_fingerprint)
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_compile_outputs_are_pinned(key):
    name, label = key
    compiled = ShreddingPipeline(ORGANISATION_SCHEMA, OPTIONS[label]).compile(
        paper_registry().lookup(name).term
    )
    assert plan_digest(compiled) == GOLDEN[key]


def test_every_query_and_shape_is_pinned():
    names = paper_registry().names()
    assert set(GOLDEN) == {(name, label) for name in names for label in OPTIONS}
