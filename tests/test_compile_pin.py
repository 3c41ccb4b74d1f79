"""Compile outputs, pinned: every registry query under both plan shapes,
over the organisation schema with its declared references and without
them, compiles to the same SQL, folds, index hints, parameter signature,
result type and plan fingerprint as the recorded digests.

A compile refactor must reproduce them exactly.  A change that means to
alter a plan updates the digest it changes, and says why.  Without
references (what every store of a sharded deployment compiles) a schema
compiles as it did before references existed; with them, the default plans
of Q1, Q3, Q4 and Q6 pin their department- and employee-linked bags to the
join column, and every other plan is unchanged.
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
SCHEMAS = {
    "declared": ORGANISATION_SCHEMA,
    "unreferenced": ORGANISATION_SCHEMA.without_references(),
}

#: (query, options) → sha256 prefix of :func:`plan_digest`, without references.
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

#: The plans the declared references change (pinned indexes); every other
#: (query, options) compiles to its :data:`GOLDEN` digest under them too.
PINNED = {
    ("Q1", "default"): "1d77ea124b26bb72",
    ("Q3", "default"): "c5fa369a1bebbc3a",
    ("Q4", "default"): "d55800be9150544d",
    ("Q6", "default"): "ecc8f2270a1c7449",
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


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_compile_outputs_are_pinned(key, schema):
    name, label = key
    compiled = ShreddingPipeline(SCHEMAS[schema], OPTIONS[label]).compile(
        paper_registry().lookup(name).term
    )
    expected = PINNED.get(key, GOLDEN[key]) if schema == "declared" else GOLDEN[key]
    assert plan_digest(compiled) == expected


def test_every_query_and_shape_is_pinned():
    names = paper_registry().names()
    assert set(GOLDEN) == {(name, label) for name in names for label in OPTIONS}
    assert set(PINNED) <= set(GOLDEN)
