"""Compile outputs, pinned: every registry query under both plan shapes,
over the organisation schema with its declared references and without
them, compiles to the recorded digests — two per plan, so each side can
move on its own:

* :func:`sql_digest` — the SQL, parameter signature, result type and plan
  fingerprint: what SQLite runs and what a shard checks a coordinator by;
* :func:`fold_digest` — the generated folds and the advisory index hints:
  what the batched engine runs in Python and builds before the first run.

A compile refactor must reproduce both exactly.  A change that means to
alter a plan updates the digest it changes, and says why; a change to the
fold or the index advisor leaves :data:`GOLDEN_SQL` alone.  Without
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

#: (query, options) → sha256 prefix of :func:`sql_digest`, without
#: references: what SQLite runs and what a shard checks.
GOLDEN_SQL = {
    ("Q1", "default"): "30b9745fda53ba81",
    ("Q1", "flat"): "f51abd13990cf596",
    ("Q2", "default"): "065c760fa6cbcf7b",
    ("Q2", "flat"): "065c760fa6cbcf7b",
    ("Q3", "default"): "7246db999acd2454",
    ("Q3", "flat"): "b6eb6e07672625ea",
    ("Q4", "default"): "0693c4b39bc42318",
    ("Q4", "flat"): "d6e785e27960119f",
    ("Q5", "default"): "cf55537387a50a26",
    ("Q5", "flat"): "c7fa44070c99e5be",
    ("Q6", "default"): "434096035dc3292b",
    ("Q6", "flat"): "cae302b4a3c0506d",
    ("dept_staff", "default"): "951a790259427698",
    ("dept_staff", "flat"): "165d30b5a3c54919",
    ("staff_above", "default"): "6e64305d481fcd3e",
    ("staff_above", "flat"): "6e64305d481fcd3e",
}

#: The plans the declared references change (pinned indexes); every other
#: (query, options) compiles to its :data:`GOLDEN_SQL` digest under them too.
PINNED_SQL = {
    ("Q1", "default"): "3212c6f51d665f6c",
    ("Q3", "default"): "5ac14586920ab7f6",
    ("Q4", "default"): "78537a47b6726d9d",
    ("Q6", "default"): "0f2108c6b59a60ce",
}

#: (query, options) → sha256 prefix of :func:`fold_digest`, without
#: references: the Python the batched engine runs and the indexes it builds.
GOLDEN_FOLD = {
    ("Q1", "default"): "09da16fd25758664",
    ("Q1", "flat"): "fbde1c1d926f4b26",
    ("Q2", "default"): "2ca3e88da6e0818e",
    ("Q2", "flat"): "2ca3e88da6e0818e",
    ("Q3", "default"): "e8be6124731e2242",
    ("Q3", "flat"): "b507a4b68394913a",
    ("Q4", "default"): "ed79c62de9b53217",
    ("Q4", "flat"): "2fd1b778a1180d0d",
    ("Q5", "default"): "3d1193a57c682e60",
    ("Q5", "flat"): "56f7daedcdad20d6",
    ("Q6", "default"): "0d633271e49f607d",
    ("Q6", "flat"): "ef6530d68061cc15",
    ("dept_staff", "default"): "dde066caf8fbf3d6",
    ("dept_staff", "flat"): "dc9afcb381bcee2a",
    ("staff_above", "default"): "1fcf391bc3e5bc71",
    ("staff_above", "flat"): "1fcf391bc3e5bc71",
}

#: The folds and hints the declared references change.
PINNED_FOLD = {
    ("Q1", "default"): "aacfb2504864ff0b",
    ("Q3", "default"): "ce48484b67e86746",
    ("Q4", "default"): "1366a6e3c279ef8c",
    ("Q6", "default"): "d7cf2f834349df8d",
}


def _digest(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8") + b"\x00")
    return digest.hexdigest()[:16]


def sql_digest(compiled) -> str:
    """Every statement's SQL, the parameter signature, the result type and
    the plan fingerprint."""
    texts = []
    for path, statement in annotations(compiled.sql_package):
        texts += [str(path), statement.sql]
    texts.append(repr([(name, str(declared)) for name, declared in compiled.param_specs]))
    texts += [str(compiled.result_type), compiled.plan_fingerprint]
    return _digest(*texts)


def fold_digest(compiled) -> str:
    """Every statement's fold text and advisory index hints."""
    texts = []
    for path, statement in annotations(compiled.sql_package):
        texts += [str(path), statement.fold_source, repr(index_hints(statement))]
    return _digest(*texts)


def _compiled(name: str, label: str, schema: str):
    return ShreddingPipeline(SCHEMAS[schema], OPTIONS[label]).compile(
        paper_registry().lookup(name).term
    )


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@pytest.mark.parametrize("key", sorted(GOLDEN_SQL))
def test_compile_outputs_are_pinned(key, schema):
    """What SQLite runs and what a shard checks: recorded before the fold
    and the index advisor last changed, and unchanged by them."""
    expected = PINNED_SQL.get(key, GOLDEN_SQL[key]) if schema == "declared" else GOLDEN_SQL[key]
    assert sql_digest(_compiled(*key, schema)) == expected


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@pytest.mark.parametrize("key", sorted(GOLDEN_FOLD))
def test_folds_and_hints_are_pinned(key, schema):
    expected = PINNED_FOLD.get(key, GOLDEN_FOLD[key]) if schema == "declared" else GOLDEN_FOLD[key]
    assert fold_digest(_compiled(*key, schema)) == expected


def test_every_query_and_shape_is_pinned():
    names = paper_registry().names()
    shapes = {(name, label) for name in names for label in OPTIONS}
    assert set(GOLDEN_SQL) == set(GOLDEN_FOLD) == shapes
    assert set(PINNED_SQL) <= shapes and set(PINNED_FOLD) <= shapes
