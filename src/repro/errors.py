"""Exception hierarchy for the query-shredding library.

Every stage of the pipeline raises a dedicated subclass of
:class:`ReproError`, so callers can distinguish user mistakes (ill-typed
queries, unknown tables) from internal invariant violations (which indicate
a bug in a translation stage).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CaptureError(ReproError):
    """A Python function could not be captured as a λNRC query.

    Raised by :mod:`repro.api.capture` when the ``@query`` decorator meets
    syntax outside the capturable fragment; the message names the offending
    construct and source line.
    """


class TypeCheckError(ReproError):
    """The query is ill-typed with respect to the λNRC type system."""


class UnknownTableError(TypeCheckError):
    """A ``table t`` expression references a table not present in Σ."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownPrimitiveError(TypeCheckError):
    """A primitive application references an operator not in Σ(c)."""

    def __init__(self, op: str) -> None:
        super().__init__(f"unknown primitive operator: {op!r}")
        self.op = op


class UnboundVariableError(TypeCheckError):
    """A variable occurs free where no binder is in scope."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable: {name!r}")
        self.name = name


class EvaluationError(ReproError):
    """Runtime failure while evaluating a query in-memory."""


class NormalisationError(ReproError):
    """The normaliser was given a term outside its domain.

    Normalisation (Theorem 1) is defined for closed flat–nested queries:
    the query must read only from flat tables and produce a nested result
    without function types.
    """


class NotNormalisableError(NormalisationError):
    """The query cannot be brought into the paper's normal form."""


class ShreddingError(ReproError):
    """Internal error in the shredding translation (§4)."""


class InvalidPathError(ShreddingError):
    """A shredding path does not point at a bag constructor of the type."""


class StitchError(ReproError):
    """Shredded results cannot be stitched back into a nested value."""


class LetInsertionError(ReproError):
    """Internal error in the let-insertion translation (§6.2)."""


class FlatteningError(ReproError):
    """Internal error in record flattening / unflattening (App. E)."""


class SqlGenerationError(ReproError):
    """The SQL code generator was handed a construct it cannot express."""


class BackendError(ReproError):
    """Failure in the database backend (schema mismatch, execution error)."""


class ServiceError(ReproError):
    """A query-service request failed (unknown query, malformed frame,
    server-side execution error relayed over the wire).

    Client-side instances carry the server's error classification in
    ``kind`` (e.g. ``"ShreddingError"``) so callers can branch on it
    without string-matching messages.
    """

    def __init__(self, message: str, kind: str = "ServiceError") -> None:
        super().__init__(message)
        self.kind = kind


class MissingSqlFunctionError(ServiceError):
    """The store's SQLite lacks a function a run needs: JSON1's
    ``json_group_array``, which writes the column tables the batched
    engines read and a shard answers a fan-out coordinator with.  A
    :class:`ServiceError` so a server relays it as is (``kind``
    ``"MissingSqlFunction"``); the per-path engine needs no such function,
    and is what ``engine="auto"`` resolves to on such a store."""

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="MissingSqlFunction")


class ServiceConnectionError(ServiceError):
    """Transport-level failure talking to a query server: connect refused,
    connection reset, read timeout, or the stream closed mid-frame.

    Distinct from a structured error *frame* (which means the server
    processed the request and answered): a transport failure means the
    request may never have reached the server at all, so the client closes
    the (possibly desynced) connection and — every protocol op being
    read-only — may transparently retry it on a fresh one.
    """

    def __init__(self, message: str, kind: str = "ConnectionError") -> None:
        super().__init__(message, kind=kind)


class OverloadedError(ServiceError):
    """The server shed this request at admission: its bounded in-flight
    queue is saturated (the wire's ``OVERLOADED`` error frame).

    Deliberate load-shedding, not a failure of the request itself — the
    query was never compiled or executed.  Back off and retry, or divert
    to another replica/shard.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="Overloaded")


class DeadlineExceededError(ServiceError):
    """A request's wall-clock budget ran out before a complete answer.

    Raised client-side when the per-request deadline expires mid-wait
    (the connection is closed, since a late response would desync it) and
    relayed server-side as a structured frame when the server's own
    deadline for the request fires first.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="DeadlineExceeded")


class ShardingError(ReproError):
    """A sharded deployment was misconfigured or misused (bad placement,
    unresolvable routing key, shard-count mismatch)."""


class ShardUnavailableError(ShardingError):
    """A shard could not answer and no full-copy fallback could stand in.

    Carries the failing ``shard`` label (``"2/4"``, ``"full/4"``) and the
    ``op`` that failed, so a fan-out failure names its culprit instead of
    surfacing as a bare ``OSError`` from one of many sockets.  When the
    shard is a replica group, ``replica`` is the index of the *last*
    replica tried (every earlier sibling already failed — the group is
    exhausted, not just one endpoint).
    """

    def __init__(
        self,
        message: str,
        shard: "str | None" = None,
        op: "str | None" = None,
        replica: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.op = op
        self.replica = replica


class IndexingError(ReproError):
    """An indexing scheme is invalid for the query (not injective/defined)."""


class VerifierError(ReproError):
    """A stage verifier (:mod:`repro.check`) rejected an intermediate
    representation.

    Always an *internal* invariant breach — a translation stage or an
    optimizer rewrite produced malformed IR — never a user mistake.
    ``stage`` names the pipeline stage whose output failed (``"normalise"``,
    ``"shred"``, ``"letins"``, ``"codegen"``, ``"optimize"``, ``"package"``)
    and ``rule`` the failing verifier rule (``"type-preservation"``,
    ``"variable-hygiene"``, ``"rownumber-guard"``, …).  For optimizer
    rewrites, ``rule`` is the ``opt_*`` name of the rewrite that broke the
    invariant and ``detail`` carries the violated check.
    """

    def __init__(self, stage: str, rule: str, message: str) -> None:
        super().__init__(f"verify[{stage}] {rule}: {message}")
        self.stage = stage
        self.rule = rule
        self.detail = message
