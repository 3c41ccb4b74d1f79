"""``repro.shard`` — horizontally partitioned execution.

The scale-out layer over the PR 3 façade and the PR 4 service: partition
designated tables across ``n`` shards (hash of a routing column),
replicate the rest, and evaluate nested queries by *distributing* them —
correctness rests on the fact that a partitioned bag is the ⊎ of its
partitions and every shardable comprehension is linear in its sharded
generator, so per-shard answers bag-union back to the exact nested
multiset the paper's semantics prescribe.

Five pieces:

* :mod:`~repro.shard.placement` — the per-table policy
  (``sharded(key=…)`` vs ``replicated``) and the stable cross-process
  routing hash;
* :mod:`~repro.shard.analysis` — the shardability analysis over the
  normalised term (fanout / routed / single / fallback) and the per-call
  route policy;
* :mod:`~repro.shard.client` — ``ShardedServiceClient``, the one
  coordinator: route → sub-requests → failover → bag-union merge →
  counters, over *endpoints* of two kinds (a wire
  :class:`~repro.service.client.ServiceClient` per ``python -m repro
  serve --shard i/n`` server, or an in-process ``LocalEndpoint`` — both
  drivers of one :class:`~repro.service.protocol.ClientCore`, answered by
  one :class:`~repro.service.core.ServerCore`) — and ``endpoint_session``,
  the one rule every store of a deployment and its coordinator compile
  by: the store as it is, under its placement's deployment schema (only
  the references that hold in every partition);
* :mod:`~repro.shard.deployment` — ``connect_sharded``, which returns a
  plain :class:`~repro.api.session.Session` reading its tables through a
  coordinator (``DeploymentTables``, the one deployment-specific seam of
  a session: it resolves names, runs through the coordinator and reports
  the route on the :class:`~repro.api.results.Result`), and the local
  substrate, ``ShardedDatabase`` (the caller's store plus its partitions)
  + ``LocalEndpoint``;
* :mod:`~repro.shard.supervisor` — ``ShardProcess`` / ``Supervisor`` /
  ``SupervisedDeployment``, the self-healing process layer under the
  wire endpoints (spawn, health-check, restart with backoff, crash-loop
  detection, graceful drain).
"""

from repro.shard.analysis import (
    RouteDecision,
    ShardPlan,
    analyse,
    plan_route,
    referenced_tables,
    resolve_shard,
)
from repro.shard.client import ShardedServiceClient, endpoint_session
from repro.shard.placement import (
    REPLICATED,
    Placement,
    Sharded,
    replicated,
    shard_for,
    sharded,
)
from repro.shard.deployment import (
    DeploymentTables,
    LocalEndpoint,
    ShardedDatabase,
    connect_sharded,
    deployment_session,
)
from repro.shard.supervisor import (
    ShardProcess,
    SupervisedDeployment,
    Supervisor,
    spawn_group,
)

__all__ = [
    "Placement",
    "Sharded",
    "REPLICATED",
    "replicated",
    "sharded",
    "shard_for",
    "ShardPlan",
    "RouteDecision",
    "analyse",
    "plan_route",
    "referenced_tables",
    "resolve_shard",
    "ShardedDatabase",
    "DeploymentTables",
    "LocalEndpoint",
    "connect_sharded",
    "deployment_session",
    "ShardedServiceClient",
    "endpoint_session",
    "ShardProcess",
    "Supervisor",
    "SupervisedDeployment",
    "spawn_group",
]
