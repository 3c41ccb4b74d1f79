"""End-to-end pipelines: shredding (Fig. 1c) and Links-default flat (Fig. 1a)."""

from repro.pipeline.flat import compile_flat_query, run_flat
from repro.pipeline.plan_cache import PlanCache, plan_key, shared_plan_cache
from repro.pipeline.shredder import CompiledQuery, ShreddingPipeline

__all__ = [
    "compile_flat_query",
    "run_flat",
    "CompiledQuery",
    "PlanCache",
    "plan_key",
    "shared_plan_cache",
    "ShreddingPipeline",
]
