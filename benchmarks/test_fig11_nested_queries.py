"""Figure 11: nested queries Q1-Q6 × {shredding, loop-lifting}.

The paper's headline: shredding matches or beats loop-lifting; on the
3-level queries Q1 and Q6 loop-lifting degrades pathologically (ROW_NUMBER
over Cartesian products the optimiser cannot remove).  Scale sweeps:
``python -m repro.bench.figures --figure 11``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import SYSTEMS
from repro.data.queries import NESTED_QUERIES

NESTED_SYSTEMS = ["shredding", "loop-lifting"]


@pytest.mark.parametrize("system", NESTED_SYSTEMS)
@pytest.mark.parametrize("query_name", sorted(NESTED_QUERIES))
def test_fig11_cell(benchmark, bench_db, query_name, system):
    query = NESTED_QUERIES[query_name]
    runner = SYSTEMS[system]
    benchmark.group = f"fig11:{query_name}"
    result = benchmark(runner, query, bench_db)
    assert isinstance(result, list)


def _vm_steps(system: str, query_name: str, db) -> int:
    """SQLite VM steps one run of ``system`` takes on ``db``'s connection
    (a progress handler at 1, as in ``tests/test_plan_shape.py``): the
    work the figure's wall-clock line measures, counted exactly."""
    steps = 0

    def tally() -> int:
        nonlocal steps
        steps += 1
        return 0

    connection = db.connection()
    connection.set_progress_handler(tally, 1)
    try:
        SYSTEMS[system](NESTED_QUERIES[query_name], db)
    finally:
        connection.set_progress_handler(None, 1)
    return steps


@pytest.mark.parametrize("query_name", ["Q1", "Q6"])
def test_fig11_shredding_does_less_work_than_looplifting(
    small_bench_db, bench_db, query_name
):
    """The headline, as a work count: on the 3-level Q1 and Q6 shredding
    takes fewer SQLite VM steps than loop-lifting, and loop-lifting's
    excess grows with the data (ROW_NUMBER over Cartesian products the
    optimiser cannot remove)."""
    ratios = []
    for db in (small_bench_db, bench_db):
        shredding = _vm_steps("shredding", query_name, db)
        loop_lifting = _vm_steps("loop-lifting", query_name, db)
        assert shredding < loop_lifting, (
            f"{query_name}: shredding took {shredding} VM steps, "
            f"loop-lifting {loop_lifting}"
        )
        ratios.append(loop_lifting / shredding)
    assert ratios[0] < ratios[1], (
        f"{query_name}: loop-lifting's step ratio fell from {ratios[0]:.1f}x "
        f"to {ratios[1]:.1f}x as the store grew"
    )
