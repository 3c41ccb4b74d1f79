"""Figure 11: nested queries Q1-Q6 × {shredding, loop-lifting}.

The paper's headline: shredding matches or beats loop-lifting; on the
3-level queries Q1 and Q6 loop-lifting degrades pathologically (ROW_NUMBER
over Cartesian products the optimiser cannot remove).  The figure's
timings are ``python -m repro figures --figure 11``; this module checks
that every cell the figure times computes the semantics' answer, and the
headline as a work count.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import SYSTEMS
from repro.data.queries import NESTED_QUERIES
from repro.values import bag_equal

NESTED_SYSTEMS = ["shredding", "loop-lifting"]


@pytest.mark.parametrize("system", NESTED_SYSTEMS)
@pytest.mark.parametrize("query_name", sorted(NESTED_QUERIES))
def test_fig11_cell(bench_db, bench_answer, query_name, system):
    result = SYSTEMS[system](NESTED_QUERIES[query_name], bench_db)
    assert bag_equal(result, bench_answer(query_name)), (query_name, system)


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
