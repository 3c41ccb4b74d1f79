"""Random organisation-database generator (§8 experimental setup).

The paper: "randomly generated data, where we vary the number of departments
in the organisation from 4 to 4096 (by powers of 2).  Each department has on
average 100 employees and each employee has 0–2 tasks."

Contacts are not sized in the paper; we default to 10 per department with a
30% client rate, which keeps the `people` collections of Q6 inhabited.
Salaries are drawn so that the outlier predicates of §3 (salary < 1 000 or
> 1 000 000) select a small, non-empty fraction — around 7% of employees.

Generation is deterministic for a given seed.
"""

from __future__ import annotations

import random

from repro.backend.database import Database
from repro.data.organisation import ORGANISATION_SCHEMA

__all__ = [
    "generate_organisation",
    "TASK_NAMES",
    "scaled_database",
]

#: Task vocabulary: the five Fig. 3 verbs plus filler so task bags vary.
TASK_NAMES = (
    "abstract",
    "build",
    "call",
    "dissemble",
    "enthuse",
    "design",
    "report",
)

_POOR_RATE = 0.05  # salary < 1000   (isPoor, §3)
_RICH_RATE = 0.02  # salary > 1000000 (isRich, §3)


def generate_organisation(
    departments: int,
    employees_per_dept: int = 100,
    contacts_per_dept: int = 10,
    client_probability: float = 0.3,
    seed: int = 0,
) -> Database:
    """Generate a random organisation database.

    ``employees_per_dept`` is an *average*: each department draws uniformly
    from [¾·n, 5/4·n] (minimum 1).  Each employee gets 0–2 tasks.
    """
    rng = random.Random(seed)
    department_rows = []
    employee_rows = []
    task_rows = []
    contact_rows = []
    employee_id = 1
    task_id = 1
    contact_id = 1

    for dept_index in range(1, departments + 1):
        dept_name = f"Dept{dept_index:05d}"
        department_rows.append({"id": dept_index, "name": dept_name})

        low = max(1, (employees_per_dept * 3) // 4)
        high = max(1, (employees_per_dept * 5) // 4)
        for emp_index in range(1, rng.randint(low, high) + 1):
            emp_name = f"emp{dept_index:05d}x{emp_index:04d}"
            employee_rows.append(
                {
                    "id": employee_id,
                    "dept": dept_name,
                    "name": emp_name,
                    "salary": _draw_salary(rng),
                }
            )
            employee_id += 1
            for task in rng.sample(TASK_NAMES, rng.randint(0, 2)):
                task_rows.append(
                    {"id": task_id, "employee": emp_name, "task": task}
                )
                task_id += 1

        for contact_index in range(1, contacts_per_dept + 1):
            contact_rows.append(
                {
                    "id": contact_id,
                    "dept": dept_name,
                    "name": f"con{dept_index:05d}x{contact_index:04d}",
                    "client": rng.random() < client_probability,
                }
            )
            contact_id += 1

    return Database(
        ORGANISATION_SCHEMA,
        {
            "departments": department_rows,
            "employees": employee_rows,
            "tasks": task_rows,
            "contacts": contact_rows,
        },
    )


def _draw_salary(rng: random.Random) -> int:
    """Salaries mostly in [1 000, 100 000], with poor and rich outliers."""
    roll = rng.random()
    if roll < _POOR_RATE:
        return rng.randint(100, 999)
    if roll < _POOR_RATE + _RICH_RATE:
        return rng.randint(1_000_001, 5_000_000)
    return rng.randint(1_000, 100_000)


def scaled_database(departments: int, seed: int = 0, scale_rows: int = 100) -> Database:
    """The benchmark instance at a given scale point (§8 sweep).

    ``scale_rows`` is the average employees per department (paper: 100);
    benchmarks may lower it to keep local runs quick — the *relative* trends
    are preserved (README, "Benchmarks").
    """
    return generate_organisation(
        departments=departments,
        employees_per_dept=scale_rows,
        contacts_per_dept=10,
        client_probability=0.3,
        seed=seed,
    )
