"""The organisation schema Σ and the Fig. 3 sample instance (§3).

    departments(id, name)
    employees(id, dept, name, salary)
    tasks(id, employee, task)
    contacts(id, dept, name, client)

The paper: "for convenience, we also assume every table has an
integer-valued key id"; the key drives the natural indexing scheme (§6.1)
and key-based row numbering (§8).  The join columns are declared as
references — ``employees.dept`` and ``contacts.dept`` → ``departments.name``,
``tasks.employee`` → ``employees.name`` — which lets a nested bag linked to
an unfiltered parent be keyed by its join column (a *pinned* index).
"""

from __future__ import annotations

from repro.backend.database import Database
from repro.nrc.schema import Schema, TableSchema
from repro.nrc.types import BOOL, INT, STRING

__all__ = [
    "ORGANISATION_SCHEMA",
    "organisation_placement",
    "figure3_database",
    "empty_database",
]

ORGANISATION_SCHEMA = Schema(
    (
        TableSchema(
            "departments",
            (("id", INT), ("name", STRING)),
            key=("id",),
        ),
        TableSchema(
            "employees",
            (("id", INT), ("dept", STRING), ("name", STRING), ("salary", INT)),
            key=("id",),
            references=(("dept", "departments.name"),),
        ),
        TableSchema(
            "tasks",
            (("id", INT), ("employee", STRING), ("task", STRING)),
            key=("id",),
            references=(("employee", "employees.name"),),
        ),
        TableSchema(
            "contacts",
            (("id", INT), ("dept", STRING), ("name", STRING), ("client", BOOL)),
            key=("id",),
            references=(("dept", "departments.name"),),
        ),
    )
)

_DEPARTMENTS = [
    {"id": 1, "name": "Product"},
    {"id": 2, "name": "Quality"},
    {"id": 3, "name": "Research"},
    {"id": 4, "name": "Sales"},
]

_EMPLOYEES = [
    {"id": 1, "dept": "Product", "name": "Alex", "salary": 20_000},
    {"id": 2, "dept": "Product", "name": "Bert", "salary": 900},
    {"id": 3, "dept": "Research", "name": "Cora", "salary": 50_000},
    {"id": 4, "dept": "Research", "name": "Drew", "salary": 60_000},
    {"id": 5, "dept": "Sales", "name": "Erik", "salary": 2_000_000},
    {"id": 6, "dept": "Sales", "name": "Fred", "salary": 700},
    {"id": 7, "dept": "Sales", "name": "Gina", "salary": 100_000},
]

_TASKS = [
    {"id": 1, "employee": "Alex", "task": "build"},
    {"id": 2, "employee": "Bert", "task": "build"},
    {"id": 3, "employee": "Cora", "task": "abstract"},
    {"id": 4, "employee": "Cora", "task": "build"},
    {"id": 5, "employee": "Cora", "task": "call"},
    {"id": 6, "employee": "Cora", "task": "dissemble"},
    {"id": 7, "employee": "Cora", "task": "enthuse"},
    {"id": 8, "employee": "Drew", "task": "abstract"},
    {"id": 9, "employee": "Drew", "task": "enthuse"},
    {"id": 10, "employee": "Erik", "task": "call"},
    {"id": 11, "employee": "Erik", "task": "enthuse"},
    {"id": 12, "employee": "Fred", "task": "call"},
    {"id": 13, "employee": "Gina", "task": "call"},
    {"id": 14, "employee": "Gina", "task": "dissemble"},
]

_CONTACTS = [
    {"id": 1, "dept": "Product", "name": "Pam", "client": False},
    {"id": 2, "dept": "Product", "name": "Pat", "client": True},
    {"id": 3, "dept": "Research", "name": "Rob", "client": False},
    {"id": 4, "dept": "Research", "name": "Roy", "client": False},
    {"id": 5, "dept": "Sales", "name": "Sam", "client": False},
    {"id": 6, "dept": "Sales", "name": "Sid", "client": False},
    {"id": 7, "dept": "Sales", "name": "Sue", "client": True},
]


def figure3_database() -> Database:
    """The exact sample instance of Fig. 3."""
    return Database(
        ORGANISATION_SCHEMA,
        {
            "departments": _DEPARTMENTS,
            "employees": _EMPLOYEES,
            "tasks": _TASKS,
            "contacts": _CONTACTS,
        },
    )


def empty_database() -> Database:
    """An organisation database with no rows (edge-case testing)."""
    return Database(ORGANISATION_SCHEMA)


def organisation_placement():
    """The default sharding policy for the organisation schema:
    ``departments`` partition by ``name`` (the routing seam the nested
    queries and ``dept_staff(:dept)`` pivot on); everything else
    replicates.  Under it Q1/Q2/Q4/Q6 distribute, ``dept_staff`` routes
    to a single shard, and employee-rooted queries run replicated-only.
    """
    from repro.shard.placement import Placement, sharded

    return Placement.of({"departments": sharded(key="name")})
