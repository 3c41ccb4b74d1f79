"""An independent oracle for the benchmark's input programs.

Hand-written hash joins over ``Database.rows()`` for Q1–Q6 (Fig. 9) and
the registry's ``dept_staff`` / ``staff_above``.  It shares no code with
the program's compile path (nothing from ``normalise``, ``shred``,
``sql`` or ``pipeline``), so a bug there cannot cancel out.  The
self-test proves it equal to ``repro.nrc.semantics.evaluate`` on the
Fig. 3 instance; the workloads then use it at full scale.
"""

from __future__ import annotations

from collections import defaultdict

from repro.values import bag_size, canonical


def _group(rows, key):
    groups = defaultdict(list)
    for row in rows:
        groups[row[key]].append(row)
    return groups


class Oracle:
    def __init__(self, db) -> None:
        self.departments = db.rows("departments")
        self.employees = db.rows("employees")
        self.tasks = db.rows("tasks")
        self.contacts = db.rows("contacts")
        self._employees_in = _group(self.employees, "dept")
        self._employees_named = _group(self.employees, "name")
        self._contacts_in = _group(self.contacts, "dept")
        self._departments_named = _group(self.departments, "name")
        tasks_of = defaultdict(list)
        for task in self.tasks:
            tasks_of[task["employee"]].append(task["task"])
        self._tasks_of = tasks_of

    def _organisation(self):
        return [
            {
                "name": d["name"],
                "employees": [
                    {
                        "name": e["name"],
                        "salary": e["salary"],
                        "tasks": list(self._tasks_of[e["name"]]),
                    }
                    for e in self._employees_in[d["name"]]
                ],
                "contacts": [
                    {"name": c["name"], "client": c["client"]}
                    for c in self._contacts_in[d["name"]]
                ],
            }
            for d in self.departments
        ]

    def q1(self):
        return self._organisation()

    def q2(self):
        return [
            {"dept": d["name"]}
            for d in self._organisation()
            if all("abstract" in e["tasks"] for e in d["employees"])
        ]

    def q3(self):
        return [
            {"name": e["name"], "tasks": list(self._tasks_of[e["name"]])}
            for e in self.employees
        ]

    def q4(self):
        return [
            {
                "dept": d["name"],
                "employees": [e["name"] for e in self._employees_in[d["name"]]],
            }
            for d in self.departments
        ]

    def q5(self):
        return [
            {
                "a": t["task"],
                "b": [
                    {"b": e["name"], "c": d["name"]}
                    for e in self._employees_named[t["employee"]]
                    for d in self._departments_named[e["dept"]]
                ],
            }
            for t in self.tasks
        ]

    def q6(self):
        return [
            {
                "department": d["name"],
                "people": [
                    {"name": e["name"], "tasks": e["tasks"]}
                    for e in d["employees"]
                    if e["salary"] > 1_000_000 or e["salary"] < 1_000
                ]
                + [
                    {"name": c["name"], "tasks": ["buy"]}
                    for c in d["contacts"]
                    if c["client"]
                ],
            }
            for d in self._organisation()
        ]

    def dept_staff(self, dept: str):
        return [
            {
                "department": d["name"],
                "staff": [
                    {"name": e["name"]} for e in self._employees_in[d["name"]]
                ],
            }
            for d in self._departments_named[dept]
        ]

    def staff_above(self, min_salary: int):
        return [
            {"name": e["name"], "salary": e["salary"]}
            for e in self.employees
            if e["salary"] > min_salary
        ]

    def evaluate(self, name: str, params: dict | None = None):
        """The expected nested value of the catalogue query ``name``."""
        return getattr(self, name.lower())(**(params or {}))


class Gate:
    """The correctness gate: expected values by key, compared in full
    (multiset equality at every level) or by shape (top-level length and
    total bag size — cheap enough for every op of a bulk workload)."""

    def __init__(self) -> None:
        self.canon: dict = {}
        self.sizes: dict = {}

    def expect(self, key, value) -> None:
        self.canon[key] = canonical(value)
        self.sizes[key] = (len(value), bag_size(value))

    def full(self, key, value) -> bool:
        return canonical(value) == self.canon[key]

    def quick(self, key, value) -> bool:
        return (len(value), bag_size(value)) == self.sizes[key]
