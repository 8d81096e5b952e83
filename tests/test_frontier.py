"""The n=4 frontier: every (mis, coloring:2..4) x T in {1, 2} table question
on the 1,536-instance family is decided, with no budget.  Three n=5 verdicts
are pinned as well: at T=1 coloring:2 has a witness and mis is exhausted,
and at T=2 mis has a 4,245-entry table.  That search stays short because
it solves each independent part of the family on its own: 18,762
placements, where one search over every view makes 2,899,195.

Found tables are checked with the spec-level oracle, :func:`verify` over
:func:`run_normal_form`; witnesses with :func:`brute_force_solve`.  The final
verification inside the search reads each node's output through the keys of
the compiled family, so those outputs must equal :func:`run_normal_form`'s.
"""

from __future__ import annotations

import pytest

from derandlab import (
    InputClasses,
    InstanceFamilySpec,
    SearchConfig,
    brute_force_solve,
    enumerate_instances,
    find_normal_form,
    problem_by_name,
    run_normal_form,
    verify,
)
from derandlab.derandomize import compile_family

FAMILY = InstanceFamilySpec(n=4)

# (problem, T) -> ("found", table size) | ("witness", index) | ("exhausted", None)
VERDICTS = {
    ("mis", 1): ("exhausted", None),
    ("mis", 2): ("found", 216),
    ("coloring:2", 1): ("witness", 264),
    ("coloring:2", 2): ("witness", 264),
    ("coloring:3", 1): ("witness", 1512),
    ("coloring:3", 2): ("witness", 1512),
    ("coloring:4", 1): ("found", 156),
    ("coloring:4", 2): ("found", 216),
}


@pytest.fixture(scope="module")
def instances():
    return list(enumerate_instances(FAMILY))


@pytest.mark.parametrize(
    "name,radius,verdict",
    [
        pytest.param(name, radius, verdict, id=f"{name}-T{radius}")
        for (name, radius), verdict in VERDICTS.items()
    ],
)
def test_every_n4_table_question_is_decided(instances, name, radius, verdict):
    problem = problem_by_name(name)
    outcome = find_normal_form(SearchConfig(problem=problem, family=FAMILY, radius=radius))
    kind, detail = verdict
    assert outcome.found == (kind == "found")
    assert outcome.exhausted == (kind == "exhausted")
    assert outcome.witness_index == (detail if kind == "witness" else None)
    if kind == "witness":
        assert outcome.witness == instances[detail]
        assert brute_force_solve(problem, outcome.witness) is None
    if kind != "found":
        return
    table = outcome.table
    assert table.size == detail
    assert outcome.verified_count == len(instances)
    index = compile_family(problem, instances, radius)
    for inst, positions in zip(instances, index.node_pos):
        outputs = run_normal_form(table, inst)
        assert verify(problem, inst, outputs).valid
        shared = {v: table.lookup(index.realized[pos]) for v, pos in enumerate(positions)}
        assert shared == outputs


N5 = InstanceFamilySpec(n=5)


def test_n5_coloring2_witness_is_a_first_copy_brute_force_cannot_label():
    problem = problem_by_name("coloring:2")
    outcome = find_normal_form(SearchConfig(problem=problem, family=N5, radius=1))
    assert (outcome.unsat, outcome.exhausted, outcome.witness_index) == (True, False, 2280)
    firsts = dict(InputClasses.of_spec(N5).firsts)
    assert outcome.witness == firsts[2280]
    assert brute_force_solve(problem, outcome.witness) is None


def test_n5_mis_t1_is_exhausted():
    outcome = find_normal_form(SearchConfig(problem=problem_by_name("mis"), family=N5, radius=1))
    assert (outcome.unsat, outcome.exhausted, outcome.witness_index) == (True, True, None)


def test_n5_mis_t2_finds_a_table():
    problem = problem_by_name("mis")
    outcome = find_normal_form(SearchConfig(problem=problem, family=N5, radius=2))
    assert outcome.found
    assert (outcome.table.size, outcome.verified_count) == (4245, 122880)
    # every instance behaves like its input's first copy (InputClasses)
    for _, first in InputClasses.of_spec(N5).firsts:
        assert verify(problem, first, run_normal_form(outcome.table, first)).valid
