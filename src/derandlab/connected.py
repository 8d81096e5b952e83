"""Connected-graph runtime: solve outright when some node sees the whole graph,
table lookup otherwise, plus the view-preserving extension check."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    InputInstance,
    ball_covers_instance,
    canonicalize,
    extend_instance,
    extract_ball,
)
from .problems import ProblemSpec, solve_lex_first
from .simulator import NormalFormTable, run_normal_form


class UnsolvableInstance(RuntimeError):
    """The brute-force path was taken but the instance has no valid labeling."""


@dataclass(frozen=True)
class ConnectedRunConfig:
    """A locally verifiable problem plus a table; exploration radius is the
    table radius plus the verification radius, exactly."""

    problem: ProblemSpec
    table: NormalFormTable

    def __post_init__(self) -> None:
        if not self.problem.locally_verifiable:
            raise ValueError("connected runtime needs a locally verifiable problem")

    @property
    def exploration_radius(self) -> int:
        return self.table.radius + self.problem.radius


@dataclass
class ConnectedRunResult:
    outputs: dict[int, str]
    path: str  # "brute-force" | "table"
    rounds_charged: int


def run_connected_aware(
    config: ConnectedRunConfig, instance: InputInstance
) -> ConnectedRunResult:
    """Two-phase run on a connected instance.

    Phase one: every node explores to the exploration radius t and checks
    whether its view contains the entire graph (all nodes and all edges).  If
    any node's check passes, that node can reach everyone within t rounds, so
    all nodes learn the graph and adopt its canonical solution, the
    lexicographically first valid labeling (:func:`solve_lex_first`);
    the run charges 2t rounds (explore + inform).  Otherwise every node
    applies the table to its radius-T view, already gathered during
    exploration; waiting out the silent inform window still costs 2t rounds.
    The predicate is evaluated globally here instead of simulating the flood;
    in a failure-free synchronous model the outcome is identical.
    """
    if not instance.graph.is_connected:
        raise ValueError("disconnected input")
    t = config.exploration_radius
    covered = any(
        ball_covers_instance(extract_ball(instance, v, t), instance)
        for v in range(instance.n)
    )
    if covered:
        outputs = solve_lex_first(config.problem, instance)
        if outputs is None:
            raise UnsolvableInstance(
                f"{config.problem.name} has no valid labeling on this instance"
            )
        return ConnectedRunResult(outputs, "brute-force", 2 * t)
    outputs = run_normal_form(config.table, instance)
    return ConnectedRunResult(outputs, "table", 2 * t)


def check_indistinguishability(
    instance: InputInstance,
    v: int,
    t: int,
    table: NormalFormTable,
    target_size: int,
) -> bool:
    """Extend the instance past radius t around v (:func:`extend_instance`:
    fresh nodes carry the least input label present) and confirm that v
    cannot tell the difference: the radius-t views agree as labeled
    structures and the table gives v the same output in both graphs.

    A False return would indicate a defect in the extension construction, not
    a property of any input.
    """
    if table.radius > t:
        raise ValueError("table radius must not exceed the exploration radius")
    extended = extend_instance(instance, v, t, target_size)
    keys_agree = canonicalize(extract_ball(instance, v, t)) == canonicalize(
        extract_ball(extended, v, t)
    )
    out_here = table.lookup(canonicalize(extract_ball(instance, v, table.radius)))
    out_there = table.lookup(canonicalize(extract_ball(extended, v, table.radius)))
    return keys_agree and out_here == out_there
