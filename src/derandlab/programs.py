"""Built-in node programs.

The gather family implements honest flood-style neighborhood collection: a
node's knowledge after t exchanges is exactly its radius-t view, assembled
from message content alone (neighbor identifiers are learned from messages,
never from port numbers).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .graphs import BallNode, BallView, canonicalize
from .problems import ProblemSpec, solve_ball_component
from .simulator import (
    NodeContext,
    NodeProgram,
    NormalFormTable,
    SimulationError,
    StepResult,
)

# Gather knowledge travels as (sender id, nodes, edges) where nodes maps
# identifier -> (degree, input) and edges is a frozenset of identifier pairs.
_Knowledge = tuple[dict[int, tuple[int, str]], frozenset[tuple[int, int]]]


def _merge(
    own: _Knowledge, inbox: Sequence[tuple[int, _Knowledge] | None], my_id: int
) -> _Knowledge:
    nodes = dict(own[0])
    edges = set(own[1])
    for msg in inbox:
        if msg is None:
            continue
        sender, (their_nodes, their_edges) = msg
        nodes.update(their_nodes)
        edges.update(their_edges)
        edges.add((min(my_id, sender), max(my_id, sender)))
    return nodes, frozenset(edges)


def _knowledge_to_ball(knowledge: _Knowledge, center_id: int, radius: int) -> BallView:
    nodes, edges = knowledge
    adjacency: dict[int, list[int]] = {ident: [] for ident in nodes}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {center_id: 0}
    frontier = [center_id]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    ball_nodes = tuple(
        BallNode(ident, deg, label, dist[ident])
        for ident, (deg, label) in nodes.items()
    )
    return BallView(radius, ball_nodes, tuple(edges))


def gather_program(
    radius: int,
    decide: Callable[[BallView], str],
    name: str,
    output_alphabet: tuple[str, ...] | None = None,
) -> NodeProgram:
    """Collect the radius-``radius`` view in that many rounds, then output
    ``decide(view)``."""

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == 0:
            knowledge: _Knowledge = (
                {ctx.identifier: (ctx.degree, ctx.input)},
                frozenset(),
            )
        else:
            knowledge = _merge(ctx.state, ctx.inbox, ctx.identifier)
        if ctx.round == radius:
            ball = _knowledge_to_ball(knowledge, ctx.identifier, radius)
            return StepResult(output=decide(ball))
        return StepResult(send=(ctx.identifier, knowledge), state=knowledge)

    return NodeProgram(
        name=name,
        step=step,
        round_bound=lambda _claimed: radius,
        output_alphabet=output_alphabet,
    )


def component_solver_program(problem: ProblemSpec, radius: int) -> NodeProgram:
    """Gather ``radius`` rounds, require the view to hold the whole component,
    and output this node's label in the component's canonical solution.

    Raises during the run if the component is not degree-closed inside the
    view (the gather radius was too small) or if the component has no valid
    labeling at all.

    The program keeps each solution it finds, keyed by the component's
    identifier-labeled content, so all nodes of a component, and all
    instances that share it, reuse one solve.  Failures are not kept.
    """
    solutions: dict[tuple, dict[int, str]] = {}

    def decide(ball: BallView) -> str:
        # a degree-closed view is its whole component, whatever its radius
        content = (
            tuple(sorted([(b.identifier, b.degree, b.input) for b in ball.nodes])),
            ball.edges,
        )
        solved = solutions.get(content)
        if solved is None:
            try:
                solved = solve_ball_component(problem, ball)
            except ValueError as exc:
                raise SimulationError(str(exc)) from exc
            if solved is None:
                raise SimulationError(
                    f"component of node {ball.center_id} admits no valid labeling"
                )
            solutions[content] = solved
        return solved[ball.center_id]

    return gather_program(
        radius,
        decide,
        name=f"component-solve[{problem.name},T={radius}]",
        output_alphabet=problem.output_alphabet,
    )


def table_program(table: NormalFormTable) -> NodeProgram:
    """Gather the table's radius, then output the table entry for the view."""
    return gather_program(
        table.radius,
        lambda ball: table.lookup(canonicalize(ball)),
        name=f"table[T={table.radius},{table.size} entries]",
        output_alphabet=table.output_alphabet,
    )


def id_sum_parity_program(gather_rounds: int = 1) -> NodeProgram:
    """Output the parity of the sum of all identifiers seen after a fixed
    number of gather rounds.  Useful for demonstrating locality violations
    when tabulated at a smaller radius."""
    return gather_program(
        gather_rounds,
        lambda ball: "odd" if sum(ball.identifiers) % 2 else "even",
        name=f"id-sum-parity[{gather_rounds}]",
        output_alphabet=("even", "odd"),
    )


def parity_program() -> NodeProgram:
    """Output own identifier parity immediately (0 rounds)."""

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output="odd" if ctx.identifier % 2 else "even")

    return NodeProgram("id-parity", step, lambda _claimed: 0, ("even", "odd"))


def degree_label_program() -> NodeProgram:
    """Output own degree as a decimal string immediately (0 rounds)."""

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output=str(ctx.degree))

    return NodeProgram("degree-label", step, lambda _claimed: 0)


def constant_program(label: str) -> NodeProgram:
    def step(_ctx: NodeContext) -> StepResult:
        return StepResult(output=label)

    return NodeProgram(f"constant[{label}]", step, lambda _claimed: 0, (label,))


def wait_for_claimed_count_program() -> NodeProgram:
    """Idle until the round index equals the claimed node count, then halt.

    Exists to show that the claimed count, not the true one, governs behavior.
    """

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == ctx.claimed_n:
            return StepResult(output="done")
        return StepResult()

    return NodeProgram("wait-claimed", step, lambda claimed: claimed, ("done",))


def first_bit_label_program(alphabet: Sequence[str]) -> NodeProgram:
    """Read one private bit and output ``alphabet[bit]`` (0 rounds)."""
    labels = tuple(alphabet)
    if len(labels) < 2:
        raise ValueError("need at least two labels")

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output=labels[ctx.bits.next_bit()])

    return NodeProgram(
        f"first-bit[{','.join(labels)}]", step, lambda _claimed: 0, labels
    )


def two_bit_label_program(alphabet: Sequence[str]) -> NodeProgram:
    """Read two bits and map 00,01,10,11 to labels 0,1,2,0 (0 rounds).

    With three labels the induced distribution is (1/2, 1/4, 1/4).
    """
    labels = tuple(alphabet)
    if len(labels) < 3:
        raise ValueError("need at least three labels")
    pick = (labels[0], labels[1], labels[2], labels[0])

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output=pick[2 * ctx.bits.next_bit() + ctx.bits.next_bit()])

    return NodeProgram(
        f"two-bit[{','.join(labels[:3])}]", step, lambda _claimed: 0, labels
    )


def id_parity_label_program(alphabet: Sequence[str]) -> NodeProgram:
    """Output a label by own identifier parity, reading no bits (0 rounds).

    Adjacent identifiers of opposite parity get distinct labels, so this is a
    correct 2-coloring wherever neighbors never share a parity (for example
    the whole two-node family).
    """
    labels = tuple(alphabet)
    if len(labels) < 2:
        raise ValueError("need at least two labels")

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output=labels[ctx.identifier % 2])

    return NodeProgram(
        f"id-parity[{labels[0]},{labels[1]}]", step, lambda _claimed: 0, labels
    )


def leading_ones_program() -> NodeProgram:
    """Count leading 1-bits of the private stream and output the count.

    Samples a geometric variable by repeated trials, so no fixed bound on the
    number of bits consumed exists; the per-run cap is the only stop.
    """

    def step(ctx: NodeContext) -> StepResult:
        count = 0
        while ctx.bits.next_bit() == 1:
            count += 1
        return StepResult(output=str(count))

    return NodeProgram("leading-ones", step, lambda _claimed: 0)


DETERMINISTIC_BUILTINS: dict[str, Callable[[], NodeProgram]] = {
    "parity": parity_program,
    "degree": degree_label_program,
}

RANDOMIZED_BUILTINS: dict[str, Callable[[Sequence[str]], NodeProgram]] = {
    "first-bit": first_bit_label_program,
    "two-bit": two_bit_label_program,
    "id-parity": id_parity_label_program,
}
