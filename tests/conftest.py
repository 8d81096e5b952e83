"""Shared helpers: random instance generation and independent oracles.

The oracles here re-derive expected values from first principles (all-pairs
distances, full enumeration of mappings or labelings) without touching the
code paths they check.
"""

from __future__ import annotations

import itertools
import random

from derandlab import (
    Graph,
    InputInstance,
    NodeContext,
    NodeProgram,
    ProblemSpec,
    StepResult,
    canonicalize,
    extract_ball,
    verify,
)


def random_instance(
    rng: random.Random,
    n: int | None = None,
    max_n: int = 8,
    c: int = 1,
    alphabet: tuple[str, ...] = ("a", "b"),
    edge_prob: float = 0.5,
    connected: bool = False,
) -> InputInstance:
    while True:
        size = n if n is not None else rng.randint(1, max_n)
        pairs = list(itertools.combinations(range(size), 2))
        edges = tuple(p for p in pairs if rng.random() < edge_prob)
        graph = Graph(size, edges)
        if connected and not graph.is_connected:
            continue
        ids = tuple(rng.sample(range(1, size**c + 1), size))
        inputs = tuple(rng.choice(alphabet) for _ in range(size))
        return InputInstance(graph, ids, inputs, c)


def floyd_warshall(n: int, edges) -> list[list[float]]:
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


def oracle_ball(instance: InputInstance, v: int, radius: int):
    """Definition-based view: filter nodes by distance and edges by the rule
    min distance <= radius-1, max distance <= radius.  Returns plain sets so
    comparisons are independent of the production representation."""
    g = instance.graph
    dist = floyd_warshall(g.n, g.edges)[v]
    nodes = {
        (dist[u], instance.ids[u], g.degree(u), instance.inputs[u])
        for u in range(g.n)
        if dist[u] <= radius
    }
    edges = set()
    for s, t in g.edges:
        if min(dist[s], dist[t]) <= radius - 1 and max(dist[s], dist[t]) <= radius:
            a, b = sorted((instance.ids[s], instance.ids[t]))
            edges.add((a, b))
    return nodes, edges


def ball_as_sets(ball):
    nodes = {(b.dist, b.identifier, b.degree, b.input) for b in ball.nodes}
    return nodes, set(ball.edges)


def naive_lex_first_table(problem, instances, radius) -> dict[str, str] | None:
    """First valid mapping from realized view keys to labels, by exhaustive
    enumeration of all mappings in lexicographic order."""
    keys = sorted(
        {
            canonicalize(extract_ball(inst, v, radius))
            for inst in instances
            for v in range(inst.n)
        }
    )
    for combo in itertools.product(problem.output_alphabet, repeat=len(keys)):
        mapping = dict(zip(keys, combo))
        if all(
            verify(
                problem,
                inst,
                {
                    v: mapping[canonicalize(extract_ball(inst, v, radius))]
                    for v in range(inst.n)
                },
            ).valid
            for inst in instances
        ):
            return mapping
    return None


def exhaustive_solvable(problem, instance) -> bool:
    """Whether any labeling at all is valid, by full enumeration."""
    order = list(range(instance.n))
    for combo in itertools.product(problem.output_alphabet, repeat=instance.n):
        if verify(problem, instance, dict(zip(order, combo))).valid:
            return True
    return False


def one_leader_problem() -> ProblemSpec:
    """Component-wise-only: each component carries exactly one L."""

    def component_pred(_instance, component, outputs):
        return sum(outputs[v] == "L" for v in component) == 1

    return ProblemSpec(
        name="one-leader",
        radius=0,
        output_alphabet=("F", "L"),
        locally_verifiable=False,
        component_predicate=component_pred,
    )


def copy_neighbor_parity_problem() -> ProblemSpec:
    """A node with a neighbor outputs the parity of its least neighbor's
    identifier.  Every instance is solvable alone, but a radius-0 view sees
    only (id, degree, input), so with c=2 one view needs different outputs
    in different instances."""

    def pred(ball, outputs):
        nbrs = ball.neighbors_of_center()
        if not nbrs:
            return True
        return outputs[ball.center_id] == ("even" if nbrs[0] % 2 == 0 else "odd")

    return ProblemSpec(
        name="copy-neighbor-parity",
        radius=1,
        output_alphabet=("even", "odd"),
        ball_predicate=pred,
    )


def claimed_size_program(alphabet) -> NodeProgram:
    """Colors by identifier parity when told at least 16 nodes (the claimed
    size of the n=2 family), and by a private bit otherwise."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        if ctx.claimed_n >= 16:
            return StepResult(output=labels[ctx.identifier % 2])
        return StepResult(output=labels[ctx.bits.next_bit()])

    return NodeProgram("claimed-size", step, lambda _claimed: 0, labels)


def adaptive_two_round_program(alphabet) -> NodeProgram:
    """Reads a bit and sends it.  A node whose neighbors all sent its own
    bit reads a second bit and outputs the label it picks; the others output
    the label of their first bit.  How many bits a node reads depends on its
    neighbors' bits."""
    labels = tuple(alphabet)

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == 0:
            bit = ctx.bits.next_bit()
            return StepResult(send=bit, state=bit)
        if all(msg == ctx.state for msg in ctx.inbox):
            return StepResult(output=labels[ctx.bits.next_bit()])
        return StepResult(output=labels[ctx.state])

    return NodeProgram("adaptive-two-round", step, lambda _claimed: 1, labels)
