"""Differential gate: the round simulator against the one it replaced.

``reference_run`` is the simulator's ``_run`` from before its per-run
constants were hoisted out of the round loop, kept verbatim.
``ReferenceReader`` is the ``BitReader`` of that time, kept verbatim too: it
reads each bit through ``BitStream.bit``.  On every instance of the n <= 3
families, ``run_deterministic`` and ``run_randomized`` must give what the
reference gives: the same outputs (in the same order), rounds and trace, or
the same exception type and text.
"""

from __future__ import annotations

import itertools
from typing import Any

import pytest

from derandlab import (
    DEFAULT_BIT_CAP,
    BitBudgetExceeded,
    BitReader,
    BitStream,
    InputInstance,
    InstanceFamilySpec,
    NodeContext,
    NodeProgram,
    RandomAssignment,
    RunResult,
    SimulationError,
    StepResult,
    StreamExhausted,
    enumerate_instances,
    make_mis,
    run_deterministic,
    run_randomized,
    tabulate,
)
from derandlab.programs import (
    component_solver_program,
    degree_label_program,
    first_bit_label_program,
    id_parity_label_program,
    id_sum_parity_program,
    leading_ones_program,
    parity_program,
    table_program,
    two_bit_label_program,
    wait_for_claimed_count_program,
)

FAMILY = [
    inst for n in (1, 2, 3) for inst in enumerate_instances(InstanceFamilySpec(n=n))
]


# -- the reference, verbatim ---------------------------------------------------


class ReferenceReader:
    """Sequential cursor over a stream with a consumption cap.

    ``position`` is the absolute index of the next bit; a run that resumes a
    reader at a later start keeps the cap meaningful because the cap bounds
    the absolute position reached.
    """

    def __init__(self, stream: BitStream, cap: int = DEFAULT_BIT_CAP, start: int = 0):
        self.stream = stream
        self.cap = cap
        self.position = start

    def next_bit(self) -> int:
        if self.position >= self.cap:
            raise BitBudgetExceeded(
                f"per-run bit cap of {self.cap} reached on {self.stream!r}"
            )
        bit = self.stream.bit(self.position)
        self.position += 1
        return bit

    def take(self, k: int) -> list[int]:
        return [self.next_bit() for _ in range(k)]


def reference_run(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None,
    readers: list[BitReader] | None,
    trace: bool,
) -> RunResult:
    n = instance.n
    if claimed_n is None:
        claimed_n = n
    if claimed_n < n:
        raise ValueError(f"claimed node count {claimed_n} below true count {n}")
    bound = program.round_bound(claimed_n)
    allowed = set(program.output_alphabet) if program.output_alphabet else None

    # Port p of node v is its p-th neighbor in increasing identifier order.
    ports, port_of, degrees = instance.port_layout

    state: list[Any] = [None] * n
    halted = [False] * n
    outputs: dict[int, str] = {}
    last_output_round = 0
    outbox: list[list[Any] | None] = [None] * n
    trace_rows: list[tuple[int, ...]] = []

    for rnd in range(bound + 1):
        if rnd == 0:
            inboxes = [(None,) * degrees[v] for v in range(n)]
        else:
            inboxes = [
                tuple(
                    outbox[u][p] if outbox[u] is not None else None
                    for u, p in zip(ports[v], port_of[v])
                )
                for v in range(n)
            ]
        new_outbox: list[list[Any] | None] = [None] * n
        sent_counts = [0] * n
        for v in range(n):
            if halted[v]:
                continue
            res = program.step(
                NodeContext(
                    round=rnd,
                    claimed_n=claimed_n,
                    identifier=instance.ids[v],
                    degree=degrees[v],
                    input=instance.inputs[v],
                    state=state[v],
                    inbox=inboxes[v],
                    bits=readers[v] if readers is not None else None,
                )
            )
            state[v] = res.state
            if res.send is not None or res.send_ports:
                per_port = [res.send] * degrees[v]
                if res.send_ports:
                    for p, msg in res.send_ports.items():
                        per_port[p] = msg
                new_outbox[v] = per_port
                sent_counts[v] = sum(m is not None for m in per_port)
            if res.output is not None:
                if allowed is not None and res.output not in allowed:
                    raise SimulationError(
                        f"node {v} emitted label {res.output!r} outside the "
                        f"output alphabet"
                    )
                outputs[v] = res.output
                halted[v] = True
                last_output_round = max(last_output_round, rnd)
        if trace:
            trace_rows.append(tuple(sent_counts))
        outbox = new_outbox
        if all(halted):
            break
    else:
        stuck = [v for v in range(n) if not halted[v]]
        raise SimulationError(
            f"round budget {bound} exceeded; nodes {stuck} never halted"
        )
    return RunResult(outputs, last_output_round, tuple(trace_rows) if trace else None)


def reference_randomized(
    program: NodeProgram,
    instance: InputInstance,
    claimed_n: int | None,
    stream_of,
    bit_cap: int = DEFAULT_BIT_CAP,
    trace: bool = False,
) -> RunResult:
    """A randomized run on the reference: node ``v`` reads
    ``stream_of(identifier of v)`` through a reference reader."""
    readers = [
        ReferenceReader(stream_of(instance.ids[v]), cap=bit_cap)
        for v in range(instance.n)
    ]
    return reference_run(program, instance, claimed_n, readers, trace)


RUN_ERRORS = (SimulationError, StreamExhausted, BitBudgetExceeded, ValueError)


def outcome(run) -> tuple:
    """Outputs in the order they were produced, rounds and trace; or the
    exception type and text."""
    try:
        result = run()
    except RUN_ERRORS as exc:
        return type(exc), str(exc)
    return list(result.outputs.items()), result.rounds, result.trace


# -- programs beyond the built-ins --------------------------------------------


def port_echo_program() -> NodeProgram:
    """Round 0: send the own identifier on port 0 only (``send_ports``).
    Round 1: output how many neighbors sent something to this node."""

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == 0:
            return StepResult(send_ports={0: ctx.identifier} if ctx.degree else None)
        return StepResult(output=str(sum(m is not None for m in ctx.inbox)))

    return NodeProgram("port-echo", step, lambda _claimed: 1)


def relay_bits_program() -> NodeProgram:
    """Read one bit per round for two rounds, send each to the neighbors, and
    output the own bits and the sum of every bit received."""

    def step(ctx: NodeContext) -> StepResult:
        own, heard = ctx.state if ctx.state is not None else ((), 0)
        heard += sum(m for m in ctx.inbox if m is not None)
        if ctx.round == 2:
            return StepResult(output=f"{''.join(map(str, own))}:{heard}")
        bit = ctx.bits.next_bit()
        return StepResult(send=bit, state=(own + (bit,), heard))

    return NodeProgram("relay-bits", step, lambda _claimed: 2)


def idle_program(halting_parity: int | None) -> NodeProgram:
    """Keep sending; nodes whose identifier has ``halting_parity`` halt at
    round 1, the others never do."""

    def step(ctx: NodeContext) -> StepResult:
        if ctx.round == 1 and ctx.identifier % 2 == halting_parity:
            return StepResult(output="done")
        return StepResult(send=ctx.identifier)

    return NodeProgram("idle", step, lambda _claimed: 2, ("done",))


def foreign_label_program() -> NodeProgram:
    """Output ``a`` at even identifiers and the foreign label ``z`` at odd
    ones, against the alphabet (a, b)."""

    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output="z" if ctx.identifier % 2 else "a")

    return NodeProgram("foreign", step, lambda _claimed: 0, ("a", "b"))


def greedy_reader_program(k: int) -> NodeProgram:
    def step(ctx: NodeContext) -> StepResult:
        return StepResult(output=str(sum(ctx.bits.take(k))))

    return NodeProgram(f"take-{k}", step, lambda _claimed: 0)


def deterministic_programs() -> list[tuple[NodeProgram, int | None]]:
    mis = make_mis()
    table = tabulate(component_solver_program(mis, 2), 2, FAMILY)
    return [
        (component_solver_program(mis, 2), None),
        (table_program(table), None),
        (id_sum_parity_program(1), None),
        (parity_program(), None),
        (degree_label_program(), None),
        (port_echo_program(), None),
        (wait_for_claimed_count_program(), 5),
    ]


def randomized_programs() -> list[NodeProgram]:
    return [
        first_bit_label_program(("a", "b")),
        two_bit_label_program(("a", "b", "c")),
        id_parity_label_program(("a", "b")),
        leading_ones_program(),
        relay_bits_program(),
    ]


# -- the gate -------------------------------------------------------------------


@pytest.mark.parametrize("trace", [True, False])
def test_deterministic_runs_match_the_reference(trace):
    for program, claimed_n in deterministic_programs():
        for inst in FAMILY:
            got = outcome(lambda: run_deterministic(program, inst, claimed_n, trace))
            want = outcome(lambda: reference_run(program, inst, claimed_n, None, trace))
            assert got == want, (program.name, inst)
            assert got[0] is not SimulationError


@pytest.mark.parametrize("program", randomized_programs(), ids=lambda p: p.name)
def test_recorded_stream_runs_match_the_reference(program):
    """Every joint choice of 2-bit vectors; leading-ones runs past two bits on
    some of them."""
    bits = 2
    errors = 0
    for inst in FAMILY:
        n = inst.n
        for flat in itertools.product((0, 1), repeat=bits * n):
            vectors = {
                inst.ids[v]: flat[v * bits : (v + 1) * bits] for v in range(n)
            }
            assignment = RandomAssignment.from_vectors(vectors)
            got = outcome(
                lambda: run_randomized(program, inst, streams=assignment, trace=True)
            )
            want = outcome(
                lambda: reference_randomized(
                    program,
                    inst,
                    None,
                    lambda ident: BitStream.from_bits(vectors[ident]),
                    trace=True,
                )
            )
            assert got == want, (program.name, inst, vectors)
            errors += got[0] is StreamExhausted
    assert (errors > 0) == (program.name == "leading-ones")


@pytest.mark.parametrize("program", randomized_programs(), ids=lambda p: p.name)
def test_keyed_stream_runs_match_the_reference(program):
    for idx, inst in enumerate(FAMILY):
        for k in range(4):
            got = outcome(
                lambda: run_randomized(
                    program,
                    inst,
                    7,
                    streams=RandomAssignment.from_seed("diff", idx, k),
                    trace=True,
                )
            )
            want = outcome(
                lambda: reference_randomized(
                    program,
                    inst,
                    7,
                    lambda ident: BitStream.keyed("diff", idx, k, ident),
                    trace=True,
                )
            )
            assert got == want, (program.name, inst, k)
            assert got[0] is not StreamExhausted


@pytest.mark.parametrize(
    "program, claimed_n, error",
    [
        (idle_program(None), None, SimulationError),
        (idle_program(1), None, SimulationError),
        (foreign_label_program(), None, SimulationError),
        (parity_program(), 0, ValueError),
    ],
    ids=["round-budget", "round-budget-some-nodes", "foreign-label", "claimed-below-n"],
)
def test_deterministic_errors_match_the_reference(program, claimed_n, error):
    for inst in FAMILY:
        got = outcome(lambda: run_deterministic(program, inst, claimed_n))
        want = outcome(lambda: reference_run(program, inst, claimed_n, None, False))
        assert got == want, (program.name, inst)
        if inst.n == 3:  # every n=3 instance has an odd and an even identifier
            assert got[0] is error, (program.name, inst, got)


def recorded(bits):
    def sources(idx, inst):
        assignment = RandomAssignment.from_vectors({ident: bits for ident in inst.ids})
        return assignment, lambda _ident: BitStream.from_bits(bits)

    return sources


def all_ones(idx, inst):
    ones = BitStream.from_prefix((), pad=1)
    return RandomAssignment(lambda _ident: ones), lambda _ident: ones


def keyed(idx, inst):
    assignment = RandomAssignment.from_seed("cap", idx)
    return assignment, lambda ident: BitStream.keyed("cap", idx, ident)


@pytest.mark.parametrize(
    "program, sources, bit_cap, error",
    [
        (two_bit_label_program("abc"), recorded((1,)), DEFAULT_BIT_CAP, StreamExhausted),
        (leading_ones_program(), all_ones, 64, BitBudgetExceeded),
        (greedy_reader_program(65), keyed, 64, BitBudgetExceeded),
    ],
    ids=["past-the-recorded-bits", "cap-on-all-ones", "cap-on-keyed"],
)
def test_randomized_errors_match_the_reference(program, sources, bit_cap, error):
    for idx, inst in enumerate(FAMILY):
        assignment, stream_of = sources(idx, inst)
        got = outcome(
            lambda: run_randomized(program, inst, streams=assignment, bit_cap=bit_cap)
        )
        want = outcome(
            lambda: reference_randomized(program, inst, None, stream_of, bit_cap)
        )
        assert got == want, (program.name, inst)
        assert got[0] is error, (program.name, inst, got)
