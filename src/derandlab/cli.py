"""Command-line entry points.

Subcommands: enumerate, derandomize, certify, verify, simulate, connected-run.
Every report embeds the full run manifest (subcommand, parameters, paths,
version) so that rerunning a manifest reproduces all non-timing fields byte
for byte.  Exit codes: 0 success, 1 no valid table exists, 2 verification
failure, 3 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .connected import ConnectedRunConfig, UnsolvableInstance, run_connected_aware
from .derandomize import (
    GoodnessCertificate,
    SearchBudgetExceeded,
    SearchConfig,
    derandomize,
    lift_to_claimed_size,
    search_good_f,
)
from .graphs import (
    InputClasses,
    InstanceFamilySpec,
    dump_instances,
    enumerate_instances,
    load_instances,
)
from .problems import compile_checks, problem_by_name, verify
from .programs import DETERMINISTIC_BUILTINS, RANDOMIZED_BUILTINS
from .simulator import (
    IncompleteTableError,
    compute_success_exact,
    estimate_success_mc,
    load_table,
    run_deterministic,
    run_normal_form,
)
from .streams import BitBudgetExceeded, StreamExhausted

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_VERIFY_FAILED = 2
EXIT_BAD_INPUT = 3

OUT_DIR_ENV = "DERANDLAB_OUT_DIR"
TABLE_HELP = f"table file; a relative path is read under ${OUT_DIR_ENV} when it is set"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments by default; the documented code is 3.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _out_path(name: str | None) -> Path | None:
    if name is None:
        return None
    path = Path(name)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(name: str | None, text: str) -> None:
    """Write an output to the file ``name``, or to stdout when no name is given."""
    out = _out_path(name or None)
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _manifest(args: argparse.Namespace) -> dict:
    params = dict(sorted(vars(args).items()))
    return {
        "tool": "derandlab",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
    }


def _alphabet(text: str) -> tuple[str, ...]:
    labels = tuple(part for part in text.split(",") if part)
    if not labels:
        raise argparse.ArgumentTypeError("alphabet must name at least one label")
    return labels


# The defaults of the options that shape an --n family besides --n itself.
_FAMILY_DEFAULTS = {"c": 1, "input_alphabet": ("x",), "max_degree": None}


def _family_args(parser: argparse.ArgumentParser, instances: bool = False) -> None:
    """The family's parameters; with ``instances``, ``--n`` or an
    ``--instances`` file names the inputs, exactly one of them."""
    if instances:
        source = parser.add_mutually_exclusive_group(required=True)
        source.add_argument("--n", type=int, help="node count")
        source.add_argument("--instances", default=None, help="JSONL instance file")
    else:
        parser.add_argument("--n", type=int, required=True, help="node count")
    parser.add_argument("--c", type=int, default=_FAMILY_DEFAULTS["c"], help="identifier exponent")
    parser.add_argument(
        "--input-alphabet",
        type=_alphabet,
        default=_FAMILY_DEFAULTS["input_alphabet"],
        help="comma-separated input labels (default: x)",
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=_FAMILY_DEFAULTS["max_degree"],
        help="optional degree filter",
    )


def _family_spec(args: argparse.Namespace) -> InstanceFamilySpec:
    return InstanceFamilySpec(
        n=args.n,
        c=args.c,
        input_alphabet=args.input_alphabet,
        max_degree=args.max_degree,
    )


def _input_classes(args: argparse.Namespace) -> InputClasses:
    """The distinct inputs of the ``--instances`` file, or of the ``--n``
    family, built without listing its copies.  A file fixes its own
    identifiers, inputs and degrees, so it takes no other family option."""
    if args.instances is None:
        return InputClasses.of_spec(_family_spec(args))
    given = [
        "--" + name.replace("_", "-")
        for name, default in _FAMILY_DEFAULTS.items()
        if getattr(args, name) != default
    ]
    if given:
        raise ValueError(f"{', '.join(given)}: family options apply to --n, not --instances")
    return InputClasses.of_instances(load_instances(Path(args.instances).read_text()))


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    instances = list(enumerate_instances(spec))
    _emit(args.out, dump_instances(instances))
    print(f"enumerated {len(instances)} instances", file=sys.stderr)
    return EXIT_OK


def cmd_derandomize(args: argparse.Namespace) -> int:
    problem = problem_by_name(args.problem)
    config = SearchConfig(
        problem=problem,
        family=_family_spec(args),
        radius=args.T,
        node_budget=args.budget,
    )
    report, outcome = derandomize(config)
    if args.out_report:
        _emit(args.out_report, _json({**report, "manifest": _manifest(args)}))
    stats = outcome.stats
    print(
        f"search: {stats.realized_views} views / {stats.constraints} constraints / "
        f"{stats.placements} placements / {stats.conflicts} conflicts / "
        f"{stats.checks} checks / "
        f"{stats.predicate_calls} predicate_calls",
        file=sys.stderr,
    )
    print(
        "phases: "
        + " / ".join(f"{phase} {seconds:.3f} s" for phase, seconds in outcome.phase_s.items()),
        file=sys.stderr,
    )
    if outcome.found:
        if args.out_table:
            _emit(args.out_table, _json(outcome.table.to_jsonable()))
        print(
            f"table found: {outcome.table.size} entries, verified "
            f"{outcome.verified_count}/{outcome.stats.family_size}",
            file=sys.stderr,
        )
        return EXIT_OK
    kind = "witness instance" if outcome.witness_index is not None else "exhausted search"
    print(f"no valid table exists ({kind})", file=sys.stderr)
    return EXIT_UNSAT


def cmd_certify(args: argparse.Namespace) -> int:
    if args.bits < 0:
        # every mode records --bits, and the exact pass and --find-f use it
        raise ValueError("bit budget must be nonnegative")
    problem = problem_by_name(args.problem)
    spec = _family_spec(args)
    exact = args.mode == "exact"
    # a copy of an input under a renaming of its nodes fails exactly when its
    # first copy does, so every mode compiles and runs each distinct input
    # once: Monte-Carlo trials stay per instance, keyed by instance index,
    # and each copy's trials use its first copy's checks.  The classes come
    # first, so a family over the per-graph or edge-set limits fails before
    # anything is built
    classes = InputClasses.of_spec(spec)
    program = RANDOMIZED_BUILTINS[args.program](problem.output_alphabet)
    lift = lift_to_claimed_size(spec)

    # every run is told the claimed size, not the true node count
    claimed_n = lift.claimed_size
    payload: dict = {
        "manifest": _manifest(args),
        "mode": args.mode,
        "claimed_n": claimed_n,
    }
    if not exact:
        if args.seed is None:
            raise ValueError("--seed is required in mc mode")
        if args.trials < 1:
            raise ValueError("need at least one trial")
    # each instance's class; a family of too many copies fails here, before
    # anything is compiled
    class_of = [k for k, _ in classes.copies]
    checks = compile_checks(problem, [first for _, first in classes.firsts])
    if exact:
        probs = compute_success_exact(program, checks, args.bits, claimed_n)
    else:
        estimates = estimate_success_mc(
            program,
            [checks[k] for k in class_of],
            trials=args.trials,
            seed=args.seed,
            claimed_n=claimed_n,
        )
        payload["stderr"] = [e.stderr for e in estimates]
        # trials are keyed by instance, so each instance is its own input
        probs = [e.failure for e in estimates]
        class_of = range(len(estimates))
    certificate = GoodnessCertificate(
        probs, class_of, lift.claimed_size, estimated=not exact
    )
    payload["certificate"] = certificate.to_jsonable()

    if args.find_f:
        found = search_good_f(program, checks, bits=args.bits, claimed_n=claimed_n)
        payload["good_f"] = (
            {str(k): list(v) for k, v in sorted(found.vectors.items())}
            if found is not None
            else None
        )
    _emit(args.out, _json(payload))
    if certificate.estimated:
        summary = " is a Monte-Carlo estimate; no verdict"
    else:
        summary = f"; verdict {certificate.verdict}"
    print(
        f"certificate total {certificate.total} over {certificate.family_size} "
        f"instances{summary}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = problem_by_name(args.problem)
    table = load_table(_out_path(args.table), problem.output_alphabet)
    classes = _input_classes(args)
    witness = None
    # a table passes on a copy of an input exactly when it passes on the
    # input's first copy, which comes first; the copies are never built
    for idx, instance in classes.firsts:
        try:
            outputs = run_normal_form(table, instance)
        except IncompleteTableError as exc:
            witness = {"instance": idx, "error": str(exc)}
            break
        result = verify(problem, instance, outputs)
        if not result.valid:
            witness = {
                "instance": idx,
                "witness_node": result.witness_node,
                "witness_component": result.witness_component,
            }
            break
    # every instance before the first failing one passed
    passed = classes.size if witness is None else witness["instance"]
    payload = {
        "manifest": _manifest(args),
        "passed": passed,
        "total": classes.size,
        "witness": witness,
    }
    if args.out:
        _emit(args.out, _json(payload))
    if witness is not None:
        print(f"verification failed: {witness}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print(f"verified {passed}/{classes.size}", file=sys.stderr)
    return EXIT_OK


def _per_copy(classes: InputClasses, run: Callable) -> Iterator[tuple[int, object, tuple]]:
    """``(idx, result, perm)`` for each instance in order, where ``result``
    is ``run(idx, first)`` on the instance's first copy ``first`` and
    ``perm`` is the instance's renaming (:class:`InputClasses`).

    ``run`` is called once per distinct input, lazily, on the class's first
    copy, which comes before every other copy; so a pass meets the first
    error of a pass over every instance, in the same instance.  Whatever
    ``run`` computes must see identifiers only, never node indices: a copy's
    node ``v`` then gets what node ``perm[v]`` got on the first copy.
    """
    results: list = []
    for idx, (k, perm) in enumerate(classes.copies):
        if k == len(results):  # classes are numbered in order of first copies
            results.append(run(idx, classes.firsts[k][1]))
        yield idx, results[k], perm


def _outputs(render: Callable[[dict], str]) -> Callable[[dict, tuple], str]:
    """``text(outputs, perm)``: the text of a copy's ``outputs`` object
    ``{str(v): outputs[perm[v]]}``, rendered by ``render`` once per distinct
    label vector and reused for every copy that has it."""
    rendered = functools.cache(
        lambda labels: render({str(v): label for v, label in enumerate(labels)})
    )
    return lambda outputs, perm: rendered(tuple(map(outputs.__getitem__, perm)))


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.table is not None and (args.trace or args.claimed_n is not None):
        raise ValueError("--trace and --claimed-n apply to --program runs, not --table")
    classes = _input_classes(args)
    # each line is the JSONEncoder(sort_keys=True) rendering of its row, made
    # from texts rendered once per distinct content
    encode = json.JSONEncoder(sort_keys=True).encode
    outputs = _outputs(encode)
    if args.table is not None:
        table = load_table(_out_path(args.table))
        runs = _per_copy(classes, lambda _idx, instance: run_normal_form(table, instance))
        lines = [
            f'{{"index": {idx}, "outputs": {outputs(result, perm)}}}\n'
            for idx, result, perm in runs
        ]
    else:
        program = DETERMINISTIC_BUILTINS[args.program]()
        runs = _per_copy(
            classes,
            lambda _idx, instance: run_deterministic(
                program, instance, claimed_n=args.claimed_n, trace=args.trace
            ),
        )
        trace = functools.cache(encode)
        lines = []
        for idx, result, perm in runs:
            line = (
                f'{{"index": {idx}, "outputs": {outputs(result.outputs, perm)}, '
                f'"rounds": {result.rounds}'
            )
            if args.trace:
                # a trace row counts each node's messages, so it is renamed too
                renamed = tuple(tuple(r[u] for u in perm) for r in result.trace)
                line += ', "trace": ' + trace(renamed)
            lines.append(line + "}\n")
    _emit(args.out, "".join(lines))
    return EXIT_OK


def cmd_connected_run(args: argparse.Namespace) -> int:
    problem = problem_by_name(args.problem)
    table = load_table(_out_path(args.table), problem.output_alphabet)
    config = ConnectedRunConfig(problem, table)
    # the rows are _json's rendering of each run, at its indent in "runs"
    outputs = _outputs(
        lambda obj: json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n      ")
    )
    path = functools.cache(json.dumps)

    def run(idx: int, instance):
        if not instance.graph.is_connected:
            if args.instances is not None:
                raise ValueError(f"instance {idx} is disconnected")
            return None
        try:
            result = run_connected_aware(config, instance)
        except UnsolvableInstance as exc:
            raise UnsolvableInstance(f"instance {idx}: {exc}") from None
        ok = verify(problem, instance, result.outputs).valid
        rest = (
            f',\n      "path": {path(result.path)},\n'
            f'      "rounds_charged": {result.rounds_charged},\n'
            f'      "valid": {"true" if ok else "false"}\n    }}'
        )
        return result.outputs, ok, rest

    rows = []
    failures = 0
    for idx, outcome, perm in _per_copy(_input_classes(args), run):
        if outcome is None:
            continue
        first, ok, rest = outcome
        failures += not ok
        rows.append(
            f'    {{\n      "index": {idx},\n      "outputs": {outputs(first, perm)}{rest}'
        )
    text = _json({"manifest": _manifest(args), "runs": [], "failures": failures})
    if rows:
        # "runs" sorts last, so its empty array ends the text
        text = text[: -len("[]\n}\n")] + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"
    _emit(args.out, text)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="derandlab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("enumerate", help="write a family as JSON lines")
    _family_args(p)
    p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("derandomize", help="search for a valid lookup table")
    p.add_argument("--problem", required=True, help="mis | coloring:k | problem file")
    _family_args(p)
    p.add_argument("--T", type=int, required=True, help="table radius")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the search's placements: labels chosen by decision, not implied",
    )
    p.add_argument("--out-table", default=None)
    p.add_argument("--out-report", default=None)

    p = sub.add_parser("certify", help="failure probabilities and union-bound certificate")
    p.add_argument("--problem", required=True)
    _family_args(p)
    p.add_argument("--program", default="first-bit", choices=sorted(RANDOMIZED_BUILTINS))
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--bits", type=int, default=1, help="per-node bit budget")
    p.add_argument("--trials", type=int, default=1000, help="mc trials")
    p.add_argument("--seed", default=None, help="mc seed (required in mc mode)")
    p.add_argument("--find-f", action="store_true", help="also search for a good assignment")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check a table against a family")
    p.add_argument("--problem", required=True)
    p.add_argument("--table", required=True, help=TABLE_HELP)
    _family_args(p, instances=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="run a table or builtin program on a family")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", default=None, help=TABLE_HELP)
    group.add_argument("--program", default=None, choices=sorted(DETERMINISTIC_BUILTINS))
    _family_args(p, instances=True)
    p.add_argument("--claimed-n", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="record per-round message counts")
    p.add_argument("--out", default=None)

    p = sub.add_parser("connected-run", help="two-phase runtime on connected instances")
    p.add_argument("--problem", required=True)
    p.add_argument("--table", required=True, help=TABLE_HELP)
    _family_args(p, instances=True)
    p.add_argument("--out", default=None)

    return parser


# Commands are looked up by name at each call, not stored in the cached
# parser, so a command function replaced in this module is the one called.
_COMMANDS = {
    "enumerate": cmd_enumerate,
    "derandomize": cmd_derandomize,
    "certify": cmd_certify,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "connected-run": cmd_connected_run,
}


@functools.lru_cache(maxsize=4)
def _parser(_names: tuple[tuple[str, ...], tuple[str, ...]]) -> argparse.ArgumentParser:
    # --program choices are the built-in names when the parser is built, so
    # one parser serves every call that sees the same names
    return build_parser()


# The one place where a failure becomes an exit code.  A table with no entry
# for some view fails verification, and an instance with no valid labeling
# has no valid table; every other documented error is bad input: a malformed
# file or argument, a read past --bits or the bit cap, or a search over its
# budget.
_FAILURES = (
    IncompleteTableError,
    UnsolvableInstance,
    ValueError,  # ProblemFormatError, TableFormatError, InstanceFormatError, ...
    OSError,
    SearchBudgetExceeded,
    StreamExhausted,
    BitBudgetExceeded,
)


def main(argv: Sequence[str] | None = None) -> int:
    names = (tuple(sorted(RANDOMIZED_BUILTINS)), tuple(sorted(DETERMINISTIC_BUILTINS)))
    args = _parser(names).parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, IncompleteTableError):
            return EXIT_VERIFY_FAILED
        if isinstance(exc, UnsolvableInstance):
            return EXIT_UNSAT
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
