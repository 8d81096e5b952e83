"""The benchmark's workloads: fixed operation lists, set-up and output checks.

Every operation calls derandlab the way a user does: ``derandlab.cli.main``
with an argument list, or a public library function where the CLI has no
entry point.  Outputs go to a work directory through ``DERANDLAB_OUT_DIR``
with relative names, so the manifests embedded in reports do not depend on
where the benchmark runs.

An operation is timed around its call only.  Its check runs afterwards and
compares what it produced against ``expected.json``, recorded at the seed
commit, and re-checks tables and witnesses with independent library calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from collections import Counter
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Fields of a derandomize report that are its verdict.  Timing, the manifest
# (an echo of the invocation) and the placement counter (search effort,
# pinned separately by the traced run) are left out, as are fields added
# after expected.json was recorded.
REPORT_FIELDS = (
    "n",
    "c",
    "input_alphabet",
    "max_degree",
    "problem",
    "output_alphabet",
    "radius",
    "claimed_size",
    "family_bound",
    "bound_below_claimed",
    "bound_below_claimed_over_n",
    "family_size",
    "pipeline",
    "found",
    "table_size",
    "verified_count",
    "unsat_witness_index",
    "unsat_witness",
    "exhausted_search",
    "t_rand_at_claimed_size",
)

# Monte-Carlo estimates must lie within this many binomial standard
# deviations of the exact failure probability (about 2e-9 per estimate).
MC_Z = 6.0


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def table_digest(path: Path) -> str:
    """Digest of a saved table's radius, alphabet and entries."""
    obj = json.loads(path.read_text())
    return digest([obj["T"], obj["output_alphabet"], obj["entries"]])


class Env:
    """What one set-up provides: the imported package, the work directory,
    the workload seed and the recorded expectations."""

    def __init__(self, workdir: Path, seed: int, expected: dict):
        import derandlab
        import derandlab.cli
        import derandlab.programs

        self.dl = derandlab
        self.cli = derandlab.cli
        self.programs = derandlab.programs
        self.workdir = workdir
        self.seed = seed
        self.expected = expected
        self._families: dict[int, list] = {}
        self._problems: dict[str, object] = {}

    def family(self, n: int) -> list:
        if n not in self._families:
            spec = self.dl.InstanceFamilySpec(n=n)
            self._families[n] = list(self.dl.enumerate_instances(spec))
        return self._families[n]

    def problem(self, name: str):
        if name not in self._problems:
            self._problems[name] = self.dl.problem_by_name(name)
        return self._problems[name]

    def path(self, name: str) -> Path:
        return self.workdir / name

    def cli_main(self, argv: list[str]) -> tuple[int, str]:
        err = io.StringIO()
        with redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue()

    def table_verifies(self, problem: str, table_path: Path, n: int) -> bool:
        """Independent re-check of a table on every instance of the family."""
        dl = self.dl
        spec = self.problem(problem)
        table = dl.load_table(table_path)
        return all(
            dl.verify(spec, inst, dl.run_normal_form(table, inst)).valid
            for inst in self.family(n)
        )


@dataclass
class Outcome:
    """Result of one check: whether the operation reached a verdict, what it
    observed (recorded into ``expected.json`` by ``--record``), and the
    ways it differed from what was expected."""

    decided: bool
    observed: dict
    errors: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str
    outputs: tuple[str, ...]  # work-directory files the operation writes
    run: Callable[[Env], object]
    check: Callable[[Env, object, dict | None], Outcome]
    # What ``--record`` stores for the operation when it is not the observed
    # outputs of a pass.
    reference: Callable[[Env], dict] | None = None

    def clear(self, env: Env) -> None:
        for name in self.outputs:
            env.path(name).unlink(missing_ok=True)

    def output_bytes(self, env: Env) -> int:
        return sum(
            env.path(name).stat().st_size
            for name in self.outputs
            if env.path(name).exists()
        )


def _exit_error(code: int, err: str) -> str:
    return f"exit {code}: {err.strip()[-200:]}"


def _compare(observed: dict, expected: dict | None, errors: list[str]) -> None:
    if expected is None:
        errors.append("no expected result recorded")
        return
    for key, value in expected.items():
        if observed.get(key) != value:
            errors.append(f"{key}: got {observed.get(key)!r}, expected {value!r}")


# -- table-search ------------------------------------------------------------


def derandomize_op(problem: str, n: int, radius: int, budget: int | None = None) -> Op:
    stem = f"ts-{problem.replace(':', '')}-n{n}-T{radius}"
    table, report = f"{stem}.table.json", f"{stem}.report.json"
    argv = [
        "derandomize", "--problem", problem, "--n", str(n), "--T", str(radius),
        "--out-table", table, "--out-report", report,
    ]
    label = f"derandomize {problem} n={n} T={radius}"
    if budget is not None:
        argv += ["--budget", str(budget)]
        label += f" budget={budget}"

    def run(env: Env):
        return env.cli_main(argv)

    def check(env: Env, raw, expected: dict | None) -> Outcome:
        code, err = raw
        errors: list[str] = []
        observed: dict = {"exit": code}
        report_path, table_path = env.path(report), env.path(table)
        payload = json.loads(report_path.read_text()) if report_path.exists() else None
        if code == 0 and payload is not None:
            verdict = "found"
        elif code == 1 and payload is not None:
            if payload.get("unsat_witness_index") is None:
                verdict = "unsat-exhausted"
            else:
                verdict = "unsat-witness"
        elif code == 3 and "budget" in err:
            verdict = "budget"
        else:
            verdict = "error"
            errors.append(_exit_error(code, err))
        observed["verdict"] = verdict
        if payload is not None:
            observed["witness_index"] = payload.get("unsat_witness_index")
            observed["report_digest"] = digest(
                {k: payload.get(k) for k in REPORT_FIELDS}
            )
        if verdict == "found":
            observed["table_digest"] = table_digest(table_path)
            if not env.table_verifies(problem, table_path, n):
                errors.append("table fails verification on the family")
        if verdict == "unsat-witness":
            dl = env.dl
            witness = dl.instance_from_jsonable(payload["unsat_witness"])
            if dl.brute_force_solve(env.problem(problem), witness) is not None:
                errors.append("unsat witness has a valid labeling")
        # A search that now decides within its budget is progress, as long as
        # the table it returns verifies on the whole family (checked above).
        progressed = verdict == "found" and (expected or {}).get("verdict") == "budget"
        if not progressed:
            _compare(observed, expected, errors)
        return Outcome(verdict in ("found", "unsat-witness", "unsat-exhausted"), observed, errors)

    return Op(label, (table, report), run, check)


def table_search_ops() -> list[Op]:
    ops = [
        derandomize_op(problem, 3, radius)
        for problem in ("mis", "coloring:2", "coloring:3", "coloring:4")
        for radius in (0, 1, 2)
    ]
    ops.append(derandomize_op("coloring:4", 4, 0))
    ops.append(derandomize_op("coloring:3", 4, 0))
    ops.append(derandomize_op("mis", 4, 2, budget=20000))
    return ops


# -- fix-randomness ----------------------------------------------------------


def certify_op(
    problem: str, n: int, program: str, mode: str, amount: int, exact_bits: int = 0
) -> Op:
    """``amount`` is the bit budget in exact mode and the trial count in mc
    mode.  Exact operations also search for a good assignment.  An mc
    operation is checked against the exact failure probabilities at
    ``exact_bits`` bits per node, the number of bits the program reads."""
    what = "bits" if mode == "exact" else "trials"
    out = f"fr-{program}-{problem.replace(':', '')}-n{n}-{mode}.json"
    label = f"certify {mode} {program} {problem} n={n} {what}={amount}"

    def argv(env: Env) -> list[str]:
        args = [
            "certify", "--problem", problem, "--n", str(n), "--program", program,
            "--mode", mode, "--seed", str(env.seed), "--out", out,
        ]
        if mode == "exact":
            return args + ["--bits", str(amount), "--find-f"]
        return args + ["--trials", str(amount)]

    def run(env: Env):
        return env.cli_main(argv(env))

    def check(env: Env, raw, expected: dict | None) -> Outcome:
        code, err = raw
        errors: list[str] = []
        observed: dict = {"exit": code}
        path = env.path(out)
        if code != 0 or not path.exists():
            errors.append(_exit_error(code, err))
            return Outcome(False, observed, errors)
        payload = json.loads(path.read_text())
        probs = payload["certificate"]["failure_probs"]
        if mode == "exact":
            observed["failure_probs"] = probs
            observed["good_f"] = payload.get("good_f")
            _compare(observed, expected, errors)
        else:
            observed["instances"] = len(probs)
            if expected is None:
                errors.append("no expected result recorded")
            else:
                errors += mc_errors(probs, expected["exact_failure_probs"], amount)
        return Outcome(True, observed, errors)

    def reference(env: Env) -> dict:
        return {"exact_failure_probs": exact_failure_probs(env, problem, n, program, exact_bits)}

    return Op(label, (out,), run, check, reference if mode == "mc" else None)


def mc_errors(estimates: list[str], exact: list[str], trials: int) -> list[str]:
    """Estimates farther than ``MC_Z`` binomial standard deviations from the
    exact failure probabilities; any seed passes a correct estimator."""
    if len(estimates) != len(exact):
        return [f"{len(estimates)} estimates for {len(exact)} instances"]
    errors = []
    for idx, (est, p) in enumerate(zip(estimates, exact)):
        est, p = Fraction(est), Fraction(p)
        tolerance = MC_Z * math.sqrt(float(p * (1 - p)) / trials)
        if abs(float(est - p)) > tolerance:
            errors.append(f"instance {idx}: estimate {est} vs exact {p}")
    return errors


def fix_randomness_ops() -> list[Op]:
    return [
        certify_op("coloring:3", 3, "two-bit", "exact", 2),
        certify_op("coloring:2", 4, "first-bit", "exact", 1),
        certify_op("coloring:3", 3, "two-bit", "mc", 200, exact_bits=2),
        certify_op("coloring:2", 2, "first-bit", "mc", 10000, exact_bits=1),
    ]


def exact_failure_probs(env: Env, problem: str, n: int, program: str, bits: int) -> list[str]:
    out = "reference.json"
    code, err = env.cli_main([
        "certify", "--problem", problem, "--n", str(n), "--program", program,
        "--mode", "exact", "--bits", str(bits), "--out", out,
    ])
    if code != 0:
        raise RuntimeError(f"reference certify failed: {err}")
    return json.loads(env.path(out).read_text())["certificate"]["failure_probs"]


# -- table-lookup ------------------------------------------------------------

MIS_TABLE = "tl-mis-T3.table.json"
COLORING_TABLE = "tl-coloring4-T0.table.json"


def tabulate_op() -> Op:
    """Tabulate the mis component solver at radius 3 over the n=4 family; the
    CLI has no entry point for tabulation."""

    def run(env: Env):
        dl = env.dl
        program = env.programs.component_solver_program(dl.make_mis(), 3)
        family = list(dl.enumerate_instances(dl.InstanceFamilySpec(n=4)))
        table = dl.tabulate(program, 3, family)
        dl.save_table(table, env.path(MIS_TABLE))
        return table.size

    def check(env: Env, raw, expected: dict | None) -> Outcome:
        errors: list[str] = []
        observed = {"size": raw, "table_digest": table_digest(env.path(MIS_TABLE))}
        _compare(observed, expected, errors)
        return Outcome(True, observed, errors)

    return Op("tabulate mis T=3 n=4", (MIS_TABLE,), run, check)


def lookup_ops(problem: str, table: str) -> list[Op]:
    tag = table.removesuffix(".table.json")
    verify_out, sim_out, conn_out = f"{tag}.verify.json", f"{tag}.sim.jsonl", f"{tag}.conn.json"

    def runner(argv: list[str]):
        return lambda env: env.cli_main(argv)

    def check_verify(env: Env, raw, expected: dict | None) -> Outcome:
        code, err = raw
        payload = json.loads(env.path(verify_out).read_text()) if code == 0 else {}
        observed = {"exit": code, "passed": payload.get("passed"), "total": payload.get("total")}
        errors = [] if code == 0 else [_exit_error(code, err)]
        if observed["passed"] != observed["total"]:
            errors.append(f"verified {observed['passed']} of {observed['total']}")
        _compare(observed, expected, errors)
        return Outcome(code == 0, observed, errors)

    def check_simulate(env: Env, raw, expected: dict | None) -> Outcome:
        code, err = raw
        observed = {"exit": code}
        errors = [] if code == 0 else [_exit_error(code, err)]
        if code == 0:
            observed["output_digest"] = file_digest(env.path(sim_out))
        _compare(observed, expected, errors)
        return Outcome(code == 0, observed, errors)

    def check_connected(env: Env, raw, expected: dict | None) -> Outcome:
        code, err = raw
        observed: dict = {"exit": code}
        errors = [] if code == 0 else [_exit_error(code, err)]
        if env.path(conn_out).exists():
            payload = json.loads(env.path(conn_out).read_text())
            observed["failures"] = payload["failures"]
            observed["paths"] = dict(sorted(Counter(r["path"] for r in payload["runs"]).items()))
            if payload["failures"]:
                errors.append(f"{payload['failures']} runs failed verification")
        _compare(observed, expected, errors)
        return Outcome(code == 0, observed, errors)

    base = ["--table", table, "--n", "4"]
    return [
        Op(f"verify {problem} {tag}", (verify_out,),
           runner(["verify", "--problem", problem, *base, "--out", verify_out]), check_verify),
        Op(f"simulate {tag}", (sim_out,),
           runner(["simulate", *base, "--out", sim_out]), check_simulate),
        Op(f"connected-run {problem} {tag}", (conn_out,),
           runner(["connected-run", "--problem", problem, *base, "--out", conn_out]),
           check_connected),
    ]


def table_lookup_setup(env: Env) -> None:
    """Make the coloring:4 T=0 table over the n=4 family with the CLI."""
    code, err = env.cli_main([
        "derandomize", "--problem", "coloring:4", "--n", "4", "--T", "0",
        "--out-table", COLORING_TABLE,
    ])
    if code != 0:
        print(f"set-up: derandomize exited {code}: {err.strip()}", file=sys.stderr)


def table_lookup_ops() -> list[Op]:
    return [tabulate_op(), *lookup_ops("mis", MIS_TABLE), *lookup_ops("coloring:4", COLORING_TABLE)]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[], list[Op]]
    setup: Callable[[Env], None] | None = None


WORKLOADS = {
    "table-search": Workload("table-search", table_search_ops),
    "fix-randomness": Workload("fix-randomness", fix_randomness_ops),
    "table-lookup": Workload("table-lookup", table_lookup_ops, table_lookup_setup),
}
