"""derandlab benchmark: time to a checked verdict, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload table-search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in one single-threaded process as a closed loop with one
client: a fixed list of operations, each started when the previous one has
returned, repeated in passes until ``--seconds`` have elapsed.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced pass.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, layer_metrics, layer_unit, search_checks  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
RESULTS = BENCH_DIR / "results"

# Set-up is repeated at least this many times, and until this much time has
# gone into it, and the median is reported.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 40

# Operations whose search counts repeat exactly; the traced run compares
# them against the values in expected.json.
PINNED = (
    "derandomize mis n=3 T=1",
    "derandomize coloring:2 n=3 T=1",
    "derandomize coloring:2 n=3 T=2",
    "derandomize coloring:3 n=4 T=0",
)

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "decided_share": "ratio",
}


def refuse(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def purge_package() -> None:
    for name in [m for m in sys.modules if m == "derandlab" or m.startswith("derandlab.")]:
        del sys.modules[name]


def set_up(workload, workdir: Path, seed: int, expected: dict):
    """Import derandlab afresh, build the operation list and the fixtures."""
    purge_package()
    env = Env(workdir, seed, expected)
    ops = workload.ops()
    if workload.setup is not None:
        workload.setup(env)
    return env, ops


def run_pass(env, ops, tracer=None) -> list[dict]:
    """One pass over the operation list; one row per operation."""
    rows = []
    for op in ops:
        op.clear(env)
        gc.collect()
        error = None
        if tracer is not None:
            tracer.op = op.label
            before = (tracer.counters["derandomize.placements"], search_checks(tracer))
            tracer.active = True
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    raw = op.run(env)
            else:
                raw = op.run(env)
        except Exception:
            raw, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        row = {"op": op.label, "seconds": seconds}
        if tracer is not None:
            tracer.active = False
            row["placements"] = tracer.counters["derandomize.placements"] - before[0]
            row["checks"] = search_checks(tracer) - before[1]
        if error is None:
            try:
                outcome = op.check(env, raw, env.expected.get("ops", {}).get(op.label))
                row.update(decided=outcome.decided, observed=outcome.observed,
                           errors=outcome.errors)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            row.update(decided=False, observed={}, errors=[error])
        row["bytes"] = op.output_bytes(env)
        rows.append(row)
        for message in row["errors"]:
            print(f"FAIL {op.label}: {message}", file=sys.stderr)
    return rows


def quartile_spread(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def context(args) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    if args.record:
        expected: dict = {}
    else:
        expected = json.loads(EXPECTED.read_text())
    ctx = context(args)
    workload = WORKLOADS[args.workload]
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["DERANDLAB_OUT_DIR"] = str(workdir)
    try:
        return measure(args, ctx, workload, workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ctx, workload, workdir, expected) -> int:
    setups = []
    started = PROCESS_START
    while True:
        env, ops = set_up(workload, workdir, args.seed, expected)
        setups.append(time.perf_counter() - started)
        if len(setups) >= SETUP_MAX_REPEATS or (
            len(setups) >= SETUP_REPEATS and sum(setups) >= SETUP_MIN_S
        ):
            break
        started = time.perf_counter()

    untraced: list[list[dict]] = []
    traced: list[tuple[list[dict], dict]] = []
    tracer = Tracer() if args.trace else None
    begin = time.perf_counter()
    while True:
        untraced.append(run_pass(env, ops))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                rows = run_pass(env, ops, tracer)
            finally:
                tracer.uninstall()
            report_bytes = sum(r["bytes"] for r in rows)
            traced.append((rows, layer_metrics(tracer, report_bytes)))
        if time.perf_counter() - begin >= args.seconds or args.record:
            break
    ctx["load_end"] = list(os.getloadavg())

    all_rows = [r for p in untraced for r in p] + [r for p, _ in traced for r in p]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r["errors"])
    untraced_rows = [r for p in untraced for r in p]
    decided = sum(1 for r in untraced_rows if r["decided"])

    pass_totals = [sum(r["seconds"] for r in p) for p in untraced]
    per_op = {op.label: [p[i]["seconds"] for p in untraced] for i, op in enumerate(ops)}
    pass_s = sum(statistics.median(v) for v in per_op.values())
    end_to_end = {
        "pass_s": pass_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decided_share": decided / len(untraced_rows),
    }

    lines = [
        "context " + " ".join(f"{k}={v}" for k, v in ctx.items()),
        f"passes {len(untraced)} untraced, {len(traced)} traced; set-ups {len(setups)}",
    ]
    lo, hi = quartile_spread(pass_totals)
    lines.append(
        f"pass wall time: median {statistics.median(pass_totals):.4f} s, "
        f"quartiles {lo:.4f}..{hi:.4f} s over {len(pass_totals)} passes"
    )
    for name, value in end_to_end.items():
        lines.append(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    lines.append(f"failed_share {failed / attempted:.6g} ratio ({failed}/{attempted})")

    result = {"context": ctx, "end_to_end": end_to_end, "attempted": attempted,
              "failed": failed, "setups": setups, "passes": untraced}
    if tracer is not None:
        layer = {
            name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]
        }
        layer["trace.overhead_s"] = statistics.median(
            sum(r["seconds"] for r in rows) for rows, _ in traced
        ) - statistics.median(pass_totals)
        pins = pin_results(traced[0][0], expected.get("pins", {}))
        if pins:
            matched = sum(1 for p in pins.values() if p["match"])
            lines.append(f"pinned counts match: {matched}/{len(pins)}")
        for label, pin in pins.items():
            if not pin["match"]:
                lines.append(f"  pin differs: {label}: {pin}")
        if tracer.absent:
            lines.append("absent: " + ", ".join(tracer.absent))
        for name, value in layer.items():
            lines.append(f"{name} {value:.6g} {layer_unit(name)}")
        result.update(per_layer=layer, pins=pins, absent=tracer.absent,
                      traced_passes=[rows for rows, _ in traced])
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layer.items()}
    else:
        metrics = {
            name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in end_to_end.items()
        }

    if args.record:
        record(env, ops, untraced[0], traced)
        lines.append(f"recorded expected results in {EXPECTED}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        spans = [
            {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4], "op": s[5]}
            for s in tracer.spans
        ]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def pin_results(rows: list[dict], pins: dict) -> dict:
    out = {}
    for row in rows:
        if row["op"] in pins:
            expected = pins[row["op"]]
            got = {k: row[k] for k in expected}
            out[row["op"]] = {"expected": expected, "got": got, "match": got == expected}
    return out


def record(env, ops, rows: list[dict], traced) -> None:
    """Write the outputs of a pass of the current commit into expected.json."""
    merged = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    merged["recorded_at"] = git_commit()
    recorded = merged.setdefault("ops", {})
    for op, row in zip(ops, rows):
        recorded[op.label] = op.reference(env) if op.reference else row["observed"]
    if traced:
        merged.setdefault("pins", {}).update({
            r["op"]: {"placements": r["placements"], "checks": r["checks"]}
            for r in traced[0][0]
            if r["op"] in PINNED
        })
    EXPECTED.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and write expected.json from its outputs")
    args = parser.parse_args(argv)
    if not (SRC / "derandlab" / "__init__.py").is_file():
        return refuse(f"no derandlab sources under {SRC}; run from a repository checkout")
    if not args.record and not EXPECTED.is_file():
        return refuse(f"{EXPECTED} is missing")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
