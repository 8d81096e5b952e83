"""Command-line behavior: exit codes, file outputs, manifest reproducibility."""

import dataclasses
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import derandlab
from conftest import claimed_size_program
from derandlab import (
    InstanceFamilySpec,
    assignment_is_good,
    certify_good_f,
    cli,
    compile_checks,
    enumerate_instances,
    estimate_success_mc,
    graphs,
    iter_bounded_assignments,
    lift_to_claimed_size,
    load_table,
    problem_by_name,
    problems,
    save_table,
    search_good_f,
)
from derandlab.cli import main
from derandlab.programs import DETERMINISTIC_BUILTINS, RANDOMIZED_BUILTINS, parity_program


# the directory holding the package, for the tests that run it in a subprocess
SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(derandlab.__file__)))


def run(argv):
    return main(argv)


def test_readme_cli_block_runs(tmp_path):
    """Every command in the README's CLI example runs as written, one after
    another in one directory, with the exit codes its comments promise."""
    readme = os.path.join(os.path.dirname(SOURCE), "README.md")
    with open(readme) as f:
        section = f.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    commands = [shlex.split(line) for line in lines if not line.startswith("#")]
    codes = []
    for command in commands:
        assert command[0] == "derandlab"
        done = subprocess.run(
            [sys.executable, "-m", "derandlab.cli", *command[1:]],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=SOURCE),
            capture_output=True,
            text=True,
            timeout=60,
        )
        codes.append(done.returncode)
    assert codes == [0, 0, 1, 0, 0, 0, 0, 0]


class TestEnumerate:
    def test_writes_one_line_per_instance(self, tmp_path):
        out = tmp_path / "fam.jsonl"
        code = run(["enumerate", "--n", "3", "--c", "1", "--input-alphabet", "x", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 48

    def test_single_instance_family(self, tmp_path):
        out = tmp_path / "one.jsonl"
        assert run(["enumerate", "--n", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_bad_node_count_exits_3(self, tmp_path):
        assert run(["enumerate", "--n", "0", "--out", str(tmp_path / "x")]) == 3

    def test_stdout_when_no_out(self, capsys):
        assert run(["enumerate", "--n", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DERANDLAB_OUT_DIR", str(tmp_path))
        assert run(["enumerate", "--n", "1", "--out", "nested/fam.jsonl"]) == 0
        assert (tmp_path / "nested" / "fam.jsonl").exists()


class TestOversizedFamily:
    """A family with more identifier tuples per graph than the enumerators
    list is refused before anything is allocated (n=3 at c=30 would copy
    3**30 identifiers), and so is one with more instances per graph, each
    tuple with every input labeling (n=3 with 200 labels lists 6 * 200**3),
    and so is one with more edge sets (n=7 sweeps 2**21 of them): one error
    line and exit 3.  So is a family of more instances than
    :data:`graphs.MAX_INSTANCES` (n=6 lists 23,592,960), in every command
    but ``verify``, which reads only the first copies."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate"],
            ["derandomize", "--problem", "mis", "--T", "1"],
            ["certify", "--problem", "coloring:2"],
            ["verify", "--problem", "mis", "--table", "TABLE"],
            ["simulate", "--program", "parity"],
            ["connected-run", "--problem", "mis", "--table", "TABLE"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exits_bad_input_with_one_error_line(self, tmp_path, capsys, argv):
        table = tmp_path / "mis.json"
        assert run(["derandomize", "--problem", "mis", "--n", "2", "--T", "1", "--out-table", str(table)]) == 0
        capsys.readouterr()
        argv = [str(table) if arg == "TABLE" else arg for arg in argv]
        assert run(argv + ["--n", "3", "--c", "30"]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the family of n=3 at c=30 has more than 1048576 identifier tuples "
            "per graph, too many to enumerate\n",
        )
        labels = ",".join(f"l{i}" for i in range(200))
        assert run(argv + ["--n", "3", "--input-alphabet", labels]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the family of n=3 with 200 input labels has more than 1048576 "
            "instances per graph, too many to enumerate\n",
        )
        assert run(argv + ["--n", "7"]) == 3
        assert capsys.readouterr() == (
            "",
            "error: the family of n=7 has more than 1048576 edge sets, "
            "too many to enumerate\n",
        )
        if argv[0] == "verify":
            # verify reads only first copies, so n=6 is checked: the n=2
            # table has no entry for identifier 3
            assert run(argv + ["--n", "6"]) == 2
        else:
            assert run(argv + ["--n", "6"]) == 3
            assert capsys.readouterr() == (
                "",
                "error: the family of n=6 has more than 4194304 instances, "
                "too many to enumerate\n",
            )


def test_n6_is_refused_within_a_small_address_space():
    """Listing the n=6 family ran out of memory in a traceback with exit 1.
    Under a 1 GiB address space each command must refuse it in one error
    line with exit 3."""
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for argv in (
        ["derandomize", "--problem", "mis", "--n", "6", "--T", "0", "--budget", "5"],
        ["simulate", "--program", "parity", "--n", "6"],
        ["certify", "--problem", "coloring:2", "--n", "6", "--program", "first-bit"],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "derandlab.cli", *argv],
            env=dict(os.environ, PYTHONPATH=SOURCE),
            capture_output=True,
            text=True,
            timeout=30,
            preexec_fn=cap_memory,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            3,
            "",
            "error: the family of n=6 has more than 4194304 instances, "
            "too many to enumerate\n",
        )


def test_derandomize_refuses_n7_within_a_small_address_space():
    """n=7 passes both per-graph limits (7! identifier tuples, one labeling
    each) but has 2**21 edge sets; listing them ran out of memory in a
    traceback with exit 1.  Under a 1 GiB address space the refusal must
    come first, in one error line with exit 3."""
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    argv = ["derandomize", "--problem", "mis", "--n", "7", "--T", "0"]
    done = subprocess.run(
        [sys.executable, "-m", "derandlab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SOURCE),
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=cap_memory,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        3,
        "",
        "error: the family of n=7 has more than 1048576 edge sets, "
        "too many to enumerate\n",
    )


def test_derandomize_refuses_a_huge_identifier_space_before_its_bound():
    """The closed-form family bound counts n ** (c * n) identifier maps; at
    c = 10**7 computing it takes longer than the size check that refuses the
    family, so the check must come first, as it does for ``certify``."""
    argv = ["derandomize", "--problem", "mis", "--n", "3", "--T", "1", "--c", "10000000"]
    script = "import sys; from derandlab.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=dict(os.environ, PYTHONPATH=SOURCE),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert done.returncode == 3
    assert done.stderr.endswith("too many to enumerate\n")


class TestDerandomize:
    def test_mis_n3_succeeds(self, tmp_path):
        table = tmp_path / "table.json"
        report = tmp_path / "report.json"
        code = run(
            [
                "derandomize",
                "--problem",
                "mis",
                "--n",
                "3",
                "--T",
                "2",
                "--out-table",
                str(table),
                "--out-report",
                str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["found"] is True
        assert payload["verified_count"] == 48
        assert payload["family_size"] == 48
        assert payload["manifest"]["subcommand"] == "derandomize"
        assert table.exists()

    def test_outputs_go_into_missing_directories(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DERANDLAB_OUT_DIR", str(tmp_path))
        argv = ["derandomize", "--problem", "mis", "--n", "2", "--T", "1"]
        outputs = ["--out-report", "nested/r.json", "--out-table", "nested2/t.json"]
        assert run(argv + outputs) == 0
        assert json.loads((tmp_path / "nested" / "r.json").read_text())["found"] is True
        text = (tmp_path / "nested2" / "t.json").read_text()
        # the bytes of save_table
        saved = tmp_path / "saved.json"
        save_table(load_table(tmp_path / "nested2" / "t.json"), saved)
        assert text == saved.read_text()

    def test_two_coloring_n3_unsat_with_witness(self, tmp_path):
        report = tmp_path / "report.json"
        code = run(
            [
                "derandomize",
                "--problem",
                "coloring:2",
                "--n",
                "3",
                "--T",
                "2",
                "--out-report",
                str(report),
            ]
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["found"] is False
        assert payload["unsat_witness"]["edges"] == [[0, 1], [0, 2], [1, 2]]

    def test_stderr_summarizes_the_search(self, capsys):
        assert run(["derandomize", "--problem", "mis", "--n", "3", "--T", "1"]) == 0
        err = capsys.readouterr().err
        assert (
            "search: 21 views / 21 constraints / 67 placements / 10 conflicts / "
            "62 checks / 31 predicate_calls"
        ) in err

    def test_stderr_times_each_phase(self, capsys):
        for argv, code in (
            (["--problem", "mis", "--n", "3", "--T", "1"], 0),  # found
            (["--problem", "coloring:2", "--n", "3", "--T", "1"], 1),  # witness
            (["--problem", "mis", "--n", "3", "--T", "0"], 1),  # exhausted
        ):
            assert run(["derandomize", *argv]) == code
            lines = capsys.readouterr().err.splitlines()
            phases = [line for line in lines if line.startswith("phases: ")]
            assert len(phases) == 1
            assert re.fullmatch(
                r"phases: enumerate \d+\.\d{3} s / compile \d+\.\d{3} s / "
                r"search \d+\.\d{3} s / verify \d+\.\d{3} s",
                phases[0],
            )

    def test_missing_radius_exits_3(self):
        with pytest.raises(SystemExit) as err:
            run(["derandomize", "--problem", "mis", "--n", "3"])
        assert err.value.code == 3

    def test_a_search_over_its_budget_exits_bad_input(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["derandomize", "--problem", "mis", "--n", "3", "--T", "2", "--budget", "1"]
        capsys.readouterr()
        assert run(argv + ["--out-report", str(report)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: table search exceeded its budget of 1 placements\n"
        assert not report.exists()

    def test_a_malformed_problem_file_exits_bad_input(self, tmp_path, capsys):
        problem = tmp_path / "problem.json"
        for allowed, error in [
            (
                [{"center": "A", "neighbors_condition": {"forbid": 5}}],
                "forbid must be a list, not 5",
            ),
            (["A"], "bad allowed entry: 'A'"),
            (
                [{"center": "A", "neighbors_condition": {"avoid": ["A"]}}],
                "bad neighbors_condition: {'avoid': ['A']}",
            ),
            (
                [{"center": "A", "neighbors_condition": {"forbid": ["C"]}}],
                "label 'C' outside alphabet",
            ),
        ]:
            problem.write_text(json.dumps({
                "name": "p", "radius": 1, "output_alphabet": ["A", "B"], "kind": "table",
                "allowed": allowed,
            }))
            capsys.readouterr()
            assert run(["derandomize", "--problem", str(problem), "--n", "2", "--T", "1"]) == 3
            assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize(
        "option, error",
        [
            (["--T", "-1"], "error: radius must be nonnegative"),
            (["--T", "1", "--budget", "0"], "error: budget must be positive"),
            (["--T", "1", "--problem", "coloring:0"], "error: need at least one color"),
            (
                ["--T", "1", "--input-alphabet", ","],
                "derandlab derandomize: error: argument --input-alphabet: "
                "alphabet must name at least one label",
            ),
        ],
        ids=["radius", "budget", "colors", "input-alphabet"],
    )
    def test_an_out_of_range_option_exits_bad_input(self, capsys, option, error):
        # argparse exits itself on a value its type rejects, after a usage line
        try:
            code = run(["derandomize", "--problem", "mis", "--n", "2"] + option)
        except SystemExit as exc:
            code = exc.code
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [error]

    def test_rerunning_a_manifest_reproduces_all_non_timing_fields(self, tmp_path):
        report = tmp_path / "report.json"
        argv = [
            "derandomize",
            "--problem",
            "mis",
            "--n",
            "2",
            "--T",
            "1",
            "--out-report",
            str(report),
        ]
        texts = []
        for _ in range(2):
            assert run(argv) == 0
            texts.append(report.read_text())
        # byte-identical apart from the single timing line
        stripped = [
            [line for line in text.splitlines() if "wall_time_s" not in line]
            for text in texts
        ]
        assert stripped[0] == stripped[1]
        payloads = [json.loads(text) for text in texts]
        for payload in payloads:
            payload.pop("timing")
        assert payloads[0] == payloads[1]


class TestCertify:
    def test_exact_mode_emits_certificate_and_assignment(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--problem",
                "coloring:2",
                "--n",
                "2",
                "--mode",
                "exact",
                "--bits",
                "1",
                "--find-f",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["failure_probs"] == ["0", "0", "1/2", "1/2"]
        assert payload["certificate"]["total"] == "1"
        assert payload["good_f"] == {"1": [0], "2": [1]}

    def test_exact_certificate_sums_each_distinct_input_once(self, tmp_path):
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program",
            "first-bit", "--bits", "1", "--out", str(out),
        ]
        assert run(argv) == 0
        certificate = json.loads(out.read_text())["certificate"]
        # the four instances are two inputs, each listed once per renaming;
        # total and verdict stay those of the whole family
        assert certificate["failure_probs"] == ["0", "0", "1/2", "1/2"]
        assert (certificate["total"], certificate["verdict"]) == ("1", False)
        assert certificate["family_size"] == 4
        assert certificate["distinct_inputs"] == 2
        assert certificate["distinct_total"] == "1/2"

    @pytest.mark.parametrize(
        "n, c", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2)]
    )
    def test_exact_total_is_the_sum_over_every_copy(self, tmp_path, n, c):
        """``total`` adds each distinct input's probability once per copy,
        which must give the plain sum of the listed per-copy probabilities.
        (The n=4 family at c=2 lists 2,795,520 instances; it is left out.)"""
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", str(n), "--c", str(c),
            "--program", "first-bit", "--bits", "1", "--out", str(out),
        ]
        assert run(argv) == 0
        certificate = json.loads(out.read_text())["certificate"]
        probs = [Fraction(p) for p in certificate["failure_probs"]]
        assert len(probs) == certificate["family_size"]
        assert certificate["total"] == str(sum(probs, Fraction(0)))
        assert len(set(probs)) > 1 or n == 1

    def test_distinct_fields_are_exact_mode_only(self, tmp_path):
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--mode", "mc",
            "--trials", "10", "--seed", "1", "--out", str(out),
        ]
        assert run(argv) == 0
        certificate = json.loads(out.read_text())["certificate"]
        assert "distinct_inputs" not in certificate
        assert "distinct_total" not in certificate

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_runs_are_told_the_claimed_size(self, tmp_path, mode):
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:3", "--n", "3", "--program", "two-bit",
            "--mode", mode, "--bits", "2", "--trials", "20", "--seed", "7",
            "--out", str(out),
        ]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["claimed_n"] == payload["certificate"]["claimed_size"] == 2**9

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_every_pass_runs_at_the_claimed_size(self, tmp_path, monkeypatch, mode):
        # told 16 nodes, the program colors the n=2 family by identifier parity
        monkeypatch.setitem(RANDOMIZED_BUILTINS, "claimed-size", claimed_size_program)
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program",
            "claimed-size", "--mode", mode, "--bits", "1", "--trials", "50",
            "--seed", "3", "--find-f", "--out", str(out),
        ]
        assert run(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["claimed_n"] == 16
        assert payload["certificate"]["failure_probs"] == ["0", "0", "0", "0"]
        assert payload["good_f"] == {"1": [0], "2": [0]}

    def test_bit_free_correct_program_certifies_true(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            [
                "certify",
                "--problem",
                "coloring:2",
                "--n",
                "2",
                "--program",
                "id-parity",
                "--mode",
                "exact",
                "--bits",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["certificate"]["total"] == "0"
        assert payload["certificate"]["verdict"] is True

    def test_mc_mode_claims_no_verdict(self, tmp_path, capsys):
        # the estimated total is below one, yet the exact total is 1
        out = tmp_path / "mc.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program", "first-bit",
            "--mode", "mc", "--trials", "10000", "--seed", "7", "--out", str(out),
        ]
        capsys.readouterr()
        assert run(argv) == 0
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["total"] == "9887/10000"
        assert certificate["verdict"] is None
        assert len(certificate["failure_probs"]) == 4
        err = capsys.readouterr().err
        assert err == (
            "certificate total 9887/10000 over 4 instances is a Monte-Carlo "
            "estimate; no verdict\n"
        )

    def test_reads_past_the_bit_budget_exit_bad_input(self, capsys):
        # two-bit reads two bits per node, over a budget of one
        argv = [
            "certify", "--problem", "coloring:3", "--n", "3", "--program", "two-bit",
            "--bits", "1",
        ]
        capsys.readouterr()
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bit budget exceeded: recorded stream holds 1 bits\n"
        )

    def test_an_assignment_space_over_the_budget_exits_bad_input(self, capsys):
        # (2**12)**2 candidate assignments, over the search budget of 2**22
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program", "first-bit",
            "--mode", "mc", "--seed", "1", "--trials", "10", "--bits", "12", "--find-f",
        ]
        capsys.readouterr()
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: assignment space holds 16777216 candidates, over the budget "
            "4194304\n"
        )

    def test_an_assignment_space_far_over_the_budget_is_never_counted(self, capsys):
        # (2**8000)**2 candidates: the count is written as a power of two
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program", "first-bit",
            "--bits", "8000", "--find-f",
        ]
        capsys.readouterr()
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: assignment space holds 2^16000 candidates, over the budget 4194304\n"
        )

    def test_a_negative_bit_budget_exits_bad_input_before_any_run(
        self, capsys, monkeypatch
    ):
        # every run, and every step of the exact evaluator, steps the program
        runs = []
        real = RANDOMIZED_BUILTINS["first-bit"]

        def counted(alphabet):
            program = real(alphabet)
            step = program.step
            return dataclasses.replace(
                program, step=lambda ctx: runs.append(1) or step(ctx)
            )

        monkeypatch.setitem(RANDOMIZED_BUILTINS, "first-bit", counted)
        base = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program", "first-bit",
        ]
        for mode in (
            ["--mode", "mc", "--seed", "1", "--trials", "10", "--find-f"],
            ["--mode", "mc", "--seed", "1", "--trials", "10"],
            ["--mode", "exact"],
        ):
            argv = base + mode + ["--bits"]
            capsys.readouterr()
            assert run(argv + ["-1"]) == 3, mode
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bit budget must be nonnegative\n"
            assert runs == []
        # the same call with a valid budget does run the program
        assert run(argv + ["1"]) == 0
        assert runs

    def test_exact_mode_walks_only_the_bits_read(self, tmp_path):
        # first-bit reads one bit per node, so a 24-bit budget costs nothing
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:2", "--n", "2", "--program", "first-bit",
            "--bits", "24", "--out", str(out),
        ]
        assert run(argv) == 0
        certificate = json.loads(out.read_text())["certificate"]
        assert certificate["failure_probs"] == ["0", "0", "1/2", "1/2"]

    def test_mc_mode_requires_seed(self, tmp_path):
        code = run(
            ["certify", "--problem", "coloring:2", "--n", "2", "--mode", "mc"]
        )
        assert code == 3

    @pytest.fixture()
    def compiled(self, monkeypatch):
        """The instances whose checks are compiled, in order."""
        seen = []
        real = problems._instance_checks

        def counting(problem, instance, shared):
            seen.append(instance)
            return real(problem, instance, shared)

        monkeypatch.setattr(problems, "_instance_checks", counting)
        return seen

    def test_mc_mode_checks_the_seed_before_compiling(self, compiled, capsys):
        argv = [
            "certify", "--problem", "coloring:2", "--n", "3", "--mode", "mc",
            "--find-f",
        ]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: --seed is required in mc mode\n"
        assert compiled == []

    def test_mc_mode_checks_the_trials_before_compiling(self, compiled, capsys):
        argv = [
            "certify", "--problem", "coloring:2", "--n", "3", "--mode", "mc",
            "--seed", "1", "--trials", "0", "--find-f",
        ]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: need at least one trial\n"
        assert compiled == []

    @pytest.mark.parametrize("find_f", [["--find-f"], []], ids=["find-f", "lazy"])
    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_certify_compiles_the_family_once(self, tmp_path, compiled, mode, find_f):
        argv = [
            "certify", "--problem", "coloring:2", "--n", "3", "--program",
            "first-bit", "--mode", mode, "--bits", "1", "--trials", "20",
            "--seed", "1", *find_f, "--out", str(tmp_path / "cert.json"),
        ]
        assert run(argv) == 0
        # every mode compiles each of the 8 distinct inputs once: the 48
        # copies' Monte-Carlo trials use their first copies' checks, and
        # --find-f shares them
        assert len(compiled) == 8

    @pytest.mark.parametrize("find_f", [False, True], ids=["plain", "find-f"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_certify_runs_on_first_copies(self, tmp_path, monkeypatch, n, find_f):
        """A Monte-Carlo payload, whose trials run each copy on its first
        copy's checks, is the one built from one compiled check per listed
        instance; and no mode of ``certify`` lists the family."""
        spec = InstanceFamilySpec(n=n)
        problem = problem_by_name("coloring:3")
        program = RANDOMIZED_BUILTINS["two-bit"](problem.output_alphabet)
        claimed_n = lift_to_claimed_size(spec).claimed_size
        per_copy = compile_checks(problem, enumerate_instances(spec))
        estimates = estimate_success_mc(
            program, per_copy, trials=20, seed="5", claimed_n=claimed_n
        )
        certificate = certify_good_f(
            [e.failure for e in estimates], claimed_n, estimated=True
        )
        expected = {
            "mode": "mc",
            "claimed_n": claimed_n,
            "stderr": [e.stderr for e in estimates],
            "certificate": certificate.to_jsonable(),
        }
        if find_f:
            found = search_good_f(program, per_copy, 2, claimed_n)
            expected["good_f"] = (
                {str(k): list(v) for k, v in sorted(found.vectors.items())}
                if found is not None
                else None
            )

        def refuse(spec):
            raise AssertionError("certify listed the family")

        monkeypatch.setattr(cli, "enumerate_instances", refuse)
        monkeypatch.setattr(graphs, "enumerate_instances", refuse)
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--problem", "coloring:3", "--n", str(n), "--program",
            "two-bit", "--bits", "2", "--trials", "20", "--seed", "5",
            *["--find-f"] * find_f, "--out", str(out),
        ]
        assert run(argv + ["--mode", "mc"]) == 0
        payload = json.loads(out.read_text())
        del payload["manifest"]
        assert payload == json.loads(json.dumps(expected))
        assert run(argv + ["--mode", "exact"]) == 0

    @pytest.mark.parametrize(
        "spec, flags, problem, program, bits",
        [
            (InstanceFamilySpec(n=2, c=2), ["--c", "2"], "coloring:2", "first-bit", 1),
            (
                InstanceFamilySpec(n=2, c=2, max_degree=0),
                ["--c", "2", "--max-degree", "0"],
                "mis",
                "first-bit",
                1,
            ),
            (
                InstanceFamilySpec(n=3, max_degree=0),
                ["--max-degree", "0"],
                "mis",
                "first-bit",
                1,
            ),
            (
                InstanceFamilySpec(n=2, input_alphabet=("a", "b")),
                ["--input-alphabet", "a,b"],
                "coloring:3",
                "two-bit",
                2,
            ),
        ],
        ids=["c2", "c2-max-degree-0", "max-degree-0", "two-input-labels"],
    )
    def test_find_f_searches_the_whole_identifier_space(
        self, tmp_path, spec, flags, problem, program, bits
    ):
        """The search reads its identifiers from the first copies' checks; the
        empty graph passes every degree bound and its first copies are all
        increasing identifier tuples, so they cover the family's identifier
        space, and the first good assignment over that space on every
        instance is the one found."""
        out = tmp_path / "cert.json"
        argv = [
            "certify", "--n", str(spec.n), *flags, "--problem", problem,
            "--program", program, "--bits", str(bits), "--find-f", "--out", str(out),
        ]
        assert run(argv) == 0
        spec_problem = problem_by_name(problem)
        fixed = RANDOMIZED_BUILTINS[program](spec_problem.output_alphabet)
        checks = compile_checks(spec_problem, enumerate_instances(spec))
        claimed_n = lift_to_claimed_size(spec).claimed_size
        expected = next(
            (
                {str(k): list(v) for k, v in sorted(f.vectors.items())}
                for f in iter_bounded_assignments(spec.id_space, bits)
                if assignment_is_good(fixed, f, checks, claimed_n)[0]
            ),
            None,
        )
        assert json.loads(out.read_text())["good_f"] == expected

    def test_mc_mode_replays(self, tmp_path):
        outs = [tmp_path / "c1.json", tmp_path / "c2.json"]
        for out in outs:
            code = run(
                [
                    "certify",
                    "--problem",
                    "coloring:2",
                    "--n",
                    "2",
                    "--mode",
                    "mc",
                    "--trials",
                    "500",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        payloads = [json.loads(p.read_text()) for p in outs]
        for payload in payloads:
            payload["manifest"]["parameters"].pop("out")
        assert payloads[0] == payloads[1]


class TestVerifyAndSimulate:
    @pytest.fixture()
    def mis_table(self, tmp_path):
        table = tmp_path / "table.json"
        assert (
            run(
                [
                    "derandomize",
                    "--problem",
                    "mis",
                    "--n",
                    "3",
                    "--T",
                    "2",
                    "--out-table",
                    str(table),
                ]
            )
            == 0
        )
        return table

    def test_fresh_table_verifies_fully(self, mis_table):
        code = run(["verify", "--problem", "mis", "--table", str(mis_table), "--n", "3"])
        assert code == 0

    def test_tampered_table_fails_with_witness(self, mis_table, tmp_path, capsys):
        payload = json.loads(mis_table.read_text())
        entry = payload["entries"][0]
        entry["out"] = "OUT" if entry["out"] == "IN" else "IN"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        code = run(["verify", "--problem", "mis", "--table", str(tampered), "--n", "3"])
        assert code == 2
        assert "witness" in capsys.readouterr().err

    def test_simulate_table_dumps_outputs(self, mis_table, tmp_path):
        out = tmp_path / "runs.jsonl"
        code = run(
            ["simulate", "--table", str(mis_table), "--n", "3", "--out", str(out)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 48
        assert set(rows[0]["outputs"]) == {"0", "1", "2"}

    def test_simulate_program_with_trace(self, tmp_path, capsys):
        code = run(["simulate", "--program", "parity", "--n", "2", "--trace"])
        assert code == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[0]["rounds"] == 0
        assert rows[0]["trace"] == [[0, 0]]

    def test_needs_family_or_instances(self, mis_table, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--problem", "mis", "--table", str(mis_table)])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "error: one of the arguments --n --instances is required" in err

    @pytest.mark.parametrize("subcommand", ["verify", "simulate", "connected-run"])
    def test_rejects_family_and_instances_together(
        self, mis_table, tmp_path, capsys, subcommand
    ):
        # an empty file would otherwise pass as "verified 0/0"
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        problem = [] if subcommand == "simulate" else ["--problem", "mis"]
        argv = [
            subcommand, *problem, "--table", str(mis_table), "--n", "2",
            "--instances", str(empty),
        ]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "error: argument --instances: not allowed with argument --n" in err

    @pytest.mark.parametrize(
        "option", [["--trace"], ["--claimed-n", "5"]], ids=["trace", "claimed-n"]
    )
    def test_simulate_table_rejects_program_options(self, mis_table, tmp_path, capsys, option):
        out = tmp_path / "runs.jsonl"
        argv = ["simulate", "--table", str(mis_table), "--n", "2", *option, "--out", str(out)]
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            "error: --trace and --claimed-n apply to --program runs, not --table\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("option", [[], ["--trace"]], ids=["plain", "trace"])
    def test_simulate_takes_an_empty_table_name_as_a_table(
        self, tmp_path, capsys, monkeypatch, option
    ):
        # "" names a file (here the working directory), not a --program run
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DERANDLAB_OUT_DIR", raising=False)
        out = tmp_path / "runs.jsonl"
        assert run(["simulate", "--table", "", "--n", "2", *option, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if option:
            assert err == "error: --trace and --claimed-n apply to --program runs, not --table\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["verify", "simulate", "connected-run"])
    @pytest.mark.parametrize(
        "option",
        [["--c", "5"], ["--input-alphabet", "q"], ["--max-degree", "0"]],
        ids=["c", "input-alphabet", "max-degree"],
    )
    def test_instances_reject_family_options(
        self, mis_table, tmp_path, capsys, subcommand, option
    ):
        # a file fixes its own identifiers, inputs and degrees; the option
        # would otherwise be ignored, as in "verified 48/48"
        fam = tmp_path / "fam.jsonl"
        assert run(["enumerate", "--n", "3", "--out", str(fam)]) == 0
        problem = [] if subcommand == "simulate" else ["--problem", "mis"]
        out = tmp_path / "out.json"
        argv = [
            subcommand, *problem, "--table", str(mis_table), "--instances", str(fam),
            *option, "--out", str(out),
        ]
        capsys.readouterr()
        assert run(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {option[0]}: family options apply to --n, not --instances\n"
        )
        assert not out.exists()

    def test_instances_manifest_records_the_family_defaults(self, mis_table, tmp_path):
        fam = tmp_path / "fam.jsonl"
        assert run(["enumerate", "--n", "3", "--out", str(fam)]) == 0
        out = tmp_path / "verify.json"
        argv = [
            "verify", "--problem", "mis", "--table", str(mis_table), "--instances", str(fam),
            "--out", str(out),
        ]
        assert run(argv) == 0
        params = json.loads(out.read_text())["manifest"]["parameters"]
        assert (params["c"], params["input_alphabet"], params["max_degree"]) == (1, ["x"], None)

    def test_instances_file_input(self, mis_table, tmp_path):
        fam = tmp_path / "fam.jsonl"
        assert run(["enumerate", "--n", "3", "--out", str(fam)]) == 0
        code = run(
            [
                "verify",
                "--problem",
                "mis",
                "--table",
                str(mis_table),
                "--instances",
                str(fam),
            ]
        )
        assert code == 0


class TestConnectedRun:
    def test_path_instances_report_brute_force(self, tmp_path):
        table = tmp_path / "t.json"
        assert (
            run(
                [
                    "derandomize",
                    "--problem",
                    "mis",
                    "--n",
                    "3",
                    "--T",
                    "1",
                    "--out-table",
                    str(table),
                ]
            )
            == 0
        )
        out = tmp_path / "runs.json"
        code = run(
            [
                "connected-run",
                "--problem",
                "mis",
                "--table",
                str(table),
                "--n",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == 0
        assert len(payload["runs"]) == 24  # connected instances only
        assert {row["path"] for row in payload["runs"]} == {"brute-force"}
        assert {row["rounds_charged"] for row in payload["runs"]} == {4}

    def test_an_unsolvable_covered_instance_exits_unsat(self, tmp_path, capsys):
        # the triangle is seen whole at exploration radius 2 and has no
        # 2-coloring, so no table can be valid on it
        table = tmp_path / "t.json"
        argv = ["derandomize", "--problem", "coloring:2", "--n", "2", "--T", "1"]
        assert run(argv + ["--out-table", str(table)]) == 0
        out = tmp_path / "runs.json"
        capsys.readouterr()
        argv = ["connected-run", "--problem", "coloring:2", "--table", str(table), "--n", "3"]
        assert run(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: instance 42: coloring-2 has no valid labeling on this instance\n"
        )
        assert not out.exists()

    def test_unknown_problem_file_exits_3(self, tmp_path):
        assert (
            run(
                [
                    "connected-run",
                    "--problem",
                    str(tmp_path / "missing.json"),
                    "--table",
                    str(tmp_path / "missing-table.json"),
                    "--n",
                    "2",
                ]
            )
            == 3
        )


class TestTableFileErrors:
    """Malformed table files exit 3 with one stderr line; a table that lacks
    a view exits 2."""

    @pytest.fixture()
    def mis_table(self, tmp_path):
        table = tmp_path / "mis.json"
        argv = ["derandomize", "--problem", "mis", "--n", "2", "--T", "1"]
        assert run(argv + ["--out-table", str(table)]) == 0
        return table

    def bad_input(self, argv, capsys) -> None:
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_verify_rejects_a_foreign_alphabet(self, mis_table, capsys):
        argv = ["verify", "--problem", "coloring:4", "--table", str(mis_table), "--n", "2"]
        self.bad_input(argv, capsys)

    def test_simulate_rejects_a_missing_key(self, tmp_path, capsys):
        table = tmp_path / "partial.json"
        table.write_text('{"T": 1}')
        self.bad_input(["simulate", "--table", str(table), "--n", "2"], capsys)

    def test_connected_run_rejects_invalid_json_and_wrong_types(self, tmp_path, capsys):
        table = tmp_path / "broken.json"
        for text in ("{not json", '{"T": "1", "output_alphabet": ["IN", "OUT"], "entries": []}'):
            table.write_text(text)
            argv = ["connected-run", "--problem", "mis", "--table", str(table), "--n", "2"]
            self.bad_input(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--problem", "mis"], ["simulate"]],
        ids=lambda argv: argv[0],
    )
    def test_duplicate_output_labels_are_rejected(self, mis_table, tmp_path, capsys, argv):
        # a problem file with duplicate labels exits 3; so does a table file
        obj = json.loads(mis_table.read_text())
        obj["output_alphabet"] = ["IN", "IN", "OUT"]
        table = tmp_path / "dup.json"
        table.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(argv + ["--table", str(table), "--n", "2"]) == 3
        assert capsys.readouterr().err == (
            "error: malformed table: output alphabet has duplicate labels\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--problem", "mis"], ["simulate"]],
        ids=lambda argv: argv[0],
    )
    def test_duplicate_keys_are_rejected(self, mis_table, tmp_path, capsys, argv):
        obj = json.loads(mis_table.read_text())
        obj["entries"].append(dict(obj["entries"][0]))
        table = tmp_path / "dup.json"
        table.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(argv + ["--table", str(table), "--n", "2"]) == 3
        assert capsys.readouterr().err == "error: malformed table: duplicate key in table\n"

    def test_a_problem_file_with_duplicate_output_labels_is_rejected(
        self, mis_table, tmp_path, capsys
    ):
        problem = tmp_path / "dup-problem.json"
        problem.write_text(
            json.dumps(
                {"kind": "mis-like", "name": "mis", "output_alphabet": ["A", "A"], "radius": 1}
            )
        )
        capsys.readouterr()
        argv = ["verify", "--problem", str(problem), "--table", str(mis_table), "--n", "2"]
        assert run(argv) == 3
        assert capsys.readouterr().err == "error: output alphabet has duplicate labels\n"

    def test_connected_run_incomplete_table_exits_2(self, tmp_path, capsys):
        # a radius-0 table for three nodes has no entry for identifier 4, and
        # the 4-node path takes the table path
        table = tmp_path / "c3.json"
        argv = ["derandomize", "--problem", "coloring:3", "--n", "3", "--T", "0"]
        assert run(argv + ["--out-table", str(table)]) == 0
        capsys.readouterr()
        argv = ["connected-run", "--problem", "coloring:3", "--table", str(table), "--n", "4"]
        assert run(argv) == 2
        assert "incomplete table" in capsys.readouterr().err

    def test_simulate_incomplete_table_exits_2(self, mis_table, capsys):
        # a table made for two nodes has no entry for the views of three
        capsys.readouterr()
        assert run(["simulate", "--table", str(mis_table), "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: incomplete table: no entry for key ")
        assert captured.err.count("\n") == 1


class TestInstanceFileErrors:
    """A malformed instance line exits 3 with one stderr line naming it."""

    BAD_LINES = [
        ('{"n": 2}', "missing the key 'edges'"),
        (
            '{"c": 1, "edges": [], "ids": {"0": 0}, "inputs": {"0": "x"}, "n": 1}',
            "malformed instance: identifiers must be positive",
        ),
        (
            '{"c": 0, "edges": [], "ids": {"0": 1}, "inputs": {"0": "x"}, "n": 1}',
            "malformed instance: identifier exponent must be >= 1",
        ),
    ]

    def bad_line(self, argv, tmp_path, capsys) -> None:
        instances = tmp_path / "bad.jsonl"
        for line, error in self.BAD_LINES:
            instances.write_text(line + "\n")
            capsys.readouterr()
            assert run(argv + ["--instances", str(instances)]) == 3
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: instance line 1: {error}"]

    def test_simulate(self, tmp_path, capsys):
        self.bad_line(["simulate", "--program", "parity"], tmp_path, capsys)

    def test_verify(self, tmp_path, capsys):
        table = tmp_path / "mis.json"
        argv = ["derandomize", "--problem", "mis", "--n", "2", "--T", "1"]
        assert run(argv + ["--out-table", str(table)]) == 0
        self.bad_line(["verify", "--problem", "mis", "--table", str(table)], tmp_path, capsys)


class TestParser:
    """One parser serves every call that sees the same built-in names."""

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(["enumerate", "--n", "1", "--out", str(tmp_path / "one.jsonl")]) == 0
        assert builds == [1]

    def test_a_builtin_added_between_calls_is_parsed(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "runs.jsonl"
        argv = ["simulate", "--program", "renamed-parity", "--n", "2", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 3
        assert "invalid choice: 'renamed-parity'" in capsys.readouterr().err
        monkeypatch.setitem(DETERMINISTIC_BUILTINS, "renamed-parity", parity_program)
        assert run(argv) == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["simulate", "--help"],
            ["certify", "--help"],
            ["simulate", "--table", "t.json", "--program", "parity"],
            ["verify", "--problem", "mis"],
            ["no-such-subcommand"],
        ],
    )
    def test_a_cached_parser_prints_what_a_fresh_one_does(self, argv, capsys):
        outcomes = []
        for parse in (cli.build_parser().parse_args, run, run):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            outcomes.append((exc.value.code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] in (0, 3)
