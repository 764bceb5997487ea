"""The benchmark's own tests.

    python3 -m pytest perfbench

Quick runs of every workload, checkers against corrupted answers, and a
check that measurement rounds start cold.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads
from run import Zygote

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench" / "tests"


@pytest.fixture
def scratch(request):
    path = SCRATCH / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_quick_run(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], proc.stderr
    ops = workloads.build(name, 3, quick=True).ops
    rounds, rest = divmod(result["attempted"], len(ops))
    assert rest == 0 and rounds >= (2 if trace == "1" else 1)
    assert result["failed"] == rounds * sum(1 for op in ops if op.known_failure)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)


def test_same_seed_same_inputs_and_answers():
    a, b = workloads.build("sets-solve", 5, quick=True), workloads.build("sets-solve", 5, quick=True)
    assert a.files == b.files and [op.argv for op in a.ops] == [op.argv for op in b.ops]
    assert workloads.build("sets-solve", 6, quick=True).files != a.files


def run_spectre(op, directory: Path) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import spectre.cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            assert spectre.cli.main(op.argv) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def answers(name, scratch):
    w = workloads.build(name, 1, quick=True)
    workloads.write_files(w, scratch)
    return [(op, run_spectre(op, scratch)) for op in w.ops if not op.known_failure]


def test_solve_checker_rejects_a_flipped_member(scratch):
    for op, stdout in answers("sets-solve", scratch):
        assert op.check(stdout) == [], op.label
        doc = json.loads(stdout)
        # every spectrum here is a set of positive sizes, so 0 is a non-member
        doc["solution"][0]["closed_form"] += " | {0}"
        assert op.check(json.dumps(doc)), op.label


def test_solve_checker_rejects_wrong_parameters(scratch):
    op, stdout = answers("sets-solve", scratch)[0]
    for key in ("m", "q", "p", "c"):
        doc = json.loads(stdout)
        doc["solution"][0][key] += 1
        assert op.check(json.dumps(doc)), key


def test_coeffs_checker_rejects_a_coefficient_off_by_one(scratch):
    for op, stdout in answers("series-coeffs", scratch):
        assert op.check(stdout) == [], op.label
        doc = ref.json_document(stdout)
        name = next(iter(doc["series"]))
        doc["series"][name][-1] = str(int(doc["series"][name][-1]) + 1)
        assert op.check(json.dumps(doc)), op.label


def test_frobenius_checker_rejects_a_wrong_conductor(scratch):
    for op, stdout in answers("closures", scratch):
        assert op.check(stdout) == [], op.label
        lines = stdout.splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("conductor: "))
        lines[i] = f"conductor: {int(lines[i].split()[1]) + 1}"
        assert op.check("\n".join(lines)), op.label


def test_references_agree_with_closed_formulas():
    assert ref.least_series(workloads.SERIES_FIXTURES["binary"][1], 30)[0] == ref.catalan_odd(30)
    assert ref.least_series(workloads.SERIES_FIXTURES["linear43"][1], 30)[0] == ref.linear43(30)
    for a, b in [(3, 5), (7, 11), (12, 25)]:
        r = ref.frobenius_reference((a, b))
        assert r["conductor"] == (a - 1) * (b - 1)
        assert len(r["gaps"]) == (a - 1) * (b - 1) // 2
    # Y = {1} | {1} + {2}*Y | {10000}: odd numbers, 10000 and what it generates
    spectra = ref.least_spectra(workloads.SET_FIXTURES["counterexample"][1], 20100)
    members = set(ref.bits(spectra[0]))
    assert {1, 3, 9999, 10000, 10001, 10002} <= members and 2 not in members


def test_rounds_start_cold(scratch):
    """Traced counts of one operation repeat exactly from round to round,
    while the same operation run a second time in one process is served
    by caches and makes fewer calls."""
    op = workloads.build("closures", 1, quick=True).ops[-1]
    (scratch / "ops.json").write_text(json.dumps([op.argv, op.argv]))
    with Zygote(ROOT, scratch) as zygote:
        first, later = (zygote.round(trace=True, spans=None) for _ in range(2))
    assert first["trace"]["calls"]["0"] == later["trace"]["calls"]["0"]
    assert first["trace"]["calls"]["1"] != first["trace"]["calls"]["0"]


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(ROOT / "perfbench", scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "closures", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
