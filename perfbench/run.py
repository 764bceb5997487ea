"""Benchmark of spectre's command line on three seeded workloads.

    python3 perfbench/run.py --workload sets-solve --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Builds the workload's input files and
references from --seed, then repeats measurement rounds until --seconds
have passed.  Each round runs every operation of the workload once, in a
fresh fork of a process that has only imported spectre (see zygote.py).
End-to-end metrics use each operation's fastest round; --trace 1 runs
traced and untraced rounds in turn and reports the per-layer metrics
named in BENCHMARK.json instead.  The last line of standard output is the
result as JSON.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import spectre.cli; spectre.cli.build_parser()"
SETUP_EVERY_S = 3.0  # between two set-up samples
SETUP_SAMPLES = 5  # at least
ROUND_TIMEOUT_S = 120


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def setup_sample(root: Path) -> float:
    """Seconds from a fresh interpreter to spectre.cli imported and the
    parser built."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, check=True)
    return time.perf_counter() - start


class Zygote:
    """The fork server of zygote.py, stopped and waited for on exit."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        # its own process group, so a stuck round can be killed with it
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "zygote.py"), str(root), str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        if self._reply() != "ready":
            self.close()
            raise RuntimeError("the fork server did not start")

    def _reply(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], ROUND_TIMEOUT_S)
        if not ready:
            os.killpg(self.proc.pid, signal.SIGKILL)
            raise RuntimeError(f"no reply from the fork server in {ROUND_TIMEOUT_S} s")
        return self.proc.stdout.readline().strip()

    def round(self, trace: bool, spans: Path | None) -> dict:
        result = self.work / "round.json"
        request = {"result": str(result), "trace": trace,
                   "spans": str(spans) if spans else None}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if not reply or json.loads(reply)["status"] != 0:
            raise RuntimeError("a measurement round failed")
        return json.loads(result.read_text())

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Checker:
    """Checks every answer of a round; an answer already seen for an
    operation gets the verdict it got before."""

    def __init__(self, workload):
        self.ops = workload.ops
        self.verdicts: dict = {}

    def failures(self, result) -> list[tuple[str, list[str], bool]]:
        """(operation, problems, expected) for every operation that failed."""
        failures = []
        for i, (op, got) in enumerate(zip(self.ops, result["ops"])):
            key = (i, got["exit"], got["stdout"])
            if key not in self.verdicts:
                self.verdicts[key] = self._problems(op, got)
            if self.verdicts[key]:
                failures.append((op.label, self.verdicts[key], bool(op.known_failure)))
        return failures

    @staticmethod
    def _problems(op, got) -> list[str]:
        if got["exit"] != 0:
            return [f"exit {got['exit']}: {got['stderr'].strip()}"]
        try:
            return op.check(got["stdout"])
        except (ValueError, KeyError, TypeError) as e:
            return [f"unreadable output: {e!r}"]


def best_times(rounds) -> list[float]:
    return [min(r["ops"][i]["seconds"] for r in rounds) for i in range(len(rounds[0]["ops"]))]


def end_to_end(rounds, setup) -> dict:
    best = best_times(rounds)
    return {
        "total_s": {"value": sum(best), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(best) * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["maxrss_kb"] for r in rounds) / 1024,
                        "unit": "MB"},
    }


def per_layer(declared, plain, traced) -> tuple[dict, list[str]]:
    """The per-layer metrics of BENCHMARK.json from the traced rounds.

    Counts come from the first traced round and must repeat exactly in
    every later one.  Self times are the least over the traced rounds, as
    end-to-end times are the least over the untraced ones."""
    problems = []
    calls_by_round, self_by_round = [], []
    for r in traced:
        calls, self_s = {}, {}
        for op_calls in r["trace"]["calls"].values():
            for name, n in op_calls.items():
                calls[name] = calls.get(name, 0) + n
        for op_self in r["trace"]["self_s"].values():
            for name, s in op_self.items():
                self_s[name] = self_s.get(name, 0.0) + s
        calls_by_round.append(calls)
        self_by_round.append(self_s)
    if any(c != calls_by_round[0] for c in calls_by_round):
        problems.append("traced call counts differ between rounds")
    metrics = {}
    for m in declared:
        name = m["name"]
        if name == "trace_overhead_s":
            value = sum(best_times(traced)) - sum(best_times(plain))
        elif name.endswith(".calls"):
            value = calls_by_round[0].get(name[: -len(".calls")], 0)
        elif name.count(".") == 1:  # <module>.self_s
            module = name.split(".")[0] + "."
            value = min(sum((s for f, s in by.items() if f.startswith(module)), 0.0)
                        for by in self_by_round)
        else:  # <module>.<function>.self_s
            function = name[: -len(".self_s")]
            value = min(by.get(function, 0.0) for by in self_by_round)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def measure(root: Path, work: Path, workload, args, spans: Path | None) -> dict:
    """Rounds until args.seconds have passed, each checked as it ends."""
    checker = Checker(workload)
    m = {"plain": [], "traced": [], "round_s": [], "setup_s": [], "failed": 0,
         "unexpected": False}
    reported = set()
    deadline = time.perf_counter() + args.seconds
    next_setup = time.perf_counter()
    with Zygote(root, work) as zygote:
        while True:
            trace = bool(args.trace) and len(m["plain"]) > len(m["traced"])
            start = time.perf_counter()
            result = zygote.round(trace, spans if trace else None)
            m["round_s"].append(time.perf_counter() - start)
            m["traced" if trace else "plain"].append(result)
            for label, problems, expected in checker.failures(result):
                m["failed"] += 1
                m["unexpected"] |= not expected
                if label not in reported:
                    reported.add(label)
                    log(f"{label}: {'known failure: ' if expected else ''}{'; '.join(problems)}")
            if not args.trace and time.perf_counter() >= next_setup:
                m["setup_s"].append(setup_sample(root))
                next_setup += SETUP_EVERY_S
            if m["plain"] and (m["traced"] or not args.trace) and time.perf_counter() >= deadline:
                break
    while not args.trace and len(m["setup_s"]) < SETUP_SAMPLES:
        m["setup_s"].append(setup_sample(root))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "spectre" / "cli.py").is_file():
        log(f"no spectre sources under {root / 'src'}; run from the root of a checkout")
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    out = root / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}"
    work = out / f"work-{tag}-{os.getpid()}"
    spans = out / "traces" / f"{tag}.json" if args.trace else None

    started = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, quick=args.quick)
    log(f"{tag}: {len(workload.ops)} operations, inputs and references "
        f"in {time.perf_counter() - started:.2f} s")
    try:
        workloads.write_files(workload, work)
        (work / "ops.json").write_text(json.dumps([op.argv for op in workload.ops]))
        if spans:
            spans.parent.mkdir(parents=True, exist_ok=True)
        setup_sample(root)  # writes the bytecode caches
        m = measure(root, work, workload, args, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if args.trace:
        metrics, problems = per_layer(declared, m["plain"], m["traced"])
    else:
        metrics = end_to_end(m["plain"], m["setup_s"])
    for p in problems:
        log(p)
    rounds = len(m["plain"]) + len(m["traced"])
    result = {"correct": not m["unexpected"] and not problems,
              "attempted": rounds * len(workload.ops),
              "failed": m["failed"],
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  operations=[op.label for op in workload.ops],
                  best_s=best_times(m["plain"]), setup_samples_s=m["setup_s"],
                  round_s=m["round_s"])
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    log(f"{tag}: {rounds} rounds in {time.perf_counter() - started:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
