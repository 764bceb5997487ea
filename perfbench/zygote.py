"""Fork server for cold measurement rounds.

    python3 perfbench/zygote.py <checkout root> <work directory>

Imports spectre.cli from <checkout root>/src and runs nothing else.  Each
request line on stdin, {"result": path, "trace": bool, "spans": path or
null}, forks a child that runs every command of <work directory>/ops.json
once, in order, in process through spectre.cli.main, and writes the
timings, exit codes and captured output to `result`.  Every round thus
starts from the same state: nothing an earlier round computed (such as
an lru_cache entry) survives into it.  The server answers each request
with {"status": exit code of the child} and exits at end of input.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer


def run_round(cli, ops, trace: bool) -> tuple[dict, Tracer | None]:
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    results = []
    for i, argv in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code if isinstance(e.code, int) else 1
        seconds = time.perf_counter() - start
        results.append({"seconds": seconds, "exit": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    result = {"ops": results,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.summary() if tracer else None}
    return result, tracer


def child(cli, ops, request) -> None:
    # keep stray writes to fd 1 out of the reply channel
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    result, tracer = run_round(cli, ops, request["trace"])
    Path(request["result"]).write_text(json.dumps(result))
    if tracer and request.get("spans"):
        Path(request["spans"]).write_text(json.dumps(tracer.dump()))


def main() -> int:
    root, work = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    sys.path.insert(0, str(root / "src"))
    import spectre.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"spectre was imported from {cli.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    ops = json.loads((work / "ops.json").read_text())
    os.chdir(work)
    print("ready", flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            # the child reports any failure and never returns into this loop
            code = 1
            try:
                child(cli, ops, request)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": os.waitstatus_to_exitcode(status)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
