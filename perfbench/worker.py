"""The measured process: one thread, one closed loop of operations.

Started by run.py in a fresh interpreter. It imports idcodes from the
checkout's src/, then runs whole rounds of operations until the time is
up, each operation calling `idcodes.cli.run_cli` in-process once per
command line. Command outputs go to files in the work directory; timings,
exit codes, stdout and the peak resident memory go to a JSON summary that
run.py checks afterwards, so the checks never run in this process.

In trace mode every operation of the first round runs twice, untraced and
then traced, and the round repeats until the time is up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import idcodes.cli

    if Path(idcodes.cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"idcodes was imported from {idcodes.cli.__file__}, not from {src}")
    return idcodes.cli


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    cli = _import_cli(args.src)
    from calibration import REFERENCE_S, calibrate
    from spans import Tracer
    from workloads import QUALITY_ROUNDS, WORKLOADS

    make_round = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    last_input = [None, None]  # graph, path: a graph shared by operations is written once
    records = []

    def run_op(r, i, op, traced):
        seq = len(records)
        if op.graph is not last_input[0]:
            last_input[1] = args.workdir / f"in{seq}.txt"
            last_input[1].write_text(op.graph.edge_list_text(), encoding="utf-8")
            last_input[0] = op.graph
        inpath = last_input[1]
        argvs = []
        for j, cmd in enumerate(op.commands):
            argv = cmd.argv + ["--in", str(inpath)]
            for flag in cmd.outputs:
                argv += [flag, str(args.workdir / f"op{seq}_c{j}{flag}")]
            argvs.append(argv)
        rcs, stdouts, error = [], [], None
        if traced:
            tracer.install()
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    if traced:
                        rc = tracer.call("cli", cli.run_cli, argv)
                    else:
                        rc = cli.run_cli(argv)
                rcs.append(rc)
                stdouts.append(out.getvalue())
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        if traced:
            tracer.end(root, {"seq": seq})
            tracer.uninstall()
        after = calibrate()
        speed = REFERENCE_S / ((calib[0] + after) / 2)
        calib[0] = after
        records.append(
            {"seq": seq, "round": r, "index": i, "traced": traced, "seconds": seconds,
             "scaled": seconds * speed, "rc": rcs, "stdout": stdouts, "error": error}
        )

    calib = [calibrate()]  # the calibration just before the next operation
    start = time.perf_counter()
    first = make_round(args.seed, 0) if tracer else None
    r = 0
    while True:
        if tracer:
            # the same operations each repeat; which twin runs first alternates
            for i, op in enumerate(first):
                for traced in (r % 2 == 1, r % 2 == 0):
                    run_op(0, i, op, traced)
        else:
            for i, op in enumerate(make_round(args.seed, r)):
                run_op(r, i, op, False)
        r += 1
        if r >= QUALITY_ROUNDS and time.perf_counter() - start >= args.seconds:
            break
    loop_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.write(args.trace_out)
    args.summary.write_text(
        json.dumps({"loop_s": loop_s, "rounds": r,
                    "peak_rss_mb": peak_kb / 1024.0, "records": records}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
