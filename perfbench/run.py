"""Benchmark of the idcodes commands on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The operations run in a separate worker
process (worker.py) that imports idcodes from src/; this process measures
set-up time, checks every output with checks.py and prints one JSON object
as its last line of stdout. With --trace 0 it holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. The JSON is also
written to perfbench/results/, and a traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
from spans import self_times
from workloads import QUALITY_ROUNDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7  # fresh interpreters timed per run
CHILD_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 140  # leaves room for set-up and checks within 180 s

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import idcodes.cli\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from calibration import REFERENCE_S, calibrate\n"
    "print(seconds * REFERENCE_S / calibrate())\n"
    "print(idcodes.cli.__file__)\n"
)


def setup_samples() -> list[float]:
    """Seconds from a fresh interpreter to idcodes.cli imported, rescaled
    to the reference host speed, one per child."""
    out = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        seconds, where = res.stdout.split("\n")[:2]
        if Path(where).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"idcodes imported from {where}")
        out.append(float(seconds))
    return out


# ------------------------------------------------------------------ checks --

def check_record(ops_of_round, rec, workdir: Path, quality: list, edges: list) -> list[str]:
    """Check one operation's outputs; append its code sizes (and deleted
    edge counts) to `quality` and `edges`."""
    op = ops_of_round(rec["round"])[rec["index"]]
    g = op.graph

    def text(j, flag):
        return (workdir / f"op{rec['seq']}_c{j}{flag}").read_text(encoding="utf-8")

    problems = []
    exact_outputs = {}
    for j, cmd in enumerate(op.commands):
        stdout = rec["stdout"][j]
        if cmd.kind == "sparsify":
            p, size, deleted = checks.check_sparsify(
                g, cmd.variant, stdout, text(j, "--out-code"), text(j, "--out-deleted"))
            quality.append(size)
            edges.append(deleted)
        elif cmd.kind == "greedy":
            p, size = checks.check_greedy(g, stdout, text(j, "--out"))
            quality.append(size)
        else:
            exact_outputs[cmd.kind] = (stdout, text(j, "--out") if cmd.outputs else "")
            continue
        problems += p
    if exact_outputs:
        p, size = checks.check_exact(g, exact_outputs)
        quality.append(size)
        problems += p
    return problems


# ----------------------------------------------------------------- metrics --

PER_LAYER_TIMES = {
    "graphs.parse": "graphs.parse_s",
    "graphs.build": "graphs.build_s",
    "graphs.pack": "graphs.pack_s",
    "graphs.dist2_pairs": "graphs.dist2_pairs_s",
    "graphs.delete_edges": "graphs.delete_edges_s",
    "graphs.find_twins": "graphs.find_twins_s",
    "graphs.complement": "graphs.complement_s",
    "codes.verify": "codes.verify_s",
    "solvers.greedy_idcode": "solvers.greedy_idcode_s",
    "solvers.greedy_dominating": "solvers.greedy_dominating_s",
    "solvers.exact_idcode": "solvers.exact_idcode_s",
    "solvers.exact_dominating": "solvers.exact_dominating_s",
    "kernels.separator_counts": "kernels.separator_counts_s",
    "kernels.greedy_cover": "kernels.greedy_cover_s",
    "sparsify": "sparsify.self_s",
    "complement": "complement.self_s",
    "watching": "watching.self_s",
    "cli": "cli.self_s",
}
# metric -> (span name, counter on the span, or None to count the spans)
PER_LAYER_COUNTS = {
    "graphs.dist2_pairs": ("graphs.dist2_pairs", "items"),
    "codes.verify_calls": ("codes.verify", None),
    "solvers.greedy_picks": ("solvers.greedy_idcode", "picks"),
    "solvers.exact_idcode_nodes": ("solvers.exact_idcode", "nodes"),
    "solvers.exact_dominating_nodes": ("solvers.exact_dominating", "nodes"),
    "kernels.separator_counts_calls": ("kernels.separator_counts", None),
    "sparsify.rounds": ("sparsify", "rounds"),
    "sparsify.separation_failures": ("sparsify", "separation_failures"),
}


def per_layer_metrics(spans, records) -> dict:
    """Self time and counts per layer, per traced operation, plus the
    tracing overhead per operation. `records` are the completed operations."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    ops = len(traced)
    # rescale each span like the operation it belongs to (see calibration.py);
    # the root of every span is the "op" span that carries the operation's seq
    speed = {r["seq"]: r["scaled"] / r["seconds"] for r in records}
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[3] < 0 else root[s[3]])
    own = [t * speed.get(spans[root[i]][4]["seq"], 0.0) for i, t in enumerate(self_times(spans))]
    time_sum = dict.fromkeys(PER_LAYER_TIMES, 0.0)
    count_sum = dict.fromkeys(PER_LAYER_COUNTS, 0)
    for s, t in zip(spans, own):
        name, counts = s[0], s[4] or {}
        if name in time_sum:
            time_sum[name] += t
        for metric, (span_name, key) in PER_LAYER_COUNTS.items():
            if span_name == name:
                count_sum[metric] += 1 if key is None else counts[key]
    m = {}
    for span_name, metric in PER_LAYER_TIMES.items():
        m[metric] = (time_sum[span_name] / ops, "s/op")
    for metric, total in count_sum.items():
        m[metric] = (total / ops, "count/op")
    nodes = count_sum["solvers.exact_idcode_nodes"]
    m["solvers.exact_us_per_node"] = (
        1e6 * time_sum["solvers.exact_idcode"] / nodes if nodes else 0.0, "us")
    deleted = [s[4]["edges_deleted"] for s in spans if s[0] == "sparsify"]
    m["sparsify.edges_deleted_mean"] = (sum(deleted) / len(deleted) if deleted else 0.0, "edges")
    m["trace.overhead_s"] = (
        sum(r["scaled"] for r in traced) / ops - sum(r["scaled"] for r in plain) / len(plain),
        "s/op")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the idcodes commands.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "idcodes" / "cli.py").is_file():
        print(f"error: no idcodes sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    workdir.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    summary_path = workdir / "summary.json"
    trace_path = results / f"{args.workload}-s{args.seed}.spans.json"
    try:
        setup = [] if args.trace else setup_samples()
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workdir", str(workdir),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--summary", str(summary_path), "--trace-out", str(trace_path)],
            cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
        if worker.returncode != 0:
            print(f"error: the worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        records = summary["records"]

        rounds = {}

        def ops_of_round(r):
            if r not in rounds:
                rounds[r] = WORKLOADS[args.workload](args.seed, r)
            return rounds[r]

        failed = [r for r in records if r["error"] is not None or any(r["rc"])]
        done = [r for r in records if r["error"] is None and not any(r["rc"])]
        problems, quality, edges = [], [], []
        for rec in done:
            first = rec["round"] < QUALITY_ROUNDS and not rec["traced"]
            q, e = (quality, edges) if first else ([], [])
            try:
                found = check_record(ops_of_round, rec, workdir, q, e)
            except (OSError, ValueError) as exc:  # a missing or malformed output file
                found = [f"unreadable output: {exc}"]
            problems += [f"op {rec['seq']}: {p}" for p in found]
        for rec in failed:
            print(f"failed op {rec['seq']}: rc={rec['rc']} {rec['error'] or ''}", file=sys.stderr)
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [r["scaled"] for r in done]
    if args.trace:
        spans = json.loads(trace_path.read_text(encoding="utf-8"))
        spans = [[s["name"], s["start"], s["end"], s["parent"], s["counts"]] for s in spans]
        metrics = per_layer_metrics(spans, done)
    else:
        metrics = {
            "ops_per_s": (len(ok) / sum(ok), "1/s"),
            "op_p50_s": (statistics.median(ok), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
            "code_size_mean": (sum(quality) / len(quality), "vertices"),
        }
    info = {"ops": len(records), "rounds": summary["rounds"], "loop_s": summary["loop_s"],
            "wall_op_p50_s": statistics.median(r["seconds"] for r in done)}
    if edges:
        info["edges_deleted_mean"] = sum(edges) / len(edges)
    print(f"{args.workload}: " + json.dumps(info))
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (results / f"{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
