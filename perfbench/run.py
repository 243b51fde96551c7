"""stabscope benchmark: four closed-loop workloads, graded against truth.

    python3 perfbench/run.py --workload equiv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20            # all workloads

One workload per run prints readable lines and then, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 they are the per-layer ones, from a traced run of the same deck.
Without --workload every workload runs in turn and a table follows.

The program is imported from src/ next to this directory; the run stops with
exit code 2 and no result when it is missing.  See README.md for the
workloads, the metrics and what each per-layer metric should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import gen
import stats
from oracle import ERROR, OUTCOMES, RIGHT, WRONG
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Seconds one round of each workload takes at the seed commit on a 2-core
# box.  A run does round(seconds / ROUND_SECONDS) rounds, so every run of a
# workload does the same work and its medians compare like for like.
ROUND_SECONDS = {"screen": 2.6, "equiv": 3.0, "canon": 2.0, "density": 0.5}
# setup_s is the median of this many fresh-interpreter imports
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
IMPORT_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "right_frac": "ratio",
    "peak_rss_mb": "MB",
}


def rounds_for(workload: str, seconds: int, trace: int) -> int:
    budget = seconds / 2 if trace else seconds
    return max(1, round(budget / ROUND_SECONDS[workload]))


def program_env() -> dict:
    """The program's environment: src/ first on the path, one BLAS thread.

    On a shared 2-vCPU machine the default two BLAS threads spin against
    each other and the host; the same equiv seeds then spread 13.6-18.3
    req/s, against 16.2-19.0 req/s with one thread.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_worker(workload, seed, rounds, trace, work: Path) -> dict:
    out = work / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
        "--trace", str(trace), "--files", str(work / "states"), "--out", str(out),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.npz")]
    subprocess.run(cmd, check=True, timeout=WORKER_TIMEOUT_S, env=program_env(), cwd=ROOT)
    return json.loads(out.read_text())


def measure_setup() -> list:
    """Wall seconds for fresh interpreters to import stabscope.

    The parent blocks in waitpid: a wait with a timeout polls in steps of up
    to 50 ms and would round every figure up to that grid.  A timer kills a
    child that hangs instead.
    """
    env = program_env()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import stabscope"], env=env, cwd=ROOT)
        watchdog = threading.Timer(IMPORT_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"import stabscope exited with code {code}")
    return times


def source_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields[:8])


def summarize(rows, wall_s) -> dict:
    """End-to-end figures of one pass over a deck."""
    lat = [r["latency_s"] for r in rows]
    n = len(lat)
    count = Counter(r["outcome"] for r in rows)
    tail = stats.tail(lat)
    if tail is None:
        raise RuntimeError(f"{n} requests are too few for a tail percentile")
    return {
        "requests": n,
        "req_per_s": n / wall_s,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail[1] * 1e3,
        "tail_percentile": tail[0],
        "tail_beyond": tail[2],
        "right_frac": count[RIGHT] / n,
        "failed_frac": (n - count[RIGHT]) / n,
        "wrong_frac": count[WRONG] / n,
        "outcomes": {o: count[o] for o in OUTCOMES},
        "known_defect_wrong": sum(1 for r in rows if r["outcome"] == WRONG and r["known_defect"]),
    }


def per_kind(rows) -> dict:
    groups = defaultdict(list)
    for r in rows:
        groups[r["kind"]].append(r)
    return {
        kind: {
            "count": len(g),
            "p50_ms": statistics.median(r["latency_s"] for r in g) * 1e3,
            "total_ms": sum(r["latency_s"] for r in g) * 1e3,
            "outcomes": dict(Counter(r["outcome"] for r in g)),
        }
        for kind, g in groups.items()
    }


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    rounds = rounds_for(workload, seconds, trace)
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    before = cpu_ticks()
    try:
        work.mkdir(parents=True)
        res = run_worker(workload, seed, rounds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = cpu_ticks()
    # CPU time the hypervisor gave to others while the worker ran
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    rows = res["requests"] + res.get("traced_requests", [])
    unexpected = [r for r in rows if r["outcome"] == WRONG and not r["known_defect"]]
    errors = [r for r in rows if r["outcome"] == ERROR]
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "trace": trace,
        "env": {**res["env"], **source_stamp(), "steal_frac": steal},
        "summary": summarize(res["requests"], res["wall_s"]),
        "per_kind": per_kind(res["requests"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "correct": not unexpected and not errors,
        "attempted": len(rows),
        "failed": len(errors),
        "not_right": [r for r in rows if r["outcome"] != RIGHT][:50],
    }
    if trace:
        report["layers"] = res["layers"]
        report["spans"] = res["spans"]
        report["traced_summary"] = summarize(res["traced_requests"], res["traced_wall_s"])
    else:
        report["setup_runs_s"] = measure_setup()
        report["setup_s"] = statistics.median(report["setup_runs_s"])
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def metrics_of(report: dict) -> dict:
    if report["trace"]:
        return {name: {"value": report["layers"][name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}
    s = report["summary"]
    values = {
        "setup_s": report["setup_s"],
        "req_per_s": s["req_per_s"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_tail_ms": s["latency_tail_ms"],
        "right_frac": s["right_frac"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def print_report(report: dict) -> None:
    s = report["summary"]
    print(f"== {report['workload']}  seed {report['seed']}  rounds {report['rounds']}  "
          f"trace {report['trace']}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    if not report["trace"]:
        runs = ", ".join(f"{t:.3f}" for t in report["setup_runs_s"])
        print(f"  setup_s          {report['setup_s']:.4f} s  (median of {SETUP_REPEATS}: {runs})")
    print(f"  req_per_s        {s['req_per_s']:.4f} 1/s  ({s['requests']} requests)")
    print(f"  latency_p50_ms   {s['latency_p50_ms']:.3f} ms")
    print(f"  latency_tail_ms  {s['latency_tail_ms']:.3f} ms  (p{s['tail_percentile']:g} of "
          f"{s['requests']}, {s['tail_beyond']} samples beyond)")
    o = s["outcomes"]
    print(f"  failed_frac      {s['failed_frac']:.4f} ratio  (undecided {o['undecided']}, "
          f"flagged {o['flagged']}, wrong {o['wrong']}, error {o['error']})")
    print(f"  wrong_frac       {s['wrong_frac']:.4f} ratio  ({s['known_defect_wrong']} of them "
          "on documented known defects)")
    print(f"  right_frac       {s['right_frac']:.4f} ratio")
    print(f"  peak_rss_mb      {report['peak_rss_mb']:.1f} MB")
    for kind, k in sorted(report["per_kind"].items()):
        outcomes = " ".join(f"{o}={c}" for o, c in sorted(k["outcomes"].items()))
        print(f"    {kind:32s} n={k['count']:<4d} p50 {k['p50_ms']:9.2f} ms  {outcomes}")
    if report["trace"]:
        print(f"  traced req_per_s {report['traced_summary']['req_per_s']:.4f} 1/s, "
              f"{report['spans']} spans")
        for name, (unit, moves) in PER_LAYER.items():
            print(f"    {name:50s} {report['layers'][name]:14.4f} {unit:9s} -> {moves}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=gen.WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stabscope" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'stabscope'} is missing",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    reports = []
    for workload in workloads:
        report = run_one(workload, args.seed, args.seconds, args.trace)
        print_report(report)
        reports.append(report)
    if args.workload:
        r = reports[0]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics_of(r)}))
        return 0
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if args.trace else {
        **END_TO_END_UNITS, "failed_frac": "ratio", "wrong_frac": "ratio"}
    columns = []
    for r in reports:
        values = {name: m["value"] for name, m in metrics_of(r).items()}
        if not args.trace:
            values.update(failed_frac=r["summary"]["failed_frac"], wrong_frac=r["summary"]["wrong_frac"])
        columns.append(values)
    print(f"{'metric':50s} {'unit':9s}" + "".join(f"{w:>14s}" for w in workloads))
    for name, unit in units.items():
        print(f"{name:50s} {unit:9s}" + "".join(f"{c[name]:14.4f}" for c in columns))
    print("correct " + " ".join(f"{r['workload']}={r['correct']}" for r in reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
