"""Runs one workload in a fresh interpreter and grades every response.

run.py starts this script once per run, so the process's peak resident
memory is that of the workload alone.  Requests are issued one at a time
(a closed loop with one client).  CLI requests call stabscope.cli.main(argv)
in this process with stdout captured; density requests call
stabilizer_density directly.  With --trace 1 the same deck runs twice, first
untraced and then traced, and the difference in wall time is the tracing
overhead.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy as np

import gen
import oracle
import tracer as tracing

WARMUP_ARGV = (
    ["analyze", "--state", "ghz:3", "--format", "json"],
    ["invariants", "--state", "canon4:0.5:0.2:0.3", "--format", "json"],
    ["orbit", "--state", "w:3", "--samples", "2", "--format", "json"],
    ["equiv", "--state", "ghz:3", "--state", "ghz:3:0.8", "--format", "json"],
    ["classify", "--state", "canon4:0.5:0.2:0.3", "--format", "json"],
)


def load_program(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import stabscope
    import stabscope.cli  # noqa: F401  (bound as stabscope.cli)

    if not os.path.abspath(stabscope.__file__).startswith(src + os.sep):
        raise SystemExit(f"stabscope was imported from {stabscope.__file__}, not from {src}")
    return stabscope


def call_cli(stabscope, argv):
    out, err = io.StringIO(), io.StringIO()
    response = {}
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            response["code"] = stabscope.cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        response["code"] = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # recorded and graded as an error
        response["error"] = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    try:
        response["payload"] = json.loads(out.getvalue())
    except ValueError:
        response["payload"] = None
    response["stderr"] = err.getvalue()[-300:]
    return elapsed, response


def call_density(stabscope, call):
    state = call["state"]
    matrix = state if state.ndim == 2 else np.outer(state, state.conj())
    err = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            k = stabscope.stabilizer_density(stabscope.DensityMatrix(matrix), method=call["method"])
            response = {"result": {"dim": k.dim, "proj_dims": list(k.proj_dims)}}
    except Exception as exc:  # recorded and graded as an error
        response = {"error": f"{type(exc).__name__}: {exc}"}
    return perf_counter() - t0, response


def run_deck(stabscope, deck):
    """(wall seconds, [(latency seconds, response)]) for the whole deck."""
    out = []
    t0 = perf_counter()
    for request in deck:
        if "call" in request:
            out.append(call_density(stabscope, request["call"]))
        else:
            out.append(call_cli(stabscope, request["argv"]))
    return perf_counter() - t0, out


def graded(deck, timed):
    rows = []
    for request, (latency, response) in zip(deck, timed):
        outcome, detail = oracle.grade(request, response)
        rows.append({
            "kind": request["kind"],
            "latency_s": latency,
            "outcome": outcome,
            "detail": detail,
            "known_defect": request["truth"].get("known_defect"),
        })
    return rows


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--files", required=True, help="directory for the state files")
    ap.add_argument("--out", required=True, help="result JSON")
    ap.add_argument("--spans", help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    stabscope = load_program(args.root)
    deck = gen.build_deck(args.workload, args.seed, args.rounds, args.files)
    for warm in WARMUP_ARGV:
        call_cli(stabscope, warm)
    if not args.trace:
        wall, timed = run_deck(stabscope, deck)
        result = {"wall_s": wall, "requests": graded(deck, timed)}
    else:
        # Each round runs untraced and then traced.  The process's first
        # round also pays one-off costs (first use of large buffers), so the
        # overhead compares the later rounds only.
        tracer = tracing.Tracer()
        size = len(gen.ROUNDS[args.workload])
        walls = {False: [], True: []}
        timed, traced = [], []
        for r in range(args.rounds):
            part = deck[r * size:(r + 1) * size]
            seconds, out = run_deck(stabscope, part)
            walls[False].append(seconds)
            timed += out
            tracer.install()
            try:
                seconds, out = run_deck(stabscope, part)
            finally:
                tracer.uninstall()
            walls[True].append(seconds)
            traced += out
        warm = slice(1, None) if args.rounds > 1 else slice(None)
        wall, traced_wall = sum(walls[False]), sum(walls[True])
        overhead = sum(walls[True][warm]) / sum(walls[False][warm]) - 1.0
        result = {"wall_s": wall, "requests": graded(deck, timed)}
        spans = tracer.spans()
        if args.spans:
            np.savez_compressed(args.spans, names=np.asarray(tracer.names), **spans)
        layers = tracing.layer_metrics(spans, tracer.names, tracer.notes, len(deck))
        layers["trace.overhead_frac"] = overhead
        result.update(traced_wall_s=traced_wall, traced_requests=graded(deck, traced),
                      spans=int(spans["name"].size), layers=layers)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
