"""Re-measures the ROADMAP's baseline facts with the benchmark's own inputs.

    python3 perfbench/probe.py [--seed N]

Prints one JSON object: import time (median of fresh interpreters),
`analyze --state haar:12` in-process and the peak memory it leaves, one
n = 8 direct density solve, and Haar orbit pairs at n = 6, 8, 10 and 12
through `equiv` (how many come back unknown, and what they cost).  Orbit
pairs above n = 5 are not in the benchmark's equiv workload, whose runs
their random restart counts would make too noisy; this is where their
behaviour is recorded.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from collections import Counter

import gen
import run
import worker

# (n, number of Haar orbit pairs sent through equiv)
PAIRS = ((6, 10), (8, 10), (10, 10), (12, 2))
PER_STATE = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if not (run.ROOT / "src" / "stabscope" / "__init__.py").is_file():
        print("error: src/stabscope is missing", file=sys.stderr)
        return 2
    env = run.program_env()
    if any(os.environ.get(k) != env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        # measure under the benchmark's environment; numpy is already loaded
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    stabscope = worker.load_program(str(run.ROOT))
    for warm in worker.WARMUP_ARGV:
        worker.call_cli(stabscope, warm)
    out = {"env": {**worker.environment(), **run.source_stamp()}}

    analyze = [worker.call_cli(stabscope, ["analyze", "--state", "haar:12", "--format", "json",
                                           "--seed", str(args.seed + i)]) for i in range(3)]
    out["analyze_haar12_s"] = [t for t, _ in analyze]
    out["analyze_haar12_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rng = gen.rng_for(args.seed, 90)
    direct = []
    for _ in range(5):
        call = {"state": gen.orbit_point(gen.ghz(8, *gen.ghz_params(rng)), rng), "method": "direct"}
        direct.append(worker.call_density(stabscope, call)[0])
    out["direct_solve_n8_s"] = direct

    work = run.HERE / ".work" / f"probe-{args.seed}"
    save = gen.StateFiles(str(work))
    for n, count in PAIRS:
        rows = []
        for i in range(count):
            # five local unitaries per Haar state, to show whether a hard
            # pair is a property of the state or of the pair
            psi = gen.haar_state(n, gen.rng_for(args.seed, 92, n, i // PER_STATE))
            rng = gen.rng_for(args.seed, 91, n, i)
            argv = ["equiv", save(psi), save(gen.orbit_point(psi, rng)), "--format", "json",
                    "--seed", str(int(rng.integers(2**31)))]
            seconds, response = worker.call_cli(stabscope, argv)
            payload = response.get("payload") or {}
            rows.append((seconds, payload.get("status"), payload.get("restarts_used")))
        out[f"equiv_haar_orbit_n{n}"] = {
            "pairs": count,
            "status": dict(Counter(s for _, s, _ in rows)),
            "median_s": statistics.median(t for t, _, _ in rows),
            "seconds": [t for t, _, _ in rows],
            "restarts_used_per_state": [[r for _, _, r in rows[k:k + PER_STATE]]
                                        for k in range(0, count, PER_STATE)],
        }
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    out["setup_runs_s"] = run.measure_setup()
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
