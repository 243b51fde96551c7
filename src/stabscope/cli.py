"""Command-line front end.

Subcommands: analyze, classify, orbit, equiv, invariants, selftest.  States
come from file paths (JSON or text) or named specs like ghz:4:0.8; every
random draw derives from the single --seed value.  Exit codes are a stable
contract: 0 success (or equivalent), 1 failure (or inequivalent), 2 parse,
usage or numerical error, 3 size guard, 4 undecided equivalence.
"""

import argparse
import json
import sys
from functools import cache

import numpy as np

from .states import NULL_TOL, is_product, stack_length
from .local_unitary import apply_local_unitary, haar_random_local_unitary
from .stabilizer import algebra_type, _drop_phase, stabilizer_pure, stabilizer_pure_stack
from .invariants import fingerprint_drift, invariant_fingerprint, invariant_fingerprint_stack
from .equivalence import EQUIV_TOL, FINGERPRINT_TOL, decide_equivalence
from .classify import classify
from .io import GuardError, StateFormatError, resolve_state
from .selftest import run_selftest

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_UNKNOWN = 4


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return str(value)


def _text_lines(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _text_lines(value, path)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for i, row in enumerate(obj):
            yield from _text_lines(row, f"{prefix}[{i}]")
    else:
        yield f"{prefix} = {_scalar(obj)}"


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in _text_lines(payload):
            print(line)


def _states(args, expected: int):
    specs = list(args.state or []) + list(args.paths)
    if len(specs) != expected:
        raise StateFormatError(
            f"{args.command} needs exactly {expected} state argument(s) "
            f"(via --state or positional paths), got {len(specs)}"
        )
    # only a haar:n spec draws, and named_state builds its Generator itself
    return [
        (spec, resolve_state(spec, np.random.SeedSequence(args.seed, spawn_key=(99, i))))
        for i, spec in enumerate(specs)
    ]


def cmd_analyze(args) -> int:
    (spec, psi), = _states(args, 1)
    k = stabilizer_pure(psi, args.tol_null)
    # the density stabilizer of |psi><psi| is the pure one with the phase dropped
    k_rho = _drop_phase(k)
    blocks = is_product(psi, args.tol_null).blocks
    payload = {
        "state": spec,
        "n": psi.n,
        "stab_dim": k.dim,
        "proj_dims": list(k.proj_dims),
        "density_stab_dim": k_rho.dim,
        "algebra_type": algebra_type(k_rho).kind,
        "singular_gap": None if not np.isfinite(k.gap) else float(k.gap),
        "rank_margin": k.rank_margin(),
        "product_structure": [list(b) for b in blocks] if len(blocks) > 1 else "nonproduct",
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_classify(args) -> int:
    (spec, psi), = _states(args, 1)
    rep = classify(psi, tol=args.tol_null, tol_equiv=args.tol_equiv)
    payload = {"state": spec, **rep.to_dict()}
    _emit(args, payload)
    return EXIT_OK


def cmd_orbit(args) -> int:
    (spec, psi), = _states(args, 1)

    def point(i: int) -> np.ndarray:
        if i < 0:
            return psi.vector
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(7, i)))
        return apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi).vector

    # the base state (index -1) leads the first chunk; the samples of a chunk
    # are drawn only when it is solved, so no more than one chunk is held
    rows = []
    step = stack_length(psi.n)
    for lo in range(-1, args.samples, step):
        index = range(lo, min(lo + step, args.samples))
        vectors = np.array([point(i) for i in index])
        solved = zip(index, stabilizer_pure_stack(vectors, args.tol_null),
                     invariant_fingerprint_stack(vectors))
        for i, k, fp in solved:
            if i < 0:
                base_k, base_fp = k, fp
                continue
            rows.append({
                "sample": i,
                "stab_dim": k.dim,
                "proj_dims": list(k.proj_dims),
                "drift": fingerprint_drift(base_fp, fp),
            })
    max_drift = max(row["drift"] for row in rows)
    consistent = all(
        row["stab_dim"] == base_k.dim and tuple(row["proj_dims"]) == base_k.proj_dims
        for row in rows
    ) and max_drift < FINGERPRINT_TOL
    payload = {
        "state": spec,
        "n": psi.n,
        "base": {"stab_dim": base_k.dim, "proj_dims": list(base_k.proj_dims)},
        "samples": args.samples,
        "rows": rows,
        "max_drift": max_drift,
        "consistent": consistent,
    }
    _emit(args, payload)
    return EXIT_OK if consistent else EXIT_FAIL


def cmd_equiv(args) -> int:
    (spec_a, psi), (spec_b, phi) = _states(args, 2)
    verdict = decide_equivalence(psi, phi, tol=args.tol_equiv, restarts=args.restarts,
                                 seed=args.seed, null_tol=args.tol_null)
    _emit(args, {"state_a": spec_a, "state_b": spec_b, **verdict.to_dict()})
    codes = {"equivalent": EXIT_OK, "inequivalent": EXIT_FAIL}
    return codes.get(verdict.status, EXIT_UNKNOWN)


def cmd_invariants(args) -> int:
    (spec, psi), = _states(args, 1)
    payload = {"state": spec, **invariant_fingerprint(psi).to_dict()}
    _emit(args, payload)
    return EXIT_OK


def cmd_selftest(args) -> int:
    if args.format == "json":
        report = run_selftest(args.seed)
        payload = {
            "passed": report.passed,
            "elapsed": report.elapsed,
            "criteria": [
                {
                    "index": r.index,
                    "name": r.name,
                    "passed": r.passed,
                    "checks": r.checks,
                    "elapsed": r.elapsed,
                    "failures": list(r.failures),
                }
                for r in report.results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        report = run_selftest(args.seed, stream=sys.stdout)
    return EXIT_OK if report.passed else EXIT_FAIL


# add_argument keywords of each option but --seed and --format
OPTIONS = {
    "--state": dict(action="append", metavar="SPEC", help="named state (ghz:4:0.8, w:3, "
                    "canon4:0.5:-0.25:0.25, singlets, haar:3, basis:0101) or file path; repeatable"),
    "paths": dict(nargs="*", help="state file paths"),
    "--tol-null": dict(type=float, default=NULL_TOL, dest="tol_null",
                       help="relative zero of the stabilizer rank, product test and GHZ checks"),
    "--tol-equiv": dict(type=float, default=EQUIV_TOL, dest="tol_equiv",
                        help="infidelity below which states count as equivalent"),
    "--restarts": dict(type=int, default=20, help="optimizer restarts"),
    "--samples": dict(type=int, default=20, help="orbit sample count"),
}
STATES = ("--state", "paths")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.  Each subcommand takes
    --seed, --format and only the options it reads.  It binds no command:
    main looks cmd_<name> up per call, so a wrapper set on the module later
    runs."""
    parser = argparse.ArgumentParser(
        prog="stabscope",
        description="Stabilizer Lie algebras, local-unitary invariants, and "
        "canonical forms for n-qubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options in (
        ("analyze", "stabilizer dimensions and algebra type of one state", (*STATES, "--tol-null")),
        ("classify", "run the maximal-stabilizer classification", (*STATES, "--tol-null", "--tol-equiv")),
        ("orbit", "sample the local-unitary orbit and check invariance",
         (*STATES, "--tol-null", "--samples")),
        ("equiv", "decide local-unitary equivalence of two states",
         (*STATES, "--tol-null", "--tol-equiv", "--restarts")),
        ("invariants", "print the invariant fingerprint", STATES),
        ("selftest", "run the full acceptance suite", ()),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--format", choices=("json", "text"), default="text")
        for flag in options:
            p.add_argument(flag, **OPTIONS[flag])
    return parser


def _error(args, kind: str, message: str, code: int) -> int:
    """Report a failed request on stderr and, with --format json, as
    {"error", "kind"} on stdout; return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps({"error": message, "kind": kind}, indent=2))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # written so that NaN fails too: every comparison with NaN is False
    if not all(0 < getattr(args, name, 1.0) < np.inf for name in ("tol_null", "tol_equiv")):
        return _error(args, "parse", "tolerances must be positive and finite", EXIT_PARSE)
    for flag, name in (("--restarts", "restarts"), ("--samples", "samples")):
        value = getattr(args, name, 1)
        if value < 1:
            return _error(args, "parse", f"{flag} must be at least 1, got {value}", EXIT_PARSE)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except GuardError as exc:
        return _error(args, "guard", str(exc), EXIT_GUARD)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, so caught ahead of the generic handler below
        return _error(args, "numerical", f"numerical failure: {exc}", EXIT_PARSE)
    except ValueError as exc:
        return _error(args, "parse", str(exc), EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
