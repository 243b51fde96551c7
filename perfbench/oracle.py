"""Grades each response against the truth its request was built with.

Every request ends in one outcome:

  right      a decided answer that matches the truth
  undecided  equiv answered "unknown"
  flagged    classify labelled its own answer uncertain (ambiguous
             conjugation, an uncertified confirmation, or an unrecognized
             maximal stabilizer)
  wrong      a decided, unflagged answer that contradicts the truth
  error      an exception, an undocumented exit code or a malformed payload

failed_frac counts every outcome but right; wrong_frac counts wrong alone.
"""

from gen import FAMILY_TOL, GHZ_TOL, PURITY_TOL

RIGHT, UNDECIDED, FLAGGED, WRONG, ERROR = "right", "undecided", "flagged", "wrong", "error"
OUTCOMES = (RIGHT, UNDECIDED, FLAGGED, WRONG, ERROR)

# The CLI's default --tol-equiv: classify's confirmation search certifies
# the canonical form only when its best infidelity is below this.
CONFIRM_TOL = 1e-7

EXIT_CODES = {
    "analyze": {0},
    "invariants": {0},
    "classify": {0},
    "orbit": {0, 1},
    "equiv": {0, 1, 4},
}
EQUIV_STATUS = {0: "equivalent", 1: "inequivalent", 4: "unknown"}


def _mismatches(pairs) -> str:
    return "; ".join(f"{name} {got!r} != {want!r}" for name, got, want in pairs if got != want)


def _verdict(mismatch: str):
    return (WRONG, mismatch) if mismatch else (RIGHT, "")


def _grade_analyze(truth, code, p):
    pairs = [
        ("stab_dim", p["stab_dim"], truth.get("stab_dim")),
        ("density_stab_dim", p["density_stab_dim"], truth.get("stab_dim")),
        ("proj_dims", p["proj_dims"], truth.get("proj_dims")),
        ("algebra_type", p["algebra_type"], truth.get("algebra")),
        ("product_structure", p["product_structure"], truth.get("blocks")),
    ]
    return _verdict(_mismatches((n, g, w) for n, g, w in pairs if w is not None))


def _grade_invariants(truth, code, p):
    want = truth["purities"]
    got = p["purities"]
    if set(got) != set(want):
        return WRONG, f"purity subsets {sorted(got)} != {sorted(want)}"
    worst = max(abs(got[k] - want[k]) / (1.0 + abs(want[k])) for k in want)
    return _verdict("" if worst < PURITY_TOL else f"purity drift {worst:.2e}")


def _grade_orbit(truth, code, p):
    if p["consistent"] != (code == 0):
        return ERROR, f"exit code {code} disagrees with consistent={p['consistent']}"
    if not p["consistent"]:
        return WRONG, f"orbit reported as not invariant (max drift {p['max_drift']:.2e})"
    base = p["base"]
    pairs = [
        ("stab_dim", base["stab_dim"], truth.get("stab_dim")),
        ("proj_dims", base["proj_dims"], truth.get("proj_dims")),
    ]
    return _verdict(_mismatches((n, g, w) for n, g, w in pairs if w is not None))


def _grade_equiv(truth, code, p):
    status = p["status"]
    if status != EQUIV_STATUS[code]:
        return ERROR, f"exit code {code} disagrees with status {status!r}"
    if status == "unknown":
        return UNDECIDED, f"best infidelity {p['best_infidelity']}"
    if (status == "equivalent") != truth["equivalent"]:
        return WRONG, f"{status} on a pair built {'equivalent' if truth['equivalent'] else 'inequivalent'}"
    return RIGHT, ""


def _grade_classify(truth, code, p):
    verdict = p["verdict"]
    want = truth["verdict"]
    if verdict == "max_stab_but_unrecognized":
        return FLAGGED, "; ".join(p["notes"])
    if verdict != want:
        return WRONG, f"verdict {verdict} != {want}"
    if want == "ghz_class":
        err = max(abs(p["alpha"] - truth["alpha"]), abs(p["beta"] - truth["beta"]))
        return _verdict("" if err < GHZ_TOL else f"(alpha, beta) error {err:.2e}")
    if want == "four_qubit_su2":
        residual = p["residual"]
        if p["ambiguous"] or residual is None or residual >= CONFIRM_TOL:
            return FLAGGED, "; ".join(p["notes"])
        a, b = truth["a"], truth["b"]
        got_b = complex(p["b_re"], p["b_im"])
        err = max(abs(p["a"] - a), abs(got_b - b), abs((-p["a"] - got_b) - (-a - b)))
        return _verdict("" if err < FAMILY_TOL else f"(a, b, c) error {err:.2e}")
    return RIGHT, ""


CLI_GRADERS = {
    "analyze": _grade_analyze,
    "invariants": _grade_invariants,
    "orbit": _grade_orbit,
    "equiv": _grade_equiv,
    "classify": _grade_classify,
}


def _grade_density(truth, result):
    pairs = [
        ("stab_dim", result["dim"], truth["stab_dim"]),
        ("proj_dims", result["proj_dims"], truth["proj_dims"]),
    ]
    return _verdict(_mismatches(pairs))


def grade(request: dict, response: dict) -> tuple:
    """(outcome, detail) of one response.

    response holds error (a message when the call raised), and either code
    and payload (the exit code and parsed JSON of a CLI request) or result
    (a library request's dim and proj_dims).
    """
    if response.get("error"):
        return ERROR, response["error"]
    truth = request["truth"]
    try:
        if "call" in request:
            return _grade_density(truth, response["result"])
        command = request["argv"][0]
        code = response["code"]
        if code not in EXIT_CODES[command]:
            return ERROR, f"undocumented exit code {code}: {response.get('stderr', '').strip()}"
        payload = response["payload"]
        if not isinstance(payload, dict):
            return ERROR, "no JSON object on stdout"
        return CLI_GRADERS[command](truth, code, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return ERROR, f"malformed response: {exc!r}"
