import json

import numpy as np
import pytest

from stabscope import (
    GuardError,
    PureState,
    StateFormatError,
    algebra_type,
    apply_local_unitary,
    classify,
    ghz_state,
    haar_random_local_unitary,
    load_state,
    named_state,
    parse_state_json,
    parse_state_text,
    random_state,
    resolve_state,
    state_to_dict,
    state_to_text,
    stabilizer_density,
    to_density,
    w_state,
)
from stabscope.cli import main


def test_json_round_trip():
    psi = random_state(3, np.random.default_rng(0))
    back = parse_state_json(json.dumps(state_to_dict(psi)))
    assert np.allclose(back.vector, psi.vector, atol=1e-12)


def test_text_round_trip():
    psi = random_state(4, np.random.default_rng(1))
    back = parse_state_text(state_to_text(psi))
    assert np.allclose(back.vector, psi.vector, atol=1e-12)


def test_json_errors_name_the_offending_entry():
    with pytest.raises(StateFormatError, match="line 1"):
        parse_state_json("{not json")
    with pytest.raises(StateFormatError, match="'n' must be an integer"):
        parse_state_json('{"n": "three", "amplitudes": []}')
    with pytest.raises(StateFormatError, match=r"amplitudes\[1\].*duplicate"):
        parse_state_json(
            '{"n": 2, "amplitudes": [{"index": "01", "re": 1}, {"index": "01", "re": 1}]}'
        )
    with pytest.raises(StateFormatError, match="2 bits, expected 3"):
        parse_state_json('{"n": 3, "amplitudes": [{"index": "01", "re": 1}]}')
    with pytest.raises(StateFormatError, match="all amplitudes are zero"):
        parse_state_json('{"n": 2, "amplitudes": []}')


def test_text_errors_carry_line_numbers():
    with pytest.raises(StateFormatError, match="line 3"):
        parse_state_text("# ok\n000 0.7\n00 0.7\n")
    with pytest.raises(StateFormatError, match="line 2.*duplicate"):
        parse_state_text("01 0.5\n01 0.5\n")
    with pytest.raises(StateFormatError, match="bitstring of 0s and 1s"):
        parse_state_text("0x1 0.5\n")
    with pytest.raises(StateFormatError, match="amplitudes must be numbers"):
        parse_state_text("01 zero\n")
    with pytest.raises(StateFormatError, match="no amplitude lines"):
        parse_state_text("# only a comment\n")


def test_size_guard():
    with pytest.raises(GuardError, match="exceeds the limit"):
        parse_state_text("0" * 13 + " 1.0\n")
    with pytest.raises(GuardError):
        named_state("ghz:15")


def test_named_states():
    assert np.allclose(named_state("ghz:3:0.8").vector[0], 0.8)
    assert named_state("w:4").vector[1] == pytest.approx(0.5)
    psi = named_state("canon4:0.5:-0.25:0.25")
    assert abs(psi.vector[0b0011]) > 0
    assert named_state("singlets").n == 4
    h = named_state("haar:3", rng=np.random.default_rng(5))
    assert np.allclose(
        h.vector, named_state("haar:3", rng=np.random.default_rng(5)).vector
    )
    assert named_state("basis:101").vector[0b101] == 1.0
    with pytest.raises(StateFormatError, match="unknown named state"):
        named_state("bell:2")
    with pytest.raises(StateFormatError, match="between 1 and 2"):
        named_state("ghz:3:0.5:0.5")
    with pytest.raises(StateFormatError, match="is not a number"):
        named_state("canon4:a:b")
    with pytest.raises(StateFormatError, match="0 < |alpha| < 1".replace("|", r"\|")):
        named_state("ghz:3:1.0")


def test_resolve_state_precedence(tmp_path, monkeypatch):
    path = tmp_path / "state.txt"
    path.write_text(state_to_text(w_state(3)))
    assert np.allclose(resolve_state(str(path)).vector, w_state(3).vector)
    # a file whose name collides with a named spec wins over the builtin
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ghz:3").write_text(state_to_text(w_state(3)))
    assert np.allclose(resolve_state("ghz:3").vector, w_state(3).vector)
    with pytest.raises(StateFormatError, match="neither a named state"):
        resolve_state("no_such_file.json")


def test_load_state_sniffs_format(tmp_path):
    j = tmp_path / "a.json"
    j.write_text(json.dumps(state_to_dict(ghz_state(3))))
    t = tmp_path / "a.txt"
    t.write_text(state_to_text(ghz_state(3)))
    assert np.allclose(load_state(str(j)).vector, load_state(str(t)).vector)
    with pytest.raises(StateFormatError):
        load_state(str(tmp_path / "missing.txt"))


def test_cli_analyze_and_classify_json(capsys):
    assert main(["analyze", "--state", "ghz:3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stab_dim"] == 2
    assert payload["proj_dims"] == [1, 1, 1]
    assert payload["algebra_type"] == "abelian"
    assert payload["product_structure"] == "nonproduct"

    assert main(["classify", "--state", "ghz:4:0.8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "ghz_class"
    assert payload["alpha"] == pytest.approx(0.8, abs=1e-9)
    for key in ("n", "stab_dim", "proj_dims", "ambiguous", "notes"):
        assert key in payload


def test_cli_classify_certifies_against_tol_equiv(tmp_path, capsys):
    # the four-qubit witness is accepted only below --tol-equiv; its
    # recomputed infidelity is at rounding level, and exactly zero on some
    # orbit points, so take the first point where it is not
    rng = np.random.default_rng(13)
    path = tmp_path / "moved.json"
    for _ in range(20):
        g = haar_random_local_unitary(4, rng)
        path.write_text(
            json.dumps(state_to_dict(apply_local_unitary(g, named_state("canon4:0.5:0.2:0.3"))))
        )
        assert main(["classify", str(path), "--format", "json"]) == 0
        certified = json.loads(capsys.readouterr().out)
        assert certified["verdict"] == "four_qubit_su2"
        assert certified["residual"] < 1e-7
        assert certified["notes"] == []
        if certified["residual"] > 1e-30:
            break
    else:
        pytest.fail("every witness infidelity was exactly zero")
    assert main(["classify", str(path), "--tol-equiv", "1e-30", "--format", "json"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["verdict"] == "four_qubit_su2"
    assert strict["residual"] == certified["residual"]
    assert any("not certified" in note for note in strict["notes"])
    assert (strict["a"], strict["b_re"], strict["b_im"]) == (
        certified["a"], certified["b_re"], certified["b_im"]
    )


def test_cli_equiv_exit_codes(tmp_path, capsys):
    # an orbit representative written to disk matches its base state
    moved = apply_local_unitary(
        haar_random_local_unitary(3, np.random.default_rng(12)), ghz_state(3)
    )
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(state_to_dict(moved)))
    assert main(["equiv", "--state", "ghz:3", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "equivalent"
    assert payload["witness"] is not None
    # balanced GHZ has degenerate one-qubit spectra; its canonical form decides
    assert payload["decided_by"] == "canonical_form"
    assert payload["restarts_used"] == 0
    assert payload["best_infidelity"] < 1e-12

    assert main(["equiv", "--state", "ghz:3", "--state", "w:3"]) == 1
    capsys.readouterr()

    # conjugate pair with real part zero: separated by the swapped cubic
    assert (
        main(
            [
                "equiv",
                "--state",
                "canon4:0.5:0:0.3",
                "--state",
                "canon4:0.5:0:-0.3",
                "--format",
                "json",
            ]
        )
        == 1
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["separator"]["invariant"].startswith("poly:")

    # both cubics vanish here, but the canonical forms differ in Im b
    assert (
        main(
            [
                "equiv",
                "--state",
                "canon4:0.5:-0.25:0.25",
                "--state",
                "canon4:0.5:-0.25:-0.25",
                "--format",
                "json",
            ]
        )
        == 1
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["decided_by"] == "canonical_form"
    assert payload["separator"]["invariant"] == "canonical_form:b"

    # purities cannot tell a five-qubit state from its conjugate, so a short
    # search cannot decide either way
    psi = random_state(5, np.random.default_rng(2))
    paths = []
    for name, vec in (("psi", psi.vector), ("conj", psi.vector.conj())):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(state_to_dict(PureState(vec))))
    assert main(["equiv", *map(str, paths), "--restarts", "4", "--seed", "2"]) == 4
    capsys.readouterr()


def test_cli_parse_and_guard_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("000 0.7\n00 0.7\n")
    assert main(["analyze", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err

    assert main(["analyze", "--state", "ghz:15"]) == 3
    assert "exceeds the limit" in capsys.readouterr().err

    assert main(["analyze", "--state", "ghz:3", "--tol-null", "-1"]) == 2
    capsys.readouterr()
    assert main(["equiv", "--state", "ghz:3"]) == 2
    assert "exactly 2 state argument" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_reports_numerical_failures(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    assert main(["analyze", "--state", "ghz:3"]) == 2
    assert "error: numerical failure: SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("beta", [1e-5, 1e-6, 1e-7])
def test_cli_small_beta_ghz_is_nonproduct_ghz_class(beta, tmp_path, capsys):
    rng = np.random.default_rng(17)
    path = tmp_path / "moved.json"
    for _ in range(3):
        g = haar_random_local_unitary(4, rng)
        path.write_text(
            json.dumps(state_to_dict(apply_local_unitary(g, ghz_state(4, np.sqrt(1 - beta**2), beta))))
        )
        assert main(["classify", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ghz_class"
        assert payload["beta"] == pytest.approx(beta, abs=1e-7)
        assert main(["analyze", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["product_structure"] == "nonproduct"


def test_cli_orbit_consistency(capsys):
    assert main(["orbit", "--state", "ghz:3", "--samples", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
    assert len(payload["rows"]) == 3
    assert all(row["stab_dim"] == 2 for row in payload["rows"])
    assert payload["max_drift"] < 1e-8


@pytest.mark.parametrize(
    "spec",
    [f"ghz:{n}:0.8" for n in range(3, 9)]
    + ["w:3", "w:5", "haar:3", "haar:5", "singlets", "canon4:0.5:-0.25:0.25", "basis:0110"],
)
def test_cli_analyze_density_fields_match_direct_solve(spec, tmp_path, capsys):
    if spec.startswith("haar"):
        n = int(spec.split(":")[1])
        psi = random_state(n, np.random.default_rng(n))
        spec = str(tmp_path / "haar.json")
        (tmp_path / "haar.json").write_text(json.dumps(state_to_dict(psi)))
    else:
        psi = named_state(spec)
    assert main(["analyze", "--state", spec, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    direct = stabilizer_density(to_density(psi), method="direct")
    assert payload["density_stab_dim"] == direct.dim
    assert payload["algebra_type"] == algebra_type(direct).kind
    expected = classify(psi).to_dict()["product_structure"]
    assert payload["product_structure"] == expected


def test_cli_invariants_text_output(capsys):
    assert main(["invariants", "--state", "canon4:0.5:0.2:0.3"]) == 0
    out = capsys.readouterr().out
    assert "purities.1 = " in out
    assert "pair_invariants = [" in out
    assert "poly.3:321:213:231.im = " in out


def test_cli_runs_are_deterministic(capsys):
    for args in (
        ["classify", "--state", "canon4:0.6:0.1:0.4", "--format", "json", "--seed", "3"],
        ["orbit", "--state", "w:4", "--samples", "6", "--seed", "5", "--format", "json"],
    ):
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
    rows = json.loads(first)["rows"]
    assert [row["sample"] for row in rows] == list(range(6))


def test_cli_analyze_reports_the_rank_margin(tmp_path, capsys):
    assert main(["analyze", "--state", "ghz:4", "--format", "json"]) == 0
    margin = json.loads(capsys.readouterr().out)["rank_margin"]
    assert margin["cut"] == 1e-8
    assert margin["kernel_max"] <= margin["cut"] < margin["range_min"]
    assert margin["range_min"] > 1e-3

    path = tmp_path / "haar.json"
    path.write_text(json.dumps(state_to_dict(random_state(4, np.random.default_rng(3)))))
    assert main(["analyze", str(path), "--format", "json", "--tol-null", "1e-6"]) == 0
    margin = json.loads(capsys.readouterr().out)["rank_margin"]
    assert margin["kernel_max"] is None
    assert margin["cut"] == 1e-6 < margin["range_min"]
