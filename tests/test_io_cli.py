import argparse
import json
import math
import warnings

import numpy as np
import pytest

import stabscope.io
import stabscope.stabilizer
import stabscope.states
from stabscope import (
    GuardError,
    PureState,
    StateFormatError,
    algebra_type,
    apply_local_unitary,
    classify,
    fingerprint_drift,
    ghz_state,
    haar_random_local_unitary,
    invariant_fingerprint,
    load_state,
    named_state,
    parse_state_json,
    parse_state_text,
    random_state,
    resolve_state,
    state_to_dict,
    state_to_text,
    stabilizer_density,
    stabilizer_pure,
    to_density,
    w_state,
)
from stabscope import selftest
from stabscope.cli import build_parser, main
from stabscope.io import _check_qubits, _parse_bitstring
from stabscope.states import _power_of_two_scaled


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
    # non-finite amplitudes, including an integer beyond the float range
    for value in ("NaN", "-Infinity", "1e999", "1" + "0" * 400):
        with pytest.raises(StateFormatError, match=r"amplitudes\[1\]: 're'/'im' must be finite"):
            parse_state_json(
                '{"n": 1, "amplitudes": [{"index": "0", "re": 1}, {"index": "1", "im": %s}]}'
                % value
            )
    # booleans and strings are not numbers, whatever Python makes of them
    with pytest.raises(StateFormatError, match="'n' must be an integer"):
        parse_state_json('{"n": true, "amplitudes": [{"index": true, "re": 1}]}')
    with pytest.raises(StateFormatError, match=r"amplitudes\[0\]: 'index' must be an 1-bit"):
        parse_state_json('{"n": 1, "amplitudes": [{"index": true, "re": 1}]}')
    for field in ('"re": "0.5"', '"re": true', '"im": false', '"im": null'):
        with pytest.raises(StateFormatError, match=r"amplitudes\[1\]: 're'/'im' must be numbers"):
            parse_state_json(
                '{"n": 1, "amplitudes": [{"index": 0, "re": 1}, {"index": 1, %s}]}' % field
            )
    # huge amplitudes are scaled down before the norm, which would overflow
    psi = parse_state_json(
        '{"n": 1, "amplitudes": [{"index": 0, "re": 1e308}, {"index": 1, "im": -1.5e308}]}'
    )
    assert np.allclose(psi.vector, np.array([1, -1.5j]) / np.sqrt(3.25), atol=1e-15)


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
    for line in ("1 nan", "1 0.5 -inf", "1 1e999 0"):
        with pytest.raises(StateFormatError, match="line 3: amplitudes must be finite"):
            parse_state_text(f"0 0.5\n\n{line}\n")
    # huge and tiny amplitudes are scaled before the norm, which would
    # overflow or underflow
    psi = parse_state_text("0 1e308\n1 -1e308 1e308\n")
    assert np.allclose(psi.vector, np.array([1, -1 + 1j]) / np.sqrt(3), atol=1e-15)
    psi = parse_state_text("0 3e-320\n1 0 4e-320\n")
    assert np.allclose(psi.vector, [0.6, 0.8j], atol=1e-15)


def _valid_file(rng, n: int, fmt: str) -> str:
    """A valid state file on a random sparse, unordered support, using the
    optional syntax: comments, blank lines and 2-token lines in text;
    integer indices (all or some) and omitted 're'/'im' in JSON."""
    support = rng.permutation(2**n)[: rng.integers(1, 2**n + 1)]
    parts = rng.standard_normal((support.size, 2)) * 10.0 ** rng.integers(-3, 4)
    parts[rng.random(parts.shape) < 0.1] = 0.0
    if fmt == "text":
        lines = [f"# {n}-qubit state"]
        for index, (re, im) in zip(support, parts.tolist()):
            bits = format(index, f"0{n}b")
            style = rng.integers(4)
            if style == 0:
                lines.append(f"{bits} {re!r}")
            elif style == 1:
                lines.append(f"\t{bits}  {re!r}\t{im!r}  # a comment")
            elif style == 2:
                lines += ["", "   ", "# another comment", f"{bits} {re:.6g} {im:.3e}"]
            else:
                lines.append(f"{bits} {re!r} {im!r}")
        return "\n".join(lines) + "\n"
    int_share = rng.choice([0.0, 0.5, 1.0])
    entries = []
    for index, (re, im) in zip(support, parts.tolist()):
        entry = {"index": int(index) if rng.random() < int_share else format(index, f"0{n}b")}
        if re != 0.0 or rng.random() < 0.5:
            entry["re"] = int(re) if rng.random() < 0.1 else re
        if im != 0.0 or rng.random() < 0.5:
            entry["im"] = im
        entries.append(entry)
    return json.dumps({"n": n, "amplitudes": entries})


# The line-by-line builders that stabscope.io used before its columnar pass
# became the only parser, kept here as an independent reference: one entry
# or line at a time, raising on the first one that is not valid.


def _reference_finalize(vec: np.ndarray, origin: str) -> PureState:
    if not vec.any():
        raise StateFormatError(f"{origin}: all amplitudes are zero")
    vec = _power_of_two_scaled(vec)[0]
    return PureState(vec / np.linalg.norm(vec))


def _reference_json_vector(n: int, entries: list, origin: str) -> np.ndarray:
    vec = np.zeros(2**n, dtype=np.complex128)
    seen = set()
    for pos, entry in enumerate(entries):
        where = f"{origin}: amplitudes[{pos}]"
        if not isinstance(entry, dict):
            raise StateFormatError(f"{where}: each amplitude must be an object")
        token = entry.get("index")
        if isinstance(token, str):
            index, width = _parse_bitstring(token, where)
            if width != n:
                raise StateFormatError(f"{where}: bitstring has {width} bits, expected {n}")
        elif isinstance(token, int) and not isinstance(token, bool) and 0 <= token < 2**n:
            index = token
        else:
            raise StateFormatError(f"{where}: 'index' must be an {n}-bit string")
        if index in seen:
            raise StateFormatError(f"{where}: duplicate index {token!r}")
        seen.add(index)
        re = entry.get("re", 0.0)
        im = entry.get("im", 0.0)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re, im)):
            raise StateFormatError(f"{where}: 're'/'im' must be numbers")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise StateFormatError(f"{where}: 're'/'im' must be finite numbers")
        vec[index] = complex(re, im)
    return vec


def _reference_parse_text(text: str, origin: str) -> PureState:
    vec = None
    n = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{origin}: line {lineno}"
        parts = line.split()
        if len(parts) not in (2, 3):
            raise StateFormatError(f"{where}: expected 'bitstring re [im]', got {raw.strip()!r}")
        index, width = _parse_bitstring(parts[0], where)
        if n is None:
            n = width
            _check_qubits(n, where)
            vec = np.zeros(2**n, dtype=np.complex128)
        elif width != n:
            raise StateFormatError(f"{where}: bitstring has {width} bits, expected {n}")
        if index in seen:
            raise StateFormatError(f"{where}: duplicate ket {parts[0]}")
        seen.add(index)
        try:
            re = float(parts[1])
            im = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise StateFormatError(f"{where}: amplitudes must be numbers") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise StateFormatError(f"{where}: amplitudes must be finite numbers")
        vec[index] = complex(re, im)
    if vec is None:
        raise StateFormatError(f"{origin}: no amplitude lines found")
    return _reference_finalize(vec, origin)


def _reference_parse(text: str, origin: str) -> PureState:
    if text.lstrip().startswith("{"):
        n, entries = stabscope.io._read_json(text, origin)
        return _reference_finalize(_reference_json_vector(n, entries, origin), origin)
    return _reference_parse_text(text, origin)


def _outcome(parse, *args):
    """The vector bytes a parser returns, or the type and message it raises."""
    try:
        return parse(*args).vector.tobytes()
    except (StateFormatError, GuardError) as exc:
        return type(exc), str(exc)


def _public_parse(text: str, origin: str) -> PureState:
    if text.lstrip().startswith("{"):
        return parse_state_json(text, origin)
    return parse_state_text(text, origin)


@pytest.fixture
def error_walks(monkeypatch):
    """Names of the error walks io has run, in call order."""
    calls = []
    for name in ("_text_error", "_json_error"):

        def counted(*args, _walk=getattr(stabscope.io, name), _name=name):
            calls.append(_name)
            _walk(*args)

        monkeypatch.setattr(stabscope.io, name, counted)
    return calls


def _assert_matches_reference(text: str, path, error_walks) -> None:
    """load_state and the public parsers give the reference's vector to the
    last bit, or its exception type and message, line number and entry index
    included; on a valid file neither error walk runs."""
    path.write_text(text)
    origin = str(path)
    expected = _outcome(_reference_parse, text, origin)
    before = len(error_walks)
    assert _outcome(load_state, origin) == expected
    assert _outcome(_public_parse, text, origin) == expected
    if isinstance(expected, bytes):
        assert len(error_walks) == before


def _mutations(rng, text: str):
    """Variants of a valid file with one line or entry edited, nearly all
    of them malformed."""
    if text.lstrip().startswith("{"):
        data = json.loads(text)
        entries = data["amplitudes"]
        n = data["n"]
        pos = int(rng.integers(len(entries)))

        def with_entry(**fields):
            bad = dict(entries[pos], **fields)
            return json.dumps({"n": n, "amplitudes": entries[:pos] + [bad] + entries[pos + 1:]})

        yield with_entry(index="2" * n)
        yield with_entry(index="0" * (n + 1))
        yield with_entry(index=f" {'0' * n}")
        yield with_entry(index=2**n)
        yield with_entry(index=True)
        yield with_entry(re="0.5")
        yield with_entry(im=False)
        yield with_entry(re=float("nan"))
        yield with_entry(im=float("-inf"))
        yield with_entry(re=10**400)
        if len(entries) > 1:
            dup = dict(entries[pos], index=entries[pos - 1]["index"])
            yield json.dumps({"n": n, "amplitudes": entries[:pos] + [dup] + entries[pos + 1:]})
        yield json.dumps({"n": True, "amplitudes": entries})
        yield json.dumps({"n": 13, "amplitudes": entries})
        return
    lines = text.splitlines()
    kets = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    pos = kets[int(rng.integers(len(kets)))]
    bits = lines[pos].split("#", 1)[0].split()[0]

    def with_line(line):
        return "\n".join(lines[:pos] + [line] + lines[pos + 1:]) + "\n"

    yield with_line(bits)
    yield with_line(f"{bits} 1 2 3")
    yield with_line(f"{bits[:-1]}2 0.5")
    yield with_line(f"{bits}0 0.5")
    yield with_line(f"{bits} zero")
    yield with_line(f"{bits} 0.5 1.0.0")
    yield with_line(f"{bits} nan")
    yield with_line(f"{bits} 0.5 -inf")
    yield with_line(f"{bits} 1e999 0")
    yield with_line(f"{'0' * 13} 1.0")
    if len(kets) > 1:
        other = lines[kets[0] if pos != kets[0] else kets[1]].split("#", 1)[0].split()[0]
        yield with_line(f"{other} 0.5")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", range(1, 13))
def test_load_state_matches_the_strict_parsers(n, fmt, tmp_path, error_walks):
    """load_state, parse_state_text and parse_state_json agree with the
    line-by-line reference on valid files and on one-edit mutations of them,
    and the columnar pass alone reads every valid file."""
    rng = np.random.default_rng(1000 * n + len(fmt))
    path = tmp_path / f"state.{fmt}"
    for _ in range(3 if n < 12 else 1):
        text = _valid_file(rng, n, fmt)
        if fmt == "text":
            assert stabscope.io._text_vector(text) is not None
        else:
            assert stabscope.io._json_vector(n, json.loads(text)["amplitudes"]) is not None
        _assert_matches_reference(text, path, error_walks)
        for bad in _mutations(rng, text):
            # padded bitstrings and some edits at the first line are valid
            _assert_matches_reference(bad, path, error_walks)
    assert error_walks, "no mutation reached an error walk"


def _json_file(n: int, *entries) -> str:
    return json.dumps({"n": n, "amplitudes": list(entries)})


@pytest.mark.parametrize(
    "text",
    [
        _json_file(2, {"index": " 01 ", "re": 0.6}, {"index": "\t10\n", "im": -0.8}),
        _json_file(2, {"index": " 01", "re": 0.6}, {"index": 2, "re": 0.8}),
        _json_file(2, {"index": " 01", "re": 0.6}, {"index": "1", "re": 0.8}),
        _json_file(3, {"index": 5, "re": 0.6}, {"index": "011", "im": 0.8}, {"index": 0}),
        _json_file(2, {"index": 3, "re": 1}, {"index": "01", "re": 2}, {"index": " 10 ", "im": 3}),
        _json_file(2, {"index": 1, "re": 0.6}, {"index": "01", "re": 0.8}),
        _json_file(2, {"index": "01", "re": 0.6}, {"index": 1, "re": 0.8}),
        _json_file(2, {"index": " 01", "re": 0.6}, {"index": "01 ", "re": 0.8}),
        _json_file(2, {"index": 4, "re": 0.6}, {"index": "01", "re": 0.8}),
        _json_file(2, {"index": -1, "re": 0.6}, {"index": "01", "re": 0.8}),
        _json_file(3, {"index": -1, "re": 0.6}, {"index": "011", "re": 0.8}),
        _json_file(2, {"index": True, "re": 0.6}, {"index": "01", "re": 0.8}),
        _json_file(2, {"index": 2, "re": 0.6}, {"index": " 0 1", "re": 0.8}),
        _json_file(2, {"index": 2, "re": 0}, {"index": "01"}),
        _json_file(2),
        _json_file(2, []),
        "# only a comment\n",
        "# only a comment\n\n   \n# and another\n",
        "",
        "01 0.6\n# c\n 10 0 0.8 # tail\n",
    ],
)
def test_parsers_match_the_reference_on_edge_files(text, tmp_path, error_walks):
    """Files that the columnar pass reads only since it became the one
    parser: padded bitstrings, mixed integer and bitstring indices, and
    duplicates written both ways; and files with no amplitudes at all."""
    _assert_matches_reference(text, tmp_path / "state", error_walks)


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


def test_load_state_skips_a_byte_order_mark(tmp_path):
    psi = random_state(4, np.random.default_rng(4))
    for name, text in (("a.json", json.dumps(state_to_dict(psi))), ("a.txt", state_to_text(psi))):
        plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert load_state(str(marked)).vector.tobytes() == load_state(str(plain)).vector.tobytes()


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


@pytest.mark.parametrize("command", ["analyze", "classify"])
def test_cli_request_forms_the_plane_gram_once(command, monkeypatch, capsys):
    # the pure stabilizer and the product graph read the one Gram matrix
    # the state caches
    formed = []
    grams = stabscope.states._plane_grams

    def counted(vectors):
        formed.append(len(vectors))
        return grams(vectors)

    for module in (stabscope.states, stabscope.stabilizer):
        monkeypatch.setattr(module, "_plane_grams", counted)
    for spec in ("ghz:5:0.8", "w:4", "haar:12", "singlets"):
        formed.clear()
        assert main([command, "--state", spec, "--format", "json"]) == 0
        capsys.readouterr()
        assert formed == [1], spec


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
    # a non-finite amplitude is a parse error, not a numerical failure
    bad.write_text("000 0.7\n111 nan\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(bad)]) == 2
    assert "line 2: amplitudes must be finite numbers" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "argv, code, kind, text",
    [
        (["analyze", "--state", "nosuch:3"], 2, "parse", "neither a named state"),
        (["analyze", "--state", "ghz:3", "--tol-null", "-1"], 2, "parse", "tolerances must be positive"),
        (["analyze", "--state", "ghz:3", "--tol-null", "nan"], 2, "parse", "positive and finite"),
        (["analyze", "--state", "ghz:3", "--tol-null", "inf"], 2, "parse", "positive and finite"),
        (["classify", "--state", "ghz:3", "--tol-equiv", "nan"], 2, "parse", "positive and finite"),
        (["equiv", "--state", "ghz:3", "--state", "w:3", "--tol-equiv=-inf"], 2, "parse", "positive and finite"),
        (["equiv", "--state", "ghz:3", "--state", "w:3", "--restarts", "-3"], 2, "parse",
         "--restarts must be at least 1, got -3"),
        (["equiv", "--state", "ghz:3", "--state", "w:3", "--restarts", "0"], 2, "parse",
         "--restarts must be at least 1, got 0"),
        (["orbit", "--state", "ghz:3", "--samples", "0"], 2, "parse", "--samples must be at least 1, got 0"),
        (["analyze", "--state", "ghz:15"], 3, "guard", "exceeds the limit"),
    ],
    ids=["parse-state", "parse-tolerance", "parse-nan-null", "parse-inf-null", "parse-nan-equiv",
         "parse-minus-inf-equiv", "parse-negative-restarts", "parse-zero-restarts", "parse-zero-samples",
         "guard"],
)
def test_cli_json_errors_carry_a_payload(argv, code, kind, text, capsys):
    assert main([*argv, "--format", "json"]) == code
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["kind"] == kind and text in payload["error"]
    assert err == f"error: {payload['error']}\n"
    # the text format keeps stdout empty
    assert main(argv) == code
    assert capsys.readouterr().out == ""


def test_cli_json_numerical_failure_carries_a_payload(monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    assert main(["analyze", "--state", "ghz:3", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "numerical failure: SVD did not converge", "kind": "numerical"}
    assert err == "error: numerical failure: SVD did not converge\n"


def test_cli_orbit_rows_do_not_depend_on_the_chunks(tmp_path, capsys):
    draws = np.random.default_rng(8)
    states = {
        # at n = 10 a chunk holds four states: the base and samples 0-2, then 3-5
        "haar10": random_state(10, draws),
        # its poly:* components are complex
        "canon4": apply_local_unitary(
            haar_random_local_unitary(4, draws), named_state("canon4:0.5:0.2:0.3")
        ),
        # a one-qubit fingerprint has no components, so every drift is 0.0
        "haar1": random_state(1, draws),
    }
    for name, state in states.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(state_to_dict(state)))
        psi = load_state(str(path))
        assert main(["orbit", str(path), "--samples", "6", "--seed", "3", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        base = invariant_fingerprint(psi)
        for i, row in enumerate(rows):
            rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(7, i)))
            moved = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
            k = stabilizer_pure(moved)
            assert row == {
                "sample": i,
                "stab_dim": k.dim,
                "proj_dims": list(k.proj_dims),
                "drift": fingerprint_drift(base, invariant_fingerprint(moved)),
            }, name
        assert psi.n > 1 or all(row["drift"] == 0.0 for row in rows)


def test_cli_orbit_consistency(capsys):
    assert main(["orbit", "--state", "ghz:3", "--samples", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
    assert len(payload["rows"]) == 3
    assert all(row["stab_dim"] == 2 for row in payload["rows"])
    assert payload["max_drift"] < 1e-8


def test_cli_orbit_text_output_lists_each_row(capsys):
    assert main(["orbit", "--state", "ghz:3", "--samples", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "rows[0].stab_dim = 2" in lines
    assert "rows[1].proj_dims = [1, 1, 1]" in lines
    assert "consistent = true" in lines


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


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_cached_parser_help_matches_a_fresh_parser():
    cached = build_parser()
    assert build_parser() is cached
    fresh = build_parser.__wrapped__()
    assert cached.format_help() == fresh.format_help()
    cached_sub, fresh_sub = _subparsers(cached), _subparsers(fresh)
    assert list(cached_sub) == list(fresh_sub)
    for name, sub in cached_sub.items():
        assert sub.format_help() == fresh_sub[name].format_help()


# the options each subcommand reads besides --seed and --format
READS = {
    "analyze": ("--state", "--tol-null"),
    "classify": ("--state", "--tol-null", "--tol-equiv"),
    "orbit": ("--state", "--tol-null", "--samples"),
    "equiv": ("--state", "--tol-null", "--tol-equiv", "--restarts"),
    "invariants": ("--state",),
    "selftest": (),
}
VALUES = {"--state": "ghz:3", "--tol-null": "1e-3", "--tol-equiv": "0.5", "--restarts": "9", "--samples": "9"}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, reads in READS.items() for flag in VALUES if flag not in reads],
)
def test_each_subcommand_rejects_the_options_it_does_not_read(command, flag, capsys):
    states = {"equiv": ["--state", "ghz:3"] * 2, "selftest": []}.get(command, ["--state", "ghz:3"])
    with pytest.raises(SystemExit) as exc:
        main([command, *states, flag, VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_each_subcommand_takes_exactly_the_options_it_reads():
    for name, sub in _subparsers(build_parser()).items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--seed", "--format", *READS[name]}, name
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "state.json"])
    assert exc.value.code == 2


def test_main_calls_leave_no_state_in_the_shared_parser(capsys):
    plain = ["orbit", "--state", "w:3", "--samples", "2", "--format", "json"]
    assert main(plain) == 0
    first = capsys.readouterr().out
    other = ["orbit", "--state", "ghz:3", "--samples", "3", "--seed", "7", "--format", "json"]
    assert main(other) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["stab_dim"] == 2
    assert main(plain) == 0
    assert capsys.readouterr().out == first
    args = build_parser().parse_args(["analyze"])
    assert args.state is None and args.seed == 0 and args.paths == []


def _instant_criterion(index: int, passed: bool):
    def run(rec, master_seed):
        rec.check(passed, "instant failure")
        return f"seed {master_seed}"

    return index, f"instant_{index}", run


@pytest.fixture
def instant_criteria(monkeypatch):
    """Two criteria that finish at once, one passing and one failing, in
    place of the real battery."""
    monkeypatch.setattr(
        selftest, "CRITERIA", (_instant_criterion(1, True), _instant_criterion(2, False))
    )


def test_cli_selftest_json_reports_each_criterion(instant_criteria, capsys):
    assert main(["selftest", "--format", "json", "--seed", "5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    criteria = payload["criteria"]
    assert [c["passed"] for c in criteria] == [True, False]
    assert all(
        set(c) == {"index", "name", "passed", "checks", "elapsed", "failures"} for c in criteria
    )
    assert [c["index"] for c in criteria] == [1, 2]
    assert criteria[1]["failures"] == ["instant failure"]


def test_cli_selftest_text_prints_each_criterion_and_a_summary(instant_criteria, capsys):
    assert main(["selftest", "--seed", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("PASS ", "FAIL "))] == [
        "PASS  1 instant_1: seed 5 (0.0s)",
        "FAIL  2 instant_2: seed 5 (0.0s)",
    ]
    assert "        instant failure" in lines
    assert lines[-1].startswith("FAIL: 1/2 criteria in ")
