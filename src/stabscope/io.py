"""State input and output.

Two on-disk formats are supported.  JSON:

    {"n": 3, "amplitudes": [{"index": "000", "re": 0.7071, "im": 0.0},
                            {"index": "111", "re": 0.7071, "im": 0.0}]}

and plain text, one ket per line with `#` starting a comment:

    # three-qubit example
    000  0.7071  0.0
    111  0.7071  0.0

Omitted indices are zero; the vector is normalized on load.  Amplitudes must
be finite numbers and each ket may appear once.  Each format has one parser,
which reads whole columns; a file it declines is walked entry by entry or line
by line only to name the first error.  Built-in named states (ghz:n[:alpha],
w:n, canon4:a:b_re[:b_im], singlets, haar:n, basis:bits) cover the self-test
without data files.
"""

import json
import math
import os
from itertools import chain
from typing import NoReturn

import numpy as np

from .states import (
    PureState,
    _power_of_two_scaled,
    basis_state,
    canonical_four_qubit_state,
    ghz_state,
    random_state,
    singlet_state,
    tensor_product,
    w_state,
)

# refuse to build vectors above this width; keeps the CLI desk-scale
MAX_QUBITS = 12

NAMED_PREFIXES = ("ghz", "w", "canon4", "singlets", "haar", "basis")


class StateFormatError(ValueError):
    """A state file or named-state spec could not be parsed."""


class GuardError(ValueError):
    """Requested system size exceeds the supported limit."""


def _check_qubits(n: int, origin: str) -> None:
    if n < 1:
        raise StateFormatError(f"{origin}: need at least one qubit, got n={n}")
    if n > MAX_QUBITS:
        raise GuardError(f"{origin}: n={n} exceeds the limit of {MAX_QUBITS} qubits")


def _parse_bitstring(token: str, origin: str) -> tuple[int, int]:
    """Return (index, n) for a bitstring with qubit 1 leftmost."""
    bits = token.strip()
    if not bits or any(ch not in "01" for ch in bits):
        raise StateFormatError(f"{origin}: expected a bitstring of 0s and 1s, got {token!r}")
    return int(bits, 2), len(bits)


def _finalize(vec: np.ndarray, origin: str) -> PureState:
    """Normalise vec after an exact power-of-two scaling, so huge or tiny
    amplitudes neither overflow nor underflow the norm; elsewhere the result
    is plain normalisation to the last bit."""
    if not vec.any():
        raise StateFormatError(f"{origin}: all amplitudes are zero")
    vec = _power_of_two_scaled(vec)[0]
    return PureState(vec / np.linalg.norm(vec))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_json(text: str, origin: str) -> tuple[int, list]:
    """(n, amplitude entries) of a JSON state, its header checked."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"{origin}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise StateFormatError(f"{origin}: top level must be an object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise StateFormatError(f"{origin}: field 'n' must be an integer qubit count")
    _check_qubits(n, origin)
    entries = data.get("amplitudes")
    if not isinstance(entries, list):
        raise StateFormatError(f"{origin}: field 'amplitudes' must be a list")
    return n, entries


def _json_error(n: int, entries: list, origin: str) -> NoReturn:
    """Raise the error of the first invalid entry, or with none the error of
    an empty list, the only other list _json_vector declines."""
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
        if not (_is_number(re) and _is_number(im)):
            raise StateFormatError(f"{where}: 're'/'im' must be numbers")
        try:
            finite = math.isfinite(re) and math.isfinite(im)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise StateFormatError(f"{where}: 're'/'im' must be finite numbers")
    raise StateFormatError(f"{origin}: all amplitudes are zero")


def _text_error(text: str, origin: str) -> NoReturn:
    """Raise the error of the first invalid line, or with none the error of
    a text without amplitude lines, the only other text _text_vector declines."""
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
    raise StateFormatError(f"{origin}: no amplitude lines found")


def _bitstring_indices(tokens: list, n: int) -> np.ndarray | None:
    """Indices of the tokens, or None unless each is an n-bit string."""
    if set(map(len, tokens)) != {n}:
        return None
    joined = "".join(tokens)
    if joined.count("0") + joined.count("1") != len(joined):
        return None
    bits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8).reshape(-1, n) - ord("0")
    return bits @ (1 << np.arange(n - 1, -1, -1))


def _columns_vector(n: int, index: np.ndarray | None, parts) -> np.ndarray | None:
    """Vector with the amplitudes parts (re and im interleaved, as numbers
    or number strings) at index, or None unless the indices are distinct and
    every part is a finite number."""
    if index is None or np.bincount(index).max() > 1:
        return None
    try:
        amps = np.fromiter(map(float, parts), np.float64, 2 * index.size).view(np.complex128)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(amps).all():
        return None
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[index] = amps
    return vec


def _text_vector(text: str) -> np.ndarray | None:
    """The amplitudes of a text state, taken in whole columns, or None when
    the text has no amplitude line or an invalid one.  The tokens go into one
    list, not a list per line, so a large file leaves the garbage collector
    no thousands of containers to trace."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] if "#" in line else line for line in lines]
    counts = list(map(len, map(str.split, lines)))
    widths = set(counts) - {0}
    if not widths or not widths <= {2, 3}:
        return None
    if 2 in widths:
        lines = [line + " 0" if k == 2 else line for line, k in zip(lines, counts)]
    flat = " ".join(lines).split()
    bits = flat[::3]
    del flat[::3]
    n = len(bits[0])
    if n > MAX_QUBITS:
        return None
    return _columns_vector(n, _bitstring_indices(bits, n), flat)


def _json_vector(n: int, entries: list) -> np.ndarray | None:
    """The amplitudes of the JSON entries, taken in whole columns, or None
    when the list is empty or an entry is invalid.  Only a file that mixes
    integer indices with bitstrings has them written as bitstrings, and
    bitstrings are stripped only when they do not read as they stand."""
    if set(map(type, entries)) != {dict}:
        return None
    tokens = [entry.get("index") for entry in entries]
    re = [entry.get("re", 0.0) for entry in entries]
    im = [entry.get("im", 0.0) for entry in entries]
    # exact types: bool is a subclass of int
    if not set(map(type, re)) | set(map(type, im)) <= {int, float}:
        return None
    kinds = set(map(type, tokens))
    if kinds == {int}:
        index = np.array(tokens) if min(tokens) >= 0 and max(tokens) < 2**n else None
    elif kinds <= {int, str}:
        if int in kinds:  # a negative or too large integer gets a wrong width
            tokens = [token if type(token) is str else format(token, f"0{n}b") for token in tokens]
        index = _bitstring_indices(tokens, n)
        if index is None:
            index = _bitstring_indices([token.strip() for token in tokens], n)
    else:
        return None
    return _columns_vector(n, index, chain.from_iterable(zip(re, im)))


def parse_state_json(text: str, origin: str = "<json>") -> PureState:
    """Parse a JSON state; an invalid one is reported by its first bad entry."""
    n, entries = _read_json(text, origin)
    vec = _json_vector(n, entries)
    if vec is None:
        _json_error(n, entries, origin)
    return _finalize(vec, origin)


def parse_state_text(text: str, origin: str = "<text>") -> PureState:
    """Parse a text state; an invalid one is reported by its first bad line."""
    vec = _text_vector(text)
    if vec is None:
        _text_error(text, origin)
    return _finalize(vec, origin)


def load_state(path: str) -> PureState:
    """Load a state file, sniffing JSON versus text from the first character."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFormatError(f"{path}: {exc.strerror or exc}") from exc
    parse = parse_state_json if text.lstrip().startswith("{") else parse_state_text
    return parse(text, path)


def _spec_fields(spec: str, name: str, minimum: int, maximum: int) -> list[str]:
    fields = spec.split(":")[1:]
    if not minimum <= len(fields) <= maximum:
        raise StateFormatError(
            f"named state {spec!r}: {name} takes between {minimum} and {maximum} arguments"
        )
    return fields


def _float_field(spec: str, token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise StateFormatError(f"named state {spec!r}: {token!r} is not a number") from exc


def _int_field(spec: str, token: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise StateFormatError(f"named state {spec!r}: {token!r} is not an integer") from exc


def named_state(spec: str, rng=None) -> PureState:
    """Build one of the named states.

    ghz:n[:alpha] (beta derived from normalization), w:n, canon4:a:b_re[:b_im],
    singlets (two singlet pairs on four qubits), haar:n (needs rng: a
    Generator, or a seed that np.random.default_rng takes),
    basis:bitstring.
    """
    name = spec.split(":", 1)[0]
    if name == "ghz":
        fields = _spec_fields(spec, "ghz", 1, 2)
        n = _int_field(spec, fields[0])
        _check_qubits(n, spec)
        if n < 2:
            raise StateFormatError(f"named state {spec!r}: ghz needs n >= 2")
        alpha = _float_field(spec, fields[1]) if len(fields) == 2 else None
        if alpha is not None and not 0.0 < abs(alpha) < 1.0:
            raise StateFormatError(f"named state {spec!r}: need 0 < |alpha| < 1")
        try:
            return ghz_state(n, alpha)
        except ValueError as exc:
            raise StateFormatError(f"named state {spec!r}: {exc}") from exc
    if name == "w":
        fields = _spec_fields(spec, "w", 1, 1)
        n = _int_field(spec, fields[0])
        _check_qubits(n, spec)
        if n < 2:
            raise StateFormatError(f"named state {spec!r}: w needs n >= 2")
        return w_state(n)
    if name == "canon4":
        fields = _spec_fields(spec, "canon4", 2, 3)
        a = _float_field(spec, fields[0])
        b_re = _float_field(spec, fields[1])
        b_im = _float_field(spec, fields[2]) if len(fields) == 3 else 0.0
        try:
            return canonical_four_qubit_state(a, complex(b_re, b_im))
        except ValueError as exc:
            raise StateFormatError(f"named state {spec!r}: {exc}") from exc
    if name == "singlets":
        _spec_fields(spec, "singlets", 0, 0)
        return tensor_product(singlet_state(), singlet_state())
    if name == "haar":
        fields = _spec_fields(spec, "haar", 1, 1)
        n = _int_field(spec, fields[0])
        _check_qubits(n, spec)
        return random_state(n, np.random.default_rng(rng))
    if name == "basis":
        fields = _spec_fields(spec, "basis", 1, 1)
        index, n = _parse_bitstring(fields[0], f"named state {spec!r}")
        _check_qubits(n, spec)
        bits = [(index >> (n - k)) & 1 for k in range(1, n + 1)]
        return basis_state(bits)
    raise StateFormatError(
        f"unknown named state {spec!r}; expected one of {', '.join(NAMED_PREFIXES)}"
    )


def resolve_state(spec: str, rng=None) -> PureState:
    """Interpret a CLI state argument as a named state or a file path."""
    if os.path.exists(spec):
        return load_state(spec)
    if spec.split(":", 1)[0] in NAMED_PREFIXES:
        return named_state(spec, rng)
    raise StateFormatError(
        f"{spec!r} is neither a named state ({', '.join(NAMED_PREFIXES)}) nor an existing file"
    )


def state_to_dict(psi: PureState, cutoff: float = 1e-14) -> dict:
    """JSON-ready description of a state; amplitudes below cutoff are dropped."""
    vec = psi.vector
    amps = [
        {"index": format(i, f"0{psi.n}b"), "re": float(vec[i].real), "im": float(vec[i].imag)}
        for i in np.flatnonzero(np.abs(vec) > cutoff)
    ]
    return {"n": psi.n, "amplitudes": amps}


def state_to_text(psi: PureState, cutoff: float = 1e-14) -> str:
    lines = [f"# {psi.n}-qubit state"]
    for index in np.flatnonzero(np.abs(psi.vector) > cutoff):
        value = psi.vector[index]
        lines.append(f"{format(index, f'0{psi.n}b')} {value.real:+.16e} {value.imag:+.16e}")
    return "\n".join(lines) + "\n"
