"""Pure-state simulator for small qubit registers.

Conventions used throughout the package:

* Qubits are numbered 1..n, and qubit 1 is the most significant bit of the
  basis index, so ``basis_state(5, "00101")`` puts amplitude 1 at index 5.
* Real data stays float64 and complex data stays complex128: every state
  the cipher makes is real, and the rotation gate keeps real inputs real.
  A complex array stays complex even when its imaginary part is all zero.
* Operations are pure: inputs are never mutated, and every returned
  ``StateVector`` owns a read-only amplitude buffer, so values are safe to
  share between threads. Randomness enters only through an explicitly
  passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import CipherError, InputError, IntegrityError, ResourceError

MAX_QUBITS = 24
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``n`` qubits as ``2**n`` amplitudes.

    ``amps`` is a read-only copy of the given data: float64 when the data
    is real, complex128 when it is complex (whatever its imaginary part)."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        _check_n(self.n)
        given = np.asarray(self.amps)
        # An object array may hold complex numbers, so it is held as complex.
        real = given.dtype != object and not np.iscomplexobj(given)
        _seal(self, np.array(given, dtype=np.float64 if real else np.complex128, copy=True))

    @property
    def size(self) -> int:
        return 1 << self.n


def _check_n(n: object) -> None:
    """The one qubit-count check: an integer in 1..MAX_QUBITS."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError("qubit count must be an integer")
    if n < 1:
        raise InputError(f"qubit count must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise ResourceError(f"qubit count {n} exceeds the {MAX_QUBITS}-qubit cap")


def _seal(s: StateVector, amps: np.ndarray, bad_norm: type[CipherError] = InputError) -> None:
    """Check the shape and norm of ``amps``, freeze it and store it in ``s``.
    A bad norm raises ``bad_norm``: InputError for amplitudes given in code,
    IntegrityError for amplitudes read from a file, where a well-formed but
    non-normalized or non-finite payload is treated as corruption."""
    amps = amps.reshape(-1)
    if amps.shape != (1 << s.n,):
        raise InputError(f"expected {1 << s.n} amplitudes, got {amps.shape[0]}")
    # One pass and no temporaries. A NaN or infinite amplitude makes the
    # norm NaN or inf, which fails this test (written so that NaN compares
    # as a failure).
    norm = float(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise bad_norm(f"squared norm {norm!r} deviates from 1 beyond {NORM_TOL}")
    amps.flags.writeable = False
    object.__setattr__(s, "amps", amps)


def _owned(n: int, amps: np.ndarray, bad_norm: type[CipherError] = InputError) -> StateVector:
    """A StateVector that takes ``amps`` as its buffer instead of copying it:
    for a float64 or complex128 array the package has just built and keeps
    no other reference to. Every check of the constructor runs; a bad norm
    raises ``bad_norm`` (see ``_seal``)."""
    _check_n(n)
    s = object.__new__(StateVector)
    object.__setattr__(s, "n", n)
    _seal(s, amps, bad_norm)
    return s


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """Result of a full computational-basis measurement."""

    bits: str
    collapsed: StateVector


def _check_qubit(n: int, q: int, name: str = "qubit") -> None:
    if not isinstance(q, int) or isinstance(q, bool) or not 1 <= q <= n:
        raise InputError(f"{name} index {q} out of range 1..{n}")


def _check_bits(bits: str, what: str = "bitstring") -> None:
    """The one bitstring validator: a nonempty ``str`` over {0,1}."""
    if not isinstance(bits, str) or not bits or any(c not in "01" for c in bits):
        raise InputError(f"{what} must be a nonempty string over {{0,1}}, got {bits!r}")


def index_to_bits(index: int, n: int) -> str:
    """Bitstring of a basis index, qubit 1 as the most significant bit."""
    return format(index, f"0{n}b")


def basis_state(n: int, bits: str) -> StateVector:
    """Computational basis state |bits>, e.g. ``basis_state(5, "00101")``."""
    _check_bits(bits)
    if len(bits) != n:
        raise InputError(f"bitstring length {len(bits)} does not match n={n}")
    _check_n(n)
    amps = np.zeros(1 << n)
    amps[int(bits, 2)] = 1.0
    return _owned(n, amps)


def _single_inplace(amps: np.ndarray, n: int, q: int, theta: float) -> None:
    # Rotation U(theta): |0> -> cos|0> + sin|1>, |1> -> sin|0> - cos|1>.
    # Real, symmetric, and self-inverse for every theta.
    c, s = math.cos(theta), math.sin(theta)
    a = amps.reshape(1 << (q - 1), 2, -1)
    top = c * a[:, 0, :] + s * a[:, 1, :]
    a[:, 1, :] = s * a[:, 0, :] - c * a[:, 1, :]
    a[:, 0, :] = top


def _cnot_inplace(amps: np.ndarray, n: int, control: int, target: int) -> None:
    lo, hi = min(control, target), max(control, target)
    a = amps.reshape(1 << (lo - 1), 2, 1 << (hi - lo - 1), 2, -1)
    if control < target:
        tmp = a[:, 1, :, 0, :].copy()
        a[:, 1, :, 0, :] = a[:, 1, :, 1, :]
        a[:, 1, :, 1, :] = tmp
    else:
        tmp = a[:, 0, :, 1, :].copy()
        a[:, 0, :, 1, :] = a[:, 1, :, 1, :]
        a[:, 1, :, 1, :] = tmp


def apply_single(s: StateVector, q: int, theta: float) -> StateVector:
    """Apply the real self-inverse rotation U(theta) to qubit ``q``."""
    _check_qubit(s.n, q)
    out = s.amps.copy()
    _single_inplace(out, s.n, q, float(theta))
    return _owned(s.n, out)


def apply_cnot(s: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` wherever ``control`` is 1 (self-inverse)."""
    _check_qubit(s.n, control, "control")
    _check_qubit(s.n, target, "target")
    if control == target:
        raise InputError("control and target must differ")
    out = s.amps.copy()
    _cnot_inplace(out, s.n, control, target)
    return _owned(s.n, out)


def _marginals_of(amps: np.ndarray, n: int) -> np.ndarray:
    probs = np.abs(amps) ** 2
    out = np.empty(n)
    for q in range(1, n + 1):
        out[q - 1] = probs.reshape(1 << (q - 1), 2, -1)[:, 0, :].sum()
    return out


def marginals(s: StateVector) -> np.ndarray:
    """Vector of per-qubit probabilities of measuring 0."""
    return _marginals_of(s.amps, s.n)


def _born(amps: np.ndarray) -> np.ndarray:
    """The Born-rule distribution of ``amps``: |a|^2, normalized. Every
    sampled measurement of the package draws from this array."""
    probs = np.abs(amps) ** 2
    probs /= probs.sum()
    return probs


def measure_all(s: StateVector, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample a full computational-basis measurement (Born rule).

    Deterministic for a given generator state; the collapsed state is the
    basis state of the sampled bitstring.
    """
    probs = _born(s.amps)
    index = int(rng.choice(probs.size, p=probs))
    bits = index_to_bits(index, s.n)
    return MeasurementOutcome(bits, basis_state(s.n, bits))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with ``a``'s qubits first (most significant)."""
    _check_n(a.n + b.n)
    return _owned(a.n + b.n, np.kron(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n != b.n:
        raise InputError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# Serialization. A statevector file is {"n": int, "amps": [[re, im], ...]} in
# ascending basis-index order. Floats are written with 17 significant digits,
# which makes the serialize -> parse round trip bit-exact for doubles. Every
# "amps" array of every file (statevector, cipher block, transmission) is
# written by _amps_body and read by _load_json; no other code knows its text.

_SLICE = 1 << 16  # pairs formatted by one template
_CHUNK = 1 << 20  # characters of an "amps" array converted at a time


def _amps_body(amps: np.ndarray) -> str:
    """The text of the pairs, without the outer brackets: one %-template per
    slice of pairs. A real array formats only its values, and the template
    holds the 0 that %.17g writes for an imaginary part of +0."""
    if np.iscomplexobj(amps):
        template, flat, width = "[%.17g, %.17g]", amps.view(np.float64), 2
    else:
        template, flat, width = "[%.17g, 0]", amps, 1
    parts = []
    for a in range(0, amps.size, _SLICE):
        values = flat[a * width : (a + _SLICE) * width].tolist()
        parts.append(", ".join([template] * (len(values) // width)) % tuple(values))
    return ", ".join(parts)


def state_to_json(s: StateVector) -> str:
    return f'{{"n": {s.n}, "amps": [{_amps_body(s.amps)}]}}'


@dataclass(frozen=True, eq=False)
class _Amps:
    """An "amps" array cut out of a JSON text and checked, not yet converted:
    the spans of its chunks, each with its pair count and whether every
    imaginary part in it is the literal 0. ``chunks`` is None when the array
    is valid JSON but not a list of [re, im] number pairs."""

    text: str
    chunks: tuple[tuple[int, int, int, bool], ...] | None

    def pairs(self) -> int | None:
        return None if self.chunks is None else sum(c[2] for c in self.chunks)

    def values(self) -> np.ndarray:
        """One split and one float conversion per chunk, with no list per pair:
        float64 when every imaginary part is the literal 0, else complex128."""
        real = all(c[3] for c in self.chunks)
        out = np.zeros(self.pairs(), dtype=np.float64 if real else np.complex128)
        at = 0
        for a, b, pairs, zero_im in self.chunks:
            words = self.text[a:b].translate(_NO_BRACKETS).split(",")
            out.real[at : at + pairs] = np.fromiter(map(float, words[0::2]), np.float64, pairs)
            if not zero_im:
                out.imag[at : at + pairs] = np.fromiter(map(float, words[1::2]), np.float64, pairs)
            at += pairs
        return out


# JSON's grammar for a number, plus the three words Python's json module
# also reads as numbers. Every quantifier is possessive: what follows a
# number, a digit run or a whitespace run can never start with what it
# consumed, so giving some back could not turn a failure into a match, and
# the engine keeps no backtracking state per pair.
_NUMBER = r"(?:-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][+-]?+[0-9]++)?+|NaN|-?+Infinity)"
_WS = r"[ \t\n\r]*+"
_PAIR = rf"\[{_WS}{_NUMBER}{_WS},{_WS}{_NUMBER}{_WS}\]"
# One or more pairs, matched over a whole "amps" array at once. With a
# backtracking repetition CPython's engine slows down as the repetition
# grows; the possessive one runs in linear time and constant memory. On a
# 2-core x86_64 box, 1 MiB of a cipher block's array took about 70 ms
# backtracking and 8-12 ms possessive, and the possessive match stayed at
# 10-12 ms per MiB up to 29 MiB.
_PAIRS = re.compile(rf"{_WS}{_PAIR}(?:{_WS},{_WS}{_PAIR})*+{_WS}")
_SPACE = re.compile(_WS)
_AMPS_KEY = re.compile(rf'"amps"{_WS}:{_WS}\[')
_NO_BRACKETS = str.maketrans("[]", "  ")


def _scan_amps(text: str, start: int, what: str) -> tuple[_Amps, int]:
    """Check the JSON array that opens at ``text[start]``; return it and the
    index just past it. A syntax error raises InputError; valid JSON that is
    not a list of number pairs comes back with ``chunks`` None, for the
    caller to reject in its turn."""
    pos = _SPACE.match(text, start + 1).end()
    if text.startswith("]", pos):
        return _Amps(text, ()), pos + 1
    found = _PAIRS.match(text, pos)
    if found is None:
        return _other_array(text, pos, what)
    end = found.end()  # _PAIRS ends with the whitespace after the last pair
    if text.startswith(",", end):
        return _other_array(text, end + 1, what)
    if not text.startswith("]", end):
        raise InputError(f"invalid {what} JSON: expected ',' or ']' at character {end}")
    # Conversion chunks of at least _CHUNK characters, each ending at the
    # comma after a pair's "]" (inside the match every "]" closes a pair).
    chunks: list[tuple[int, int, int, bool]] = []
    a = start + 1
    while a < end:
        close = text.find("]", a + _CHUNK - 1, end)
        comma = text.find(",", close, end) if close >= 0 else -1
        b = comma if comma >= 0 else end
        pairs = text.count("[", a, b)
        chunks.append((a, b, pairs, text.count(", 0]", a, b) == pairs))
        a = b + 1
    return _Amps(text, tuple(chunks)), end + 1


def _other_array(text: str, pos: int, what: str) -> tuple[_Amps, int]:
    """The rest of an "amps" array from ``pos``, where an element that is no
    number pair starts: parsed one element at a time by the stdlib decoder,
    only to learn whether the array is JSON and where it ends."""
    decoder = json.JSONDecoder()
    try:
        while True:
            _, pos = decoder.raw_decode(text, _SPACE.match(text, pos).end())
            pos = _SPACE.match(text, pos).end()
            if text.startswith("]", pos):
                return _Amps(text, None), pos + 1
            if not text.startswith(",", pos):
                raise ValueError(f"expected ',' or ']' at character {pos}")
            pos += 1
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from exc


def _load_json(text: str, what: str) -> object:
    """Parse a JSON document whose "amps" arrays are read by _scan_amps and
    stand in the result as _Amps; the envelope around them, a few hundred
    bytes, goes through json.loads. A syntax error anywhere raises
    InputError before any field is looked at."""
    if not isinstance(text, str):
        raise InputError(f"{what} JSON must be a str, got {type(text).__name__}")
    segments, arrays, pos = [], [], 0
    while (found := _AMPS_KEY.search(text, pos)) is not None:
        array, end = _scan_amps(text, found.end() - 1, what)
        segments.append(text[pos : found.end() - 1])
        arrays.append(array)
        pos = end
    segments.append(text[pos:])
    # Each array is replaced by a number token that occurs nowhere else in the
    # text (a number, unlike a string, has no escaped spelling), and
    # parse_float hands the array back where json.loads meets that token.
    mark = "-1.5e-0"
    while any(mark in s for s in segments):
        mark += "0"
    envelope = "".join(f"{s} {mark}{i} " for i, s in enumerate(segments[:-1])) + segments[-1]

    def number(token: str) -> object:
        return arrays[int(token[len(mark) :])] if token.startswith(mark) else float(token)

    try:
        return json.loads(envelope, parse_float=number)
    except (ValueError, RecursionError) as exc:
        # A decoder position would count characters of the envelope, not of the text.
        detail = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
        raise InputError(f"invalid {what} JSON: {detail}") from exc


def _state_from_fields(n: object, amps_field: object) -> StateVector:
    _check_n(n)  # before 1 << n is formed
    if not isinstance(amps_field, _Amps) or amps_field.pairs() != 1 << n:
        raise InputError(f'statevector field "amps" must be an array of {1 << n} [re, im] number pairs')
    return _owned(n, amps_field.values(), IntegrityError)


def state_from_json(text: str) -> StateVector:
    obj = _load_json(text, "statevector")
    if not isinstance(obj, dict) or set(obj) != {"n", "amps"}:
        raise InputError('statevector JSON must have exactly the fields "n" and "amps"')
    return _state_from_fields(obj["n"], obj["amps"])
