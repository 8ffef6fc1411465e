"""Pure-state simulator for small qubit registers.

Conventions used throughout the package:

* Qubits are numbered 1..n, and qubit 1 is the most significant bit of the
  basis index, so ``basis_state(5, "00101")`` puts amplitude 1 at index 5.
* Amplitudes are stored as complex128 even though the cipher only ever
  produces real states; the rotation gate keeps real inputs real.
* Operations are pure: inputs are never mutated, and every returned
  ``StateVector`` owns a read-only amplitude buffer, so values are safe to
  share between threads. Randomness enters only through an explicitly
  passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrityError, ResourceError

MAX_QUBITS = 24
NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of ``n`` qubits as ``2**n`` complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InputError("qubit count must be an integer")
        if self.n < 1:
            raise InputError(f"qubit count must be >= 1, got {self.n}")
        if self.n > MAX_QUBITS:
            raise ResourceError(f"qubit count {self.n} exceeds the {MAX_QUBITS}-qubit cap")
        amps = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
        if amps.shape != (1 << self.n,):
            raise InputError(f"expected {1 << self.n} amplitudes, got {amps.shape[0]}")
        norm = float(np.sum(np.abs(amps) ** 2))
        # A NaN or infinite amplitude makes the norm NaN or inf, which fails
        # this test (written so that NaN compares as a failure).
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InputError(f"squared norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def size(self) -> int:
        return 1 << self.n


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
    if n > MAX_QUBITS:
        raise ResourceError(f"qubit count {n} exceeds the {MAX_QUBITS}-qubit cap")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


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
    return StateVector(s.n, out)


def apply_cnot(s: StateVector, control: int, target: int) -> StateVector:
    """Flip ``target`` wherever ``control`` is 1 (self-inverse)."""
    _check_qubit(s.n, control, "control")
    _check_qubit(s.n, target, "target")
    if control == target:
        raise InputError("control and target must differ")
    out = s.amps.copy()
    _cnot_inplace(out, s.n, control, target)
    return StateVector(s.n, out)


def marginal_p0(s: StateVector, q: int) -> float:
    """Probability of measuring qubit ``q`` as 0."""
    _check_qubit(s.n, q)
    a = s.amps.reshape(1 << (q - 1), 2, -1)
    return float(np.sum(np.abs(a[:, 0, :]) ** 2))


def _marginals_of(amps: np.ndarray, n: int) -> np.ndarray:
    probs = np.abs(amps) ** 2
    out = np.empty(n)
    for q in range(1, n + 1):
        out[q - 1] = probs.reshape(1 << (q - 1), 2, -1)[:, 0, :].sum()
    return out


def marginals(s: StateVector) -> np.ndarray:
    """Vector of per-qubit probabilities of measuring 0."""
    return _marginals_of(s.amps, s.n)


def measure_all(s: StateVector, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample a full computational-basis measurement (Born rule).

    Deterministic for a given generator state; the collapsed state is the
    basis state of the sampled bitstring.
    """
    probs = np.abs(s.amps) ** 2
    probs /= probs.sum()
    index = int(rng.choice(probs.size, p=probs))
    bits = index_to_bits(index, s.n)
    return MeasurementOutcome(bits, basis_state(s.n, bits))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Joint state with ``a``'s qubits first (most significant)."""
    if a.n + b.n > MAX_QUBITS:
        raise ResourceError(f"joint register of {a.n + b.n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    return StateVector(a.n + b.n, np.kron(a.amps, b.amps))


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.n != b.n:
        raise InputError(f"qubit counts differ: {a.n} vs {b.n}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


# ---------------------------------------------------------------------------
# Serialization. A statevector file is {"n": int, "amps": [[re, im], ...]} in
# ascending basis-index order. Floats are written with 17 significant digits,
# which makes the serialize -> parse round trip bit-exact for doubles.

def _amps_body(amps: np.ndarray) -> str:
    return ", ".join(f"[{z.real:.17g}, {z.imag:.17g}]" for z in amps)


def state_to_json(s: StateVector) -> str:
    return f'{{"n": {s.n}, "amps": [{_amps_body(s.amps)}]}}'


def _state_from_fields(n: object, amps_field: object) -> StateVector:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError('statevector field "n" must be an integer')
    if n < 1:
        raise InputError(f'statevector field "n" must be >= 1, got {n}')
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    if not isinstance(amps_field, list) or len(amps_field) != (1 << n):
        raise InputError(f'statevector field "amps" must list {1 << n} [re, im] pairs')
    try:
        pairs = np.asarray(amps_field, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed amplitude entries: {exc}") from exc
    if pairs.shape != (1 << n, 2):
        raise InputError('each "amps" entry must be an [re, im] pair')
    amps = pairs[:, 0] + 1j * pairs[:, 1]
    norm = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm - 1.0) <= NORM_TOL:
        # Well-formed but non-normalized or non-finite payloads are treated
        # as corruption.
        raise IntegrityError(f"statevector payload norm {norm!r} deviates from 1")
    return StateVector(n, amps)


def state_from_json(text: str) -> StateVector:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid statevector JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"n", "amps"}:
        raise InputError('statevector JSON must have exactly the fields "n" and "amps"')
    return _state_from_fields(obj["n"], obj["amps"])
