"""Independent oracles used to cross-check the fast implementation.

Most of what is here is built from first principles (dense matrices,
explicit index arithmetic). The gate-by-gate simulator, ``apply_circuit``
on a gate list and ``inverse_circuit``, lives here too: it runs the
package's two gate kernels (``statevector._single_inplace`` and
``_cnot_inplace``) one gate at a time, as the library did before it ran
every block on the compiled key, and the mode-2 references replay it on
the joint register. So does the compiled inverse circuit, ``_inverse``,
with the receiver's sampled read on it, ``sampled_decrypt_bits``, as the
library ran them before its reads were put in closed form, and the
simulated marginals and probe shifts (``simulated_marginals``,
``simulated_probe_shifts``, ``simulated_flip_shifts``), read from the full
ciphertext as the analysis suite read them before its probes were put in
closed form on A. The JSON
readers at the end parse with json.loads, as the library did before its
"amps" arrays were read in slices, and ``PAIRS_BACKTRACKING`` is the
reader's number-pair grammar with the backtracking quantifiers it had
before they were made possessive.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np

from qcipher.cipher import _basis_indices, _check_width, _cuts, _encrypt_amps, _kron
from qcipher.errors import InputError, IntegrityError, ResourceError
from qcipher.keyschedule import CipherKey, Cnot, CompiledCircuit, SingleU, compile_circuit, key_circuit
from qcipher.statevector import (
    MAX_QUBITS,
    NORM_TOL,
    StateVector,
    _cnot_inplace,
    _single_inplace,
    basis_state,
    index_to_bits,
    marginals,
    tensor,
)


def apply_circuit(s: StateVector, ops, offset: int = 0) -> StateVector:
    """Apply a gate list in order, gate by gate; ``offset`` shifts all
    qubit indices."""
    out = s.amps.copy()
    for op in ops:
        if isinstance(op, SingleU):
            _single_inplace(out, s.n, op.qubit + offset, op.theta)
        else:
            _cnot_inplace(out, s.n, op.control + offset, op.target + offset)
    return StateVector(s.n, out)


def inverse_circuit(k: CipherKey) -> list:
    """Decryption gate list: the key circuit reversed. Every gate is its
    own inverse (U(theta)^2 = I and CNOT^2 = I), so reversal suffices."""
    return list(reversed(key_circuit(k)))


def _inverse(cc: CompiledCircuit, part: np.ndarray) -> np.ndarray:
    """The inverse circuit on one real array of one block: one gather undoes
    A (the amplitude at x comes from A x), then the self-inverse rotation
    layer runs as one matrix product per group of ``cipher._cuts``."""
    idx, mats = _basis_indices(cc.cols), [_kron(cc.thetas[a:b]) for a, b in _cuts(cc.n)]
    part = np.take(part, idx)
    inner = part.size
    for mat in mats:
        inner //= len(mat)
        if inner == 1:
            # On the last axis, one matrix product rather than one
            # matrix-vector product per prefix.
            part = part.reshape(-1, len(mat)) @ mat.T
        else:
            part = np.matmul(mat, part.reshape(-1, len(mat), inner))
    return part.ravel()


def _inverse_probs(cc: CompiledCircuit, amps: np.ndarray) -> np.ndarray:
    """Basis probabilities after the inverse circuit. A complex array's real
    and imaginary parts run as separate float64 arrays; a real one runs
    once."""
    re = _inverse(cc, amps.real)
    probs = np.square(re, out=re)
    if np.iscomplexobj(amps):
        im = _inverse(cc, amps.imag)
        probs += np.square(im, out=im)
    return probs


def read_probs(cc: CompiledCircuit, amps: np.ndarray) -> np.ndarray:
    """The receiver's read distribution: the inverse circuit's basis
    probabilities, normalized."""
    probs = _inverse_probs(cc, amps)
    probs /= probs.sum()
    return probs


def sampled_decrypt_bits(k: CipherKey, state: StateVector, rng: np.random.Generator) -> str:
    """The receiver's physical read: inverse circuit, then one measurement."""
    _check_width(k.n, state)
    probs = read_probs(compile_circuit(key_circuit(k), k.n), state.amps)
    return index_to_bits(int(rng.choice(probs.size, p=probs)), k.n)


def u_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def dense_gate(op, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of one gate, qubit 1 most significant."""
    if isinstance(op, SingleU):
        out = np.array([[1.0]], dtype=complex)
        for q in range(1, n + 1):
            out = np.kron(out, u_matrix(op.theta) if q == op.qubit else np.eye(2, dtype=complex))
        return out
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        control_bit = (b >> (n - op.control)) & 1
        b2 = b ^ (1 << (n - op.target)) if control_bit else b
        out[b2, b] = 1.0
    return out


def dense_apply(ops, vec: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(vec, dtype=complex)
    for op in ops:
        out = dense_gate(op, n) @ out
    return out


def classical_cnot_bits(ops, bits: str) -> str:
    """Propagate classical bits through the CNOTs of a gate list (GF(2))."""
    vals = [int(b) for b in bits]
    for op in ops:
        if isinstance(op, Cnot):
            vals[op.target - 1] ^= vals[op.control - 1]
    return "".join(str(v) for v in vals)


def cnot_matrix(ops, n: int) -> np.ndarray:
    """GF(2) matrix of the CNOTs of a gate list, entry (m, j) = 1 when output
    bit m+1 depends on input bit j+1: column j is unit vector j pushed
    through ``classical_cnot_bits``."""
    out = np.zeros((n, n), dtype=bool)
    for j in range(n):
        unit = "".join("1" if i == j else "0" for i in range(n))
        out[:, j] = [b == "1" for b in classical_cnot_bits(ops, unit)]
    return out


def basis_index_oracle(cols, x: int) -> int:
    """A x in plain integers: the XOR of cols[j] over the set bits of x,
    where bit n-1-j of x is input qubit j+1 (qubit 1 most significant)."""
    n, out = len(cols), 0
    for j, col in enumerate(cols):
        if x >> (n - 1 - j) & 1:
            out ^= col
    return out


def kron_oracle(thetas, bits=None) -> np.ndarray:
    """An np.kron chain of the rotations [[c, s], [s, -c]] in qubit order,
    or, given ``bits``, of their rows bits[q]."""
    out = np.ones((1, 1)) if bits is None else np.ones(1)
    for q, theta in enumerate(thetas):
        c, s = math.cos(theta), math.sin(theta)
        u = np.array([[c, s], [s, -c]])
        out = np.kron(out, u if bits is None else u[int(bits[q])])
    return out


def brute_marginal_p0(amps: np.ndarray, n: int, q: int) -> float:
    """Marginal by explicit sum over basis indices with bit q equal to 0."""
    total = 0.0
    for b in range(1 << n):
        if (b >> (n - q)) & 1 == 0:
            total += abs(amps[b]) ** 2
    return total


def simulated_marginals(cc: CompiledCircuit, bits: str) -> np.ndarray:
    """Per-qubit 0-probabilities of the compiled circuit on |bits>, summed
    per qubit over its full 2^n ciphertext (``cipher._encrypt_amps``)."""
    return marginals(StateVector(cc.n, _encrypt_amps(cc, bits)))


def simulated_probe_shifts(cc: CompiledCircuit, bits: str, alternates) -> np.ndarray:
    """(n, n) array: entry (m, j) is the largest move of qubit m+1's simulated
    marginal when theta_j is replaced by an angle in ``alternates[j]``, one
    encryption per alternate. An angle probe with threshold epsilon sets
    exactly the entries above epsilon."""
    base = simulated_marginals(cc, bits)
    shifts = np.zeros((cc.n, cc.n))
    for j, thetas in enumerate(alternates):
        for theta in thetas:
            alt = replace(cc, thetas=cc.thetas[:j] + (theta,) + cc.thetas[j + 1 :])
            shifts[:, j] = np.maximum(shifts[:, j], np.abs(simulated_marginals(alt, bits) - base))
    return shifts


def simulated_flip_shifts(cc: CompiledCircuit, bits: str) -> np.ndarray:
    """(n, n) array: entry (m, j) is the move of qubit m+1's simulated
    marginal when plaintext bit j+1 flips, one encryption per flip."""
    base = simulated_marginals(cc, bits)
    shifts = np.empty((cc.n, cc.n))
    for j in range(cc.n):
        flip = bits[:j] + ("1" if bits[j] == "0" else "0") + bits[j + 1 :]
        shifts[:, j] = np.abs(simulated_marginals(cc, flip) - base)
    return shifts


def reduced_purity(state: StateVector, keep: list[int]) -> float:
    """Tr(rho^2) of the subsystem given by 1-based qubit indices ``keep``."""
    n = state.n
    keep0 = [q - 1 for q in keep]
    rest = [i for i in range(n) if i not in keep0]
    psi = state.amps.reshape([2] * n).transpose(keep0 + rest)
    psi = psi.reshape(1 << len(keep0), 1 << len(rest))
    rho = psi @ psi.conj().T
    return float(np.real(np.trace(rho @ rho)))


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    v /= np.linalg.norm(v)
    return StateVector(n, v)


def _chain_cnots(n: int, to_block: int, pairing) -> list[Cnot]:
    """The pairing CNOTs: qubit q of block to_block-1 onto qubit
    pairing[q-1] of block to_block (blocks numbered from 1)."""
    base_c, base_t = (to_block - 2) * n, (to_block - 1) * n
    return [Cnot(base_c + q, base_t + pairing[q - 1]) for q in range(1, n + 1)]


def mode2_gate_by_gate(k: CipherKey, blocks: list[str], iv: str, pairing) -> StateVector:
    """Mode-2 joint register, gate by gate: the first block XOR iv through
    the key circuit; each later block tensored on as a basis state, chained
    by the pairing CNOTs and run through the key circuit at its offset."""
    n, ops = k.n, key_circuit(k)
    first = format(int(blocks[0], 2) ^ int(iv, 2), f"0{n}b")
    joint = apply_circuit(basis_state(n, first), ops)
    for i in range(2, len(blocks) + 1):
        joint = tensor(joint, basis_state(n, blocks[i - 1]))
        joint = apply_circuit(joint, _chain_cnots(n, i, pairing))
        joint = apply_circuit(joint, ops, offset=(i - 1) * n)
    return joint


def mode2_gate_by_gate_inverse(k: CipherKey, joint: StateVector, pairing) -> np.ndarray:
    """Post-inverse amplitudes of a mode-2 joint register, gate by gate:
    from the last block to the first, the inverse key circuit at the
    block's offset, then (for every block but the first) the pairing CNOTs."""
    n, inv = k.n, inverse_circuit(k)
    m = joint.n // n
    for i in range(m, 1, -1):
        joint = apply_circuit(joint, inv, offset=(i - 1) * n)
        joint = apply_circuit(joint, _chain_cnots(n, i, pairing))
    return apply_circuit(joint, inv).amps


# The reader's grammar for one or more [re, im] number pairs as it was
# before its quantifiers were possessive: plain greedy repetitions, which
# the engine may backtrack into.
_NUMBER = r"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|NaN|-?Infinity)"
_WS = r"[ \t\n\r]*"
_PAIR = rf"\[{_WS}{_NUMBER}{_WS},{_WS}{_NUMBER}{_WS}\]"
PAIRS_BACKTRACKING = re.compile(rf"{_WS}{_PAIR}(?:{_WS},{_WS}{_PAIR})*{_WS}")


# ---------------------------------------------------------------------------
# The JSON readers as they were before the sliced reader: json.loads of the
# whole text, then np.asarray of the nested lists. They return the
# amplitudes (one array per payload entry for a transmission) or raise the
# CipherError the readers must raise. One rule is stricter than that old
# code and matches the sliced reader: an amplitude must be a JSON number
# (np.asarray also took true as 1.0 and "0.5" as 0.5). And every number
# converts as its text does: -0 is -0.0 (json.loads makes it the integer 0)
# and an overlong integer is inf (np.asarray raised OverflowError).

class _JsonInt(int):
    """A JSON integer that keeps its text."""

    def __new__(cls, text: str):
        value = super().__new__(cls, text)
        value.text = text
        return value


def _json_oracle(text: str, what: str) -> object:
    try:
        return json.loads(text, parse_int=_JsonInt)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid {what} JSON: {exc}") from exc


def _amps_oracle(n: object, amps_field: object) -> np.ndarray:
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError('statevector field "n" must be an integer')
    if n < 1:
        raise InputError(f'statevector field "n" must be >= 1, got {n}')
    if n > MAX_QUBITS:
        raise ResourceError(f"statevector of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    if not isinstance(amps_field, list) or len(amps_field) != (1 << n):
        raise InputError(f'statevector field "amps" must list {1 << n} [re, im] pairs')
    if not all(
        isinstance(pair, list) and len(pair) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        for pair in amps_field
    ):
        raise InputError('each "amps" entry must be an [re, im] pair of numbers')
    pairs = np.array([[float(getattr(v, "text", v)) for v in pair] for pair in amps_field], dtype=np.float64)
    amps = pairs.view(np.complex128).ravel()
    # An amplitude above about 1e154 squares to inf, which fails the check
    # below as it should; the overflow itself is no error of the file.
    with np.errstate(over="ignore"):
        norm = float(np.sum(np.abs(amps) ** 2))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise IntegrityError(f"statevector payload norm {norm!r} deviates from 1")
    return amps


def state_from_json_oracle(text: str) -> np.ndarray:
    obj = _json_oracle(text, "statevector")
    if not isinstance(obj, dict) or set(obj) != {"n", "amps"}:
        raise InputError('statevector JSON must have exactly the fields "n" and "amps"')
    return _amps_oracle(obj["n"], obj["amps"])


def _cipherblock_oracle(obj: object) -> tuple[np.ndarray, int, str, int]:
    if not isinstance(obj, dict) or set(obj) != {"n", "amps", "block_index", "mode"}:
        raise InputError('cipher block JSON needs exactly "n", "amps", "block_index", "mode"')
    index, mode = obj["block_index"], obj["mode"]
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise InputError('"block_index" must be a nonnegative integer')
    if not isinstance(mode, str):
        raise InputError('"mode" must be a string')
    return _amps_oracle(obj["n"], obj["amps"]), index, mode, obj["n"]


def cipherblock_from_json_oracle(text: str) -> np.ndarray:
    return _cipherblock_oracle(_json_oracle(text, "cipher block"))[0]


def transmission_from_json_oracle(text: str) -> list[np.ndarray]:
    obj = _json_oracle(text, "transmission")
    if not isinstance(obj, dict) or set(obj) != {"mode", "n", "m", "iv_public", "payload"}:
        raise InputError('transmission JSON needs exactly "mode", "n", "m", "iv_public", "payload"')
    if obj["iv_public"] is not False:
        raise InputError("the IV is key material; iv_public must be false")
    if obj["mode"] not in ("m1", "m2"):
        raise InputError(f"unknown mode tag {obj['mode']!r}")
    n, m = obj["n"], obj["m"]
    for v in (n, m):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InputError("transmission fields n and m must be nonnegative integers")
    payload = obj["payload"]
    if not isinstance(payload, list):
        raise InputError('"payload" must be a list')
    if obj["mode"] == "m1":
        if len(payload) != 2 * m:
            raise InputError(f"expected {2 * m} payload entries, got {len(payload)}")
        out = []
        for i in range(2 * m):
            amps, index, mode, width = _cipherblock_oracle(payload[i])
            if mode != ("m1", "iv")[i % 2] or index != i // 2 or width != n:
                raise InputError(f"payload entry {i} is out of place")
            out.append(amps)
        return out
    if m == 0:
        if payload:
            raise InputError("empty transmission must have an empty payload")
        return []
    if len(payload) != 1:
        raise InputError("entangling transmissions carry exactly one payload entry")
    amps, index, mode, width = _cipherblock_oracle(payload[0])
    if mode != "m2" or index != 0 or width != m * n:
        raise InputError(f"payload entry is not a joint register of {m * n} qubits")
    return [amps]
