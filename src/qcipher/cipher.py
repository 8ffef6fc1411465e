"""Single-block encryption and decryption."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, IntegrityError
from .keyschedule import CipherKey, CompiledCircuit, compile_circuit, key_circuit
from .statevector import (
    StateVector,
    _amps_body,
    _check_bits,
    _load_json,
    _owned,
    _state_from_fields,
    index_to_bits,
)

PURITY_TOL = 1e-9


@dataclass(frozen=True)
class PlainBlock:
    """One block of classical plaintext bits."""

    bits: str

    def __post_init__(self) -> None:
        _check_bits(self.bits, "plaintext block")

    @property
    def n(self) -> int:
        return len(self.bits)


@dataclass(frozen=True, eq=False)
class CipherBlock:
    """A quantum ciphertext block plus its position and mode tag."""

    state: StateVector
    block_index: int = 0
    mode: str = "raw"


def xor_bits(a: str, b: str) -> str:
    _check_bits(a, "xor operand")
    _check_bits(b, "xor operand")
    if len(a) != len(b):
        raise InputError(f"bitstring lengths differ: {len(a)} vs {len(b)}")
    return index_to_bits(int(a, 2) ^ int(b, 2), len(a))


# ---------------------------------------------------------------------------
# The compiled path. On a basis input |x> the rotation layer yields the
# product state sum_x prod_q u_q(x_q) |x>, and the CNOTs send |x> to |A x>.
# Encryption builds that product with ``_kron`` and scatters it through A;
# ``_inverse`` undoes both. Arrays are built by index doubling: appending
# qubit q as the new least significant position keeps qubit 1 the most
# significant.

# Largest qubit group whose rotations the inverse applies as one matrix.
_GROUP = 8


def _basis_indices(cols: tuple[int, ...]) -> np.ndarray:
    """``idx[x] = A x`` for every basis index x."""
    idx = np.empty(1 << len(cols), dtype=np.intp)
    idx[0] = 0
    # Column j sets bit n-1-j of x, so the last column doubles first.
    for h, col in enumerate(reversed(cols)):
        np.bitwise_xor(idx[: 1 << h], col, out=idx[1 << h : 2 << h])
    return idx


def _unmix(cols: tuple[int, ...]) -> np.ndarray:
    """``inv[y] = A^-1 y`` for every basis index y: the inverse permutation
    of ``_basis_indices``, by one scatter."""
    idx = _basis_indices(cols)
    inv = np.empty_like(idx)
    inv[idx] = np.arange(idx.size)
    return inv


def _pairing_map(n: int, pairing: tuple[int, ...]) -> np.ndarray:
    """``pi[y]``: the mask mode 2's pairing CNOTs XOR into the next block when
    the previous ciphertext is basis index y (bit q of y lands on bit
    pairing[q-1])."""
    return _basis_indices(tuple(1 << (n - t) for t in pairing))


def _kron(thetas: tuple[float, ...], bits: str | None = None) -> np.ndarray:
    """The Kronecker product of the rotations ``[[c, s], [s, -c]]`` in qubit
    order, or, given ``bits``, of their rows ``bits[q]``: the product state
    of input |bits>. Every entry multiplies its factors in qubit order, as
    the gate-by-gate simulator does."""
    out = np.ones((1, 1))
    for q, theta in enumerate(thetas):
        # U(theta)|0> = (cos, sin) and U(theta)|1> = (sin, -cos).
        c, s = math.cos(theta), math.sin(theta)
        u = [[c, s], [s, -c]] if bits is None else [[c, s] if bits[q] == "0" else [s, -c]]
        # Entry (r, k) times u[i][j] lands at row len(u) r + i, column 2k + j.
        new = np.empty((len(out), len(u), out.shape[1], 2))
        for i, row in enumerate(u):
            for j, v in enumerate(row):
                np.multiply(out, v, out=new[:, i, :, j])
        out = new.reshape(len(out) * len(u), -1)
    return out if bits is None else out[0]


def _encrypt_amps(cc: CompiledCircuit, bits: str) -> np.ndarray:
    """Amplitudes of the circuit applied to |bits>: one scatter of the
    product state through A. They are real, so the array is float64, as
    ``StateVector`` then keeps it (a scatter into complex128 costs three
    times as much), and they equal the gate-by-gate simulator's value for
    value."""
    # A is a bijection, so the scatter writes every entry.
    out = np.empty(1 << cc.n)
    out[_basis_indices(cc.cols)] = _kron(cc.thetas, bits)
    return out


def _encrypt_table(cc: CompiledCircuit) -> np.ndarray:
    """The 2^n x 2^n table whose row z is ``_encrypt_amps`` of input z, value
    for value: the Kronecker product with its columns moved through A, as
    one gather by the inverse of A (at n = 12 a quarter of the time of a
    column scatter through A). The table is real orthogonal: its transpose
    is the circuit's unitary."""
    return np.take(_kron(cc.thetas), _unmix(cc.cols), axis=1)


def _inverse(cc: CompiledCircuit, part: np.ndarray, m: int = 1, pairing: tuple[int, ...] = ()) -> np.ndarray:
    """The inverse circuit on one real array of m blocks of cc.n qubits,
    from the last block to the first; m = 1 is the block cipher, m > 1 is
    mode 2 under the CNOT ``pairing`` (see ``_pairing_map``).

    On each block's axis, one gather undoes A (the amplitude at x comes
    from A x), then the self-inverse rotation layer runs as one matrix
    product per balanced group of at most _GROUP qubits. For every block
    but the first, one more gather along the axis, at p ^ pi(y_{i-1}),
    undoes the pairing CNOTs.
    """
    n, size = cc.n, 1 << cc.n
    groups = -(-n // _GROUP)
    cuts = [n * g // groups for g in range(groups + 1)]
    idx, mats = _basis_indices(cc.cols), [_kron(cc.thetas[a:b]) for a, b in zip(cuts, cuts[1:])]
    for i in range(m, 0, -1):
        rest = size ** (m - i)
        part = np.take(part.reshape(-1, size, rest), idx, axis=1)
        inner = size * rest
        for mat in mats:
            inner //= len(mat)
            if inner == 1:
                # On the last axis, one matrix product rather than one
                # matrix-vector product per prefix.
                part = part.reshape(-1, len(mat)) @ mat.T
            else:
                part = np.matmul(mat, part.reshape(-1, len(mat), inner))
        if i > 1:
            # Built only here: i > 1 means m >= 2, so n <= 12 under the
            # cap and this 2^n x 2^n index array fits.
            chain = (np.arange(size) ^ _pairing_map(n, pairing)[:, None])[None, :, :, None]
            part = np.take_along_axis(part.reshape(-1, size, size, rest), chain, axis=2)
    return part.ravel()


def _inverse_probs(cc: CompiledCircuit, amps: np.ndarray, m: int = 1, pairing: tuple[int, ...] = ()) -> np.ndarray:
    """Basis probabilities after the inverse circuit. A complex array's real
    and imaginary parts run as separate float64 arrays; a real one, as every
    honest ciphertext is, runs once."""
    re = _inverse(cc, amps.real, m, pairing)
    probs = np.square(re, out=re)
    if np.iscomplexobj(amps):
        im = _inverse(cc, amps.imag, m, pairing)
        probs += np.square(im, out=im)
    return probs


def _check_block(k: CipherKey, p: PlainBlock) -> None:
    """The one check of a plaintext block against the key's block size."""
    if p.n != k.n:
        raise InputError(f"plaintext length {p.n} does not match key block size {k.n}")


def _check_width(n: int, state: StateVector) -> None:
    """The one check of a ciphertext's qubit count against the key's."""
    if state.n != n:
        raise InputError(f"ciphertext has {state.n} qubits, key expects {n}")


def encrypt_block(k: CipherKey, p: PlainBlock) -> CipherBlock:
    """Run the full key circuit on the encoded plaintext (deterministic)."""
    _check_block(k, p)
    amps = _encrypt_amps(compile_circuit(key_circuit(k), k.n), p.bits)
    return CipherBlock(_owned(k.n, amps))


def _read_basis_probs(probs: np.ndarray, n: int, what: str) -> str:
    """The basis index holding all the probability, as bits, or IntegrityError."""
    index = int(np.argmax(probs))
    impurity = 1.0 - float(probs[index])
    # Written so that a NaN impurity (from a NaN amplitude) fails too.
    if not impurity <= PURITY_TOL:
        raise IntegrityError(
            f"{what} is not a computational basis state (impurity {impurity:.3g}); "
            "tampering, corruption, or a wrong key"
        )
    return index_to_bits(index, n)


# Amplitudes per slice of ``_argmax_abs``: 512 KiB of float64, 1 MiB of
# complex128.
_ARGMAX_SLICE = 1 << 16


def _argmax_abs(amps: np.ndarray) -> int:
    """``np.argmax(np.abs(amps))`` over slices of _ARGMAX_SLICE amplitudes,
    so no register-sized temporary of magnitudes is made (128 MiB at the
    cap). Ties keep the first maximum, and the first NaN wins, as in numpy."""
    top, best = 0, -1.0
    for a in range(0, amps.size, _ARGMAX_SLICE):
        mags = np.abs(amps[a : a + _ARGMAX_SLICE])
        i = int(np.argmax(mags))
        if np.isnan(mags[i]):
            return a + i
        if mags[i] > best:
            top, best = a + i, mags[i]
    return top


def _guess_read(cc: CompiledCircuit, amps: np.ndarray, m: int = 1, pairing: tuple[int, ...] = ()) -> str | None:
    """The post-inverse basis index of a register of m blocks (m = 1 is the
    block cipher, m > 1 mode 2 under ``pairing``), as bits, found without
    running the inverse; None when the guess fails its check.

    Guess: input z of the key circuit has its largest amplitude at
    A(z ^ flip), where bit q of ``flip`` is set iff |sin theta_q| >
    |cos theta_q|. For m >= 2, y = argmax |amps| splits into blocks
    y_1..y_m, block i's input is z_i = A^-1 y_i ^ flip, and the post-inverse
    index is z_1 (that is p_1 ^ iv) followed by p_i = z_i ^ pi(y_{i-1}). For
    one block, z = x ^ flip for the argmax x of the register gathered
    through A, so A^-1 is never built.

    Check: the circuit U is unitary, so the index's post-inverse probability
    is |<Up|psi>|^2 (Nielsen & Chuang, section 2.1). The overlap contracts
    the register against the guess's chain, last block first: each later
    block is one gather of the key's table T at p_i ^ pi and one batched
    product along its axis. The first block is gathered through A, where
    row z_1 of T is the product state ``_kron`` of z_1, and contracted with
    that state's factors, one balanced group of at most _GROUP qubits at a
    time. The register is contracted as the float64 values it is stored
    as, one per amplitude of a real register and an interleaved (re, im)
    pair of a complex one.
    """
    n, size = cc.n, 1 << cc.n
    flip = int("".join("1" if abs(math.sin(t)) > abs(math.cos(t)) else "0" for t in cc.thetas), 2)
    width = 2 if np.iscomplexobj(amps) else 1
    v = amps.view(np.float64)
    if m > 1:
        # m >= 2 means n <= 12 under the cap, so T, pi and A^-1 fit.
        table, pi, unmix = _encrypt_table(cc), _pairing_map(n, pairing), _unmix(cc.cols)
        top = _argmax_abs(amps)
        ys = [top >> (n * (m - 1 - i)) & (size - 1) for i in range(m)]
        index = [int(unmix[y]) ^ flip for y in ys]
        index[1:] = [z ^ int(pi[y]) for z, y in zip(index[1:], ys)]
        for i in range(m - 1, 0, -1):
            v = np.matmul(table[index[i] ^ pi][:, None, :], v.reshape(-1, size, size, width))
    v = np.take(v.reshape(size, width), _basis_indices(cc.cols), axis=0)
    if m == 1:
        index = [_argmax_abs(v.view(amps.dtype).ravel()) ^ flip]
    first, groups = index_to_bits(index[0], n), -(-n // _GROUP)
    cuts = [n * g // groups for g in range(groups + 1)]
    for a, b in zip(cuts, cuts[1:]):
        v = _kron(cc.thetas[a:b], first[a:b]) @ v.reshape(1 << (b - a), -1)
    overlap = complex(*v)
    # Accept iff the guess holds all but PURITY_TOL of the probability,
    # written so that a NaN overlap fails. The norm is 1 within NORM_TOL, so
    # an accepted index holds more than half: the one the inverse's argmax
    # would read, up to rounding at the threshold.
    if not 1.0 - (overlap.real**2 + overlap.imag**2) <= PURITY_TOL:
        return None
    return "".join(index_to_bits(p, n) for p in index)


def _decrypt_bits(cc: CompiledCircuit, amps: np.ndarray, what: str, m: int = 1, pairing: tuple[int, ...] = ()) -> str:
    """The one read of every decrypt: the guess and check of ``_guess_read``,
    or, when it fails, the inverse's argmax-plus-purity read, which gives
    the same bits or IntegrityError."""
    bits = _guess_read(cc, amps, m, pairing)
    return bits if bits is not None else _read_basis_probs(_inverse_probs(cc, amps, m, pairing), m * cc.n, what)


def decrypt_block(k: CipherKey, c: CipherBlock) -> PlainBlock:
    """Read the plaintext bits that the key circuit's inverse would give.

    The read is ``_decrypt_bits``: the plaintext is guessed from the
    ciphertext's largest amplitude and accepted iff its post-inverse
    probability is at least 1 - PURITY_TOL. Otherwise the inverse runs,
    and its argmax plus purity check gives the same bits, or, for any
    residual superposition beyond PURITY_TOL (tampering, corruption, or a
    wrong key), IntegrityError.
    """
    _check_width(k.n, c.state)
    return PlainBlock(_decrypt_bits(compile_circuit(key_circuit(k), k.n), c.state.amps, "post-inverse state"))


@dataclass(frozen=True)
class GateCounts:
    """Per-step gate counts of a key circuit."""

    step1: int
    step2: int
    step3: int
    step4: int

    @property
    def total(self) -> int:
        return self.step1 + self.step2 + self.step3 + self.step4


def gate_count(k: CipherKey) -> GateCounts:
    n = k.n
    return GateCounts(n, n - 1, len(k.step3_pairs), n if n % 2 == 0 else n - 1)


# ---------------------------------------------------------------------------
# CipherBlock serialization: the statevector file plus a metadata wrapper.

def cipherblock_to_json(c: CipherBlock) -> str:
    return (
        f'{{"n": {c.state.n}, "amps": [{_amps_body(c.state.amps)}], '
        f'"block_index": {c.block_index}, "mode": {json.dumps(c.mode)}}}'
    )


def cipherblock_from_obj(obj: object) -> CipherBlock:
    """A cipher block from one object of a document parsed by
    ``statevector._load_json``, whose "amps" field is then an ``_Amps``."""
    if not isinstance(obj, dict) or set(obj) != {"n", "amps", "block_index", "mode"}:
        raise InputError('cipher block JSON needs exactly "n", "amps", "block_index", "mode"')
    index = obj["block_index"]
    mode = obj["mode"]
    if not isinstance(index, int) or isinstance(index, bool) or index < 0:
        raise InputError('"block_index" must be a nonnegative integer')
    if not isinstance(mode, str):
        raise InputError('"mode" must be a string')
    return CipherBlock(_state_from_fields(obj["n"], obj["amps"]), index, mode)


def cipherblock_from_json(text: str) -> CipherBlock:
    return cipherblock_from_obj(_load_json(text, "cipher block"))
