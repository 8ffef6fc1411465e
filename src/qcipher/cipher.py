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
# decryption reads the product back from pairs of amplitudes gathered
# through A. Arrays are built by index doubling: appending qubit q as the
# new least significant position keeps qubit 1 the most significant.

# Largest qubit group whose product-state factors the read's check
# contracts as one vector.
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


def _cuts(n: int) -> list[tuple[int, int]]:
    """The qubit slices [a, b) of the balanced groups of at most _GROUP
    qubits in which the read's check contracts n qubits."""
    groups = -(-n // _GROUP)
    cuts = [n * g // groups for g in range(groups + 1)]
    return list(zip(cuts, cuts[1:]))


def _check_block(n: int, p: PlainBlock) -> None:
    """The one check of a plaintext block against the key's block size n."""
    if p.n != n:
        raise InputError(f"plaintext length {p.n} does not match key block size {n}")


def _check_width(n: int, state: StateVector) -> None:
    """The one check of a ciphertext's qubit count against the key's."""
    if state.n != n:
        raise InputError(f"ciphertext has {state.n} qubits, key expects {n}")


def encrypt_block(k: CipherKey, p: PlainBlock) -> CipherBlock:
    """Run the full key circuit on the encoded plaintext (deterministic)."""
    _check_block(k.n, p)
    amps = _encrypt_amps(compile_circuit(key_circuit(k), k.n), p.bits)
    return CipherBlock(_owned(k.n, amps))


def _check_pure(impurity: float, what: str) -> None:
    """IntegrityError unless ``impurity`` is at most PURITY_TOL, written so
    that a NaN impurity (from a NaN amplitude) fails too."""
    if not impurity <= PURITY_TOL:
        raise IntegrityError(
            f"{what} is not a computational basis state (impurity {impurity:.3g}); "
            "tampering, corruption, or a wrong key"
        )


def _read_basis_probs(probs: np.ndarray, n: int, what: str) -> str:
    """The basis index holding all the probability, as bits, or IntegrityError."""
    index = int(np.argmax(probs))
    _check_pure(1.0 - float(probs[index]), what)
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


def _pair_read(cc: CompiledCircuit, g: np.ndarray, x: int) -> int:
    """The key input z of one block from its register gathered through A,
    ``g[x] = psi[A x]`` as rows of float64 values (one per amplitude of a
    real register, a (re, im) pair of a complex one), read at index x.

    An honest block is g = +-prod_q u_q(z_q), where u(0) = (cos, sin) and
    u(1) = (sin, -cos) are the rows of U(theta_q). So the pair w of g at x
    with bit q cleared and set is a multiple of u_q(z_q), and qubit q's own
    inverse rotation sends it to the basis vector z_q: bit q is 1 iff
    |s w0 - c w1| > |c w0 + s w1|. The rows are orthogonal, so this holds
    at |cos| = |sin| too.
    """
    masks = 1 << np.arange(cc.n - 1, -1, -1)
    w0, w1 = g[x & ~masks], g[x | masks]
    c, s = np.cos(cc.thetas)[:, None], np.sin(cc.thetas)[:, None]
    ones = np.sum(np.square(s * w0 - c * w1), axis=1) > np.sum(np.square(c * w0 + s * w1), axis=1)
    return int(masks[ones].sum())


def _decrypt_bits(cc: CompiledCircuit, amps: np.ndarray, what: str, m: int = 1, pairing: tuple[int, ...] = ()) -> str:
    """The one read of every decrypt: the post-inverse basis index of a
    register of m blocks (m = 1 is the block cipher, m > 1 mode 2 under
    ``pairing``), as bits, or IntegrityError.

    Read: one block is gathered through A and read by ``_pair_read`` at the
    argmax x of |g|, so A^-1 is never built. For m >= 2, y = argmax |amps|
    splits into blocks y_1..y_m, read from the last block to the first:
    block i is its row at the prefix y_1..y_{i-1}, gathered through A and
    read at x = A^-1 y_i, which gives z_i and p_i = z_i ^ pi(y_{i-1}); the
    block's axis is then contracted with the rows T[p_i ^ pi] of the key's
    table, one batched product. Block 1 is then read as one block is, at
    x = A^-1 y_1, and the index is z_1 (that is p_1 ^ iv) followed by the
    p_i.

    Check: the circuit U is unitary, so the index's post-inverse
    probability is |<Up|psi>|^2 (Nielsen & Chuang, section 2.1). The later
    blocks' contractions above are its first steps; block 1's gathered row
    is then contracted with the factors of the product state of z_1, row
    z_1 of T, one group of ``_cuts`` at a time. Accept iff the index holds
    all but PURITY_TOL of the probability.
    """
    # Why this read gives the inverse's bits. Suppose the inverse accepts an
    # index z'. Then psi = alpha Enc(z') + e with |e|^2 <= PURITY_TOL +
    # NORM_TOL, so |e| <= 4.5e-5. Each factor of a product state has an
    # entry of magnitude at least 2^-1/2, so under the 24-qubit cap the
    # largest entry of Enc(z') is at least 2^-12 = 2.44e-4, and at the
    # register's argmax the honest part is at least about 1.55e-4. The
    # contractions with unit rows do not grow e. Each pair decision then
    # sees at least 1.1e-4 on the right row and at most 4.5e-5 on the wrong
    # one, so the read gives the same bits or IntegrityError as the
    # inverse, up to rounding at the threshold.
    n, size, width = cc.n, 1 << cc.n, 2 if np.iscomplexobj(amps) else 1
    v = amps.view(np.float64)
    index = [0] * m
    if m > 1:
        # m >= 2 means n <= 12 under the cap, so T, pi, A and A^-1 fit.
        table, pi, idx, unmix = _encrypt_table(cc), _pairing_map(n, pairing), _basis_indices(cc.cols), _unmix(cc.cols)
        top = _argmax_abs(amps)
        ys = [top >> (n * (m - 1 - i)) & (size - 1) for i in range(m)]
        for i in range(m - 1, 0, -1):
            row = v.reshape(-1, size, width)[top >> (n * (m - i))]
            index[i] = _pair_read(cc, np.take(row, idx, axis=0), int(unmix[ys[i]])) ^ int(pi[ys[i - 1]])
            v = np.matmul(table[index[i] ^ pi][:, None, :], v.reshape(-1, size, size, width))
    # A's index array is not kept past this gather: at n = 18, holding it
    # to the end took the read from 2.7 to 3.1 ms (median of 300 calls on
    # a 2-core x86_64 box), through how the freed arrays are reused.
    g = np.take(v.reshape(size, width), _basis_indices(cc.cols), axis=0)
    index[0] = _pair_read(cc, g, int(unmix[ys[0]]) if m > 1 else _argmax_abs(g.view(amps.dtype).ravel()))
    first = index_to_bits(index[0], n)
    for a, b in _cuts(n):
        g = _kron(cc.thetas[a:b], first[a:b]) @ g.reshape(1 << (b - a), -1)
    overlap = complex(*g)
    _check_pure(1.0 - (overlap.real**2 + overlap.imag**2), what)
    return "".join(index_to_bits(p, n) for p in index)


def decrypt_block(k: CipherKey, c: CipherBlock) -> PlainBlock:
    """Read the plaintext bits that the key circuit's inverse would give.

    The read is ``_decrypt_bits``: each plaintext bit is read from one pair
    of amplitudes at the ciphertext's largest one, and the plaintext is
    accepted iff its post-inverse probability is at least 1 - PURITY_TOL.
    Any residual superposition beyond that (tampering, corruption, or a
    wrong key) raises IntegrityError. The inverse circuit never runs.
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
