"""Independent oracles used to cross-check the fast implementation.

Everything here is built from first principles (dense matrices, explicit
index arithmetic) and never calls the package's gate kernels, except the
mode-2 reference at the end, which replays the package's gate-by-gate
simulator on the joint register as the library did before mode 2 ran on
the compiled key.
"""

import numpy as np

from qcipher.cipher import apply_circuit
from qcipher.keyschedule import CipherKey, Cnot, SingleU, inverse_circuit, key_circuit
from qcipher.statevector import StateVector, basis_state, tensor


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


def brute_marginal_p0(amps: np.ndarray, n: int, q: int) -> float:
    """Marginal by explicit sum over basis indices with bit q equal to 0."""
    total = 0.0
    for b in range(1 << n):
        if (b >> (n - q)) & 1 == 0:
            total += abs(amps[b]) ** 2
    return total


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
