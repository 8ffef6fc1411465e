"""Independent reference computations for the benchmark's output checks.

Nothing here calls the program's gate kernels or circuit builders. The key's
gates are rebuilt from the key's fields, as the cipher is described: a layer
of rotations U(theta) = [[cos, sin], [sin, -cos]], then three CNOT steps.
Since the CNOTs only permute basis indices, the ciphertext of a basis block
is a product state whose indices the key's GF(2) CNOT matrix A permutes, and
every marginal is closed-form: <Z_m> = (-1)^((A p)_m) * prod_{j in row m(A)}
cos(2 theta_j).
"""

from __future__ import annotations

import math

import numpy as np


def key_cnots(key) -> list[tuple[int, int]]:
    """(control, target) pairs of steps 2-4, rebuilt from the key's fields.

    Step 2 is the ascending chain q -> q+1. Step 3 sends each paired
    downstream qubit onto its upstream partner. Step 4 walks a zigzag: the
    downstream qubits from the top (an odd n opens with the unpaired qubit
    n//2 + 1), each feeding the next upstream qubit of the key's order, which
    feeds the next downstream qubit; the last upstream qubit feeds the last
    downstream qubit.
    """
    n, half = key.n, key.n // 2
    gates = [(q, q + 1) for q in range(1, n)]
    gates += sorted((int(d), int(u)) for d, u in key.step3_pairs)
    downs = list(range(n, half, -1))
    if n % 2:
        downs = [half + 1] + downs[:-1]
    for t, u in enumerate(key.step4_upstream_order):
        gates.append((downs[t], u))
        gates.append((u, downs[min(t + 1, len(downs) - 1)]))
    return gates


class KeyRef:
    """What a key must do to basis blocks, computed without the program."""

    def __init__(self, key):
        self.n = n = key.n
        self.N = key.N
        self.theta_indices = tuple(key.theta_indices)
        self.thetas = np.array([2.0 * math.pi * t / key.N for t in key.theta_indices])
        cols = []
        for j in range(1, n + 1):
            x = 1 << (n - j)
            for c, t in key_cnots(key):
                if (x >> (n - c)) & 1:
                    x ^= 1 << (n - t)
            cols.append(x)
        # cols[j] is the basis-index mask that input qubit j+1 maps onto.
        self.cols = cols
        self.A = np.array([[(cols[j] >> (n - 1 - m)) & 1 for j in range(n)] for m in range(n)], dtype=bool)
        self._perm = None

    def perm(self) -> np.ndarray:
        """perm[x] = A x for every basis index x (qubit 1 most significant)."""
        if self._perm is None:
            idx = np.zeros(1, dtype=np.int64)
            for c in self.cols:
                idx = np.stack([idx, idx ^ c], axis=1).ravel()
            self._perm = idx
        return self._perm

    def encrypt(self, bits: str) -> np.ndarray:
        """Real amplitudes of the ciphertext of basis block ``bits``."""
        v = np.ones(1)
        for b, th in zip(bits, self.thetas):
            c, s = math.cos(th), math.sin(th)
            v = np.outer(v, (c, s) if b == "0" else (s, -c)).ravel()
        out = np.empty_like(v)
        out[self.perm()] = v
        return out

    def apply_a(self, bits: str) -> str:
        x = 0
        for j, b in enumerate(bits):
            if b == "1":
                x ^= self.cols[j]
        return format(x, f"0{self.n}b")

    def z_expectations(self, bits: str) -> np.ndarray:
        c2 = np.cos(2.0 * self.thetas)
        signs = np.array([-1.0 if b == "1" else 1.0 for b in self.apply_a(bits)])
        return signs * np.array([np.prod(c2[row]) for row in self.A])

    def p0(self, bits: str) -> np.ndarray:
        """Closed-form probability that each ciphertext qubit reads 0."""
        return (1.0 + self.z_expectations(bits)) / 2.0

    def collision_probability(self) -> float:
        c, s = np.cos(self.thetas), np.sin(self.thetas)
        return float(np.prod(c**4 + s**4))

    def rotation_layer_p0(self, bits: str) -> np.ndarray:
        c2 = np.cos(self.thetas) ** 2
        return np.array([c if b == "0" else 1.0 - c for b, c in zip(bits, c2)])

    def numeric_shifts(self, grid: int) -> np.ndarray:
        """Largest marginal shift of qubit m when theta_j takes each of the
        ``grid`` probe values spread around the circle (entry (m, j))."""
        n, N = self.n, self.N
        c2 = np.cos(2.0 * self.thetas)
        offsets = sorted({round(t * N / (grid + 1)) for t in range(1, grid + 1)} & set(range(1, N)))
        out = np.zeros((n, n))
        for m in range(n):
            row = np.flatnonzero(self.A[m])
            for j in row:
                others = float(np.prod(c2[row[row != j]]))
                alts = [math.cos(4.0 * math.pi * ((self.theta_indices[j] + o) % N) / N) for o in offsets]
                out[m, j] = max(abs(others * (c2[j] - a)) / 2.0 for a in alts)
        return out

    def flip_shifts(self) -> np.ndarray:
        """Marginal shift of qubit m when plaintext bit j flips (entry (m, j))."""
        c2 = np.cos(2.0 * self.thetas)
        full = np.array([abs(np.prod(c2[row])) for row in self.A])
        return self.A * full[:, None]


def above(shifts: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Entries whose shift exceeds ``eps``, and the entries within 0.1 % of
    ``eps``, where rounding decides and no answer is checked."""
    return shifts > eps, np.abs(shifts - eps) <= 1e-3 * eps


def pairing_map(n: int, pairing) -> np.ndarray:
    """pi[x] for every n-bit x: bit q of x lands on bit pairing[q-1]."""
    out = np.zeros(1 << n, dtype=np.int64)
    xs = np.arange(1 << n)
    for q in range(1, n + 1):
        out |= ((xs >> (n - q)) & 1) << (n - pairing[q - 1])
    return out


def mode2_max_error(joint: np.ndarray, ref: KeyRef, blocks: list[str], iv: str, pairing) -> float:
    """Largest |psi - reference| over the joint register of mode 2.

    psi(x1, ..., xm) = E(p1 ^ iv)[x1] * prod_i E(p_i ^ pi(x_{i-1}))[x_i]. The
    comparison runs over slices of the last two blocks, so no second copy of
    the register is held.
    """
    n, m = ref.n, len(blocks)
    size = 1 << n
    table = np.array([ref.encrypt(format(b, f"0{n}b")) for b in range(size)])
    pi = pairing_map(n, pairing)
    words = [int(b, 2) for b in blocks]
    first = table[words[0] ^ int(iv, 2)]
    last = table[words[-1] ^ pi]  # [x_{m-1}, x_m]
    psi = joint.reshape(-1, size, size)
    worst = 0.0
    for s in range(psi.shape[0]):
        # Decode the prefix (x1 .. x_{m-1}) of slice s, most significant first.
        xs = [(s >> (n * (m - 3 - i))) & (size - 1) for i in range(m - 2)]
        if m == 2:
            column = first
        else:
            coef = first[xs[0]]
            for i in range(1, m - 2):
                coef *= table[words[i] ^ pi[xs[i - 1]]][xs[i]]
            column = coef * table[words[m - 2] ^ pi[xs[-1]]]
        worst = max(worst, float(np.max(np.abs(psi[s] - column[:, None] * last))))
    return worst
