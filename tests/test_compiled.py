"""The compiled path (rotation angles plus the GF(2) columns of A) against
the gate-by-gate simulator it replaces in the block cipher and in mode 2."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import cnot_matrix, mode2_gate_by_gate, mode2_gate_by_gate_inverse
from qcipher import modes
from qcipher.cipher import (
    PlainBlock,
    _encrypt_amps,
    _encrypt_table,
    _invert_amps,
    _read_basis_bits,
    apply_circuit,
    encode_plaintext,
)
from qcipher.errors import InputError, IntegrityError
from qcipher.keyschedule import (
    CipherKey,
    Cnot,
    SingleU,
    compile_circuit,
    generate_key,
    key_circuit,
)
from qcipher.statevector import StateVector


def _matrix(cols, n):
    """Boolean A with entry (m, j) = bit of output qubit m+1 in column j."""
    return np.array([[bool(cols[j] >> (n - 1 - m) & 1) for j in range(n)] for m in range(n)])


def _gate_by_gate_read(ops, amps, n):
    return apply_circuit(StateVector(n, amps), list(reversed(ops))).amps


def _compiled_read(ops, amps, n):
    return _invert_amps(compile_circuit(ops, n), amps)


def _outcome(read, ops, amps, n):
    """Post-inverse amplitudes and the purity read: plaintext bits, or the
    IntegrityError type."""
    out = read(ops, amps, n)
    try:
        return out, _read_basis_bits(out, n)
    except IntegrityError:
        return out, IntegrityError


@given(
    n=st.integers(2, 12),
    N=st.sampled_from([4, 8, 16, 256]),
    through_step=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_compiled_path_matches_gate_by_gate(n, N, through_step, seed):
    rng = np.random.default_rng(seed)
    k = generate_key(n, N, rng)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
    ops = key_circuit(k, through_step)
    cc = compile_circuit(ops, n)

    assert np.array_equal(_matrix(cc.cols, n), cnot_matrix(ops, n))

    cipher = apply_circuit(encode_plaintext(bits), ops).amps
    assert np.array_equal(_encrypt_amps(cc, bits), cipher)

    amps_ref, read_ref = _outcome(_gate_by_gate_read, ops, cipher, n)
    amps_new, read_new = _outcome(_compiled_read, ops, cipher, n)
    assert np.array_equal(amps_new, amps_ref)
    assert read_new == read_ref == bits

    # Sign-flip the largest amplitude. With guarded angles (N >= 16) every
    # rotation makes a superposition, so the result is never a basis state.
    tampered = cipher.copy()
    tampered[np.argmax(np.abs(tampered))] *= -1.0
    amps_ref, read_ref = _outcome(_gate_by_gate_read, ops, tampered, n)
    amps_new, read_new = _outcome(_compiled_read, ops, tampered, n)
    assert np.array_equal(amps_new, amps_ref)
    assert read_new == read_ref
    if N >= 16:
        assert read_new is IntegrityError

    # A wrong key one grid step away on one angle leaves a residual rotation
    # by 2*pi/N, a superposition whenever N >= 8.
    theta = list(k.theta_indices)
    j = int(rng.integers(0, n))
    theta[j] = (theta[j] + 1) % N
    wrong = key_circuit(CipherKey(n, N, tuple(theta), k.step3_pairs, k.step4_upstream_order), through_step)
    amps_ref, read_ref = _outcome(_gate_by_gate_read, wrong, cipher, n)
    amps_new, read_new = _outcome(_compiled_read, wrong, cipher, n)
    assert np.array_equal(amps_new, amps_ref)
    assert read_new == read_ref
    if N >= 8:
        assert read_new is IntegrityError


def test_compiled_columns_of_a_small_network():
    # CNOT 1->2 then 2->3 on three qubits: input qubit 1 reaches qubits
    # 1, 2 and 3, input qubit 2 reaches 2 and 3, input qubit 3 only 3.
    ops = [SingleU(q, 0.3 * q) for q in (3, 1, 2)] + [Cnot(1, 2), Cnot(2, 3)]
    cc = compile_circuit(ops, 3)
    assert cc.cols == (0b111, 0b011, 0b001)
    assert cc.thetas == (0.3, 0.6, 0.8999999999999999)


@pytest.mark.parametrize(
    "ops",
    [
        [SingleU(1, 0.1)],
        [SingleU(1, 0.1), SingleU(1, 0.2)],
        [SingleU(1, 0.1), Cnot(1, 2)],
        [SingleU(1, 0.1), SingleU(2, 0.2), Cnot(1, 1)],
        [SingleU(1, 0.1), SingleU(2, 0.2), Cnot(1, 3)],
        [SingleU(1, 0.1), SingleU(2, 0.2), Cnot(1, 2), SingleU(1, 0.3)],
    ],
)
def test_compile_rejects_other_shapes(ops):
    with pytest.raises(InputError):
        compile_circuit(ops, 2)


# Fixed before measuring: the table path forms each amplitude's product of
# rotation factors in another order than the gate-by-gate simulator.
MODE2_AMP_TOL = 1e-15


def _mode2_outcome(decrypt):
    """Decrypted block bits, or the IntegrityError type."""
    try:
        return decrypt()
    except IntegrityError:
        return IntegrityError


@given(
    n=st.integers(2, 8),
    m=st.integers(1, 3),
    N=st.sampled_from([4, 16, 256]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_compiled_mode2_matches_gate_by_gate(n, m, N, seed):
    # The gate-by-gate oracle takes seconds per call above 18 qubits; the
    # benchmark's m2-cap workload checks 3 blocks at n = 8 against its own
    # factorised reference.
    assume(n * m <= 18)
    rng = np.random.default_rng(seed)
    k = generate_key(n, N, rng)
    pairing = tuple(int(q) + 1 for q in rng.permutation(n))
    iv = "".join(str(b) for b in rng.integers(0, 2, size=n))
    blocks = ["".join(str(b) for b in rng.integers(0, 2, size=n)) for _ in range(m)]
    cfg = modes.ModeConfig(modes.Mode.ENTANGLING, iv, pairing)

    cc = compile_circuit(key_circuit(k), n)
    rows = [_encrypt_amps(cc, format(z, f"0{n}b")) for z in range(1 << n)]
    assert np.array_equal(_encrypt_table(cc), np.array(rows))

    ref = mode2_gate_by_gate(k, blocks, iv, pairing)
    t = modes.mode2_encrypt(k, [PlainBlock(b) for b in blocks], cfg)
    assert np.max(np.abs(t.joint.amps - ref.amps)) <= MODE2_AMP_TOL

    def oracle_read(key, state, pair):
        bits = _read_basis_bits(mode2_gate_by_gate_inverse(key, state, pair), n * m)
        chunks = [bits[i * n : (i + 1) * n] for i in range(m)]
        chunks[0] = format(int(chunks[0], 2) ^ int(iv, 2), f"0{n}b")
        return chunks

    def new_read(key, state, pair):
        c = modes.ModeConfig(modes.Mode.ENTANGLING, iv, pair)
        back = modes.mode2_decrypt(key, modes.Transmission(modes.Mode.ENTANGLING, n, m, joint=state), c)
        return [p.bits for p in back]

    assert new_read(k, t.joint, pairing) == oracle_read(k, ref, pairing) == blocks

    amps = t.joint.amps
    flipped = amps.copy()
    flipped[np.argmax(np.abs(amps))] *= -1.0
    perturbed = amps.copy()
    perturbed[np.argmin(np.abs(amps))] += 0.1j
    perturbed /= np.linalg.norm(perturbed)
    theta = list(k.theta_indices)
    j = int(rng.integers(0, n))
    theta[j] = (theta[j] + 1) % N
    wrong_key = CipherKey(n, N, tuple(theta), k.step3_pairs, k.step4_upstream_order)
    wrong_pairing = (pairing[1], pairing[0]) + pairing[2:]
    # (key, state, pairing, IntegrityError guaranteed). With guarded angles
    # (N >= 16) every rotation makes a superposition, so a sign flip, a key
    # one grid step off or (with a second block to chain) a wrong pairing
    # leaves no basis state; an imaginary part on the smallest amplitude
    # never can. A global phase makes the register complex but still
    # decrypts.
    variants = [
        (k, StateVector(n * m, flipped), pairing, N >= 16),
        (k, StateVector(n * m, perturbed), pairing, True),
        (wrong_key, t.joint, pairing, N >= 16),
        (k, t.joint, wrong_pairing, N >= 16 and m >= 2),
        (k, StateVector(n * m, amps * np.exp(0.7j)), pairing, False),
    ]
    for key, state, pair, must_fail in variants:
        want = _mode2_outcome(lambda: oracle_read(key, state, pair))
        got = _mode2_outcome(lambda: new_read(key, state, pair))
        assert got == want
        if must_fail:
            assert got is IntegrityError


def test_mode2_single_block_takes_the_block_path(monkeypatch):
    # At n = 16 a key table would hold 2^32 entries; one block never builds it.
    def no_table(cc):
        raise AssertionError("a single mode-2 block built a key table")

    monkeypatch.setattr(modes, "_encrypt_table", no_table)
    k = generate_key(16, 256, np.random.default_rng(5))
    cfg = modes.ModeConfig(modes.Mode.ENTANGLING, "0110100110010110")
    block = PlainBlock("1010011100001111")
    t = modes.mode2_encrypt(k, [block], cfg)
    assert t.joint.n == 16
    assert modes.mode2_decrypt(k, t, cfg) == [block]
