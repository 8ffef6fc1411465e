"""The compiled path (rotation angles plus the GF(2) columns of A) against
the gate-by-gate simulator it replaces in the block cipher and in mode 2."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    apply_circuit,
    basis_index_oracle,
    cnot_matrix,
    kron_oracle,
    mode2_gate_by_gate,
    mode2_gate_by_gate_inverse,
)
from qcipher import modes
from qcipher.cipher import (
    PlainBlock,
    _basis_indices,
    _encrypt_amps,
    _encrypt_table,
    _inverse,
    _inverse_probs,
    _kron,
    _read_basis_probs,
    _unmix,
    decrypt_block,
    encrypt_block,
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
from qcipher.statevector import StateVector, basis_state


def _matrix(cols, n):
    """Boolean A with entry (m, j) = bit of output qubit m+1 in column j."""
    return np.array([[bool(cols[j] >> (n - 1 - m) & 1) for j in range(n)] for m in range(n)])


# Fixed before measuring. The compiled inverse multiplies a block by at most
# three group matrices (n <= 24 in groups of at most 8 qubits). Each entry of
# a product is a dot product of at most 2^8 terms whose absolute values sum
# to at most 1 (a unit row against part of a unit vector), so it is off by
# at most about 2^8 * 2^-53 (Higham's gamma_k bound), and three groups by at
# most 3 * 2^8 * 2^-53 = 8.5e-14. The gate-by-gate reference adds n two-term
# sums per amplitude, far less.
INVERSE_AMP_TOL = 1e-13


def _read(probs, n):
    """The purity read: plaintext bits, or the IntegrityError type."""
    try:
        return _read_basis_probs(probs, n, "post-inverse state")
    except IntegrityError:
        return IntegrityError


def _inverse_read(ops, amps, n):
    """The compiled inverse of ``ops`` on ``amps`` against the reversed gate
    list: real and imaginary amplitudes within INVERSE_AMP_TOL and the same
    read, which is returned."""
    ref = apply_circuit(StateVector(n, amps), list(reversed(ops))).amps
    cc = compile_circuit(ops, n)
    assert np.max(np.abs(_inverse(cc, amps.real) - ref.real)) <= INVERSE_AMP_TOL
    assert np.max(np.abs(_inverse(cc, amps.imag) - ref.imag)) <= INVERSE_AMP_TOL
    read = _read(_inverse_probs(cc, amps), n)
    assert read == _read(np.abs(ref) ** 2, n)
    return read


@pytest.mark.parametrize("n", range(1, 21))
def test_basis_indices_and_kron_match_oracles(n):
    rng = np.random.default_rng(900 + n)
    # Any columns, singular ones included: the doubling must not rely on A
    # being a bijection.
    cols = tuple(int(c) for c in rng.integers(0, 1 << n, n))
    idx = _basis_indices(cols)
    assert idx.shape == (1 << n,)
    # Every x up to n = 14; beyond, the corners, the unit vectors and a sample.
    xs = range(1 << n) if n <= 14 else sorted(
        {0, (1 << n) - 1, *(1 << j for j in range(n)), *(int(x) for x in rng.integers(0, 1 << n, 4096))}
    )
    assert np.array_equal(idx[list(xs)], [basis_index_oracle(cols, x) for x in xs])
    thetas = tuple(float(t) for t in rng.uniform(0, 2 * np.pi, n))
    bits = "".join(rng.choice(["0", "1"], n))
    assert np.array_equal(_kron(thetas, bits), kron_oracle(thetas, bits))
    if n <= 10:
        assert np.array_equal(_kron(thetas), kron_oracle(thetas))


@pytest.mark.parametrize("n", range(2, 21))
def test_basis_indices_of_a_key_is_a_permutation(n):
    # What lets _encrypt_amps start from np.empty: the scatter through A
    # writes every entry exactly once.
    k = generate_key(n, 256, np.random.default_rng(950 + n))
    idx = _basis_indices(compile_circuit(key_circuit(k), n).cols)
    assert np.array_equal(np.sort(idx), np.arange(1 << n))


@pytest.mark.parametrize("n", range(1, 13))
def test_unmix_is_argsort_of_basis_indices(n):
    # _encrypt_table and mode 2's guess share this one inverse of A.
    rng = np.random.default_rng(970 + n)
    circuits = [[SingleU(1, 0.3)]] if n == 1 else [key_circuit(generate_key(n, 256, rng)) for _ in range(3)]
    for ops in circuits:
        cols = compile_circuit(ops, n).cols
        assert np.array_equal(_unmix(cols), np.argsort(_basis_indices(cols)))


@pytest.mark.parametrize("n", range(2, 13))
def test_encrypt_table_rows_are_encrypt_amps(n):
    # Every row up to n = 8, the width of mode 2 at three or more blocks,
    # where its encryption and its guess check read the table; the
    # corners and 64 sampled rows beyond.
    rng = np.random.default_rng(970 + n)
    cc = compile_circuit(key_circuit(generate_key(n, 256, rng)), n)
    table = _encrypt_table(cc)
    rows = range(1 << n) if n <= 8 else [0, (1 << n) - 1, *rng.integers(0, 1 << n, size=64)]
    for z in rows:
        want = _encrypt_amps(cc, format(int(z), f"0{n}b"))
        assert np.array_equal(table[z].view(np.uint64), want.view(np.uint64)), z


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

    cipher = apply_circuit(basis_state(n, bits), ops).amps
    assert np.array_equal(_encrypt_amps(cc, bits), cipher)

    assert _inverse_read(ops, cipher, n) == bits

    # Sign-flip the largest amplitude. With guarded angles (N >= 16) every
    # rotation makes a superposition, so the result is never a basis state.
    tampered = cipher.copy()
    tampered[np.argmax(np.abs(tampered))] *= -1.0
    read = _inverse_read(ops, tampered, n)
    if N >= 16:
        assert read is IntegrityError

    # A wrong key one grid step away on one angle leaves a residual rotation
    # by 2*pi/N, a superposition whenever N >= 8.
    theta = list(k.theta_indices)
    j = int(rng.integers(0, n))
    theta[j] = (theta[j] + 1) % N
    wrong = key_circuit(CipherKey(n, N, tuple(theta), k.step3_pairs, k.step4_upstream_order), through_step)
    read = _inverse_read(wrong, cipher, n)
    if N >= 8:
        assert read is IntegrityError


@pytest.mark.parametrize("n, seed", [(17, 3), (18, 4)])
def test_three_group_inverse_matches_gate_by_gate(n, seed):
    # Above 16 qubits the inverse runs three group matrices.
    rng = np.random.default_rng(seed)
    k = generate_key(n, 256, rng)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
    ops = key_circuit(k)
    cipher = apply_circuit(basis_state(n, bits), ops).amps
    assert np.array_equal(_encrypt_amps(compile_circuit(ops, n), bits), cipher)

    flipped = cipher.copy()
    flipped[np.argmax(np.abs(cipher))] *= -1.0
    perturbed = cipher.astype(np.complex128)
    perturbed[np.argmin(np.abs(cipher))] += 0.1j
    perturbed /= np.linalg.norm(perturbed)
    theta = list(k.theta_indices)
    theta[int(rng.integers(0, n))] ^= 1
    wrong = key_circuit(CipherKey(n, 256, tuple(theta), k.step3_pairs, k.step4_upstream_order))
    assert _inverse_read(ops, cipher, n) == bits
    assert _inverse_read(ops, cipher * np.exp(0.7j), n) == bits
    assert _inverse_read(ops, flipped, n) is IntegrityError
    assert _inverse_read(ops, perturbed, n) is IntegrityError
    assert _inverse_read(wrong, cipher, n) is IntegrityError


def test_block_round_trip_at_22_qubits():
    rng = np.random.default_rng(22)
    k = generate_key(22, 256, rng)
    p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=22)))
    assert decrypt_block(k, encrypt_block(k, p)) == p


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
    N=st.sampled_from([4, 8, 16, 256]),
    seed=st.integers(0, 2**32 - 1),
)
# Two blocks of 9 qubits: the inverse splits each block into two groups and
# multiplies the first block's groups with the second block's axis behind it.
@example(n=9, m=2, N=256, seed=9)
@example(n=9, m=2, N=16, seed=10)
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
        amps = mode2_gate_by_gate_inverse(key, state, pair)
        # The compiled inverse's real and imaginary amplitudes against the
        # oracle's. Over all m blocks it runs at most three groups' worth of
        # 2^8-term dot products (n * m <= 24), so INVERSE_AMP_TOL holds.
        cck = compile_circuit(key_circuit(key), n)
        for part, ref in ((state.amps.real, amps.real), (state.amps.imag, amps.imag)):
            assert np.max(np.abs(_inverse(cck, part, m, pair) - ref)) <= INVERSE_AMP_TOL
        bits = _read_basis_probs(np.abs(amps) ** 2, n * m, "joint register")
        chunks = [bits[i * n : (i + 1) * n] for i in range(m)]
        chunks[0] = format(int(chunks[0], 2) ^ int(iv, 2), f"0{n}b")
        return chunks

    def new_read(key, state, pair):
        c = modes.ModeConfig(modes.Mode.ENTANGLING, iv, pair)
        back = modes.mode2_decrypt(key, modes.Transmission(modes.Mode.ENTANGLING, n, m, joint=state), c)
        return [p.bits for p in back]

    def guess_read(key, state, pair):
        """The guess-and-check read of m >= 2 blocks on its own: when it
        accepts, the inverse's read gives the same bits; None otherwise."""
        if m == 1:
            return None
        cck = compile_circuit(key_circuit(key), n)
        bits = modes._mode2_read(cck, state.amps, m, pair)
        if bits is not None:
            assert bits == _read(_inverse_probs(cck, state.amps, m, pair), n * m)
        return bits

    assert new_read(k, t.joint, pairing) == oracle_read(k, ref, pairing) == blocks

    amps = t.joint.amps
    flipped = amps.copy()
    flipped[np.argmax(np.abs(amps))] *= -1.0
    perturbed = amps.astype(np.complex128)
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
    # never can. A global phase, or a factor 1j that leaves every real part
    # zero, makes the register complex but still decrypts.
    variants = [
        (k, t.joint, pairing, False),
        (k, StateVector(n * m, flipped), pairing, N >= 16),
        (k, StateVector(n * m, perturbed), pairing, True),
        (wrong_key, t.joint, pairing, N >= 16),
        (k, t.joint, wrong_pairing, N >= 16 and m >= 2),
        (k, StateVector(n * m, amps * np.exp(0.7j)), pairing, False),
        (k, StateVector(n * m, amps * 1j), pairing, False),
    ]
    for key, state, pair, must_fail in variants:
        want = _mode2_outcome(lambda: oracle_read(key, state, pair))
        got = _mode2_outcome(lambda: new_read(key, state, pair))
        assert got == want
        if must_fail:
            assert got is IntegrityError
            assert guess_read(key, state, pair) is None
        elif m >= 2 and N != 8 and got is not IntegrityError:
            # Off the N = 8 grid every row of T has one largest entry,
            # so a register that decrypts has its largest amplitude on the
            # guess's chain and the check accepts.
            assert guess_read(key, state, pair) is not None


def test_mode2_single_block_takes_the_block_path(monkeypatch):
    # At n = 16 a key table would hold 2^32 entries and a pairing map 2^16;
    # one block builds neither, in either direction.
    def refuse(*args):
        raise AssertionError("a single mode-2 block built a key table or a pairing map")

    for module in ("qcipher.modes", "qcipher.cipher"):
        monkeypatch.setattr(f"{module}._encrypt_table", refuse)
        monkeypatch.setattr(f"{module}._pairing_map", refuse)
    k = generate_key(16, 256, np.random.default_rng(5))
    cfg = modes.ModeConfig(modes.Mode.ENTANGLING, "0110100110010110")
    block = PlainBlock("1010011100001111")
    t = modes.mode2_encrypt(k, [block], cfg)
    assert t.joint.n == 16
    assert modes.mode2_decrypt(k, t, cfg) == [block]


def _mode2_message(n, m, N, seed):
    rng = np.random.default_rng(seed)
    k = generate_key(n, N, rng)
    pairing = tuple(int(q) + 1 for q in rng.permutation(n))
    cfg = modes.ModeConfig(modes.Mode.ENTANGLING, "".join(str(b) for b in rng.integers(0, 2, size=n)), pairing)
    blocks = [PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=n))) for _ in range(m)]
    return k, cfg, blocks, modes.mode2_encrypt(k, blocks, cfg)


def test_mode2_ties_on_the_unguarded_eighth_turn_grid_fall_back():
    # N = 8 keys keep angles at odd multiples of pi/4, where |cos| = |sin|:
    # a row of T then has tied largest amplitudes, the guess can miss, and
    # the inverse must decide. Either way the plaintext comes back.
    fallbacks = 0
    for seed in range(60):
        k, cfg, blocks, t = _mode2_message(4, 3, 8, seed)
        cc = compile_circuit(key_circuit(k), 4)
        guess = modes._mode2_read(cc, t.joint.amps, 3, cfg.mode2_pairing)
        want = _read(_inverse_probs(cc, t.joint.amps, 3, cfg.mode2_pairing), 12)
        assert guess in (None, want)
        fallbacks += guess is None
        assert modes.mode2_decrypt(k, t, cfg) == blocks
    assert 0 < fallbacks < 60


def test_mode2_nan_amplitude_fails_the_guess_and_the_inverse():
    # StateVector refuses a NaN norm, so the register is assembled by hand;
    # the gate-by-gate oracle cannot take it, and the inverse's read is the
    # reference.
    k, cfg, blocks, t = _mode2_message(4, 2, 256, 21)
    amps = t.joint.amps.copy()
    amps[np.argmax(np.abs(amps))] = np.nan
    state = object.__new__(StateVector)
    object.__setattr__(state, "n", 8)
    object.__setattr__(state, "amps", amps)
    cc = compile_circuit(key_circuit(k), 4)
    assert modes._mode2_read(cc, amps, 2, cfg.mode2_pairing) is None
    assert _read(_inverse_probs(cc, amps, 2, cfg.mode2_pairing), 8) is IntegrityError
    with pytest.raises(IntegrityError):
        modes.mode2_decrypt(k, modes.Transmission(modes.Mode.ENTANGLING, 4, 2, joint=state), cfg)


def test_mode2_honest_register_decrypts_without_the_inverse(monkeypatch):
    # The guess-and-check is what runs on an honest guarded message: with
    # the inverse made to fail, the plaintext still comes back, while a
    # tampered register, which must fall back, reaches the failing inverse.
    def refuse(*args):
        raise AssertionError("the inverse ran")

    k, cfg, blocks, t = _mode2_message(8, 2, 256, 13)
    monkeypatch.setattr("qcipher.cipher._inverse", refuse)
    assert modes.mode2_decrypt(k, t, cfg) == blocks
    flipped = t.joint.amps.copy()
    flipped[np.argmax(np.abs(flipped))] *= -1.0
    tampered = modes.Transmission(modes.Mode.ENTANGLING, 8, 2, joint=StateVector(16, flipped))
    with pytest.raises(AssertionError, match="the inverse ran"):
        modes.mode2_decrypt(k, tampered, cfg)


# Magnitude ties (0.5, -0.5, 0.5j), NaN in either part, and inf.
_AMPS = [0.0, 0.5, -0.5, 0.5j, 1.0, -1j, np.nan, complex(0.0, np.nan), np.inf]


@given(st.lists(st.sampled_from(_AMPS), min_size=1, max_size=40), st.integers(1, 8))
def test_sliced_argmax_matches_numpy(values, step):
    amps = np.array(values, dtype=complex)
    with mock.patch.object(modes, "_ARGMAX_SLICE", step):
        assert modes._argmax_abs(amps) == int(np.argmax(np.abs(amps)))


def test_sliced_argmax_at_the_default_slice():
    w = modes._ARGMAX_SLICE
    amps = np.zeros(3 * w, dtype=complex)
    marks = [
        ([5, w + 7, 2 * w], [0.5, -0.5, 0.5j], 5),  # a tie across slices: the first
        ([w + 9], [0.75], w + 9),  # a larger value in a later slice
        ([2 * w + 3], [np.nan], 2 * w + 3),  # a NaN in the last slice beats any number
        ([w + 1], [complex(0.0, np.nan)], w + 1),  # an earlier NaN wins
        ([4], [np.nan], 4),  # a NaN in the first slice
    ]
    for where, values, want in marks:
        amps[where] = values
        assert modes._argmax_abs(amps) == want == int(np.argmax(np.abs(amps)))
    # Registers smaller than one slice.
    for small, want in ((np.array([1.0 + 0j]), 0), (np.array([0.6, 0.8j, -0.8]), 1)):
        assert modes._argmax_abs(small) == want == int(np.argmax(np.abs(small)))
