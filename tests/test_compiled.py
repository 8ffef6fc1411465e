"""The compiled path (rotation angles plus the GF(2) columns of A) against
the gate-by-gate simulator it replaces in the block cipher and in mode 2,
and every decrypt's read against the oracles' compiled inverse."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    _inverse,
    _inverse_probs,
    apply_circuit,
    basis_index_oracle,
    cnot_matrix,
    kron_oracle,
    mode2_gate_by_gate,
    mode2_gate_by_gate_inverse,
)
from qcipher import cipher, modes
from qcipher.cipher import (
    CipherBlock,
    PlainBlock,
    _argmax_abs,
    _basis_indices,
    _encrypt_amps,
    _encrypt_table,
    _decrypt_bits,
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


def _outcome(decrypt):
    """Decrypted bits, or the IntegrityError type."""
    try:
        return decrypt()
    except IntegrityError:
        return IntegrityError


def _inverse_read(ops, amps, n):
    """The oracle's compiled inverse of ``ops`` on ``amps`` against the
    reversed gate list: real and imaginary amplitudes within INVERSE_AMP_TOL
    and the same read, which is returned. The decrypt read gives it too."""
    ref = apply_circuit(StateVector(n, amps), list(reversed(ops))).amps
    cc = compile_circuit(ops, n)
    assert np.max(np.abs(_inverse(cc, amps.real) - ref.real)) <= INVERSE_AMP_TOL
    assert np.max(np.abs(_inverse(cc, amps.imag) - ref.imag)) <= INVERSE_AMP_TOL
    read = _read(_inverse_probs(cc, amps), n)
    assert read == _read(np.abs(ref) ** 2, n)
    assert _outcome(lambda: _decrypt_bits(cc, amps, "post-inverse state")) == read
    return read


def _ties(k):
    """Whether some angle of ``k`` ties |cos| and |sin| (an odd multiple of
    pi/4), where a row of the key's table has tied largest entries."""
    return any(abs(abs(np.cos(t)) - abs(np.sin(t))) < 1e-12 for t in compile_circuit(key_circuit(k), k.n).thetas)


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


@given(
    n=st.integers(2, 8),
    m=st.integers(1, 3),
    N=st.sampled_from([4, 8, 16, 256]),
    seed=st.integers(0, 2**32 - 1),
)
# Two blocks of 9 qubits: the read's check contracts the first block in two
# groups of qubits.
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
        """The reference read: the gate-by-gate inverse, then the argmax
        plus purity check."""
        bits = _read_basis_probs(np.abs(mode2_gate_by_gate_inverse(key, state, pair)) ** 2, n * m, "joint register")
        chunks = [bits[i * n : (i + 1) * n] for i in range(m)]
        chunks[0] = format(int(chunks[0], 2) ^ int(iv, 2), f"0{n}b")
        return chunks

    def new_read(key, state, pair):
        c = modes.ModeConfig(modes.Mode.ENTANGLING, iv, pair)
        back = modes.mode2_decrypt(key, modes.Transmission(modes.Mode.ENTANGLING, n, m, joint=state), c)
        return [p.bits for p in back]

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
    # (key, state, pairing, the outcome, or None where either may come).
    # With guarded angles (N >= 16) every rotation makes a superposition, so
    # a sign flip, a key one grid step off or (with a second block to chain)
    # a wrong pairing leaves no basis state; an imaginary part on the
    # smallest amplitude never can. A sign, a global phase, or a factor 1j
    # that leaves every real part zero, makes no difference to the read.
    variants = [
        (k, t.joint, pairing, blocks),
        (k, StateVector(n * m, -amps), pairing, blocks),
        (k, StateVector(n * m, amps * np.exp(0.7j)), pairing, blocks),
        (k, StateVector(n * m, amps * 1j), pairing, blocks),
        (k, StateVector(n * m, flipped), pairing, IntegrityError if N >= 16 else None),
        (k, StateVector(n * m, perturbed), pairing, IntegrityError),
        (wrong_key, t.joint, pairing, IntegrityError if N >= 16 else None),
        (k, t.joint, wrong_pairing, IntegrityError if N >= 16 and m >= 2 else None),
    ]
    for key, state, pair, expected in variants:
        want = _outcome(lambda: oracle_read(key, state, pair))
        assert _outcome(lambda: new_read(key, state, pair)) == want
        if expected is not None:
            assert want == expected


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


def test_mode2_ties_decrypt_without_the_inverse():
    # N = 8 keys keep angles at multiples of pi/4, and at odd multiples
    # |cos| = |sin|: a row of T then has tied largest amplitudes. Each bit's
    # pair read is exact there too, so every message decrypts, with no
    # inverse in the library to fall back on. A 4-qubit key ties on some
    # qubit with probability 15/16, so at least three quarters of the 60
    # keys must tie.
    ties = 0
    for seed in range(60):
        k, cfg, blocks, t = _mode2_message(4, 3, 8, seed)
        ties += _ties(k)
        assert modes.mode2_decrypt(k, t, cfg) == blocks
    assert ties >= 45


def _forged(n, amps):
    """A state holding ``amps`` as given: StateVector refuses a NaN norm."""
    state = object.__new__(StateVector)
    object.__setattr__(state, "n", n)
    object.__setattr__(state, "amps", amps)
    return state


def test_mode2_nan_amplitude_raises_without_the_inverse():
    # The gate-by-gate oracle cannot take a NaN; any read of it is impure.
    k, cfg, blocks, t = _mode2_message(4, 2, 256, 21)
    for where in (np.argmax(np.abs(t.joint.amps)), np.argmin(np.abs(t.joint.amps))):
        amps = t.joint.amps.copy()
        amps[where] = np.nan
        state = _forged(8, amps)
        with pytest.raises(IntegrityError, match=r"\(impurity nan\)"):
            modes.mode2_decrypt(k, modes.Transmission(modes.Mode.ENTANGLING, 4, 2, joint=state), cfg)


def test_mode2_honest_register_decrypts_without_the_inverse():
    # An honest guarded message decrypts and a tampered one raises
    # IntegrityError, both from the pair read and its check alone.
    k, cfg, blocks, t = _mode2_message(8, 2, 256, 13)
    flipped = t.joint.amps.copy()
    flipped[np.argmax(np.abs(flipped))] *= -1.0
    tampered = modes.Transmission(modes.Mode.ENTANGLING, 8, 2, joint=StateVector(16, flipped))
    assert modes.mode2_decrypt(k, t, cfg) == blocks
    with pytest.raises(IntegrityError, match="^joint register is not a computational basis state"):
        modes.mode2_decrypt(k, tampered, cfg)


# One block: decrypt_block, each block of mode1_decrypt and a single mode-2
# block, all read by the same pair read and check.


def _single_block_decrypts(k, state):
    """The three one-block decrypts of ``state``, under a zero IV so that
    each returns the post-inverse bits."""
    n, zero = k.n, "0" * k.n
    m1 = modes.Transmission(modes.Mode.MEASURED, n, 1, (CipherBlock(state, 0, "m1"),), (basis_state(n, zero),))
    m2 = modes.Transmission(modes.Mode.ENTANGLING, n, 1, joint=state)
    return [
        lambda: decrypt_block(k, CipherBlock(state)).bits,
        lambda: modes.mode1_decrypt(k, m1, modes.ModeConfig(modes.Mode.MEASURED, zero))[0].bits,
        lambda: modes.mode2_decrypt(k, m2, modes.ModeConfig(modes.Mode.ENTANGLING, zero))[0].bits,
    ]


def _single_block_reads(k, state):
    """Each one-block decrypt's bits or IntegrityError, checked against the
    oracle inverse's read (and, up to 12 qubits and for finite amplitudes,
    against the gate-by-gate inverse), and returned."""
    cc = compile_circuit(key_circuit(k), k.n)
    finite = bool(np.all(np.isfinite(state.amps)))
    want = _inverse_read(key_circuit(k), state.amps, k.n) if finite and k.n <= 12 else _read(_inverse_probs(cc, state.amps), k.n)
    got = [_outcome(decrypt) for decrypt in _single_block_decrypts(k, state)]
    assert got == [want] * 3
    return want


@pytest.mark.parametrize("theta", [0.3, 1.2, 2.0, 4.0])
def test_one_qubit_guess_matches_the_inverse(theta):
    # Keys start at two qubits; one rotation is the smallest circuit the
    # read takes, and its tampered states are superpositions after the
    # inverse since theta is no multiple of pi/4.
    cc = compile_circuit([SingleU(1, theta)], 1)
    for bits in "01":
        amps = _encrypt_amps(cc, bits)
        flipped = amps.copy()
        flipped[np.argmax(np.abs(amps))] *= -1.0
        nan = amps.copy()
        nan[0] = np.nan
        for state, want in ((amps, bits), (-amps, bits), (amps * 1j, bits), (flipped, None), (nan, None)):
            assert _read(_inverse_probs(cc, state), 1) == (want or IntegrityError)
            assert _outcome(lambda: _decrypt_bits(cc, state, "post-inverse state")) == (want or IntegrityError)


@pytest.mark.parametrize("n", [*range(2, 13), 17, 18])
def test_single_block_reads_match_the_inverse(n):
    rng = np.random.default_rng(1100 + n)
    k = generate_key(n, 256, rng)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
    cipher_state = encrypt_block(k, PlainBlock(bits)).state
    amps = cipher_state.amps
    top = np.argmax(np.abs(amps))
    flipped = amps.copy()
    flipped[top] *= -1.0
    perturbed = amps.astype(np.complex128)
    perturbed[np.argmin(np.abs(amps))] += 0.1j
    perturbed /= np.linalg.norm(perturbed)
    nan = amps.copy()
    nan[top] = np.nan
    theta = list(k.theta_indices)
    theta[int(rng.integers(0, n))] ^= 1
    wrong = CipherKey(n, 256, tuple(theta), k.step3_pairs, k.step4_upstream_order)
    # (key, state, read): the guarded angles make every tampered state and
    # the wrong key a superposition after the inverse.
    variants = [
        (k, cipher_state, bits),
        (k, StateVector(n, -amps), bits),
        (k, StateVector(n, amps * 1j), bits),
        (k, StateVector(n, amps * np.exp(0.7j)), bits),
        (k, StateVector(n, flipped), IntegrityError),
        (k, StateVector(n, perturbed), IntegrityError),
        (k, _forged(n, nan), IntegrityError),
        (wrong, cipher_state, IntegrityError),
    ]
    for key, state, want in variants:
        assert _single_block_reads(key, state) == want


def test_single_block_ties_decrypt_without_the_inverse():
    # As for mode 2: on the N = 8 grid |cos| = |sin| ties leave tied largest
    # amplitudes, and the pair read still gives the plaintext. At least
    # three quarters of the 40 keys must tie (each with probability 15/16).
    ties = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        k = generate_key(4, 8, rng)
        ties += _ties(k)
        bits = "".join(str(b) for b in rng.integers(0, 2, size=4))
        assert _single_block_reads(k, encrypt_block(k, PlainBlock(bits)).state) == bits
    assert ties >= 30


def test_single_block_honest_reads_skip_the_inverse():
    # An honest guarded block decrypts on all three paths, and a tampered
    # one raises IntegrityError on all three.
    rng = np.random.default_rng(15)
    k = generate_key(10, 256, rng)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=10))
    amps = encrypt_block(k, PlainBlock(bits)).state.amps
    flipped = amps.copy()
    flipped[np.argmax(np.abs(amps))] *= -1.0
    for decrypt in _single_block_decrypts(k, StateVector(10, amps)):
        assert decrypt() == bits
    for decrypt in _single_block_decrypts(k, StateVector(10, flipped)):
        with pytest.raises(IntegrityError, match="is not a computational basis state"):
            decrypt()


def test_reads_at_the_cap_on_the_eighth_turn_grid():
    # n = 24 on the N = 8 grid, where largest amplitudes tie: the honest
    # block reads, as it does with noise orthogonal to it at impurity 5e-10,
    # while noise at 2e-9 is past PURITY_TOL and raises. Each noisy state
    # is built in place: at most four 2^24-entry arrays (128 MiB each) are
    # alive at once.
    rng = np.random.default_rng(24)
    k = generate_key(24, 8, rng)
    assert _ties(k)
    p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=24)))
    honest = encrypt_block(k, p)
    assert decrypt_block(k, honest) == p
    for impurity, want in ((5e-10, p.bits), (2e-9, IntegrityError)):
        noise = rng.standard_normal(1 << 24)
        noise -= (noise @ honest.state.amps) * honest.state.amps
        noise *= np.sqrt(impurity) / np.linalg.norm(noise)
        noise += np.sqrt(1.0 - impurity) * honest.state.amps
        state = StateVector(24, noise)
        del noise
        assert _outcome(lambda: decrypt_block(k, CipherBlock(state)).bits) == want
        del state
    del honest
    # Mode 2 at the cap: three blocks of 8 qubits.
    k, cfg, blocks, t = _mode2_message(8, 3, 8, 24)
    assert _ties(k)
    assert modes.mode2_decrypt(k, t, cfg) == blocks


# Magnitude ties (0.5, -0.5, 0.5j), NaN in either part, and inf.
_AMPS = [0.0, 0.5, -0.5, 0.5j, 1.0, -1j, np.nan, complex(0.0, np.nan), np.inf]


@given(st.lists(st.sampled_from(_AMPS), min_size=1, max_size=40), st.integers(1, 8))
def test_sliced_argmax_matches_numpy(values, step):
    amps = np.array(values, dtype=complex)
    with mock.patch.object(cipher, "_ARGMAX_SLICE", step):
        assert _argmax_abs(amps) == int(np.argmax(np.abs(amps)))


def test_sliced_argmax_at_the_default_slice():
    w = cipher._ARGMAX_SLICE
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
        assert _argmax_abs(amps) == want == int(np.argmax(np.abs(amps)))
    # Registers smaller than one slice.
    for small, want in ((np.array([1.0 + 0j]), 0), (np.array([0.6, 0.8j, -0.8]), 1)):
        assert _argmax_abs(small) == want == int(np.argmax(np.abs(small)))
