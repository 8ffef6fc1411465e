import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from oracles import reduced_purity
from qcipher.cipher import CipherBlock, PlainBlock, encrypt_block, xor_bits
from qcipher.errors import InputError, IntegrityError, ResourceError
from qcipher import cipher, modes
from qcipher.keyschedule import CipherKey, generate_key
from qcipher.modes import (
    Mode,
    ModeConfig,
    Transmission,
    decrypt,
    encrypt,
    mode1_decrypt,
    mode1_encrypt,
    mode2_decrypt,
    mode2_encrypt,
    transmission_from_json,
    transmission_to_json,
)
from qcipher.statevector import StateVector, basis_state, fidelity, marginals, measure_all


def key6(seed=0):
    return generate_key(6, 256, np.random.default_rng(seed))


def blocks_of(*bits):
    return [PlainBlock(b) for b in bits]


def test_mode_config_validation():
    with pytest.raises(InputError):
        ModeConfig(Mode.MEASURED, "01x0")
    with pytest.raises(InputError):
        ModeConfig(Mode.MEASURED, "0101", mode2_pairing=(1, 2, 3, 4))
    with pytest.raises(InputError):
        ModeConfig(Mode.ENTANGLING, "0101", mode2_pairing=(1, 1, 2, 3))
    cfg = ModeConfig(Mode.ENTANGLING, "0101")
    assert cfg.mode2_pairing == (1, 2, 3, 4)


def test_mode1_round_trip_three_blocks():
    k = key6(1)
    blocks = blocks_of("101100", "010011", "111000")
    cfg = ModeConfig(Mode.MEASURED, "110010")
    t = mode1_encrypt(k, blocks, cfg, np.random.default_rng(5))
    assert t.m == 3 and len(t.blocks) == 3 and len(t.iv_carriers) == 3
    assert mode1_decrypt(k, t, cfg) == blocks


def test_mode1_zero_blocks():
    k = key6(2)
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, [], cfg, np.random.default_rng(0))
    assert t.m == 0
    assert mode1_decrypt(k, t, cfg) == []


def test_mode1_single_block_zero_iv_equals_plain_encryption():
    k = key6(3)
    p = PlainBlock("100110")
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, [p], cfg, np.random.default_rng(1))
    assert fidelity(t.blocks[0].state, encrypt_block(k, p).state) == pytest.approx(1.0, abs=1e-12)


def test_mode1_identical_blocks_get_different_ciphertexts():
    k = key6(4)
    p = PlainBlock("101010")
    cfg = ModeConfig(Mode.MEASURED, "000000")
    different = 0
    for seed in range(50):
        t = mode1_encrypt(k, [p, p], cfg, np.random.default_rng(seed))
        if fidelity(t.blocks[0].state, t.blocks[1].state) < 1.0 - 1e-6:
            different += 1
    assert different >= 48


def test_mode1_chained_iv_entropy():
    k = key6(5)
    cfg = ModeConfig(Mode.MEASURED, "000000")
    seen = set()
    for seed in range(30):
        t = mode1_encrypt(k, blocks_of("101010"), cfg, np.random.default_rng(seed))
        probs = np.abs(t.iv_carriers[0].amps) ** 2
        seen.add(int(np.argmax(probs)))
    assert len(seen) > 1


def test_mode1_deterministic_for_fixed_seed():
    k = key6(6)
    blocks = blocks_of("111111", "000001")
    cfg = ModeConfig(Mode.MEASURED, "010101")
    a = transmission_to_json(mode1_encrypt(k, blocks, cfg, np.random.default_rng(9)))
    b = transmission_to_json(mode1_encrypt(k, blocks, cfg, np.random.default_rng(9)))
    assert a == b


def test_mode1_tampered_iv_carrier_corrupts_next_block():
    k = key6(7)
    blocks = blocks_of("101100", "010011")
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, blocks, cfg, np.random.default_rng(3))
    probs = np.abs(t.iv_carriers[0].amps) ** 2
    idx = int(np.argmax(probs))
    flipped = basis_state(6, format(idx ^ 1, "06b"))
    tampered = Transmission(Mode.MEASURED, 6, 2, t.blocks, (flipped, t.iv_carriers[1]))
    out = mode1_decrypt(k, tampered, cfg)
    assert out[0] == blocks[0]
    assert out[1] != blocks[1]


def test_mode1_decrypt_rejects_non_basis_carrier():
    k = key6(8)
    blocks = blocks_of("101100")
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, blocks, cfg, np.random.default_rng(4))
    superposed = encrypt_block(k, PlainBlock("111111")).state
    tampered = Transmission(Mode.MEASURED, 6, 1, t.blocks, (superposed,))
    with pytest.raises(IntegrityError):
        mode1_decrypt(k, tampered, cfg)


def test_mode2_round_trip_three_blocks():
    k = key6(9)
    blocks = blocks_of("101100", "010011", "101100")
    cfg = ModeConfig(Mode.ENTANGLING, "110010")
    t = mode2_encrypt(k, blocks, cfg)
    assert t.joint.n == 18
    assert mode2_decrypt(k, t, cfg) == blocks


def test_mode2_single_block_reduces_to_plain_encryption():
    k = key6(10)
    p = PlainBlock("100101")
    iv = "010001"
    cfg = ModeConfig(Mode.ENTANGLING, iv)
    t = mode2_encrypt(k, [p], cfg)
    direct = encrypt_block(k, PlainBlock(xor_bits(p.bits, iv))).state
    assert fidelity(t.joint, direct) == pytest.approx(1.0, abs=1e-12)
    assert mode2_decrypt(k, t, cfg) == [p]


def test_mode2_blocks_become_entangled():
    k = generate_key(4, 256, np.random.default_rng(11))
    cfg = ModeConfig(Mode.ENTANGLING, "0000")
    t = mode2_encrypt(k, blocks_of("1011", "0100"), cfg)
    purity = reduced_purity(t.joint, [5, 6, 7, 8])
    assert purity < 1.0 - 1e-6


def test_mode2_identical_blocks_have_different_marginals():
    k = key6(12)
    cfg = ModeConfig(Mode.ENTANGLING, "000000")
    t = mode2_encrypt(k, blocks_of("110101", "110101"), cfg)
    m = marginals(t.joint)
    assert np.max(np.abs(m[:6] - m[6:])) > 1e-3


def test_mode2_deterministic():
    k = key6(13)
    cfg = ModeConfig(Mode.ENTANGLING, "001100", mode2_pairing=(3, 1, 2, 6, 5, 4))
    blocks = blocks_of("111000", "000111")
    assert transmission_to_json(mode2_encrypt(k, blocks, cfg)) == transmission_to_json(
        mode2_encrypt(k, blocks, cfg)
    )


def test_mode2_nonidentity_pairing_round_trip():
    k = key6(14)
    cfg = ModeConfig(Mode.ENTANGLING, "010010", mode2_pairing=(6, 5, 4, 3, 2, 1))
    blocks = blocks_of("101010", "010101", "110011")
    assert mode2_decrypt(k, mode2_encrypt(k, blocks, cfg), cfg) == blocks


def test_mode2_wrong_pairing_fails_or_corrupts():
    k = key6(15)
    good = ModeConfig(Mode.ENTANGLING, "000000", mode2_pairing=(2, 3, 4, 5, 6, 1))
    bad = ModeConfig(Mode.ENTANGLING, "000000", mode2_pairing=(1, 2, 3, 4, 5, 6))
    blocks = blocks_of("101100", "010011")
    t = mode2_encrypt(k, blocks, good)
    try:
        out = mode2_decrypt(k, t, bad)
        assert out != blocks
    except IntegrityError:
        pass


def test_mode2_register_cap():
    k = key6(16)
    cfg = ModeConfig(Mode.ENTANGLING, "000000")
    with pytest.raises(ResourceError):
        mode2_encrypt(k, blocks_of(*["101010"] * 5), cfg)


def test_mode_round_trips_various_shapes():
    rng = np.random.default_rng(17)
    for n, m in ((2, 8), (4, 4), (8, 2)):
        k = generate_key(n, 256, rng)
        blocks = [
            PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=n))) for _ in range(m)
        ]
        iv = "".join(str(b) for b in rng.integers(0, 2, size=n))
        cfg1 = ModeConfig(Mode.MEASURED, iv)
        t1 = encrypt(k, blocks, cfg1, np.random.default_rng(99))
        assert decrypt(k, t1, cfg1) == blocks
        cfg2 = ModeConfig(Mode.ENTANGLING, iv)
        t2 = encrypt(k, blocks, cfg2)
        assert decrypt(k, t2, cfg2) == blocks


def test_mode_mismatch_errors():
    k = key6(18)
    cfg1 = ModeConfig(Mode.MEASURED, "000000")
    cfg2 = ModeConfig(Mode.ENTANGLING, "000000")
    with pytest.raises(InputError):
        mode1_encrypt(k, [], cfg2, np.random.default_rng(0))
    with pytest.raises(InputError):
        mode2_encrypt(k, [], cfg1)
    t = mode1_encrypt(k, blocks_of("000000"), cfg1, np.random.default_rng(0))
    with pytest.raises(InputError):
        mode2_decrypt(k, t, cfg2)


@pytest.fixture(scope="module")
def mode_args():
    """A 6-qubit key with configs and transmissions of both modes that agree
    with it, and 5-qubit ones that do not."""
    k, k5 = key6(18), generate_key(5, 256, np.random.default_rng(18))
    rng = np.random.default_rng(0)
    cfg = {m: ModeConfig(m, "000000") for m in Mode}
    short = {m: ModeConfig(m, "00000") for m in Mode}
    six, five = blocks_of("000000"), blocks_of("00000")
    return SimpleNamespace(
        k=k, rng=rng, cfg=cfg, short=short, six=six, five=five,
        t={m: encrypt(k, six, cfg[m], rng) for m in Mode},
        t5={m: encrypt(k5, five, short[m], rng) for m in Mode},
    )


M1, M2 = Mode.MEASURED, Mode.ENTANGLING
MODE_DISAGREEMENTS = {
    "m1-encrypt-config-mode": lambda a: mode1_encrypt(a.k, a.six, a.cfg[M2], a.rng),
    "m1-encrypt-iv": lambda a: mode1_encrypt(a.k, a.six, a.short[M1], a.rng),
    "m1-encrypt-block": lambda a: mode1_encrypt(a.k, a.five, a.cfg[M1], a.rng),
    "m1-decrypt-config-mode": lambda a: mode1_decrypt(a.k, a.t[M1], a.cfg[M2]),
    "m1-decrypt-transmission-mode": lambda a: mode1_decrypt(a.k, a.t[M2], a.cfg[M1]),
    "m1-decrypt-iv": lambda a: mode1_decrypt(a.k, a.t[M1], a.short[M1]),
    "m1-decrypt-block": lambda a: mode1_decrypt(a.k, a.t5[M1], a.cfg[M1]),
    "m2-encrypt-config-mode": lambda a: mode2_encrypt(a.k, a.six, a.cfg[M1]),
    "m2-encrypt-iv": lambda a: mode2_encrypt(a.k, a.six, a.short[M2]),
    "m2-encrypt-block": lambda a: mode2_encrypt(a.k, a.five, a.cfg[M2]),
    "m2-decrypt-config-mode": lambda a: mode2_decrypt(a.k, a.t[M2], a.cfg[M1]),
    "m2-decrypt-transmission-mode": lambda a: mode2_decrypt(a.k, a.t[M1], a.cfg[M2]),
    "m2-decrypt-iv": lambda a: mode2_decrypt(a.k, a.t[M2], a.short[M2]),
    "m2-decrypt-block": lambda a: mode2_decrypt(a.k, a.t5[M2], a.cfg[M2]),
}


@pytest.mark.parametrize("case", sorted(MODE_DISAGREEMENTS))
def test_mode_functions_reject_disagreeing_arguments(mode_args, case):
    with pytest.raises(InputError):
        MODE_DISAGREEMENTS[case](mode_args)


# --- transmission files ----------------------------------------------------

def test_transmission_json_round_trip_mode1():
    k = key6(19)
    blocks = blocks_of("101100", "010011")
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, blocks, cfg, np.random.default_rng(7))
    back = transmission_from_json(transmission_to_json(t))
    assert back.mode is Mode.MEASURED and back.m == 2 and back.n == 6
    for a, b in zip(back.blocks, t.blocks):
        assert np.array_equal(a.state.amps, b.state.amps)
    for a, b in zip(back.iv_carriers, t.iv_carriers):
        assert np.array_equal(a.amps, b.amps)
    assert mode1_decrypt(k, back, cfg) == blocks


def test_transmission_json_round_trip_mode2():
    k = key6(20)
    cfg = ModeConfig(Mode.ENTANGLING, "000000")
    t = mode2_encrypt(k, blocks_of("101100", "010011", "111111"), cfg)
    back = transmission_from_json(transmission_to_json(t))
    assert np.array_equal(back.joint.amps, t.joint.amps)
    assert mode2_decrypt(k, back, cfg) == blocks_of("101100", "010011", "111111")


@pytest.mark.parametrize("mode", [Mode.MEASURED, Mode.ENTANGLING])
def test_empty_transmission_round_trips(mode):
    # m = 0 is a file of either mode with an empty payload; it reads back
    # as the same transmission and decrypts to no blocks.
    k = key6(23)
    cfg = ModeConfig(mode, "000000")
    text = transmission_to_json(encrypt(k, [], cfg, np.random.default_rng(0)))
    back = transmission_from_json(text)
    assert (back.mode, back.n, back.m) == (mode, 6, 0)
    assert transmission_to_json(back) == text
    assert decrypt(k, back, cfg) == []


def test_transmission_built_in_code_round_trips():
    # Blocks made as CipherBlock(state) carry index 0 and tag "raw"; the
    # file takes each entry's tag and index from the payload layout.
    k = key6(22)
    blocks = blocks_of("101100", "010011", "111000")
    cfg = ModeConfig(Mode.MEASURED, "011010")
    sent = mode1_encrypt(k, blocks, cfg, np.random.default_rng(3))
    t = Transmission(Mode.MEASURED, 6, 3, tuple(CipherBlock(b.state) for b in sent.blocks), sent.iv_carriers)
    assert mode1_decrypt(k, t, cfg) == blocks
    text = transmission_to_json(t)
    assert mode1_decrypt(k, transmission_from_json(text), cfg) == blocks
    assert text == transmission_to_json(sent)


def test_transmission_envelope_fields():
    k = key6(21)
    cfg = ModeConfig(Mode.MEASURED, "000000")
    t = mode1_encrypt(k, blocks_of("111000"), cfg, np.random.default_rng(2))
    obj = json.loads(transmission_to_json(t))
    assert list(obj) == ["mode", "n", "m", "iv_public", "payload"]
    assert obj["iv_public"] is False
    assert len(obj["payload"]) == 2
    assert obj["payload"][0]["mode"] == "m1"
    assert obj["payload"][1]["mode"] == "iv"


def test_transmission_json_rejects_malformed():
    with pytest.raises(InputError):
        transmission_from_json("{bad")
    with pytest.raises(InputError):
        transmission_from_json('{"mode": "m3", "n": 2, "m": 0, "iv_public": false, "payload": []}')
    with pytest.raises(InputError):
        transmission_from_json('{"mode": "m1", "n": 2, "m": 1, "iv_public": true, "payload": []}')
    with pytest.raises(InputError):
        transmission_from_json('{"mode": "m1", "n": 2, "m": 1, "iv_public": false, "payload": []}')
    with pytest.raises(InputError):
        transmission_from_json(
            '{"mode": "m1", "n": 2, "m": 0, "iv_public": false, "payload": [], "extra": 0}'
        )


def test_transmission_invariants():
    with pytest.raises(InputError):
        Transmission(Mode.MEASURED, 2, 1)
    with pytest.raises(ResourceError):
        Transmission(Mode.ENTANGLING, 6, 5, joint=None)
    with pytest.raises(InputError):
        Transmission(Mode.ENTANGLING, 2, 2, joint=basis_state(2, "00"))


def test_mode1_encrypts_each_block_once(monkeypatch):
    k = key6(4)
    blocks = blocks_of("101100", "010011", "111000", "000111")
    cfg = ModeConfig(Mode.MEASURED, "011010")
    calls = []

    def counting(key, p):
        calls.append(p.bits)
        return encrypt_block(key, p)

    monkeypatch.setattr(modes, "encrypt_block", counting)
    t = mode1_encrypt(k, blocks, cfg, np.random.default_rng(9))
    assert len(calls) == len(blocks)

    rng = np.random.default_rng(9)
    iv = cfg.iv
    for i, p in enumerate(blocks):
        sealed = encrypt_block(k, PlainBlock(xor_bits(p.bits, iv))).state
        outcome = measure_all(sealed, rng)
        assert np.array_equal(t.blocks[i].state.amps, sealed.amps)
        assert np.array_equal(t.iv_carriers[i].amps, outcome.collapsed.amps)
        iv = outcome.bits


@pytest.mark.parametrize("pairing", [(2.7, True), (2.0, 1), (2, 1.0), (True, 2), (2, np.bool_(True)), 5, object()])
def test_mode_config_rejects_float_and_bool_pairing(pairing):
    # A pairing that is no sequence at all, 5 or object(), is InputError too.
    with pytest.raises(InputError):
        ModeConfig(Mode.ENTANGLING, "01", pairing)


def test_mode_config_accepts_numpy_integer_pairing():
    cfg = ModeConfig(Mode.ENTANGLING, "011", (np.int64(3), np.int32(1), 2))
    assert cfg.mode2_pairing == (3, 1, 2)
    assert all(type(v) is int for v in cfg.mode2_pairing)


# Exact file text of two tiny transmissions, recorded before every payload
# entry was written by ``cipherblock_to_json``.
TINY_M1 = (
    '{"mode": "m1", "n": 2, "m": 2, "iv_public": false, "payload": [{"n": 2, "amps": '
    '[[0.35355339059327379, 0], [0.14644660940672621, 0], [-0.85355339059327373, 0], '
    '[-0.35355339059327373, 0]], "block_index": 0, "mode": "m1"}, {"n": 2, "amps": [[0, '
    '0], [0, 0], [1, 0], [0, 0]], "block_index": 0, "mode": "iv"}, {"n": 2, "amps": '
    '[[0.85355339059327373, 0], [0.35355339059327373, 0], [0.35355339059327379, 0], '
    '[0.14644660940672621, 0]], "block_index": 1, "mode": "m1"}, {"n": 2, "amps": [[1, '
    '0], [0, 0], [0, 0], [0, 0]], "block_index": 1, "mode": "iv"}]}'
)
TINY_M2 = (
    '{"mode": "m2", "n": 2, "m": 2, "iv_public": false, "payload": [{"n": 4, "amps": '
    '[[0.72855339059327373, 0], [0.30177669529663687, 0], [0.30177669529663687, 0], '
    '[0.12499999999999997, 0], [-0.12499999999999997, 0], [0.30177669529663687, 0], '
    '[-0.051776695296636865, 0], [0.125, 0], [0.12500000000000003, 0], '
    '[0.051776695296636879, 0], [-0.30177669529663687, 0], [-0.125, 0], '
    '[-0.021446609406726231, 0], [0.051776695296636879, 0], [0.051776695296636865, 0], '
    '[-0.12499999999999997, 0]], "block_index": 0, "mode": "m2"}]}'
)


def test_transmission_json_text_is_pinned():
    k = CipherKey(2, 16, (1, 5), ((2, 1),), (1,))
    cfg1 = ModeConfig(Mode.MEASURED, "01")
    t1 = mode1_encrypt(k, blocks_of("10", "11"), cfg1, np.random.default_rng(0))
    assert transmission_to_json(t1) == TINY_M1
    t2 = mode2_encrypt(k, blocks_of("10", "01"), ModeConfig(Mode.ENTANGLING, "11"))
    assert transmission_to_json(t2) == TINY_M2
    empty = mode2_encrypt(k, [], ModeConfig(Mode.ENTANGLING, "11"))
    assert transmission_to_json(empty) == (
        '{"mode": "m2", "n": 2, "m": 0, "iv_public": false, "payload": []}'
    )


@pytest.mark.parametrize("iv", [["0", "1"], ("1", "0"), b"01", 5, None])
def test_mode_config_rejects_non_string_iv(iv):
    for mode in Mode:
        with pytest.raises(InputError, match="iv"):
            ModeConfig(mode, iv)


def test_mode2_register_is_built_and_read_without_a_copy():
    # n = 5, m = 4: a 20-qubit register of 8 MiB of float64. Encryption may
    # hold the register plus a quarter of it at its peak, and so may
    # decryption with the register live; a complex128 copy of the register
    # would add twice its size.
    k = generate_key(5, 256, np.random.default_rng(17))
    cfg = ModeConfig(Mode.ENTANGLING, "10110")
    blocks = blocks_of("01101", "11100", "00011", "10010")
    mode2_decrypt(k, mode2_encrypt(k, blocks, cfg), cfg)  # warm every lazy set-up
    register = 8 << 20
    tracemalloc.start()
    try:
        t = mode2_encrypt(k, blocks, cfg)
        encrypt_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out = mode2_decrypt(k, t, cfg)
        decrypt_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == blocks
    assert encrypt_peak <= 1.25 * register, encrypt_peak / register
    assert decrypt_peak <= 1.25 * register, decrypt_peak / register


def test_mode2_encrypt_refuses_a_nan_in_the_multiplied_rows():
    # A NaN in the rows of the key's table that the later blocks multiply
    # in makes the register's norm NaN, which _seal refuses.
    def nan_table(cc):
        table = cipher._encrypt_table(cc)
        table[:, -1] = np.nan
        return table

    k = generate_key(4, 256, np.random.default_rng(43))
    with mock.patch.object(modes, "_encrypt_table", nan_table), pytest.raises(InputError, match="^squared norm nan"):
        mode2_encrypt(k, blocks_of("0110", "1011", "0001"), ModeConfig(Mode.ENTANGLING, "1001"))


def test_statevector_owns_a_read_only_buffer():
    # A caller's array is copied, writable or not; a state the package
    # builds keeps its own array. Either way the buffer is read-only.
    for given in (np.array([0.6, 0.8]), np.array([0.6, 0.8j]), np.array([0.6, 0.8j], dtype=object)):
        for writeable in (True, False):
            a = given.copy()
            a.flags.writeable = writeable
            s = StateVector(1, a)
            assert s.amps.dtype == (np.float64 if given.dtype == np.float64 else np.complex128)
            assert s.amps is not a and not s.amps.flags.writeable
            a.flags.writeable = True
            a[0] = 0.0
            assert s.amps[0] == 0.6
    k = key6()
    m1 = mode1_encrypt(k, blocks_of("010011"), ModeConfig(Mode.MEASURED, "000000"), np.random.default_rng(1))
    m2 = mode2_encrypt(k, blocks_of("010011", "111000"), ModeConfig(Mode.ENTANGLING, "000000"))
    read = transmission_from_json(transmission_to_json(m2))
    for s in (m1.blocks[0].state, m1.iv_carriers[0], m2.joint, read.joint, basis_state(3, "101")):
        assert s.amps.dtype == np.float64 and not s.amps.flags.writeable
        with pytest.raises(ValueError):
            s.amps[0] = 0.0


def test_huge_counts_end_in_the_cap_error():
    # A count past Python's 4,300 printable digits is shown by its bit
    # length, so the cap check raises its own class, not ValueError.
    with pytest.raises(ResourceError, match="^qubit count <19932-bit integer> exceeds the 24-qubit cap$"):
        Transmission(Mode.ENTANGLING, 10**3000, 10**3000)
    with pytest.raises(InputError, match="^expected <9966-bit integer> ciphertext blocks"):
        Transmission(Mode.MEASURED, 4, 10**3000)
    with pytest.raises(InputError, match="^qubit count must be >= 1, got -<9966-bit integer>$"):
        StateVector(-(10**3000), [1.0])
    with pytest.raises(InputError, match="^joint register must hold exactly 8 qubits$"):
        Transmission(Mode.ENTANGLING, 4, 2, joint=basis_state(4, "0000"))


def _m1_pair(block_qubits, carrier_qubits):
    """A one-block measured-IV transmission of 4 qubits whose ciphertext
    block and IV carrier have the given widths."""
    return Transmission(
        Mode.MEASURED, 4, 1, (CipherBlock(basis_state(block_qubits, "0" * block_qubits)),),
        (basis_state(carrier_qubits, "0" * carrier_qubits),),
    )


def test_transmission_refuses_a_wide_ciphertext_block():
    # mode1_decrypt used to fail on it with a bare ValueError from a reshape.
    with pytest.raises(InputError, match="^every ciphertext block and IV carrier must hold exactly 4 qubits$"):
        _m1_pair(5, 4)


def test_transmission_refuses_a_wide_iv_carrier():
    # Such a carrier used to decrypt the next block under a wrong chaining
    # value, silently.
    with pytest.raises(InputError, match="^every ciphertext block and IV carrier must hold exactly 4 qubits$"):
        _m1_pair(4, 5)
    assert _m1_pair(4, 4).m == 1


def test_transmission_refuses_a_register_with_no_blocks():
    # An entangling transmission of m = 0 used to take a register and drop it.
    with pytest.raises(InputError, match="^joint register must hold exactly 0 qubits$"):
        Transmission(Mode.ENTANGLING, 4, 0, joint=basis_state(4, "0000"))
    assert Transmission(Mode.ENTANGLING, 4, 0).joint is None
