import json
import math

import numpy as np
import pytest

from oracles import classical_cnot_bits, dense_apply
from qcipher.cipher import (
    CipherBlock,
    PlainBlock,
    _read_basis_probs,
    cipherblock_from_json,
    cipherblock_to_json,
    decrypt_block,
    encrypt_block,
    gate_count,
    xor_bits,
)
from qcipher.errors import InputError, IntegrityError
from qcipher.keyschedule import CipherKey, generate_key, key_circuit
from qcipher.statevector import StateVector, basis_state, fidelity, marginals, measure_all
from test_keyschedule import canonical_key


def test_xor_bits():
    assert xor_bits("1100", "1010") == "0110"
    assert xor_bits("0", "0") == "0"
    with pytest.raises(InputError):
        xor_bits("01", "011")


def test_plainblock_validation():
    with pytest.raises(InputError):
        PlainBlock("")
    with pytest.raises(InputError):
        PlainBlock("012")


def test_zero_angle_key_maps_basis_to_basis():
    # With every theta = 0 the rotations only flip signs, so the CNOT
    # layers act classically; the ciphertext is a basis state matching an
    # independent GF(2) propagation of the plaintext bits.
    for n in (2, 4, 5, 8):
        k = canonical_key(n, N=4, theta=[0] * n)
        for bits in ("0" * n, "1" * n, ("10" * n)[:n]):
            c = encrypt_block(k, PlainBlock(bits))
            probs = np.abs(c.state.amps) ** 2
            idx = int(np.argmax(probs))
            assert probs[idx] == pytest.approx(1.0, abs=1e-12)
            expected = classical_cnot_bits(key_circuit(k), bits)
            assert format(idx, f"0{n}b") == expected
            got = marginals(c.state)
            assert np.allclose(got, [1.0 - int(b) for b in expected], atol=1e-12)


def test_n2_quarter_angle_ciphertext_vector():
    # theta = pi/4 on both qubits of the 2-qubit circuit; expected vector
    # computed with the dense matrix oracle and frozen as [1/2, 1/2, 1/2, 1/2].
    k = CipherKey(2, 8, (1, 1), ((2, 1),), (1,))
    assert theta_close(k, math.pi / 4)
    c = encrypt_block(k, PlainBlock("00"))
    want = dense_apply(key_circuit(k), basis_state(2, "00").amps, 2)
    assert np.max(np.abs(c.state.amps - want)) < 1e-12
    assert np.allclose(c.state.amps, [0.5, 0.5, 0.5, 0.5], atol=1e-12)


def theta_close(k, value):
    from qcipher.keyschedule import theta_value

    return all(abs(theta_value(k, q) - value) < 1e-12 for q in range(1, k.n + 1))


def test_encrypt_block_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        k = generate_key(n, 32, rng)
        bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
        got = encrypt_block(k, PlainBlock(bits)).state
        want = dense_apply(key_circuit(k), basis_state(n, bits).amps, n)
        assert np.max(np.abs(got.amps - want)) < 1e-12


def test_encrypt_block_norm_and_length_check():
    k = generate_key(4, 16, np.random.default_rng(1))
    c = encrypt_block(k, PlainBlock("0110"))
    assert abs(np.sum(np.abs(c.state.amps) ** 2) - 1.0) < 1e-9
    with pytest.raises(InputError):
        encrypt_block(k, PlainBlock("01"))


def test_round_trip_exhaustive_small_blocks():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        for _ in range(20):
            k = generate_key(n, 4, rng)
            for idx in range(1 << n):
                p = PlainBlock(format(idx, f"0{n}b"))
                assert decrypt_block(k, encrypt_block(k, p)) == p


def test_round_trip_randomized_n8():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        assert decrypt_block(k, encrypt_block(k, p)) == p


def test_plaintext_injectivity():
    k = generate_key(4, 16, np.random.default_rng(4))
    states = [encrypt_block(k, PlainBlock(format(i, "04b"))).state for i in range(16)]
    for i in range(16):
        for j in range(i + 1, 16):
            assert fidelity(states[i], states[j]) < 1e-9


def test_wrong_key_never_silently_accepts_impure_state():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(20):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        c = encrypt_block(k, p)
        theta = list(k.theta_indices)
        theta[3] = (theta[3] + 1) % k.N
        wrong = CipherKey(k.n, k.N, tuple(theta), k.step3_pairs, k.step4_upstream_order)
        try:
            out = decrypt_block(wrong, c)
            hits += int(out == p)
        except IntegrityError:
            pass
    assert hits == 0


def test_decrypting_measured_ciphertext_raises_integrity_error():
    rng = np.random.default_rng(6)
    k = generate_key(8, 256, rng)
    c = encrypt_block(k, PlainBlock("10101100"))
    for _ in range(10):
        collapsed = measure_all(c.state, rng).collapsed
        with pytest.raises(IntegrityError):
            decrypt_block(k, CipherBlock(collapsed))


def test_tampered_amplitudes_raise_integrity_error():
    k = generate_key(6, 256, np.random.default_rng(7))
    c = encrypt_block(k, PlainBlock("011010"))
    amps = c.state.amps.copy()
    amps[0], amps[1] = amps[1], amps[0]
    amps[5] *= -1.0
    tampered = CipherBlock(StateVector(6, amps))
    with pytest.raises(IntegrityError):
        decrypt_block(k, tampered)


def test_ciphertext_marginals_nondegenerate_for_guarded_keys():
    rng = np.random.default_rng(8)
    delta = 1e-4
    for _ in range(30):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        for m in marginals(encrypt_block(k, p).state):
            assert delta < m < 1.0 - delta


def test_gate_count_values():
    assert gate_count(canonical_key(8)) == gate_count(generate_key(8, 256, np.random.default_rng(9)))
    counts = gate_count(canonical_key(8))
    assert (counts.step1, counts.step2, counts.step3, counts.step4) == (8, 7, 4, 8)
    counts = gate_count(canonical_key(2))
    assert (counts.step1, counts.step2, counts.step3, counts.step4) == (2, 1, 1, 2)


def test_gate_count_total_bounded():
    rng = np.random.default_rng(10)
    for n in range(2, 25):
        k = generate_key(n, 16, rng)
        counts = gate_count(k)
        assert counts.total == len(key_circuit(k))
        assert counts.total <= 4 * n


def test_cipherblock_json_round_trip():
    k = generate_key(4, 16, np.random.default_rng(11))
    c = CipherBlock(encrypt_block(k, PlainBlock("1010")).state, block_index=3, mode="m1")
    back = cipherblock_from_json(cipherblock_to_json(c))
    assert back.block_index == 3 and back.mode == "m1"
    assert np.array_equal(back.state.amps, c.state.amps)
    obj = json.loads(cipherblock_to_json(c))
    assert list(obj) == ["n", "amps", "block_index", "mode"]


def test_cipherblock_json_rejects_bad_fields():
    with pytest.raises(InputError):
        cipherblock_from_json('{"n": 1, "amps": [[1, 0], [0, 0]]}')
    with pytest.raises(InputError):
        cipherblock_from_json('{"n": 1, "amps": [[1, 0], [0, 0]], "block_index": -1, "mode": "m1"}')


def test_cipherblock_json_rejects_nan_amplitude():
    # The NaN norm must fail the norm check instead of slipping past it.
    k = generate_key(4, 256, np.random.default_rng(9))
    obj = json.loads(cipherblock_to_json(encrypt_block(k, PlainBlock("1010"))))
    obj["amps"][0][0] = float("nan")
    with pytest.raises(IntegrityError):
        cipherblock_from_json(json.dumps(obj))


def test_purity_read_rejects_nan():
    with pytest.raises(IntegrityError):
        _read_basis_probs(np.abs(np.array([math.nan, 0, 0, 0], dtype=complex)) ** 2, 2, "state")


@pytest.mark.parametrize("bits", [["0", "1"], ("1", "0"), b"01", 5, None])
def test_plainblock_rejects_non_string_bits(bits):
    with pytest.raises(InputError, match="plaintext block"):
        PlainBlock(bits)


def test_encrypt_block_never_sees_a_list_plaintext():
    k = canonical_key(2, N=16)
    with pytest.raises(InputError):
        encrypt_block(k, PlainBlock(["0", "1"]))


@pytest.mark.parametrize("a, b", [("1_0", "101"), (" 1", "01"), ("101", "1_0"), ("01", " 1")])
def test_xor_bits_rejects_what_int_would_parse(a, b):
    # int(..., 2) reads "1_0" as 2 and " 1" as 1; neither is a bitstring.
    with pytest.raises(InputError, match="xor operand"):
        xor_bits(a, b)
