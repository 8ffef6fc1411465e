import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_marginal_p0, dense_apply, random_state
from qcipher.cipher import CipherBlock, PlainBlock, cipherblock_to_json, decrypt_block
from qcipher.errors import CipherError, InputError, IntegrityError, ResourceError
from qcipher.keyschedule import Cnot, SingleU, generate_key
from qcipher.modes import (
    Mode,
    ModeConfig,
    Transmission,
    mode1_decrypt,
    mode1_encrypt,
    mode2_decrypt,
    mode2_encrypt,
    transmission_to_json,
)
from qcipher.statevector import (
    StateVector,
    apply_cnot,
    apply_single,
    basis_state,
    fidelity,
    marginals,
    measure_all,
    state_from_json,
    state_to_json,
    tensor,
)


def test_basis_state_single_zero():
    s = basis_state(1, "0")
    assert np.allclose(s.amps, [1.0, 0.0])


def test_basis_state_bitstring_indexing():
    s = basis_state(5, "00101")
    assert s.amps[5] == 1.0
    assert np.count_nonzero(s.amps) == 1
    s = basis_state(2, "10")
    assert s.amps[2] == 1.0


def test_basis_state_length_mismatch():
    with pytest.raises(InputError):
        basis_state(3, "01")
    with pytest.raises(InputError):
        basis_state(2, "0a")


def test_statevector_validation():
    with pytest.raises(InputError):
        StateVector(1, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(InputError):
        StateVector(1, np.array([0.7, 0.7]))
    with pytest.raises(ResourceError):
        StateVector(25, np.zeros(2))
    with pytest.raises(InputError):
        StateVector(0, np.array([1.0]))


def test_amplitudes_are_read_only():
    s = basis_state(2, "00")
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_apply_single_on_zero():
    s = apply_single(basis_state(1, "0"), 1, math.pi / 3)
    assert np.allclose(s.amps, [math.cos(math.pi / 3), math.sin(math.pi / 3)])
    assert marginals(s)[0] == pytest.approx(0.25, abs=1e-12)


def test_apply_single_on_one():
    theta = 0.7
    s = apply_single(basis_state(1, "1"), 1, theta)
    assert np.allclose(s.amps, [math.sin(theta), -math.cos(theta)])


def test_apply_single_is_involution():
    rng = np.random.default_rng(0)
    s = random_state(3, rng)
    out = apply_single(apply_single(s, 2, 1.234), 2, 1.234)
    assert np.max(np.abs(out.amps - s.amps)) < 1e-12


def test_apply_single_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        q = int(rng.integers(1, n + 1))
        theta = float(rng.uniform(0, 2 * math.pi))
        s = random_state(n, rng)
        got = apply_single(s, q, theta)
        want = dense_apply([SingleU(q, theta)], s.amps, n)
        assert np.max(np.abs(got.amps - want)) < 1e-12


def test_apply_single_range_check():
    s = basis_state(2, "00")
    with pytest.raises(InputError):
        apply_single(s, 3, 0.1)
    with pytest.raises(InputError):
        apply_single(s, 0, 0.1)


def test_apply_cnot_truth_table():
    assert np.allclose(apply_cnot(basis_state(2, "10"), 1, 2).amps, basis_state(2, "11").amps)
    assert np.allclose(apply_cnot(basis_state(2, "01"), 1, 2).amps, basis_state(2, "01").amps)


def test_apply_cnot_on_product_state():
    # CNOT 1->2 on (a1|0> + a2|1>)(b1|0> + b2|1>) leaves amplitudes
    # [a1 b1, a1 b2, a2 b2, a2 b1] in basis order.
    a1, a2, b1, b2 = 0.6, 0.8, 0.8, 0.6
    s = tensor(
        StateVector(1, np.array([a1, a2], dtype=complex)),
        StateVector(1, np.array([b1, b2], dtype=complex)),
    )
    out = apply_cnot(s, 1, 2)
    assert np.allclose(out.amps, [a1 * b1, a1 * b2, a2 * b2, a2 * b1])


def test_apply_cnot_is_involution():
    rng = np.random.default_rng(2)
    s = random_state(4, rng)
    out = apply_cnot(apply_cnot(s, 3, 1), 3, 1)
    assert np.max(np.abs(out.amps - s.amps)) < 1e-12


def test_apply_cnot_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        c, t = rng.choice(range(1, n + 1), size=2, replace=False)
        s = random_state(n, rng)
        got = apply_cnot(s, int(c), int(t))
        want = dense_apply([Cnot(int(c), int(t))], s.amps, n)
        assert np.max(np.abs(got.amps - want)) < 1e-12


def test_apply_cnot_rejects_equal_qubits():
    with pytest.raises(InputError):
        apply_cnot(basis_state(2, "00"), 1, 1)


def test_marginal_after_cnot_mixing():
    a1, a2, b1, b2 = 0.6, 0.8, 0.8, 0.6
    s = tensor(
        StateVector(1, np.array([a1, a2], dtype=complex)),
        StateVector(1, np.array([b1, b2], dtype=complex)),
    )
    out = apply_cnot(s, 1, 2)
    # brute-force four-amplitude sum, then the closed form a1^2 b1^2 + a2^2 b2^2
    assert marginals(out)[1] == pytest.approx(brute_marginal_p0(out.amps, 2, 2), abs=1e-15)
    assert marginals(out)[1] == pytest.approx(0.4608, abs=1e-12)
    assert marginals(out)[0] == pytest.approx(0.36, abs=1e-12)


def test_marginal_on_basis_state():
    s = basis_state(2, "01")
    assert marginals(s)[0] == pytest.approx(1.0)
    assert marginals(s)[1] == pytest.approx(0.0)


def test_marginals_vector_matches_brute_force():
    rng = np.random.default_rng(4)
    s = random_state(5, rng)
    got = marginals(s)
    for q in range(1, 6):
        assert got[q - 1] == pytest.approx(brute_marginal_p0(s.amps, 5, q), abs=1e-12)


def test_single_qubit_gate_locality():
    # A rotation moves only its own qubit's marginal, on any state.
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(1, n + 1))
        s = random_state(n, rng)
        out = apply_single(s, q, float(rng.uniform(0, 2 * math.pi)))
        before, after = marginals(s), marginals(out)
        for other in range(1, n + 1):
            if other != q:
                assert abs(after[other - 1] - before[other - 1]) < 1e-12


def test_three_qubit_chain_marginals_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        th = rng.uniform(0, 2 * math.pi, size=3)
        a1, a2 = math.cos(th[0]), math.sin(th[0])
        b1, b2 = math.cos(th[1]), math.sin(th[1])
        c1, c2 = math.cos(th[2]), math.sin(th[2])
        s = basis_state(3, "000")
        for q in range(3):
            s = apply_single(s, q + 1, float(th[q]))
        s = apply_cnot(apply_cnot(s, 1, 2), 2, 3)
        m = marginals(s)
        assert m[0] == pytest.approx(a1**2, abs=1e-12)
        assert m[1] == pytest.approx(a1**2 * b1**2 + a2**2 * b2**2, abs=1e-12)
        p3 = (a1**2 * b1**2 + a2**2 * b2**2) * c1**2 + (a1**2 * b2**2 + a2**2 * b1**2) * c2**2
        assert m[2] == pytest.approx(p3, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_norm_preserved_by_random_gate_sequences(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    s = basis_state(n, "".join(str(b) for b in rng.integers(0, 2, size=n)))
    for _ in range(30):
        if n >= 2 and rng.random() < 0.5:
            c, t = rng.choice(range(1, n + 1), size=2, replace=False)
            s = apply_cnot(s, int(c), int(t))
        else:
            s = apply_single(s, int(rng.integers(1, n + 1)), float(rng.uniform(0, 2 * math.pi)))
    assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) < 1e-9


def test_measure_all_deterministic_on_basis_state():
    rng = np.random.default_rng(7)
    out = measure_all(basis_state(4, "0110"), rng)
    assert out.bits == "0110"
    assert np.allclose(out.collapsed.amps, basis_state(4, "0110").amps)


def test_measure_all_born_frequencies():
    s = apply_single(basis_state(1, "0"), 1, math.pi / 4)
    rng = np.random.default_rng(8)
    zeros = sum(measure_all(s, rng).bits == "0" for _ in range(10**5))
    assert abs(zeros / 10**5 - 0.5) < 0.01


def test_measure_all_seed_determinism():
    s = apply_single(basis_state(2, "00"), 1, 0.9)
    a = [measure_all(s, np.random.default_rng(42)).bits for _ in range(3)]
    assert a[0] == a[1] == a[2]


def test_measurement_outcome_collapsed_is_basis():
    s = apply_single(apply_single(basis_state(2, "00"), 1, 0.5), 2, 1.1)
    out = measure_all(s, np.random.default_rng(9))
    idx = int(out.bits, 2)
    assert abs(out.collapsed.amps[idx]) == pytest.approx(1.0, abs=1e-9)


def test_tensor_basis_states():
    assert np.allclose(tensor(basis_state(1, "0"), basis_state(1, "1")).amps, basis_state(2, "01").amps)


def test_tensor_preserves_norm_and_marginals():
    rng = np.random.default_rng(10)
    a, b = random_state(3, rng), random_state(2, rng)
    joint = tensor(a, b)
    assert abs(np.sum(np.abs(joint.amps) ** 2) - 1.0) < 1e-9
    for q in range(1, 4):
        assert marginals(joint)[q - 1] == pytest.approx(brute_marginal_p0(joint.amps, 5, q), abs=1e-12)
        assert marginals(joint)[q - 1] == pytest.approx(marginals(a)[q - 1], abs=1e-12)


def test_tensor_size_cap():
    a = basis_state(13, "0" * 13)
    with pytest.raises(ResourceError):
        tensor(a, basis_state(12, "0" * 12))


def test_fidelity_extremes():
    s = random_state(3, np.random.default_rng(11))
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(basis_state(1, "0"), basis_state(1, "1")) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_unitary_invariance():
    rng = np.random.default_rng(12)
    a, b = random_state(3, rng), random_state(3, rng)
    before = fidelity(a, b)
    for gate in [(1, 0.3), (3, 2.2), (2, 4.0)]:
        a = apply_single(a, *gate)
        b = apply_single(b, *gate)
    a, b = apply_cnot(a, 1, 3), apply_cnot(b, 1, 3)
    assert fidelity(a, b) == pytest.approx(before, abs=1e-12)


def test_fidelity_size_mismatch():
    with pytest.raises(InputError):
        fidelity(basis_state(1, "0"), basis_state(2, "00"))


# --- serialization -------------------------------------------------------

def test_state_json_round_trip_bit_exact():
    rng = np.random.default_rng(13)
    for n in (1, 3, 6):
        s = random_state(n, rng)
        back = state_from_json(state_to_json(s))
        assert back.n == n
        assert np.array_equal(back.amps, s.amps)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_state_json_round_trip_property(seed):
    s = random_state(4, np.random.default_rng(seed))
    assert np.array_equal(state_from_json(state_to_json(s)).amps, s.amps)


def test_state_json_shape():
    s = apply_single(basis_state(2, "01"), 1, 1.0)
    obj = json.loads(state_to_json(s))
    assert list(obj) == ["n", "amps"]
    assert obj["n"] == 2
    assert len(obj["amps"]) == 4
    assert all(len(pair) == 2 for pair in obj["amps"])


def test_state_json_rejects_malformed():
    with pytest.raises(InputError):
        state_from_json("not json")
    with pytest.raises(InputError):
        state_from_json('{"n": 1, "amps": [[1, 0], [0, 0]], "extra": 1}')
    with pytest.raises(InputError):
        state_from_json('{"n": 2, "amps": [[1, 0], [0, 0]]}')


def test_state_json_norm_violation_is_integrity_error():
    with pytest.raises(IntegrityError):
        state_from_json('{"n": 1, "amps": [[0.7, 0], [0.1, 0]]}')


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_statevector_rejects_non_finite_amplitudes(bad):
    # In a real array, and in either part of a complex one.
    for amps in ([bad, 0, 0, 0], [complex(bad, 0), 0, 0, 0], [complex(0.6, bad), 0.8, 0, 0]):
        with pytest.raises(InputError):
            StateVector(2, amps)


def test_state_json_rejects_nan_amplitude():
    # In a real array, and in either part of a complex one.
    for pair in ["[NaN, 0]", "[Infinity, 0]", "[0.6, NaN]", "[0.6, -Infinity]"]:
        with pytest.raises(IntegrityError):
            state_from_json(f'{{"n": 1, "amps": [{pair}, [0.8, 0]]}}')


@pytest.mark.parametrize("bits", [["0", "1"], b"01", 5])
def test_basis_state_rejects_non_string_bits(bits):
    with pytest.raises(InputError, match="bitstring"):
        basis_state(2, bits)


# --- real-held and complex-held states ---------------------------------------
# Real data stays float64 and complex data stays complex128. A complex copy
# of a real state, with every imaginary part +0, must give the same reads,
# errors and file bytes as the real one.


def _twins(n, real):
    a, b = StateVector(n, real), StateVector(n, real.astype(np.complex128))
    assert a.amps.dtype == np.float64 and b.amps.dtype == np.complex128
    return a, b


def _result(f):
    try:
        return f()
    except CipherError as exc:
        return type(exc)


def _bits(rng, n):
    return "".join(str(b) for b in rng.integers(0, 2, size=n))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    tamper=st.sampled_from(["none", "flip", "noise"]),
)
@settings(max_examples=60, deadline=None)
def test_real_and_complex_held_copies_read_alike(seed, n, m, tamper):
    rng = np.random.default_rng(seed)
    k = generate_key(n, 16, rng)
    iv = _bits(rng, n)
    blocks = [PlainBlock(_bits(rng, n)) for _ in range(m)]

    def twins(state):
        # With guarded angles (N = 16) a sign flip or noise leaves no basis
        # state, so the decrypts below raise IntegrityError.
        amps = state.amps.copy()
        if tamper == "flip":
            amps[np.argmax(np.abs(amps))] *= -1.0
        elif tamper == "noise":
            amps += 0.3 * rng.normal(size=amps.size)
            amps /= np.linalg.norm(amps)
        return _twins(state.n, amps)

    t1 = mode1_encrypt(k, blocks, ModeConfig(Mode.MEASURED, iv), rng)
    cfg2 = ModeConfig(Mode.ENTANGLING, iv, tuple(int(q) for q in rng.permutation(n) + 1))
    t2 = mode2_encrypt(k, blocks, cfg2)
    pairs1 = [twins(b.state) for b in t1.blocks]
    carriers = [twins(c) for c in t1.iv_carriers]
    joint = twins(t2.joint)

    def transmissions(h):
        sealed = tuple(CipherBlock(p[h], i, "m1") for i, p in enumerate(pairs1))
        return (
            Transmission(Mode.MEASURED, n, m, sealed, tuple(c[h] for c in carriers)),
            Transmission(Mode.ENTANGLING, n, m, joint=joint[h]),
        )

    (m1_real, m2_real), (m1_cplx, m2_cplx) = transmissions(0), transmissions(1)
    assert transmission_to_json(m1_real) == transmission_to_json(m1_cplx)
    assert transmission_to_json(m2_real) == transmission_to_json(m2_cplx)
    cfg1 = ModeConfig(Mode.MEASURED, iv)
    got = _result(lambda: mode1_decrypt(k, m1_real, cfg1))
    assert got == _result(lambda: mode1_decrypt(k, m1_cplx, cfg1))
    assert got == blocks if tamper == "none" else got is IntegrityError
    got = _result(lambda: mode2_decrypt(k, m2_real, cfg2))
    assert got == _result(lambda: mode2_decrypt(k, m2_cplx, cfg2))
    assert got == blocks if tamper == "none" else got is IntegrityError

    for a, b in [*pairs1, *carriers, joint]:
        if a.n == n:
            got = _result(lambda: decrypt_block(k, CipherBlock(a)))
            assert got == _result(lambda: decrypt_block(k, CipherBlock(b)))
        assert cipherblock_to_json(CipherBlock(a)) == cipherblock_to_json(CipherBlock(b))
        assert np.array_equal(marginals(a), marginals(b))
        got_a, got_b = measure_all(a, np.random.default_rng(seed)), measure_all(b, np.random.default_rng(seed))
        assert got_a.bits == got_b.bits and np.array_equal(got_a.collapsed.amps, got_b.collapsed.amps)
        # fidelity is a dot product, which BLAS sums in another order for
        # float64 than for complex128: equal to rounding, not bit for bit.
        assert fidelity(a, a) == pytest.approx(fidelity(b, b), abs=1e-14)
        assert fidelity(a, got_a.collapsed) == pytest.approx(fidelity(b, got_b.collapsed), abs=1e-14)


def test_negative_zero_imaginary_part_keeps_the_state_complex():
    amps = np.array([0.6, -0.8, 0.0, 0.0], dtype=np.complex128)
    amps.imag[1] = -0.0
    s = StateVector(2, amps)
    assert s.amps.dtype == np.complex128
    text = state_to_json(s)
    assert text == '{"n": 2, "amps": [[0.59999999999999998, 0], [-0.80000000000000004, -0], [0, 0], [0, 0]]}'
    back = state_from_json(text).amps
    assert back.dtype == np.complex128 and np.signbit(back.imag).tolist() == [False, True, False, False]
    # Every imaginary part written as the literal 0 reads back real.
    plus = state_from_json(state_to_json(StateVector(2, amps.real.astype(np.complex128)))).amps
    assert plus.dtype == np.float64 and np.array_equal(plus, amps.real)
