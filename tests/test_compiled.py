"""The compiled path (rotation angles plus the GF(2) columns of A) against
the gate-by-gate simulator it replaces in the block cipher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cnot_matrix
from qcipher.cipher import (
    _apply_ops_inplace,
    _encrypt_amps,
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


def _matrix(cols, n):
    """Boolean A with entry (m, j) = bit of output qubit m+1 in column j."""
    return np.array([[bool(cols[j] >> (n - 1 - m) & 1) for j in range(n)] for m in range(n)])


def _gate_by_gate_read(ops, amps, n):
    out = amps.copy()
    _apply_ops_inplace(out, n, list(reversed(ops)))
    return out


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
