import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import apply_circuit, dense_apply, inverse_circuit, random_state
from qcipher.errors import CipherError, InputError, InvalidKeyError, ResourceError
from qcipher.keyschedule import (
    CipherKey,
    Cnot,
    SingleU,
    enumerate_keys,
    generate_key,
    key_circuit,
    key_from_json,
    key_to_json,
    keyspace_size,
    theta_value,
)


def canonical_key(n, N=256, theta=None):
    """Key with ascending pairing and identity upstream order."""
    ups = list(range(1, n // 2 + 1))
    downs = list(range(n // 2 + 1, n + 1))
    if n % 2 == 1:
        downs = downs[1:]
    return CipherKey(
        n,
        N,
        tuple(theta if theta is not None else [1] * n),
        tuple(zip(downs, ups)),
        tuple(ups),
    )


def test_generate_key_is_deterministic():
    a = generate_key(8, 256, np.random.default_rng(42))
    b = generate_key(8, 256, np.random.default_rng(42))
    assert a == b


def test_generate_key_gate_totals():
    k = generate_key(8, 256, np.random.default_rng(42))
    ops = key_circuit(k)
    assert sum(isinstance(op, SingleU) for op in ops) == 8
    assert sum(isinstance(op, Cnot) for op in ops) == 19


def test_generate_key_two_qubits_single_pairing():
    for seed in range(5):
        k = generate_key(2, 4, np.random.default_rng(seed))
        assert k.step3_pairs == ((2, 1),)
        assert k.step4_upstream_order == (1,)


def test_generate_key_guard_avoids_quarter_turn_angles():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = generate_key(8, 256, rng)
        for q in range(1, 9):
            theta = theta_value(k, q)
            r = math.fmod(theta, math.pi / 4)
            assert min(r, math.pi / 4 - r) >= 1e-3


def test_generate_key_degenerate_grid_still_works():
    # N = 4 has only quarter-turn angles; the guard must not loop forever.
    k = generate_key(3, 4, np.random.default_rng(1))
    assert all(0 <= t < 4 for t in k.theta_indices)


def test_generate_key_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        generate_key(1, 4, rng)
    with pytest.raises(InputError):
        generate_key(4, 1, rng)


@pytest.mark.parametrize(
    "n, N", [(1, 4), (25, 4), (True, 4), (2.0, 4), ("4", 4), (4, 1), (4, True), (4, 4.0), (4, None)]
)
def test_bad_sizes_raise_one_class_per_entry_point(n, N):
    # One check serves both: InputError for generate_key's arguments, before
    # any draw, and InvalidKeyError for a key.
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(CipherError) as info:
        generate_key(n, N, rng)
    assert info.type is InputError
    assert rng.bit_generator.state == before
    with pytest.raises(CipherError) as info:
        CipherKey(n, N, (0, 0), ((2, 1),), (1,))
    assert info.type is InvalidKeyError


def test_generate_key_grid_fits_numpy_draws():
    # numpy draws angle indices as int64, so N = 2**63 is the largest grid.
    assert generate_key(2, 2**63, np.random.default_rng(0)).N == 2**63
    with pytest.raises(InputError):
        generate_key(2, 2**63 + 1, np.random.default_rng(0))


def test_step4_chain_sequence_n8_identity_order():
    k = canonical_key(8)
    step4 = key_circuit(k)[8 + 7 + 4 :]
    assert [(g.control, g.target) for g in step4] == [
        (8, 1), (1, 7), (7, 2), (2, 6), (6, 3), (3, 5), (5, 4), (4, 5),
    ]


def test_per_step_counts_n8():
    k = canonical_key(8)
    ops = key_circuit(k)
    assert len(ops) == 27
    assert len(key_circuit(k, through_step=1)) == 8
    assert len(key_circuit(k, through_step=2)) == 15
    assert len(key_circuit(k, through_step=3)) == 19


def test_key_circuit_n2():
    k = canonical_key(2)
    ops = key_circuit(k)
    assert [op for op in ops if isinstance(op, Cnot)] == [
        Cnot(1, 2), Cnot(2, 1), Cnot(2, 1), Cnot(1, 2),
    ]


def test_key_circuit_step2_controls_ascend():
    k = generate_key(7, 64, np.random.default_rng(3))
    step2 = key_circuit(k, through_step=2)[7:]
    controls = [g.control for g in step2]
    assert controls == sorted(controls)
    assert all(g.target == g.control + 1 for g in step2)


def test_key_circuit_odd_n_lengths():
    # Odd n: floor(n/2) pairs and an (n-1)-gate final chain.
    for n in (3, 5, 7):
        k = generate_key(n, 64, np.random.default_rng(n))
        ops = key_circuit(k)
        assert len(ops) == n + (n - 1) + n // 2 + (n - 1)


def test_key_circuit_gates_in_range():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 5, 8, 11):
        k = generate_key(n, 32, rng)
        for op in key_circuit(k):
            if isinstance(op, SingleU):
                assert 1 <= op.qubit <= n
            else:
                assert 1 <= op.control <= n and 1 <= op.target <= n and op.control != op.target


def test_inverse_circuit_is_reversal():
    k = canonical_key(4)
    ops = key_circuit(k)
    assert inverse_circuit(k) == list(reversed(ops))
    assert list(reversed(inverse_circuit(k))) == ops


def test_circuit_then_inverse_is_identity_on_random_states():
    from qcipher.statevector import fidelity

    rng = np.random.default_rng(5)
    k = generate_key(8, 256, rng)
    for _ in range(100):
        s = random_state(8, rng)
        back = apply_circuit(apply_circuit(s, key_circuit(k)), inverse_circuit(k))
        assert 1.0 - fidelity(back, s) < 1e-9


def test_key_circuit_matches_dense_oracle():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        k = generate_key(n, 16, rng)
        s = random_state(n, rng)
        got = apply_circuit(s, key_circuit(k))
        want = dense_apply(key_circuit(k), s.amps, n)
        assert np.max(np.abs(got.amps - want)) < 1e-12


def test_keyspace_size_values():
    assert keyspace_size(4, 16).size == 262144
    assert keyspace_size(4, 16).size == 2**18
    assert keyspace_size(8, 256).size == 2**64 * 576
    assert keyspace_size(8, 256).log2 == pytest.approx(73.169925001442312, abs=1e-9)
    assert keyspace_size(2, 2).size == 4
    assert keyspace_size(3, 4).size == 64


@pytest.mark.parametrize(
    "n, N, prints",
    [(1557, 2, True), (1558, 2, False), (2, 10**2149, True), (2, 10**2150, False), (10**3999, 2, False)],
)
def test_keyspace_size_is_built_only_when_it_prints(n, N, prints):
    # Python prints an int of at most 4,300 digits. The size is at least
    # 2**n, so a 4,000-digit n fails before any float is formed.
    if prints:
        assert len(str(keyspace_size(n, N).size)) <= 4300
    else:
        with pytest.raises(ResourceError):
            keyspace_size(n, N)


def test_keyspace_lower_bound():
    for n in (2, 4, 6, 8):
        for N in (2, 16, 256):
            assert keyspace_size(n, N).size >= N**n * math.factorial(n // 2)


def test_enumerate_keys_counts_match_keyspace():
    for n, N in ((2, 2), (2, 4), (3, 2), (3, 4), (4, 2)):
        count = sum(1 for _ in enumerate_keys(n, N))
        assert count == keyspace_size(n, N).size


def test_enumerate_keys_unique():
    keys = list(enumerate_keys(2, 4))
    assert len(set(keys)) == len(keys)


def test_circuit_length_formula():
    for n in (2, 4, 6, 8, 10):
        k = generate_key(n, 64, np.random.default_rng(n))
        assert len(key_circuit(k)) == n + (n - 1) + n // 2 + n


# --- CipherKey invariants -------------------------------------------------

def test_cipherkey_rejects_bad_theta():
    with pytest.raises(InvalidKeyError):
        CipherKey(2, 4, (0, 4), ((2, 1),), (1,))
    with pytest.raises(InvalidKeyError):
        CipherKey(2, 4, (0,), ((2, 1),), (1,))


def test_cipherkey_rejects_bad_pairing():
    with pytest.raises(InvalidKeyError):
        CipherKey(4, 4, (0, 0, 0, 0), ((3, 1), (4, 1)), (1, 2))
    with pytest.raises(InvalidKeyError):
        CipherKey(4, 4, (0, 0, 0, 0), ((3, 1),), (1, 2))
    with pytest.raises(InvalidKeyError):
        CipherKey(4, 4, (0, 0, 0, 0), ((1, 3), (2, 4)), (1, 2))


def test_cipherkey_rejects_bad_upstream_order():
    with pytest.raises(InvalidKeyError):
        CipherKey(4, 4, (0, 0, 0, 0), ((3, 1), (4, 2)), (1, 1))
    with pytest.raises(InvalidKeyError):
        CipherKey(4, 4, (0, 0, 0, 0), ((3, 1), (4, 2)), (1, 2, 3))


def test_cipherkey_rejects_bad_mode2_pairing():
    with pytest.raises(InvalidKeyError):
        CipherKey(2, 4, (0, 0), ((2, 1),), (1,), mode2_pairing=(1, 1))


@pytest.mark.parametrize("version", [True, 1.0, np.int64(1)])
def test_cipherkey_version_is_a_strict_integer(version):
    # Each equals 1, but key_to_json would write a file its reader rejects.
    with pytest.raises(InvalidKeyError):
        CipherKey(2, 4, (0, 0), ((2, 1),), (1,), version=version)


def test_cipherkey_odd_n_unpaired_middle():
    k = generate_key(5, 16, np.random.default_rng(7))
    paired = sorted(d for d, _ in k.step3_pairs)
    assert paired == [4, 5]  # qubit 3 stays unpaired
    assert sorted(u for _, u in k.step3_pairs) == [1, 2]


# --- serialization --------------------------------------------------------

def test_key_json_round_trip():
    k = generate_key(8, 256, np.random.default_rng(8))
    assert key_from_json(key_to_json(k)) == k


def test_key_json_round_trip_with_mode2_pairing():
    base = generate_key(4, 16, np.random.default_rng(9))
    k = CipherKey(
        base.n, base.N, base.theta_indices, base.step3_pairs,
        base.step4_upstream_order, mode2_pairing=(2, 3, 4, 1),
    )
    back = key_from_json(key_to_json(k))
    assert back == k
    assert back.mode2_pairing == (2, 3, 4, 1)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4, 5, 8]))
@settings(max_examples=25, deadline=None)
def test_key_json_round_trip_property(seed, n):
    k = generate_key(n, 64, np.random.default_rng(seed))
    assert key_from_json(key_to_json(k)) == k


def test_key_json_field_order():
    k = generate_key(4, 16, np.random.default_rng(10))
    assert list(json.loads(key_to_json(k))) == [
        "version", "n", "N", "theta", "step3_pairs", "step4_upstream_order",
    ]


def test_key_json_rejects_unknown_field():
    k = generate_key(2, 4, np.random.default_rng(11))
    obj = json.loads(key_to_json(k))
    obj["comment"] = "tampered"
    with pytest.raises(InvalidKeyError):
        key_from_json(json.dumps(obj))


def test_key_json_rejects_missing_field_and_bad_version():
    k = generate_key(2, 4, np.random.default_rng(12))
    obj = json.loads(key_to_json(k))
    del obj["theta"]
    with pytest.raises(InvalidKeyError):
        key_from_json(json.dumps(obj))
    obj = json.loads(key_to_json(k))
    obj["version"] = 2
    with pytest.raises(InvalidKeyError):
        key_from_json(json.dumps(obj))


def test_key_json_rejects_garbage():
    with pytest.raises(InputError):
        key_from_json("{truncated")
    with pytest.raises(InvalidKeyError):
        key_from_json("[1, 2, 3]")


@pytest.mark.parametrize(
    "field, value",
    [
        ("theta", [1.9, True]),
        ("theta", [1, True]),
        ("theta", [1.0, 2]),
        ("step3_pairs", [[2, 1.0]]),
        ("step3_pairs", [[True, 1]]),
        ("step4_upstream_order", [1.0]),
        ("step4_upstream_order", [True]),
        ("mode2_pairing", [1.0, 2]),
        ("mode2_pairing", [True, 2]),
        ("version", True),
        ("version", 1.0),
        ("n", 2.0),
        ("N", True),
    ],
)
def test_key_json_rejects_non_integer_entries(field, value):
    # Each value would load as a valid n = 2, N = 4 key if truncated by int().
    obj = json.loads(key_to_json(generate_key(2, 4, np.random.default_rng(13))))
    obj[field] = value
    with pytest.raises(InvalidKeyError):
        key_from_json(json.dumps(obj))


# --- key_from_json fuzzer ----------------------------------------------------
# A key file comes from outside the program: whatever its text, only a
# CipherError may escape the reader, and a key it accepts writes back to a
# file that reads as the same key.

def _key_corpus():
    rng = np.random.default_rng(2026)
    keys = [generate_key(n, N, rng) for n, N in ((2, 4), (5, 16), (8, 256))]
    k = keys[1]
    keys.append(CipherKey(k.n, k.N, k.theta_indices, k.step3_pairs, k.step4_upstream_order, (3, 1, 5, 2, 4)))
    return [key_to_json(k) for k in keys]


KEY_CORPUS = _key_corpus()
KEY_FIELDS = ["version", "n", "N", "theta", "step3_pairs", "step4_upstream_order", "mode2_pairing"]
KEY_SPLICES = [
    "0", "1", "-1", "2", "3", "24", "25", "255", "256", "1.0", "2.5", "1e3", "-0", "true", "false",
    "null", "NaN", "Infinity", '"1"', "[]", "[1]", "[1, 2]", "[[1, 2]]", "[[2, 1], [1, 2]]", "{}",
    '{"n": 2}', '"version"', "9" * 5000, "[" * 5000, "{", "]", ",", ":", '"', "\\ud800",
]
TOKEN = re.compile(r"-?[0-9]+|\[[^\[\]]*\]|\"[a-z0-9_]*\"")


def _mutate_key(text, ops):
    for op, where, what in ops:
        splice = KEY_SPLICES[what % len(KEY_SPLICES)]
        if op == "replace":
            spans = [m.span() for m in TOKEN.finditer(text)] or [(0, 0)]
            a, b = spans[where % len(spans)]
            text = text[:a] + splice + text[b:]
        elif op == "insert":
            at = where % (len(text) + 1)
            text = text[:at] + splice + text[at:]
        elif op == "delete":
            at = where % (len(text) + 1)
            text = text[:at] + text[at + 1 + what % 8 :]
        else:  # truncate
            text = text[: where % (len(text) + 1)]
    return text


KEY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=3,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.sampled_from(KEY_FIELDS) | st.text(max_size=5), inner, max_size=8),
    max_leaves=8,
)


def _check_key_text(text):
    """Any exception but a CipherError escapes and fails the test; a key
    that reads writes back to a file that reads as the same key."""
    try:
        k = key_from_json(text)
    except CipherError:
        return
    assert key_from_json(key_to_json(k)) == k


@given(base=st.integers(0, len(KEY_CORPUS) - 1), ops=KEY_OPS)
@example(base=0, ops=[("insert", 0, KEY_SPLICES.index("[" * 5000))])
@example(base=2, ops=[("replace", 3, KEY_SPLICES.index("9" * 5000))])
@settings(max_examples=400, deadline=None)
def test_key_reader_lets_only_cipher_errors_escape_mutated_files(base, ops):
    _check_key_text(_mutate_key(KEY_CORPUS[base], ops))


@given(
    obj=JSON_VALUES
    | st.fixed_dictionaries({f: JSON_VALUES for f in KEY_FIELDS[:6]}, optional={KEY_FIELDS[6]: JSON_VALUES})
)
@settings(max_examples=150, deadline=None)
def test_key_reader_lets_only_cipher_errors_escape_random_json(obj):
    _check_key_text(json.dumps(obj))
