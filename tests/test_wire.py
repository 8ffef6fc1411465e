"""The wire format: one writer and one reader for every "amps" array.

The writer must give the same bytes as the per-amplitude f-string it
replaced. The reader is differential-tested against the json.loads-based
readers in ``oracles.py``: on real files, mutated by Hypothesis, it must
return the same amplitudes bit for bit or raise the same CipherError
subclass, and nothing else may escape it.
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    PAIRS_BACKTRACKING,
    cipherblock_from_json_oracle,
    random_state,
    state_from_json_oracle,
    transmission_from_json_oracle,
)
from qcipher import statevector
from qcipher.cipher import CipherBlock, PlainBlock, cipherblock_from_json, cipherblock_to_json, encrypt_block
from qcipher.cli import main
from qcipher.errors import CipherError, InputError, IntegrityError
from qcipher.keyschedule import generate_key, key_to_json
from qcipher.modes import Mode, ModeConfig, encrypt, transmission_from_json, transmission_to_json
from qcipher.statevector import StateVector, _amps_body, state_from_json, state_to_json


def _fstring_body(amps):
    return ", ".join(f"[{z.real:.17g}, {z.imag:.17g}]" for z in amps)


def _with_imag(real, imag):
    amps = np.array(real, dtype=np.complex128)
    amps.imag[:] = imag
    return amps


# --- writer ------------------------------------------------------------------

@pytest.mark.parametrize(
    "amps",
    [
        _with_imag([0.6, -0.8, 0.0, 0.0], 0.0),
        _with_imag([0.6, -0.8, 0.0, 0.0], [0.0, -0.0, 0.0, 0.0]),
        _with_imag([0.6, -0.8, 0.0, -0.0], -0.0),
        _with_imag([1e-300, 5e-324, -1.7976931348623157e308, 0.1], [0.5, -2.5e-310, 0.0, 3.0]),
        _with_imag([np.nan, np.inf, -np.inf, 1.0], [0.0, np.nan, -np.inf, 0.0]),
    ],
)
def test_writer_matches_the_fstring_writer(amps):
    assert _amps_body(amps) == _fstring_body(amps)


def test_writer_matches_the_fstring_writer_across_slices():
    rng = np.random.default_rng(3)
    size = 2 * statevector._SLICE + 5
    real = random_state(1, rng).amps.real[0] * rng.normal(size=size)
    assert _amps_body(real.astype(np.complex128)) == _fstring_body(real.astype(np.complex128))
    both = _with_imag(real, rng.normal(size=size))
    assert _amps_body(both) == _fstring_body(both)


# --- reader ------------------------------------------------------------------

def _entries(t):
    if t.mode is Mode.MEASURED:
        return [s.amps for b, c in zip(t.blocks, t.iv_carriers) for s in (b.state, c)]
    return [t.joint.amps] if t.m else []


READERS = {
    "state": (lambda text: [state_from_json(text).amps], lambda text: [state_from_json_oracle(text)]),
    "block": (
        lambda text: [cipherblock_from_json(text).state.amps],
        lambda text: [cipherblock_from_json_oracle(text)],
    ),
    "transmission": (lambda text: _entries(transmission_from_json(text)), transmission_from_json_oracle),
}


def _outcome(read, text):
    """The amplitudes' bits as complex128 (an exact cast from float64), or
    the CipherError class; any other exception escapes and fails the test."""
    try:
        return [np.asarray(a, np.complex128).view(np.uint64).tobytes() for a in read(text)]
    except CipherError as exc:
        return type(exc)


def _corpus():
    rng = np.random.default_rng(2024)
    key = generate_key(3, 64, rng)
    m1 = ModeConfig(Mode.MEASURED, "011")
    m2 = ModeConfig(Mode.ENTANGLING, "110", key.mode2_pairing)
    blocks = [PlainBlock("101"), PlainBlock("000")]
    return [
        state_to_json(random_state(2, rng)),
        state_to_json(StateVector(3, encrypt_block(key, PlainBlock("110")).state.amps)),
        state_to_json(StateVector(1, _with_imag([0.6, -0.8], [-0.0, 0.0]))),
        cipherblock_to_json(CipherBlock(encrypt_block(key, PlainBlock("011")).state, 2, "m1")),
        transmission_to_json(encrypt(key, blocks, m1, np.random.default_rng(5))),
        transmission_to_json(encrypt(key, blocks, m2)),
    ]


CORPUS = _corpus()
SPLICES = [
    "1_0", "+1", ".5", "1.", "nan", "inf", "NaN", "-Infinity", "Infinity", "٣", "[1, 2, 3]",
    "[[1, 2]]", "1 2", "01", "-01", "-0", "1e5", "1E+2", "1e-05", "-", "true", "null", '"0.5"', "{}",
    "0x1", "1e", "--1", "1.5.5", "1e5e5", "1e5.5", "1.e5", "[]", "]", "[", ",", "1e400", "-0.0", "0.5",
    # Near misses, where a quantifier that gives nothing back could decide
    # differently from one that backtracks.
    "0e", "1e+", "-.5", "00", "0e05", "-0e-0", "-NaN", "NaNN", "Infinityy", "--Infinity",
]
SPACES = [" ", "\n", "\t", "\r\n  ", ""]
NUMBER = re.compile(r"-?[0-9][0-9.eE+-]*")


def _mutate(text, ops):
    for op, where, what in ops:
        numbers = [m.span() for m in NUMBER.finditer(text)] or [(0, 0)]
        structure = [i for i, c in enumerate(text) if c in "[],:{}"] or [0]
        if op == "replace":
            a, b = numbers[where % len(numbers)]
            text = text[:a] + SPLICES[what % len(SPLICES)] + text[b:]
        elif op == "insert":
            at = where % (len(text) + 1)
            text = text[:at] + SPLICES[what % len(SPLICES)] + text[at:]
        elif op == "space":
            at = structure[where % len(structure)] + what % 2
            text = text[:at] + SPACES[what % len(SPACES)] + text[at:]
        elif op == "truncate":
            text = text[: where % (len(text) + 1)]
        else:  # drop one [re, im] pair with the comma before or after it
            pairs = list(re.finditer(r"\[[^\[\]]*\](, )?", text))
            if pairs:
                a, b = pairs[where % len(pairs)].span()
                text = text[:a] + text[b:]
    return text


OPS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "space", "truncate", "drop"]),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=3,
)


# The reader's chunk (characters converted at a time): the default, and
# sizes that cut every pair.
SIZES = [{"_CHUNK": statevector._CHUNK}, {"_CHUNK": 1}, {"_CHUNK": 13}]


@given(base=st.integers(0, len(CORPUS) - 1), ops=OPS, sizes=st.sampled_from(SIZES))
# Splices that make an amplitude above 1e154, whose square overflows: the
# statevector reader and its oracle must both give IntegrityError.
@example(base=2, ops=[("insert", 1159, 83249)], sizes=SIZES[0])
@example(base=0, ops=[("insert", 1209, 160), ("insert", 150, 161)], sizes=SIZES[0])
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_the_json_oracle_on_mutated_files(base, ops, sizes):
    text = _mutate(CORPUS[base], ops)
    with mock.patch.multiple(statevector, **sizes):
        for read, oracle in READERS.values():
            assert _outcome(read, text) == _outcome(oracle, text), text


PAIR_VALUES = st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=4)


@given(values=PAIR_VALUES, ops=OPS, start=st.integers(0, 8))
@settings(max_examples=400, deadline=None)
def test_possessive_grammar_agrees_with_the_backtracking_one(values, ops, start):
    amps = np.array([complex(*v) for v in values])
    text = _mutate(_amps_body(amps), ops)
    assert (statevector._PAIRS.fullmatch(text) is None) == (PAIRS_BACKTRACKING.fullmatch(text) is None), text
    pos = min(start, len(text))
    got, want = statevector._PAIRS.match(text, pos), PAIRS_BACKTRACKING.match(text, pos)
    assert (got and got.end()) == (want and want.end()), text


def test_each_amps_array_is_matched_once():
    calls, pattern = [], statevector._PAIRS

    class Spy:
        def match(self, text, pos):
            calls.append(pos)
            return pattern.match(text, pos)

    _, text = _m1_file()
    with mock.patch.multiple(statevector, _PAIRS=Spy(), _CHUNK=1):
        transmission_from_json(text)
    assert len(calls) == text.count('"amps"') == 4


@pytest.mark.parametrize("text", CORPUS)
@pytest.mark.parametrize("sizes", SIZES)
def test_reader_reads_every_real_file_and_its_reindented_copy(text, sizes):
    with mock.patch.multiple(statevector, **sizes):
        for copy in (text, json.dumps(json.loads(text), indent=2), json.dumps(json.loads(text), separators=(",", ":"))):
            outcomes = [_outcome(read, copy) for read, _ in READERS.values()]
            assert any(isinstance(o, list) for o in outcomes)
            for (_, oracle), got in zip(READERS.values(), outcomes):
                assert got == _outcome(oracle, copy)


def test_large_state_round_trips_bit_exactly_across_chunks():
    s = random_state(12, np.random.default_rng(8))
    text = state_to_json(s)
    for sizes in [*SIZES, {"_CHUNK": 4096}]:
        with mock.patch.multiple(statevector, **sizes):
            back = state_from_json(text).amps
        assert np.array_equal(back.view(np.uint64), s.amps.view(np.uint64))


def test_negative_zero_imaginary_part_round_trips():
    s = StateVector(1, _with_imag([0.6, -0.8], [-0.0, 0.0]))
    back = state_from_json(state_to_json(s)).amps
    assert np.signbit(back.imag).tolist() == [True, False]


@pytest.mark.parametrize(
    "token, error",
    [
        ("1_0", InputError), ("+1", InputError), (".5", InputError), ("1.", InputError),
        ("nan", InputError), ("inf", InputError), ("٣", InputError), ("01", InputError),
        ("1 2", InputError), ("[1, 2, 3]", InputError), ("[[1, 2]]", InputError),
        ("true", InputError), ('"0.6"', InputError), ("NaN", IntegrityError),
        ("Infinity", IntegrityError), ("-Infinity", IntegrityError), ("1e400", IntegrityError),
    ],
)
def test_amplitude_tokens_outside_json_numbers_are_input_errors(token, error):
    text = '{"n": 1, "amps": [[0.6, 0], [-0.8, 0]]}'.replace("0.6", token, 1)
    with pytest.raises(error):
        state_from_json(text)
    with pytest.raises(error):
        state_from_json_oracle(text)


def _m1_file():
    key = generate_key(2, 16, np.random.default_rng(1))
    t = encrypt(key, [PlainBlock("10"), PlainBlock("01")], ModeConfig(Mode.MEASURED, "00"), np.random.default_rng(1))
    return key, transmission_to_json(t)


def _replace_amp(text, entry, token):
    """Put ``token`` in place of the first real part of payload entry ``entry``."""
    at = [m.end() for m in re.finditer(r'"amps": \[\[', text)][entry]
    return text[:at] + token + text[NUMBER.match(text, at).end() :]


def test_a_syntax_error_anywhere_beats_an_earlier_nan():
    _, text = _m1_file()
    nan_first = _replace_amp(text, 0, "NaN")
    with pytest.raises(IntegrityError):
        transmission_from_json(nan_first)
    with pytest.raises(InputError):
        transmission_from_json(_replace_amp(nan_first, 3, "1_0"))
    # Valid JSON of the wrong shape is checked in its entry's turn, after the NaN.
    with pytest.raises(IntegrityError):
        transmission_from_json(_replace_amp(nan_first, 3, "[1, 2, 3]"))


def test_an_escaped_amps_key_is_rejected():
    # The reader finds "amps" arrays by their literal key; json.loads alone
    # would decode this one.
    with pytest.raises(InputError):
        state_from_json('{"n": 1, "\\u0061mps": [[1, 0], [0, 0]]}')


def test_no_amps_array_reaches_json_loads():
    sizes = []
    loads = json.loads

    def spy(text, **kw):
        sizes.append(len(text))
        return loads(text, **kw)

    _, text = _m1_file()
    s = random_state(10, np.random.default_rng(4))
    with mock.patch.object(statevector.json, "loads", spy):
        transmission_from_json(text)
        state_from_json(state_to_json(s))
    assert sizes and max(sizes) < 400


@pytest.mark.parametrize("token, code", [("NaN", 2), ("-Infinity", 2), ("1_0", 1), ("nan", 1), (".5", 1)])
def test_decrypt_exit_codes_for_non_json_numbers(tmp_path, token, code):
    key, text = _m1_file()
    (tmp_path / "key.json").write_text(key_to_json(key))
    (tmp_path / "t.json").write_text(_replace_amp(text, 0, token))
    argv = ["decrypt", "--key", str(tmp_path / "key.json"), "--in", str(tmp_path / "t.json"),
            "--out", str(tmp_path / "out.bin")]
    assert main(argv) == code
