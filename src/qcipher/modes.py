"""Multi-block encryption: two quantum takes on cipher block chaining.

Mode 1 (measured IV): each block is XORed with a chaining value before
encryption. The chaining value for block i+1 is obtained by measuring a
rebuilt copy of block i's ciphertext; the collapsed basis state travels
with the transmission as an IV carrier, so the chaining value never crosses
a classical channel. Measurement makes this mode genuinely random.

Mode 2 (entangling CNOTs): block i's plaintext register is stitched to
block i-1's ciphertext with one CNOT per qubit (under a pairing permutation
that can be part of the key) before the key circuit runs on it. All blocks
live in one joint register, which is why the total width is capped; the
mode is fully deterministic. Both directions run on the compiled key, one
block of the register at a time: encryption multiplies on rows of the key's
table of ciphertexts (one row per basis input). Decryption is the block
cipher's read for any number of blocks: from the register's largest
amplitude it reads each block, last block first, from pairs of amplitudes
and contracts the block away, then checks the whole read's probability.

The first block of either mode is XORed with a pre-shared initialization
vector that is stored with the key material, never with the transmission.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cipher import (
    CipherBlock,
    PlainBlock,
    _decrypt_bits,
    _encrypt_amps,
    _encrypt_table,
    _pairing_map,
    _read_basis_probs,
    cipherblock_from_obj,
    cipherblock_to_json,
    encrypt_block,
    xor_bits,
)
from .errors import InputError
from .keyschedule import CipherKey, _permutation, compile_circuit, key_circuit
from .statevector import StateVector, _check_bits, _check_n, _load_json, _owned, _shown, measure_all


class Mode(str, Enum):
    MEASURED = "m1"
    ENTANGLING = "m2"


@dataclass(frozen=True)
class ModeConfig:
    """Chaining parameters shared between sender and receiver.

    ``iv`` is the pre-shared first chaining value. ``mode2_pairing`` maps
    qubit q of the previous ciphertext to qubit pairing[q-1] of the next
    plaintext; it defaults to the identity and is only meaningful for the
    entangling mode.
    """

    mode: Mode
    iv: str
    mode2_pairing: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, Mode):
            raise InputError(f"mode must be a Mode value, got {self.mode!r}")
        _check_bits(self.iv, "iv")
        if self.mode is Mode.MEASURED:
            if self.mode2_pairing is not None:
                raise InputError("mode2_pairing is only valid for the entangling mode")
            return
        # The key's check of its own mode2_pairing, raising InputError.
        pairing = range(1, self.n + 1) if self.mode2_pairing is None else self.mode2_pairing
        object.__setattr__(self, "mode2_pairing", _permutation(pairing, self.n, "mode2_pairing", InputError))

    @property
    def n(self) -> int:
        return len(self.iv)


@dataclass(frozen=True, eq=False)
class Transmission:
    """Everything that crosses the simulated quantum channel."""

    mode: Mode
    n: int
    m: int
    blocks: tuple[CipherBlock, ...] = ()
    iv_carriers: tuple[StateVector, ...] = ()
    joint: StateVector | None = None

    def __post_init__(self) -> None:
        if self.m < 0:
            raise InputError("block count must be nonnegative")
        if self.mode is Mode.MEASURED:
            if self.joint is not None:
                raise InputError("measured-IV transmissions carry per-block states, not a joint register")
            if len(self.blocks) != self.m or len(self.iv_carriers) != self.m:
                raise InputError(f"expected {_shown(self.m)} ciphertext blocks and {_shown(self.m)} IV carriers")
            if any(s.n != self.n for s in (*(b.state for b in self.blocks), *self.iv_carriers)):
                raise InputError(f"every ciphertext block and IV carrier must hold exactly {self.n} qubits")
        else:
            if self.blocks or self.iv_carriers:
                raise InputError("entangling transmissions carry a single joint register")
            if self.m > 0:
                _check_n(self.m * self.n)
            # No register counts as 0 qubits, which is what m = 0 needs.
            if (0 if self.joint is None else self.joint.n) != self.m * self.n:
                raise InputError(f"joint register must hold exactly {self.m * self.n} qubits")


def _check_mode(
    k: CipherKey, cfg: ModeConfig, mode: Mode, blocks: Sequence[PlainBlock] = (), t: Transmission | None = None
) -> None:
    """The one agreement check of a mode function's arguments: the config,
    and the transmission if given, are in ``mode``, and the IV, the
    transmission and every plaintext block have the key's block size."""
    if cfg.mode is not mode or (t is not None and t.mode is not mode):
        raise InputError(f"mode {mode.value} got a config or transmission of another mode")
    if cfg.n != k.n:
        raise InputError(f"iv length {cfg.n} does not match key block size {k.n}")
    if t is not None and t.n != k.n:
        raise InputError(f"transmission block size {t.n} does not match key block size {k.n}")
    for i, p in enumerate(blocks):
        if p.n != k.n:
            raise InputError(f"block {i} has {p.n} bits, key expects {k.n}")


def mode1_encrypt(
    k: CipherKey, blocks: list[PlainBlock], cfg: ModeConfig, rng: np.random.Generator
) -> Transmission:
    """Chain blocks through measured IVs.

    For each block: XOR with the current chaining value, encrypt, then
    measure a second copy of the ciphertext. Physically the sender
    rebuilds that copy from the known classical inputs (a legitimate
    re-encryption, not a clone); encryption is deterministic and the
    simulated state is immutable, so measuring the one encrypted state
    gives the same outcome from the same generator. The measured bits
    become the next chaining value and the collapsed copy ships as the IV
    carrier.
    """
    _check_mode(k, cfg, Mode.MEASURED, blocks)
    iv = cfg.iv
    out: list[CipherBlock] = []
    carriers: list[StateVector] = []
    for i, p in enumerate(blocks):
        sealed = encrypt_block(k, PlainBlock(xor_bits(p.bits, iv))).state
        out.append(CipherBlock(sealed, i, Mode.MEASURED.value))
        outcome = measure_all(sealed, rng)
        carriers.append(outcome.collapsed)
        iv = outcome.bits
    return Transmission(Mode.MEASURED, k.n, len(blocks), tuple(out), tuple(carriers))


def mode1_decrypt(k: CipherKey, t: Transmission, cfg: ModeConfig) -> list[PlainBlock]:
    """Invert the measured-IV chain; IV carriers must be basis states."""
    _check_mode(k, cfg, Mode.MEASURED, t=t)
    cc = compile_circuit(key_circuit(k), k.n)
    iv = cfg.iv
    out: list[PlainBlock] = []
    for i in range(t.m):
        mixed = _decrypt_bits(cc, t.blocks[i].state.amps, f"block {i}")
        out.append(PlainBlock(xor_bits(mixed, iv)))
        iv = _read_basis_probs(np.abs(t.iv_carriers[i].amps) ** 2, k.n, f"IV carrier {i}")
    return out


def mode2_encrypt(k: CipherKey, blocks: list[PlainBlock], cfg: ModeConfig) -> Transmission:
    """Chain blocks through entangling CNOTs into one joint register.

    Block i enters the key circuit as the basis input p_i XOR pi(y_{i-1}),
    where y_{i-1} is block i-1's ciphertext index, so the joint amplitude
    at (y_1, ..., y_m) is T[p_1 ^ iv, y_1] * prod_i T[p_i ^ pi(y_{i-1}), y_i]
    for the key's table T (row z = ciphertext of input z). The first block
    is the block cipher's output; each later one costs one row gather from
    T and one broadcast multiply.
    """
    _check_mode(k, cfg, Mode.ENTANGLING, blocks)
    m = len(blocks)
    if m == 0:
        return Transmission(Mode.ENTANGLING, k.n, 0)
    _check_n(m * k.n)
    cc = compile_circuit(key_circuit(k), k.n)
    amps = _encrypt_amps(cc, xor_bits(blocks[0].bits, cfg.iv))
    for p in blocks[1:]:
        # A later block means m >= 2, so n <= 12 under the cap. T and pi
        # are built per block: at m >= 3, n <= 8 and each takes well under
        # a millisecond.
        pi = _pairing_map(k.n, cfg.mode2_pairing)  # type: ignore[arg-type]
        amps = (amps.reshape(-1, 1 << k.n, 1) * _encrypt_table(cc)[int(p.bits, 2) ^ pi]).ravel()
    return Transmission(Mode.ENTANGLING, k.n, m, joint=_owned(m * k.n, amps))


def mode2_decrypt(k: CipherKey, t: Transmission, cfg: ModeConfig) -> list[PlainBlock]:
    """Read the plaintext out of the entangled register.

    Any number of blocks is read by the block cipher's one reader,
    ``cipher._decrypt_bits``. From the register's largest amplitude y it
    walks from the last block to the first: block i's row at the prefix
    y_1..y_{i-1}, gathered through A, gives each bit from one pair of
    amplitudes at A^-1 y_i. That is the key input p_i XOR pi(y_{i-1}), so
    p_i follows, and contracting block i's axis with the rows
    T[p_i XOR pi] of the key's table undoes the key and the pairing CNOTs.
    The register itself is read once: the argmax and the last block's
    contraction share one pass, slice by slice, with p_m guessed at the
    first nonzero slice and contracted again, in one more pass, only if
    the p_m read at y differs (as on a tampered register). Block 1 is read
    as one block is. The read is accepted iff its
    post-inverse probability is at least 1 - PURITY_TOL, phrased so that
    NaN fails; otherwise IntegrityError. Only a register of two or more
    blocks builds the table, the pairing map and A^-1.
    """
    _check_mode(k, cfg, Mode.ENTANGLING, t=t)
    if t.m == 0:
        return []
    n, m = k.n, t.m
    cc = compile_circuit(key_circuit(k), n)
    bits = _decrypt_bits(cc, t.joint.amps, "joint register", m, cfg.mode2_pairing)  # type: ignore[union-attr, arg-type]
    chunks = [bits[i * n : (i + 1) * n] for i in range(m)]
    chunks[0] = xor_bits(chunks[0], cfg.iv)
    return [PlainBlock(c) for c in chunks]


def encrypt(
    k: CipherKey,
    blocks: list[PlainBlock],
    cfg: ModeConfig,
    rng: np.random.Generator | None = None,
) -> Transmission:
    """Mode-dispatching convenience wrapper."""
    if cfg.mode is Mode.MEASURED:
        if rng is None:
            raise InputError("the measured-IV mode needs a random generator")
        return mode1_encrypt(k, blocks, cfg, rng)
    return mode2_encrypt(k, blocks, cfg)


def decrypt(k: CipherKey, t: Transmission, cfg: ModeConfig) -> list[PlainBlock]:
    if t.mode is Mode.MEASURED:
        return mode1_decrypt(k, t, cfg)
    return mode2_decrypt(k, t, cfg)


# ---------------------------------------------------------------------------
# Transmission file: an envelope around statevector payload entries. The IV
# itself is never serialized here; it belongs with the key material.

def _layout(mode: Mode, n: int, m: int) -> list[tuple[str, int, int]]:
    """Each payload entry as (tag, block_index, qubits), in file order: per
    block its ciphertext then its IV carrier, or one joint register."""
    if mode is Mode.MEASURED:
        return [entry for i in range(m) for entry in (("m1", i, n), ("iv", i, n))]
    return [("m2", 0, m * n)] if m else []


def transmission_to_json(t: Transmission) -> str:
    if t.mode is Mode.MEASURED:
        states = [s for b, carrier in zip(t.blocks, t.iv_carriers) for s in (b.state, carrier)]
    else:
        states = [t.joint] if t.m else []
    # Tags and indices come from the layout, whatever the blocks carry, so
    # the file reads back.
    payload = ", ".join(
        cipherblock_to_json(CipherBlock(state, index, tag))  # type: ignore[arg-type]
        for state, (tag, index, _) in zip(states, _layout(t.mode, t.n, t.m))
    )
    return (
        f'{{"mode": "{t.mode.value}", "n": {t.n}, "m": {t.m}, '
        f'"iv_public": false, "payload": [{payload}]}}'
    )


def transmission_from_json(text: str) -> Transmission:
    obj = _load_json(text, "transmission")
    if not isinstance(obj, dict) or set(obj) != {"mode", "n", "m", "iv_public", "payload"}:
        raise InputError('transmission JSON needs exactly "mode", "n", "m", "iv_public", "payload"')
    if obj["iv_public"] is not False:
        raise InputError("the IV is key material; iv_public must be false")
    try:
        mode = Mode(obj["mode"])
    except ValueError as exc:
        raise InputError(f"unknown mode tag {obj['mode']!r}") from exc
    n, m = obj["n"], obj["m"]
    for name, v in (("n", n), ("m", m)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise InputError(f'transmission field "{name}" must be a nonnegative integer')
    payload = obj["payload"]
    if not isinstance(payload, list):
        raise InputError('"payload" must be a list')
    # Counted before the layout is built: m comes from the file.
    expected = 2 * m if mode is Mode.MEASURED else min(m, 1)
    if len(payload) != expected:
        raise InputError(f"expected {expected} payload entries, got {len(payload)}")
    entries = []
    for j, (entry, (tag, index, qubits)) in enumerate(zip(payload, _layout(mode, n, m))):
        cb = cipherblock_from_obj(entry)
        # Transmission checks the widths again. This check stays because a
        # header whose m * n passes the cap, with an entry that does not,
        # is a malformed file (InputError) here, where Transmission would
        # raise ResourceError for m * n.
        if cb.mode != tag or cb.block_index != index or cb.state.n != qubits:
            raise InputError(f'payload entry {j} is not "{tag}" block {index} of {qubits} qubits')
        entries.append(cb)
    if mode is Mode.MEASURED:
        return Transmission(mode, n, m, tuple(entries[0::2]), tuple(e.state for e in entries[1::2]))
    return Transmission(mode, n, m, joint=entries[0].state if entries else None)
