"""Eavesdropper models and security experiments.

The intercept-resend adversary measures a transiting ciphertext in the
computational basis and forwards the collapsed state. Experiments here
model the receiver's read physically, as the inverse circuit followed by a
sampled measurement: a single intercepted copy then slips through
undetected exactly when the sampled read still reproduces the original
plaintext, which happens with the collision probability sum(|c_b|^4).
Sending r independent copies of a block amplifies detection to
1 - (sum |c_b|^4)^r.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cipher import CipherBlock, PlainBlock, _check_block, _encrypt_amps, _inverse_probs, encrypt_block
from .errors import InputError, ResourceError
from .keyschedule import CipherKey, CompiledCircuit, compile_circuit, enumerate_keys, key_circuit, keyspace_size
from .keyschedule import _MAX_COUNT_LOG2, _check_count
from .statevector import StateVector, _born, fidelity, index_to_bits

BRUTE_FORCE_CAP = 10**6
# Largest ``samples`` of ``marginal_estimation_attack``: its draws are one
# array of 8-byte indices, plus the sampler's temporaries of about twice
# that (240 MB at the cap; ``qcipher attack --kind stats --samples``).
SAMPLES_CAP = 10**7
# Largest ``trials`` of ``detection_experiment`` and
# ``analysis.verify_dependence_rules``, which run each trial in Python
# (``qcipher attack --kind intercept --trials``, ``qcipher analyze --kind
# rules --trials``).
TRIALS_CAP = 10**5
# Largest ``trials * r`` of ``detection_experiment``, whose copies each make
# two draws in Python (``qcipher attack --kind intercept --trials --r``).
COPIES_CAP = 10**6


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one security experiment."""

    name: str
    trials: int
    counts: dict[str, int]
    estimates: dict[str, float]
    ci_half_widths: dict[str, float]
    params: dict[str, object]

    def to_json(self) -> str:
        def _clean(v: object) -> object:
            # Exact big integers are serialized as decimal strings.
            if isinstance(v, bool):
                return v
            if isinstance(v, int) and abs(v) > 2**53:
                return str(v)
            return v

        obj = {
            "name": self.name,
            "trials": self.trials,
            "counts": self.counts,
            "estimates": self.estimates,
            "ci_half_widths": self.ci_half_widths,
            "params": {k: _clean(v) for k, v in self.params.items()},
        }
        return json.dumps(obj)


def _check_count_arg(value: int, cap: int, what: str) -> None:
    """The one check of a count argument: InputError below 1, ResourceError
    above ``cap``, both before any work. The value is not printed: a product
    such as ``trials * r`` can pass the 4,300 digits Python prints."""
    if value < 1:
        raise InputError(f"{what} must be >= 1")
    if value > cap:
        raise ResourceError(f"{what} exceed the cap of {cap}")


def _ci_half_width(successes: int, trials: int) -> float:
    # Normal-approximation 95% binomial half-width.
    if trials == 0:
        return 0.0
    p = successes / trials
    return 1.96 * math.sqrt(p * (1.0 - p) / trials)


def collision_probability(s: StateVector) -> float:
    """sum(|c_b|^4): chance one intercepted copy goes unnoticed."""
    return float(np.sum(np.abs(s.amps) ** 4))


def _read_probs(cc: CompiledCircuit, amps: np.ndarray) -> np.ndarray:
    """The receiver's read distribution: the inverse circuit's basis
    probabilities, normalized."""
    probs = _inverse_probs(cc, amps)
    probs /= probs.sum()
    return probs


def sampled_decrypt_bits(k: CipherKey, state: StateVector, rng: np.random.Generator) -> str:
    """The receiver's physical read: inverse circuit, then one measurement."""
    if state.n != k.n:
        raise InputError(f"state has {state.n} qubits, key expects {k.n}")
    probs = _read_probs(compile_circuit(key_circuit(k), k.n), state.amps)
    return index_to_bits(int(rng.choice(probs.size, p=probs)), k.n)


def detection_experiment(
    k: CipherKey,
    p: PlainBlock,
    r: int,
    eve_on: bool,
    rng: np.random.Generator,
    trials: int = 1000,
) -> AttackReport:
    """Repetition protocol: send r independent encryptions of one block.

    A copy passes when the receiver's sampled read returns the reference
    plaintext; the protocol detects tampering when any copy fails. With
    Eve off the channel is noiseless and nothing is ever flagged.
    """
    if r < 1:
        raise InputError("repetitions must be >= 1")
    _check_count_arg(trials, TRIALS_CAP, "trials")
    _check_count_arg(trials * r, COPIES_CAP, "copies")
    ciphertext = encrypt_block(k, p).state
    collision = collision_probability(ciphertext)
    cc = compile_circuit(key_circuit(k), k.n)
    target = int(p.bits, 2)

    # Each copy is two draws. Eve's draw is measure_all's on the ciphertext;
    # the receiver's depends only on her outcome, so each outcome's read
    # distribution is computed once.
    eve_probs = _born(ciphertext.amps)
    reads: dict[int, np.ndarray] = {}
    honest_probs = _read_probs(cc, ciphertext.amps)

    detections = 0
    copy_passes = 0
    total_copies = trials * r
    for _ in range(trials):
        passes = 0
        for _ in range(r):
            if eve_on:
                seen = int(rng.choice(eve_probs.size, p=eve_probs))
                if seen not in reads:
                    reads[seen] = _read_probs(cc, np.eye(1, eve_probs.size, seen)[0])
                probs = reads[seen]
            else:
                probs = honest_probs
            passes += int(rng.choice(probs.size, p=probs)) == target
        copy_passes += passes
        detections += passes < r

    detection_rate = detections / trials
    pass_rate = copy_passes / total_copies
    return AttackReport(
        name="intercept-resend detection",
        trials=trials,
        counts={"detections": detections, "copy_passes": copy_passes, "copies": total_copies},
        estimates={
            "detection_rate": detection_rate,
            "per_copy_pass": pass_rate,
            "collision_probability": collision,
            "predicted_detection_rate": 1.0 - collision**r if eve_on else 0.0,
        },
        ci_half_widths={
            "detection_rate": _ci_half_width(detections, trials),
            "per_copy_pass": _ci_half_width(copy_passes, total_copies),
        },
        params={"n": k.n, "r": r, "eve_on": eve_on, "plaintext": p.bits},
    )


def folded_angle(theta: float) -> float:
    """Reduce an angle to the [0, pi/2] class its marginal determines."""
    return math.acos(abs(math.cos(theta)))


def marginal_estimation_attack(
    k: CipherKey,
    p: PlainBlock,
    samples: int,
    rng: np.random.Generator,
    step1_only: bool = True,
) -> np.ndarray:
    """Estimate the per-qubit rotation angles from intercepted statistics.

    Against the rotation-layer-only ablation the per-qubit frequency of 0
    converges to cos(theta)^2 (for plaintext bit 0), so
    arccos(sqrt(p_hat)) recovers the angle up to its quadrant class.
    Against the full circuit, ciphertext qubit q measures the XOR of the
    rotation outcomes over row q of A, so its 0-frequency converges to
    (1 +/- prod_j cos(2 theta_j))/2 over that row, the sign set by the
    plaintext. This estimator reads each marginal as one angle, so it
    recovers theta_q only where row q has weight 1 (that row's marginal
    does carry its one angle). The samples still carry every angle: an
    attacker who knows A^-1 undoes the CNOTs on each sample and reads the
    rotation layer as in the ablation.
    """
    _check_count_arg(samples, SAMPLES_CAP, "samples")
    _check_block(k, p)
    cc = compile_circuit(key_circuit(k, through_step=1 if step1_only else 4), k.n)
    probs = _born(_encrypt_amps(cc, p.bits))
    draws = rng.choice(probs.size, size=samples, p=probs)
    estimates = np.empty(k.n)
    for q in range(1, k.n + 1):
        zeros = int(np.count_nonzero((draws >> (k.n - q)) & 1 == 0))
        p_hat = zeros / samples
        estimates[q - 1] = math.acos(math.sqrt(min(max(p_hat, 0.0), 1.0)))
    return estimates


def brute_force_key_recovery(
    n: int, N: int, known: tuple[PlainBlock, CipherBlock]
) -> list[CipherKey]:
    """Enumerate the whole keyspace and keep keys consistent with one
    known plaintext/ciphertext pair (fidelity within 1e-9 of 1).

    Keys are tried one at a time, so the scan's time grows with the
    keyspace, as ``test_brute_force_scan_time_tracks_keyspace_size`` in
    tests/test_adversary.py requires within a factor of 2. A scan batched
    over the angles fails that test: it took 0.25 ms for 4 keys and 0.48 ms
    for 16, a ratio of 1.9 where at least 2 is required, because its fixed
    cost outweighs small keyspaces.
    """
    size, _ = keyspace_size(n, N)
    if size > BRUTE_FORCE_CAP:
        raise ResourceError(f"keyspace of {size} keys exceeds the {BRUTE_FORCE_CAP} enumeration cap")
    plaintext, ciphertext = known
    if plaintext.n != n or ciphertext.state.n != n:
        raise InputError("known pair must match the key block size")
    consistent = []
    for key in enumerate_keys(n, N):
        candidate = encrypt_block(key, plaintext).state
        if fidelity(candidate, ciphertext.state) >= 1.0 - 1e-9:
            consistent.append(key)
    return consistent


@dataclass(frozen=True)
class ConfigCountBounds:
    """Exact bounds on the number of distinct control/target layouts a
    gate sequence of the given length can have."""

    n: int
    L: int
    lower: int
    upper: int

    @property
    def log2_lower(self) -> float:
        return math.log2(self.lower)

    @property
    def log2_upper(self) -> float:
        return math.log2(self.upper)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "L": self.L,
                "lower": str(self.lower),
                "upper": str(self.upper),
                "log2_lower": self.log2_lower,
                "log2_upper": self.log2_upper,
            }
        )


def config_count_bounds(n: int, L: int) -> ConfigCountBounds:
    """lower = n*(n-1)^L (chained non-commuting sequences), upper =
    (n^2-n)^L (unrestricted control/target choices); exact integers, and
    ResourceError when they are too long to print."""
    if n < 2:
        raise InputError("config_count_bounds requires n >= 2")
    if L < 1:
        raise InputError("config_count_bounds requires L >= 1")
    # upper >= 2**L, so a larger L fails before it meets a float.
    _check_count(L * math.log2(n * n - n) if L < _MAX_COUNT_LOG2 else math.inf, "upper bound")
    return ConfigCountBounds(n, L, n * (n - 1) ** L, (n * n - n) ** L)
