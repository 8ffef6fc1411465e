"""The four workloads: set-up, one timed operation, and its output checks.

Every input comes from ``numpy.random.default_rng([seed, tag])``; the program
receives only the generated keys, blocks, files and generators. Each check
compares against ``reference.py``, never against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qcipher.adversary as adversary
import qcipher.analysis as analysis
import qcipher.cipher as cipher
import qcipher.cli as cli
import qcipher.keyschedule as keyschedule
import qcipher.modes as modes
import qcipher.statevector as statevector

import reference

GRID_N = 256
AMP_TOL = 1e-12
SIGMAS = 5.0


@dataclass
class Outcome:
    seconds: float
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _bits(rng: np.random.Generator, n: int) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, size=n))


def _within(label: str, got: float, want: float, trials: int, problems: list[str]) -> None:
    """Binomial frequency ``got`` lies within SIGMAS standard errors of ``want``."""
    se = math.sqrt(want * (1.0 - want) / trials)
    if abs(got - want) > SIGMAS * se + 1e-12:
        problems.append(f"{label}: {got:.6f} vs analytic {want:.6f} ({trials} trials, se {se:.2g})")


def _max_err(amps: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(amps - want)))


class Block:
    """encrypt_block then decrypt_block of a random block under one reused key."""

    tag = 1
    min_ops = 1

    def __init__(self, tiny: bool, workdir: Path):
        self.n = 6 if tiny else 18

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, self.tag])
        self.key = keyschedule.generate_key(self.n, GRID_N, self.rng)
        self.plaintexts = [cipher.PlainBlock(_bits(self.rng, self.n)) for _ in range(64)]
        self.count = 0
        self.ref = None

    def width(self) -> int:
        return self.n

    def op(self) -> Outcome:
        p = self.plaintexts[self.count % len(self.plaintexts)]
        self.count += 1
        t0 = time.perf_counter()
        c = cipher.encrypt_block(self.key, p)
        back = cipher.decrypt_block(self.key, c)
        out = Outcome(time.perf_counter() - t0)
        self.ref = self.ref or reference.KeyRef(self.key)
        if back != p:
            out.problems.append(f"block: decrypt gave {back.bits}, want {p.bits}")
        err = _max_err(c.state.amps, self.ref.encrypt(p.bits))
        if err > AMP_TOL:
            out.problems.append(f"block: ciphertext of {p.bits} is {err:.3g} from the product-state reference")
        return out


class M2Cap:
    """mode2_encrypt then mode2_decrypt of a message filling the 24-qubit cap."""

    tag = 2
    min_ops = 1

    def __init__(self, tiny: bool, workdir: Path):
        self.n, self.m = (3, 3) if tiny else (8, 3)

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, self.tag])
        self.key = keyschedule.generate_key(self.n, GRID_N, self.rng)
        pairing = tuple(int(q) + 1 for q in self.rng.permutation(self.n))
        self.cfg = modes.ModeConfig(modes.Mode.ENTANGLING, _bits(self.rng, self.n), pairing)
        self.ref = None

    def width(self) -> int:
        return self.n * self.m

    def op(self) -> Outcome:
        blocks = [cipher.PlainBlock(_bits(self.rng, self.n)) for _ in range(self.m)]
        t0 = time.perf_counter()
        t = modes.mode2_encrypt(self.key, blocks, self.cfg)
        back = modes.mode2_decrypt(self.key, t, self.cfg)
        out = Outcome(time.perf_counter() - t0)
        self.ref = self.ref or reference.KeyRef(self.key)
        if back != blocks:
            out.problems.append("m2-cap: decrypt did not give back the message")
        err = reference.mode2_max_error(
            t.joint.amps, self.ref, [b.bits for b in blocks], self.cfg.iv, self.cfg.mode2_pairing
        )
        if err > AMP_TOL:
            out.problems.append(f"m2-cap: joint register is {err:.3g} from the factorised reference")
        return out


class _DigitCheck:
    """json ``parse_float`` hook: counts numbers not written as the 17
    significant digits that make the file's doubles round-trip exactly."""

    def __init__(self):
        self.bad = 0

    def __call__(self, text: str) -> float:
        value = float(text)
        if format(value, ".17g") != text:
            self.bad += 1
        return value


class Wire:
    """qcipher encrypt --mode m1 and qcipher decrypt of a file, through
    qcipher.cli.main, plus a decrypt of a NaN-tampered file that should exit 2."""

    tag = 3
    tamper_seed = 20201007
    # A round takes about 7 s of Python-bound JSON work, whose speed drifts
    # by tens of per cent on a shared host; the median of five rounds, not
    # of the two or three that fit in 15 s, is what repeats across runs.
    min_ops = 5

    def __init__(self, tiny: bool, workdir: Path):
        self.n, self.m = (4, 4) if tiny else (16, 8)
        self.dir = workdir

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, self.tag])
        self.key_path = self.dir / "key.json"
        rc = self._cli("keygen", "--n", str(self.n), "--N", str(GRID_N),
                       "--seed", str(int(self.rng.integers(2**63))), "--out", str(self.key_path))
        if rc != 0:
            raise RuntimeError(f"qcipher keygen exited {rc}")
        self.msg_path = self.dir / "msg.bin"
        self.wire_path = self.dir / "wire.json"
        self.out_path = self.dir / "roundtrip.bin"
        self._write_tamper()
        self.ref = None

    def _write_tamper(self) -> None:
        """A transmission of the workload's shape under a fixed key, built by
        the reference, whose first amplitude is NaN. It does not depend on the
        seed, so the tampered decrypt fails or passes the same way in every run."""
        n, m = self.n, self.m
        key = keyschedule.generate_key(n, GRID_N, np.random.default_rng(self.tamper_seed))
        self.tamper_key = self.dir / "tamper-key.json"
        self.tamper_key.write_text(keyschedule.key_to_json(key) + "\n")
        amps = list(map(repr, reference.KeyRef(key).encrypt("10" * (n // 2) + "1" * (n % 2)).tolist()))
        clean, tampered = ("[[" + ", 0.0], [".join(vals) + ", 0.0]]" for vals in (amps, ["NaN"] + amps[1:]))
        entries = []
        for i in range(m):
            hot = (i * 40503 + 1) % (1 << n)
            carrier = "[" + ", ".join(["[0.0, 0.0]"] * hot + ["[1.0, 0.0]"] + ["[0.0, 0.0]"] * ((1 << n) - hot - 1)) + "]"
            entries.append(f'{{"n": {n}, "amps": {tampered if i == 0 else clean}, "block_index": {i}, "mode": "m1"}}')
            entries.append(f'{{"n": {n}, "amps": {carrier}, "block_index": {i}, "mode": "iv"}}')
        self.tamper_path = self.dir / "tamper.json"
        self.tamper_path.write_text(
            f'{{"mode": "m1", "n": {n}, "m": {m}, "iv_public": false, "payload": [{", ".join(entries)}]}}\n'
        )

    def width(self) -> int:
        return self.n

    def op(self) -> Outcome:
        msg = bytes(int(b) for b in self.rng.integers(0, 256, size=self.n * self.m // 8))
        iv = _bits(self.rng, self.n)
        enc_seed = str(int(self.rng.integers(2**63)))
        self.msg_path.write_bytes(msg)
        key, wire, back = str(self.key_path), str(self.wire_path), str(self.out_path)
        t0 = time.perf_counter()
        rc_enc = self._cli("encrypt", "--key", key, "--mode", "m1", "--in", str(self.msg_path),
                           "--out", wire, "--seed", enc_seed, "--iv", iv)
        rc_dec = self._cli("decrypt", "--key", key, "--in", wire, "--out", back, "--iv", iv)
        rc_tamper = self._cli("decrypt", "--key", str(self.tamper_key), "--in", str(self.tamper_path),
                              "--out", back + ".tamper", "--iv", "0" * self.n)
        out = Outcome(time.perf_counter() - t0, attempted=2, failed=0 if rc_tamper == 2 else 1)
        if rc_enc != 0 or rc_dec != 0:
            out.problems.append(f"wire: encrypt exited {rc_enc}, decrypt exited {rc_dec}")
            return out
        if self.out_path.read_bytes() != msg:
            out.problems.append("wire: decrypt did not give back the bytes")
        self._check_file(msg, iv, out.problems)
        return out

    def _check_file(self, msg: bytes, iv: str, problems: list[str]) -> None:
        n, m = self.n, self.m
        self.ref = self.ref or reference.KeyRef(keyschedule.key_from_json(self.key_path.read_text()))
        digits = _DigitCheck()
        entries = _payload(self.wire_path.read_text(), digits)
        head = next(entries)
        if (head["mode"], head["n"], head["m"]) != ("m1", n, m):
            problems.append("wire: the envelope does not describe the message")
            return
        bits = "".join(format(b, "08b") for b in msg)
        chain = iv
        for i in range(m):
            amps = np.asarray(next(entries)["amps"], dtype=np.float64)
            mixed = format(int(bits[i * n:(i + 1) * n], 2) ^ int(chain, 2), f"0{n}b")
            err = _max_err(amps[:, 0] + 1j * amps[:, 1], self.ref.encrypt(mixed))
            if err > AMP_TOL:
                problems.append(f"wire: block {i} is {err:.3g} from E(p ^ iv)")
            c = np.asarray(next(entries)["amps"], dtype=np.float64)
            hot = np.flatnonzero(c[:, 0])
            if len(hot) != 1 or c[hot[0], 0] != 1.0 or np.any(c[:, 1]):
                problems.append(f"wire: IV carrier {i} is not a basis state")
                return
            chain = format(int(hot[0]), f"0{n}b")
        if next(entries, None) is not None:
            problems.append(f"wire: the payload holds more than {2 * m} entries")
        if digits.bad:
            problems.append(f"wire: {digits.bad} amplitudes of block 0 and carrier 0 are not written with 17 significant digits")

def _payload(text: str, digits: _DigitCheck, checked: int = 2):
    """The envelope of a transmission file (payload emptied), then each
    payload entry, parsed with stdlib json; ``digits`` sees the numbers of the
    first ``checked`` entries. Entries with their amplitudes as nested lists
    are far larger than the file, so they are parsed one at a time."""
    start = text.index('"payload": [') + len('"payload": [')
    yield json.loads(text[:start] + "]}")
    plain, hooked = json.JSONDecoder(), json.JSONDecoder(parse_float=digits)
    pos, index = start, 0
    while text[pos] != "]":
        obj, pos = (hooked if index < checked else plain).raw_decode(text, pos)
        index += 1
        yield obj
        while text[pos] in ", \n":
            pos += 1


class Probe:
    """The analysis and adversary suites on a fresh key per operation."""

    tag = 4
    min_ops = 1
    r = 5
    eps = analysis.DEFAULT_EPSILON
    grid = analysis.DEFAULT_GRID

    def __init__(self, tiny: bool, workdir: Path):
        if tiny:
            self.n, self.rules_n, self.rules_trials, self.trials, self.samples = 4, 3, 2, 50, 2000
            self.brute = (2, 4)
        else:
            self.n, self.rules_n, self.rules_trials, self.trials, self.samples = 10, 6, 30, 800, 20000
            self.brute = (3, 16)

    def setup(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, self.tag])

    def width(self) -> int:
        return self.n

    def op(self) -> Outcome:
        rng, n = self.rng, self.n
        bn, bN = self.brute
        t0 = time.perf_counter()
        key = keyschedule.generate_key(n, GRID_N, rng)
        p = cipher.PlainBlock(_bits(rng, n))
        numeric = analysis.numeric_dependence_matrix(key, p, epsilon=self.eps, grid=self.grid)
        profile = analysis.diffusion_profile(key, p, epsilon=self.eps)
        rules = analysis.verify_dependence_rules(self.rules_n, self.rules_trials, rng)
        collision = adversary.collision_probability(cipher.encrypt_block(key, p).state)
        detection = adversary.detection_experiment(key, p, self.r, True, rng, trials=self.trials)
        rotation = adversary.marginal_estimation_attack(key, p, self.samples, rng, step1_only=True)
        full = adversary.marginal_estimation_attack(key, p, self.samples, rng, step1_only=False)
        small = keyschedule.generate_key(bn, bN, rng)
        known = cipher.PlainBlock(_bits(rng, bn))
        found = adversary.brute_force_key_recovery(bn, bN, (known, cipher.encrypt_block(small, known)))
        out = Outcome(time.perf_counter() - t0)

        problems, ref = out.problems, reference.KeyRef(key)
        # The probes see a dependence only when it moves a marginal by more
        # than eps; the closed form says which entries of A do.
        for label, got, shifts in (
            ("numeric dependence matrix", numeric.entries, ref.numeric_shifts(self.grid)),
            ("diffusion change matrix", profile.change_matrix, ref.flip_shifts()),
        ):
            want, undecided = reference.above(shifts, self.eps)
            if np.any(want & ~ref.A):
                problems.append(f"probe: reference {label} leaves the GF(2) matrix")
            wrong = (got != want) & ~undecided
            if np.any(wrong):
                problems.append(f"probe: {label} differs from the GF(2) matrix at {np.argwhere(wrong).tolist()}")
        if not rules.passed or rules.parity_violations:
            problems.append(f"probe: dependence rules report violations: {rules}")
        want_c = ref.collision_probability()
        if abs(collision - want_c) > 1e-12:
            problems.append(f"probe: collision probability {collision!r}, closed form {want_c!r}")
        _within("probe: per-copy pass rate", detection.estimates["per_copy_pass"], want_c,
                detection.counts["copies"], problems)
        _within("probe: detection rate", detection.estimates["detection_rate"], 1.0 - want_c**self.r,
                detection.trials, problems)
        for label, est, want in (("rotation-layer", rotation, ref.rotation_layer_p0(p.bits)),
                                 ("full-circuit", full, ref.p0(p.bits))):
            for q in range(n):
                _within(f"probe: {label} 0-frequency of qubit {q + 1}", math.cos(est[q]) ** 2, want[q],
                        self.samples, problems)
        if small not in found:
            problems.append("probe: brute force did not return the true key")
        return out


WORKLOADS = {"block": Block, "m2-cap": M2Cap, "wire": Wire, "probe": Probe}


def cover(workdir: Path) -> None:
    """One small call into every traced layer, so that a traced run reports
    each per-layer metric, also for layers its workload does not reach."""
    rng = np.random.default_rng(0)
    key = keyschedule.generate_key(4, 16, rng)
    p = cipher.PlainBlock("0110")
    cipher.decrypt_block(key, cipher.encrypt_block(key, p))
    state = statevector.basis_state(4, "0110")
    statevector.apply_single(state, 2, 0.3)
    statevector.apply_cnot(state, 1, 4)
    statevector.measure_all(state, rng)
    statevector.tensor(state, state)
    cfg = modes.ModeConfig(modes.Mode.ENTANGLING, "0101")
    modes.mode2_decrypt(key, modes.mode2_encrypt(key, [p, p], cfg), cfg)
    key_path, msg, wire = workdir / "cover-key.json", workdir / "cover.bin", workdir / "cover.json"
    key_path.write_text(keyschedule.key_to_json(key) + "\n")
    msg.write_bytes(b"\x5a")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["encrypt", "--key", str(key_path), "--mode", "m1", "--in", str(msg), "--out", str(wire)])
        cli.main(["decrypt", "--key", str(key_path), "--in", str(wire), "--out", str(msg)])
    analysis.numeric_dependence_matrix(key, p)
    analysis.diffusion_profile(key, p)
    analysis.verify_dependence_rules(2, 1, rng)
    adversary.collision_probability(state)
    adversary.detection_experiment(key, p, 2, True, rng, trials=10)
    adversary.marginal_estimation_attack(key, p, 100, rng)
    known = cipher.PlainBlock("01")
    small = keyschedule.generate_key(2, 4, rng)
    adversary.brute_force_key_recovery(2, 4, (known, cipher.encrypt_block(small, known)))
