"""Command-line interface.

Subcommands: keygen, encrypt, decrypt, analyze, attack, keyspace.

Exit codes: 0 success (and analysis pass), 1 usage or parse failure (also
a failed analysis), 2 integrity failure, 3 resource cap exceeded.

Bytes are unpacked most-significant-bit first into blocks of n bits; the
input length must be an exact multiple of n bits, there is no padding.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adversary import (
    AttackReport,
    brute_force_key_recovery,
    config_count_bounds,
    detection_experiment,
    folded_angle,
    marginal_estimation_attack,
)
from .analysis import (
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    DependenceMatrix,
    _check_probe,
    confusion_check,
    diffusion_profile,
    report_to_json,
    verify_dependence_rules,
)
from .cipher import PlainBlock, encrypt_block
from .errors import InputError, IntegrityError, InvalidKeyError, ResourceError
from .keyschedule import (
    CipherKey,
    generate_key,
    key_from_json,
    key_to_json,
    keyspace_size,
    theta_value,
)
from .modes import Mode, ModeConfig, decrypt, encrypt, transmission_from_json, transmission_to_json

_ABLATION_STEPS = {"none": 4, "step1": 1, "step12": 2, "step123": 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route usage problems through
    # our own error type so they map to exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _bits_value(text: str) -> str:
    if not text or any(c not in "01" for c in text):
        raise argparse.ArgumentTypeError("expected a nonempty bitstring of 0s and 1s")
    return text


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed_value, default=0, help="RNG seed (unsigned 64-bit)")
    common.add_argument("--json", action="store_true", help="machine-readable stdout")

    parser = _Parser(prog="qcipher", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", parents=[common], help="generate a key file")
    p.add_argument("--n", type=int, required=True, help="block size in qubits")
    p.add_argument("--N", type=int, required=True, help="angle grid size")
    p.add_argument("--out", type=Path, required=True, help="key file path")

    p = sub.add_parser("encrypt", parents=[common], help="encrypt a byte file")
    p.add_argument("--key", type=Path, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], required=True)
    p.add_argument("--in", dest="inp", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--iv", type=_bits_value, default=None, help="chaining IV bits (default all zeros)")

    p = sub.add_parser("decrypt", parents=[common], help="decrypt a transmission file")
    p.add_argument("--key", type=Path, required=True)
    p.add_argument("--in", dest="inp", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--iv", type=_bits_value, default=None)

    p = sub.add_parser("analyze", parents=[common], help="confusion/diffusion reports")
    p.add_argument("--key", type=Path, required=True)
    p.add_argument("--kind", choices=["confusion", "diffusion", "rules"], required=True)
    p.add_argument("--ablate", choices=sorted(_ABLATION_STEPS), default="none")
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--plaintext", type=_bits_value, default=None)
    p.add_argument("--out", type=Path, default=None, help="report path (default stdout)")

    p = sub.add_parser("attack", parents=[common], help="adversary experiments")
    p.add_argument("--kind", choices=["intercept", "stats", "brute", "bounds"], required=True)
    p.add_argument("--key", type=Path, default=None)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--N", type=int, default=256)
    p.add_argument("--L", type=int, default=10)
    p.add_argument("--r", type=int, default=5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--full-circuit", action="store_true", help="run the stats attack on the full cipher")
    p.add_argument("--plaintext", type=_bits_value, default=None)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("keyspace", parents=[common], help="exact keyspace size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    return parser


def _emit(text: str, out: Path | None) -> None:
    """Print ``text`` to ``out``, or to stdout. print writes the newline
    after the text, so no second copy of a large text is made."""
    if out is None:
        print(text)
    else:
        with out.open("w") as f:
            print(text, file=f)


def _read_text(path: Path) -> str:
    """A key or transmission file's text; one that is not UTF-8 is InputError."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_key(path: Path) -> CipherKey:
    return key_from_json(_read_text(path))


def _bytes_to_bits(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def _bits_to_bytes(bits: str) -> bytes:
    if len(bits) % 8:
        raise InputError(f"cannot pack {len(bits)} bits into whole bytes")
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def _plaintext(args: argparse.Namespace, key: CipherKey) -> PlainBlock:
    """The --plaintext block, all zeros by default."""
    return PlainBlock(args.plaintext or "0" * key.n)


def _mode_config(key: CipherKey, mode: Mode, iv: str | None) -> ModeConfig:
    iv_bits = iv if iv is not None else "0" * key.n
    if len(iv_bits) != key.n:
        raise InputError(f"iv must be {key.n} bits, got {len(iv_bits)}")
    if mode is Mode.ENTANGLING:
        return ModeConfig(mode, iv_bits, key.mode2_pairing)
    return ModeConfig(mode, iv_bits)


def _cmd_keygen(args: argparse.Namespace) -> int:
    key = generate_key(args.n, args.N, np.random.default_rng(args.seed))
    _emit(key_to_json(key), args.out)
    size, log2 = keyspace_size(args.n, args.N)
    if args.json:
        print(json.dumps({"out": str(args.out), "n": args.n, "N": args.N,
                          "keyspace": str(size), "log2_keyspace": log2}))
    else:
        print(f"wrote {args.out}: n={args.n} N={args.N} keyspace={size} (log2 = {log2:.2f})")
    return 0


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key = _load_key(args.key)
    mode = Mode(args.mode)
    data = args.inp.read_bytes()
    bits = _bytes_to_bits(data)
    if not bits:
        raise InputError("input file is empty")
    if len(bits) % key.n:
        need = key.n - len(bits) % key.n
        raise InputError(
            f"input is {len(bits)} bits but blocks are {key.n} bits; "
            f"pad the plaintext by {need} bit(s) before encrypting (no implicit padding)"
        )
    blocks = [PlainBlock(bits[i : i + key.n]) for i in range(0, len(bits), key.n)]
    cfg = _mode_config(key, mode, args.iv)
    t = encrypt(key, blocks, cfg, np.random.default_rng(args.seed))
    _emit(transmission_to_json(t), args.out)
    if args.json:
        print(json.dumps({"out": str(args.out), "mode": mode.value, "blocks": len(blocks)}))
    else:
        print(f"wrote {args.out}: {len(blocks)} block(s), mode {mode.value}")
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key = _load_key(args.key)
    t = transmission_from_json(_read_text(args.inp))
    cfg = _mode_config(key, t.mode, args.iv)
    blocks = decrypt(key, t, cfg)
    bits = "".join(p.bits for p in blocks)
    args.out.write_bytes(_bits_to_bytes(bits))
    if args.json:
        print(json.dumps({"out": str(args.out), "mode": t.mode.value, "blocks": len(blocks)}))
    else:
        print(f"wrote {args.out}: {len(blocks)} block(s), mode {t.mode.value}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Every report echoes both settings, so every kind checks both.
    _check_probe(args.eps, args.grid)
    key = _load_key(args.key)
    through = _ABLATION_STEPS[args.ablate]
    plaintext = _plaintext(args, key)

    if args.kind == "confusion":
        report = confusion_check(key, through_step=through)
        text = report_to_json(report.matrix, report.passed, args.eps, args.grid)
        passed = report.passed
    elif args.kind == "diffusion":
        profile = diffusion_profile(key, plaintext, epsilon=args.eps, through_step=through)
        matrix = DependenceMatrix(key.n, profile.change_matrix)
        text = report_to_json(matrix, profile.passed, args.eps, args.grid)
        passed = profile.passed
    else:
        rules = verify_dependence_rules(
            min(key.n, 6), args.trials, np.random.default_rng(args.seed),
            epsilon=args.eps, grid=args.grid,
        )
        passed = rules.passed
        text = json.dumps({**asdict(rules), "pass": passed})
    _emit(text, args.out)
    return 0 if passed else 1


def _attack_key(args: argparse.Namespace) -> CipherKey:
    if args.key is not None:
        return _load_key(args.key)
    return generate_key(args.n, args.N, np.random.default_rng(args.seed))


def _cmd_attack(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)

    if args.kind == "bounds":
        bounds = config_count_bounds(args.n, args.L)
        _emit(bounds.to_json(), args.out)
        return 0

    key = _attack_key(args)
    plaintext = _plaintext(args, key)
    if args.kind == "intercept":
        report = detection_experiment(key, plaintext, args.r, True, rng, trials=args.trials)
        _emit(report.to_json(), args.out)
        return 0

    if args.kind == "stats":
        estimates = marginal_estimation_attack(
            key, plaintext, args.samples, rng, step1_only=not args.full_circuit
        )
        residuals = [abs(est - folded_angle(theta_value(key, q + 1))) for q, est in enumerate(estimates)]
        hits = sum(1 for res in residuals if res < 0.05)
        report = AttackReport(
            name="marginal statistics estimation",
            trials=args.samples,
            counts={"recovered_qubits": hits, "qubits": key.n},
            estimates={f"theta_hat_{q + 1}": float(est) for q, est in enumerate(estimates)}
            | {f"residual_{q + 1}": float(res) for q, res in enumerate(residuals)},
            ci_bounds={},
            params={"n": key.n, "samples": args.samples, "full_circuit": args.full_circuit,
                    "plaintext": plaintext.bits},
        )
        _emit(report.to_json(), args.out)
        return 0

    # brute force: a --key file sets n and N; the enumerated keys carry no
    # mode-2 pairing, so the true key is looked up without one.
    ciphertext = encrypt_block(key, plaintext)
    consistent = brute_force_key_recovery(key.n, key.N, (plaintext, ciphertext))
    size, _ = keyspace_size(key.n, key.N)
    found = replace(key, mode2_pairing=None) in consistent
    report = AttackReport(
        name="brute-force key search",
        trials=size if size <= 2**53 else 0,
        counts={"consistent_keys": len(consistent), "true_key_found": int(found)},
        estimates={"consistent_fraction": len(consistent) / size},
        ci_bounds={},
        params={"n": key.n, "N": key.N, "enumerated": size, "plaintext": plaintext.bits},
    )
    _emit(report.to_json(), args.out)
    return 0


def _cmd_keyspace(args: argparse.Namespace) -> int:
    size, log2 = keyspace_size(args.n, args.N)
    if args.json:
        print(json.dumps({"n": args.n, "N": args.N, "keyspace": str(size), "log2_keyspace": log2}))
    else:
        print(f"keyspace(n={args.n}, N={args.N}) = {size} (log2 = {log2:.2f})")
    return 0


_COMMANDS = {
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "analyze": _cmd_analyze,
    "attack": _cmd_attack,
    "keyspace": _cmd_keyspace,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (InputError, InvalidKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
