"""Confusion and diffusion verification.

Three views of the same question, "who influences whom":

* a symbolic dependence propagator that applies the union transfer rule (a
  single-qubit rotation marks its own qubit, a CNOT copies the control's
  marks onto the target) and therefore over-approximates,
* the exact rule for this gate set (a CNOT adds the control's marks to the
  target's modulo 2, so marks the two already share cancel), which is the
  GF(2) matrix A of ``keyschedule.compile_circuit``, read out by
  ``parity_dependences``,
* numeric perturbation probes that re-encrypt with altered key angles or
  flipped plaintext bits and watch the per-qubit measurement marginals.

For every key circuit (a rotation layer followed by CNOTs) the numeric
matrices equal ``parity_dependences``, which is always a subset of
``symbolic_dependences``, up to the probe threshold: a probe with threshold
epsilon misses a dependence whose marginal shift is at most epsilon. That
happens for 10 of 2,000 guarded random keys at n = 10, N = 256 with the
default epsilon. The union view is far from exact: at n = 8 it is all-true
and agrees with the numeric matrix on only about 54% of entries.

The probes run on the compiled circuit (``keyschedule.compile_circuit``):
its CNOT network is compiled once, and each probe only swaps angles or
plaintext bits. Every angle probe goes through ``_probe``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .adversary import TRIALS_CAP, _check_count_arg
from .cipher import PlainBlock, _check_block, _encrypt_amps, xor_bits
from .errors import InputError
from .keyschedule import (
    CipherKey,
    Cnot,
    CompiledCircuit,
    GateOp,
    SingleU,
    compile_circuit,
    grid_angle,
    key_circuit,
)
from .statevector import _marginals_of

DEFAULT_EPSILON = 1e-6
DEFAULT_GRID = 8


@dataclass(frozen=True, eq=False)
class DependenceMatrix:
    """Boolean matrix: entry (m, j) means ciphertext qubit m+1 depends on
    the rotation applied to qubit j+1."""

    n: int
    entries: np.ndarray

    @property
    def row_counts(self) -> list[int]:
        return [int(c) for c in self.entries.sum(axis=1)]

    @property
    def col_counts(self) -> list[int]:
        return [int(c) for c in self.entries.sum(axis=0)]

    def is_subset_of(self, other: "DependenceMatrix") -> bool:
        return bool(np.all(~self.entries | other.entries))


@dataclass(frozen=True, eq=False)
class DiffusionProfile:
    """Per plaintext bit, how many ciphertext marginals move when it flips."""

    n: int
    counts: tuple[int, ...]
    epsilon: float
    change_matrix: np.ndarray  # (qubit m, flipped bit j)

    @property
    def passed(self) -> bool:
        """Every single-bit flip moves at least n/2 marginals.

        The moved set for bit j is column j of the exact parity matrix, which
        loses entries to modulo-2 cancellation, so this verdict fails for many
        full-circuit keys: at n = 8, 336 of the 576 step-3/step-4 structures
        have a bit whose flip moves fewer than n/2 marginals, whatever the
        angles.
        """
        return all(c >= self.n / 2 for c in self.counts)


@dataclass(frozen=True)
class ConfusionReport:
    """Symbolic per-qubit dependence counts for the full key circuit."""

    n: int
    counts: tuple[int, ...]
    passed: bool
    matrix: DependenceMatrix


def symbolic_dependences(circuit: list[GateOp], n: int) -> DependenceMatrix:
    """Propagate dependence sets through a gate list.

    Sound over-approximation: a rotation on qubit q adds q to q's set, and
    a CNOT unions the control's set into the target's set. Entries only
    ever switch from False to True.
    """
    entries = np.zeros((n, n), dtype=bool)
    for op in circuit:
        if isinstance(op, SingleU):
            if not 1 <= op.qubit <= n:
                raise InputError(f"gate qubit {op.qubit} out of range 1..{n}")
            entries[op.qubit - 1, op.qubit - 1] = True
        else:
            if not (1 <= op.control <= n and 1 <= op.target <= n):
                raise InputError(f"gate qubits {op.control}->{op.target} out of range 1..{n}")
            entries[op.target - 1] |= entries[op.control - 1]
    return DependenceMatrix(n, entries)


def parity_dependences(circuit: list[GateOp], n: int) -> DependenceMatrix:
    """Exact marginal-level dependence law: the GF(2) matrix A of
    ``compile_circuit``, as booleans.

    In the Heisenberg picture a CNOT maps the target's Z observable to the
    product of control and target Z's, so Z labels accumulate modulo 2: a
    dependence already shared by control and target cancels. This is the
    row update ``compile_circuit`` applies. The circuit must be one rotation
    per qubit followed by CNOTs only (every key circuit has this shape);
    any other gate list raises InputError, since the exact law has no
    meaning for it. For such circuits each qubit's 0-probability is
    (1 +- prod cos(2 theta_j))/2 over exactly this row's angles, so for
    guarded angles these entries coincide with the numeric probe matrix,
    except where a dependence moves the marginal by no more than the
    probe's epsilon (10 of 2,000 guarded n = 10 keys at the default
    epsilon). Always a subset of ``symbolic_dependences``.
    """
    cols = compile_circuit(circuit, n).cols
    entries = np.array([[col >> (n - 1 - m) & 1 for col in cols] for m in range(n)], dtype=bool)
    return DependenceMatrix(n, entries)


def _check_probe(epsilon: float, grid: int = DEFAULT_GRID) -> None:
    # Settings under which no dependence can show: grid 1's only alternate
    # is theta + pi, and U(theta + pi) = -U(theta) moves no marginal.
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise InputError(f"epsilon must be finite and positive, got {epsilon!r}")
    if isinstance(grid, bool) or not isinstance(grid, (int, np.integer)) or grid < 2:
        raise InputError(f"grid must be an integer >= 2, got {grid!r}")


def perturbation_indices(base: int, N: int, grid: int) -> list[int]:
    """Deterministic alternative grid indices, spread around the circle."""
    offsets = sorted({round(t * N / (grid + 1)) for t in range(1, grid + 1)} & set(range(1, N)))
    return [(base + off) % N for off in offsets]


def _marginals(cc: CompiledCircuit, bits: str) -> np.ndarray:
    """Per-qubit 0-probabilities of the compiled circuit applied to |bits>."""
    return _marginals_of(_encrypt_amps(cc, bits), cc.n)


def _with_angle(cc: CompiledCircuit, j: int, theta: float) -> CompiledCircuit:
    """The same circuit with the rotation on qubit j+1 set to ``theta``."""
    return replace(cc, thetas=cc.thetas[:j] + (theta,) + cc.thetas[j + 1 :])


def _probe(cc: CompiledCircuit, bits: str, alternates: list[list[float]], epsilon: float) -> np.ndarray:
    """Angle perturbation probe of the compiled circuit on |bits>.

    Entry (m, j) of the (n, n) boolean result is set when some angle in
    ``alternates[j]``, put in place of theta_j with the other angles fixed,
    moves the marginal of qubit m+1 by more than ``epsilon``. Each
    alternate costs one encryption; it shows in every row at once.
    """
    base = _marginals(cc, bits)
    entries = np.zeros((cc.n, cc.n), dtype=bool)
    for j, thetas in enumerate(alternates):
        for theta in thetas:
            entries[:, j] |= np.abs(_marginals(_with_angle(cc, j, theta), bits) - base) > epsilon
    return entries


def numeric_dependence_matrix(
    k: CipherKey,
    p: PlainBlock,
    epsilon: float = DEFAULT_EPSILON,
    grid: int = DEFAULT_GRID,
    through_step: int = 4,
) -> DependenceMatrix:
    """Probe which key angles measurably move which ciphertext marginals.

    Entry (m, j) is set when replacing theta_j with any of ``grid``
    alternative grid values (all other angles fixed) shifts the marginal of
    ciphertext qubit m+1 by more than ``epsilon``. Each probe re-runs the
    whole encryption on the compiled circuit with one angle swapped.
    """
    _check_probe(epsilon, grid)
    _check_block(k, p)
    cc = compile_circuit(key_circuit(k, through_step), k.n)
    alternates = [
        [grid_angle(alt, k.N) for alt in perturbation_indices(index, k.N, grid)]
        for index in k.theta_indices
    ]
    return DependenceMatrix(k.n, _probe(cc, p.bits, alternates, epsilon))


def confusion_check(k: CipherKey, through_step: int = 4) -> ConfusionReport:
    """Pass when every ciphertext qubit depends on more than half the key
    rotations (symbolically)."""
    matrix = symbolic_dependences(key_circuit(k, through_step), k.n)
    counts = tuple(matrix.row_counts)
    return ConfusionReport(k.n, counts, all(c > k.n / 2 for c in counts), matrix)


def diffusion_profile(
    k: CipherKey,
    p: PlainBlock,
    epsilon: float = DEFAULT_EPSILON,
    through_step: int = 4,
) -> DiffusionProfile:
    """Flip each plaintext bit and count the ciphertext marginals that move.

    Passing means every single-bit flip disturbs at least half of the
    qubits' measurement statistics. The change matrix equals
    ``parity_dependences`` of the circuit, whose columns often fall below
    n/2, so many full-circuit keys fail this verdict and
    ``qcipher analyze --kind diffusion`` exits 1 for them.
    """
    _check_probe(epsilon)
    _check_block(k, p)
    cc = compile_circuit(key_circuit(k, through_step), k.n)
    base = _marginals(cc, p.bits)
    change = np.zeros((k.n, k.n), dtype=bool)
    for j in range(k.n):
        flip = xor_bits(p.bits, "".join("1" if i == j else "0" for i in range(k.n)))
        flipped = _marginals(cc, flip)
        change[:, j] = np.abs(flipped - base) > epsilon
    counts = tuple(int(c) for c in change.sum(axis=0))
    return DiffusionProfile(k.n, counts, epsilon, change)


# ---------------------------------------------------------------------------
# Behavioral checks of the dependence transfer rules on random circuits.

@dataclass(frozen=True)
class DependenceRuleReport:
    """Counterexample tally for the three propagation rules.

    ``transfer_violations`` lists control-unique dependences that failed to
    appear on the target: these falsify the transfer rule and are never
    expected. ``shared_cancellations`` lists dependences the control and
    target already shared before the gate; for this gate set those cancel
    modulo 2 (see ``parity_dependences``) and their disappearance is
    expected physics, so they are reported separately and do not fail the
    suite. ``parity_violations`` lists trials where the target's set after
    the gate differs from the symmetric difference of the control's and
    target's sets before it, the exact law for this gate set; it is
    reported alongside and does not change ``passed`` either.
    """

    n: int
    trials: int
    epsilon: float
    grid: int
    locality_violations: tuple[str, ...]
    transfer_violations: tuple[str, ...]
    retention_violations: tuple[str, ...]
    shared_cancellations: tuple[str, ...] = ()
    parity_violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not (self.locality_violations or self.transfer_violations or self.retention_violations)


def _guarded_angle(rng: np.random.Generator, margin: float = 0.15) -> float:
    # Keep clear of every multiple of pi/4 so that neither cos/sin nor
    # cos(2 theta) gets small; probe responses then sit far above epsilon.
    while True:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        r = math.fmod(theta, math.pi / 4.0)
        if min(r, math.pi / 4.0 - r) >= margin:
            return theta


def _random_circuit(thetas: list[float], cnots: list[Cnot], n: int) -> CompiledCircuit:
    return compile_circuit([SingleU(q + 1, thetas[q]) for q in range(n)] + cnots, n)


def _deps(entries: np.ndarray, q: int) -> set[int]:
    """The angles (1-based) whose probes moved qubit q's marginal."""
    return {j + 1 for j in np.flatnonzero(entries[q - 1]).tolist()}


def verify_dependence_rules(
    n: int,
    trials: int,
    rng: np.random.Generator,
    epsilon: float = DEFAULT_EPSILON,
    grid: int = DEFAULT_GRID,
) -> DependenceRuleReport:
    """Stress the three propagation rules on random circuits.

    Per trial, with a rotation layer of guarded random angles followed by a
    random CNOT sequence:

    (a) locality: perturbing the rotation of a qubit untouched by any CNOT
        moves no other qubit's marginal;
    (b) transfer: after appending a CNOT c->t, every angle that measurably
        influenced c but not yet t also influences t;
    (c) retention: the control's influences all persist.

    Dependences the control and target already shared cancel modulo 2 for
    this gate set; those events are tallied in ``shared_cancellations``
    rather than as violations. Trials whose target set after the gate is
    not the symmetric difference of the control's and target's sets before
    it are tallied in ``parity_violations``. Counterexamples are collected,
    not raised.
    """
    if not 2 <= n <= 6:
        raise InputError("verify_dependence_rules supports 2 <= n <= 6")
    _check_count_arg(trials, TRIALS_CAP, "trials")
    _check_probe(epsilon, grid)
    offsets = [2.0 * math.pi * t / (grid + 1) for t in range(1, grid + 1)]
    locality: list[str] = []
    transfer: list[str] = []
    retention: list[str] = []
    cancellations: list[str] = []
    parity: list[str] = []
    for trial in range(trials):
        thetas = [_guarded_angle(rng) for _ in range(n)]
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=n))
        alternates = [[theta + off for off in offsets] for theta in thetas]

        # (a) keep one qubit clear of CNOTs and perturb its rotation.
        fresh = int(rng.integers(1, n + 1))
        others = [q for q in range(1, n + 1) if q != fresh]
        prefix: list[Cnot] = []
        if len(others) >= 2:
            for _ in range(int(rng.integers(0, 2 * n + 1))):
                c, t = rng.choice(others, size=2, replace=False)
                prefix.append(Cnot(int(c), int(t)))
        before = _probe(_random_circuit(thetas, prefix, n), bits, alternates, epsilon)
        moved = [q for q in others if before[q - 1, fresh - 1]]
        if moved:
            locality.append(f"trial {trial}: rotation on {fresh} moved marginals of {moved}")

        # (b)/(c) compare numeric dependences across one appended CNOT.
        c, t = rng.choice(range(1, n + 1), size=2, replace=False)
        c, t = int(c), int(t)
        after = _probe(_random_circuit(thetas, prefix + [Cnot(c, t)], n), bits, alternates, epsilon)
        deps_control_before, deps_target_before = _deps(before, c), _deps(before, t)
        deps_control, deps_target = _deps(after, c), _deps(after, t)
        for j in sorted(deps_control_before - deps_target):
            if j in deps_target_before:
                cancellations.append(f"trial {trial}: {c}->{t} cancelled shared dependence {j}")
            else:
                transfer.append(f"trial {trial}: {c}->{t} dropped unique dependence {j} on target")
        predicted = deps_control_before ^ deps_target_before
        if deps_target != predicted:
            parity.append(
                f"trial {trial}: {c}->{t} target dependences {sorted(deps_target)}, "
                f"parity predicts {sorted(predicted)}"
            )
        missing_c = deps_control_before - deps_control
        if missing_c:
            retention.append(f"trial {trial}: {c}->{t} lost control dependences {sorted(missing_c)}")
    return DependenceRuleReport(
        n, trials, epsilon, grid, tuple(locality), tuple(transfer), tuple(retention),
        tuple(cancellations), tuple(parity),
    )


def report_to_json(
    matrix: DependenceMatrix, passed: bool, epsilon: float, grid: int
) -> str:
    """Standard analysis report: matrix, counts, verdict, and probe knobs."""
    obj = {
        "matrix": [[bool(v) for v in row] for row in matrix.entries],
        "row_counts": matrix.row_counts,
        "col_counts": matrix.col_counts,
        "pass": bool(passed),
        "epsilon": float(epsilon),
        "grid": int(grid),
    }
    return json.dumps(obj)
