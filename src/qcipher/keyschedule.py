"""Key construction for the four-step block cipher circuit.

A key fixes:

* step 1: one grid angle index per qubit (theta = 2*pi*k/N, k in 0..N-1),
* step 2: the fixed ascending CNOT chain 1->2, 2->3, ..., (n-1)->n,
* step 3: a random pairing that lets each downstream qubit (index > n/2)
  pass its accumulated dependences to one upstream qubit (index <= n/2),
* step 4: a zigzag CNOT chain alternating downstream and upstream qubits,
  with the upstream visiting order as the random part of the key.

For odd n the smallest downstream index stays unpaired in step 3 and opens
the step-4 zigzag as its first downstream element; the upstream order stays
a permutation of 1..floor(n/2) and the chain has n-1 gates instead of n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

import numpy as np

from .errors import InputError, InvalidKeyError, ResourceError
from .statevector import MAX_QUBITS

KEY_FORMAT_VERSION = 1
DEGENERACY_GUARD_RAD = 1e-3


@dataclass(frozen=True)
class SingleU:
    """Self-inverse rotation by ``theta`` radians on one qubit."""

    qubit: int
    theta: float


@dataclass(frozen=True)
class Cnot:
    """Controlled NOT from ``control`` onto ``target``."""

    control: int
    target: int


GateOp = Union[SingleU, Cnot]


def upstream_qubits(n: int) -> tuple[int, ...]:
    """Qubits 1..floor(n/2)."""
    return tuple(range(1, n // 2 + 1))


def downstream_qubits(n: int) -> tuple[int, ...]:
    """Qubits floor(n/2)+1..n."""
    return tuple(range(n // 2 + 1, n + 1))


def paired_downstream_qubits(n: int) -> tuple[int, ...]:
    """Downstream qubits that take part in the step-3 pairing."""
    ds = downstream_qubits(n)
    return ds if n % 2 == 0 else ds[1:]


def _as_int_tuple(values: object, name: str) -> tuple[int, ...]:
    # Strict: a float or a bool is rejected, never truncated to an integer.
    try:
        items = tuple(values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise InvalidKeyError(f"{name} must be a sequence of integers") from exc
    if any(not isinstance(v, (int, np.integer)) or isinstance(v, bool) for v in items):
        raise InvalidKeyError(f"{name} must be a sequence of integers")
    return tuple(int(v) for v in items)


@dataclass(frozen=True)
class CipherKey:
    """Complete account of the gates used to create a ciphertext."""

    n: int
    N: int
    theta_indices: tuple[int, ...]
    step3_pairs: tuple[tuple[int, int], ...]
    step4_upstream_order: tuple[int, ...]
    mode2_pairing: tuple[int, ...] | None = None
    version: int = KEY_FORMAT_VERSION

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise InvalidKeyError(f"block size n must be an integer >= 2, got {self.n!r}")
        if self.n > MAX_QUBITS:
            raise InvalidKeyError(f"block size {self.n} exceeds the {MAX_QUBITS}-qubit cap")
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 2:
            raise InvalidKeyError(f"grid size N must be an integer >= 2, got {self.N!r}")
        # Strict: True and 1.0 equal 1, but key_to_json would write them as is.
        if type(self.version) is not int or self.version != KEY_FORMAT_VERSION:
            raise InvalidKeyError(f"unsupported key version {self.version!r}")

        theta = _as_int_tuple(self.theta_indices, "theta_indices")
        if len(theta) != self.n:
            raise InvalidKeyError(f"expected {self.n} theta indices, got {len(theta)}")
        if any(not 0 <= k < self.N for k in theta):
            raise InvalidKeyError(f"theta indices must lie in [0, {self.N})")
        # grid_angle divides the float 2*pi*k by N. Below 2**1021 every
        # angle is finite; above it, N itself or 2*pi*k can pass the float
        # range, and no such key can encrypt.
        if self.N.bit_length() > 1021:
            try:
                finite = all(math.isfinite(grid_angle(k, self.N)) for k in theta)
            except OverflowError:
                finite = False
            if not finite:
                raise InvalidKeyError(
                    f"grid size N of {self.N.bit_length()} bits puts an angle past the float range"
                )
        object.__setattr__(self, "theta_indices", theta)

        try:
            pairs = tuple(_as_int_tuple(pair, "step3_pairs entry") for pair in self.step3_pairs)
        except TypeError as exc:
            raise InvalidKeyError("step3_pairs must be (downstream, upstream) pairs") from exc
        if any(len(pair) != 2 for pair in pairs):
            raise InvalidKeyError("step3_pairs must be (downstream, upstream) pairs")
        if sorted(d for d, _ in pairs) != list(paired_downstream_qubits(self.n)):
            raise InvalidKeyError("step3_pairs must cover each paired downstream qubit exactly once")
        if sorted(u for _, u in pairs) != list(upstream_qubits(self.n)):
            raise InvalidKeyError("step3_pairs must map onto the upstream qubits bijectively")
        object.__setattr__(self, "step3_pairs", pairs)

        order = _as_int_tuple(self.step4_upstream_order, "step4_upstream_order")
        if sorted(order) != list(upstream_qubits(self.n)):
            raise InvalidKeyError("step4_upstream_order must be a permutation of the upstream qubits")
        object.__setattr__(self, "step4_upstream_order", order)

        if self.mode2_pairing is not None:
            pairing = _as_int_tuple(self.mode2_pairing, "mode2_pairing")
            if sorted(pairing) != list(range(1, self.n + 1)):
                raise InvalidKeyError("mode2_pairing must be a permutation of 1..n")
            object.__setattr__(self, "mode2_pairing", pairing)


def grid_angle(index: int, N: int) -> float:
    """Angle in radians of grid point ``index`` on an ``N``-point grid."""
    return 2.0 * math.pi * index / N


def theta_value(k: CipherKey, q: int) -> float:
    """Angle in radians of the step-1 rotation on qubit ``q``."""
    return grid_angle(k.theta_indices[q - 1], k.N)


def _is_degenerate_index(index: int, N: int) -> bool:
    # Angles near a multiple of pi/2 make cos or sin vanish (no
    # superposition); angles near an odd multiple of pi/4 make cos(2 theta)
    # vanish, which erases every measurement-marginal dependence routed
    # through that qubit. Both collapse the statistics the analysis suite
    # relies on, so indices near any multiple of pi/4 are resampled when an
    # alternative exists.
    r = math.fmod(grid_angle(index, N), math.pi / 4.0)
    return min(r, math.pi / 4.0 - r) < DEGENERACY_GUARD_RAD


def _grid_fully_degenerate(N: int) -> bool:
    # Only tiny grids consist entirely of guarded-out angles (N in {2,4,8});
    # for N > 8 the spacing 2*pi/N guarantees points outside every band.
    return N <= 8 and all(_is_degenerate_index(k, N) for k in range(N))


def generate_key(n: int, N: int, rng: np.random.Generator) -> CipherKey:
    """Draw a uniformly random key; deterministic for a seeded generator.

    Theta indices within DEGENERACY_GUARD_RAD of a multiple of pi/4 are
    resampled, unless the whole grid is degenerate (e.g. N = 4), in which
    case the raw draw is kept so that such grids remain usable.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InputError(f"block size n must be an integer >= 2, got {n!r}")
    if n > MAX_QUBITS:
        raise InputError(f"block size {n} exceeds the {MAX_QUBITS}-qubit cap")
    if not isinstance(N, int) or isinstance(N, bool) or N < 2:
        raise InputError(f"grid size N must be an integer >= 2, got {N!r}")
    if N > 2**63:
        raise InputError("grid size N must be at most 2**63, the range of numpy's integer draws")

    unguardable = _grid_fully_degenerate(N)
    theta = []
    for _ in range(n):
        k = int(rng.integers(0, N))
        if not unguardable:
            while _is_degenerate_index(k, N):
                k = int(rng.integers(0, N))
        theta.append(k)

    ups = upstream_qubits(n)
    downs = paired_downstream_qubits(n)
    perm = rng.permutation(len(ups))
    pairs = tuple((d, ups[perm[i]]) for i, d in enumerate(downs))
    order = tuple(int(u) for u in rng.permutation(np.asarray(ups)))
    return CipherKey(n, N, tuple(theta), pairs, order)


def _step4_chain(k: CipherKey) -> list[Cnot]:
    n = k.n
    if n % 2 == 0:
        downs = list(range(n, n // 2, -1))
    else:
        downs = [n // 2 + 1] + list(range(n, n // 2 + 1, -1))
    gates: list[Cnot] = []
    order = k.step4_upstream_order
    for t, u in enumerate(order):
        gates.append(Cnot(downs[t], u))
        nxt = downs[t + 1] if t + 1 < len(downs) else downs[-1]
        gates.append(Cnot(u, nxt))
    return gates


def key_circuit(k: CipherKey, through_step: int = 4) -> list[GateOp]:
    """Ordered gate list of the key; ``through_step`` truncates for ablations.

    Step 2 order is semantic: the ascending chain is what lets dependences
    snowball downstream. Step 3 gates commute and are emitted in ascending
    downstream order for deterministic serialization.
    """
    if through_step not in (1, 2, 3, 4):
        raise InputError(f"through_step must be 1..4, got {through_step}")
    ops: list[GateOp] = [SingleU(q, theta_value(k, q)) for q in range(1, k.n + 1)]
    if through_step >= 2:
        ops.extend(Cnot(i, i + 1) for i in range(1, k.n))
    if through_step >= 3:
        ops.extend(Cnot(d, u) for d, u in sorted(k.step3_pairs))
    if through_step >= 4:
        ops.extend(_step4_chain(k))
    return ops


@dataclass(frozen=True)
class CompiledCircuit:
    """A rotation layer followed by a CNOT network, as angles plus GF(2) columns.

    The CNOTs map basis index x to A x over GF(2). ``cols[j]`` is column j
    of A: the basis-index mask that input qubit j+1 maps onto (qubit 1 as
    the most significant bit), so A x is the XOR of ``cols[j]`` over the
    set bits of x. ``thetas[q-1]`` is the rotation angle on qubit q.
    """

    n: int
    thetas: tuple[float, ...]
    cols: tuple[int, ...]


def compile_circuit(ops: Iterable[GateOp], n: int) -> CompiledCircuit:
    """Compile a gate list of one rotation per qubit, then CNOTs only.

    This is the shape of ``key_circuit(k, through_step)`` for every step
    and of the analysis suite's random circuits; any other gate list
    raises InputError. The columns of A are the unit vectors pushed
    through the CNOTs, all at once: ``rows[m]`` is the mask of inputs
    whose parity lands on qubit m+1, and a CNOT c->t XORs row c into row t.
    """
    ops = list(ops)
    thetas: list[float | None] = [None] * n
    for op in ops[:n]:
        if not isinstance(op, SingleU) or not 1 <= op.qubit <= n or thetas[op.qubit - 1] is not None:
            raise InputError(f"a compiled circuit opens with one rotation on each of qubits 1..{n}")
        thetas[op.qubit - 1] = float(op.theta)
    if None in thetas:
        raise InputError(f"a compiled circuit opens with one rotation on each of qubits 1..{n}")
    rows = [1 << (n - q) for q in range(1, n + 1)]
    for op in ops[n:]:
        if not isinstance(op, Cnot):
            raise InputError("a compiled circuit continues with CNOTs only")
        if not (1 <= op.control <= n and 1 <= op.target <= n) or op.control == op.target:
            raise InputError(f"gate qubits {op.control}->{op.target} invalid for 1..{n}")
        rows[op.target - 1] ^= rows[op.control - 1]
    cols = tuple(
        sum(1 << (n - 1 - m) for m in range(n) if rows[m] >> (n - 1 - j) & 1) for j in range(n)
    )
    return CompiledCircuit(n, tuple(thetas), cols)  # type: ignore[arg-type]


# An exact count is built only if it can be printed: Python's default limit
# on converting an int to a decimal string is 4,300 digits.
_MAX_COUNT_DIGITS = 4300
_MAX_COUNT_LOG2 = _MAX_COUNT_DIGITS * math.log2(10) - 1  # one bit for rounding


def _check_count(log2: float, what: str) -> None:
    """ResourceError for a count of about 2**log2 that would print with
    more than _MAX_COUNT_DIGITS digits."""
    if not log2 < _MAX_COUNT_LOG2:
        raise ResourceError(f"{what} has over {_MAX_COUNT_DIGITS} digits, the cap on exact counts")


class KeyspaceSize(NamedTuple):
    size: int
    log2: float


def keyspace_size(n: int, N: int) -> KeyspaceSize:
    """Exact number of distinct keys, N**n * (n/2)! * (n/2)!, and its log2.

    The three factors count the theta grid, the step-3 pairings, and the
    step-4 upstream orders. For odd n both factorial factors are
    floor(n/2)!, matching the unpaired-middle-qubit convention used by
    ``generate_key`` and ``enumerate_keys``. A size too long to print is
    ResourceError.
    """
    if n < 2 or N < 2:
        raise InputError("keyspace_size requires n >= 2 and N >= 2")
    # The size is at least 2**n, so a larger n fails before it meets a float.
    log2 = n * math.log2(N) + 2 * math.lgamma(n // 2 + 1) / math.log(2) if n < _MAX_COUNT_LOG2 else math.inf
    _check_count(log2, "keyspace")
    half = math.factorial(n // 2)
    size = N**n * half * half
    return KeyspaceSize(size, math.log2(size))


def enumerate_keys(n: int, N: int) -> Iterator[CipherKey]:
    """Yield every key of the (n, N) keyspace exactly once (no guard)."""
    import itertools

    ups = upstream_qubits(n)
    downs = paired_downstream_qubits(n)
    for theta in itertools.product(range(N), repeat=n):
        for assignment in itertools.permutations(ups):
            pairs = tuple(zip(downs, assignment))
            for order in itertools.permutations(ups):
                yield CipherKey(n, N, theta, pairs, order)


# ---------------------------------------------------------------------------
# Key file format: a flat JSON object with the fields below in this order.
# Unknown fields are rejected.

_REQUIRED_FIELDS = ("version", "n", "N", "theta", "step3_pairs", "step4_upstream_order")
_OPTIONAL_FIELDS = ("mode2_pairing",)


def key_to_json(k: CipherKey) -> str:
    obj: dict[str, object] = {
        "version": k.version,
        "n": k.n,
        "N": k.N,
        "theta": list(k.theta_indices),
        "step3_pairs": [list(p) for p in k.step3_pairs],
        "step4_upstream_order": list(k.step4_upstream_order),
    }
    if k.mode2_pairing is not None:
        obj["mode2_pairing"] = list(k.mode2_pairing)
    return json.dumps(obj)


def key_from_json(text: str) -> CipherKey:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Besides syntax errors: an integer of over 4,300 digits is a
        # ValueError and deep nesting a RecursionError.
        raise InputError(f"invalid key JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidKeyError("key file must contain a JSON object")
    unknown = set(obj) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
    if unknown:
        raise InvalidKeyError(f"unknown key field(s): {sorted(unknown)}")
    missing = set(_REQUIRED_FIELDS) - set(obj)
    if missing:
        raise InvalidKeyError(f"missing key field(s): {sorted(missing)}")
    # CipherKey checks every value, strictly: a string, object, float or
    # boolean where it needs an integer or a list is InvalidKeyError.
    return CipherKey(
        obj["n"],
        obj["N"],
        obj["theta"],
        obj["step3_pairs"],
        obj["step4_upstream_order"],
        obj.get("mode2_pairing"),
        obj["version"],
    )
