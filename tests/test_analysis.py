import json
import math

import numpy as np
import pytest

from qcipher.analysis import (
    DEFAULT_EPSILON,
    DEFAULT_GRID,
    _marginals,
    _probe,
    _rows,
    _z,
    confusion_check,
    diffusion_profile,
    numeric_dependence_matrix,
    parity_dependences,
    perturbation_indices,
    report_to_json,
    symbolic_dependences,
    verify_dependence_rules,
)
from oracles import apply_circuit, simulated_flip_shifts, simulated_marginals, simulated_probe_shifts
from qcipher.cipher import PlainBlock
from qcipher.errors import InputError
from qcipher.keyschedule import Cnot, SingleU, compile_circuit, generate_key, grid_angle, key_circuit
from qcipher.statevector import basis_state, marginals
from test_keyschedule import canonical_key


def layer(thetas):
    return [SingleU(q + 1, t) for q, t in enumerate(thetas)]


def rows_as_sets(matrix):
    return [set(np.flatnonzero(row) + 1) for row in matrix.entries]


def test_symbolic_snowball_chain():
    n = 4
    ops = layer([0.3] * n) + [Cnot(i, i + 1) for i in range(1, n)]
    got = rows_as_sets(symbolic_dependences(ops, n))
    assert got == [{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}]


def test_symbolic_order_matters():
    ops = layer([0.3] * 3) + [Cnot(2, 3), Cnot(1, 2)]
    got = rows_as_sets(symbolic_dependences(ops, 3))
    assert got[2] == {2, 3}  # applying 2->3 first misses the 1-dependence


def test_symbolic_after_pairing_exceeds_half():
    for seed in range(10):
        k = generate_key(8, 256, np.random.default_rng(seed))
        matrix = symbolic_dependences(key_circuit(k, through_step=3), 8)
        assert all(c > 4 for c in matrix.row_counts)


def test_symbolic_monotone_growth():
    k = generate_key(6, 64, np.random.default_rng(1))
    ops = key_circuit(k)
    previous = np.zeros((6, 6), dtype=bool)
    for i in range(1, len(ops) + 1):
        current = symbolic_dependences(ops[:i], 6).entries
        assert np.all(previous <= current)
        previous = current


def test_parity_matches_two_qubit_closed_form():
    # After U x U and CNOT 1->2 followed by CNOT 2->1, qubit 1's marginal is
    # exactly b1^2: its own angle cancels out of its statistics.
    th1, th2 = 0.6, 1.1
    ops = layer([th1, th2]) + [Cnot(1, 2), Cnot(2, 1)]
    state = apply_circuit(basis_state(2, "00"), ops)
    assert marginals(state)[0] == pytest.approx(math.cos(th2) ** 2, abs=1e-12)
    parity = rows_as_sets(parity_dependences(ops, 2))
    assert parity[0] == {2}
    symbolic = rows_as_sets(symbolic_dependences(ops, 2))
    assert symbolic[0] == {1, 2}


def test_numeric_step1_only_is_diagonal():
    for seed in range(5):
        k = generate_key(6, 256, np.random.default_rng(seed))
        p = PlainBlock("010101")
        num = numeric_dependence_matrix(k, p, through_step=1)
        assert np.array_equal(num.entries, np.eye(6, dtype=bool))


def test_numeric_subset_of_symbolic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        num = numeric_dependence_matrix(k, p)
        sym = symbolic_dependences(key_circuit(k), 8)
        assert num.is_subset_of(sym)


def test_numeric_equals_parity_for_guarded_keys():
    # For rotation-layer + CNOT circuits the parity propagator is the exact
    # law of marginal-level dependence.
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        num = numeric_dependence_matrix(k, p)
        par = parity_dependences(key_circuit(k), 8)
        assert np.array_equal(num.entries, par.entries)


def test_numeric_validation():
    k = generate_key(4, 16, np.random.default_rng(4))
    with pytest.raises(InputError):
        numeric_dependence_matrix(k, PlainBlock("0000"), epsilon=0.0)
    with pytest.raises(InputError):
        numeric_dependence_matrix(k, PlainBlock("0000"), grid=1)
    with pytest.raises(InputError):
        numeric_dependence_matrix(k, PlainBlock("00"))


def test_perturbation_indices_distinct_and_in_range():
    alts = perturbation_indices(10, 256, 8)
    assert len(alts) == 8
    assert 10 not in alts
    assert all(0 <= a < 256 for a in alts)
    assert perturbation_indices(1, 4, 8) == [2, 3, 0]


def test_confusion_full_circuit_passes():
    for seed in range(10):
        k = generate_key(8, 256, np.random.default_rng(seed))
        report = confusion_check(k)
        assert report.passed
        assert all(c >= 5 for c in report.counts)


def test_confusion_step1_ablation_fails():
    k = generate_key(8, 256, np.random.default_rng(5))
    report = confusion_check(k, through_step=1)
    assert not report.passed
    assert all(c == 1 for c in report.counts)


def test_confusion_steps12_splits_upstream_downstream():
    k = generate_key(8, 256, np.random.default_rng(6))
    report = confusion_check(k, through_step=2)
    assert not report.passed
    for q in range(1, 5):
        assert report.counts[q - 1] <= 4
    for q in range(5, 9):
        assert report.counts[q - 1] > 4


def test_diffusion_step1_ablation_counts_are_one():
    k = generate_key(8, 256, np.random.default_rng(7))
    profile = diffusion_profile(k, PlainBlock("00000000"), through_step=1)
    assert profile.counts == (1,) * 8
    assert not profile.passed


def test_diffusion_counts_bounded_by_symbolic_columns():
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        profile = diffusion_profile(k, p)
        sym_cols = symbolic_dependences(key_circuit(k), 8).col_counts
        for j in range(8):
            assert profile.counts[j] <= sym_cols[j]


def test_diffusion_counts_equal_parity_columns():
    rng = np.random.default_rng(9)
    for _ in range(10):
        k = generate_key(8, 256, rng)
        p = PlainBlock("".join(str(b) for b in rng.integers(0, 2, size=8)))
        profile = diffusion_profile(k, p)
        par_cols = parity_dependences(key_circuit(k), 8).col_counts
        assert list(profile.counts) == par_cols


def test_symbolic_columns_exceed_half_for_full_circuit():
    for seed in range(10):
        k = generate_key(8, 256, np.random.default_rng(seed))
        matrix = symbolic_dependences(key_circuit(k), 8)
        assert all(c > 4 for c in matrix.col_counts)


def test_two_qubit_transfer_creates_dependence():
    # CNOT 1->2 on fresh qubits: p(0 on 2) = a1^2 b1^2 + a2^2 b2^2, which
    # moves when theta_1 moves.
    th1, th2 = 0.5, 1.2
    base_ops = layer([th1, th2]) + [Cnot(1, 2)]
    base = marginals(apply_circuit(basis_state(2, "00"), base_ops))[1]
    a1, a2 = math.cos(th1), math.sin(th1)
    b1, b2 = math.cos(th2), math.sin(th2)
    assert base == pytest.approx(a1**2 * b1**2 + a2**2 * b2**2, abs=1e-12)
    moved_ops = layer([th1 + 0.3, th2]) + [Cnot(1, 2)]
    moved = marginals(apply_circuit(basis_state(2, "00"), moved_ops))[1]
    assert abs(moved - base) > 1e-3


def test_control_retains_dependence_through_cnot():
    th1, th2 = 0.5, 1.2
    ops = layer([th1, th2]) + [Cnot(1, 2)]
    base = marginals(apply_circuit(basis_state(2, "00"), ops))[0]
    assert base == pytest.approx(math.cos(th1) ** 2, abs=1e-12)
    moved_ops = layer([th1 + 0.3, th2]) + [Cnot(1, 2)]
    moved = marginals(apply_circuit(basis_state(2, "00"), moved_ops))[0]
    assert abs(moved - base) > 1e-3


def test_verify_dependence_rules_clean_on_random_circuits():
    for n in (2, 3, 4):
        report = verify_dependence_rules(n, 40, np.random.default_rng(n))
        assert report.locality_violations == ()
        assert report.transfer_violations == ()
        assert report.retention_violations == ()
        assert report.parity_violations == ()
        assert report.passed


def test_verify_dependence_rules_observes_parity_cancellations():
    # Overlapping dependence packages cancel for this gate set; the suite
    # tallies those events instead of flagging them as rule violations.
    total = 0
    for seed in range(5):
        report = verify_dependence_rules(4, 40, np.random.default_rng(100 + seed))
        total += len(report.shared_cancellations)
        assert report.passed
    assert total > 0


def test_verify_dependence_rules_validation():
    with pytest.raises(InputError):
        verify_dependence_rules(7, 10, np.random.default_rng(0))
    with pytest.raises(InputError):
        verify_dependence_rules(4, 0, np.random.default_rng(0))


def test_report_json_shape():
    k = generate_key(4, 16, np.random.default_rng(10))
    report = confusion_check(k)
    obj = json.loads(report_to_json(report.matrix, report.passed, 1e-6, 8))
    assert set(obj) == {"matrix", "row_counts", "col_counts", "pass", "epsilon", "grid"}
    assert obj["pass"] is True
    assert obj["epsilon"] == 1e-6
    assert obj["grid"] == 8
    assert len(obj["matrix"]) == 4


def test_canonical_key_parity_rows():
    # Hand-propagated rows for the identity-ordered key at n = 8.
    k = canonical_key(8)
    got = rows_as_sets(parity_dependences(key_circuit(k), 8))
    assert got == [
        {1, 6, 7, 8},
        {2, 6, 8},
        {1, 3, 6, 7, 8},
        {2, 4},
        {5, 6, 7, 8},
        {1, 3, 4, 5, 8},
        {2, 3, 4, 5, 8},
        {1, 2, 3, 4, 5, 6, 7, 8},
    ]


# (trial, control, target, cancelled angle) for verify_dependence_rules(n,
# 40, default_rng(100 + n)), recorded before the probes were merged into one
# helper; n = 2 has none.
PINNED_CANCELLATIONS = {
    2: [],
    3: [(5, 2, 1, 2), (7, 1, 2, 1), (22, 3, 2, 2), (24, 3, 1, 1), (32, 3, 1, 1), (33, 3, 2, 2),
        (37, 3, 2, 3)],
    4: [(1, 3, 4, 4), (4, 1, 4, 4), (13, 3, 2, 3), (14, 4, 3, 3), (19, 3, 4, 4), (20, 1, 4, 1),
        (25, 4, 1, 4), (28, 4, 3, 3), (29, 2, 1, 2), (29, 2, 1, 4), (33, 4, 1, 1), (35, 4, 1, 1),
        (35, 4, 1, 4), (37, 2, 1, 2), (38, 1, 4, 1)],
    5: [(0, 1, 3, 5), (1, 5, 4, 5), (6, 5, 1, 1), (10, 1, 2, 2), (10, 1, 2, 4), (18, 5, 3, 1),
        (19, 1, 3, 1), (19, 1, 3, 3), (23, 3, 5, 4), (24, 5, 1, 1), (26, 5, 1, 5), (28, 1, 2, 2),
        (32, 4, 2, 2), (35, 4, 2, 2), (36, 4, 3, 4), (38, 4, 1, 1), (38, 4, 1, 2), (38, 4, 1, 4),
        (39, 3, 5, 5)],
    6: [(0, 6, 1, 6), (1, 5, 6, 5), (8, 6, 5, 3), (8, 6, 5, 6), (10, 1, 5, 5), (11, 5, 4, 5),
        (19, 3, 2, 2), (20, 5, 2, 5), (24, 1, 4, 2), (24, 1, 4, 3), (26, 2, 3, 2), (30, 6, 2, 6),
        (34, 3, 5, 3), (36, 3, 6, 3)],
}


@pytest.mark.parametrize("n", sorted(PINNED_CANCELLATIONS))
def test_verify_dependence_rules_pinned_reports(n):
    report = verify_dependence_rules(n, 40, np.random.default_rng(100 + n))
    assert report.locality_violations == ()
    assert report.transfer_violations == ()
    assert report.retention_violations == ()
    assert report.parity_violations == ()
    assert report.shared_cancellations == tuple(
        f"trial {trial}: {c}->{t} cancelled shared dependence {j}"
        for trial, c, t, j in PINNED_CANCELLATIONS[n]
    )


def test_parity_rejects_cnot_before_rotation_layer():
    # The exact law is stated for "rotation layer, then CNOTs" only.
    with pytest.raises(InputError):
        parity_dependences([Cnot(1, 2)] + layer([0.3, 0.7]), 2)
    with pytest.raises(InputError):
        parity_dependences(layer([0.3]), 2)


BAD_EPSILONS = [0.0, -1e-6, math.nan, math.inf, -math.inf]
BAD_GRIDS = [1, 0, -3]


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
def test_probes_reject_epsilon(epsilon):
    k = generate_key(4, 16, np.random.default_rng(4))
    p = PlainBlock("0110")
    with pytest.raises(InputError, match="epsilon"):
        numeric_dependence_matrix(k, p, epsilon=epsilon)
    with pytest.raises(InputError, match="epsilon"):
        diffusion_profile(k, p, epsilon=epsilon)
    with pytest.raises(InputError, match="epsilon"):
        verify_dependence_rules(3, 2, np.random.default_rng(0), epsilon=epsilon)


@pytest.mark.parametrize("grid", BAD_GRIDS)
def test_probes_reject_grid(grid):
    k = generate_key(4, 16, np.random.default_rng(4))
    with pytest.raises(InputError, match="grid"):
        numeric_dependence_matrix(k, PlainBlock("0110"), grid=grid)
    with pytest.raises(InputError, match="grid"):
        verify_dependence_rules(3, 2, np.random.default_rng(0), grid=grid)


def test_grid_one_alone_would_see_no_dependence():
    # Why grid 1 is rejected: its only offset is pi, and U(theta + pi) =
    # -U(theta) leaves every marginal where it was.
    k = generate_key(4, 16, np.random.default_rng(4))
    cc = compile_circuit(key_circuit(k), 4)
    half_turn = [[theta + math.pi] for theta in cc.thetas]
    assert not _probe(cc, "0110", half_turn, DEFAULT_EPSILON).any()


# The closed form on A against the simulated marginals of tests/oracles.py,
# with bounds fixed before measuring: marginals agree within 1e-12, and the
# probes' entries agree with the simulated shifts against epsilon except
# where a shift lies within 0.1% of epsilon.
MARGINAL_TOL = 1e-12
UNDECIDED = 1e-3


def assert_probe_agrees(got, shifts, epsilon=DEFAULT_EPSILON):
    decided = np.abs(shifts - epsilon) > UNDECIDED * epsilon
    assert np.array_equal(got & decided, (shifts > epsilon) & decided)


def assert_marginals_agree(cc, bits):
    got = _marginals(_rows(cc), _z(cc.thetas, bits))
    assert np.max(np.abs(got - simulated_marginals(cc, bits))) <= MARGINAL_TOL


def random_bits(rng, n):
    return "".join(str(b) for b in rng.integers(0, 2, size=n))


@pytest.mark.parametrize("N", [8, 16, 256])
@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_probes_match_simulation(n, N):
    # N = 8 puts every cos(2 theta) at 0 or +-1, where a marginal shift is
    # either nothing or large.
    rng = np.random.default_rng([n, N])
    for through_step in (1, 2, 3, 4):
        k = generate_key(n, N, rng)
        p = PlainBlock(random_bits(rng, n))
        cc = compile_circuit(key_circuit(k, through_step), n)
        assert_marginals_agree(cc, p.bits)
        alternates = [
            [grid_angle(alt, N) for alt in perturbation_indices(index, N, DEFAULT_GRID)]
            for index in k.theta_indices
        ]
        assert_probe_agrees(
            numeric_dependence_matrix(k, p, through_step=through_step).entries,
            simulated_probe_shifts(cc, p.bits, alternates),
        )
        assert_probe_agrees(
            diffusion_profile(k, p, through_step=through_step).change_matrix,
            simulated_flip_shifts(cc, p.bits),
        )
    for _ in range(3):
        thetas = [grid_angle(int(i), N) for i in rng.integers(0, N, size=n)]
        cnots = [Cnot(*(int(q) + 1 for q in rng.choice(n, size=2, replace=False)))
                 for _ in range(int(rng.integers(0, 3 * n + 1)))]
        cc = compile_circuit(layer(thetas) + cnots, n)
        bits = random_bits(rng, n)
        assert_marginals_agree(cc, bits)
        alternates = [list(rng.uniform(0.0, 2.0 * math.pi, size=3)) for _ in range(n)]
        assert_probe_agrees(_probe(cc, bits, alternates, DEFAULT_EPSILON),
                            simulated_probe_shifts(cc, bits, alternates))
