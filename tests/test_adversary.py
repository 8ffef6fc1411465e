import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import read_probs, sampled_decrypt_bits
from qcipher.adversary import (
    AttackReport,
    _basis_read,
    _ci_bounds,
    brute_force_key_recovery,
    collision_probability,
    config_count_bounds,
    detection_experiment,
    folded_angle,
    marginal_estimation_attack,
)
from qcipher.cipher import PlainBlock, _unmix, decrypt_block, encrypt_block
from qcipher.errors import InputError, ResourceError
from qcipher.keyschedule import CipherKey, compile_circuit, generate_key, key_circuit, keyspace_size, theta_value
from qcipher.statevector import basis_state, measure_all


def test_intercept_on_basis_state_is_transparent():
    s = basis_state(4, "0110")
    outcome = measure_all(s, np.random.default_rng(0))
    assert outcome.bits == "0110"
    assert np.array_equal(outcome.collapsed.amps, s.amps)


def test_intercept_collapses_superpositions():
    k = generate_key(6, 256, np.random.default_rng(1))
    c = encrypt_block(k, PlainBlock("101010")).state
    outcome = measure_all(c, np.random.default_rng(2))
    assert np.count_nonzero(outcome.collapsed.amps) == 1
    assert int(outcome.bits, 2) == int(np.argmax(np.abs(outcome.collapsed.amps)))


def test_collision_probability_closed_form():
    # The CNOT layers permute basis states, so sum |c_b|^4 equals the
    # product over qubits of cos^4 + sin^4 of the step-1 angles.
    rng = np.random.default_rng(3)
    for _ in range(10):
        k = generate_key(8, 256, rng)
        c = encrypt_block(k, PlainBlock("00000000")).state
        expected = 1.0
        for q in range(1, 9):
            th = theta_value(k, q)
            expected *= math.cos(th) ** 4 + math.sin(th) ** 4
        assert collision_probability(c) == pytest.approx(expected, abs=1e-12)


def test_eve_bits_follow_born_distribution():
    k = generate_key(4, 256, np.random.default_rng(4))
    c = encrypt_block(k, PlainBlock("0110")).state
    probs = np.abs(c.amps) ** 2
    rng = np.random.default_rng(5)
    counts = np.zeros(16)
    samples = 10**5
    for _ in range(samples):
        counts[int(measure_all(c, rng).bits, 2)] += 1
    expected = probs * samples
    keep = expected >= 5
    merged_counts = np.append(counts[keep], counts[~keep].sum())
    merged_expected = np.append(expected[keep], expected[~keep].sum())
    if merged_expected[-1] == 0:
        merged_counts, merged_expected = merged_counts[:-1], merged_expected[:-1]
    result = stats.chisquare(merged_counts, merged_expected)
    assert result.pvalue > 0.01


def test_sampled_decrypt_recovers_plaintext_without_interference():
    k = generate_key(6, 256, np.random.default_rng(6))
    p = PlainBlock("110100")
    c = encrypt_block(k, p).state
    assert sampled_decrypt_bits(k, c, np.random.default_rng(7)) == p.bits


# Fixed before measuring. Up to 8 qubits the oracle's inverse is one gather
# and one product with the group matrix ``_kron(thetas)``, so on a basis
# state it returns a column of that matrix, which is the closed form's
# product state value for value. The two then differ only by the oracle's
# normalisation: each probability p <= 1 is divided by a sum of 2^n squares
# that is 1 up to rounding, a change of a few units of 2^-53.
READ_PROB_TOL = 1e-15


@pytest.mark.parametrize("N", [8, 16, 256])
@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_read_matches_the_inverse(n, N):
    # Every outcome y Eve can forward, and the honest ciphertext, whose
    # read detection_experiment takes to be its plaintext with certainty.
    rng = np.random.default_rng(1300 + n)
    k = generate_key(n, N, rng)
    cc = compile_circuit(key_circuit(k), n)
    unmix = _unmix(cc.cols)
    size = 1 << n
    for y in range(size):
        want = read_probs(cc, np.eye(1, size, y)[0])
        assert np.max(np.abs(_basis_read(cc, unmix, y) - want)) <= READ_PROB_TOL, y
    target = int(rng.integers(0, size))
    honest = read_probs(cc, encrypt_block(k, PlainBlock(format(target, f"0{n}b"))).state.amps)
    assert np.max(np.abs(honest - np.eye(1, size, target)[0])) <= READ_PROB_TOL


def test_detection_rate_zero_without_eve():
    k = generate_key(8, 256, np.random.default_rng(8))
    report = detection_experiment(k, PlainBlock("10010110"), 3, False, np.random.default_rng(9), trials=200)
    assert report.estimates["detection_rate"] == 0.0
    assert report.counts["detections"] == 0


def _per_copy_counts(k, p, r, eve_on, g, trials):
    """detection_experiment's counts, one intercept and one read per copy,
    each read through the oracle's inverse circuit."""
    c = encrypt_block(k, p).state
    detections = passes = 0
    for _ in range(trials):
        ok = 0
        for _ in range(r):
            state = measure_all(c, g).collapsed if eve_on else c
            ok += sampled_decrypt_bits(k, state, g) == p.bits
        passes += ok
        detections += ok < r
    return {"detections": detections, "copy_passes": passes, "copies": trials * r}


@pytest.mark.parametrize("eve_on", [True, False])
# (10, 256, 5, 20) is the shape the benchmark's probe workload runs; the
# N = 8 key at n = 4 ties |cos| and |sin| on three of its four qubits.
@pytest.mark.parametrize(
    "n, N, r, trials",
    [(2, 4, 1, 60), (3, 8, 3, 40), (4, 8, 4, 40), (5, 32, 2, 40), (8, 256, 5, 20), (10, 256, 5, 20)],
)
def test_detection_counts_match_a_per_copy_loop(n, N, r, trials, eve_on):
    k = generate_key(n, N, np.random.default_rng(n))
    p = PlainBlock(format(5 % (1 << n), f"0{n}b"))
    report = detection_experiment(k, p, r, eve_on, np.random.default_rng(100 + n), trials=trials)
    assert report.counts == _per_copy_counts(k, p, r, eve_on, np.random.default_rng(100 + n), trials)


def test_per_copy_pass_matches_collision_probability():
    k = generate_key(8, 256, np.random.default_rng(10))
    p = PlainBlock("00000000")
    q = collision_probability(encrypt_block(k, p).state)
    report = detection_experiment(k, p, 1, True, np.random.default_rng(11), trials=4000)
    assert abs(report.estimates["per_copy_pass"] - q) < 0.02


def test_detection_rate_follows_repetition_closed_form():
    k = generate_key(8, 256, np.random.default_rng(12))
    p = PlainBlock("00000000")
    q = collision_probability(encrypt_block(k, p).state)
    rates = []
    for r in (1, 3, 5):
        report = detection_experiment(k, p, r, True, np.random.default_rng(13), trials=3000)
        rate = report.estimates["detection_rate"]
        assert abs(rate - (1.0 - q**r)) < 0.02
        rates.append(rate)
    assert rates[0] <= rates[1] <= rates[2]


def test_detection_rate_high_at_five_repetitions():
    k = generate_key(8, 256, np.random.default_rng(14))
    report = detection_experiment(k, PlainBlock("00000000"), 5, True, np.random.default_rng(15), trials=2000)
    assert report.estimates["detection_rate"] > 0.99


def test_detection_experiment_validation():
    k = generate_key(4, 16, np.random.default_rng(16))
    with pytest.raises(InputError):
        detection_experiment(k, PlainBlock("0000"), 0, True, np.random.default_rng(0))
    with pytest.raises(InputError):
        detection_experiment(k, PlainBlock("0000"), 1, True, np.random.default_rng(0), trials=0)


def test_attack_report_counts_within_trials():
    k = generate_key(6, 256, np.random.default_rng(17))
    report = detection_experiment(k, PlainBlock("000000"), 2, True, np.random.default_rng(18), trials=300)
    assert report.counts["detections"] <= report.trials
    assert 0.0 <= report.estimates["detection_rate"] <= 1.0
    assert 0.0 <= report.estimates["per_copy_pass"] <= 1.0


def test_marginal_estimation_recovers_known_angle():
    # theta = pi/3 is grid point 1 of N = 6.
    k = CipherKey(2, 6, (1, 1), ((2, 1),), (1,))
    estimates = marginal_estimation_attack(k, PlainBlock("00"), 10**5, np.random.default_rng(19))
    assert abs(estimates[0] - math.pi / 3) < 0.02
    assert abs(estimates[1] - math.pi / 3) < 0.02


def test_marginal_estimation_accuracy_on_rotation_layer():
    rng = np.random.default_rng(20)
    hits = total = 0
    for _ in range(10):
        k = generate_key(8, 256, rng)
        estimates = marginal_estimation_attack(k, PlainBlock("00000000"), 10**4, rng)
        for q in range(1, 9):
            hits += int(abs(estimates[q - 1] - folded_angle(theta_value(k, q))) < 0.05)
            total += 1
    assert hits / total >= 0.95


def test_marginal_estimation_fails_against_full_circuit():
    rng = np.random.default_rng(21)
    failed = 0
    for _ in range(10):
        k = generate_key(8, 256, rng)
        estimates = marginal_estimation_attack(
            k, PlainBlock("00000000"), 10**4, rng, step1_only=False
        )
        residuals = [abs(estimates[q - 1] - folded_angle(theta_value(k, q))) for q in range(1, 9)]
        failed += int(np.mean(residuals) > 0.05)
    assert failed >= 9


def test_brute_force_contains_true_key():
    rng = np.random.default_rng(22)
    k = generate_key(2, 4, rng)
    p = PlainBlock("10")
    consistent = brute_force_key_recovery(2, 4, (p, encrypt_block(k, p)))
    assert k in consistent
    assert len(consistent) <= keyspace_size(2, 4).size


def test_brute_force_cap():
    k = generate_key(8, 256, np.random.default_rng(23))
    p = PlainBlock("00000000")
    with pytest.raises(ResourceError):
        brute_force_key_recovery(8, 256, (p, encrypt_block(k, p)))


def test_brute_force_scan_time_tracks_keyspace_size():
    # Scan times should grow roughly with the keyspace (factor-2 slack). They
    # are the process's CPU time, which other jobs on a loaded host do not
    # add to, as they do to the wall clock.
    def scan_time(n, N, repeats):
        rng = np.random.default_rng(24)
        k = generate_key(n, N, rng)
        p = PlainBlock("0" * n)
        pair = (p, encrypt_block(k, p))
        brute_force_key_recovery(n, N, pair)  # warm-up
        best = math.inf
        for _ in range(3):
            start = time.process_time()
            for _ in range(repeats):
                brute_force_key_recovery(n, N, pair)
            best = min(best, (time.process_time() - start) / repeats)
        return best

    t_small = scan_time(2, 2, 40)
    t_mid = scan_time(2, 4, 12)
    t_large = scan_time(3, 4, 4)
    ratio_mid = keyspace_size(2, 4).size / keyspace_size(2, 2).size
    ratio_large = keyspace_size(3, 4).size / keyspace_size(2, 4).size
    assert ratio_mid / 2 <= t_mid / t_small <= ratio_mid * 2
    assert ratio_large / 2 <= t_large / t_mid <= ratio_large * 2


def test_config_count_bounds_values():
    b = config_count_bounds(5, 10)
    assert b.lower == 5_242_880
    assert b.upper == 10_240_000_000_000
    assert b.log2_lower == pytest.approx(math.log2(5_242_880))
    b = config_count_bounds(2, 1)
    assert b.lower == b.upper == 2


def test_config_count_bounds_ordering_and_ratio():
    rng = np.random.default_rng(25)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        L = int(rng.integers(1, 12))
        b = config_count_bounds(n, L)
        assert b.lower <= b.upper
        if L >= 2 and n >= 2:
            assert b.lower < b.upper
        assert b.upper % b.lower == 0
        assert b.upper // b.lower == n ** (L - 1)


def test_config_count_bounds_validation():
    with pytest.raises(InputError):
        config_count_bounds(1, 5)
    with pytest.raises(InputError):
        config_count_bounds(3, 0)


def test_attack_report_serializes_big_integers_as_strings():
    report = AttackReport(
        name="test",
        trials=10,
        counts={"hits": 3},
        estimates={"rate": 0.3},
        ci_bounds={"rate": [0.05, 0.6]},
        params={"keyspace": 2**80, "n": 8},
    )
    obj = json.loads(report.to_json())
    assert obj["params"]["keyspace"] == str(2**80)
    assert obj["params"]["n"] == 8
    assert obj["counts"]["hits"] == 3
    assert obj["ci_bounds"] == {"rate": [0.05, 0.6]}


@pytest.mark.parametrize(
    "n, L, prints",
    [(2, 14283, True), (2, 14284, False), (8, 3000, False),
     (10**2000, 1, True), (10**3999, 1, False), (2, 10**3999, False)],
)
def test_config_count_bounds_are_built_only_when_they_print(n, L, prints):
    # (n^2 - n)^L >= 2^L, so a 4,000-digit L fails before any float is formed.
    if prints:
        assert len(config_count_bounds(n, L).to_json()) > 4000
    else:
        with pytest.raises(ResourceError):
            config_count_bounds(n, L)


def test_config_count_bounds_json():
    obj = json.loads(config_count_bounds(5, 10).to_json())
    assert obj["lower"] == "5242880"
    assert obj["upper"] == "10240000000000"
    assert set(obj) == {"n", "L", "lower", "upper", "log2_lower", "log2_upper"}


@pytest.mark.parametrize("entry", ["decrypt_block", "brute_force_key_recovery"])
def test_ciphertext_width_is_one_check(entry):
    # One helper, cipher._check_width, refuses a 4-qubit ciphertext under a
    # 3-qubit key at every entry that reads one.
    k = generate_key(3, 4, np.random.default_rng(0))
    wide = encrypt_block(generate_key(4, 4, np.random.default_rng(1)), PlainBlock("0110"))
    calls = {
        "decrypt_block": lambda: decrypt_block(k, wide),
        "brute_force_key_recovery": lambda: brute_force_key_recovery(3, 4, (PlainBlock("011"), wide)),
    }
    with pytest.raises(InputError, match="^ciphertext has 4 qubits, key expects 3$"):
        calls[entry]()


def test_ci_bounds_are_the_wilson_interval():
    # By hand, z = 1.96 and z^2 = 3.8416. The interval is centred at
    # (k + z^2/2) / (n + z^2) with half-width sqrt(z^2 k (n - k) / n +
    # z^4 / 4) / (n + z^2). At 0 of n and n of n that half-width is
    # z^2 / (2 (n + z^2)), so the interval reaches 0 or 1, and no further.
    n = 1000
    low, high = _ci_bounds(0, n)
    assert low == pytest.approx(0.0, abs=1e-15)
    assert high == pytest.approx(3.8416 / 1003.8416, rel=1e-12)
    low, high = _ci_bounds(n, n)
    assert low == pytest.approx(1000 / 1003.8416, rel=1e-12)
    assert high == pytest.approx(1.0, abs=1e-15) and high <= 1.0
    # 30 of 100: centre 31.9208 / 103.8416 = 0.3073990, half-width
    # sqrt(3.8416 * 21 + 3.689473) / 103.8416 = 0.0884514.
    low, high = _ci_bounds(30, 100)
    assert low == pytest.approx(0.3073990 - 0.0884514, abs=2e-7)
    assert high == pytest.approx(0.3073990 + 0.0884514, abs=2e-7)
    # scipy's Wilson interval uses z = 1.959964.
    ci = stats.binomtest(30, 100).proportion_ci(method="wilson")
    assert [low, high] == pytest.approx([ci.low, ci.high], abs=1e-5)
