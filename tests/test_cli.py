import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import transmission_from_json_oracle
from qcipher.adversary import COPIES_CAP, SAMPLES_CAP, TRIALS_CAP
from qcipher.cipher import CipherBlock
from qcipher.cli import _bits_to_bytes, _mode_config, main
from qcipher.errors import CipherError, IntegrityError, ResourceError
from qcipher.keyschedule import key_from_json
from qcipher.modes import Mode, Transmission, decrypt, transmission_from_json
from qcipher.statevector import StateVector
from test_wire import OPS, _mutate

# The stderr prefix of each nonzero exit code (see the README).
PREFIXES = {1: "error:", 2: "integrity error:", 3: "resource error:"}


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "key.json"
    assert main(["keygen", "--n", "8", "--N", "256", "--seed", "42", "--out", str(path)]) == 0
    return path


def test_keygen_writes_valid_key_and_reports_keyspace(tmp_path, capsys):
    path = tmp_path / "key.json"
    rc = main(["keygen", "--n", "8", "--N", "256", "--seed", "42", "--out", str(path), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["keyspace"] == str(2**64 * 576)
    assert abs(out["log2_keyspace"] - 73.1699) < 1e-3
    key = key_from_json(path.read_text())
    assert key.n == 8 and key.N == 256


def test_keygen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["keygen", "--n", "6", "--N", "64", "--seed", "7", "--out", str(a)])
    main(["keygen", "--n", "6", "--N", "64", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_keygen_rejects_small_n(tmp_path, capsys):
    rc = main(["keygen", "--n", "1", "--N", "4", "--out", str(tmp_path / "k.json")])
    assert rc == 1
    assert "n must be" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["keygen", "--n", "8"]) == 1
    assert main(["nonsense"]) == 1


def test_encrypt_block_count(keyfile, tmp_path, capsys):
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\xa5\x3c")
    out = tmp_path / "t.json"
    rc = main(["encrypt", "--key", str(keyfile), "--mode", "m1", "--in", str(data),
               "--out", str(out), "--seed", "1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == 2
    t = transmission_from_json(out.read_text())
    assert t.m == 2 and t.n == 8


@pytest.mark.parametrize("mode", ["m1", "m2"])
def test_encrypt_decrypt_round_trip(keyfile, tmp_path, mode):
    data = tmp_path / "msg.bin"
    payload = b"\x00\xff\x5a" if mode == "m1" else b"\xff\x5a"
    data.write_bytes(payload)
    enc = tmp_path / "t.json"
    dec = tmp_path / "out.bin"
    assert main(["encrypt", "--key", str(keyfile), "--mode", mode, "--in", str(data),
                 "--out", str(enc), "--seed", "3"]) == 0
    assert main(["decrypt", "--key", str(keyfile), "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == payload


def test_encrypt_round_trip_with_iv(keyfile, tmp_path):
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\x42")
    enc, dec = tmp_path / "t.json", tmp_path / "out.bin"
    iv = "10110001"
    assert main(["encrypt", "--key", str(keyfile), "--mode", "m2", "--in", str(data),
                 "--out", str(enc), "--iv", iv]) == 0
    assert main(["decrypt", "--key", str(keyfile), "--in", str(enc), "--out", str(dec),
                 "--iv", iv]) == 0
    assert dec.read_bytes() == b"\x42"


def test_encrypt_rejects_partial_block(tmp_path, capsys):
    key = tmp_path / "k.json"
    main(["keygen", "--n", "6", "--N", "64", "--seed", "1", "--out", str(key)])
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\x01")  # 8 bits, not a multiple of 6
    rc = main(["encrypt", "--key", str(key), "--mode", "m1", "--in", str(data),
               "--out", str(tmp_path / "t.json")])
    assert rc == 1
    assert "pad" in capsys.readouterr().err


def test_encrypt_mode2_register_cap(keyfile, tmp_path, capsys):
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\x11\x22\x33\x44")  # 4 blocks of 8 > 24 qubits
    rc = main(["encrypt", "--key", str(keyfile), "--mode", "m2", "--in", str(data),
               "--out", str(tmp_path / "t.json")])
    assert rc == 3
    assert "cap" in capsys.readouterr().err


def test_decrypt_tampered_payload_exits_2(keyfile, tmp_path, capsys):
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\x99")
    enc = tmp_path / "t.json"
    main(["encrypt", "--key", str(keyfile), "--mode", "m1", "--in", str(data), "--out", str(enc)])
    obj = json.loads(enc.read_text())
    amps = obj["payload"][0]["amps"]
    amps[0], amps[1] = amps[1], amps[0]
    enc.write_text(json.dumps(obj))
    rc = main(["decrypt", "--key", str(keyfile), "--in", str(enc), "--out", str(tmp_path / "o.bin")])
    assert rc == 2
    assert "block 0" in capsys.readouterr().err


def test_decrypt_wrong_key_exits_2(keyfile, tmp_path):
    other = tmp_path / "other.json"
    main(["keygen", "--n", "8", "--N", "256", "--seed", "1234", "--out", str(other)])
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\x7e")
    enc = tmp_path / "t.json"
    main(["encrypt", "--key", str(keyfile), "--mode", "m1", "--in", str(data), "--out", str(enc)])
    assert main(["decrypt", "--key", str(other), "--in", str(enc), "--out", str(tmp_path / "o.bin")]) == 2


def test_decrypt_truncated_file_exits_1(keyfile, tmp_path):
    enc = tmp_path / "t.json"
    enc.write_text('{"mode": "m1", "n": 8,')
    assert main(["decrypt", "--key", str(keyfile), "--in", str(enc), "--out", str(tmp_path / "o.bin")]) == 1


def test_analyze_confusion_passes(keyfile, tmp_path):
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", "confusion", "--out", str(report)])
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["pass"] is True
    assert obj["epsilon"] == 1e-6 and obj["grid"] == 8


def test_analyze_step1_ablation_fails(keyfile, tmp_path):
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", "diffusion", "--ablate", "step1",
               "--out", str(report)])
    assert rc == 1
    obj = json.loads(report.read_text())
    assert obj["pass"] is False
    assert obj["col_counts"] == [1] * 8


def test_analyze_rules_report(keyfile, tmp_path):
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", "rules", "--trials", "20",
               "--seed", "5", "--out", str(report)])
    assert rc == 0
    obj = json.loads(report.read_text())
    assert obj["n"] == 6  # clamped to the supported range
    assert obj["transfer_violations"] == []
    assert obj["parity_violations"] == []
    assert obj["pass"] is True


RULES_REPORT = (
    '{"n": 6, "trials": 20, "epsilon": 1e-06, "grid": 8, "locality_violations": [], '
    '"transfer_violations": [], "retention_violations": [], "shared_cancellations": '
    '["trial 7: 6->3 cancelled shared dependence 6", "trial 9: 5->4 cancelled shared dependence 5", '
    '"trial 12: 3->5 cancelled shared dependence 3", "trial 14: 3->5 cancelled shared dependence 3", '
    '"trial 15: 3->1 cancelled shared dependence 3"], "parity_violations": [], "pass": true}\n'
)


def test_analyze_rules_report_text_is_pinned(keyfile, tmp_path):
    # The whole file: every field of DependenceRuleReport in field order,
    # then "pass", then one newline.
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", "rules", "--trials", "20",
               "--seed", "5", "--out", str(report)])
    assert rc == 0
    assert report.read_text() == RULES_REPORT


def test_attack_bounds(tmp_path, capsys):
    rc = main(["attack", "--kind", "bounds", "--n", "5", "--L", "10", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["lower"] == "5242880"
    assert obj["upper"] == "10240000000000"


def test_attack_intercept_detects(tmp_path, capsys):
    rc = main(["attack", "--kind", "intercept", "--r", "5", "--trials", "400", "--seed", "2"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["estimates"]["detection_rate"] > 0.99
    # Each rate lies in its Wilson interval, reported by its bounds in [0, 1].
    for name in ("detection_rate", "per_copy_pass"):
        low, high = obj["ci_bounds"][name]
        assert 0.0 <= low <= obj["estimates"][name] <= high <= 1.0


def test_attack_brute_enumerates_keyspace(capsys):
    rc = main(["attack", "--kind", "brute", "--n", "2", "--N", "2", "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["params"]["enumerated"] == 4
    assert obj["counts"]["true_key_found"] == 1


def test_attack_brute_resource_cap(capsys):
    assert main(["attack", "--kind", "brute", "--n", "8", "--N", "256"]) == 3


def test_attack_stats_step1(keyfile, tmp_path, capsys):
    rc = main(["attack", "--kind", "stats", "--key", str(keyfile), "--samples", "20000",
               "--seed", "4"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["counts"]["recovered_qubits"] >= 7
    assert obj["params"]["full_circuit"] is False


def test_attack_stats_full_circuit_fails(keyfile, capsys):
    rc = main(["attack", "--kind", "stats", "--key", str(keyfile), "--samples", "20000",
               "--seed", "4", "--full-circuit"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["counts"]["recovered_qubits"] <= 2


@pytest.mark.parametrize(
    "argv, code",
    [
        # An exact count too long to print (over 4,300 digits).
        (["attack", "--kind", "bounds", "--n", "8", "--L", "3000"], 3),
        (["keyspace", "--n", "2000", "--N", "256"], 3),
        # A grid beyond numpy's int64 draws.
        (["keygen", "--n", "8", "--N", "100000000000000000000", "--out", "{tmp}/k.json"], 1),
        (["attack", "--kind", "stats", "--N", "100000000000000000000"], 1),
        # One past the sample and trial caps, refused before any draw.
        (["attack", "--kind", "stats", "--samples", str(SAMPLES_CAP + 1)], 3),
        (["attack", "--kind", "stats", "--samples", "10" * 2000], 3),
        (["attack", "--kind", "intercept", "--trials", str(TRIALS_CAP + 1)], 3),
        (["attack", "--kind", "intercept", "--trials", "10" * 2000], 3),
        # Over the cap on trials * r, refused before the first copy: with no
        # cap the first row loops for hours.
        (["attack", "--kind", "intercept", "--r", "1000000000", "--trials", "1"], 3),
        (["attack", "--kind", "intercept", "--r", str(COPIES_CAP + 1), "--trials", "1"], 3),
        (["attack", "--kind", "intercept", "--r", "10" * 2000, "--trials", str(TRIALS_CAP)], 3),
    ],
    ids=["attack-bounds", "keyspace", "keygen", "attack-stats",
         "samples", "samples-huge", "trials", "trials-huge", "copies", "copies-past-cap", "copies-huge"],
)
def test_oversized_integer_options_exit_with_their_prefix(tmp_path, capsys, argv, code):
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(PREFIXES[code]) and "Traceback" not in err, err


def test_keyspace_command(capsys):
    assert main(["keyspace", "--n", "4", "--N", "16", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["keyspace"] == "262144"
    assert main(["keyspace", "--n", "8", "--N", "256"]) == 0
    assert "73.17" in capsys.readouterr().out


def test_decrypt_nan_tampered_payload_exits_2(keyfile, tmp_path, capsys):
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\xaa")
    enc = tmp_path / "t.json"
    main(["encrypt", "--key", str(keyfile), "--mode", "m1", "--in", str(data), "--out", str(enc)])
    obj = json.loads(enc.read_text())
    obj["payload"][0]["amps"][0][0] = float("nan")
    enc.write_text(json.dumps(obj))
    out = tmp_path / "o.bin"
    assert main(["decrypt", "--key", str(keyfile), "--in", str(enc), "--out", str(out)]) == 2
    assert "integrity error" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rules_trials_cap_exits_3(keyfile, capsys):
    assert main(["analyze", "--key", str(keyfile), "--kind", "rules", "--trials", str(TRIALS_CAP + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(PREFIXES[3]) and "Traceback" not in err, err


@pytest.mark.parametrize(
    "N, theta",
    [
        (10**400, None),  # N itself is past the float range
        (2**1024 - 1, None),  # N rounds up to 2**1024 as a float
        (2**1023, 2**1022 + 1),  # 2*pi*k is past the float range
    ],
    ids=["N-10**400", "N-2**1024-1", "k-2**1022+1"],
)
@pytest.mark.parametrize("command", ["encrypt", "analyze"])
def test_key_file_whose_angles_overflow_exits_1(keyfile, tmp_path, capsys, N, theta, command):
    obj = json.loads(keyfile.read_text())
    obj["N"] = N
    if theta is not None:
        obj["theta"][3] = theta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\xaa")
    out = tmp_path / "out.json"
    argv = {
        "encrypt": ["encrypt", "--key", str(bad), "--mode", "m1", "--in", str(data), "--out", str(out)],
        "analyze": ["analyze", "--key", str(bad), "--kind", "confusion", "--out", str(out)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(PREFIXES[1]) and "float range" in err and "Traceback" not in err, err
    assert not out.exists()


def test_key_file_with_float_or_bool_theta_exits_1(keyfile, tmp_path, capsys):
    obj = json.loads(keyfile.read_text())
    obj["theta"][:2] = [1.9, True]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    rc = main(["analyze", "--key", str(bad), "--kind", "confusion", "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "theta" in capsys.readouterr().err


def test_attack_brute_uses_key_file(tmp_path, capsys):
    # The default --n 8 --N 256 would exceed the enumeration cap (exit 3);
    # the key file's n = 2, N = 4 must be used instead.
    path = tmp_path / "key.json"
    assert main(["keygen", "--n", "2", "--N", "4", "--seed", "5", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["mode2_pairing"] = [2, 1]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["attack", "--kind", "brute", "--key", str(path), "--plaintext", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["n"] == 2 and report["params"]["N"] == 4
    assert report["params"]["enumerated"] == 16
    assert report["counts"]["true_key_found"] == 1


@pytest.mark.parametrize(
    "kind, setting",
    [
        ("rules", ["--grid", "0"]),
        ("rules", ["--grid", "-3"]),
        ("rules", ["--grid", "1"]),
        ("rules", ["--eps", "nan"]),
        ("rules", ["--eps", "inf"]),
        ("rules", ["--eps", "0"]),
        ("diffusion", ["--eps", "nan"]),
        ("diffusion", ["--eps", "inf"]),
        ("diffusion", ["--eps=-1e-6"]),
    ],
)
def test_analyze_rejects_probe_settings_that_see_nothing(keyfile, tmp_path, capsys, kind, setting):
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", kind, "--trials", "2", *setting,
               "--out", str(report)])
    assert rc == 1
    assert not report.exists()
    assert ("grid" if setting[0] == "--grid" else "epsilon") in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, setting, word",
    [
        ("confusion", ["--eps", "nan", "--grid", "-3"], "epsilon"),
        ("confusion", ["--grid", "1"], "grid"),
        ("diffusion", ["--grid", "0"], "grid"),
    ],
)
def test_analyze_checks_eps_and_grid_for_every_kind(keyfile, tmp_path, capsys, kind, setting, word):
    # Every report echoes --eps and --grid; a NaN would make it invalid JSON.
    report = tmp_path / "r.json"
    rc = main(["analyze", "--key", str(keyfile), "--kind", kind, *setting, "--out", str(report)])
    assert rc == 1
    assert not report.exists()
    assert word in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["decrypt", "--key", "{bad}", "--in", "{msg}", "--out", "{out}"],
        ["decrypt", "--key", "{key}", "--in", "{bad}", "--out", "{out}"],
        ["analyze", "--key", "{bad}", "--kind", "confusion", "--out", "{out}"],
    ],
    ids=["decrypt-key", "decrypt-in", "analyze-key"],
)
def test_non_utf8_input_file_exits_1(keyfile, tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    data = tmp_path / "msg.bin"
    data.write_bytes(b"\xaa")
    msg = tmp_path / "t.json"
    assert main(["encrypt", "--key", str(keyfile), "--mode", "m1", "--in", str(data), "--out", str(msg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    paths = {"bad": bad, "key": keyfile, "msg": msg, "out": out}
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err
    assert not out.exists()


# --- decrypt on mutated files --------------------------------------------------


@pytest.fixture(scope="module")
def wire_files(tmp_path_factory):
    """A 4-qubit key and its m1 and m2 files of two blocks (one byte)."""
    root = tmp_path_factory.mktemp("wire")
    key, data = root / "key.json", root / "msg.bin"
    assert main(["keygen", "--n", "4", "--N", "16", "--seed", "11", "--out", str(key)]) == 0
    data.write_bytes(b"\xc5")
    texts = []
    for mode in ("m1", "m2"):
        out = root / f"{mode}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["encrypt", "--key", str(key), "--mode", mode, "--in", str(data),
                         "--out", str(out), "--seed", "5"]) == 0
        texts.append(out.read_text())
    return root, texts


def _oracle_decrypt(key, text):
    """Exit code 0 and the plaintext bytes, or the exit code of the
    CipherError, with the file read by the json.loads oracle."""
    try:
        amps = transmission_from_json_oracle(text)
        obj = json.loads(text)
        mode, n, m = Mode(obj["mode"]), obj["n"], obj["m"]
        if mode is Mode.MEASURED:
            blocks = tuple(CipherBlock(StateVector(n, a), i, "m1") for i, a in enumerate(amps[0::2]))
            t = Transmission(mode, n, m, blocks, tuple(StateVector(n, a) for a in amps[1::2]))
        else:
            t = Transmission(mode, n, m, joint=StateVector(m * n, amps[0]) if m else None)
        plain = decrypt(key, t, _mode_config(key, mode, None))
        return 0, _bits_to_bytes("".join(p.bits for p in plain))
    except IntegrityError:
        return 2, None
    except ResourceError:
        return 3, None
    except CipherError:
        return 1, None


@given(base=st.integers(0, 1), ops=OPS)
@settings(max_examples=150, deadline=None)
def test_decrypt_of_a_mutated_file_exits_as_the_oracle_reads_it(wire_files, base, ops):
    root, texts = wire_files
    text = _mutate(texts[base], ops)
    src, out = root / "t.json", root / "out.bin"
    src.write_text(text)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["decrypt", "--key", str(root / "key.json"), "--in", str(src), "--out", str(out)])
    err = err.getvalue()
    want_code, want_bytes = _oracle_decrypt(key_from_json((root / "key.json").read_text()), text)
    assert code == want_code, (text, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "" and out.read_bytes() == want_bytes
    else:
        assert err.startswith(PREFIXES[code]) and not out.exists(), err


# --- integer options fuzzer --------------------------------------------------
# keygen, keyspace and attack --kind bounds take only integer options. Any
# value from -10 up to 4,000 digits must end in exit 0 or a CipherError exit
# with its README prefix (or, for exit 1, argparse's usage message), never in
# a traceback. --samples and --trials are left out: up to their caps they
# allocate or loop by value.

INT_VALUES = st.one_of(
    st.integers(-10, 40),
    st.integers(41, 20000),
    st.integers(2**62, 2**64),
    st.integers(1, 4000).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
)


@pytest.fixture(scope="module")
def int_out(tmp_path_factory):
    return tmp_path_factory.mktemp("ints") / "key.json"


@given(
    kind=st.sampled_from(["keygen", "keyspace", "bounds"]),
    n=INT_VALUES,
    N=INT_VALUES,
    L=INT_VALUES,
    seed=st.one_of(st.just(0), INT_VALUES),
)
@example(kind="keygen", n=8, N=2**63 + 1, L=10, seed=0)
@example(kind="keyspace", n=2000, N=256, L=10, seed=0)
@example(kind="bounds", n=8, N=256, L=3000, seed=0)
@settings(max_examples=300, deadline=None)
def test_integer_options_exit_with_a_readme_prefix(int_out, kind, n, N, L, seed):
    argv = {
        "keygen": ["keygen", f"--n={n}", f"--N={N}", "--out", str(int_out)],
        "keyspace": ["keyspace", f"--n={n}", f"--N={N}"],
        "bounds": ["attack", "--kind", "bounds", f"--n={n}", f"--L={L}"],
    }[kind] + [f"--seed={seed}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        usage = code == 1 and err.startswith(f"qcipher {argv[0]}: ")
        assert usage or err.startswith(PREFIXES[code]), (argv[:3], code, err[:200])
