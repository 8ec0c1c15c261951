import json
import random

import pytest

from agpir import cli, rates
from agpir import curve as curve_module
from agpir import pir_scheme
from agpir.agcode import DEFAULT_SUBSET_CAP
from agpir.cli import main
from agpir.errors import InconsistentSystem
from agpir.pir_scheme import Database, SchemeParams, build_scheme, check_noise_containment, decode
from agpir.sim_harness import run_retrieval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_points_q43(capsys):
    code, out, _ = run_cli(capsys, "count-points", "--p", "43", "--a", "0", "--b", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 57 and payload["z"] == 0


def test_count_points_q127(capsys):
    code, out, _ = run_cli(capsys, "count-points", "--p", "127", "--a", "1", "--b", "33")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == 150 and payload["z"] == 1


def test_find_curve(capsys):
    code, out, _ = run_cli(capsys, "find-curve", "--p", "43", "--min-points", "57")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] >= 57


def test_build_simulate_verify_genus0(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    code, _, err = run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--seed", "1", "--out", str(scheme),
    )
    assert code == 0 and "rate=3/7" in err
    descriptor = json.loads(scheme.read_text())
    assert descriptor["n"] == 7 and descriptor["curve"] is None

    transcript_path = tmp_path / "transcript.json"
    code, _, err = run_cli(
        capsys,
        "simulate", "--scheme", str(scheme), "--files", "2", "--theta", "2",
        "--seed", "5", "--out", str(transcript_path),
    )
    assert code == 0
    transcript = json.loads(transcript_path.read_text())
    assert transcript["theta"] == 2 and len(transcript["responses"]) == 7

    code, out, _ = run_cli(capsys, "verify", "--scheme", str(scheme), "--exhaustive-oracle")
    assert code == 0
    assert "FAIL" not in out
    lines = out.splitlines()
    assert "PASS  privacy oracle, |I| = T = 2: all 21 subsets" in lines
    assert "PASS  security oracle, |I| = X = 2: all 21 subsets" in lines


def test_build_genus1_auto_l_and_curve(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    code, _, _ = run_cli(
        capsys,
        "build", "--p", "43", "--genus", "1", "--x", "16", "--t", "16",
        "--a", "0", "--b", "9", "--out", str(scheme),
    )
    assert code == 0
    descriptor = json.loads(scheme.read_text())
    assert descriptor["l"] == 7 and descriptor["n"] == 47


def test_build_even_l_decremented(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    code, _, err = run_cli(
        capsys,
        "build", "--p", "13", "--genus", "1", "--x", "1", "--t", "1", "--l", "2",
        "--out", str(scheme),
    )
    assert code == 0 and "odd L" in err
    assert json.loads(scheme.read_text())["l"] == 1


@pytest.mark.parametrize("l", ["0", "-2"])
def test_build_genus1_l_below_one_is_refused_as_given(capsys, l):
    # Only an even L >= 2 is lowered to an odd one; below 1 the user's own L is refused.
    code, out, err = run_cli(
        capsys,
        "build", "--p", "43", "--genus", "1", "--x", "2", "--t", "2", "--a", "0", "--b", "9",
        "--l", l,
    )
    assert (code, out, err) == (2, "", f"error: need at least one fragment per file, got L = {l}\n")


def test_verify_sampled_subsets(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "43", "--genus", "0", "--x", "16", "--t", "16", "--l", "5",
        "--out", str(scheme),
    )
    code, out, _ = run_cli(
        capsys, "verify", "--scheme", str(scheme), "--subsets", "sample:40:3"
    )
    assert code == 0 and "sample" in out


def test_verify_sample_of_more_than_every_subset_runs_them_all(tmp_path, capsys):
    scheme = str(tmp_path / "scheme.json")
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "1", "--t", "1", "--l", "1", "--out", scheme,
    )
    code, out, _ = run_cli(capsys, "verify", "--scheme", scheme, "--subsets", "sample:100:0")
    assert code == 0
    assert "PASS  privacy: 1-subsets independent (all, 3/3)" in out.splitlines()


def servers_where_a_change_is_refused(inst):
    """The servers at which `decode` refuses every change to one honest response.

    Every change d = 1..p-1 to every response is tried; at each server
    either all of them are refused or none is.
    """
    p = inst.p
    db = Database.random(p, 2, inst.l, random.Random(0))
    responses = run_retrieval(inst, db, 1, 0).responses
    refused = set()
    for n in range(inst.n):
        outcomes = set()
        for d in range(1, p):
            bad = list(responses)
            bad[n] = (bad[n] + d) % p
            try:
                decode(inst, bad)
                outcomes.add(False)
            except InconsistentSystem:
                outcomes.add(True)
        assert len(outcomes) == 1
        if True in outcomes:
            refused.add(n)
    return refused


@pytest.mark.parametrize(
    "params, expected",
    [
        (
            SchemeParams(p=13, genus=0, x=2, t=2, l=3),
            "0 checks; a changed response is detected on 0 of 7 servers",
        ),
        (
            SchemeParams(p=13, genus=1, x=1, t=1, l=1),
            "1 check; a changed response is detected on 11 of 11 servers",
        ),
        (
            SchemeParams(p=43, genus=0, x=16, t=16, l=5),
            "0 checks; a changed response is detected on 0 of 37 servers",
        ),
        (
            SchemeParams(p=43, genus=1, x=16, t=16, l=7, curve=(0, 9)),
            "1 check; a changed response is detected on 46 of 47 servers (not on: 2)",
        ),
    ],
    ids=["g0_tiny", "g1_tiny", "g0_q43", "g1_q43"],
)
def test_verify_reports_where_decode_detects_a_changed_response(tmp_path, capsys, params, expected):
    # The line follows the containment line and names the servers it misses
    # only when it detects a change on some server; it never fails `verify`.
    inst = build_scheme(params)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps(pir_scheme.scheme_descriptor(inst)))
    code, out, _ = run_cli(capsys, "verify", "--scheme", str(scheme), "--subsets", "sample:5:0")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2].startswith("PASS  noise containment:")
    assert lines[-1] == f"INFO  decode parity: {expected}"
    refused = servers_where_a_change_is_refused(inst)
    missed = [n for n in range(inst.n) if n not in refused]
    assert f"detected on {len(refused)} of {inst.n} servers" in expected
    tail = f" (not on: {', '.join(map(str, missed))})" if refused and missed else "servers"
    assert expected.endswith(tail)


def test_verify_rejects_tampered_scheme(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    payload = json.loads(scheme.read_text())
    payload["eval_points"][0] = [0, None]
    scheme.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--scheme", str(scheme))
    assert (code, out) == (2, "")
    assert err == "error: descriptor does not match the deterministic rebuild\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("{not json", "is not a JSON scheme descriptor"),
        (b"\xff\xfe", "is not a JSON scheme descriptor"),
        ("[1, 2]", "a scheme descriptor is a JSON object"),
        ('{"p": 13, "genus": 0, "x": 2, "t": 2}', "descriptor has no 'l' entry"),
        ('{"p": 13, "genus": 1, "x": 1, "t": 1, "l": 1, "curve": {"a": 1}}', "has no 'b' entry"),
    ],
)
def test_unusable_descriptor_file_is_a_one_line_error(tmp_path, capsys, command, content, message):
    scheme = tmp_path / "scheme.json"
    if isinstance(content, bytes):
        scheme.write_bytes(content)
    elif content is not None:
        scheme.write_text(content)
    extra = ["--files", "2", "--theta", "1"] if command == "simulate" else []
    code, out, err = run_cli(capsys, command, "--scheme", str(scheme), *extra)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("genus", 5, "genus must be 0 or 1, got 5"),
        ("curve", [1, 2], "'curve' entry is neither null nor an object"),
        ("x", "4", "'x' entry is not an integer"),
    ],
)
def test_bad_descriptor_entry_is_a_one_line_error(tmp_path, capsys, key, value, message):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    payload = json.loads(scheme.read_text())
    payload[key] = value
    scheme.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--scheme", str(scheme))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_inflated_descriptor_is_a_one_line_error(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "43", "--genus", "0", "--x", "16", "--t", "16", "--out", str(scheme),
    )
    payload = json.loads(scheme.read_text())
    payload.update(p=1_000_000_007, l=5001)
    scheme.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--scheme", str(scheme))
    assert (code, out) == (2, "")
    assert err.startswith("error: descriptor 'n' entry 37") and err.count("\n") == 1


def test_count_points_above_the_counting_bound_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr(curve_module, "_chi_table", lambda *_: pytest.fail("table built"))
    code, out, err = run_cli(
        capsys, "count-points", "--p", "1000000007", "--a", "1", "--b", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: refusing to count points over F_1000000007 (cap 2097152)\n"


def test_genus0_build_refuses_curve_coefficients(capsys):
    code, out, err = run_cli(
        capsys,
        "build", "--p", "43", "--genus", "0", "--x", "2", "--t", "2", "--a", "1", "--b", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: genus 0 does not take curve coefficients\n"
    code, out, err = run_cli(
        capsys, "build", "--p", "43", "--genus", "0", "--x", "2", "--t", "2", "--a", "1"
    )
    assert (code, out, err) == (2, "", "error: --a and --b must be given together\n")


def test_genus1_descriptor_without_a_curve_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "43", "--genus", "1", "--x", "2", "--t", "2", "--l", "3",
        "--a", "0", "--b", "9", "--out", str(scheme),
    )
    payload = json.loads(scheme.read_text())
    payload["curve"] = None
    scheme.write_text(json.dumps(payload))
    monkeypatch.setattr(curve_module, "find_curve", lambda *_: pytest.fail("find_curve reached"))
    code, out, err = run_cli(capsys, "verify", "--scheme", str(scheme))
    assert (code, out) == (2, "")
    assert err == "error: a genus-1 descriptor names its curve: 'curve' is null\n"


@pytest.mark.parametrize(
    "levels, message",
    [
        (("--x", "0", "--t", "1"), "security and privacy levels must both be >= 1"),
        (("--x", "40", "--t", "40"), "no feasible L for these parameters"),
    ],
)
def test_bad_build_levels_are_a_one_line_error(capsys, levels, message):
    code, out, err = run_cli(capsys, "build", "--p", "43", "--genus", "0", *levels)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_genus1_build_refuses_bad_levels_before_any_curve_search(capsys, monkeypatch):
    monkeypatch.setattr(curve_module, "find_curve", lambda *_: pytest.fail("find_curve reached"))
    code, out, err = run_cli(capsys, "build", "--p", "1009", "--genus", "1", "--x", "0", "--t", "1")
    assert (code, out) == (2, "")
    assert err == "error: security and privacy levels must both be >= 1, got X = 0, T = 1\n"


def test_exhaustive_oracle_sweep_is_bounded_before_its_first_call(tmp_path, capsys, monkeypatch):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    # Each sweep makes C(7, 2) = 21 calls of L * M * p^2 = 3 * 2 * 169 = 1014 units;
    # one call fits under the cap, the sweep does not.
    monkeypatch.setenv("PIR_AG_MAX_BRUTEFORCE", "5000")
    monkeypatch.setattr(cli, "exhaustive_privacy_oracle", lambda *_, **__: pytest.fail("called"))
    monkeypatch.setattr(cli, "exhaustive_security_oracle", lambda *_: pytest.fail("called"))
    code, out, _ = run_cli(capsys, "verify", "--scheme", str(scheme), "--exhaustive-oracle")
    assert code == 0
    lines = out.splitlines()
    cap = "21294 noise assignments exceeds the enumeration cap 5000"
    assert f"SKIP  privacy oracle, |I| = T = 2: 21 subsets: {cap}" in lines
    assert f"SKIP  security oracle, |I| = X = 2: 21 subsets: {cap}" in lines


def verify_tiny(tmp_path, capsys, *extra):
    """Exit code and lines of `agpir verify` on the q=13 genus-0 X=T=2 L=3 scheme.

    Checks the exit rule on the way: 1 exactly when a printed line starts with FAIL.
    """
    scheme = str(tmp_path / "scheme.json")
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3", "--out", scheme,
    )
    code, out, _ = run_cli(capsys, "verify", "--scheme", scheme, *extra)
    lines = out.splitlines()
    assert code == int(any(line.startswith("FAIL") for line in lines))
    return code, lines


def test_verify_exits_1_on_one_failed_containment_verdict(tmp_path, capsys, monkeypatch):
    # The CLI counts the verdicts and builds labels only to name the first failure.
    real, outside = cli.noise_containment_verdicts, []

    def one_outside(inst):
        outside.append(check_noise_containment(inst)[3][0])
        return [ok and i != 3 for i, ok in enumerate(real(inst))]

    monkeypatch.setattr(cli, "noise_containment_verdicts", one_outside)
    code, lines = verify_tiny(tmp_path, capsys)
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1 and len(outside) == 1
    assert failed == [
        f"FAIL  noise containment: 20 products inside the noise bound (first failure {outside[0]})"
    ]


def test_verify_counts_containment_verdicts_without_labels(tmp_path, capsys, monkeypatch):
    # Every product lies inside the bound, so no label is built for the line.
    def refused(inst):
        raise AssertionError("labels built for a passing containment check")

    monkeypatch.setattr(cli, "noise_labels", refused)
    code, lines = verify_tiny(tmp_path, capsys)
    assert code == 0
    assert "PASS  noise containment: 20 products inside the noise bound" in lines


def test_verify_exits_1_on_an_oracle_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "exhaustive_privacy_oracle", lambda inst, s, *_, **__: s != (0, 1))
    code, lines = verify_tiny(tmp_path, capsys, "--exhaustive-oracle")
    failed = [line for line in lines if line.startswith("FAIL")]
    assert code == 1
    assert failed == ["FAIL  privacy oracle, |I| = T = 2: all 21 subsets (first failure (0, 1))"]
    assert "PASS  security oracle, |I| = X = 2: all 21 subsets" in lines


def test_sweep_cli(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "127", "--xt-min", "24", "--xt-max", "28",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "crossover_xt=26" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0].startswith("q,genus,X,T,L,N")
    assert len(lines) == 11


def test_simulate_is_deterministic(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    t1 = tmp_path / "t1.json"
    t2 = tmp_path / "t2.json"
    for out in (t1, t2):
        run_cli(
            capsys,
            "simulate", "--scheme", str(scheme), "--files", "3", "--theta", "1",
            "--seed", "9", "--out", str(out),
        )
    assert t1.read_bytes() == t2.read_bytes()


class DatabaseDrawn(Exception):
    pass


def _refuse_draws(*_):
    raise DatabaseDrawn


@pytest.mark.parametrize(
    "files, message",
    [
        ("0", "error: --files must be at least 1, got 0\n"),
        ("-3", "error: --files must be at least 1, got -3\n"),
        # L * N = 21 symbols per file, and 99864 files are the most under the cap.
        ("99865", "error: refusing a share table of L * M * N = 2097165 symbols (cap 2097152)\n"),
        ("10000000000", "error: refusing a share table of L * M * N = 210000000000 symbols"
         " (cap 2097152)\n"),
    ],
)
def test_simulate_refuses_a_file_count_out_of_bounds(tmp_path, capsys, monkeypatch, files, message):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    monkeypatch.setattr(pir_scheme.Database, "random", _refuse_draws)
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", str(scheme), "--files", files, "--theta", "1"
    )
    assert (code, out, err) == (2, "", message)
    with pytest.raises(DatabaseDrawn):
        main(["simulate", "--scheme", str(scheme), "--files", "99864", "--theta", "1"])


@pytest.mark.parametrize("theta", ["0", "4", "-1"])
def test_simulate_refuses_a_bad_theta_before_the_draw(tmp_path, capsys, monkeypatch, theta):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    monkeypatch.setattr(pir_scheme.Database, "random", _refuse_draws)
    code, out, err = run_cli(
        capsys, "simulate", "--scheme", str(scheme), "--files", "3", "--theta", theta
    )
    assert (code, out, err) == (2, "", f"error: theta must be in 1..3, got {theta}\n")


@pytest.mark.parametrize("spec", ["sample:x:0", "bogus", "sample:-5:0", "sample:0:3"])
def test_verify_rejects_a_bad_subsets_spec(tmp_path, capsys, spec):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scheme", str(tmp_path / "scheme.json"), "--subsets", spec])
    assert exc.value.code == 2
    assert "COUNT >= 1" in capsys.readouterr().err


class SchemeLoaded(Exception):
    pass


def _refuse_load(*_):
    raise SchemeLoaded


def test_verify_refuses_a_sample_count_above_the_subset_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_scheme", _refuse_load)
    scheme = str(tmp_path / "scheme.json")
    spec = f"sample:{DEFAULT_SUBSET_CAP + 1}:0"
    code, out, err = run_cli(capsys, "verify", "--scheme", scheme, "--subsets", spec)
    assert (code, out) == (2, "")
    assert err == (
        f"error: refusing --subsets sample COUNT = {DEFAULT_SUBSET_CAP + 1}"
        f" (cap {DEFAULT_SUBSET_CAP})\n"
    )
    # A count at the cap passes the bound and goes on to load the scheme.
    with pytest.raises(SchemeLoaded):
        main(["verify", "--scheme", scheme, "--subsets", f"sample:{DEFAULT_SUBSET_CAP}:0"])


@pytest.mark.parametrize("xt_min, xt_max", [("0", "5"), ("6", "5")])
def test_sweep_refuses_an_empty_range(capsys, xt_min, xt_max):
    code, out, err = run_cli(
        capsys, "sweep", "--p", "127", "--xt-min", xt_min, "--xt-max", xt_max
    )
    assert (code, out) == (2, "")
    assert err == f"error: need 1 <= xt_min <= xt_max, got {xt_min} and {xt_max}\n"


class SweepRun(Exception):
    pass


def _refuse_sweep(*_):
    raise SweepRun


def test_sweep_refuses_an_xt_max_above_q(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sweep", _refuse_sweep)
    for xt_max in ("14", "1000000000000"):
        code, out, err = run_cli(capsys, "sweep", "--p", "13", "--xt-min", "1", "--xt-max", xt_max)
        assert (code, out, err) == (2, "", f"error: refusing --xt-max = {xt_max} (cap 13)\n")
    with pytest.raises(SweepRun):
        main(["sweep", "--p", "13", "--xt-min", "1", "--xt-max", "13"])
    # The cap loses no row: at X = T = q neither genus is feasible.
    for q in (13, 43, 127):
        assert not any(row.feasible for row in rates.sweep(q, q, q).rows)


def test_package_error_is_a_one_line_message(capsys):
    code, out, err = run_cli(
        capsys, "build", "--p", "44", "--genus", "0", "--x", "2", "--t", "2", "--l", "3"
    )
    assert (code, out, err) == (2, "", "error: 44 is not a prime modulus\n")


def test_verify_reports_a_descriptor_that_cannot_be_rebuilt(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    run_cli(
        capsys,
        "build", "--p", "13", "--genus", "0", "--x", "2", "--t", "2", "--l", "3",
        "--out", str(scheme),
    )
    payload = json.loads(scheme.read_text())
    payload["x"] = 6  # 2L + X + T + 1 = 15 > q + 1 = 14
    payload["n"] = 11  # keep N = L + X + T and its point list consistent with the new X
    payload["eval_points"] += [[x, None] for x in range(10, 14)]
    scheme.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", "--scheme", str(scheme))
    assert code == 2 and out == ""
    assert err.startswith("error: genus 0 needs q + 1 >= 2L + X + T + 1") and err.count("\n") == 1
