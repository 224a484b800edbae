"""Command-line surface: JSON output, exit codes, file outputs, self-tests."""

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wfact import cli, factorizations, groups
from wfact.cli import main
from wfact.factorizations import (
    KEY_CACHE_SIZE,
    WINDOW_GUARD,
    lead_coeff,
    phi_data,
    series_window,
)
from wfact.fixtures import TABLE1, default_fixture_path, load_phi_fixtures
from wfact.groups import (
    Element,
    GroupParams,
    all_elements,
    conjugate,
    cycle_data,
    element_to_json,
)
from wfact.laurent import LaurentPoly
from wfact.oracle import class_representatives
from wfact.roots import RootFindingError


def laurent_of(doc):
    """The polynomial a ``LaurentPoly.to_json`` dict describes."""
    return LaurentPoly(doc["min_deg"], [Fraction(s) for s in doc["coeffs"]])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- series


def test_series_g222_identity(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "2", "--p", "2", "--n", "2",
        "--cycles", "(1,0),(1,0)",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ell_full"] == 4
    assert doc["lead_coeff"] == "6/1"
    assert doc["window"] == [-2, 2]


def test_series_s3_identity_matches_table_row(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "1", "--p", "1", "--n", "3",
        "--cycles", "(1,0),(1,0),(1,0)",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["laurent"] == TABLE1["A2"].to_json()


def test_series_rank_one_phi(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "6", "--p", "1", "--n", "1", "--cycles", "(1,0)"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["phi"] == LaurentPoly(0, [-2, 2, 3, 2, 1]).to_json()


def test_series_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "3", "--p", "1", "--n", "2",
        "--element", "perm=(2,1); colors=(1,2)",
    )
    assert code == 0
    doc = json.loads(out)
    series = laurent_of(doc["laurent"])
    assert series.to_json() == doc["laurent"]
    counts = series.egf_prefix(doc["ell_full"] + 4)
    assert [c.numerator for c in counts] == doc["egf_prefix"]


def test_series_bad_element_exits_2(capsys):
    code, _, err = run(
        capsys, "series", "--m", "2", "--p", "2", "--n", "2", "--cycles", "(3,0)"
    )
    assert code == 2
    assert "grammar" in err


@pytest.mark.parametrize(
    "m, p, n, flag, text",
    [
        ("2", "1", "2", "--element", "perm=[None,1]; colors=[0,0]"),
        ("2", "1", "2", "--element", "perm=[1,2]; colors=[0,[1]]"),
        ("2", "1", "2", "--cycles", "(2,None)"),
        # Non-integer entries: literal_eval read 2.7 as 2 and True as 1.
        ("2", "1", "2", "--element", "perm=[2.7,1]; colors=[0,0]"),
        ("2", "1", "2", "--element", "perm=[True,2]; colors=[0,0]"),
        ("2", "1", "2", "--element", "perm=['1',2]; colors=[0,0]"),
    ],
)
def test_series_entry_outside_the_grammar_exits_2(capsys, m, p, n, flag, text):
    code, out, err = run(capsys, "series", "--m", m, "--p", p, "--n", n, flag, text)
    assert code == 2
    assert out == ""
    assert "cannot parse element fragment" in err and "element grammar" in err
    assert "Traceback" not in err


def test_series_element_with_a_repeated_key_exits_2(capsys):
    # The last perm used to win silently.
    code, out, err = run(
        capsys, "series", "--m", "1", "--p", "1", "--n", "2",
        "--element", "perm=(1,2); perm=(2,1); colors=(0,0)",
    )
    assert (code, out) == (2, "")
    assert "repeated key 'perm'" in err and "element grammar" in err
    assert "Traceback" not in err


def test_series_reads_a_parenthesised_single_entry_as_a_sequence(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "1", "--p", "1", "--n", "1", "--element", "perm=(1); colors=(0)"
    )
    assert code == 0
    assert json.loads(out)["element"] == {"m": 1, "p": 1, "n": 1, "perm": [1], "colors": [0]}


def test_series_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "series", "--m", "4", "--p", "3", "--n", "2")
    assert code == 2
    assert err


def test_series_identity_default_element(capsys):
    code, out, _ = run(capsys, "series", "--m", "2", "--p", "1", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["element"]["perm"] == [1, 2]
    assert doc["element"]["colors"] == [0, 0]
    assert doc["ell_full"] == 4
    assert doc["lead_coeff"] == "48/1"


def test_series_rank_one_with_p_above_one(capsys):
    code, out, _ = run(
        capsys, "series", "--m", "6", "--p", "2", "--n", "1", "--cycles", "(1,2)",
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["ell_full"], doc["lead_coeff"]) == (1, "1/1")


def _perturb_closed_form(monkeypatch, which):
    """Make the case analysis of `wfact series` return ell + 1 or lead + 1."""
    real = cli.closed_lowest_order

    def perturbed(*key):
        got = list(real(*key))
        got[which] += 1
        return tuple(got)

    monkeypatch.setattr(cli, "closed_lowest_order", perturbed)


@pytest.mark.parametrize("which", [0, 1], ids=["ell", "lead"])
def test_series_consistency_failure_exits_1(capsys, monkeypatch, which):
    _perturb_closed_form(monkeypatch, which)
    code, out, err = run(capsys, "series", "--m", "2", "--p", "1", "--n", "3")
    assert code == 1
    assert "internal consistency failure" in err
    assert out == ""


@pytest.mark.parametrize("prefix_len, code", [(5000, 0), (8000, 2), (80000, 2)])
def test_series_prefix_len_within_int_string_limit(capsys, prefix_len, code):
    # Counts are JSON ints; past 4300 digits Python refuses to print them.
    # The first count past the limit stops the walk, so a long prefix fails
    # at once.
    start = time.perf_counter()
    got, out, err = run(
        capsys, "series", "--m", "2", "--p", "1", "--n", "2",
        "--prefix-len", str(prefix_len),
    )
    assert time.perf_counter() - start < 2
    assert got == code
    if code == 0:
        assert len(json.loads(out)["egf_prefix"]) == prefix_len + 1
    else:
        assert out == ""
        assert f"--prefix-len {prefix_len} " in err and "4300 digits" in err


def test_series_prefix_len_prints_long_counts_without_an_int_string_limit(capsys):
    # A limit of 0 is no limit: a prefix refused under the default prints.
    argv = ("series", "--m", "1000", "--p", "1000", "--n", "2", "--prefix-len", "1440")
    assert run(capsys, *argv)[0] == 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, *argv)
        counts = json.loads(out)["egf_prefix"]
        assert code == 0
        assert len(counts) == 1441
        assert len(str(counts[-1])) > limit
    finally:
        sys.set_int_max_str_digits(limit)


# sha256 of the exact stdout of `wfact series --m M --p P --n N --cycles C`.
SERIES_STDOUT_SHA256 = {
    # p = 1
    ("2", "1", "4", "(2,1),(1,0),(1,0)"):
        "21838e17af07057cb66f014415ca47bd02b2e71f4487f82dae5c43d43e6fc1b9",
    ("3", "1", "3", "(2,1),(1,1)"):
        "907a9b6f45b910b8b64303af224bce650c831583a656878b50020a729d80ad94",
    # 1 < p < m
    ("4", "2", "3", "(2,1),(1,1)"):
        "e9e62fcafd8514c3ce6ee599e6fa06d02a6f3d64c79a48c94764ebbe3b5d9b45",
    ("6", "3", "3", "(1,3),(1,3),(1,0)"):
        "37af26702974673d7e50994121eb1e40128137f62886f733e3a918d456db4ef3",
    # p = m
    ("3", "3", "3", "(3,0)"):
        "a8f06c96476723af3668490e2636ea4d59a40b5e41a8a0a236c5579b1b09f357",
    ("4", "4", "2", "(1,2),(1,2)"):
        "faf9baebb87df80c61341a177861713186767e924796e03b313e22c4f934fef0",
    ("2", "2", "4", "(1,0),(1,0),(1,0),(1,0)"):
        "d6483b30aab68f333e6a861e38f18bfc1892f14ca7c0df5feee488dd993a2f4a",
    # n = 1; the first has phi = -2 + 2X + 3X^2 + 2X^3 + X^4
    ("6", "1", "1", "(1,0)"):
        "b02146987871475da7d5285d9dc17b70124b2d492655c6cce5bf63c6b9737e5a",
    ("4", "1", "1", "(1,2)"):
        "352055beb6c2eb0970e2d6412d38a926f89a9bf5a52c0a767947d3bbf6cf86cb",
    # S_5; most series coefficients here are non-integers, and some are negative
    ("1", "1", "5", "(3,0),(2,0)"):
        "32f42f397756a3b0969a291c4745bfdcf26f1862c77f1cfd4dffb9cc336ebc00",
}


@pytest.mark.parametrize("m, p, n, cycles", list(SERIES_STDOUT_SHA256))
def test_series_stdout_is_byte_identical(capsys, m, p, n, cycles):
    code, out, _ = run(capsys, "series", "--m", m, "--p", p, "--n", n, "--cycles", cycles)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_STDOUT_SHA256[m, p, n, cycles]


def test_series_past_guard_exits_3(capsys):
    code, out, err = run(capsys, "series", "--m", "2", "--p", "1", "--n", "15")
    assert code == 3
    assert "capability limit" in err
    assert out == ""


@pytest.mark.parametrize(
    "m, p, n",
    [
        (1025, 1, 2),  # #R + #A = 4100, the first G(m,1,2) past the guard
        (22, 1, 14),  # 4312
        (23, 23, 14),  # 4186
        (100000, 1, 14),  # 18.2 million: would run for minutes unguarded
    ],
)
def test_series_past_window_guard_exits_3_at_once(capsys, tmp_path, m, p, n):
    params = GroupParams(m, p, n)
    assert params.num_reflections + params.num_hyperplanes > WINDOW_GUARD
    group = ["--m", str(m), "--p", str(p), "--n", str(n)]
    out_file = tmp_path / "x.csv"
    for argv in (
        ["series", *group],
        ["series", *group, "--cycles", f"({n},0)"],
        ["roots", "--phi-from", f"{m},{p},{n}", "--out", str(out_file)],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert f"past the guard {WINDOW_GUARD}" in err
    assert not out_file.exists()


def test_window_guard_admits_the_widest_groups_below_it(capsys):
    # G(1024,1,2) sits exactly at the guard; G(22,11,14) is the widest n = 14
    # group inside it.
    for m, p, n in [(1024, 1, 2), (22, 11, 14)]:
        params = GroupParams(m, p, n)
        assert params.num_reflections + params.num_hyperplanes <= WINDOW_GUARD
        code, out, _ = run(capsys, "series", "--m", str(m), "--p", str(p), "--n", str(n))
        assert code == 0
        assert json.loads(out)["window"] == list(series_window(params))


def test_series_into_a_closed_pipe_exits_0():
    # As in `wfact series ... | head -n 2`: the reader leaves after one line
    # of a 168 KB document, so the write fails with EPIPE.  A reader that
    # stops early is no verification failure (exit 1) and no traceback.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "wfact.cli", "series", "--m", "6", "--p", "2", "--n", "6",
         "--prefix-len", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def _old_series_stdout(params, g, prefix_len=None):
    """`wfact series` stdout as one json.dumps of the whole document."""
    phi, ell, series = phi_data(params, g)
    lead = lead_coeff(params, g)
    lo, hi = series_window(params)
    top = ell + 4 if prefix_len is None else prefix_len
    slopes = [b - a for a, b in zip(phi.coeffs, phi.coeffs[1:])]
    first_fall = next((i for i, s in enumerate(slopes) if s < 0), len(slopes))
    doc = {
        "group": str(params),
        "element": element_to_json(g, params),
        "laurent": series.to_json(),
        "ell_full": ell,
        "lead_coeff": f"{lead.numerator}/{lead.denominator}",
        "phi": phi.to_json(),
        "egf_prefix": [
            q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
            for q in series.egf_prefix(top)
        ],
        "window": [lo, hi],
        "observations": {
            "phi_degree": phi.max_deg,
            "phi_palindromic": phi.coeffs == phi.coeffs[::-1],
            "phi_nonnegative": all(c >= 0 for c in phi.coeffs),
            "phi_unimodal": all(s <= 0 for s in slopes[first_fall:]),
            "window_attained": [series.min_deg == lo, series.max_deg == hi],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _other_conjugate(params, g):
    """Some h g h^-1 other than g, or g itself when g is central."""
    for h in all_elements(params):
        conj = conjugate(g, h, params)
        if conj != g:
            return conj
    return g


def _element_arg(g):
    return f"perm={list(g.perm)}; colors={list(g.colors)}"


# Edge shapes of the written document: a symmetric group (m = 1, every color
# 0), a rank-one group (n = 1, one-entry perm and colors), and groups whose
# series have negative and fractional Laurent coefficients (all of these do).
@pytest.mark.parametrize(
    "m, p, n", [(2, 1, 4), (4, 2, 3), (3, 3, 3), (1, 1, 5), (6, 2, 1), (3, 1, 2)]
)
@pytest.mark.parametrize("prefix_len", [None, 0, 40])
def test_series_stdout_matches_one_dump_of_the_document(capsys, m, p, n, prefix_len):
    # Every class runs twice: once as it comes (a miss unless an earlier
    # class shared its key) and then as another conjugate, which must hit
    # the rendered-body cache at the default prefix and still print its own
    # element.  An explicit prefix is rendered past the cache.
    params = GroupParams(m, p, n)
    cli._series_body.cache_clear()
    extra = [] if prefix_len is None else ["--prefix-len", str(prefix_len)]
    for g in class_representatives(params):
        for element in (g, _other_conjugate(params, g)):
            hits = cli._series_body.cache_info().hits
            code, out, _ = run(
                capsys, "series", "--m", str(m), "--p", str(p), "--n", str(n),
                "--element", _element_arg(element), *extra,
            )
            assert code == 0
            assert out == _old_series_stdout(params, element, prefix_len), element
        if prefix_len is None:
            assert cli._series_body.cache_info().hits == hits + 1
    if prefix_len is not None:
        assert cli._series_body.cache_info().currsize == 0


def test_series_long_prefix_is_one_dump_of_the_document(capsys):
    code, out, _ = run(capsys, "series", "--m", "6", "--p", "2", "--n", "6", "--prefix-len", "400")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert len(json.loads(out)["egf_prefix"]) == 401


def test_series_body_writes_a_fractional_count_as_a_string(monkeypatch):
    # A group's counts are integers, so only a made-up series reaches the
    # "n/d" form of an egf_prefix entry.  The made-up data holds together
    # where the body reads it: the series (X - 2 + X^-1)/6 has the factor
    # (X - 1)**ell with ell = 2, its counts are 0, 0, 1/3, 0, and the count
    # at ell is the lead phi(1) * 2!/#W = 2/6 with phi = 1 and #W = 6.
    series = LaurentPoly(-1, [1, -2, 1], 6)
    phi = LaurentPoly.one()
    monkeypatch.setattr(cli, "phi_data_by_key", lambda key: (phi, 2, series))
    text = "{\n" + cli._series_body.__wrapped__((GroupParams(3, 3, 2),), 3) + "\n}"
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2)
    assert doc["egf_prefix"] == [0, 0, "1/3", 0]
    assert doc["lead_coeff"] == "1/3"
    assert doc["laurent"] == {"min_deg": -1, "coeffs": ["1/6", "-1/3", "1/6"]}


def test_series_body_refuses_a_count_at_ell_other_than_the_lead(monkeypatch):
    # The body writes the counts below ell as 0 without computing them, so
    # the first count it computes must be the lead.
    series = LaurentPoly(-1, [1, -2, 1], 6)
    monkeypatch.setattr(cli, "phi_data_by_key", lambda key: (LaurentPoly.one(), 1, series))
    with pytest.raises(AssertionError, match="not the lead"):
        cli._series_body.__wrapped__((GroupParams(3, 3, 2),), 3)


@pytest.mark.parametrize("mpn", [(4, 2, 4), (3, 3, 4)], ids=str)
def test_series_body_counts_are_the_series_counts(mpn):
    # Every class, at the default prefix length, at 0 and at a length below
    # ell, where every count written is a 0 the body never computes.
    params = GroupParams(*mpn)
    for g in class_representatives(params):
        key = factorizations.series_key(params, g)
        _, ell, series = factorizations.phi_data_by_key(key)
        assert ell >= 2
        for top in (ell + 4, 0, ell - 1):
            doc = json.loads("{\n" + cli._series_body.__wrapped__(key, top) + "\n}")
            assert doc["egf_prefix"] == series.egf_prefix(top), (g, top)
            assert all(type(c) is int for c in doc["egf_prefix"])


@pytest.mark.parametrize("which", [0, 1], ids=["ell", "lead"])
def test_series_consistency_failure_exits_1_on_a_cache_hit(capsys, monkeypatch, which):
    cli._series_body.cache_clear()
    argv = ("series", "--m", "2", "--p", "1", "--n", "3")
    assert run(capsys, *argv)[0] == 0
    assert cli._series_body.cache_info().currsize == 1
    _perturb_closed_form(monkeypatch, which)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "internal consistency failure" in err
    assert out == ""


def test_series_reads_the_cycle_data_once_per_call(capsys, monkeypatch):
    # parse_element validates the element and series_key's cycle_data
    # validates it again; the case analysis then reads the key alone.
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(
        factorizations, "cycle_data", counting("cycle_data", factorizations.cycle_data)
    )
    monkeypatch.setattr(
        groups, "validate_element", counting("validate_element", groups.validate_element)
    )
    cli._series_body.cache_clear()
    factorizations.phi_data_by_key.cache_clear()
    argv = ("series", "--m", "4", "--p", "2", "--n", "6", "--cycles", "(2,1),(3,1),(1,0)")
    for _ in range(2):  # cold, then a cache hit
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == {"cycle_data": 1, "validate_element": 2}


def test_series_prefix_len_past_int_limit_exits_2_with_the_key_cached(capsys):
    cli._series_body.cache_clear()
    argv = ("series", "--m", "2", "--p", "1", "--n", "2")
    assert run(capsys, *argv)[0] == 0
    for _ in range(2):  # the cache keeps no exception
        code, out, err = run(capsys, *argv, "--prefix-len", "8000")
        assert code == 2
        assert out == ""
        assert "--prefix-len 8000" in err and "4300 digits" in err
    assert cli._series_body.cache_info().currsize == 1


def test_series_explicit_prefixes_leave_the_body_cache_alone(capsys):
    # More explicit prefixes than the cache has entries: none is cached.
    cli._series_body.cache_clear()
    argv = ("series", "--m", "2", "--p", "1", "--n", "2")
    assert run(capsys, *argv)[0] == 0
    before = cli._series_body.cache_info()
    for prefix_len in range(300):
        assert run(capsys, *argv, "--prefix-len", str(prefix_len))[0] == 0
    after = cli._series_body.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses) == (1, 1)


def test_series_body_cache_stays_at_its_bound(capsys):
    cli._series_body.cache_clear()
    for m in range(1, KEY_CACHE_SIZE + 11):  # one key per group G(m,1,1)
        assert run(capsys, "series", "--m", str(m), "--p", "1", "--n", "1")[0] == 0
    info = cli._series_body.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (
        KEY_CACHE_SIZE, KEY_CACHE_SIZE, KEY_CACHE_SIZE + 10,
    )


# ---------------------------------------------------------------- oracle-verify


def test_oracle_verify_all_classes(capsys):
    for m, p, n in [(2, 1, 2), (3, 3, 2)]:
        code, out, err = run(
            capsys, "oracle-verify", "--m", str(m), "--p", str(p), "--n", str(n)
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"
        assert "verified" in err


def test_oracle_verify_single_element(capsys):
    code, out, _ = run(
        capsys, "oracle-verify", "--m", "2", "--p", "2", "--n", "2",
        "--cycles", "(2,0)", "--max-len", "6",
    )
    assert code == 0
    assert json.loads(out)["elements"] == 1


def test_oracle_verify_corrupt_hook(capsys):
    code, _, err = run(
        capsys, "oracle-verify", "--m", "2", "--p", "1", "--n", "2",
        "--self-test-corrupt",
    )
    assert code == 1
    assert "MISMATCH" in err
    assert "length=" in err and "expected=" in err and "got=" in err


def test_oracle_verify_corrupt_hook_below_full_length(capsys):
    # --max-len 0 is below the identity's full length 4: the hook corrupts
    # the last count it checks.
    code, _, err = run(
        capsys, "oracle-verify", "--m", "2", "--p", "1", "--n", "2",
        "--max-len", "0", "--self-test-corrupt",
    )
    assert code == 1
    assert "MISMATCH" in err and "length=0" in err


def test_oracle_verify_capability_cap(capsys):
    # G(4000,1,1) has 1.6e7 table cells, far past the table guard.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "oracle-verify", "--m", "4000", "--p", "1", "--n", "1", "--max-len", "0"
    )
    assert (code, out) == (3, "")
    assert "past the guard" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--m", "5000", "--p", "1", "--n", "1"),
        ("--m", "1000", "--p", "1", "--n", "1"),
        ("--m", "2", "--p", "1", "--n", "3", "--max-len", "20000"),
        ("--m", "1", "--p", "1", "--n", "171"),
        ("--m", "2", "--p", "1", "--n", "2", "--max-len", "1" + "0" * 200),
        ("--m", "1", "--p", "1", "--n", "1000000"),
    ],
    ids=["G(5000,1,1)", "G(1000,1,1)", "max-len-20000", "S171", "max-len-1e200", "S1e6"],
)
def test_oracle_verify_past_a_size_guard_exits_3_at_once(capsys, argv):
    # G(5000,1,1) and G(1000,1,1) meet the table guard when their classes
    # are listed; G(2,1,3) passes it and meets the walk guard.  171! and a
    # walk to length 1e200 pass a float's range, and 10**6! is refused on
    # n alone, before the order of the group is computed.
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle-verify", *argv)
    assert (code, out) == (3, "")
    assert "capability limit" in err
    assert time.perf_counter() - start < 1


def test_oracle_verify_negative_max_len(capsys):
    code, out, err = run(
        capsys, "oracle-verify", "--m", "2", "--p", "2", "--n", "2", "--max-len", "-1"
    )
    assert (code, out) == (2, "")
    assert "--max-len must be nonnegative" in err


# ---------------------------------------------------------------- roots


def test_roots_g2_csv(capsys, tmp_path):
    out_file = tmp_path / "g2.csv"
    code, _, err = run(capsys, "roots", "--fixture", "G2", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 8
    for re, im in rows:  # closed under conjugation
        assert any(
            abs(re - re2) < 1e-8 and abs(im + im2) < 1e-8 for re2, im2 in rows
        )


def test_roots_h3_row_count(capsys, tmp_path):
    out_file = tmp_path / "h3.csv"
    code, _, _ = run(capsys, "roots", "--fixture", "H3", "--out", str(out_file))
    assert code == 0
    assert len(out_file.read_text().strip().splitlines()) == 25  # header + 24


def test_roots_sn_sweep(capsys, tmp_path):
    out_file = tmp_path / "sn.csv"
    code, _, _ = run(capsys, "roots", "--sn-sweep", "10", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "label,re,im"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"4", "6", "8", "10"}  # degree-2 core is constant: no roots


def test_roots_sn_sweep_guard(capsys, tmp_path):
    # S_16 does not certify, so a sweep past FULL_GUARD is refused
    # before any core is built; the largest one allowed still succeeds.
    out_file = tmp_path / "sn.csv"
    code, _, err = run(capsys, "roots", "--sn-sweep", "16", "--out", str(out_file))
    assert code == 3
    assert "capability limit" in err
    assert not out_file.exists()
    code, _, err = run(capsys, "roots", "--sn-sweep", "14", "--out", str(out_file))
    assert code == 0, err
    labels = {line.split(",")[0] for line in out_file.read_text().splitlines()[1:]}
    assert labels == {"4", "6", "8", "10", "12", "14"}


def test_roots_phi_from_with_repeated_roots(capsys, tmp_path):
    # This core of G(2,1,7) has X = -1 as a root of multiplicity 12 and each
    # primitive 7th root of unity as a double root.
    out_file = tmp_path / "w.csv"
    code, _, err = run(
        capsys, "roots", "--phi-from", "2,1,7",
        "--cycles", "(1,0),(1,0),(1,0),(1,1),(1,1),(1,1),(1,1)",
        "--out", str(out_file),
    )
    assert code == 0, err
    rows = out_file.read_text().strip().splitlines()[1:]
    assert len(rows) == 84
    assert rows.count("-1,0") == 12
    roots = [complex(*map(float, row.split(","))) for row in rows]
    for k in range(1, 7):
        zeta = cmath.exp(2j * cmath.pi * k / 7)
        assert sum(abs(r - zeta) < 1e-10 for r in roots) == 2, k


def test_roots_user_fixture_with_repeated_roots(capsys, tmp_path):
    # (X^2 + X + 1)^2: each primitive cube root of unity twice.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("name=C3SQ; lowest=0; coeffs=1,2,3,2,1\n")
    out_file = tmp_path / "c3sq.csv"
    code, _, err = run(
        capsys, "roots", "--fixtures", str(fixtures), "--fixture", "C3SQ",
        "--out", str(out_file),
    )
    assert code == 0, err
    rows = out_file.read_text().strip().splitlines()[1:]
    assert len(rows) == 4
    assert len(set(rows)) == 2
    for row in rows:
        re, im = map(float, row.split(","))
        assert abs(complex(re, im) ** 3 - 1) < 1e-10  # 12 printed digits


def test_roots_coefficient_beyond_double_range_exits_cleanly(tmp_path):
    # 10**400 does not fit in a double: a clean refusal, not a traceback.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text(f"name=BIG; lowest=0; coeffs={10**400},0,1\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "wfact.cli", "roots", "--fixtures", str(fixtures),
         "--fixture", "BIG", "--out", str(tmp_path / "big.csv")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode in (1, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "big.csv").exists()


def test_roots_user_fixture_with_a_negative_lowest_is_a_bad_fixture_file(capsys, tmp_path):
    # A core polynomial has no negative powers: refused at load, exit 2.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("name=OK; lowest=0; coeffs=1,1\nname=X; lowest=-1; coeffs=1,2,1\n")
    code, out, err = run(
        capsys, "roots", "--fixtures", str(fixtures), "--fixture", "X",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert "bad fixture file: line 2" in err
    assert not (tmp_path / "x.csv").exists()


def test_roots_user_fixture_with_a_repeated_key_is_a_bad_fixture_file(capsys, tmp_path):
    # The second coeffs= used to win silently.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("name=X; lowest=0; coeffs=1,2,1; coeffs=1,1\n")
    code, out, err = run(
        capsys, "roots", "--fixtures", str(fixtures), "--fixture", "X",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert "bad fixture file: line 1: repeated key 'coeffs'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("lowest", [3_000_000, 10**30])
def test_roots_core_past_the_window_guard_exits_3_at_once(capsys, tmp_path, lowest):
    # Every core wfact computes has degree at most #R + #A <= WINDOW_GUARD; a
    # fixture past it took seconds and hundreds of MB, or overflowed.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text(f"name=X; lowest={lowest}; coeffs=1,0,1\n")
    out_file = tmp_path / "x.csv"
    start = time.perf_counter()
    code, out, err = run(
        capsys, "roots", "--fixtures", str(fixtures), "--fixture", "X", "--out", str(out_file)
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert f"past {WINDOW_GUARD}" in err
    assert not out_file.exists()


def test_roots_svg(capsys, tmp_path):
    out_file = tmp_path / "g2.svg"
    code, _, _ = run(capsys, "roots", "--fixture", "G2", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg")
    assert text.count("<circle") == 9  # 8 roots + the unit-circle guide


def test_roots_svg_escapes_its_labels(capsys, tmp_path):
    # A user fixture's name is the plot's title text, so it is XML-escaped.
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("name=A&B<1>; lowest=0; coeffs=1,1,1\n")
    out_file = tmp_path / "ab.svg"
    code, _, err = run(
        capsys, "roots", "--fixtures", str(fixtures), "--fixture", "A&B<1>",
        "--out", str(out_file),
    )
    assert code == 0, err
    svg = ElementTree.parse(out_file).getroot()
    titles = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}title")]
    assert titles == ["A&B<1>"]


def test_roots_phi_from(capsys, tmp_path):
    out_file = tmp_path / "direct.csv"
    code, _, _ = run(
        capsys, "roots", "--phi-from", "6,6,2", "--out", str(out_file)
    )
    assert code == 0
    assert len(out_file.read_text().strip().splitlines()) == 9


@pytest.mark.parametrize("phi_from", ["2,1,1", "1,1,2"])
def test_roots_constant_core_writes_no_rows(capsys, tmp_path, phi_from):
    out_file = tmp_path / "x.csv"
    code, _, err = run(capsys, "roots", "--phi-from", phi_from, "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "re,im\n"
    assert "wrote 0 root(s)" in err


def test_roots_phi_from_bad_params_exits_2_like_series(capsys, tmp_path):
    out_file = tmp_path / "x.csv"
    code, _, err = run(capsys, "roots", "--phi-from", "4,3,2", "--out", str(out_file))
    assert code == 2
    assert err == run(capsys, "series", "--m", "4", "--p", "3", "--n", "2")[2]
    assert not out_file.exists()


def test_roots_csv_orders_conjugates_by_printed_value(capsys, monkeypatch, tmp_path):
    # The real parts agree to 12 digits; the printed rows sort as equal there,
    # so the negative imaginary part comes first.
    monkeypatch.setattr(
        cli, "find_roots", lambda poly: [0.5 + 1j, complex(0.5 + 2**-53, -1)]
    )
    out_file = tmp_path / "x.csv"
    code, _, _ = run(capsys, "roots", "--fixture", "G2", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text() == "re,im\n0.5,-1\n0.5,1\n"


def test_roots_unknown_fixture(capsys, tmp_path):
    code, _, err = run(
        capsys, "roots", "--fixture", "NOPE", "--out", str(tmp_path / "x.csv")
    )
    assert code == 2
    assert "unknown fixture" in err


def test_roots_selector_conflict(capsys, tmp_path):
    code, _, err = _exit(
        capsys, ["roots", "--fixture", "G2", "--sn-sweep", "4", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert err.startswith("usage: wfact roots")


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--out", "{out}"],
        ["series", "--m", "2", "--p", "1", "--n", "2", "--cycles", "(2,0)",
         "--element", "perm=(2,1); colors=(0,0)"],
        ["oracle-verify", "--m", "2", "--p", "1", "--n", "2", "--cycles", "(2,0)",
         "--element", "perm=(2,1); colors=(0,0)"],
        ["roots", "--phi-from", "2,1,2", "--cycles", "(2,0)",
         "--element", "perm=(2,1); colors=(0,0)", "--out", "{out}"],
    ],
)
def test_flag_exclusivity_exits_2_under_the_command_usage(capsys, tmp_path, argv):
    # argparse enforces exactly one roots selector and at most one of
    # --cycles and --element, under the subcommand's usage.
    out_file = tmp_path / "x.csv"
    code, out, err = _exit(capsys, [arg.format(out=out_file) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: wfact {argv[0]}")
    assert "Traceback" not in err
    assert not out_file.exists()


@pytest.mark.parametrize("selector", [("--sn-sweep", "4"), ("--fixture", "G2")])
@pytest.mark.parametrize("flag, value", [("--element", "garbage"), ("--cycles", "(1,0)")])
def test_roots_element_flags_without_phi_from_exit_2(capsys, tmp_path, selector, flag, value):
    out_file = tmp_path / "x.csv"
    code, _, err = run(capsys, "roots", *selector, flag, value, "--out", str(out_file))
    assert code == 2
    assert f"{flag} applies only with --phi-from" in err
    assert not out_file.exists()


def test_roots_failure_exits_1(capsys, monkeypatch, tmp_path):
    def fail(poly):
        raise RootFindingError("no convergence", [])

    monkeypatch.setattr(cli, "find_roots", fail)
    code, _, err = run(
        capsys, "roots", "--fixture", "G2", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert "root finding failed" in err


# ---------------------------------------------------------------- fixtures-check


def test_fixtures_check_clean(capsys):
    code, out, err = run(capsys, "fixtures-check")
    assert code == 0
    assert json.loads(out) == {"status": "ok", "failures": []}
    assert err.count("PASS") == 8
    assert "FAIL" not in err


def test_bundled_fixtures_load_to_the_same_seven_records():
    # The reader's grammar must not change what the bundled file holds: a
    # digest of every record's name, lowest power, numerators and denominator.
    records = sorted(
        (name, poly.min_deg, poly.numers, poly.denom) for name, poly in load_phi_fixtures().items()
    )
    assert [name for name, *_ in records] == ["E6", "E7", "E8", "F4", "G2", "H3", "H4"]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "17f5f64db273e02755ba8e6cef1a911f7c21eb466c034ac76abbc3fa588dd494"
    )


def test_fixture_records_skip_empty_fields(tmp_path):
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text("; name=X;; lowest=0 ; coeffs=1, 2 ,1;\n")
    assert load_phi_fixtures(fixtures) == {"X": LaurentPoly(0, [1, 2, 1])}


def test_bundled_fixtures_load_from_a_zipped_package(tmp_path):
    # Imported from a zip archive, the package's data file has no filesystem
    # path; the commands that read it must still run.
    archive = tmp_path / "wfact.zip"
    package = Path(cli.__file__).resolve().parent
    subprocess.run(
        [sys.executable, "-m", "zipfile", "-c", str(archive), str(package)], check=True
    )
    env = {**os.environ, "PYTHONPATH": str(archive)}
    csv = tmp_path / "g2.csv"
    for argv in (["fixtures-check"], ["roots", "--fixture", "G2", "--out", str(csv)]):
        proc = subprocess.run(
            [sys.executable, "-m", "wfact.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
    assert len(csv.read_text().splitlines()) == 9  # header and G2's 8 roots


def test_fixtures_check_flipped_coefficient(capsys, tmp_path):
    source = default_fixture_path().read_text()
    lines = source.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("name=G2"):
            head, _, coeffs = line.rpartition("=")
            values = coeffs.split(",")
            values[1] = str(int(values[1]) + 1)
            lines[i] = head + "=" + ",".join(values)
    bad = tmp_path / "bad_fixtures.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "fixtures-check", "--fixtures", str(bad))
    assert code == 1
    assert json.loads(out)["failures"] == ["G2"]
    assert "FAIL G2" in err


def test_fixtures_check_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "fixtures-check", "--fixtures", str(tmp_path / "absent.txt")
    )
    assert code == 2
    assert "not found" in err


def test_fixtures_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "garbled.txt"
    bad.write_text("name=G2; lowest=0\n")  # missing coeffs field
    code, _, err = run(capsys, "fixtures-check", "--fixtures", str(bad))
    assert code == 2
    assert "line 1" in err


# ---------------------------------------------------------------- exit-code contract


class _Overran(Exception):
    pass


def _raise_overran(signum, frame):
    raise _Overran


def _contract_run(argv, seconds=20.0):
    """(exit code, stderr) of main(argv), with a SIGALRM time limit.

    In process, an exception escaping main is what would print a Traceback;
    argparse's own errors arrive as SystemExit.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except _Overran:
        pytest.fail(f"{argv} ran past {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _check_contract(argv):
    code, err = _contract_run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


_GARBAGE = st.sampled_from(["", "x", "1.5", "1e3", "(", "-", "--", "0x10", " 2", "+3"])
_BAD_INT = st.one_of(st.integers(-3, 0).map(str), _GARBAGE)


def _sometimes(draw, odds=6):
    """True about once in ``odds`` draws: spoil or drop this part.

    Shrinking moves towards the first entry, False, the unspoiled argv.
    """
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


@st.composite
def _group_and_element(draw, max_m, max_n):
    """[m, p, n] as text, and element flags: mostly valid, some spoiled."""
    m = draw(st.integers(1, max_m))
    p = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    n = draw(st.integers(1, max_n))
    group = [str(m), str(p), str(n)]
    for i in range(3):
        if _sometimes(draw):
            group[i] = draw(st.one_of(_BAD_INT, st.integers(1, 9).map(str)))
    if _sometimes(draw, 10):
        group[0] = draw(st.sampled_from(["1024", "1025", "100000"]))
    perm = draw(st.permutations(range(1, n + 1)))
    colors = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    colors[-1] = (colors[-1] - sum(colors) % p) % m  # p | m: the sum is now 0 mod p
    element = Element(tuple(perm), tuple(colors))
    if _sometimes(draw, 3):
        return group, []
    if draw(st.booleans()):
        text = "perm=({}); colors=({})".format(
            ",".join(map(str, perm)), ",".join(map(str, colors))
        )
        if _sometimes(draw):
            text = draw(st.one_of(_GARBAGE, st.text(max_size=8)))
        return group, ["--element", text]
    data = cycle_data(element, GroupParams(m, p, n))
    pairs = list(zip(data.lengths, data.cycle_colors))
    if _sometimes(draw):
        pairs[0] = (draw(st.integers(-1, n + 1)), draw(st.integers(-2, m + 1)))
    return group, ["--cycles", ",".join(f"({a},{b})" for a, b in pairs)]


def _group_flags(group, draw):
    flags = []
    for name, value in zip(("--m", "--p", "--n"), group):
        if not _sometimes(draw, 12):
            flags += [name, value]
    return flags


def _int_flag(draw, name, low, high):
    if _sometimes(draw, 4):
        return []
    value = draw(st.integers(low, high).map(str))
    if _sometimes(draw):
        value = draw(_GARBAGE)
    return [name, value]


_CONTRACT = settings(
    deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def _series_argv(draw):
    group, element = draw(_group_and_element(8, 15))
    return (
        ["series"] + _group_flags(group, draw) + element
        + _int_flag(draw, "--prefix-len", -3, 40)
    )


@_CONTRACT
@given(_series_argv())
@example(["series", "--m", "2", "--p", "1", "--n", "2", "--element", "perm=[None,1]; colors=[0,0]"])
@example(["series", "--m", "2", "--p", "1", "--n", "2", "--element", "perm=[1,2]; colors=[0,[1]]"])
@example(["series", "--m", "2", "--p", "1", "--n", "2", "--cycles", "(2,None)"])
@example(["series", "--m", "٣", "--p", "1", "--n", "2"])
@example(["series", "--m", "1_0", "--p", "1", "--n", "2"])
def test_series_exit_code_contract(argv):
    _check_contract(argv)


@st.composite
def _oracle_verify_argv(draw):
    group, element = draw(_group_and_element(4, 4))
    return (
        ["oracle-verify"] + _group_flags(group, draw) + element
        + _int_flag(draw, "--max-len", -3, 12)
    )


@_CONTRACT
@given(_oracle_verify_argv())
@example(["oracle-verify", "--m", "1", "--p", "1", "--n", "171"])
@example(["oracle-verify", "--m", "2", "--p", "1", "--n", "2", "--max-len", "1" + "0" * 200])
@example(["oracle-verify", "--m", "2", "--p", "1", "--n", "2", "--max-len", "١_0"])
def test_oracle_verify_exit_code_contract(argv):
    _check_contract(argv)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@st.composite
def _roots_argv(draw):
    argv = ["roots"]
    choices = [draw(st.sampled_from(["fixture", "phi", "sweep"]))]
    if _sometimes(draw, 8):
        choices = draw(st.lists(st.sampled_from(["fixture", "phi", "sweep"])))
    for choice in choices:
        if choice == "fixture":
            name = draw(st.sampled_from(["G2", "H3", "F4", "E6", "nope", ""]))
            argv += ["--fixture", name]
        elif choice == "phi":
            group, element = draw(_group_and_element(6, 4))
            text = ",".join(group)
            if _sometimes(draw):
                text = draw(st.one_of(_GARBAGE, st.sampled_from(["2,1", "a,b,c"])))
            argv += ["--phi-from", text] + element
        else:
            argv += _int_flag(draw, "--sn-sweep", -1, 16)
    if not _sometimes(draw, 10):
        name = draw(st.sampled_from(["r.csv", "r.svg", "r.txt", "absent/r.csv", "."]))
        argv += ["--out", name]
    return argv


@_CONTRACT
@given(_roots_argv())
@example(["roots", "--fixture", "G2", "--out", "."])
@example(["roots", "--fixture", "G2", "--out", "absent/r.csv"])
@example(["roots", "--phi-from", "٤,2,3", "--out", "r.csv"])
@example(["roots", "--sn-sweep", "1_0", "--out", "r.csv"])
def test_roots_exit_code_contract(contract_dir, argv):
    # --out names a file in contract_dir, or the directory itself.
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(contract_dir / argv[at])
    _check_contract(argv)


@_CONTRACT
@given(
    st.one_of(
        st.none(),
        st.sampled_from(["absent.txt", "."]).map(lambda name: (name, None)),
        st.text(max_size=40).map(lambda body: ("fixtures.txt", body)),
    )
)
def test_fixtures_check_exit_code_contract(contract_dir, fixtures):
    argv = ["fixtures-check"]
    if fixtures is not None:
        name, body = fixtures
        if body is not None:
            (contract_dir / name).write_text(body)
        argv += ["--fixtures", str(contract_dir / name)]
    _check_contract(argv)


# ---------------------------------------------------------------- argument parsing


def _valid_argvs(tmp_path):
    """One or more argvs that exit 0, for each of the four subcommands."""
    return [
        ["series", "--m", "4", "--p", "2", "--n", "3", "--cycles", "(2,1),(1,1)",
         "--prefix-len", "6"],
        ["series", "--m", "3", "--p", "1", "--n", "2", "--element", "perm=(2,1); colors=(1,2)"],
        ["series", "--m=2", "--p=1", "--n=2"],
        ["oracle-verify", "--m", "2", "--p", "1", "--n", "2", "--max-len", "5"],
        ["oracle-verify", "--m", "2", "--p", "2", "--n", "2", "--cycles", "(2,0)"],
        ["roots", "--fixture", "G2", "--out", str(tmp_path / "g2.csv")],
        ["roots", "--phi-from", "6,6,2", "--cycles", "(2,0)", "--out", str(tmp_path / "g.svg")],
        ["roots", "--sn-sweep", "4", "--out", str(tmp_path / "s.csv")],
        ["fixtures-check"],
        ["fixtures-check", "--fixtures", str(default_fixture_path())],
    ]


def test_each_call_parses_its_argv_once(capsys, monkeypatch, tmp_path):
    # The subcommand's own parser reads argv[1:]; the top-level parser, which
    # would hand the same strings on to it, is not run.
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in _valid_argvs(tmp_path):
        parsed.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert parsed == [f"wfact {argv[0]}"], argv


def test_each_call_gets_the_namespace_of_the_top_level_parser(capsys, monkeypatch, tmp_path):
    got = []
    parse_args = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        got.append(parse_args(self, *args, **kwargs))
        return got[-1]

    for argv in _valid_argvs(tmp_path):
        expected = vars(cli.build_parsers()[0].parse_args(argv))
        got.clear()
        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "parse_args", recorded)
            code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert [vars(args) for args in got] == [expected], argv


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of a main call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, stream, head",
    [
        (["-h"], 0, "out", "usage: wfact [-h] {series,"),
        (["series", "-h"], 0, "out", "usage: wfact series [-h] --m M"),
        ([], 2, "err", "usage: wfact [-h] {series,"),
        (["nonsense"], 2, "err", "usage: wfact [-h] {series,"),
        (["series", "--m", "2", "--p", "1"], 2, "err", "usage: wfact series [-h]"),
        # An unknown flag is reported under the usage of its subcommand.
        (["series", "--m", "2", "--p", "1", "--n", "2", "--bogus", "1"], 2, "err",
         "usage: wfact series [-h]"),
    ],
)
def test_argparse_exits_keep_their_codes(capsys, argv, code, stream, head):
    got, out, err = _exit(capsys, argv)
    assert got == code
    assert (out if stream == "out" else err).startswith(head)
    assert "Traceback" not in err


# A fixture record that holds each refused text, as a non-ASCII digit in
# `lowest` and as an underscore among the coefficients.
_REFUSED_RECORDS = {
    "٣": "name=X; lowest=٠; coeffs=1,1",
    "1_0": "name=X; lowest=0; coeffs=1,1_0,١",
}


@pytest.mark.parametrize("text", ["٣", "1_0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--m", "{}", "--p", "1", "--n", "2"],
        ["series", "--m", "30", "--p", "{}", "--n", "2"],
        ["series", "--m", "2", "--p", "1", "--n", "{}"],
        ["series", "--m", "2", "--p", "1", "--n", "2", "--prefix-len", "{}"],
        ["oracle-verify", "--m", "2", "--p", "1", "--n", "2", "--max-len", "{}"],
        ["roots", "--sn-sweep", "{}", "--out", "{out}"],
        ["roots", "--phi-from", "{},1,2", "--out", "{out}"],
        ["roots", "--phi-from", "30,{},2", "--out", "{out}"],
        ["roots", "--phi-from", "4,2,{}", "--out", "{out}"],
        ["roots", "--fixtures", "{fixtures}", "--fixture", "X", "--out", "{out}"],
        ["fixtures-check", "--fixtures", "{fixtures}"],
    ],
)
def test_integer_flags_refuse_what_the_element_grammar_refuses(tmp_path, argv, text):
    # int() alone reads '٣' as 3 and '1_0' as 10, and each argv ran with them;
    # the fixture reader read '٠' as 0 and '1,1_0,١' as 1 + 10X + X^2.
    out_file = tmp_path / "x.csv"
    fixtures = tmp_path / "fixtures.txt"
    fixtures.write_text(_REFUSED_RECORDS[text] + "\n")
    argv_text = [arg.format(text, out=out_file, fixtures=fixtures) for arg in argv]
    code, err = _contract_run(argv_text)
    assert code == 2, (argv_text, err)
    assert "Traceback" not in err
    assert not out_file.exists()
    if "{fixtures}" in argv:
        assert "bad fixture file: line 1" in err


@pytest.mark.parametrize(
    "text, value", [("7", 7), ("+7", 7), ("-7", -7), (" 7", 7), ("\t+7\n", 7), ("007", 7)]
)
def test_integer_flags_take_the_element_grammar_integer(text, value):
    assert cli._integer(text) == value


@pytest.mark.parametrize("text", ["٣", "1_0", "0x10", "1 2", "+-1", "", "1" * 5000])
def test_integer_flag_refusal_reads_as_ints(text):
    with pytest.raises(argparse.ArgumentTypeError, match="^invalid int value: "):
        cli._integer(text)
