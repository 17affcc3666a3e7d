import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from superschur import (
    ChannelSpecError,
    channels,
    cli,
    combinatorics,
    example_channel,
    liouville,
    schur,
    super_schur_basis,
)
from superschur.cli import main, write_basis_file
from superschur.schur import SuperSchurBasis


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_report(path):
    """An --out report, parsed as strict JSON: NaN and Infinity fail."""
    return json.loads(Path(path).read_text(), parse_constant=refuse_constant)


def matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def builder_doc(path, name, kind, n=3, **params):
    return write_doc(
        path, {"d": 2, "n": n, "kind": kind, "builder": {"name": name, "params": params}}
    )


# ---------------------------------------------------------------------------
# decompose


def test_decompose_table(capsys):
    assert main(["decompose", "--n", "3", "--d", "2"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()]
    assert ["{3}", "1", "20", "20"] in rows
    assert ["{2,1}", "2", "20", "40"] in rows
    assert ["{1,1,1}", "1", "4", "4"] in rows
    assert "total 64 = (d^2)^n = 64" in out
    assert "p_1(3)=1 p_2(3)=1 p_3(3)=1" in out
    assert "sectors: 3" in out


def test_decompose_single_site(capsys):
    assert main(["decompose", "--n", "1", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert ["{1}", "1", "4", "4"] in [line.split() for line in out.splitlines()]
    assert "total 4 = (d^2)^n = 4" in out


def test_decompose_json_report(tmp_path, capsys):
    out_path = tmp_path / "decomp.json"
    assert main(["decompose", "--n", "3", "--d", "2", "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = read_report(out_path)
    assert payload == {
        "command": "decompose",
        "d": 2,
        "n": 3,
        "sectors": [
            {"partition": [3], "protected_dim": 1, "noisy_dim": 20, "product": 20},
            {"partition": [2, 1], "protected_dim": 2, "noisy_dim": 20, "product": 40},
            {"partition": [1, 1, 1], "protected_dim": 1, "noisy_dim": 4, "product": 4},
        ],
        "sector_count": 3,
        "partition_counts_by_rows": [1, 1, 1],
        "total": 64,
        "liouville_dim": 64,
    }


@pytest.mark.parametrize("d,n", [(2, 30), (3, 12)])
def test_decompose_above_the_size_cap(d, n, tmp_path, monkeypatch, capsys):
    # the table comes from the hook formulae alone: no size guard, and no
    # letter string is enumerated
    def refuse(*args):
        raise AssertionError("decompose enumerated letter strings")

    monkeypatch.setattr(combinatorics, "letter_strings_by_weight", refuse)
    monkeypatch.setattr(schur, "letter_strings_by_weight", refuse)
    assert (d * d) ** n > liouville.max_liouville_dim()
    out_path = tmp_path / "decomp.json"
    assert main(["decompose", "--n", str(n), "--d", str(d), "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = read_report(out_path)
    assert payload["total"] == payload["liouville_dim"] == (d * d) ** n
    assert sum(row["product"] for row in payload["sectors"]) == (d * d) ** n


def test_decompose_n4_totals(capsys):
    assert main(["decompose", "--n", "4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "total 256 = (d^2)^n = 256" in out
    assert "sectors: 5" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--n", "0", "--d", "2"],
        ["decompose", "--n", "3", "--d", "1"],
        ["decompose", "--n", "3"],
        ["decompose", "--n", "x", "--d", "2"],
        ["no-such-command"],
        [],
        ["analyze"],
        ["evolve", "f.json", "--times", "1.0,abc"],
        ["evolve", "f.json", "--times", ","],
        ["analyze", "f.json", "--tol", "nan"],
        ["analyze", "f.json", "--tol", "inf"],
        ["evolve", "f.json", "--tol", "nan"],
        ["evolve", "f.json", "--tol", "inf"],
        ["analyze", "f.json", "--seed", "-1"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0.5,-inf"])
def test_evolve_times_must_be_finite_and_non_negative(value, capsys):
    assert main(["evolve", "f.json", "--times", value]) == 1
    assert "finite and non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# schur-basis files


def test_schur_basis_exports_the_built_basis(tmp_path, capsys, schur_2_3):
    path, again = tmp_path / "basis.txt", tmp_path / "again.txt"
    assert main(["schur-basis", "--n", "3", "--d", "2", "--out", str(path)]) == 0
    assert "wrote 64 columns" in capsys.readouterr().out
    text = path.read_text()
    assert text.splitlines()[0] == "d=2 n=3 columns=64"
    assert "lambda=2,1 Y=0 weight=0,2,1,0 w_index=0" in text
    write_basis_file(schur_2_3, str(again))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_basis_files_are_written_without_the_dense_matrix(d, n, tmp_path, monkeypatch):
    # each column is its label line, then one "string re 0.0" line per
    # class-block entry at or above the cutoff; repr round-trips float64
    def refuse(basis):
        raise AssertionError("the dense basis matrix was assembled")

    basis = super_schur_basis(d, n)
    monkeypatch.setattr(SuperSchurBasis, "unitary", property(refuse))
    path = tmp_path / "basis.txt"
    write_basis_file(basis, str(path))
    header, *lines = path.read_text().splitlines()
    assert header == f"d={d} n={n} columns={(d * d) ** n}"
    at = [i for i, line in enumerate(lines) if line.startswith("lambda=")]
    assert at[0] == 0
    assert [lines[i] for i in at] == [cli._label_line(lab) for lab in basis.labels]
    string_rows = {text: row for row, text in enumerate(cli._string_labels(d * d, n))}
    written = []
    for col, (start, stop) in enumerate(zip(at, at[1:] + [len(lines)])):
        for line in lines[start + 1 : stop]:
            string, re_text, im_text = line.split()
            assert im_text == "0.0"
            written.append((string_rows[string], col, float(re_text)))
    assert all(abs(value) >= cli.AMPLITUDE_CUTOFF for _, _, value in written)
    expected = [
        (row, col, value)
        for (rows, cols), B in zip(basis.layout.classes.values(), basis.blocks)
        for a, col in enumerate(cols.tolist())
        for row, value in zip(rows.tolist(), B[:, a].tolist())
        if abs(value) >= cli.AMPLITUDE_CUTOFF
    ]
    assert sorted(written) == sorted(expected)


def test_schur_basis_single_site_identity_amplitudes(tmp_path, capsys):
    path = tmp_path / "b1.txt"
    assert main(["schur-basis", "--n", "1", "--d", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    assert lines[0] == "d=2 n=1 columns=4"
    for letter in range(4):
        assert f"{letter} 1.0 0.0" in lines


def test_basis_file_is_deterministic(tmp_path, schur_2_2):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_basis_file(schur_2_2, str(a))
    write_basis_file(schur_2_2, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_schur_basis_size_guard_exit_2(tmp_path, capsys):
    assert main(["schur-basis", "--n", "7", "--d", "2", "--out", str(tmp_path / "x")]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_strong_builder(tmp_path, capsys):
    spec = builder_doc(tmp_path / "ch.json", "collective_damping", "kraus", p=0.3)
    out_path = tmp_path / "report.json"
    assert main(["analyze", spec, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "classification: strong" in out
    assert "DFS" in out

    payload = read_report(out_path)
    assert payload["classification"] == "strong"
    assert payload["input"]["builder"] == {"name": "collective_damping", "params": {"p": 0.3}}
    assert payload["input"]["kind"] == "kraus"
    assert payload["leakage"]["value"] < 1e-10
    assert payload["leakage"]["tol"] == 1e-8
    flagged = {tuple(s["partition"]): s["flagged"] for s in payload["sectors"]}
    assert flagged == {(3,): False, (2, 1): True, (1, 1, 1): False}
    dims = {tuple(s["partition"]): s["protected_dim"] for s in payload["sectors"]}
    assert dims == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert payload["certificate"]["residuals"]["strong_commutator"]["value"] < 1e-10
    assert payload["closure_deviation"]["value"] < 1e-12
    assert payload["protection"]["value"] < 1e-10
    assert payload["protection"]["trials"] == 5
    assert "timings" not in payload  # byte-reproducible output


def test_analyze_weak_lindblad_builder(tmp_path, capsys):
    spec = builder_doc(tmp_path / "ch.json", "single_jump", "lindblad", gamma1=0.5)
    assert main(["analyze", spec]) == 0
    out = capsys.readouterr().out
    assert "classification: weak" in out
    assert "hamiltonian_invariance" in out


def test_analyze_explicit_identity_channel(tmp_path, capsys):
    spec = write_doc(
        tmp_path / "id.json",
        {"d": 2, "n": 2, "kind": "kraus", "operators": [matrix_doc(np.eye(4))]},
    )
    out_path = tmp_path / "report.json"
    assert main(["analyze", spec, "--out", str(out_path)]) == 0
    capsys.readouterr()
    payload = read_report(out_path)
    assert payload["classification"] == "strong"
    assert payload["leakage"]["value"] < 1e-12
    for sector in payload["sectors"]:
        assert sector["twin_deviation"]["value"] < 1e-12
    assert "protection" not in payload  # no two-tableau sector at n=2


def test_analyze_asymmetric_channel_reports_none(tmp_path, capsys):
    f0 = np.array([[1, 0], [0, math.sqrt(0.5)]])
    f1 = np.array([[0, math.sqrt(0.5)], [0, 0]])
    spec = write_doc(
        tmp_path / "lop.json",
        {
            "d": 2,
            "n": 2,
            "kind": "kraus",
            "operators": [
                matrix_doc(np.kron(f0, np.eye(2))),
                matrix_doc(np.kron(f1, np.eye(2))),
            ],
        },
    )
    out_path = tmp_path / "report.json"
    assert main(["analyze", spec, "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "classification: none" in out
    payload = read_report(out_path)
    assert payload["classification"] == "none"
    assert payload["leakage"]["value"] > 1e-3
    assert not any(s["flagged"] for s in payload["sectors"])


def test_analyze_output_is_byte_deterministic(tmp_path, capsys):
    spec = builder_doc(tmp_path / "ch.json", "correlated_damping", "kraus", p=0.5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", spec, "--seed", "7", "--out", str(a)]) == 0
    assert main(["analyze", spec, "--seed", "7", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_analyze_input_errors(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    schema = write_doc(
        tmp_path / "schema.json", {"d": 2, "n": 1, "kind": "kraus", "oops": 1}
    )
    assert main(["analyze", schema]) == 2
    err = capsys.readouterr().err
    assert "oops" in err


@pytest.mark.parametrize("text,reason", [
    pytest.param(b'{"d": 2, "n": 1, "kind": "kraus", "operators": [\xff]}',
                 "'utf-8' codec can't decode byte 0xff", id="not-utf8"),
    pytest.param(b'{"d": 1' + b"0" * 5000 + b', "n": 1, "kind": "kraus"}',
                 "Exceeds the limit (4300 digits)", id="5001-digit-int"),
])
def test_channel_file_that_is_not_json_text_exits_2_naming_the_path(text, reason, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON: {reason}")


@pytest.mark.parametrize("text", [
    pytest.param(b"[" * 200_000, id="whole-file"),
    pytest.param(b'{"d": 2, "n": 1, "kind": "kraus", "operators": ' + b"[" * 100_000 + b"}",
                 id="in-operators"),
])
def test_json_nested_too_deep_exits_2_without_a_traceback(text, tmp_path):
    path = tmp_path / "deep.json"
    path.write_bytes(text)
    done = run_python("-m", "superschur", "analyze", str(path))
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {path}: not valid JSON: maximum recursion depth")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="401-digit-int"),
])
def test_non_finite_entries_exit_2_with_field_path(tmp_path, capsys, literal):
    # json.dumps writes nan/inf as the NaN/Infinity literals json.load accepts,
    # and a Python int digit for digit: here one beyond float64
    ops = [matrix_doc(np.eye(2))]
    ops[0][0][0] = [json.loads(literal), 0.0]
    spec = write_doc(
        tmp_path / "nan.json", {"d": 2, "n": 1, "kind": "lindblad", "operators": ops}
    )
    assert literal in (tmp_path / "nan.json").read_text()
    assert main(["analyze", spec]) == 2
    assert "operators[0][0][0]: entries must be finite" in capsys.readouterr().err


def overflowing_jumps(case):
    """Finite jump operators whose products overflow float64: one whose Gram
    diagonal overflows, or two with finite Gram diagonals whose sum L^dag L
    overflows in its (1, 1) entry."""
    if case == "gram":
        jump = np.zeros((4, 4))
        jump[0, 1] = 1e200
        return 2, [jump]
    a, b = math.sqrt(1.5e308), math.sqrt(0.8e308)
    return 1, [np.array([[0.0, a], [0.0, 0.0]]), np.diag([-b, b])]


@pytest.mark.parametrize("case", ["gram", "sum"])
@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_overflowing_jump_operators_exit_2(command, case, tmp_path, capsys):
    n, jumps = overflowing_jumps(case)
    doc = {"d": 2, "n": n, "kind": "lindblad", "operators": [matrix_doc(m) for m in jumps]}
    spec = write_doc(tmp_path / "big.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, spec]) == 2
    assert "Gram matrix or sum L^dag L is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("d", [2, 3])
def test_overflowing_kraus_operators_exit_2(d, tmp_path, capsys):
    # finite, but F^dag F overflows float64: |1e200 (1 + i)|^2 = 2e400
    F = 1e200 * (1 + 1j) * np.eye(d * d)
    doc = {"d": d, "n": 2, "kind": "kraus", "operators": [matrix_doc(F)]}
    spec = write_doc(tmp_path / "big_kraus.json", doc)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", spec, "--out", str(out)]) == 2
    assert "Gram matrix or sum F^dag F is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_overflowing_hamiltonian_exit_2(command, tmp_path, capsys):
    # Hermitian and finite, but sum |H_ij|^2 overflows float64
    H = np.array([[0.0, 1e308], [1e308, 0.0]])
    doc = {"d": 2, "n": 1, "kind": "lindblad", "operators": [], "hamiltonian": matrix_doc(H)}
    spec = write_doc(tmp_path / "big_h.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, spec]) == 2
    assert "Hamiltonian too large: sum |H_ij|^2 is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, param, message",
    [
        ("transverse_ising", "J",
         "builder: Hamiltonian: the h_x = 1 and J = 1e+308 terms sum past float64"),
        ("single_jump", "h_x",
         "builder: Hamiltonian: the h_x = 1e+308 and J = 1 terms sum past float64"),
    ],
    ids=["J", "h_x"],
)
@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_builder_hamiltonian_past_float64_exit_2(command, name, param, message, tmp_path, capsys):
    # J = 1e308 on every pair sums past float64; h_x = 1e308 on every site
    # stays finite entrywise but overflows sum |H_ij|^2, which the builder
    # judges by the Lindbladian's rule
    spec = builder_doc(tmp_path / "big_h.json", name, "lindblad", **{param: 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def overflowing_generator(path, case):
    """Generators whose checks pass but whose superoperator overflows
    float64: one qutrit jump with one entry 1.2e154, whose Tr L^dag L is
    1.44e308, the collective jump family at gamma3 = 1e307 and the single
    jump family at gamma1 = 1e307 (Tr sum L^dag L = 1.2e308 at n = 3)."""
    if case == "explicit":
        jump = np.zeros((9, 9))
        jump[0, 1] = 1.2e154
        doc = {"d": 3, "n": 2, "kind": "lindblad", "operators": [matrix_doc(jump)]}
        return write_doc(path, doc)
    if case == "single_jump":
        return builder_doc(path, "single_jump", "lindblad", gamma1=1e307)
    return builder_doc(path, "collective_jump", "lindblad", gamma3=1e307)


@pytest.mark.parametrize("case", ["explicit", "builder", "single_jump"])
@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_generator_whose_superoperator_overflows_exit_2(command, case, tmp_path, capsys):
    spec = overflowing_generator(tmp_path / "big.json", case)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # a builder's refusal names the builder
    prefix = "" if case == "explicit" else "builder: "
    assert err == (
        f"error: {prefix}generator too large: 2 D^2 (Tr sum L^dag L + ||H||_F) is not finite "
        "in float64\n"
    )
    assert not out.exists()


OVERSIZED = {
    "kraus-equal": [1e200 * np.eye(2)] * 2,
    "kraus-orthogonal": [1e200 * np.array([[0, 1], [1, 0]]), 1e200 * np.diag([1.0, -1.0])],
    "lindblad": [1e200 * np.diag([1.0, -1.0])],
}
TOO_LARGE = "{0}s too large: their Gram matrix or sum {1}^dag {1} is not finite in float64"


def oversized_operators_doc(path, case):
    """d = 2, n = 1 operators whose Gram matrix overflows float64: two equal
    Kraus operators 1e200 I, two orthogonal ones 1e200 X and 1e200 Z, or
    one Lindblad jump 1e200 Z."""
    doc = {"d": 2, "n": 1, "kind": case.split("-")[0],
           "operators": [matrix_doc(m) for m in OVERSIZED[case]]}
    return write_doc(path, doc)


@pytest.mark.parametrize("case", ["kraus-equal", "kraus-orthogonal", "lindblad"])
def test_orthogonalize_refuses_operators_too_large_for_float64(case, tmp_path, capsys):
    # the constructors orthogonalize, so they refuse as orthogonalize_kraus does
    spec = oversized_operators_doc(tmp_path / "big.json", case)
    command = "evolve" if case == "lindblad" else "analyze"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ChannelSpecError) as info:
            channels.orthogonalize_kraus(2, 1, OVERSIZED[case])
        assert main([command, spec]) == 2
    assert str(info.value) == TOO_LARGE.format("operator", "F")
    noun, symbol = ("jump operator", "L") if case == "lindblad" else ("Kraus operator", "F")
    assert capsys.readouterr().err == f"error: {TOO_LARGE.format(noun, symbol)}\n"


@pytest.mark.parametrize("command", ["analyze", "evolve"])
@pytest.mark.parametrize(
    "text", ["1" + "0" * 400, "1e400", "-1e400", "NaN"], ids=["int", "inf", "-inf", "nan"]
)
def test_builder_param_beyond_float64_exit_2(command, text, tmp_path, capsys):
    spec = tmp_path / "big_rate.json"
    spec.write_text(
        '{"d": 2, "n": 3, "kind": "lindblad",'
        f' "builder": {{"name": "single_jump", "params": {{"gamma1": {text}}}}}}}'
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err == "error: builder.params.gamma1: not finite in float64\n"


@pytest.mark.parametrize(
    "params, message",
    [
        (
            {"p": 0.5},
            "builder: bad parameters for 'single_jump': "
            "unknown parameter 'p' (accepted: gamma1, h_x, J)",
        ),
        ({"n": 4}, "builder.params.n: the site count is the top-level n"),
        (
            {"name": 1.0},
            "builder: bad parameters for 'single_jump': "
            "unknown parameter 'name' (accepted: gamma1, h_x, J)",
        ),
    ],
    ids=["p", "n", "name"],
)
@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_builder_param_the_family_does_not_take_exits_2(
    command, params, message, tmp_path, capsys
):
    doc = {"d": 2, "n": 3, "kind": "lindblad", "builder": {"name": "single_jump", "params": params}}
    assert main([command, write_doc(tmp_path / "params.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "_build_" not in err


def refuse_call(*args, **kwargs):
    raise AssertionError("called before the size guard")


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_oversized_builder_file_exits_2_before_the_builder_runs(
    command, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(channels, "example_channel", refuse_call)
    spec = builder_doc(tmp_path / "big.json", "single_jump", "lindblad", n=40)
    assert main([command, spec]) == 2
    assert capsys.readouterr().err.startswith(
        "error: Liouville dimension 2**80 for d=2, n=40 exceeds the limit"
    )


@pytest.mark.parametrize("operators", [[], [[[[1.0, 0.0]]]]], ids=["none", "one"])
def test_oversized_explicit_file_exits_2_before_any_operator_is_parsed(
    operators, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(channels, "_parse_matrix", refuse_call)
    doc = {"d": 3, "n": 9, "kind": "kraus", "operators": operators}
    assert main(["analyze", write_doc(tmp_path / "big.json", doc)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: Liouville dimension 3**18 for d=3, n=9 exceeds the limit"
    )


# 2**16000 has 4817 digits, past Python's limit for turning an int into text
HUGE_GUARD_MESSAGE = "Liouville dimension 2**16000 for d=2, n=8000 exceeds the limit"


def test_oversized_channel_file_past_the_int_text_limit_exits_2(tmp_path, capsys):
    spec = builder_doc(tmp_path / "big.json", "single_jump", "lindblad", n=8000)
    assert main(["analyze", spec]) == 2
    assert capsys.readouterr().err.startswith(f"error: {HUGE_GUARD_MESSAGE}")


def test_schur_basis_past_the_int_text_limit_exits_2(tmp_path, capsys):
    assert main(["schur-basis", "--d", "2", "--n", "8000", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {HUGE_GUARD_MESSAGE}")


# d*d has 4401 digits, past Python's limit for turning an int into text
HUGE_D = 10**2200
HUGE_D_MESSAGE = f"Liouville dimension {HUGE_D}**2 for d={HUGE_D}, n=1 exceeds the limit"


def test_channel_file_whose_d_squared_is_past_the_int_text_limit_exits_2(tmp_path, capsys):
    spec = write_doc(tmp_path / "big.json", {"d": HUGE_D, "n": 1, "kind": "kraus"})
    assert main(["analyze", spec]) == 2
    assert capsys.readouterr().err.startswith(f"error: {HUGE_D_MESSAGE}")


def test_schur_basis_whose_d_squared_is_past_the_int_text_limit_exits_2(tmp_path, capsys):
    argv = ["schur-basis", "--d", str(HUGE_D), "--n", "1", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {HUGE_D_MESSAGE}")


def test_a_leakage_equal_to_the_tolerance_passes_in_analyze_and_evolve(tmp_path, capsys):
    # at these rates roundoff leaks about 1e-7 out of the blocks; with --tol
    # set to the measured leakage, analyze flags the DFS as evolve accepts
    # the blockwise exponential: a value passes when value <= tol
    spec = builder_doc(
        tmp_path / "cj.json", "collective_jump", "lindblad",
        gamma3=1e8, gamma4=1e8, gamma5=1e8, h_x=1e8,
    )
    first = tmp_path / "first.json"
    assert main(["analyze", spec, "--out", str(first)]) == 0
    report = read_report(first)
    leakage = report["leakage"]["value"]
    assert 0 < max(s["twin_deviation"]["value"] for s in report["sectors"]) < leakage
    at_tol = tmp_path / "at_tol.json"
    assert main(["analyze", spec, "--tol", repr(leakage), "--out", str(at_tol)]) == 0
    report = read_report(at_tol)
    assert report["leakage"] == {"value": leakage, "tol": leakage}
    assert [s["partition"] for s in report["sectors"] if s["flagged"]] == [[2, 1]]
    assert main(["evolve", spec, "--tol", repr(leakage)]) == 0


def non_orthogonal_doc(case):
    """A channel file whose operators overlap: the (F0 + F1)/sqrt 2 and
    (F0 - F1)/sqrt 2 recombination of collective_damping's first two Kraus
    operators at n = 3, or the ring-decay jumps (s_i + s_{i+1})/sqrt 2 of
    the lowering operators s_i on the three sites of a ring."""
    if case == "kraus":
        F = list(example_channel("collective_damping", n=3).kraus_ops)
        ops = [(F[0] + F[1]) / math.sqrt(2), (F[0] - F[1]) / math.sqrt(2)] + F[2:]
    else:
        s = [example_channel("single_jump", n=3).jump_ops[i] for i in range(3)]
        ops = [(s[i] + s[(i + 1) % 3]) / math.sqrt(2) for i in range(3)]
    return {"d": 2, "n": 3, "kind": case, "operators": ops}


@pytest.mark.parametrize("case", ["kraus", "lindblad"])
def test_non_orthogonal_operators_analyze_as_their_canonical_form(case, tmp_path, capsys):
    doc = non_orthogonal_doc(case)
    G = channels._gram(np.stack(doc["operators"]))
    assert np.max(np.abs(G - np.diag(G.diagonal()))) > channels._orthogonality_bound(G)
    canonical = channels.orthogonalize_kraus(2, 3, doc["operators"])
    reports = []
    for name, ops in (("raw", doc["operators"]), ("canonical", canonical)):
        (tmp_path / name).mkdir()
        spec = write_doc(tmp_path / name / "ch.json",
                         {**doc, "operators": [matrix_doc(m) for m in ops]})
        out = tmp_path / name / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", spec, "--out", str(out)]) == 0
        reports.append(out.read_text().replace(spec, "PATH"))
    capsys.readouterr()
    assert reports[0] == reports[1]
    count = read_report(tmp_path / "raw" / "report.json")["input"]["operator_count"]
    assert count == len(canonical)


def test_a_channel_file_with_the_orthogonalize_field_exits_2(tmp_path, capsys):
    doc = {**non_orthogonal_doc("kraus"), "orthogonalize": True}
    doc["operators"] = [matrix_doc(m) for m in doc["operators"]]
    assert main(["analyze", write_doc(tmp_path / "ch.json", doc)]) == 2
    assert capsys.readouterr().err == "error: orthogonalize: unknown field\n"


def test_analyze_invariant_violation_exits_3(tmp_path, capsys):
    f0 = np.array([[1, 0], [0, math.sqrt(0.5)]])
    spec = write_doc(
        tmp_path / "open.json",
        {"d": 2, "n": 1, "kind": "kraus", "operators": [matrix_doc(f0)]},
    )
    assert main(["analyze", spec]) == 3
    assert "closure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evolve


def test_evolve_with_dense_check(tmp_path, capsys):
    spec = builder_doc(
        tmp_path / "lind.json", "single_jump", "lindblad", gamma1=1.0, h_x=1.0, J=1.0
    )
    out_path = tmp_path / "evolve.json"
    assert main(
        ["evolve", spec, "--times", "0.1,1.0", "--verify-dense", "--out", str(out_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "dense cross-check" in out
    payload = read_report(out_path)
    assert payload["times"] == [0.1, 1.0]
    assert len(payload["results"]) == 2
    for entry in payload["results"]:
        assert entry["dense_deviation"]["value"] < 1e-8
        assert entry["dense_deviation"]["tol"] == 1e-8
        assert len(entry["blocks"]) == 4
    partitions_seen = {tuple(b["partition"]) for b in payload["results"][0]["blocks"]}
    assert partitions_seen == {(3,), (2, 1), (1, 1, 1)}


def test_evolve_at_time_zero(tmp_path, capsys):
    spec = builder_doc(tmp_path / "lind.json", "collective_jump", "lindblad")
    out_path = tmp_path / "evolve.json"
    assert main(
        ["evolve", spec, "--times", "0.0", "--verify-dense", "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    payload = read_report(out_path)
    assert payload["results"][0]["dense_deviation"]["value"] < 1e-12
    for block in payload["results"][0]["blocks"]:
        assert block["max_abs"] == pytest.approx(1.0, abs=1e-12)


def test_evolve_refuses_a_time_whose_exponential_overflows(tmp_path, capsys):
    # exp(t B) overflows float64 at t = 1e300; NaN would not be valid JSON
    spec = builder_doc(tmp_path / "ising.json", "transverse_ising", "lindblad")
    out_path = tmp_path / "evolve.json"
    assert main(["evolve", spec, "--times", "1.0,1e300", "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert "t=1e+300: the exponential of {3} block (20, 20) is not finite" in err
    assert not out_path.exists()


def test_evolve_refuses_a_dense_deviation_that_is_not_finite(tmp_path, capsys, monkeypatch):
    import scipy.linalg

    # only the 64 x 64 dense cross-check calls scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda M: np.full(M.shape, np.nan))
    spec = builder_doc(tmp_path / "ising.json", "transverse_ising", "lindblad")
    out_path = tmp_path / "evolve.json"
    argv = ["evolve", spec, "--times", "0.5", "--verify-dense", "--out", str(out_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "t=0.5: the dense cross-check (64, 64) is not finite" in err
    assert not out_path.exists()


def test_only_the_dense_cross_check_calls_scipy_expm(tmp_path, capsys, monkeypatch):
    import scipy.linalg

    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda M: calls.append(M.shape) or expm(M))
    spec = builder_doc(tmp_path / "jump.json", "single_jump", "lindblad")
    assert main(["evolve", spec, "--times", "0.1,1.0"]) == 0
    assert calls == []
    assert main(["evolve", spec, "--times", "0.1,1.0,2.0", "--verify-dense"]) == 0
    capsys.readouterr()
    assert calls == [(64, 64)] * 3


def test_evolve_rejects_kraus_input(tmp_path, capsys):
    spec = builder_doc(tmp_path / "kraus.json", "collective_damping", "kraus")
    assert main(["evolve", spec]) == 2
    assert "lindblad" in capsys.readouterr().err


def test_evolve_refuses_leaky_generator(tmp_path, capsys):
    H = np.kron(np.diag([1.0, -1.0]), np.eye(2)) + 2 * np.kron(np.eye(2), np.diag([1.0, -1.0]))
    spec = write_doc(
        tmp_path / "leaky.json",
        {
            "d": 2,
            "n": 2,
            "kind": "lindblad",
            "hamiltonian": matrix_doc(H),
            "operators": [],
        },
    )
    assert main(["evolve", spec]) == 3
    assert "leakage" in capsys.readouterr().err


def test_repeated_job_in_one_process_writes_the_same_bytes(tmp_path, capsys, fresh_builders):
    # the first analyze builds the d = 2 bases, the evolve builds and uses
    # the d = 3 ones, and the repeated analyze runs on the cached d = 2 ones
    spec = builder_doc(tmp_path / "ch.json", "collective_damping", "kraus", p=0.3)
    lower = np.diag([1.0, 1.0], k=1)  # |0><1| + |1><2|
    jump = np.kron(lower, np.eye(3)) + np.kron(np.eye(3), lower)
    qutrits = write_doc(
        tmp_path / "qutrits.json",
        {"d": 3, "n": 2, "kind": "lindblad", "operators": [matrix_doc(jump)]},
    )
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["analyze", spec, "--seed", "3", "--out", str(first)]) == 0
    assert main(["evolve", qutrits, "--times", "0.5", "--out", str(tmp_path / "e.json")]) == 0
    assert main(["analyze", spec, "--seed", "3", "--out", str(again)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# verify


def test_verify_fast_passes(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    assert main(["verify", "--level", "fast", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "suites passed (fast)" in out
    payload = read_report(out_path)
    assert payload["passed"] is True
    assert all(s["passed"] for s in payload["suites"])
    names = {s["name"] for s in payload["suites"]}
    assert "reference_column_n3" in names
    assert "example_block_structure_n3" in names


def test_verify_out_writes_non_finite_measurements_as_text(tmp_path, capsys, monkeypatch):
    from superschur import verify

    monkeypatch.setattr(verify, "CHECKS", (
        verify.Check("premise_fails", "fast", 0.0, lambda: math.inf),
        verify.Check("below_everything", "fast", 0.0, lambda: -math.inf),
        verify.Check("nan_folds_through", "fast", 1.0, lambda: math.nan),
    ))
    out_path = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out_path)]) == 4
    capsys.readouterr()
    payload = read_report(out_path)
    assert [(s["measured"], s["passed"]) for s in payload["suites"]] == [
        ("inf", False), ("-inf", True), ("nan", False)
    ]
    assert payload["passed"] is False


def test_verify_full_passes(capsys):
    assert main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "21/21 suites passed (full)" in out


def run_python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this tree, with arguments ``argv``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def run_probe(probe: str) -> subprocess.CompletedProcess:
    """Run a Python snippet in a fresh interpreter that imports this tree."""
    return run_python("-c", probe)


def test_package_runs_as_a_process(tmp_path):
    # python -m superschur: __main__, entrypoint() and the parser's exit code
    done = run_python("-m", "superschur", "decompose", "--n", "3", "--d", "2")
    assert done.returncode == 0, done.stderr
    assert "total 64 = (d^2)^n = 64" in done.stdout
    done = run_python("-m", "superschur", "decompose", "--n", "3", "--d", "1")
    assert done.returncode == 1
    assert done.stderr.endswith(
        "superschur decompose: error: argument --d: local dimension must be >= 2, got 1\n"
    )
    spec = oversized_operators_doc(tmp_path / "big.json", "kraus-equal")
    done = run_python("-W", "error::RuntimeWarning", "-m", "superschur", "analyze", spec)
    assert done.returncode == 2, done.stderr
    assert done.stderr == f"error: {TOO_LARGE.format('Kraus operator', 'F')}\n"


@pytest.mark.parametrize(
    "argv, words",
    [
        (["decompose", "--n", "3", "--d", "1"], "--d: local dimension must be >= 2, got 1"),
        (["decompose", "--n", "3", "--d", "0"], "--d: local dimension must be >= 2, got 0"),
        (["decompose", "--n", "3", "--d", "-3"], "--d: local dimension must be >= 2, got -3"),
        (["decompose", "--n", "0", "--d", "2"], "--n: expected a positive integer, got 0"),
        (["decompose", "--n", "-3", "--d", "2"], "--n: expected a positive integer, got -3"),
        (["analyze", "spec.json", "--seed", "-3"], "--seed: expected a non-negative integer, got -3"),
    ],
)
def test_each_integer_option_has_one_message(argv, words, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {words}\n")


def test_cli_import_builds_no_basis():
    # scipy.linalg is imported only where the dense cross-check or verify
    # takes a dense exponential
    probe = (
        "import sys\n"
        "import superschur.cli\n"
        "from superschur import liouville, schur\n"
        "print(schur._super_schur_basis.cache_info().currsize,"
        " liouville._operator_basis.cache_info().currsize,"
        " 'scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    done = run_probe(probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "False", "False"]


def test_commands_without_an_exponential_load_no_scipy_linalg(tmp_path):
    # analyze and evolve run on numpy alone, whatever the operators: a
    # sparse generator, a dense Kraus map, an explicit qutrit file and an
    # accepted evolve, all in one fresh process
    jump5 = builder_doc(tmp_path / "jump5.json", "single_jump", "lindblad", n=5)
    dense = builder_doc(tmp_path / "corr.json", "correlated_damping", "kraus", n=3)
    lower = np.diag([1.0, 1.0], k=1)  # |0><1| + |1><2|
    eye = np.eye(3)
    jump = (np.kron(np.kron(lower, eye), eye) + np.kron(np.kron(eye, lower), eye)
            + np.kron(np.kron(eye, eye), lower))
    qutrits = write_doc(
        tmp_path / "qutrits.json",
        {"d": 3, "n": 3, "kind": "lindblad", "operators": [matrix_doc(jump)]},
    )
    jump3 = builder_doc(tmp_path / "jump3.json", "single_jump", "lindblad")
    probe = (
        "import sys\n"
        "from superschur.cli import main\n"
        f"assert main(['analyze', {jump5!r}]) == 0\n"
        f"assert main(['analyze', {dense!r}]) == 0\n"
        f"assert main(['analyze', {qutrits!r}]) == 0\n"
        f"assert main(['evolve', {jump3!r}, '--times', '0.1,1.0']) == 0\n"
        "print('loaded', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = run_probe(probe)
    assert done.returncode == 0, done.stderr
    marks = [line.split()[1:] for line in done.stdout.splitlines() if line.startswith("loaded")]
    assert marks == [[]]


def test_analyze_and_evolve_load_no_oracle(tmp_path):
    path = builder_doc(tmp_path / "jump.json", "single_jump", "lindblad", n=3)
    probe = (
        "import sys\n"
        "from superschur.cli import main\n"
        "def loaded():\n"
        "    names = ('superschur.oracle', 'superschur.verify')\n"
        "    print('loaded', *[name in sys.modules for name in names])\n"
        f"assert main(['analyze', {path!r}]) == 0\n"
        f"assert main(['evolve', {path!r}, '--times', '0.1,1.0']) == 0\n"
        "loaded()\n"
        "assert main(['verify', '--level', 'fast']) == 0\n"
        "loaded()\n"
    )
    done = run_probe(probe)
    assert done.returncode == 0, done.stderr
    marks = [line.split()[1:] for line in done.stdout.splitlines() if line.startswith("loaded ")]
    assert marks == [["False", "False"], ["True", "True"]]


def test_verify_rejects_unknown_level(capsys):
    assert main(["verify", "--level", "extreme"]) == 1
    capsys.readouterr()


def test_evolve_reports_blocks_and_exponentials(tmp_path, capsys):
    path = builder_doc(tmp_path / "jump.json", "single_jump", "lindblad")
    assert main(["evolve", path, "--times", "0.1,1.0"]) == 0
    out = capsys.readouterr().out
    assert "t=0.1: 4 blocks from 3 exponentials" in out
    assert "t=1.0: 4 blocks from 3 exponentials" in out


# ---------------------------------------------------------------------------
# memory budget of analyze/evolve


def site_dependent_maps(d, n):
    """A Lindbladian and a Kraus map with a different rate on every site
    (certificate none), in the form of the explicit-operator benchmark files:
    a lowering jump and a clock field per site, and per-site damping."""
    from functools import reduce
    from itertools import product

    from superschur import KrausChannel, Lindbladian

    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    lower = np.triu(shift) if d == 2 else shift

    def on_site(op, k):
        return reduce(np.kron, [op if j == k else np.eye(d) for j in range(n)])

    jumps = [math.sqrt(0.2 + 0.15 * k) * on_site(lower, k) for k in range(n)]
    H = sum((0.3 + 0.1 * k) * on_site(clock + clock.conj().T, k) for k in range(n))
    lind = Lindbladian(d, n, H, jumps)
    local = []
    for k in range(n):
        p = 0.1 + 0.12 * k
        if d == 2:
            local.append([np.diag([1.0, math.sqrt(1 - p)]), math.sqrt(p) * lower])
        else:
            local.append([math.sqrt(1 - p) * np.eye(d), math.sqrt(p / 2) * shift,
                          math.sqrt(p / 2) * clock])
    ops = [reduce(np.kron, choice) for choice in product(*local)]
    return {"lindblad": lind, "kraus": KrausChannel(d, n, ops)}


PIPELINE_INPUTS = [f"builder-{name}" for name in sorted(channels.EXAMPLE_CHANNELS)] + [
    f"explicit-{kind}-d{d}n{n}" for d, n in ((2, 5), (3, 3)) for kind in ("lindblad", "kraus")
]


@pytest.mark.parametrize("case", PIPELINE_INPUTS)
def test_pipeline_holds_one_dense_array(case):
    # the superoperator's buffer becomes the frame, so besides it only the
    # kernel's shift-group stack and gathers, the one scratch slab and the
    # blocks are traced
    import tracemalloc

    if case.startswith("builder-"):
        channel = example_channel(case.removeprefix("builder-"), n=5)
    else:
        _, kind, dn = case.split("-")
        channel = site_dependent_maps(int(dn[1]), int(dn[3]))[kind]
    cli._pipeline(channel, 1e-8)  # warm: cached bases, lazy imports
    tracemalloc.start()
    try:
        decomp = cli._pipeline(channel, 1e-8)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomp.frame.shape == (decomp.basis.dim,) * 2
    assert peak < 1.6 * decomp.frame.nbytes, peak / decomp.frame.nbytes
