import json
import math
import re
import warnings

import numpy as np
import pytest

from superschur import SizeGuardError, example_channel, super_schur_basis
from superschur.cli import main, read_basis_file, write_basis_file


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


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
    payload = json.loads(out_path.read_text())
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


def test_schur_basis_round_trip(tmp_path, capsys, schur_2_3):
    path = tmp_path / "basis.txt"
    assert main(["schur-basis", "--n", "3", "--d", "2", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "wrote 64 columns" in out
    text = path.read_text()
    assert text.splitlines()[0] == "d=2 n=3 columns=64"
    assert "lambda=2,1 Y=0 weight=0,2,1,0 w_index=0" in text

    loaded = read_basis_file(str(path))
    assert loaded.unitarity_deviation() < 1e-10
    assert loaded.labels == schur_2_3.labels
    assert np.max(np.abs(loaded.unitary - schur_2_3.unitary)) < 1e-12


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


def single_site_basis_lines(tmp_path):
    path = tmp_path / "b1.txt"
    assert main(["schur-basis", "--n", "1", "--d", "2", "--out", str(path)]) == 0
    return path, path.read_text().splitlines()


def test_amplitude_before_first_label_is_rejected(tmp_path, capsys):
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    assert lines[1].startswith("lambda=") and lines[2] == "0 1.0 0.0"
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: amplitude line before")):
        read_basis_file(str(path))


def test_repeated_amplitude_is_rejected(tmp_path, capsys):
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    # column 1 (string 1) gets a second amplitude for string 1
    assert lines[4] == "1 1.0 0.0"
    lines.insert(5, "1 0.5 0.0")
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:6: repeated amplitude for 1 in column 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_basis_file(str(path))


def test_label_beyond_header_column_count_is_rejected(tmp_path, capsys):
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    assert len(lines) == 9 and lines[7].startswith("lambda=")
    lines.append(lines[7])
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:10: more lambda= labels than the header's columns=4"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_basis_file(str(path))


def test_amplitude_line_with_wrong_field_count_is_rejected(tmp_path, capsys):
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    assert lines[2] == "0 1.0 0.0"
    lines[2] = "0 1.0"
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}:3: amplitude line needs 3 fields (string re im), got 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_basis_file(str(path))


# line index to replace, its new text, the line the refusal names, message
LOADER_REFUSALS = {
    "header_without_columns": (0, "d=2 n=1", 1, "missing columns="),
    "header_token_without_equals": (
        0, "d=2 n=1 columns=4 junk", 1, "token 'junk' is not key=value"),
    "d_below_2": (0, "d=1 n=1 columns=1", 1, "need d >= 2 and n >= 1, got d=1 n=1"),
    "n_below_1": (0, "d=2 n=0 columns=1", 1, "need d >= 2 and n >= 1, got d=2 n=0"),
    "columns_not_liouville_dim": (0, "d=2 n=1 columns=3", 1, "columns=3, but (d*d)**n = 4"),
    "label_without_Y": (1, "lambda=1 weight=1,0,0,0 w_index=0", 2, "missing Y="),
    "letter_string_a": (2, "a 1.0 0.0", 3, "invalid literal for int()"),
    "amplitude_x": (2, "0 x 0.0", 3, "could not convert string to float: 'x'"),
    "imaginary_amplitude": (2, "0 1.0 1e-300", 3, "nonzero imaginary amplitude 1e-300 for 0"),
    "string_outside_class": (
        2, "1 1.0 0.0", 3,
        "column 0: amplitude at row 1 lies outside its content class (1, 0, 0, 0)"),
    "three_entry_weight": (
        1, "lambda=1 Y=0 weight=1,0,0 w_index=0", 2,
        "classes do not tile the space: content (1, 0, 0) has 0 letter strings"),
}


@pytest.mark.parametrize("case", sorted(LOADER_REFUSALS))
def test_basis_loader_refusal_names_file_and_line(case, tmp_path, capsys):
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    index, text, lineno, message = LOADER_REFUSALS[case]
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: {message}")):
        read_basis_file(str(path))


def test_basis_file_whose_classes_do_not_tile_is_refused(tmp_path, capsys):
    # column 0 moves, without its amplitude, to the content of column 1
    path, lines = single_site_basis_lines(tmp_path)
    capsys.readouterr()
    assert lines[1] == "lambda=1 Y=0 weight=1,0,0,0 w_index=0" and lines[2] == "0 1.0 0.0"
    lines[1] = "lambda=1 Y=0 weight=0,1,0,0 w_index=0"
    del lines[2]
    path.write_text("\n".join(lines) + "\n")
    message = (
        f"{path}:2: classes do not tile the space: content (0, 1, 0, 0) "
        "has 1 letter strings but labels 2 columns"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        read_basis_file(str(path))


def basis_file_lines(tmp_path, d, n):
    path = tmp_path / f"b{d}{n}.txt"
    write_basis_file(super_schur_basis(d, n), str(path))
    return path, path.read_text().splitlines()


def label_line_numbers(lines):
    return [i for i, line in enumerate(lines) if line.startswith("lambda=")]


def assert_refused_at(path, lines, index, message):
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{index + 1}: {message}")):
        read_basis_file(str(path))


def test_basis_label_with_tableau_index_out_of_range_is_refused(tmp_path):
    path, lines = basis_file_lines(tmp_path, 2, 2)
    assert lines[1] == "lambda=2 Y=0 weight=2,0,0,0 w_index=0"
    lines[1] = "lambda=2 Y=5 weight=2,0,0,0 w_index=0"
    assert_refused_at(path, lines, 1, "Y=5 outside [0, 1) for shape {2}")


def test_basis_label_whose_shape_is_not_a_partition_of_n_is_refused(tmp_path):
    path, lines = basis_file_lines(tmp_path, 2, 2)
    lines[1] = lines[1].replace("lambda=2 ", "lambda=2,1 ")
    assert_refused_at(path, lines, 1, "lambda={2,1} is not a partition of n=2 with at most 4 rows")


def test_basis_label_whose_shape_has_too_many_rows_is_refused(tmp_path):
    # five rows: a partition of n = 5, but beyond the d*d = 4 letters
    path, lines = basis_file_lines(tmp_path, 2, 5)
    index = next(i for i in label_line_numbers(lines) if lines[i].startswith("lambda=2,1,1,1 "))
    lines[index] = lines[index].replace("lambda=2,1,1,1 ", "lambda=1,1,1,1,1 ")
    assert_refused_at(
        path, lines, index, "lambda={1,1,1,1,1} is not a partition of n=5 with at most 4 rows"
    )


def test_basis_file_whose_shape_labels_are_split_is_refused(tmp_path):
    # the first column of shape {2} (label and amplitude) moves to the end
    path, lines = basis_file_lines(tmp_path, 2, 2)
    assert lines[1].startswith("lambda=2 ") and not lines[3].startswith("lambda=1,1")
    lines = lines[:1] + lines[3:] + lines[1:3]
    assert_refused_at(path, lines, len(lines) - 2, "the columns of shape {2} are not contiguous")


def test_basis_file_with_unequal_tableau_counts_is_refused(tmp_path):
    # the last Y=0 column of shape {2,1} is relabelled Y=1, with every
    # w_index renumbered: Y=1 then labels 21 columns, one more than
    # weyl_dimension({2,1}, 4) = 20
    path, lines = basis_file_lines(tmp_path, 2, 3)
    shape_lines = [i for i in label_line_numbers(lines) if lines[i].startswith("lambda=2,1 ")]
    last_y0 = max(i for i in shape_lines if " Y=0 " in lines[i])
    lines[last_y0] = lines[last_y0].replace(" Y=0 ", " Y=1 ")
    seen = {}
    for i in label_line_numbers(lines):
        key = lines[i].rsplit(" w_index=", 1)[0]
        lines[i] = f"{key} w_index={seen.get(key, 0)}"
        seen[key] = seen.get(key, 0) + 1
    message = "shape {2,1} labels more than 20 columns with Y=1"
    assert_refused_at(path, lines, shape_lines[-1], message)


def test_basis_label_whose_w_index_skips_is_refused(tmp_path):
    path, lines = basis_file_lines(tmp_path, 2, 2)
    lines[1] = lines[1].replace("w_index=0", "w_index=1")
    message = "w_index=1 where 0 comes next for shape {2}, Y=0 and weight 2,0,0,0"
    assert_refused_at(path, lines, 1, message)


def test_basis_loader_applies_the_size_guard_first(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("d=2 n=7 columns=16384\n")
    with pytest.raises(SizeGuardError, match="exceeds the limit"):
        read_basis_file(str(path))


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

    payload = json.loads(out_path.read_text())
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
    payload = json.loads(out_path.read_text())
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
    payload = json.loads(out_path.read_text())
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


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_entries_exit_2_with_field_path(tmp_path, capsys, literal):
    # json.dumps writes nan/inf as the NaN/Infinity literals json.load accepts
    ops = [matrix_doc(np.eye(2))]
    ops[0][0][0] = [float(literal), 0.0]
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
    payload = json.loads(out_path.read_text())
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
    payload = json.loads(out_path.read_text())
    assert payload["results"][0]["dense_deviation"]["value"] < 1e-12
    for block in payload["results"][0]["blocks"]:
        assert block["max_abs"] == pytest.approx(1.0, abs=1e-12)


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


# ---------------------------------------------------------------------------
# verify


def test_verify_fast_passes(tmp_path, capsys):
    out_path = tmp_path / "verify.json"
    assert main(["verify", "--level", "fast", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "suites passed (fast)" in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is True
    assert all(s["passed"] for s in payload["suites"])
    names = {s["name"] for s in payload["suites"]}
    assert "reference_column_n3" in names
    assert "example_block_structure_n3" in names


def test_verify_full_passes(capsys):
    assert main(["verify", "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "16/16 suites passed (full)" in out


def test_verify_rejects_unknown_level(capsys):
    assert main(["verify", "--level", "extreme"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 2)])
def test_written_basis_files_load(tmp_path, d, n):
    path = tmp_path / "basis.txt"
    assert main(["schur-basis", "--n", str(n), "--d", str(d), "--out", str(path)]) == 0
    loaded = read_basis_file(str(path))
    assert loaded.unitarity_deviation() <= 1e-10


def test_non_unitary_basis_file_is_rejected(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    assert main(["schur-basis", "--n", "2", "--d", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if i and not line.startswith("lambda="))
    string, re_text, im_text = lines[k].split()
    lines[k] = f"{string} {float(re_text) * 1.01!r} {im_text}"
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: basis is not unitary: deviation "
    with pytest.raises(ValueError, match=re.escape(message) + r".* > UNITARITY_TOL 1\.0e-10"):
        read_basis_file(str(path))


def test_evolve_reports_blocks_and_exponentials(tmp_path, capsys):
    path = builder_doc(tmp_path / "jump.json", "single_jump", "lindblad")
    assert main(["evolve", path, "--times", "0.1,1.0"]) == 0
    out = capsys.readouterr().out
    assert "t=0.1: 4 blocks from 3 exponentials" in out
    assert "t=1.0: 4 blocks from 3 exponentials" in out
