import itertools
import math

import numpy as np
import pytest

from superschur import (
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    KrausChannel,
    Lindbladian,
    QuditOperator,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
    mixing_unitary,
    operator_basis,
    orthogonalize_kraus,
    psd_sqrt,
    symmetrize_local_kraus,
    vectorize,
)
from superschur.channels import SuperOperatorMatrix, channel_from_dict
from superschur.oracle import permutation_matrix
from superschur.permutations import adjacent_transpositions, all_permutations, compose

I2 = np.eye(2, dtype=np.complex128)
LOWER = np.array([[0, 1], [0, 0]], dtype=np.complex128)


def damping_pair(p):
    f0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=np.complex128)
    f1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=np.complex128)
    return f0, f1


def single_qubit_channel(*mats):
    return KrausChannel(2, 1, tuple(QuditOperator(2, 1, m) for m in mats))


# ---------------------------------------------------------------------------
# invariant validation


def test_kraus_channel_accepts_amplitude_damping():
    ch = single_qubit_channel(*damping_pair(0.3))
    assert ch.closure_deviation < 1e-12


def test_kraus_closure_deviation_is_measured_once_on_construction():
    ch = example_channel("independent_damping", n=3, p=0.3)
    closure = sum(op.matrix.conj().T @ op.matrix for op in ch.kraus_ops)
    assert ch.closure_deviation == float(np.max(np.abs(closure - np.eye(8))))
    # a stored field, not a property that sums F^dag F again on each read
    assert vars(ch)["closure_deviation"] == ch.closure_deviation


def test_kraus_channel_rejects_broken_closure():
    f0, _ = damping_pair(0.5)
    with pytest.raises(ChannelInvariantError, match="closure"):
        single_qubit_channel(f0)


def test_kraus_channel_rejects_non_orthogonal_sets():
    with pytest.raises(ChannelInvariantError, match="orthogonal"):
        single_qubit_channel(I2 / math.sqrt(2), I2 / math.sqrt(2))


def test_kraus_channel_rejects_zero_and_empty():
    with pytest.raises(ChannelInvariantError, match="zero"):
        single_qubit_channel(I2, np.zeros((2, 2)))
    with pytest.raises(ChannelInvariantError):
        KrausChannel(2, 1, ())


def test_lindbladian_validation():
    with pytest.raises(ChannelInvariantError, match="Hermitian"):
        Lindbladian(2, 1, QuditOperator(2, 1, LOWER), ())
    with pytest.raises(ChannelInvariantError, match="traceless"):
        Lindbladian(2, 1, QuditOperator(2, 1, np.zeros((2, 2))), (QuditOperator(2, 1, I2),))
    with pytest.raises(ChannelInvariantError, match="orthogonal"):
        Lindbladian(
            2,
            1,
            QuditOperator(2, 1, np.zeros((2, 2))),
            (QuditOperator(2, 1, LOWER), QuditOperator(2, 1, 2 * LOWER)),
        )
    # a bare matrix Hamiltonian is wrapped; no jumps is a closed system
    lind = Lindbladian(2, 1, np.diag([1.0, -1.0]), ())
    assert isinstance(lind.hamiltonian, QuditOperator)


# ---------------------------------------------------------------------------
# canonical form helpers


def test_psd_sqrt_diagonal_and_random():
    got = psd_sqrt(np.diag([4.0, 1.0]))
    assert np.max(np.abs(got - np.diag([2.0, 1.0]))) < 1e-12
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    M = A @ A.conj().T
    R = psd_sqrt(M)
    assert np.max(np.abs(R - R.conj().T)) < 1e-10
    assert np.max(np.abs(R @ R - M)) < 1e-10


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(ChannelInvariantError, match="Hermitian"):
        psd_sqrt(LOWER)
    with pytest.raises(ChannelInvariantError, match="positive"):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_orthogonalize_preserves_the_channel_map():
    f0, f1 = damping_pair(0.4)
    raw = [
        np.kron(f0, I2) / math.sqrt(2),
        np.kron(I2, f0) / math.sqrt(2),
        np.kron(f1, I2) / math.sqrt(2),
        np.kron(I2, f1) / math.sqrt(2),
    ]
    out = orthogonalize_kraus(2, 2, raw)
    stack = np.stack([m.reshape(-1) for m in out])
    gram = np.conj(stack) @ stack.T / 4
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) < 1e-12
    weights = np.diag(gram).real
    assert np.all(weights[:-1] >= weights[1:] - 1e-12)  # descending
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        before = sum(F @ rho @ F.conj().T for F in raw)
        after = sum(F @ rho @ F.conj().T for F in out)
        assert np.max(np.abs(before - after)) < 1e-12


def test_orthogonalize_passes_orthogonal_sets_through():
    f0, f1 = damping_pair(0.7)
    out = orthogonalize_kraus(2, 1, [f0, f1])
    assert len(out) == 2
    assert np.array_equal(out[0], f0)
    assert np.array_equal(out[1], f1)
    out = orthogonalize_kraus(2, 1, [f0, f1, np.zeros((2, 2))])
    assert len(out) == 2
    assert orthogonalize_kraus(2, 1, []) == []


def test_symmetrize_local_kraus_orbits():
    f0, f1 = damping_pair(0.5)
    ops = symmetrize_local_kraus({"f0": f0, "f1": f1}, ["f1", "f0", "f0"])
    assert len(ops) == 3  # distinct orderings of one f1 among two f0
    assert all(op.n == 3 for op in ops)
    supports = {
        tuple(np.flatnonzero(np.abs(op.matrix) > 1e-12).tolist()) for op in ops
    }
    assert len(supports) == 3
    assert len(symmetrize_local_kraus({"a": f0}, ["a", "a"])) == 1
    with pytest.raises(ValueError, match="missing"):
        symmetrize_local_kraus({"a": f0}, ["a", "b"])
    with pytest.raises(DimensionMismatchError):
        symmetrize_local_kraus({"a": f0, "b": np.eye(3)}, ["a", "b"])
    with pytest.raises(ValueError):
        symmetrize_local_kraus({"a": f0}, [])


# ---------------------------------------------------------------------------
# superoperator matrices


def test_identity_channel_superop_is_identity():
    basis = operator_basis(2, 2)
    ch = KrausChannel(2, 2, (QuditOperator(2, 2, np.eye(4)),))
    S = kraus_superop(ch, basis)
    assert S.kind == "channel"
    assert np.max(np.abs(S.matrix - np.eye(16))) < 1e-12


def test_amplitude_damping_superop_matches_analytic_form():
    p = 0.36
    basis = operator_basis(2, 1)
    ch = single_qubit_channel(*damping_pair(p))
    S = kraus_superop(ch, basis).matrix
    want = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.8, 0.0, 0.0],
            [0.0, 0.0, 0.8, 0.0],
            [0.36, 0.0, 0.0, 0.64],
        ]
    )
    assert np.max(np.abs(S - want)) < 1e-12


def test_full_damping_sends_excited_to_ground():
    basis = operator_basis(2, 1)
    ch = single_qubit_channel(*damping_pair(1.0))
    S = kraus_superop(ch, basis).matrix
    excited = vectorize(np.diag([0.0, 1.0]), basis)
    ground = vectorize(np.diag([1.0, 0.0]), basis)
    assert np.max(np.abs(S @ excited - ground)) < 1e-12


def test_channel_superop_has_trace_preserving_identity_row():
    basis = operator_basis(2, 3)
    ch = example_channel("collective_damping", n=3, p=0.3)
    S = kraus_superop(ch, basis).matrix
    row = np.zeros(64)
    row[0] = 1.0
    assert np.max(np.abs(S[0] - row)) < 1e-12


def test_damping_lindblad_superop_matches_analytic_form():
    gamma = 0.8
    basis = operator_basis(2, 1)
    lind = Lindbladian(
        2,
        1,
        QuditOperator(2, 1, np.zeros((2, 2))),
        (QuditOperator(2, 1, math.sqrt(gamma) * LOWER),),
    )
    G = lindblad_superop(lind, basis)
    assert G.kind == "generator"
    want = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, -gamma / 2, 0.0, 0.0],
            [0.0, 0.0, -gamma / 2, 0.0],
            [gamma, 0.0, 0.0, -gamma],
        ]
    )
    assert np.max(np.abs(G.matrix - want)) < 1e-12


def test_hamiltonian_rotation_generator():
    basis = operator_basis(2, 1)
    lind = Lindbladian(2, 1, QuditOperator(2, 1, np.diag([1.0, -1.0])), ())
    G = lindblad_superop(lind, basis).matrix
    want = np.zeros((4, 4))
    want[2, 1] = 2.0  # -i[Z, X] = 2Y
    want[1, 2] = -2.0
    assert np.max(np.abs(G - want)) < 1e-12
    # generator annihilates the identity row
    assert np.max(np.abs(G[0])) < 1e-12


def test_superoperator_matrix_kind_validation():
    basis = operator_basis(2, 1)
    with pytest.raises(ValueError, match="kind"):
        SuperOperatorMatrix(2, 1, "projector", np.eye(4), basis)
    with pytest.raises(DimensionMismatchError):
        SuperOperatorMatrix(2, 1, "channel", np.eye(5), basis)


# ---------------------------------------------------------------------------
# symmetry classification


EXPECTED_CLASS = {
    "collective_damping": "strong",
    "correlated_damping": "strong",
    "single_site_damping": "weak",
    "independent_damping": "weak",
    "single_jump": "weak",
    "double_jump": "weak",
    "collective_jump": "strong",
    "transverse_ising": "strong",
}


def classify(channel):
    if isinstance(channel, KrausChannel):
        return classify_kraus_symmetry(channel)
    return classify_lindblad_symmetry(channel)


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_CLASS.items()))
@pytest.mark.parametrize("n", [2, 3])
def test_example_families_classify_as_expected(name, expected, n):
    if name == "double_jump" and n == 2:
        expected = "strong"  # the single pair jump is itself symmetric
    cert = classify(example_channel(name, n=n))
    assert cert.classification == expected
    if expected == "strong":
        assert cert.residuals["strong_commutator"] < 1e-10
    else:
        assert cert.residuals["expansion_residual"] < 1e-8
        assert cert.residuals["unitarity"] < 1e-8
    for U in cert.generator_unitaries.values():
        k = U.shape[0]
        if k:
            assert np.max(np.abs(U.conj().T @ U - np.eye(k))) < 1e-8


def test_asymmetric_kraus_channel_classifies_none():
    f0, f1 = damping_pair(0.5)
    ch = KrausChannel(
        2,
        2,
        (
            QuditOperator(2, 2, np.kron(f0, I2)),
            QuditOperator(2, 2, np.kron(f1, I2)),
        ),
    )
    cert = classify_kraus_symmetry(ch)
    assert cert.classification == "none"
    assert cert.residuals["expansion_residual"] > 1e-3


def test_nonuniform_field_lindblad_classifies_none():
    H = np.kron(np.diag([1.0, -1.0]), I2) + 2.0 * np.kron(I2, np.diag([1.0, -1.0]))
    lind = Lindbladian(2, 2, QuditOperator(2, 2, H), ())
    cert = classify_lindblad_symmetry(lind)
    assert cert.classification == "none"
    assert cert.residuals["hamiltonian_invariance"] > 1e-3


def test_certificate_rejects_unknown_classification():
    from superschur import SymmetryCertificate

    with pytest.raises(ValueError):
        SymmetryCertificate("sideways", {}, {})


def test_mixing_unitaries_form_a_representation():
    # U(pi) U(sigma) ~ U(pi o sigma) for words up to length three
    ch = example_channel("single_site_damping", n=3, p=0.35)
    gens = adjacent_transpositions(3)
    words = [(g,) for g in gens]
    words += [(a, b) for a in gens for b in gens]
    words += [(a, b, c) for a in gens for b in gens for c in gens]
    cache = {}

    def U_of(pi):
        if pi not in cache:
            U, res, udev = mixing_unitary(ch.kraus_ops, pi, 2, 3)
            assert res < 1e-8 and udev < 1e-8
            cache[pi] = U
        return cache[pi]

    for word in words:
        pi = (0, 1, 2)
        U = np.eye(len(ch.kraus_ops), dtype=np.complex128)
        for g in word:
            pi = compose(g, pi)
            U = U_of(g) @ U
        assert np.max(np.abs(U - U_of(pi))) < 1e-6


def test_mixing_unitary_identity_permutation():
    ch = example_channel("collective_damping", n=2, p=0.5)
    U, res, udev = mixing_unitary(ch.kraus_ops, (0, 1), 2, 2)
    assert np.max(np.abs(U - np.eye(len(ch.kraus_ops)))) < 1e-12
    assert res < 1e-12 and udev < 1e-12


def test_classification_matches_superoperator_commutation():
    # classification != none exactly when the superoperator matrix
    # commutes with every permutation shuffle
    basis = operator_basis(2, 3)
    shuffles = [permutation_matrix(g, 4, 3) for g in adjacent_transpositions(3)]

    def superop_commutator(channel):
        if isinstance(channel, KrausChannel):
            S = kraus_superop(channel, basis).matrix
        else:
            S = lindblad_superop(channel, basis).matrix
        return max(float(np.max(np.abs(S @ L - L @ S))) for L in shuffles)

    for name in sorted(EXPECTED_CLASS):
        ch = example_channel(name, n=3)
        assert classify(ch).classification != "none"
        assert superop_commutator(ch) < 1e-10

    f0, f1 = damping_pair(0.5)
    lopsided = KrausChannel(
        2,
        3,
        (
            QuditOperator(2, 3, np.kron(np.kron(f0, I2), I2)),
            QuditOperator(2, 3, np.kron(np.kron(f1, I2), I2)),
        ),
    )
    assert classify(lopsided).classification == "none"
    assert superop_commutator(lopsided) > 1e-3


def test_weak_families_are_not_strong():
    for name in ("single_site_damping", "independent_damping", "single_jump", "double_jump"):
        cert = classify(example_channel(name, n=3))
        assert cert.residuals["strong_commutator"] > 1e-3


# ---------------------------------------------------------------------------
# example-family structure


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize(
    "name",
    ["collective_damping", "correlated_damping", "single_site_damping", "independent_damping"],
)
def test_damping_families_close_for_all_p(name, p):
    ch = example_channel(name, n=3, p=p)
    assert ch.closure_deviation < 1e-12


def test_collective_damping_operator_count():
    # all-sites-jump plus all-sites-survive plus one completion operator
    ch = example_channel("collective_damping", n=3, p=0.5)
    assert len(ch.kraus_ops) == 3


def test_independent_damping_is_a_product_channel():
    basis = operator_basis(2, 2)
    ch = example_channel("independent_damping", n=2, p=0.36)
    S = kraus_superop(ch, basis).matrix
    single = kraus_superop(
        single_qubit_channel(*damping_pair(0.36)), operator_basis(2, 1)
    ).matrix
    assert np.max(np.abs(S - np.kron(single, single))) < 1e-12


def test_jump_families_sizes_and_rates():
    lind = example_channel("single_jump", n=3, gamma1=0.5)
    assert len(lind.jump_ops) == 3
    for op in lind.jump_ops:
        # Frobenius weight gamma1 * 2**(n-1) from the identity factors
        assert np.vdot(op.matrix, op.matrix).real == pytest.approx(2.0)
    lind = example_channel("double_jump", n=3, gamma2=1.0)
    assert len(lind.jump_ops) == 3  # pairs (0,1), (0,2), (1,2)
    lind = example_channel("collective_jump", n=3, gamma3=1.0, gamma4=0.5, gamma5=0.25)
    assert len(lind.jump_ops) == 3
    lind = example_channel("collective_jump", n=3, gamma4=0.0)
    assert len(lind.jump_ops) == 2  # zero-rate jumps are omitted
    lind = example_channel("transverse_ising", n=3, h_x=0.7, J=0.2)
    assert lind.jump_ops == ()


def test_example_channel_argument_errors():
    with pytest.raises(ValueError, match="unknown example"):
        example_channel("no_such_family")
    with pytest.raises(ValueError, match="n >= 2"):
        example_channel("collective_damping", n=1)
    with pytest.raises(ValueError, match="decay probability"):
        example_channel("collective_damping", n=3, p=1.5)
    with pytest.raises(ValueError, match="gamma1"):
        example_channel("single_jump", n=3, gamma1=-0.1)
    with pytest.raises(ValueError, match="bad parameters"):
        example_channel("collective_damping", n=3, gamma1=1.0)


# ---------------------------------------------------------------------------
# channel description documents


def matrix_doc(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def test_channel_from_dict_kraus_round_trip():
    f0, f1 = damping_pair(0.36)
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [matrix_doc(f0), matrix_doc(f1)],
    }
    ch = channel_from_dict(doc)
    assert isinstance(ch, KrausChannel)
    assert np.max(np.abs(ch.kraus_ops[0].matrix - f0)) < 1e-15


def test_channel_from_dict_lindblad_with_hamiltonian():
    doc = {
        "d": 2,
        "n": 1,
        "kind": "lindblad",
        "hamiltonian": matrix_doc(np.diag([1.0, -1.0])),
        "operators": [matrix_doc(0.5 * LOWER)],
    }
    lind = channel_from_dict(doc)
    assert isinstance(lind, Lindbladian)
    assert len(lind.jump_ops) == 1


def test_channel_from_dict_orthogonalize_flag():
    # a unitary recombination keeps the closure exact but breaks the
    # pairwise orthogonality, so the flag decides accept vs reject
    base = example_channel("collective_damping", n=2, p=0.4)
    F = [op.matrix for op in base.kraus_ops]
    mixed = [(F[0] + F[1]) / math.sqrt(2), (F[0] - F[1]) / math.sqrt(2)] + F[2:]
    doc = {
        "d": 2,
        "n": 2,
        "kind": "kraus",
        "operators": [matrix_doc(m) for m in mixed],
    }
    with pytest.raises(ChannelInvariantError, match="orthogonal"):
        channel_from_dict(doc)
    ch = channel_from_dict({**doc, "orthogonalize": True})
    assert ch.closure_deviation < 1e-10
    basis = operator_basis(2, 2)
    assert np.max(np.abs(
        kraus_superop(ch, basis).matrix - kraus_superop(base, basis).matrix
    )) < 1e-12


def test_channel_from_dict_builder():
    doc = {
        "d": 2,
        "n": 3,
        "kind": "kraus",
        "builder": {"name": "collective_damping", "params": {"p": 0.25}},
    }
    ch = channel_from_dict(doc)
    assert isinstance(ch, KrausChannel)
    assert ch.n == 3


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("kind"), "kind"),
        (lambda d: d.pop("d"), "d: required"),
        (lambda d: d.update(d=1), "d: must be >="),
        (lambda d: d.update(kind="unitary"), "kind"),
        (lambda d: d.update(extra=1), "extra: unknown field"),
        (lambda d: d.pop("operators"), "exactly one"),
        (lambda d: d.update(builder={"name": "collective_damping"}), "exactly one"),
        (lambda d: d.update(operators=[[[0.0, 0.0]]]), "operators[0]"),
        (lambda d: d.update(orthogonalize="yes"), "orthogonalize"),
        (lambda d: d.update(hamiltonian=matrix_doc(I2)), "hamiltonian"),
    ],
)
def test_channel_from_dict_schema_errors(mutate, fragment):
    f0, f1 = damping_pair(0.5)
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [matrix_doc(f0), matrix_doc(f1)],
    }
    mutate(doc)
    with pytest.raises(ChannelSpecError, match=__import__("re").escape(fragment)):
        channel_from_dict(doc)


def test_channel_from_dict_entry_errors_carry_field_paths():
    doc = {
        "d": 2,
        "n": 1,
        "kind": "kraus",
        "operators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], "oops"]]],
    }
    with pytest.raises(ChannelSpecError, match=r"operators\[0\]\[1\]\[1\]"):
        channel_from_dict(doc)


@pytest.mark.parametrize(
    "row,message",
    [
        ([[0.0, 0.0], [True, 0.0]], "operators[1][1][1]: expected a [re, im] pair of numbers"),
        ([[0.0, 0.0], [1.0, 0.0, 0.0]], "operators[1][1][1]: expected a [re, im] pair of numbers"),
        ([[0.0, 0.0]], "operators[1][1]: expected a row of 2 entries"),
    ],
    ids=["true-entry", "three-element-entry", "short-row"],
)
def test_channel_from_dict_refusals_name_the_entry(row, message):
    # the second operator's second row is bad; the first operator and the
    # first row before it are well formed
    f0, f1 = damping_pair(0.5)
    second = matrix_doc(f1)
    second[1] = row
    doc = {"d": 2, "n": 1, "kind": "kraus", "operators": [matrix_doc(f0), second]}
    with pytest.raises(ChannelSpecError) as info:
        channel_from_dict(doc)
    assert str(info.value) == message


def test_channel_from_dict_builder_errors():
    base = {"d": 2, "n": 3, "kind": "kraus"}
    with pytest.raises(ChannelSpecError, match="builder"):
        channel_from_dict({**base, "builder": {"name": "no_such"}})
    with pytest.raises(ChannelSpecError, match="kind"):
        channel_from_dict(
            {**base, "kind": "lindblad", "builder": {"name": "collective_damping"}}
        )
    with pytest.raises(ChannelSpecError, match="d = 2"):
        channel_from_dict(
            {**base, "d": 3, "builder": {"name": "collective_damping"}}
        )
    with pytest.raises(ChannelSpecError, match="builder.name"):
        channel_from_dict({**base, "builder": {}})
    with pytest.raises(ChannelSpecError, match="not allowed together"):
        channel_from_dict(
            {
                **base,
                "builder": {"name": "collective_damping"},
                "orthogonalize": True,
            }
        )


# ---------------------------------------------------------------------------
# orthogonality relative to the operators' size


def random_traceless_jumps(seed, d=3, n=2, count=2):
    rng = np.random.default_rng(seed)
    dim = d**n
    mats = []
    for _ in range(count):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(A - np.trace(A) / dim * np.eye(dim))
    return orthogonalize_kraus(d, n, mats)


@pytest.mark.parametrize("seed", range(5))
def test_scaled_orthogonal_jumps_are_accepted(seed):
    # the Gram diagonal is ~1e6 here, so roundoff overlaps reach ~1e-9
    jumps = tuple(1e3 * m for m in random_traceless_jumps(seed))
    lind = Lindbladian(3, 2, np.zeros((9, 9)), jumps)
    assert len(lind.jump_ops) == 2


def test_scaled_non_orthogonal_jumps_are_refused():
    a, b = random_traceless_jumps(0)
    jumps = (1e3 * a, 1e3 * (b + 1e-6 * a))
    with pytest.raises(ChannelInvariantError, match="orthogonal"):
        Lindbladian(3, 2, np.zeros((9, 9)), jumps)


def test_small_operators_keep_the_absolute_orthogonality_bound():
    a, b = random_traceless_jumps(1)
    # Gram diagonal 0.25 for a: the bound stays 1e-10, not 2.5e-11
    small = 0.5 / np.sqrt(np.vdot(a, a).real / 9)
    H = np.zeros((9, 9))
    Lindbladian(3, 2, H, (small * a, small * (b + 2e-10 * a)))  # overlap ~5e-11
    with pytest.raises(ChannelInvariantError, match="orthogonal"):
        Lindbladian(3, 2, H, (small * a, small * (b + 1e-9 * a)))  # overlap ~2.5e-10
