"""Property tests on random qubit Lindbladians and channel-file matrices.

A generator built from collective sums of one single-site Hamiltonian and
one traceless jump is S_n-symmetric: it must decompose into one block per
shape, and its blockwise exponential must match the dense one in the
frame.  The same pieces with a different weight on every site break the
symmetry, and the blockwise exponential must refuse them.

A matrix of a channel file, rows of [re, im] number pairs, must convert
bit for bit to the complex matrix of those pairs, and one with one or two
corrupt rows or entries must be refused, naming the first in reading order.

A map holds its operators as one stack, so the same matrices given as a
list, a tuple or a stacked array must give the same bits in every stage.
"""

import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from superschur import (
    BlockStructureError,
    ChannelSpecError,
    InternalConsistencyError,
    KrausChannel,
    Lindbladian,
    blockwise_exp,
    channels,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    decompose,
    kraus_superop,
    lindblad_superop,
    operator_basis,
    orthogonalize_kraus,
    protection_check,
    super_schur_basis,
)
from superschur.blockdiag import PROTECTION_TRIALS
from superschur.channels import _parse_matrix

PROPERTY_SETTINGS = settings(max_examples=12, derandomize=True, database=None, deadline=None)
# parsing a matrix takes microseconds, so these draw many more examples
PARSE_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def single_site(draw):
    """A Hermitian h and a traceless jump l of unit Frobenius norm."""
    a, b, c, e = (draw(unit) for _ in range(4))
    h = np.array([[a, b + 1j * c], [b - 1j * c, e]])
    x, y, z = (draw(unit) + 1j * draw(unit) for _ in range(3))
    jump = np.array([[x, y], [z, -x]])
    norm = np.linalg.norm(jump)
    jump = jump / norm if norm > 1e-3 else np.array([[0.0, 1.0], [0.0, 0.0]])
    return h, jump


def on_site(op, k, n):
    return reduce(np.kron, [op if j == k else np.eye(2) for j in range(n)])


def generator(n, h, jump, weights, collective):
    """H = sum_k w_k h_k, and one collective jump sum_k w_k l_k or one
    jump sqrt(w_k) l_k per site (orthogonal, l being traceless)."""
    H = sum(w * on_site(h, k, n) for k, w in enumerate(weights))
    if collective:
        jumps = [sum(w * on_site(jump, k, n) for k, w in enumerate(weights))]
    else:
        jumps = [np.sqrt(w) * on_site(jump, k, n) for k, w in enumerate(weights)]
    return Lindbladian(2, n, H, tuple(jumps))


@pytest.mark.parametrize("collective", [True, False], ids=["collective", "per-site"])
@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), ops=single_site(), t=st.floats(0.0, 2.0))
def test_symmetric_generators_decompose_and_exponentiate_by_shape(collective, n, ops, t):
    basis = super_schur_basis(2, n)
    lind = generator(n, *ops, [1.0] * n, collective)
    decomp = decompose(lindblad_superop(lind, operator_basis(2, n)), basis)
    assert list(decomp.blocks) == list(basis.shapes)
    evolved = blockwise_exp(decomp, t)
    assert list(evolved.blocks) == list(basis.shapes)
    scale = max(1.0, max(float(np.max(np.abs(E))) for E in evolved.blocks.values()))
    assert np.max(np.abs(evolved.schur_matrix - expm(t * decomp.frame))) <= 1e-10 * scale


@pytest.mark.parametrize("collective", [True, False], ids=["collective", "per-site"])
@PROPERTY_SETTINGS
@given(n=st.integers(2, 4), ops=single_site(), step=st.floats(0.1, 1.0))
def test_site_dependent_generators_are_refused(collective, n, ops, step):
    basis = super_schur_basis(2, n)
    # the jump alone breaks the symmetry: its weights differ by step or more
    lind = generator(n, *ops, [1.0 + k * step for k in range(n)], collective)
    decomp = decompose(lindblad_superop(lind, operator_basis(2, n)), basis)
    assert list(decomp.blocks) == list(basis.shapes)
    with pytest.raises(BlockStructureError, match="exceeds tolerance"):
        blockwise_exp(decomp, 1.0)


# --------------------------------------------------------------------------
# the protection probe

# roundoff allowance of the probe bound, in units of eps * max|frame| * ||v||_1
PROBE_ULPS = 4


def probe_norm1(basis, seed):
    """The largest ||v||_1 among the probe vectors v that protection_check
    draws from default_rng(seed), replaying its draws in its order."""
    rng = np.random.default_rng(seed)
    norms = [0.0]
    for _ in range(PROTECTION_TRIALS):
        for shape in basis.shapes:
            if basis.syt_count(shape) >= 2:
                size = (basis.syt_count(shape), basis.multiplicity(shape))
                C = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                norms.append(float(np.sum(np.abs(C))))
    return max(norms)


@pytest.mark.parametrize("kind", ["symmetric", "site-weighted", "kraus"])
@PROPERTY_SETTINGS
@given(
    n=st.integers(2, 4),
    ops=single_site(),
    collective=st.booleans(),
    map_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_protection_probe_is_bounded_by_leakage_and_twin_deviation(
    kind, n, ops, collective, map_seed, seed
):
    # the probe reads only frame entries decompose has measured: each entry
    # of S v - (B (x) I) v sums entries outside the blocks (leakage) or
    # differences of twin blocks, each weighted by an entry of v
    basis, letters = super_schur_basis(2, n), operator_basis(2, n)
    if kind == "kraus":
        # the blocks of a random isometry: a Kraus set, orthogonal or not
        rng = np.random.default_rng(map_seed)
        D, count = 2**n, 1 + map_seed % 3
        A = rng.standard_normal((2, count * D, D))
        Q = np.linalg.qr(A[0] + 1j * A[1])[0]
        superop = kraus_superop(KrausChannel(2, n, Q.reshape(count, D, D)), letters)
    else:
        weights = [1.0 + (kind == "site-weighted") * 0.5 * k for k in range(n)]
        superop = lindblad_superop(generator(n, *ops, weights, collective), letters)
    decomp = decompose(superop, basis)
    if n == 2:
        # every qubit shape at n = 2 has one tableau: there is nothing to probe
        with pytest.raises(BlockStructureError, match="protected dimension >= 2"):
            protection_check(decomp, seed)
        return
    probe = protection_check(decomp, seed)
    norm1 = probe_norm1(basis, seed)
    measured = max(decomp.leakage, max(decomp.twin_deviation.values()))
    roundoff = PROBE_ULPS * np.finfo(np.float64).eps * float(np.max(np.abs(decomp.frame))) * norm1
    assert probe <= measured * norm1 + roundoff


# --------------------------------------------------------------------------
# channel-file matrices

# every real number float64 holds, and integers up to 2**1023
number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**1023), 2**1023),
)
# (d, n) = (2, 1), (3, 1) and (2, 2)
dims = st.sampled_from([2, 3, 4])


@st.composite
def well_formed(draw, dim):
    return [[[draw(number), draw(number)] for _ in range(dim)] for _ in range(dim)]


def bits(m):
    return np.asarray(m, dtype=np.complex128).view(np.uint64)


@PARSE_SETTINGS
@given(data=st.data(), dim=dims)
def test_well_formed_matrices_convert_bit_for_bit(data, dim):
    obj = data.draw(well_formed(dim))
    got = _parse_matrix(obj, "operators[0]", dim)
    want = [[complex(re, im) for re, im in row] for row in obj]
    assert got.shape == (dim, dim)
    assert np.array_equal(bits(got), bits(want))


ROW_KINDS = {
    "short row": lambda row: row[:-1],
    "not a list": lambda row: 1.0,
}
PAIR_KINDS = {
    "one number": lambda pair: pair[:1],
    "three numbers": lambda pair: pair + [0.0],
    "bare number": lambda pair: pair[0],
    "bool": lambda pair: [True, pair[1]],
    "string": lambda pair: [pair[0], "1"],
}
NON_FINITE_KINDS = {
    "nan": lambda pair: [float("nan"), pair[1]],
    "inf": lambda pair: [pair[0], float("-inf")],
    "int beyond float64": lambda pair: [2**1024, pair[1]],
}
KINDS = {**ROW_KINDS, **PAIR_KINDS, **NON_FINITE_KINDS}


@PARSE_SETTINGS
@given(data=st.data(), dim=dims, count=st.integers(1, 2))
def test_corrupt_matrices_are_refused_at_the_first_bad_row_or_entry(data, dim, count):
    obj = data.draw(well_formed(dim))
    cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    cells = data.draw(st.lists(cell, min_size=count, max_size=count, unique=True))
    kinds = [data.draw(st.sampled_from(sorted(KINDS))) for _ in cells]
    found = []  # (row, column or -1 for the row itself, message)
    for (r, c), kind in zip(cells, kinds):
        if kind in PAIR_KINDS or kind in NON_FINITE_KINDS:
            obj[r][c] = KINDS[kind](obj[r][c])
            words = "entries must be finite" if kind in NON_FINITE_KINDS else (
                "expected a [re, im] pair of numbers")
            found.append((r, c, f"operators[0][{r}][{c}]: {words}"))
    # after the entries, so a corrupt row replaces the entries it held
    for (r, c), kind in zip(cells, kinds):
        if kind in ROW_KINDS:
            obj[r] = ROW_KINDS[kind](obj[r])
            found.append((r, -1, f"operators[0][{r}]: expected a row of {dim} entries"))
    # a row is read before its entries
    first = min(found)[2]
    with pytest.raises(ChannelSpecError, match=re.escape(first)) as err:
        _parse_matrix(obj, "operators[0]", dim)
    assert str(err.value) == first


def test_a_refusal_the_entrywise_walk_cannot_locate_is_an_internal_error(monkeypatch):
    # the bulk check and the walk hold one rule; were they to disagree, the
    # walk finds no bad entry and says so instead of returning a matrix
    monkeypatch.setattr(channels, "_bulk_pairs", lambda obj, dim: None)
    with pytest.raises(InternalConsistencyError, match="no row or entry is ill-formed"):
        _parse_matrix([[[1.0, 0.0]]], "operators[0]", 1)


@PROPERTY_SETTINGS
@given(
    dn=st.sampled_from([(2, 1), (2, 2), (3, 1)]),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_list_a_tuple_and_a_stack_of_operators_give_the_same_bits(dn, count, seed):
    d, n = dn
    D = d**n
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # a random isometry cut into Kraus operators, and traceless jumps
    Q = np.linalg.qr(gaussian(count * D, D))[0]
    kraus = orthogonalize_kraus(d, n, [Q[k * D : (k + 1) * D] for k in range(count)])
    L = gaussian(count, D, D)
    L -= np.trace(L, axis1=1, axis2=2)[:, None, None] / D * np.eye(D)
    jumps = orthogonalize_kraus(d, n, L)
    B = gaussian(D, D)
    H = (B + B.conj().T) / 2
    letters = operator_basis(d, n)

    def bits(ch, superop, classify):
        cert = classify(ch)
        units = [cert.generator_unitaries[g].tobytes() for g in sorted(cert.generator_unitaries)]
        closure = getattr(ch, "closure_deviation", None)
        matrix = superop(ch, letters).matrix.tobytes()
        return matrix, cert.classification, cert.residuals, units, closure

    maps = [
        (lambda ops: KrausChannel(d, n, ops), kraus_superop, classify_kraus_symmetry, kraus),
        (lambda ops: Lindbladian(d, n, H, ops), lindblad_superop, classify_lindblad_symmetry,
         jumps),
    ]
    for build, superop, classify, ops in maps:
        want = bits(build(list(ops)), superop, classify)
        assert bits(build(tuple(ops)), superop, classify) == want
        assert bits(build(np.stack(ops)), superop, classify) == want
