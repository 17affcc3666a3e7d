"""The float64 path for qubits.

With Hermitian Pauli letters a Kraus channel or a Lindbladian with a
Hermitian H has a real letter-basis matrix, so at d = 2 the superoperator,
the frame, the blocks and the exponentials are float64.  These tests hold
that path against the per-column oracle and against the same calls on a
complex128 copy, check the guard on the imaginary part the kernel drops,
and check that qutrits and complex inputs stay complex.
"""

import numpy as np
import pytest

from superschur import (
    InternalConsistencyError,
    KrausChannel,
    Lindbladian,
    blockwise_exp,
    decompose,
    dfs_report,
    example_channel,
    kraus_superop,
    lindblad_superop,
    operator_basis,
    protection_check,
    super_schur_basis,
)
from superschur import blockdiag, channels, cli, liouville
from superschur.blockdiag import PROTECTION_TRIALS
from superschur.channels import EXAMPLE_CHANNELS, HERMITICITY_TOL, SuperOperatorMatrix
from superschur.liouville import single_site_letters, vectorize

from dispatch import superop, superop_columns
from superop_oracle import lindblad_superop_columns
from test_superop_kernel import random_kraus, random_lindbladian

SCALES = [1.0, 1e6]


def unchecked(cls, **fields):
    """An instance of a frozen dataclass built without its __post_init__
    checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def scaled(channel, s):
    """The same map times s.  A Kraus set scaled by sqrt(s) no longer
    closes, so it is built unchecked; the kernel does not read closure."""
    d, n = channel.d, channel.n
    if isinstance(channel, KrausChannel):
        return unchecked(KrausChannel, d=d, n=n, kraus_ops=np.sqrt(s) * channel.kraus_ops)
    return Lindbladian(d, n, s * channel.hamiltonian, np.sqrt(s) * channel.jump_ops)


def pauli_string(word):
    letters = dict(zip("IXYZ", single_site_letters(2)))
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in word:
        out = np.kron(out, letters[ch])
    return out


# ---------------------------------------------------------------------------
# the kernel against the per-column oracle


def assert_real_and_matches_oracle(channel, basis):
    got, want = superop(channel, basis), superop_columns(channel, basis)
    assert got.matrix.dtype == np.float64
    assert want.matrix.dtype == np.complex128
    bound = 1e-12 * max(1.0, float(np.max(np.abs(want.matrix))))
    assert np.max(np.abs(got.matrix - want.matrix.real)) <= bound
    assert np.max(np.abs(want.matrix.imag)) <= bound


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_real_kernel_matches_oracle_on_example_families(name, n, scale):
    channel = scaled(example_channel(name, n=n), scale)
    assert_real_and_matches_oracle(channel, operator_basis(2, n))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_kernel_matches_oracle_on_random_kraus_sets(n, scale):
    channel = random_kraus(2, n, 3, np.random.default_rng(200 + n))
    assert all(np.any(F.imag) for F in channel.kraus_ops)
    assert_real_and_matches_oracle(scaled(channel, scale), operator_basis(2, n))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_real_kernel_matches_oracle_on_random_lindbladians(n, scale):
    lind = random_lindbladian(2, n, scale, np.random.default_rng(300 + n))
    assert np.any(lind.hamiltonian.imag)
    assert all(np.any(L.imag) for L in lind.jump_ops)
    assert_real_and_matches_oracle(lind, operator_basis(2, n))


@pytest.mark.parametrize("n", [1, 2])
def test_qutrit_superoperators_and_frames_stay_complex(n):
    rng = np.random.default_rng(400 + n)
    letters, basis = operator_basis(3, n), super_schur_basis(3, n)
    for channel in (random_kraus(3, n, 3, rng), random_lindbladian(3, n, 1.0, rng)):
        M = superop(channel, letters)
        assert M.matrix.dtype == np.complex128
        decomp = decompose(M, basis)
        assert decomp.frame.dtype == np.complex128
        assert all(B.dtype == np.complex128 for B in decomp.blocks.values())


def test_superoperator_matrix_keeps_complex_input_complex():
    exactly_real = np.eye(16, dtype=np.complex128)
    kept = SuperOperatorMatrix(2, 2, "channel", exactly_real)
    assert kept.matrix.dtype == np.complex128
    assert SuperOperatorMatrix(2, 2, "channel", np.eye(16)).matrix.dtype == np.float64
    integers = np.eye(16, dtype=np.int64)
    assert SuperOperatorMatrix(2, 2, "channel", integers).matrix.dtype == np.float64


# ---------------------------------------------------------------------------
# the guard on the dropped imaginary part


def with_hamiltonian_offset(lind, offset):
    """``lind`` with ``offset`` added to H, built without the Hermiticity
    check; the jumps, and so their checked sum, are ``lind``'s."""
    H = lind.hamiltonian + offset
    return unchecked(
        Lindbladian, d=lind.d, n=lind.n, hamiltonian=H, jump_ops=lind.jump_ops, _sink=lind._sink
    )


def test_hamiltonian_just_inside_hermiticity_tol_is_accepted():
    # i a P for a Pauli string P is anti-Hermitian with max|H - H^dag| = 2a;
    # -i[i a P, P_b] = 2a P P_b for every P_b anticommuting with P, so the
    # dropped imaginary part reaches 2a, the bound's Hamiltonian allowance.
    # Weak couplings keep max|M| small, so the roundoff share alone (1e-12
    # x max|M|) would not admit it.
    n = 3
    letters = operator_basis(2, n)
    lind = example_channel("transverse_ising", n=n, h_x=0.01, J=0.01)
    offset = 1j * 0.495 * HERMITICITY_TOL * pauli_string("XIZ")
    near = Lindbladian(2, n, lind.hamiltonian + offset, lind.jump_ops)
    got = lindblad_superop(near, letters)
    assert got.matrix.dtype == np.float64
    dropped = np.max(np.abs(lindblad_superop_columns(near, letters).matrix.imag))
    assert 0.98 * HERMITICITY_TOL < dropped <= HERMITICITY_TOL
    assert 1e-12 * np.max(np.abs(got.matrix)) < 0.1 * dropped
    # keeping the real part is using the Hermitian part of H, here H itself
    assert np.max(np.abs(got.matrix - lindblad_superop(lind, letters).matrix)) <= 1e-12


def test_non_hermitian_hamiltonian_raises_internal_error():
    lind = example_channel("collective_jump", n=3)
    forced = with_hamiltonian_offset(lind, 1j * 1e-6 * pauli_string("XIZ"))
    with pytest.raises(InternalConsistencyError, match="imaginary part 2.000e-06 above the bound"):
        lindblad_superop(forced, operator_basis(2, 3))


# with a 1536-byte slab the n = 3 kernel holds the dropped imaginary parts
# of 3 of a shift group's 8 columns at a time, in chunks of 3, 3 and 2; the
# vectorize call ``taint`` gets an imaginary part, and there are 64 calls
@pytest.mark.parametrize("taint", [0, 7, 3 * 8 + 4, 63, None])
def test_imaginary_part_guard_reads_every_chunk_of_rows(taint, monkeypatch):
    monkeypatch.setattr(liouville, "_SCRATCH_BYTES", 1536)
    calls = []

    def tainted(matrix, basis):
        v = vectorize(matrix, basis)
        if len(calls) == taint:
            # imaginary part 1e-6 whatever the string's phase (+-1, +-i)
            v += 1e-6 * (1 + 1j)
        calls.append(taint)
        return v

    monkeypatch.setattr(channels, "vectorize", tainted)
    channel = example_channel("collective_damping", n=3)
    if taint is None:
        assert kraus_superop(channel, operator_basis(2, 3)).matrix.dtype == np.float64
        return
    with pytest.raises(InternalConsistencyError, match="imaginary part 1.000e-06 above the bound"):
        kraus_superop(channel, operator_basis(2, 3))


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_non_hermitian_hamiltonian_exits_4(command, tmp_path, monkeypatch, capsys):
    lind = example_channel("collective_jump", n=3)
    forced = with_hamiltonian_offset(lind, 1j * 1e-6 * pauli_string("XIZ"))
    monkeypatch.setattr(cli, "_load_channel", lambda path: (forced, None))
    assert cli.main([command, str(tmp_path / "forced.json")]) == 4
    assert "imaginary part" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the real path against the same calls on a complex128 copy


@pytest.fixture(scope="module")
def bases_3_to_5(schur_2_3, schur_2_4):
    return {3: schur_2_3, 4: schur_2_4, 5: super_schur_basis(2, 5)}


def probe_reference(decomp, seed=0):
    """protection_check's deviation, from complex products of the whole
    frame with zero-padded probe vectors."""
    basis, S = decomp.basis, decomp.frame.astype(np.complex128)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(PROTECTION_TRIALS):
        for shape, sector in basis.sectors.items():
            if sector.copies < 2:
                continue
            shape_dims = (sector.copies, sector.multiplicity)
            C = rng.standard_normal(shape_dims) + 1j * rng.standard_normal(shape_dims)
            sl = sector.columns
            v = np.zeros(basis.dim, dtype=np.complex128)
            v[sl] = C.reshape(-1)
            predicted = np.zeros_like(v)
            predicted[sl] = (C @ decomp.blocks[shape].T).reshape(-1)
            worst = max(worst, float(np.max(np.abs(S @ v - predicted))))
    return worst


def assert_close(a, b, scale):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_real_path_matches_complex_reference(name, n, bases_3_to_5):
    basis = bases_3_to_5[n]
    channel = example_channel(name, n=n)
    real = superop(channel, operator_basis(2, n))
    assert real.matrix.dtype == np.float64
    cplx = SuperOperatorMatrix(2, n, real.kind, real.matrix.astype(np.complex128))
    scale = max(1.0, float(np.max(np.abs(real.matrix))))

    dr, dc = decompose(real, basis), decompose(cplx, basis)
    assert dr.frame.dtype == np.float64 and dc.frame.dtype == np.complex128
    assert list(dr.blocks) == list(dc.blocks)
    for key, br in dr.blocks.items():
        assert br.dtype == np.float64
        assert_close(br, dc.blocks[key], scale)
    assert_close(dr.leakage, dc.leakage, scale)
    assert dr.twin_deviation.keys() == dc.twin_deviation.keys()
    for shape in dr.twin_deviation:
        assert_close(dr.twin_deviation[shape], dc.twin_deviation[shape], scale)

    assert list(dfs_report(dr).items()) == list(dfs_report(dc).items())
    probe = protection_check(dr)
    assert_close(probe, protection_check(dc), scale)
    assert_close(probe, probe_reference(dr), scale)

    if real.kind == "generator":
        for t in (0.1, 1.0):
            er, ec = blockwise_exp(dr, t), blockwise_exp(dc, t)
            assert er.schur_matrix.dtype == np.float64
            assert ec.schur_matrix.dtype == np.complex128
            for key, br in er.blocks.items():
                bc = ec.blocks[key]
                assert br.dtype == np.float64
                assert_close(br, bc, max(1.0, float(np.max(np.abs(bc)))))


def test_cli_carries_float64_from_superoperator_to_exponentials(tmp_path, monkeypatch, capsys):
    import scipy.linalg

    seen: dict[str, list] = {}

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.setdefault(name, []).append(result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    for name in ("kraus_superop", "lindblad_superop", "decompose", "blockwise_exp"):
        spy(cli, name)
    # the block exponential, and the dense one --verify-dense imports where
    # it is called
    spy(blockdiag, "_expm")
    spy(scipy.linalg, "expm")
    jump = tmp_path / "jump.json"
    jump.write_text('{"d": 2, "n": 3, "kind": "lindblad", "builder": {"name": "single_jump"}}')
    damping = tmp_path / "damping.json"
    damping.write_text('{"d": 2, "n": 3, "kind": "kraus", "builder": {"name": "collective_damping"}}')
    assert cli.main(["analyze", str(damping)]) == 0
    assert cli.main(["analyze", str(jump)]) == 0
    assert cli.main(["evolve", str(jump), "--times", "0.1,1.0", "--verify-dense"]) == 0
    capsys.readouterr()

    superops = seen["kraus_superop"] + seen["lindblad_superop"]
    assert len(superops) == 3 and all(M.matrix.dtype == np.float64 for M in superops)
    assert len(seen["decompose"]) == 3
    for decomp in seen["decompose"]:
        assert decomp.frame.dtype == np.float64
        assert all(B.dtype == np.float64 for B in decomp.blocks.values())
    assert len(seen["blockwise_exp"]) == 2
    for evolved in seen["blockwise_exp"]:
        assert all(E.dtype == np.float64 for E in evolved.blocks.values())
        assert evolved.schur_matrix.dtype == np.float64
    # one real exponential per shape and time
    assert len(seen["_expm"]) == sum(len(evolved.blocks) for evolved in seen["blockwise_exp"])
    assert all(E.dtype == np.float64 for E in seen["_expm"])
    # the --verify-dense cross-check is a real dense expm
    assert all(E.dtype == np.float64 for E in seen["expm"])
