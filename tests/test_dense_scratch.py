"""The dense path's scratch: one shift-group stack and one slab beside the
(d*d)**n square array.

The superoperator kernel and the frame conjugation run every temporary
larger than ``liouville._SCRATCH_BYTES`` in chunks of columns.  A chunk
splits the output of a BLAS product, never a sum, and starts at a multiple
of the BLAS tile width, so at d = 2 the chunked matrices are bitwise the
unchunked ones.  Every size the default cap admits at d = 3, and at d = 2
up to n = 5, fits one slab and makes the unchunked calls.
"""

import tracemalloc

import numpy as np
import pytest

from superschur import (
    EXAMPLE_CHANNELS,
    decompose,
    example_channel,
    lindblad_superop,
    operator_basis,
    super_schur_basis,
)
from superschur import blockdiag, channels, liouville

from dispatch import superop
from test_superop_kernel import EXPLICIT_FILES, random_kraus, random_lindbladian

# small enough that every product at n >= 3 runs in several chunks, and the
# kernel keeps fewer imaginary rows than one shift group has
SMALL_SLAB = 2 * 1024
MiB = 2**20


def superop_and_decomposition(channel):
    """The letter-basis matrix (a copy: decompose consumes it) and the
    decomposition of ``channel``."""
    basis = operator_basis(channel.d, channel.n)
    M = superop(channel, basis)
    matrix = M.matrix.copy()
    return matrix, decompose(M, super_schur_basis(channel.d, channel.n))


def chunked_and_whole(channel, monkeypatch):
    whole = superop_and_decomposition(channel)
    with monkeypatch.context() as patch:
        patch.setattr(liouville, "_SCRATCH_BYTES", SMALL_SLAB)
        chunked = superop_and_decomposition(channel)
    return chunked, whole


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_chunked_path_is_bitwise_the_whole_path_at_d2(name, n, monkeypatch):
    (M, decomp), (M0, decomp0) = chunked_and_whole(example_channel(name, n=n), monkeypatch)
    assert np.array_equal(M, M0)
    assert np.array_equal(decomp.frame, decomp0.frame)
    assert list(decomp.blocks) == list(decomp0.blocks)
    assert all(np.array_equal(decomp.blocks[s], B) for s, B in decomp0.blocks.items())
    assert decomp.leakage == decomp0.leakage
    assert decomp.twin_deviation == decomp0.twin_deviation


D3_MAPS = {name: EXPLICIT_FILES[name] for name in ("kraus_d3n3", "lindblad_d3n3")}


@pytest.mark.parametrize("name", sorted(D3_MAPS))
def test_chunked_path_agrees_with_the_whole_path_at_d3(name, monkeypatch):
    # 9**n columns are no whole number of BLAS tiles, so the chunks' last
    # columns take BLAS's edge kernels and may differ in the last bits; no
    # d = 3 size under the default cap is chunked
    (M, decomp), (M0, decomp0) = chunked_and_whole(D3_MAPS[name], monkeypatch)
    tol = 1e-13 * np.max(np.abs(M0))
    assert np.max(np.abs(M - M0)) <= tol
    assert np.max(np.abs(decomp.frame - decomp0.frame)) <= tol
    assert all(np.max(np.abs(decomp.blocks[s] - B)) <= tol for s, B in decomp0.blocks.items())
    assert abs(decomp.leakage - decomp0.leakage) <= tol
    for shape, deviation in decomp0.twin_deviation.items():
        assert abs(decomp.twin_deviation[shape] - deviation) <= tol


def under_the_cap():
    """One map per (d, n) the default cap admits at d = 3, and at d = 2 up
    to n = 5: builder families where they exist, else random maps."""
    rng = np.random.default_rng(11)
    maps = [random_kraus(2, 1, 2, rng), random_lindbladian(2, 1, 1.0, rng)]
    maps += [example_channel(name, n=n) for name in EXAMPLE_CHANNELS for n in range(2, 6)]
    maps += [random_kraus(3, n, 2, rng) for n in (1, 2)]
    maps += [random_lindbladian(3, n, 1.0, rng) for n in (1, 2)]
    return maps + list(D3_MAPS.values())


def test_every_size_under_the_cap_fits_one_slab(monkeypatch):
    counts = []

    def counting(*args):
        chunks = liouville._column_chunks(*args)
        counts.append(len(chunks))
        return chunks

    monkeypatch.setattr(channels, "_column_chunks", counting)
    monkeypatch.setattr(blockdiag, "_column_chunks", counting)
    for channel in under_the_cap():
        counts.clear()
        superop_and_decomposition(channel)
        # the kernel once, each row pass once per class
        assert len(counts) > 1 and set(counts) == {1}


def test_n6_scratch_is_one_group_stack_and_slabs_beside_the_frame():
    n = 6
    lind = example_channel("collective_jump", n=n)
    basis, frame_basis = operator_basis(2, n), super_schur_basis(2, n)
    D, K = 2**n, len(lind.jump_ops)
    slab = liouville._SCRATCH_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        M = lindblad_superop(lind, basis)
        kernel_peak = tracemalloc.get_traced_memory()[1] - base - M.matrix.nbytes
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        decomp = decompose(M, frame_basis)
        decompose_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the group stack T (complex: the generator has one-sided terms), the
    # gather of the F rows and the buffer of a group's F^dag rows, two slabs
    stack, gathers = 16 * D**3, 2 * 16 * K * D**2
    assert kernel_peak <= stack + gathers + 2 * slab, f"{kernel_peak / MiB:.2f} MiB"
    blocks = sum(B.nbytes for B in decomp.blocks.values())
    assert decompose_peak <= slab + blocks, f"{decompose_peak / MiB:.2f} MiB"


@pytest.mark.parametrize("name", sorted(EXAMPLE_CHANNELS))
def test_n6_chunks_are_bitwise_one_chunk(name, monkeypatch):
    # at n = 6 the default slab chunks the kernel's products and every row
    # pass of the conjugation into BLAS calls big enough for the blocked
    # kernels, whose last columns take another path when a split cuts a tile
    channel = example_channel(name, n=6)
    basis, frame_basis = operator_basis(2, 6), super_schur_basis(2, 6)
    chunked = decompose(superop(channel, basis), frame_basis)
    with monkeypatch.context() as patch:
        patch.setattr(liouville, "_SCRATCH_BYTES", 16 * MiB)
        whole = decompose(superop(channel, basis), frame_basis)
    assert np.array_equal(chunked.frame, whole.frame)
