"""Spans around the public functions the CLI calls, recorded from outside.

The traced run replaces names looked up by ``superschur.cli``,
``superschur.blockdiag``, ``superschur.schur`` and ``superschur.channels``
with wrappers that record a span (name, parent, start, end, rise of the
process high-water mark) per call, plus counts taken from the values that
cross the boundary.  Nothing in the package is edited; ``Tracer.uninstall``
puts every original back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    ident: int
    parent: int | None
    job: int
    name: str
    start: float
    end: float = 0.0
    rss_rise_mb: float = 0.0
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    """Records nested spans for one process; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self._job = 0
        self._dense_ids: set[int] = set()
        self._dims: set[tuple[int, int]] = set()
        self._shapes = 0

    # -- recording -----------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.ident if parent else None, self._job, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        rss0 = _maxrss_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.rss_rise_mb = _maxrss_mb() - rss0
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.seconds

    def job(self, fn, *args):
        """Run one CLI job as the root span ``cli.job``."""
        self._job += 1
        self._dense_ids.clear()
        return self.call("cli.job", fn, *args)

    def _note_dense(self, array) -> None:
        # every (d^2)^n x (d^2)^n array seen at a boundary, once per job
        if id(array) not in self._dense_ids:
            self._dense_ids.add(id(array))
            self.counts["dense.bytes_computed"] += array.nbytes

    # -- installation --------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                t0 = time.perf_counter()
                after(result, *args)
                # counting is tracer work: keep it out of the caller's self time
                if tracer._stack:
                    tracer._stack[-1].child_s += time.perf_counter() - t0
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from superschur import blockdiag, channels, cli, schur

        def superop_done(result, *_):
            self._note_dense(result.matrix)

        def basis_done(basis, d, n):
            self._dims.add((d, n))
            U = basis.unitary
            self.counts["schur.unitary_nnz"] += np.count_nonzero(U)
            self.counts["schur.unitary_entries"] += U.size
            self._note_dense(U)

        def frame_done(S, *_):
            N = S.shape[0]
            # two complex N x N products, 8 real flops per multiply-add
            self.counts["blockdiag.conj_flops_computed"] += 16.0 * N**3
            self._note_dense(S)

        def exp_done(result, *_):
            self.counts["blockdiag.blocks_exponentiated"] += len(result.blocks)
            self._shapes += len(result.basis.shapes)
            self._note_dense(result.schur_matrix)

        self._wrap(cli, "_load_channel", "channels.load")
        self._wrap(cli, "operator_basis", "liouville.operator_basis")
        self._wrap(cli, "kraus_superop", "channels.superop", superop_done)
        self._wrap(cli, "lindblad_superop", "channels.superop", superop_done)
        self._wrap(channels, "vectorize", "liouville.vectorize")
        self._wrap(cli, "classify_kraus_symmetry", "channels.certificate")
        self._wrap(cli, "classify_lindblad_symmetry", "channels.certificate")
        self._wrap(cli, "super_schur_basis", "schur.basis", basis_done)
        self._wrap(schur, "irrep_matrices", "schur.irrep_matrices")
        self._wrap(schur.SuperSchurBasis, "unitarity_deviation", "schur.unitarity_check")
        self._wrap(cli, "decompose", "blockdiag.decompose")
        self._wrap(blockdiag, "to_schur_frame", "blockdiag.to_schur_frame", frame_done)
        self._wrap(cli, "dfs_report", "blockdiag.dfs_report")
        self._wrap(cli, "protection_check", "blockdiag.protection")
        self._wrap(cli, "blockwise_exp", "blockdiag.blockwise_exp", exp_done)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def negative_self_times(self) -> list[Span]:
        return [s for s in self.spans if s.self_s < 0.0]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over the whole run, keyed by metric name."""
        seconds: dict[str, float] = defaultdict(float)
        rss: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s in self.spans:
            seconds[s.name] += s.seconds
            rss[s.name] += s.rss_rise_mb
            calls[s.name] += 1
        cli_self = sum(s.self_s for s in self.spans if s.name == "cli.job")
        c = self.counts
        builds = calls["schur.basis"]
        blocks = c["blockdiag.blocks_exponentiated"]
        return {
            "cli.self_s": (cli_self, "s"),
            "channels.load_s": (seconds["channels.load"], "s"),
            "channels.superop_s": (seconds["channels.superop"], "s"),
            "channels.superop_rss_mb": (rss["channels.superop"], "MB"),
            "channels.certificate_s": (seconds["channels.certificate"], "s"),
            "liouville.operator_basis_s": (seconds["liouville.operator_basis"], "s"),
            "liouville.vectorize_s": (seconds["liouville.vectorize"], "s"),
            "liouville.vectorize_calls": (calls["liouville.vectorize"], "count"),
            "schur.basis_s": (seconds["schur.basis"], "s"),
            "schur.irrep_matrices_s": (seconds["schur.irrep_matrices"], "s"),
            "schur.unitarity_check_s": (seconds["schur.unitarity_check"], "s"),
            "schur.basis_rss_mb": (rss["schur.basis"], "MB"),
            "schur.basis_builds": (builds, "count"),
            "schur.basis_reuse": (len(self._dims) / builds if builds else 0.0, "ratio"),
            "schur.unitary_nnz_share": (
                c["schur.unitary_nnz"] / c["schur.unitary_entries"]
                if c["schur.unitary_entries"] else 0.0, "ratio"),
            "blockdiag.decompose_s": (seconds["blockdiag.decompose"], "s"),
            "blockdiag.to_schur_frame_s": (seconds["blockdiag.to_schur_frame"], "s"),
            "blockdiag.decompose_rss_mb": (rss["blockdiag.decompose"], "MB"),
            "blockdiag.conj_flops_computed": (c["blockdiag.conj_flops_computed"], "flop"),
            "dense.bytes_computed": (c["dense.bytes_computed"], "B"),
            "blockdiag.blockwise_exp_s": (seconds["blockdiag.blockwise_exp"], "s"),
            "blockdiag.blocks_exponentiated": (blocks, "count"),
            "blockdiag.unique_block_share": (self._shapes / blocks if blocks else 0.0,
                                             "ratio"),
            "blockdiag.dfs_report_s": (seconds["blockdiag.dfs_report"], "s"),
            "blockdiag.protection_s": (seconds["blockdiag.protection"], "s"),
        }
