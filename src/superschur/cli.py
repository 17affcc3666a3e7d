"""Command-line front end.

Subcommands: ``decompose`` (sector dimension table), ``schur-basis``
(labelled basis export), ``analyze`` (full pipeline on a channel
description file), ``evolve`` (blockwise Lindblad exponentials), and
``verify`` (self-check suites).  Human-readable text goes to stdout;
``--out`` writes a machine-readable JSON document whose bytes depend only
on the input and the seed (timings are printed, never serialized).

Exit codes: 0 success, 1 usage, 2 unreadable/ill-formed input, 3 input
violating a structural invariant, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from scipy.linalg import expm

from .blockdiag import (
    BlockDecomposition,
    blockwise_exp,
    decompose,
    dfs_report,
    protection_check,
)
from .channels import (
    STRONG_TOL,
    WEAK_TOL,
    CLOSURE_TOL,
    KrausChannel,
    Lindbladian,
    channel_from_dict,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
)
from .combinatorics import (
    Partition,
    count_partitions_k_rows,
    partitions,
    syt_dimension,
    weyl_dimension,
)
from .errors import (
    BasisLayoutError,
    BlockStructureError,
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    InternalConsistencyError,
    SizeGuardError,
)
from .liouville import check_liouville_dim, operator_basis
from .schur import UNITARITY_TOL, ColumnLabel, SuperSchurBasis, super_schur_basis
from . import verify as _verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4

PROTECTION_TRIALS = 5


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Partition):
        return list(obj.parts)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _measured(value: float, tol: float) -> dict:
    return {"value": float(value), "tol": float(tol)}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _local_dim(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"local dimension must be >= 2, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _time_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            t = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad time value {piece!r}")
        # exp(t G) of a Lindblad generator is a channel only for t >= 0
        if not (np.isfinite(t) and t >= 0.0):
            raise argparse.ArgumentTypeError(
                f"time values must be finite and non-negative, got {piece!r}"
            )
        out.append(t)
    if not out:
        raise argparse.ArgumentTypeError("need at least one time value")
    return out


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    n, d = args.n, args.d
    rows = []
    for shape in partitions(n, min(n, d * d)):
        syt = syt_dimension(shape)
        weyl = weyl_dimension(shape, d * d)
        rows.append((shape, syt, weyl))
    total = sum(syt * weyl for _, syt, weyl in rows)
    liouville = (d * d) ** n
    counts = [count_partitions_k_rows(n, k) for k in range(1, min(n, d * d) + 1)]
    elapsed = time.perf_counter() - t0

    print(f"sector decomposition for n={n} qudits of dimension d={d}")
    width = max(12, max(len(str(shape)) for shape, _, _ in rows) + 1)
    print(f"{'partition':<{width}} {'protected':>9} {'noisy':>9} {'product':>11}")
    for shape, syt, weyl in rows:
        print(f"{str(shape):<{width}} {syt:>9} {weyl:>9} {syt * weyl:>11}")
    print(f"total {total} = (d^2)^n = {liouville}")
    counts_text = " ".join(f"p_{k}({n})={c}" for k, c in enumerate(counts, start=1))
    print(f"sectors: {len(rows)}; partitions of {n} by row count: {counts_text}")
    print(f"[time] decomposition table: {elapsed:.3f} s")
    if total != liouville:
        raise InternalConsistencyError(f"dimension sum {total} != {liouville}")

    if args.out:
        _write_json(
            args.out,
            {
                "command": "decompose",
                "d": d,
                "n": n,
                "sectors": [
                    {
                        "partition": list(shape.parts),
                        "protected_dim": syt,
                        "noisy_dim": weyl,
                        "product": syt * weyl,
                    }
                    for shape, syt, weyl in rows
                ],
                "sector_count": len(rows),
                "partition_counts_by_rows": counts,
                "total": total,
                "liouville_dim": liouville,
            },
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# schur-basis


def _string_label(index: int, base: int, n: int) -> str:
    digits = []
    for _ in range(n):
        digits.append(index % base)
        index //= base
    digits.reverse()
    if base <= 10:
        return "".join(str(x) for x in digits)
    return ",".join(str(x) for x in digits)


def _parse_string_label(text: str, base: int, n: int) -> int:
    if base <= 10:
        digits = [int(ch) for ch in text]
    else:
        digits = [int(x) for x in text.split(",")]
    if len(digits) != n or any(not 0 <= x < base for x in digits):
        raise ValueError(f"bad letter string {text!r}")
    index = 0
    for x in digits:
        index = index * base + x
    return index


AMPLITUDE_CUTOFF = 1e-14


def write_basis_file(basis: SuperSchurBasis, path: str) -> None:
    """Serialize the basis: a header, then per column a label record
    followed by its nonzero amplitudes (one letter string per line)."""
    q = basis.d * basis.d
    U = basis.unitary
    lines = [f"d={basis.d} n={basis.n} columns={len(basis.labels)}"]
    for j, lab in enumerate(basis.labels):
        lam = ",".join(str(p) for p in lab.shape.parts)
        wt = ",".join(str(c) for c in lab.weight)
        lines.append(f"lambda={lam} Y={lab.tableau_index} weight={wt} w_index={lab.weight_index}")
        col = U[:, j]
        for idx in np.nonzero(np.abs(col) >= AMPLITUDE_CUTOFF)[0]:
            amp = col[idx]
            lines.append(
                f"{_string_label(int(idx), q, basis.n)} "
                f"{float(amp.real)!r} {float(amp.imag)!r}"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _key_values(line: str, required: tuple[str, ...]) -> dict[str, str]:
    """The key=value tokens of a header or label line."""
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"token {token!r} is not key=value")
        fields[key] = value
    missing = [key + "=" for key in required if key not in fields]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    return fields


def read_basis_file(path: str) -> SuperSchurBasis:
    """Inverse of :func:`write_basis_file` (amplitudes below the write
    cutoff come back as zeros).  The basis is real, like a built one.

    Each refusal raises ValueError naming the file and the line at fault: a
    header without d=, n= and columns=, or with d < 2, n < 1 or columns
    other than (d*d)**n; a malformed label or amplitude line; a nonzero
    imaginary amplitude; an amplitude whose letter string lies outside its
    label's weight= class; labels whose content classes do not tile the
    space; and labels that break the layout ``write_basis_file`` emits: a
    ``lambda=`` that is not a partition of n with at most d*d rows, a
    ``Y=`` outside ``[0, syt_dimension(shape))``, a shape whose labels are
    not contiguous, tableau indices of one shape with unequal counts, or a
    ``w_index=`` that does not count up from 0 within its (shape, Y,
    weight).  The size guard applies before anything is allocated.  A
    file whose columns are not orthonormal to ``UNITARITY_TOL`` is refused
    with the measured deviation.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty basis file")
        try:
            header = _key_values(first, ("d", "n", "columns"))
            d, n, columns = int(header["d"]), int(header["n"]), int(header["columns"])
            if d < 2 or n < 1:
                raise ValueError(f"need d >= 2 and n >= 1, got d={d} n={n}")
            if columns != (d * d) ** n:
                raise ValueError(f"columns={columns}, but (d*d)**n = {(d * d) ** n}")
        except ValueError as exc:
            raise ValueError(f"{path}:1: {exc}") from None
        dim = check_liouville_dim(d, n)
        lines = [line.rstrip("\n") for line in fh]
    q = d * d
    labels: list[ColumnLabel] = []
    label_lines: list[int] = []
    rows: list[int] = []
    values: list[float] = []
    value_lines: list[int] = []
    cols: list[int] = []
    seen: set[int] = set()  # rows already given for the current column
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        try:
            if line.startswith("lambda="):
                if len(labels) == columns:
                    raise ValueError(f"more lambda= labels than the header's columns={columns}")
                fields = _key_values(line, ("lambda", "Y", "weight", "w_index"))
                shape = Partition(tuple(int(x) for x in fields["lambda"].split(",")))
                weight = tuple(int(x) for x in fields["weight"].split(","))
                labels.append(
                    ColumnLabel(shape, int(fields["Y"]), weight, int(fields["w_index"]))
                )
                label_lines.append(lineno)
                seen.clear()
                continue
            if not labels:
                raise ValueError("amplitude line before the first lambda= label")
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"amplitude line needs 3 fields (string re im), got {len(parts)}"
                )
            string, re_text, im_text = parts
            row = _parse_string_label(string, q, n)
            if row in seen:
                raise ValueError(f"repeated amplitude for {string} in column {len(labels) - 1}")
            seen.add(row)
            value = float(re_text)
            if float(im_text) != 0.0:
                raise ValueError(f"nonzero imaginary amplitude {im_text} for {string}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        rows.append(row)
        cols.append(len(labels) - 1)
        values.append(value)
        value_lines.append(lineno)
    if len(labels) != columns:
        raise ValueError(f"{path}: header says {columns} columns, found {len(labels)}")
    U = np.zeros((dim, columns))
    U[rows, cols] = values
    try:
        basis = SuperSchurBasis.from_unitary(d, n, U, labels)
    except BasisLayoutError as exc:
        # the counts are checked above, so the fault is one entry or one class
        if exc.row is None:
            lineno = label_lines[exc.column]
        else:
            lineno = value_lines[list(zip(rows, cols)).index((exc.row, exc.column))]
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    dev = basis.unitarity_deviation()
    if not dev <= UNITARITY_TOL:
        raise ValueError(
            f"{path}: basis is not unitary: deviation {dev:.3e} "
            f"> UNITARITY_TOL {UNITARITY_TOL:.1e}"
        )
    return basis


def cmd_schur_basis(args) -> int:
    t0 = time.perf_counter()
    basis = super_schur_basis(args.d, args.n)
    built = time.perf_counter() - t0
    write_basis_file(basis, args.out)
    print(f"wrote {len(basis.labels)} columns for d={args.d}, n={args.n} to {args.out}")
    print(f"unitarity deviation: {basis.unitarity_deviation():.3e}")
    print(f"[time] basis construction: {built:.3f} s")
    return EXIT_OK


# --------------------------------------------------------------------------
# analyze / evolve shared plumbing


def _load_channel(path: str):
    """Parse a channel description file, keeping the builder stanza for
    the report echo."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelSpecError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ChannelSpecError(f"{path}: not valid JSON: {exc}") from None
    channel = channel_from_dict(doc)
    builder = doc.get("builder") if isinstance(doc, dict) else None
    return channel, builder


def _input_echo(args, channel, builder) -> dict:
    echo = {
        "path": args.channel_file,
        "d": channel.d,
        "n": channel.n,
        "kind": "kraus" if isinstance(channel, KrausChannel) else "lindblad",
        "builder": builder,
    }
    if isinstance(channel, KrausChannel):
        echo["operator_count"] = len(channel.kraus_ops)
    else:
        echo["operator_count"] = len(channel.jump_ops)
    return echo


def _pipeline(channel, tol: float):
    """Certificate, basis and block decomposition for a channel.

    The letter-basis superoperator is not returned, so it is freed as soon
    as the decomposition holds the frame matrix.
    """
    ob = operator_basis(channel.d, channel.n)
    t0 = time.perf_counter()
    if isinstance(channel, KrausChannel):
        superop = kraus_superop(channel, ob)
        cert = classify_kraus_symmetry(channel)
    else:
        superop = lindblad_superop(channel, ob)
        cert = classify_lindblad_symmetry(channel)
    t1 = time.perf_counter()
    basis = super_schur_basis(channel.d, channel.n)
    t2 = time.perf_counter()
    decomp = decompose(superop, basis, tol=tol)
    t3 = time.perf_counter()
    times = {"superoperator": t1 - t0, "basis": t2 - t1, "decompose": t3 - t2}
    return cert, basis, decomp, times


def _certificate_payload(cert) -> dict:
    tols = {
        "strong_commutator": STRONG_TOL,
        "expansion_residual": WEAK_TOL,
        "unitarity": WEAK_TOL,
        "hamiltonian_invariance": STRONG_TOL,
    }
    return {
        "classification": cert.classification,
        "residuals": {
            name: _measured(value, tols[name]) for name, value in cert.residuals.items()
        },
    }


def cmd_analyze(args) -> int:
    channel, builder = _load_channel(args.channel_file)
    cert, basis, decomp, times = _pipeline(channel, args.tol)
    report = dfs_report(decomp, cert)
    protection = None
    if any(basis.syt_count(s) >= 2 for s in basis.shapes):
        protection = protection_check(decomp, trials=PROTECTION_TRIALS, seed=args.seed)

    echo = _input_echo(args, channel, builder)
    source = f"builder {builder['name']}" if builder else "explicit operators"
    print(f"input: {echo['kind']} channel, d={echo['d']}, n={echo['n']}, "
          f"{echo['operator_count']} operators, {source} ({args.channel_file})")
    print(f"classification: {cert.classification}")
    tols = _certificate_payload(cert)["residuals"]
    for name in sorted(cert.residuals):
        print(f"  {name:<24} {cert.residuals[name]:.3e}  (tol {tols[name]['tol']:.1e})")
    if isinstance(channel, KrausChannel):
        print(f"closure deviation: {channel.closure_deviation:.3e} (tol {CLOSURE_TOL:.1e})")
    print(f"leakage outside blocks: {decomp.leakage:.3e} (tol {args.tol:.1e})")
    print(f"{'partition':<12} {'protected':>9} {'noisy':>6} {'twin dev':>10}  dfs")
    for sector in report.sectors:
        twin = decomp.twin_deviation[sector.shape]
        flag = "DFS" if sector.flagged else "-"
        print(f"{str(sector.shape):<12} {sector.protected_dim:>9} "
              f"{sector.noisy_dim:>6} {twin:>10.3e}  {flag}")
    if protection is not None:
        print(f"protection probe: {protection:.3e} "
              f"(trials {PROTECTION_TRIALS}, seed {args.seed}, tol {args.tol:.1e})")
    for stage, dt in times.items():
        print(f"[time] {stage}: {dt:.3f} s")

    if args.out:
        payload = {
            "command": "analyze",
            "input": echo,
            "seed": args.seed,
            "tol": args.tol,
            "classification": cert.classification,
            "certificate": _certificate_payload(cert),
            "leakage": _measured(decomp.leakage, args.tol),
            "sectors": [
                {
                    "partition": list(sector.shape.parts),
                    "protected_dim": sector.protected_dim,
                    "noisy_dim": sector.noisy_dim,
                    "flagged": sector.flagged,
                    "twin_deviation": _measured(
                        decomp.twin_deviation[sector.shape], args.tol
                    ),
                }
                for sector in report.sectors
            ],
            "liouville_dim": (channel.d**2) ** channel.n,
        }
        if isinstance(channel, KrausChannel):
            payload["closure_deviation"] = _measured(channel.closure_deviation, CLOSURE_TOL)
        if protection is not None:
            payload["protection"] = {
                **_measured(protection, args.tol),
                "trials": PROTECTION_TRIALS,
                "seed": args.seed,
            }
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_evolve(args) -> int:
    channel, builder = _load_channel(args.channel_file)
    if not isinstance(channel, Lindbladian):
        raise ChannelSpecError("evolve needs a Lindblad description (kind 'lindblad')")
    cert, basis, decomp, times = _pipeline(channel, args.tol)
    echo = _input_echo(args, channel, builder)
    print(f"input: lindblad generator, d={echo['d']}, n={echo['n']}, "
          f"{echo['operator_count']} jump operators ({args.channel_file})")
    print(f"classification: {cert.classification}; leakage {decomp.leakage:.3e} "
          f"(tol {args.tol:.1e})")
    results = []
    for t in args.times:
        t0 = time.perf_counter()
        evolved = blockwise_exp(decomp, t)
        dt = time.perf_counter() - t0
        entry = {
            "t": t,
            "blocks": [
                {
                    "partition": list(b.shape.parts),
                    "tableau_index": b.tableau_index,
                    "max_abs": float(np.max(np.abs(b.matrix))),
                }
                for b in evolved.blocks
            ],
        }
        exponentials = len({id(b.matrix) for b in evolved.blocks})
        line = f"t={t}: {len(evolved.blocks)} blocks from {exponentials} exponentials"
        if args.verify_dense:
            dense = expm(t * decomp.schur_matrix)
            deviation = float(np.max(np.abs(evolved.schur_matrix - dense)))
            del dense
            entry["dense_deviation"] = _measured(deviation, 1e-8)
            line += f"; dense cross-check deviation {deviation:.3e} (tol 1.0e-08)"
        results.append(entry)
        print(line)
        print(f"[time] blockwise exponential at t={t}: {dt:.3f} s")
    for stage, dt in times.items():
        print(f"[time] {stage}: {dt:.3f} s")

    if args.out:
        _write_json(
            args.out,
            {
                "command": "evolve",
                "input": echo,
                "tol": args.tol,
                "classification": cert.classification,
                "leakage": _measured(decomp.leakage, args.tol),
                "times": args.times,
                "results": results,
            },
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = _verify.run_suites(args.level)
    failed = 0
    for result in suites:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: measured {result.measured:.3e} "
              f"(tol {result.tol:.1e}) [{result.seconds:.3f} s]")
        failed += 0 if result.passed else 1
    print(f"{len(suites) - failed}/{len(suites)} suites passed ({args.level})")
    if args.out:
        _write_json(
            args.out,
            {
                "command": "verify",
                "level": args.level,
                "suites": [
                    {
                        "name": r.name,
                        "measured": r.measured,
                        "tol": r.tol,
                        "passed": r.passed,
                    }
                    for r in suites
                ],
                "passed": failed == 0,
            },
        )
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superschur",
        description="Permutation-symmetry block diagonalization of qudit channels",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="command")

    p = sub.add_parser("decompose", help="print the sector dimension table")
    p.add_argument("--n", type=_positive_int, required=True, help="number of qudits")
    p.add_argument("--d", type=_local_dim, required=True, help="local dimension")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("schur-basis", help="build and export the adapted basis")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--d", type=_local_dim, required=True)
    p.add_argument("--out", required=True, help="basis file destination")
    p.set_defaults(func=cmd_schur_basis)

    p = sub.add_parser("analyze", help="classify a channel and report its block structure")
    p.add_argument("channel_file", help="channel description file (JSON)")
    p.add_argument("--tol", type=_positive_float, default=1e-8,
                   help="block-structure tolerance (default 1e-8)")
    p.add_argument("--seed", type=int, default=0, help="seed for the protection probe")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="blockwise exponentials of a Lindblad generator")
    p.add_argument("channel_file", help="channel description file (JSON, kind lindblad)")
    p.add_argument("--times", type=_time_list, default=[1.0],
                   help="comma-separated evolution times (default 1.0)")
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--verify-dense", action="store_true",
                   help="cross-check each result against the dense exponential")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ChannelSpecError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ChannelInvariantError, BlockStructureError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
