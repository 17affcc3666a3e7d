"""End-to-end acceptance checks.

Every check of the ``superschur verify`` registry runs here as one test.
Besides those, the ``decompose`` text is checked, and two randomized
properties stay here: leakage and superoperator commutation agree as
predicates, and the protection probe flags a perturbed map.  With ``-s``
each test prints one PASS/FAIL line with the measured value next to its
tolerance.
"""

import ast
import dataclasses
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import time
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import superschur
from superschur import (
    KrausChannel,
    SuperOperatorMatrix,
    decompose,
    example_channel,
    kraus_superop,
    orthogonalize_kraus,
    protection_check,
)
from superschur import blockdiag, channels, liouville, schur, verify
from superschur.cli import build_parser, main
from superschur.oracle import permutation_matrix
from superschur.permutations import adjacent_transpositions
from superschur.verify import checks

# seconds, held by each check's own recorded run; the caches are emptied
# first, so every run includes the bases it builds
WALL_TIME_BOUNDS = {
    "basis_unitary_n4": 30.0,  # with the next one: n = 4 build and checks, 60 s
    "permutation_equivariance_n4": 30.0,
    "blockwise_exp_dense_n3": 10.0,
}


def report(num, title, ok, detail):
    print(f"ACCEPTANCE {num} {title}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


@pytest.mark.parametrize("check", checks("full"), ids=lambda c: c.name)
def test_self_check(check, fresh_builders):
    result = check.run()
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds < WALL_TIME_BOUNDS.get(check.name, math.inf), result.line()


def test_registry_names_are_unique_and_fast_is_an_ordered_subset():
    full = [c.name for c in checks("full")]
    fast = [c.name for c in checks("fast")]
    assert len(set(full)) == len(full)
    assert fast == [name for name in full if name in fast]
    assert len(fast) < len(full)
    with pytest.raises(ValueError, match="level"):
        checks("extreme")


def test_example_maps_are_decomposed_once_per_process(monkeypatch, fresh_builders):
    built = []
    decompose = verify.decompose
    monkeypatch.setattr(verify, "decompose", lambda *args: built.append(1) or decompose(*args))
    shared = ("example_block_structure_n3", "protection_probe_n3", "dfs_flags_n3")
    results = [c.run() for c in checks("fast") if c.name in shared]
    assert [r.name for r in results] == list(shared)
    assert all(r.passed for r in results)
    # one decomposition per example map, not one per map and check
    assert len(built) == len(list(verify._examples())) == 19


def nan_on_the_second_call(fn, poisoned):
    """``fn``, except that its second call returns ``poisoned(result)``."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        return poisoned(out) if next(calls) == 1 else out

    return wrapped


# check -> (the name in superschur.verify whose second result turns NaN, how)
NAN_INJECTIONS = {
    "protection_probe_n3": ("protection_check", lambda out: math.nan),
    "basis_unitary": (
        "super_schur_basis", lambda out: SimpleNamespace(unitarity_deviation=lambda: math.nan)),
    "permutation_equivariance": (
        "permutation_in_schur", lambda out: SimpleNamespace(leakage=math.nan)),
    "classification_table_n3": (
        "_classify",
        lambda out: SimpleNamespace(
            classification=out.classification, residuals=dict.fromkeys(out.residuals, math.nan)
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(NAN_INJECTIONS))
def test_a_nan_after_the_first_operand_fails_the_check(name, monkeypatch):
    target, poisoned = NAN_INJECTIONS[name]
    monkeypatch.setattr(verify, target, nan_on_the_second_call(getattr(verify, target), poisoned))
    result = next(c for c in verify.CHECKS if c.name == name).run()
    assert math.isnan(result.measured)
    assert result.passed is False


def test_readme_check_counts_match_the_registry():
    # both the test section's prose and the verify section's command lines
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fast = re.findall(r"(?:--level fast +#|fast level has)\s+(\d+)\s+checks", text)
    full = re.findall(r"(?:--level full +#|full level has)\s+all\s+(\d+)", text)
    assert len(fast) == len(full) == 2
    assert [int(x) for x in fast] == [len(checks("fast"))] * 2
    assert [int(x) for x in full] == [len(verify.CHECKS)] * 2


def test_readme_constants_match_the_code():
    # each quoted value once, with line breaks read as spaces
    text = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())

    def quoted(pattern):
        values = re.findall(pattern, text)
        assert len(values) == 1, pattern
        return float(values[0])

    assert quoted(r"`SCHUR_DFS_MAX_DIM` \(default `(\d+)`\)") == liouville.DEFAULT_MAX_DIM
    tols = re.findall(
        r"\.RESIDUAL_TOLS`: `([^`]+)` for `(\w+)` and `(\w+)`,"
        r" `([^`]+)` for `(\w+)` and `(\w+)`\)",
        text,
    )
    assert len(tols) == 1
    a, name_1, name_2, b, name_3, name_4 = tols[0]
    quoted_tols = {name_1: a, name_2: a, name_3: b, name_4: b}
    assert {k: float(v) for k, v in quoted_tols.items()} == channels.RESIDUAL_TOLS
    assert quoted(r"`([^`]+) x max\|M\|` \(`IMAGINARY_PART_TOL`") == channels.IMAGINARY_PART_TOL
    assert quoted(r"`([^`]+)` \(`HERMITICITY_TOL`") == channels.HERMITICITY_TOL
    assert quoted(r"`SIGN_TOL = ([^`]+)`") == schur.SIGN_TOL
    readme_tol = quoted(r"`--tol` \(block/flagging tolerance, [^)]*default `([^`]+)`")
    assert readme_tol == blockdiag.DEFAULT_BLOCK_TOL
    parser = build_parser()
    for argv in (["analyze", "map.json"], ["evolve", "map.json"]):
        assert parser.parse_args(argv).tol == blockdiag.DEFAULT_BLOCK_TOL
    # the help text spells the default out, so it is held to the constant too
    analyze = parser._subparsers._group_actions[0].choices["analyze"]
    help_tol = re.findall(r"tolerance \(default (\S+)\)", analyze.format_help())
    assert [float(x) for x in help_tol] == [blockdiag.DEFAULT_BLOCK_TOL]


NUMBER_WORDS = {w: k for k, w in enumerate("zero one two three four five six seven eight".split())}


def test_readme_removals_are_gone():
    raw = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = [superschur] + [
        importlib.import_module(f"superschur.{m.name}")
        for m in pkgutil.iter_modules(superschur.__path__)
        if m.name != "__main__"
    ]
    headings = re.findall(r"^### Removed: (.+)$", raw, re.M)
    assert len(headings) >= 7
    for heading in headings:
        # "the `a` and `b` arguments of `C`": C stays, its parameters go
        for args, owner in re.findall(r"the (.+?) arguments? of `(\w+)`", heading):
            params = inspect.signature(getattr(superschur, owner)).parameters
            assert not set(re.findall(r"`(\w+)`", args)) & set(params), heading
        owner = None
        for name in re.findall(r"`([\w.]+)`", re.sub(r"the .+? arguments? of `\w+`", "", heading)):
            if "." not in name:
                assert not [m.__name__ for m in modules if hasattr(m, name)], name
                continue
            # "`C.a`, `.b`": a bare ".b" names an attribute of the last class
            cls, attr = name.split(".")
            owner = getattr(superschur, cls) if cls else owner
            fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
            assert not hasattr(owner, attr) and attr not in [f.name for f in fields], name
    # the names a "Moved to" section lists left the package; a module that
    # still binds one holds the moved object
    text = " ".join(raw.split())
    moved = re.findall(
        r"### Moved to `([\w.]+)`[^#]*? The (\w+) names that left `superschur` are (.+?)\. ", text
    )
    assert len(moved) == 1
    home, count, listing = moved[0]
    names = re.findall(r"`(\w+)`", listing)
    assert len(names) == NUMBER_WORDS[count]
    home = importlib.import_module(home)
    for name in names:
        assert not hasattr(superschur, name), name
        for module in modules:
            if name in vars(module):
                held = vars(home).get(name)
                assert held is not None and vars(module)[name] is held, (module.__name__, name)


def test_all_lists_the_public_names_the_package_binds():
    tree = ast.parse(Path(superschur.__file__).read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    public = [name for name in bound if not name.startswith("_")]
    assert len(set(superschur.__all__)) == len(superschur.__all__)
    assert set(superschur.__all__) == set(public)


def test_every_module_import_is_used():
    # __init__ imports to re-export, which the test above holds to __all__
    unused = []
    for path in sorted(Path(superschur.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused, unused


def test_only_verify_and_the_dense_cross_check_import_scipy():
    # every scipy import in the package, with the functions and if-tests
    # around it
    found = []

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            here = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                here = where + (child.name,)
            elif isinstance(child, ast.If):
                here = where + (ast.unparse(child.test),)
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "scipy" for module in modules):
                found.append((path.name, here))
            visit(child, path, here)

    for path in sorted(Path(superschur.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, ())
    assert found == [("cli.py", ("cmd_evolve", "args.verify_dense")), ("verify.py", ())]


def test_criterion_1_decomposition_counts(capsys):
    t0 = time.perf_counter()
    code = main(["decompose", "--n", "3", "--d", "2"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()]
    ok = (
        code == 0
        and ["{3}", "1", "20", "20"] in rows
        and ["{2,1}", "2", "20", "40"] in rows
        and ["{1,1,1}", "1", "4", "4"] in rows
        and "total 64 = (d^2)^n = 64" in out
        and "sectors: 3" in out
        and "p_1(3)=1 p_2(3)=1 p_3(3)=1" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            1,
            "decomposition counts",
            ok,
            f"3 sectors (1,20) (2,20) (1,4), total 64, row counts 1/1/1, {elapsed:.3f} s (< 1 s)",
        )


def lopsided_channel(n, p=0.5):
    """Amplitude damping on the first site only: not permutation symmetric."""
    f0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=np.complex128)
    f1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    mats = [reduce(np.kron, [f] + [eye] * (n - 1)) for f in (f0, f1)]
    return KrausChannel(2, n, mats)


def random_weak_channel(n, rng):
    """All n-fold products of one random Kraus pair, orthogonalized: the
    product set is closed under site permutations, hence weakly symmetric."""
    A = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    Q = np.linalg.qr(A)[0]
    k0, k1 = Q[:2, :], Q[2:, :]
    mats = [
        reduce(np.kron, choice)
        for choice in itertools.product((k0, k1), repeat=n)
    ]
    mats = orthogonalize_kraus(2, n, mats)
    return KrausChannel(2, n, mats)


def random_asymmetric_channel(n, rng):
    dim = 2**n
    A = rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim))
    Q = np.linalg.qr(A)[0]
    mats = orthogonalize_kraus(2, n, [Q[:dim, :], Q[dim:, :]])
    return KrausChannel(2, n, mats)


def test_criterion_8_property_suite(schur_2_2, schur_2_3, letters_2_2, letters_2_3):
    # (c) leakage and superoperator commutation agree as predicates
    rng = np.random.default_rng(20240817)
    agree = True
    contexts = {
        2: (schur_2_2, letters_2_2),
        3: (schur_2_3, letters_2_3),
    }
    checked = 0
    for n in (2, 3):
        basis, letters = contexts[n]
        shuffles = [permutation_matrix(g, 4, n) for g in adjacent_transpositions(n)]
        channels = [random_weak_channel(n, rng) for _ in range(10)]
        channels += [random_asymmetric_channel(n, rng) for _ in range(2)]
        channels.append(lopsided_channel(n))
        for ch in channels:
            superop = kraus_superop(ch, letters)
            M = superop.matrix
            commutator = max(
                float(np.max(np.abs(M @ L - L @ M))) for L in shuffles
            )
            leakage = decompose(superop, basis).leakage
            agree = agree and ((leakage < 1e-10) == (commutator < 1e-10))
            checked += 1

    # (d) the protection probe is loud on a perturbed map; the registry's
    # protection_probe_n3 holds it below 1e-10 on the symmetric ones
    S_sym = kraus_superop(example_channel("collective_damping", n=3), letters_2_3)
    S_lop = kraus_superop(lopsided_channel(3), letters_2_3)
    mixed = SuperOperatorMatrix(2, 3, "channel", 0.95 * S_sym.matrix + 0.05 * S_lop.matrix)
    perturbed = protection_check(decompose(mixed, schur_2_3))

    ok = agree and perturbed > 1e-3
    report(
        8,
        "property and oracle suite",
        ok,
        f"(c) leakage/commutator predicates agree on {checked} channels: {agree}; "
        f"(d) protection {perturbed:.3e} on a perturbed map (> 1e-3)",
    )
