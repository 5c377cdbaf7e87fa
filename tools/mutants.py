"""Mutation smoke run: each mutant is a one-place edit of src/ that the
named tests must notice.

Run from anywhere, with numpy and pytest installed:

    python3 tools/mutants.py           # every mutant
    python3 tools/mutants.py NAME ...  # the named ones

For each mutant the script copies src/ to a temporary directory, replaces
the old text, which must occur exactly once in its file, with the new text,
and runs pytest on the mutant's test ids against that copy.  The mutant is
killed when pytest reports failing tests (exit status 1).  The script exits
with status 1 when a mutant survives, its edit does not apply or its tests
do not run to the end.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a mutant can make a search run for minutes; each listed one is killed in ~2 s
TIMEOUT_S = 120

# (name, file under src/finring, old text, new text, test ids)
MUTANTS = [
    (
        "lift-picks-the-last-idempotent",
        "peirce.py",
        "w = _first(idem & (proj == eq) & orth)",
        "w = np.flatnonzero(idem & (proj == eq) & orth)[-1:].tolist() or None",
        ["tests/test_decomposition.py::test_each_block_lifts_to_the_least_idempotent_orthogonal_to_those_before"],
    ),
    (
        "pair-index-reads-the-first-row-block-of-right",
        "table.py",
        "idx += right[a0:a1] if len(right) > 1 else right",
        "idx += right[: a1 - a0] if len(right) > 1 else right",
        ["tests/test_axioms.py::test_fast_check_agrees_with_scan_on_small_rings_in_small_take_blocks"],
    ),
    (
        "no-lights-test",
        "table.py",
        "np.array_equal(add.take(xg, axis=0), add.take(xg.T, axis=1))\n            and np.array_equal(",
        "np.array_equal(",
        ["tests/test_axioms.py::test_fast_check_agrees_with_scan_on_every_commutative_loop_addition_of_order_four"],
    ),
    (
        "no-right-distributivity",
        "table.py",
        "\n            and np.array_equal(\n"
        "                mul.take(xg, axis=0), _pair_take(add, mul[:, None, :], mul.take(block, axis=0))\n"
        "            )\n",
        "\n",
        ["tests/test_axioms.py::test_near_rings_fail_exactly_one_distributive_law"],
    ),
    (
        "skips-the-last-generator-of-each-block",
        "table.py",
        "block = G[g0:g1]",
        "block = G[g0:g1][:-1]",
        ["tests/test_axioms.py::test_fast_check_agrees_with_scan_when_one_factor_breaks_a_law"],
    ),
    (
        # a ring with one additive generator still checks it: only the
        # one-factor products notice this one
        "skips-the-last-generator-of-g",
        "table.py",
        "for g0, g1 in _row_blocks(len(G), n * n, _TAKE_ENTRIES):",
        "for g0, g1 in _row_blocks(len(G) - (len(G) > 1), n * n, _TAKE_ENTRIES):",
        ["tests/test_axioms.py::test_fast_check_agrees_with_scan_when_one_factor_breaks_a_law"],
    ),
    (
        "radical-plus-marks-the-ideal-not-its-cosets",
        "properties.py",
        "meets[cosets[ideal]] = True",
        "meets[ideal] = True",
        ["tests/test_pair_takes.py::test_radical_plus_matches_the_table_of_sums"],
    ),
    (
        "every-corner-is-checked-against-r-mod-j",
        "peirce.py",
        "CQ = Q if C is R else quotient(C, jacobson_radical(C))",
        "CQ = Q",
        ["tests/test_decomposition.py"],
    ),
    (
        "digit-tables-reverse-the-digits",
        "abelian.py",
        "    for d in factors:\n",
        "    for d in factors[::-1]:\n",
        ["tests/test_enumeration.py::test_product_tables_equal_add_and_bilinear"],
    ),
    (
        "duo-witness-scatters-half-the-products",
        "properties.py",
        "outside[idx] = False",
        "outside[idx[: len(idx) // 2]] = False",
        ["tests/test_pair_takes.py::test_duo_witnesses_match_the_gathers"],
    ),
    (
        "triple-check-drops-the-e0-term",
        "enumeration.py",
        "lhs = side(g[c + 1], (a, b),",
        "lhs = side(0, (a, b),",
        ["tests/test_enumeration.py::test_triple_mask_equals_the_three_gather_check"],
    ),
    (
        "triple-check-reads-slot-b-a-for-slot-a-b",
        "enumeration.py",
        "lhs = side(g[c + 1], (a, b),",
        "lhs = side(g[c + 1], (b, a),",
        ["tests/test_enumeration.py::test_triple_mask_equals_the_three_gather_check"],
    ),
    (
        "lookup-drops-the-e0-term-of-c",
        "enumeration.py",
        "c = G.encode(a0 * unit[b] + b0 * unit[a] - a0 * b0 * unit[0])",
        "c = G.encode(a0 * unit[b] + b0 * unit[a])",
        ["tests/test_enumeration.py::test_lookup_transport_equals_the_bilinear_transport"],
    ),
    (
        "lookup-pairs-the-coordinates-crosswise",
        "enumeration.py",
        "coef = u[a][:, a] * u[b][:, b] % G.exponent",
        "coef = u[a][:, b] * u[b][:, a] % G.exponent",
        ["tests/test_enumeration.py::test_lookup_transport_equals_the_bilinear_transport"],
    ),
    (
        "closure-drops-a-reached-row-per-round",
        "enumeration.py",
        "frontier = np.unique(reached[~np.isin(reached, known)])",
        "frontier = np.unique(reached[~np.isin(reached, known)])[1:]",
        ["tests/test_enumeration.py::test_classes_equal_the_full_search_and_its_orbits"],
    ),
    (
        "orbits-accepts-an-image-outside-the-survivors",
        "enumeration.py",
        "if len(closed) != len(rows):",
        "if False:",
        ["tests/test_enumeration.py::test_an_image_outside_the_survivors_is_an_internal_error"],
    ),
]


def run(file, old, new, tests) -> str:
    """'killed', 'survived', or why the mutant could not be tried."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "finring" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"not applied: the old text occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        # pytest's pythonpath setting puts the mutated copy first on sys.path
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        try:
            got = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-o", f"pythonpath={src}", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"not run: its tests took over {TIMEOUT_S} s"
    if got.returncode == 1:
        return "killed"
    if got.returncode == 0:
        return "survived"
    return f"not run: pytest exit status {got.returncode}\n{got.stdout[-2000:]}{got.stderr[-2000:]}"


def main(argv) -> int:
    names = {m[0] for m in MUTANTS}
    unknown = sorted(set(argv) - names)
    if unknown:
        print(f"unknown mutants: {unknown}")
        return 2
    bad = 0
    for name, *rest in MUTANTS:
        if argv and name not in argv:
            continue
        t0 = time.perf_counter()
        verdict = run(*rest)
        print(f"{name}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
        bad += verdict != "killed"
    print(f"{bad} mutant(s) not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
