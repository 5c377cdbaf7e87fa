"""The four benchmark workloads.

Each workload has three steps:

* ``setup(seed)`` builds the inputs.  Everything random comes from ``seed``;
  the library only ever sees the generated inputs.  Inputs are plain data
  (strings, integers, numpy arrays), so no ``RingTable`` memo is shared
  between two iterations of the body.
* ``run(inputs)`` is the timed body.  It calls only the public ``finring``
  API, through the ``finring`` module attributes, so that a traced run sees
  every call.
* ``check(inputs, out)`` runs untimed and untraced.  It returns the list of
  operations with their status, and a digest of the outputs that must be the
  same for a traced and an untraced run of the same inputs.

An operation's status is ``ok``, ``wrong`` (a wrong answer), ``error`` (an
unexpected exception) or ``undecided`` (the library gave no answer).  All
but ``ok`` count as failed; ``wrong`` and ``error`` also make the run
incorrect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finring
from finring.errors import AxiomViolationError
from finring.table import RingTable

# sha256 of VerificationReport.as_kv() of verify_corpus() with library defaults.
CATALOG_KV_SHA256 = "f332ebd72e46891d60f94e86735a8da6937b4c574434e52404e94c59390b718f"
# sha256 of the sorted reprs of the 50 order-16 class fingerprints.  A
# fingerprint is an isomorphism invariant, so this does not depend on the
# seed, while class order and representatives still do.
ENUM16_CLASS_SET_SHA256 = "7fc5556b93ab21c65ff1633088c3933d379a2021ecbc73287be6f3195dc28c1f"

PRESENTATION_512 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv)"
PRESENTATION_REV256 = "F2<u,v>/(u^3,v^3,u^2+v^2+vu,vu^2+uvu+vuv,u^2vu)"

# import-untrusted takes every catalog ring of at least this order.
IMPORT_MIN_ORDER = 64


@dataclass
class Op:
    name: str
    status: str
    detail: str = ""


@dataclass
class Workload:
    setup: Callable
    run: Callable
    check: Callable


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _table_bytes(R) -> bytes:
    return (
        np.asarray(R.add, dtype=np.int16).tobytes()
        + np.asarray(R.mul, dtype=np.int16).tobytes()
        + f"{R.zero},{R.one}".encode()
    )


def _maps_onto(phi, R, S) -> bool:
    """True when phi is a bijection carrying R's tables onto S's."""
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape != (R.order,) or len(np.unique(phi)) != S.order or R.order != S.order:
        return False
    grid = np.ix_(phi, phi)
    return bool(
        np.array_equal(S.add[grid], phi[R.add]) and np.array_equal(S.mul[grid], phi[R.mul])
    )


def _expect(name, got, want) -> Op:
    if got == want:
        return Op(name, "ok")
    return Op(name, "wrong", f"got {got!r}, expected {want!r}")


# -- catalog: `finring verify` ----------------------------------------------


def _catalog_setup(seed):
    # verify_corpus builds its own rings from the catalog; there is nothing to
    # generate, and the seed changes nothing.
    return None


def _catalog_run(_inputs):
    return finring.verify_corpus()


def _catalog_check(_inputs, rep):
    ops = [Op(f"entry {e.name}", "ok" if e.passed else "wrong",
              "; ".join(e.failures) or e.error) for e in rep.entries]
    ops += [Op(f"suite {s.name}", "ok" if s.passed else "wrong",
               "; ".join(s.violations[:3])) for s in rep.suites]
    ops.append(_expect("overall_pass", rep.overall_pass, True))
    kv = rep.as_kv()
    ops.append(_expect("as_kv sha256", _sha(kv), CATALOG_KV_SHA256))
    return ops, _sha(kv)


# -- enum16: the order-16 part of `finring verify --deep` ---------------------


def _enum16_setup(seed):
    return int(seed)


def _enum16_run(seed):
    rings = finring.enumerate_unital(16, deep=True, seed=seed)
    return rings, finring.taxonomy_census(rings)


def _enum16_check(_seed, out):
    rings, census = out
    class_set = _sha(*sorted(repr(finring.fingerprint(R)) for R in rings))
    ops = [
        _expect("classes", len(rings), 50),
        _expect("noncommutative classes", census.count_where(commutative=False), 13),
        _expect("non-NI classes", census.count_where(ni=False), 1),
        _expect("class set sha256", class_set, ENUM16_CLASS_SET_SHA256),
    ]
    return ops, _sha(census.as_text(), *(_table_bytes(R) for R in rings))


# -- big-build: the 512- and 256-element presentations -----------------------


def _big_build_setup(seed):
    # fixed presentations; the seed changes nothing
    return PRESENTATION_512, PRESENTATION_REV256


def _big_build_run(texts):
    R512 = finring.build_from_text(texts[0])
    rev = finring.build_from_text(texts[1])
    labels = R512.labels
    u, v = labels.index("u"), labels.index("v")
    m = R512.mul
    u2vu = int(m[m[m[u, u], v], u])
    Q = finring.quotient(R512, finring.ideal_generated(R512, [u2vu]))
    iso = finring.is_isomorphic(Q, rev)
    return R512, rev, Q, iso, finring.profile(R512), finring.profile(rev)


def _big_build_check(_texts, out):
    R512, rev, Q, iso, p512, prev = out
    if iso.isomorphic is None:
        iso_op = Op("quotient is isomorphic to Rev256", "undecided", iso.reason)
    elif not iso.isomorphic or not _maps_onto(iso.mapping, Q, rev):
        iso_op = Op("quotient is isomorphic to Rev256", "wrong", iso.reason)
    else:
        iso_op = Op("quotient is isomorphic to Rev256", "ok")
    ops = [
        _expect("order of the 512 presentation", R512.order, 512),
        _expect("order of Rev256", rev.order, 256),
        _expect("order of the quotient", Q.order, 256),
        iso_op,
        _expect("512 ring reversible", p512.reversible, False),
        _expect("Rev256 reversible", prev.reversible, True),
        _expect("Rev256 symmetric", prev.symmetric, False),
    ]
    digest = _sha(
        _table_bytes(R512), _table_bytes(rev), _table_bytes(Q), iso.reason, iso.mapping,
        *p512.as_kv(), *prev.as_kv(),
    )
    return ops, digest


# -- import-untrusted: RINGTAB round trips and perturbed tables --------------


def _perturbed(table, rng):
    """Copy of table with one seeded entry changed to another element."""
    n = len(table)
    a, b = (int(i) for i in rng.integers(0, n, size=2))
    bad = table.copy()
    bad[a, b] = (int(table[a, b]) + int(rng.integers(1, n))) % n
    return bad


def _import_setup(seed):
    rng = np.random.default_rng(seed)
    cases = []
    for entry in finring.corpus():
        if entry.order < IMPORT_MIN_ORDER:
            continue
        R = entry.build()
        n = R.order
        perm = rng.permutation(n)  # old element x becomes perm[x]
        inv = np.argsort(perm)
        add = perm[R.add[np.ix_(inv, inv)]]
        mul = perm[R.mul[np.ix_(inv, inv)]]
        cases.append(dict(
            name=entry.name,
            original=(n, list(R.labels), np.array(R.add), np.array(R.mul), R.zero, R.one),
            relabeled=(n, [R.labels[i] for i in inv], add, mul, int(perm[R.zero]),
                       int(perm[R.one])),
            perturbed=((_perturbed(add, rng), mul), (add, _perturbed(mul, rng))),
        ))
    return cases


def _attempt(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # every outcome, expected or not, is judged in check
        return None, exc


def _import_run(cases, node_budget):
    out = []
    for c in cases:
        n, labels, add, mul, zero, one = c["relabeled"]
        relabeled = RingTable(n, labels, add, mul, zero, one)
        loaded, load_exc = _attempt(finring.loads_ring, finring.dumps_ring(relabeled))
        iso, iso_exc = None, None
        if loaded is not None:
            iso, iso_exc = _attempt(
                finring.is_isomorphic, loaded, RingTable(*c["original"]), node_budget)
        rejects = [
            _attempt(finring.loads_ring,
                     finring.dumps_ring(RingTable(n, labels, bad_add, bad_mul, zero, one)))
            for bad_add, bad_mul in c["perturbed"]
        ]
        out.append((relabeled, loaded, load_exc, iso, iso_exc, rejects))
    return out


def _import_check(cases, results):
    ops = []
    parts = []
    for c, (relabeled, loaded, load_exc, iso, iso_exc, rejects) in zip(cases, results):
        name = c["name"]
        if load_exc is not None:
            ops.append(Op(f"{name} load", "error", repr(load_exc)))
        else:
            ops.append(_expect(f"{name} load", loaded.table_equal(relabeled), True))
            parts.append(_table_bytes(loaded))
        op = f"{name} is_isomorphic"
        if iso_exc is not None:
            ops.append(Op(op, "error", repr(iso_exc)))
        elif iso is None:
            ops.append(Op(op, "error", "not run: load failed"))
        elif iso.isomorphic is None:
            ops.append(Op(op, "undecided", iso.reason))
        elif not iso.isomorphic:
            ops.append(Op(op, "wrong", f"not isomorphic ({iso.reason})"))
        elif not _maps_onto(iso.mapping, loaded, RingTable(*c["original"])):
            ops.append(Op(op, "wrong", "mapping is not an isomorphism"))
        else:
            ops.append(Op(op, "ok"))
        if iso is not None:
            parts += [iso.reason, iso.mapping]
        for table_name, (_, exc) in zip(("addition", "multiplication"), rejects):
            op = f"{name} perturbed {table_name} rejected"
            if isinstance(exc, AxiomViolationError):
                ops.append(Op(op, "ok"))
                parts.append(exc.report.law_names())
            elif exc is not None:
                ops.append(Op(op, "error", repr(exc)))
            else:
                ops.append(Op(op, "wrong", "loads_ring accepted a perturbed table"))
    return ops, _sha(*parts)


def workload(name: str, node_budget: int) -> Workload:
    """The named workload; node_budget is the iso budget of import-untrusted."""
    if name == "catalog":
        return Workload(_catalog_setup, _catalog_run, _catalog_check)
    if name == "enum16":
        return Workload(_enum16_setup, _enum16_run, _enum16_check)
    if name == "big-build":
        return Workload(_big_build_setup, _big_build_run, _big_build_check)
    if name == "import-untrusted":
        return Workload(_import_setup, lambda cases: _import_run(cases, node_budget),
                        _import_check)
    raise KeyError(name)
