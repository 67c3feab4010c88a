"""The benchmark's three workloads.

Each workload class is built from a seed (its set-up, which is timed) and
then gives `ops()`: one round of (label, call) pairs that run against the
public API (paper, stabilizers) or the in-process CLI (census).  `checks()`
computes, apart from the program and outside every timed region, one checker
per operation; a checker raises `Wrong` when the operation's answer
disagrees with the oracle, the paper's stated integers or the Sylow axioms.

Construct a workload only after stabparts has been imported: the classes
import it when they are built, so that a fresh import is what they use.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re

import numpy as np

import oracle
from tracing import CLI_COMMANDS, VERIFY_GROUPS


class Wrong(AssertionError):
    """An answer that disagrees with the independent computation."""


class RequestFailed(RuntimeError):
    """A CLI request that ended with an error instead of an answer."""


def expect(condition, message: str) -> None:
    if not condition:
        raise Wrong(message)


def shuffled_points(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(n), n)


# ---------------------------------------------------------------------------
# paper: the seven verify-paper check groups
# ---------------------------------------------------------------------------

CHECKS_PER_GROUP = {"concealed_positives": 3, "concealed_negative": 1,
                    "product_witness": 2, "product_counting": 7,
                    "counting_certificates": 3, "spot_suite": 4, "property_suite": 6}


class Paper:
    """`verify-paper` in process, each check group one operation.

    Besides each Check's pass flag, the answers behind the checks are taken
    from the calls verify makes (all_sylows, prop_certificate and
    randomized_witness_from_z, looked up at call time so that tracing still
    sees them) and compared with the oracle and the paper's integers.
    """

    def __init__(self, seed: int, workdir: str):
        from stabparts import census, sylow, verify

        self.verify, self.seed = verify, seed
        self.calls: list[tuple] = []
        spies = {
            "all_sylows": lambda *a, **k: self._spy("all_sylows", a, sylow.all_sylows, k),
            "prop_certificate": lambda *a, **k: self._spy("prop_certificate", a,
                                                          census.prop_certificate, k),
            "randomized_witness_from_z": lambda *a, **k: self._spy(
                "randomized_witness_from_z", a, census.randomized_witness_from_z, k),
        }
        for attr, spy in spies.items():
            setattr(verify, attr, spy)

    def _spy(self, kind, args, fn, kwargs):
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.calls.append((kind, args, exc))
            raise
        self.calls.append((kind, args, result))
        return result

    def ops(self):
        return [(group, lambda group=group: self._run(group)) for group in VERIFY_GROUPS]

    def _run(self, group):
        self.calls = []
        fn = getattr(self.verify, group)
        if group in ("product_counting", "property_suite"):
            return fn(seed=self.seed), self.calls
        return fn(), self.calls

    def checks(self):
        cases = [("D6", "D6", 2), ("D10", "D10", 2), ("J", "J", 3), ("AGL(1,5)", "AGL(1,5)", 2),
                 ("D6xD6", "Product(D6,D6)", 2), ("C4", "C4", 2), ("Sym(4)", "Sym(4)", 2),
                 ("AGL(2,3)@2", "AGL(2,3)", 2), ("AGL(2,3)@3", "AGL(2,3)", 3),
                 ("AGammaL(1,9)", "AGammaL(1,9)", 2)]
        facts = dict(zip([key for key, _, _ in cases], oracle.subset_facts(
            [(oracle.catalog(name), p) for _, name, p in cases])))
        JJ = oracle.catalog("Product(J,J)")

        def check(group, result):
            checks, calls = result
            expect(len(checks) == CHECKS_PER_GROUP[group],
                   f"{group}: {len(checks)} checks, expected {CHECKS_PER_GROUP[group]}")
            failed = [c.name for c in checks if not c.passed]
            expect(not failed, f"{group}: failed {failed}")
            details = {c.name: c.detail for c in checks}
            for kind, args, answer in calls:
                if kind == "all_sylows":
                    G, p = args[0], args[1]
                    expect(oracle.sylow_axioms(oracle.order_of(G.name), p, answer.count,
                                               answer.representative.order),
                           f"Sylow axioms fail for {G.name} at p={p}")
            if group == "concealed_positives":
                for key in ("D6", "D10", "J"):
                    expect(facts[key].concealed(), f"oracle: {key} is not concealed")
            elif group == "concealed_negative":
                expect(not facts["AGL(1,5)"].concealed(), "oracle: AGL(1,5) is 2-concealed")
                subset = json.loads(re.search(r"\[.*\]", details["AGL(1,5) is not 2-concealed"])[0])
                expect(facts["AGL(1,5)"].uncovered(oracle.mask_of(subset)),
                       f"{subset} is covered by a Sylow 2-subgroup")
            elif group == "product_witness":
                order = int(re.search(r"\d+", next(iter(details.values())))[0])
                expect(order == 2 == oracle.stab_order(facts["D6xD6"].G, [0, 4]),
                       f"|Stab(D6xD6, {{0,4}})| reported {order}")
                expect(facts["D6xD6"].moderate() and facts["D6xD6"].gp == 4,
                       "oracle: D6xD6 is not 2-moderate with |G|_2 = 4")
            elif group == "product_counting":
                counts = [int(m[1]) for d in details.values()
                          if (m := re.fullmatch(r"count (\d+)", d))]
                expect(counts == [28, 784], f"Sylow 3-counts {counts}, paper: 28, 784")
                expect("sizes [1, 1, 3, 3]" in details.values(), "orbit sizes of P")
                found = [a for k, _, a in calls if k == "randomized_witness_from_z"]
                expect(len(found) == 1 and found[0] is not None, "no randomized witness")
                order = oracle.stab_order(JJ, found[0].sorted_points())
                expect(oracle.p_part(order, 3) == 3, f"witness stabilizer order {order}")
                expect(any(f"|Stab| = {order} " in d for d in details.values()),
                       "reported |Stab| disagrees with the oracle")
            elif group == "counting_certificates":
                certs = {args[0].name: a for k, args, a in calls if k == "prop_certificate"}
                c4, s4 = certs.get("C4"), certs.get("Sym(4)")
                expect(c4 is not None and c4.verdict and (c4.lhs_power, c4.rhs_power) == (1, 16),
                       "C4: expected 1 < 16")
                expect(s4 is not None and not s4.verdict
                       and (s4.lhs_power, s4.rhs_power) == (81, 16), "Sym(4): expected 81 >= 16")
                jj = [a for k, args, a in calls if k == "prop_certificate" and args[0].degree == 64]
                expect(len(jj) == 1 and type(jj[0]).__name__ == "CriterionInapplicable",
                       "J x J at p=3 must be inapplicable")
                expect(facts["C4"].moderate() and facts["Sym(4)"].moderate(),
                       "oracle: C4 and Sym(4) are 2-moderate")
            elif group == "spot_suite":
                for key in ("Sym(4)", "AGL(2,3)@2", "AGL(2,3)@3", "AGammaL(1,9)"):
                    expect(facts[key].moderate(), f"oracle: {key} is not moderate")

        return [lambda r, g=g: check(g, r) for g in VERIFY_GROUPS]


# ---------------------------------------------------------------------------
# stabilizers: setwise stabilizers in J x J (|G| = 28224, n = 64)
# ---------------------------------------------------------------------------

class Stabilizers:
    """setwise_stabilizer and stab_p_part on seeded subsets of J x J.

    Random subsets have tiny stabilizers.  Unions of rows, columns, a graph
    {(x, x.s)} and z-orbits have stabilizers of 3 to 3528 elements.  The
    seed picks which rows, columns and elements (all such choices are
    conjugate, so the stabilizer orders do not depend on it) and relabels
    the 64 points.
    """

    RANDOM = 16
    Z_UNIONS = 4

    def __init__(self, seed: int, workdir: str):
        import stabparts

        self.sp = stabparts
        rng = random.Random(seed)
        J = oracle.catalog("J")
        JJ = oracle.catalog("Product(J,J)")
        pi = shuffled_points(rng, 64)
        self.G = oracle.relabel(JJ, pi)
        self.group = stabparts.group_from_document(oracle.document(self.G))
        self.group.elements  # the element table is part of set-up

        def cell(a, b):
            return pi[a * 8 + b]

        rows = rng.sample(range(8), 3)
        col = rng.randrange(8)
        s = random_element(rng, J)
        z = JJ.gens[len(J.gens) - 1]  # the Frobenius x -> x^2 on the first factor
        shapes = [
            ("random", [pi[x] for x in rng.sample(range(64), rng.randint(1, 63))])
            for _ in range(self.RANDOM)
        ]
        for _ in range(self.Z_UNIONS):
            orbits = z_orbits(z)
            shapes.append(("z-orbits", [pi[x] for orb in orbits if rng.random() < 0.5
                                        for x in orb]))
        other = (rows[0] + 1 + rng.randrange(7)) % 8
        shapes += [
            ("row+point", [cell(rows[0], b) for b in range(8)] + [cell(other, col)]),
            ("graph", [cell(x, s[x]) for x in range(8)]),
            ("row+column", sorted({cell(rows[0], b) for b in range(8)}
                                  | {cell(a, col) for a in range(8)})),
            ("3 rows", [cell(a, b) for a in rows for b in range(8)]),
            ("2 rows", [cell(a, b) for a in rows[:2] for b in range(8)]),
        ]
        self.cases = []
        for label, pts in shapes:
            p = rng.choice((2, 3, 7))
            self.cases.append(("setwise_stabilizer", label, pts, p))
            self.cases.append(("stab_p_part", label, pts, p))
        # a single row or column: 3528 elements, stab_p_part only
        line = ([cell(rows[0], b) for b in range(8)] if rng.random() < 0.5
                else [cell(a, col) for a in range(8)])
        self.cases.append(("stab_p_part", "line", line, rng.choice((2, 3, 7))))

    def _run(self, kind, pts, p):
        S = self.sp.PointSet(64, pts)
        if kind == "stab_p_part":
            return self.sp.stab_p_part(self.group, S, p)
        H = self.sp.setwise_stabilizer(self.group, S)
        return H, H.order

    def ops(self):
        return [(f"{kind} {label} p={p}",
                 lambda kind=kind, pts=pts, p=p: self._run(kind, pts, p))
                for kind, label, pts, p in self.cases]

    def checks(self):
        orders = oracle.stab_orders(self.G, [pts for _, _, pts, _ in self.cases])
        return [lambda r, kind=kind, pts=pts, p=p, order=order:
                check_stabilizer(kind, pts, p, order, r)
                for (kind, _, pts, p), order in zip(self.cases, orders)]


def random_element(rng: random.Random, G: oracle.Group) -> list[int]:
    x = list(range(G.degree))
    for _ in range(20):
        g = rng.choice(G.gens)
        x = [g[y] for y in x]
    return x


def z_orbits(z) -> list[list[int]]:
    seen, out = set(), []
    for start in range(len(z)):
        if start not in seen:
            orb, x = [], start
            while x not in seen:
                seen.add(x)
                orb.append(x)
                x = z[x]
            out.append(orb)
    return out


def check_stabilizer(kind, pts, p, order, result) -> None:
    if kind == "stab_p_part":
        expect(result == oracle.p_part(order, p), f"p-part {result}, oracle |Stab| {order}")
        return
    H, reported = result
    expect(reported == order, f"|Stab| {reported}, oracle {order}")
    member = np.zeros(64, dtype=bool)
    member[pts] = True
    for g in H.generators:
        expect((member[g.images] == member).all(), "a generator moves the subset")


# ---------------------------------------------------------------------------
# census: per-subset facts over all 2^n subsets, through the CLI
# ---------------------------------------------------------------------------

CENSUS_GROUPS = (
    ("Product(C2,AGL(1,5))", 2),
    ("AGL(1,11)", 2),
    ("Product(D6,Sym(4))", 3),
    ("AGL(1,13)", 2),
    ("Product(D6,AGL(1,5))", 2),
    ("AGL(1,16)", 2),
    ("Product(Sym(4),Sym(4))", 3),
    ("AGL(1,17)", 2),
    ("AGL(1,19)", 3),
)
# millisecond requests on documents of the other three kinds (and one census
# document), so that every subcommand and document kind is in the round
SMALL_REQUESTS = (
    ("sylow", "agl16", 2, ()), ("sylow", "d6d6", 3, ()), ("sylow", "agl127", 13, ()),
    ("sylow", "AGL(1,19)", 3, ()),
    ("witness", "j_aff", 2, ("--seed",)), ("witness", "sym4", 2, ("--seed",)),
    ("prop31", "c4", 2, ("--seed",)), ("prop31", "sym4", 2, ("--seed",)),
    ("prop31", "j", 3, ("--seed",)),
)
# prop31 exit codes from the Sylow structure: J at 3 has Sylow C3, which is
# elementary abelian (exit 11); C4 and the dihedral Sylow 2-subgroup of
# Sym(4) are not.  The paper's integers: C4 gives 1 < 16, Sym(4) 81 >= 16.
PROP31 = {"c4": (0, 1, 16), "sym4": (0, 81, 16), "j": (11, None, None)}
# 10! exceeds the element-table bound; the same document on every seed
SYM10 = {"degree": 10, "generators": ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]}
# ROADMAP item 4: these should exit 2 with a one-line message
MALFORMED = (
    ("affine-without-fields", {"affine": {"p": 2}}),
    ("named-not-a-string", {"named": 5}),
    ("degree-not-an-integer", {"degree": "x", "generators": ["(0 1)"]}),
)


def _named(name):
    return {"named": name}, oracle.catalog(name)


def _affine(p, k, dim, maps, order):
    doc = {"p": p, "k": k, "dim": dim,
           "generators": [dict({"matrix": A}, **({"frobenius": e} if e else {}))
                          for A, e in maps]}
    q = p**k
    gens = oracle.affine_gens(q, dim, maps)
    return {"affine": doc}, oracle.Group(f"affine GF({q})^{dim}", q**dim, tuple(gens), order)


def census_documents(rng: random.Random) -> dict[str, tuple[dict, oracle.Group]]:
    """Seeded relabellings of the census groups as degree+generators
    documents, Sym(10), and small documents of the other kinds."""
    docs = {}
    for name, _ in CENSUS_GROUPS:
        G = oracle.catalog(name)
        G = oracle.relabel(G, shuffled_points(rng, G.degree))
        docs[name] = (oracle.document(G), G)
    docs["Sym(10)"] = (SYM10, oracle.catalog("Sym(10)"))
    for key, name in [("agl16", "AGL(1,16)"), ("j", "J"), ("sym4", "Sym(4)"), ("c4", "C4")]:
        docs[key] = _named(name)
    docs["d6d6"] = ({"product": [{"named": "D6"}, {"named": "D6"}]},
                    oracle.catalog("Product(D6,D6)"))
    docs["agl127"] = _affine(3, 3, 1, [([[oracle.Field(27).primitive()]], 0)], 27 * 26)
    docs["j_aff"] = _affine(2, 3, 1, [([[oracle.Field(8).primitive()]], 0), ([[1]], 1)], 168)
    return docs


class Census:
    """Per-subset facts through the click entry point, in process.

    Each round sends `census`, `classify --strategy exhaustive` and
    `concealed` for nine groups of degree 10-19, each a seeded relabelling
    of a catalog or product group sent as a degree+generators document;
    `census` of Sym(10); a few millisecond `sylow`, `witness` and `prop31`
    requests; and the three malformed documents.  The seed also orders the
    requests and picks each request's --seed.  Every request reads and
    parses its own document file, as a CLI user's would.
    """

    def __init__(self, seed: int, workdir: str):
        from stabparts.cli import main

        self.main = main
        rng = random.Random(seed)
        self.docs = census_documents(rng)
        os.makedirs(workdir, exist_ok=True)
        paths = {}
        for i, (key, doc) in enumerate([(k, d) for k, (d, _) in self.docs.items()]
                                       + list(MALFORMED)):
            paths[key] = os.path.join(workdir, f"doc{i}.json")
            with open(paths[key], "w") as fh:
                json.dump(doc, fh)
        requests = [(command, name, p, extra) for name, p in CENSUS_GROUPS
                    for command, extra in (("census", ()),
                                           ("classify", ("--strategy", "exhaustive")),
                                           ("concealed", ()))]
        requests += list(SMALL_REQUESTS) + [("census", "Sym(10)", 2, ())]
        self.cases = []
        for command, key, p, extra in requests:
            if extra == ("--seed",):
                extra = ("--seed", str(rng.randrange(1000)))
            self.cases.append((command, key, p, [command, paths[key], "--p", str(p), *extra]))
        self.cases += [("malformed", key, None, ["census", paths[key], "--p", "2"])
                       for key, _ in MALFORMED]
        rng.shuffle(self.cases)

    def _request(self, args, malformed: bool):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=args, prog_name="stabparts", standalone_mode=True)
            except SystemExit as exc:
                code = exc.code or 0
        lines = err.getvalue().strip().splitlines()
        if malformed:
            if code != 2 or len(lines) != 1 or not lines[0].startswith("error: "):
                raise RequestFailed(f"exit {code}: {err.getvalue().strip()[-200:]}")
            return code, None
        if code not in (0, 10, 11):
            raise RequestFailed(f"exit {code}: {err.getvalue().strip()[-200:]}")
        return code, out.getvalue()

    def ops(self):
        return [(f"{command} {key}" + (f" p={p}" if p else ""),
                 lambda args=args, m=command == "malformed": self._request(args, m))
                for command, key, p, args in self.cases]

    def checks(self):
        keys = sorted({(key, p) for command, key, p, _ in self.cases
                       if command != "malformed" and self.docs[key][1].degree <= 20})
        facts = dict(zip(keys, oracle.subset_facts([(self.docs[k][1], p) for k, p in keys])))
        return [lambda r, c=case: check_request(c, self.docs, facts, r) for case in self.cases]


def check_moderation(facts: oracle.SubsetFacts, report: dict) -> None:
    G = facts.G
    expect(report["group_order"] == G.order and report["group_p_part"] == facts.gp,
           f"{G.name}: order {report['group_order']}")
    expect((report["status"] == "MODERATE") == facts.moderate(),
           f"{G.name} at p={facts.p}: {report['status']}")
    if report["status"] == "MODERATE":
        part = facts.part(oracle.mask_of(report["witness"]))
        expect(part == report["stab_p_part"] and 1 < part < facts.gp,
               f"witness {report['witness']} has p-part {part}")
    elif report["concealed"] is not None:
        expect(report["concealed"] == facts.concealed(), f"{G.name}: concealed flag")


def check_request(case, docs, facts, result) -> None:
    command, key, p, _ = case
    code, stdout = result
    if command == "malformed":
        return
    G = docs[key][1]
    if command == "prop31" and code == 11:  # inapplicable: no report
        expect(PROP31[key][0] == 11, f"{key}: exit 11")
        return
    report = json.loads(stdout)
    summary = report["group"]
    expect(summary["order"] == G.order and summary["degree"] == G.degree,
           f"{key}: order {summary['order']}, degree {summary['degree']}")
    expect(summary["transitive"] == (oracle.point_orbits(G) == 1), f"{key}: transitivity")
    payload = report["payload"]
    f = facts.get((key, p))
    if command in ("classify", "witness"):
        expect(code == (0 if payload["status"] == "MODERATE" else 10), f"exit {code}")
        check_moderation(f, payload)
    elif command == "concealed":
        expect(code == 0 and payload["concealed"] == f.concealed(), f"{key}: concealed")
        if not payload["concealed"]:
            expect(f.uncovered(oracle.mask_of(payload["counterexample"])), "covered")
    elif command == "census":
        hist = {int(k): v for k, v in payload["histogram"].items()}
        expect(code == 0 and hist == f.histogram(), f"{key}: histogram {hist}")
    elif command == "sylow":
        count = payload["count"]
        expect(code == 0 and oracle.sylow_axioms(G.order, p, count, payload["sylow_order"])
               and payload["normalizer_index"] == count
               and payload["cover_bound"]["sylow_count"] == count, f"{key}: n_{p} = {count}")
    elif command == "prop31":
        want_code, lhs, rhs = PROP31[key]
        expect(code == want_code, f"{key}: exit {code}, expected {want_code}")
        if code == 0:
            n, fixed, index = payload["n"], payload["fixed_points"], payload["sylow_norm_index"]
            expect(oracle.sylow_axioms(G.order, p, index, oracle.p_part(G.order, p))
                   and int(payload["lhs_power"]) == index ** (p * p) == lhs
                   and int(payload["rhs_power"]) == 2 ** ((n - fixed) * (p - 1)) == rhs
                   and payload["verdict"] == (lhs < rhs), f"{key}: certificate {payload}")
            if payload["verdict"]:
                part = f.part(oracle.mask_of(payload["witness"]))
                expect(part == payload["witness_p_part"] and p <= part < f.gp,
                       f"{key}: witness p-part {part}")


WORKLOADS = {"paper": Paper, "census": Census, "stabilizers": Stabilizers}
assert set(CLI_COMMANDS) == {"census", "classify", "concealed"} | {
    c for c, _, _, _ in SMALL_REQUESTS}
