"""Span recorder for the traced run, wrapped around stabparts from outside.

`install` replaces the public functions of each layer by wrappers that
record a span (name, start, end, parent, operation id) plus counts.  Each
function is replaced under every name the package's modules import it by,
so calls between modules are seen too (`stabparts.classify.all_sylows` is
`stabparts.sylow.all_sylows`).  `Patches.restore` puts the originals back.

Spans stay in memory; `write` saves them when the run ends.  A layer's time
(`<layer>.s`) sums its spans that are not nested inside a span of the same
name, and self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

VERIFY_GROUPS = ("concealed_positives", "concealed_negative", "product_witness",
                 "product_counting", "counting_certificates", "spot_suite",
                 "property_suite")
CLI_COMMANDS = ("classify", "witness", "concealed", "sylow", "prop31", "census")
RECIPES = ("translation_witness", "regular_vector_witness", "p2_regular_witness",
           "metacyclic_witness", "orbit_witness_odd_p")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.answered: set = set()  # (group, p) pairs of the current operation
        self.modes: list[dict] = []  # classify_moderation calls in progress

    def begin_op(self, op: int) -> None:
        self.op = op
        self.answered = set()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- aggregation -----------------------------------------------------------

    def layer_seconds(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def self_seconds(self) -> Counter:
        child: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "op"],
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, fh)


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                          else getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Replace a function under every name a stabparts module binds it to."""
        for modname, mod in list(sys.modules.items()):
            if modname != "stabparts" and not modname.startswith("stabparts."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self) -> None:
        while self.undo:
            owner, attr, value = self.undo.pop()
            setattr(owner, attr, value)


def _span(rec: Recorder, name: str, fn, before=None, after=None, error=None):
    def wrapper(*args, **kwargs):
        if before:
            before(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if error:
                error(exc)
            raise
        finally:
            rec.close(idx)
        if after:
            after(result, *args, **kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> Patches:
    """Wrap every layer of the imported stabparts package."""
    from stabparts import affine, census, classify, cli, kernels, perms, sylow, verify

    P = Patches()
    c = rec.counts

    def wrap(mod, attr, name=None, **hooks):
        original = getattr(mod, attr)
        P.everywhere(original, _span(rec, name or f"{mod.__name__[10:]}.{attr}",
                                     original, **hooks))

    def count(key):
        return lambda *a, **k: c.update([key])

    # affine
    wrap(affine, "group_from_document", before=count("affine.group_from_document.calls"))

    # perms: first reads of the element table and of the stabilizer chain
    elements = perms.PermGroup.__dict__["elements"].fget
    chain = perms.PermGroup.__dict__["chain"].fget

    def traced_elements(G):
        if G._elements is not None:
            return G._elements
        idx = rec.open("perms.elements")
        try:
            rows = elements(G)
        except perms.ResourceLimit:
            c["perms.elements.failed"] += 1
            raise
        finally:
            rec.close(idx)
        c["perms.elements.rows"] += rows.shape[0]
        return rows

    def traced_chain(G):
        if G._chain is not None:
            return G._chain
        idx = rec.open("perms.chain")
        try:
            return chain(G)
        finally:
            rec.close(idx)

    P.set(perms.PermGroup, "elements", property(traced_elements))
    P.set(perms.PermGroup, "chain", property(traced_chain))

    def normalizer_done(result, G, H):
        c["perms.normalizer.calls"] += 1
        c["perms.normalizer.elements_scanned"] += G.elements.shape[0]

    wrap(perms, "normalizer", after=normalizer_done)
    subgroup = perms.PermGroup.subgroup

    def traced_subgroup(G, gens, name=None):
        gens = list(gens)
        c["perms.subgroup.calls"] += 1
        c["perms.subgroup.generators"] += len(gens)
        return subgroup(G, gens, name=name)

    P.set(perms.PermGroup, "subgroup", traced_subgroup)

    # kernels
    def scan(elems, n):
        c["kernels.stabilizer_counts.calls"] += 1
        c["kernels.stabilizer_counts.mask_elements"] += elems.shape[0] << n
        # one int64 word per mask, per bit, per element in the image loop
        c["kernels.stabilizer_counts.bytes_computed"] += (elems.shape[0] << n) * n * 8

    wrap(kernels, "stabilizer_counts", before=scan)
    wrap(kernels, "mark_orbit_unions",
         before=lambda covered, masks: c.update({"kernels.mark_orbit_unions.unions":
                                                 1 << len(masks)}))

    # sylow
    wrap(sylow, "find_sylow", before=count("sylow.find_sylow.calls"))

    def sylow_call(G, p):
        c["sylow.all_sylows.calls"] += 1
        key = (G.degree, tuple(g._key for g in G.generators), p)
        if key in rec.answered:
            c["sylow.all_sylows.repeats"] += 1
        rec.answered.add(key)

    wrap(sylow, "all_sylows", before=sylow_call)
    wrap(sylow, "is_elementary_abelian", "sylow.p_structure")
    wrap(sylow, "frattini_center_element", "sylow.p_structure")

    # classify
    def stab_done(result, G, delta):
        c["classify.setwise_stabilizer.calls"] += 1
        c["classify.setwise_stabilizer.stab_elements"] += (
            G._elements.shape[0] if result is G else len(result.generators) + 1)

    wrap(classify, "setwise_stabilizer", after=stab_done)

    def stab_part(G, delta, p):
        if rec.inside("census.randomized_witness_from_z"):
            c["census.randomized_witness_from_z.trials"] += 1

    wrap(classify, "stab_p_part", before=stab_part)
    wrap(classify, "census_histogram", before=count("classify.census_histogram.calls"))
    wrap(classify, "is_p_concealed", before=count("classify.is_p_concealed.calls"))
    def inapplicable(exc):
        if isinstance(exc, (classify.ConstructorInapplicable, perms.ResourceLimit)):
            c["classify.recipe.inapplicable"] += 1

    for recipe in RECIPES:
        wrap(classify, recipe, "classify.recipe", before=count("classify.recipe.attempts"),
             error=inapplicable)

    def verified(result, *args):
        c["classify.witness.candidates"] += 1
        c["classify.witness.hits"] += result is not None
        if rec.modes and rec.modes[-1]["sampling"]:
            c["classify.sampling.trials"] += 1

    wrap(classify, "_verify_witness", "classify.witness", after=verified)
    candidates = classify.constructive_candidates

    def traced_candidates(G, p):
        yield from candidates(G, p)
        if rec.modes:  # recipes exhausted: the sampling stage follows
            rec.modes[-1]["sampling"] = True

    P.everywhere(candidates, traced_candidates)
    classify_moderation = classify.classify_moderation

    def traced_moderation(G, p, strategy="constructive", seed=0):
        rec.modes.append({"strategy": strategy, "sampling": False})
        try:
            return classify_moderation(G, p, strategy, seed=seed)
        finally:
            rec.modes.pop()

    P.everywhere(classify_moderation, traced_moderation)

    def exhaustive(G, p):
        if rec.modes and rec.modes[-1]["strategy"] == "constructive":
            c["classify.exhaustive.fallbacks"] += 1

    wrap(classify, "exhaustive_p_parts", before=exhaustive)

    # census
    for attr in ("randomized_witness_from_z", "prop_certificate", "sylow_cover_bound"):
        wrap(census, attr)

    # cli: each subcommand's callback
    for command in CLI_COMMANDS:
        cmd = cli.main.commands[command]
        P.set(cmd, "callback", _span(rec, f"cli.{command}", cmd.callback))

    # verify: each check group
    for group in VERIFY_GROUPS:
        wrap(verify, group)
    return P


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics from the spans and counts of `rounds` rounds."""
    secs = rec.layer_seconds()
    self_s = rec.self_seconds()
    c = rec.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value / rounds if unit != "ratio" else value, unit)

    for layer in ("affine.group_from_document", "perms.elements", "perms.chain",
                  "perms.normalizer", "kernels.stabilizer_counts",
                  "kernels.mark_orbit_unions", "sylow.find_sylow", "sylow.all_sylows",
                  "sylow.p_structure", "classify.setwise_stabilizer",
                  "classify.census_histogram", "classify.is_p_concealed",
                  "classify.recipe", "census.randomized_witness_from_z",
                  "census.prop_certificate", "census.sylow_cover_bound"):
        put(f"{layer}.s", secs[layer], "s")
    for key in COUNTS:
        put(key, c[key], "count")
    candidates = c["classify.witness.candidates"]
    put("classify.witness.hit_ratio",
        c["classify.witness.hits"] / candidates if candidates else 0.0, "ratio")
    for command in CLI_COMMANDS:
        put(f"cli.{command}.self_s", self_s[f"cli.{command}"], "s")
    for group in VERIFY_GROUPS:
        put(f"verify.{group}.s", secs[f"verify.{group}"], "s")
    return out


COUNTS = (
    "affine.group_from_document.calls",
    "perms.elements.rows",
    "perms.elements.failed",
    "perms.normalizer.calls",
    "perms.normalizer.elements_scanned",
    "perms.subgroup.calls",
    "perms.subgroup.generators",
    "kernels.stabilizer_counts.calls",
    "kernels.stabilizer_counts.mask_elements",
    "kernels.stabilizer_counts.bytes_computed",
    "kernels.mark_orbit_unions.unions",
    "sylow.find_sylow.calls",
    "sylow.all_sylows.calls",
    "sylow.all_sylows.repeats",
    "classify.setwise_stabilizer.calls",
    "classify.setwise_stabilizer.stab_elements",
    "classify.census_histogram.calls",
    "classify.is_p_concealed.calls",
    "classify.recipe.attempts",
    "classify.recipe.inapplicable",
    "classify.witness.candidates",
    "classify.witness.hits",
    "classify.sampling.trials",
    "classify.exhaustive.fallbacks",
    "census.randomized_witness_from_z.trials",
)
