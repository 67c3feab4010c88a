"""Command-line front end.

JSON goes to stdout (machine-first), a short human summary to stderr.
Exit codes: 0 moderate / success, 10 extreme / not found, 11 criterion
inapplicable, 2 usage or resource error.
"""

from __future__ import annotations

import json
import sys
import time

import click

from . import __version__
from .affine import group_from_document
from .census import (
    CriterionInapplicable,
    prop_certificate,
    randomized_witness_from_z,
    sylow_cover_bound,
)
from .classify import census_histogram, classify_moderation, is_p_concealed
from .perms import PermGroup, ResourceLimit, is_primitive
from .sylow import all_sylows
from .verify import run_all

EXIT_MODERATE = 0
EXIT_EXTREME = 10
EXIT_INAPPLICABLE = 11
EXIT_ERROR = 2


def _load_group(spec_file: str) -> tuple[dict, PermGroup]:
    with open(spec_file) as fh:
        doc = json.load(fh)
    return doc, group_from_document(doc)


def _summary(G: PermGroup) -> dict:
    transitive = G.is_transitive()
    return {
        "degree": G.degree,
        "order": G.order,
        "transitive": transitive,
        "primitive": is_primitive(G) if transitive else False,
    }


def _emit(doc: dict, G: PermGroup, payload: dict, started: float,
          note: str = "") -> None:
    report = {
        "tool": "stabparts",
        "version": __version__,
        "input": doc,
        "group": _summary(G),
        "payload": payload,
        "elapsed_seconds": round(time.time() - started, 3),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if note:
        print(note, file=sys.stderr)


def _fail(message: str, code: int = EXIT_ERROR) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


@click.group()
@click.version_option(__version__)
def main():
    """Decide p-concealment / p-moderation of finite permutation groups."""


_spec_arg = click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
_p_opt = click.option("--p", "p", type=int, required=True, help="prime p")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)


@main.command()
@_spec_arg
@_p_opt
@click.option("--strategy", type=click.Choice(["exhaustive", "constructive"]),
              default="constructive", show_default=True)
@_seed_opt
def classify(spec_file, p, strategy, seed):
    """Classify (G, Omega) as p-MODERATE or p-EXTREME."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        report = classify_moderation(G, p, strategy, seed=seed)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    _emit(doc, G, report.to_json(), started,
          note=f"{report.status} (stage: {report.stage})")
    sys.exit(EXIT_MODERATE if report.status == "MODERATE" else EXIT_EXTREME)


@main.command()
@_spec_arg
@_p_opt
def concealed(spec_file, p):
    """Decide whether every subset is stabilized by some Sylow p-subgroup."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        ok, counterexample = is_p_concealed(G, p)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    payload = {
        "p": p,
        "concealed": ok,
        "counterexample": counterexample.sorted_points() if counterexample else None,
    }
    _emit(doc, G, payload, started, note=f"concealed: {ok}")


@main.command()
@_spec_arg
@_p_opt
def census(spec_file, p):
    """Histogram of stabilizer p-parts over all 2^n subsets."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        hist = census_histogram(G, p)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    payload = {"p": p, "histogram": {str(k): v for k, v in sorted(hist.items())}}
    _emit(doc, G, payload, started, note=f"{sum(hist.values())} subsets")


@main.command()
@_spec_arg
@_p_opt
def sylow(spec_file, p):
    """Sylow p-subgroup data: order, count, normalizer index."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        data = all_sylows(G, p)
        bound = sylow_cover_bound(G, p, sylow=data)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    payload = data.to_json()
    payload["cover_bound"] = bound.to_json()
    _emit(doc, G, payload, started,
          note=f"n_{p} = {data.count}, |P| = {data.representative.order}")


@main.command()
@_spec_arg
@_p_opt
@click.option("--trials", type=int, default=1000, show_default=True)
@_seed_opt
def prop31(spec_file, p, trials, seed):
    """Counting-criterion certificate, plus a randomized witness when it holds."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    try:
        cert = prop_certificate(G, p)
    except CriterionInapplicable as exc:
        _fail(str(exc), EXIT_INAPPLICABLE)
    except (ValueError, ResourceLimit) as exc:
        _fail(str(exc))
    payload = cert.to_json()
    if cert.verdict:
        delta = randomized_witness_from_z(G, p, cert.z, trials=trials, seed=seed)
        if delta is None:
            _fail(f"criterion holds but no witness found in {trials} trials")
        from .classify import stab_p_part

        payload["witness"] = delta.sorted_points()
        payload["witness_p_part"] = stab_p_part(G, delta, p)
    _emit(doc, G, payload, started, note=f"verdict: {cert.verdict}")


@main.command()
@_spec_arg
@_p_opt
@_seed_opt
def witness(spec_file, p, seed):
    """Search for an explicit moderation witness (constructive strategy)."""
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        report = classify_moderation(G, p, "constructive", seed=seed)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    _emit(doc, G, report.to_json(), started,
          note=f"{report.status} (stage: {report.stage})")
    sys.exit(EXIT_MODERATE if report.status == "MODERATE" else EXIT_EXTREME)


@main.command("verify-paper")
@_seed_opt
@click.option("--trials", type=int, default=1000, show_default=True)
def verify_paper(seed, trials):
    """Run the full reproduction suite; one pass/fail line per criterion."""
    started = time.time()
    checks = run_all(seed=seed, trials=trials)
    for check in checks:
        print(check.line(), file=sys.stderr)
    failed = [c for c in checks if not c.passed]
    payload = {
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ],
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }
    report = {
        "tool": "stabparts",
        "version": __version__,
        "payload": payload,
        "elapsed_seconds": round(time.time() - started, 3),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(f"{payload['passed']} passed, {payload['failed']} failed",
          file=sys.stderr)
    sys.exit(0 if not failed else 1)


if __name__ == "__main__":
    main()
