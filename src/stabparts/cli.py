"""Command-line front end.

JSON goes to stdout (machine-first), a short human summary to stderr.
Exit codes: 0 moderate / success, 10 extreme / not found, 11 criterion
inapplicable, 2 usage or resource error.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable

import click

from . import __version__
from . import census as census_module
from .affine import group_from_document
from .census import (
    CriterionInapplicable,
    prop_certificate,
    randomized_witness_from_z,
    sylow_cover_bound,
)
from .classify import ModerationReport, census_histogram, classify_moderation, is_p_concealed
from .perms import MAX_DEGREE, PermGroup, ResourceLimit, is_primitive, stab_p_part
from .sylow import all_sylows
from .verify import run_all

EXIT_MODERATE = 0
EXIT_EXTREME = 10
EXIT_INAPPLICABLE = 11
EXIT_ERROR = 2


def _load_group(spec_file: str) -> tuple[dict, PermGroup]:
    with open(spec_file) as fh:
        try:
            doc = json.load(fh)
            return doc, group_from_document(doc)
        except RecursionError:
            raise ValueError("group document is nested too deeply") from None


def _summary(G: PermGroup) -> dict:
    return {
        "degree": G.degree,
        "order": G.order,
        "transitive": G.is_transitive(),
        "primitive": is_primitive(G),
    }


def _fail(message: str, code: int = EXIT_ERROR) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _emit(started: float, note: str, code: int, **fields) -> None:
    """Print the JSON report to stdout and the note to stderr, and exit."""
    report = {"tool": "stabparts", "version": __version__, **fields,
              "elapsed_seconds": round(time.time() - started, 3)}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(note, file=sys.stderr)
    sys.exit(code)


def _run(spec_file: str, answer: Callable[[PermGroup], tuple[dict, str, int]]) -> None:
    """Load the group, answer, print the JSON report and the note, and exit.

    answer(G) gives the payload, the note and the exit code.  An error
    exits with a one-line message: 11 when the criterion is inapplicable,
    2 otherwise.
    """
    started = time.time()
    try:
        doc, G = _load_group(spec_file)
        payload, note, code = answer(G)
    except CriterionInapplicable as exc:  # a ValueError, so it comes first
        _fail(str(exc), EXIT_INAPPLICABLE)
    except (ValueError, ResourceLimit, OSError) as exc:
        _fail(str(exc))
    _emit(started, note, code, input=doc, group=_summary(G), payload=payload)


def _moderation(report: ModerationReport) -> tuple[dict, str, int]:
    code = EXIT_MODERATE if report.status == "MODERATE" else EXIT_EXTREME
    return report.to_json(), f"{report.status} (stage: {report.stage})", code


@click.group()
@click.version_option(__version__)
def main():
    """Decide p-concealment / p-moderation of finite permutation groups."""


_spec_arg = click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
# a prime dividing |G| is at most the degree; trial division of a larger p would hang
_p_opt = click.option("--p", "p", type=click.IntRange(max=MAX_DEGREE), required=True,
                      help="prime p")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)


@main.command()
@_spec_arg
@_p_opt
@click.option("--strategy", type=click.Choice(["exhaustive", "constructive"]),
              default="constructive", show_default=True)
@_seed_opt
def classify(spec_file, p, strategy, seed):
    """Classify (G, Omega) as p-MODERATE or p-EXTREME."""
    _run(spec_file, lambda G: _moderation(classify_moderation(G, p, strategy, seed=seed)))


@main.command()
@_spec_arg
@_p_opt
def concealed(spec_file, p):
    """Decide whether every subset is stabilized by some Sylow p-subgroup."""
    def answer(G):
        ok, least = is_p_concealed(G, p)
        payload = {"p": p, "concealed": ok,
                   "counterexample": least.sorted_points() if least else None}
        return payload, f"concealed: {ok}", EXIT_MODERATE

    _run(spec_file, answer)


@main.command()
@_spec_arg
@_p_opt
def census(spec_file, p):
    """Histogram of stabilizer p-parts over all 2^n subsets."""
    def answer(G):
        hist = census_histogram(G, p)
        payload = {"p": p, "histogram": {str(k): v for k, v in sorted(hist.items())}}
        return payload, f"{sum(hist.values())} subsets", EXIT_MODERATE

    _run(spec_file, answer)


@main.command()
@_spec_arg
@_p_opt
def sylow(spec_file, p):
    """Sylow p-subgroup data: order, count, normalizer index."""
    def answer(G):
        data = all_sylows(G, p)
        payload = data.to_json()
        payload["cover_bound"] = sylow_cover_bound(G, p, sylow=data).to_json()
        note = f"n_{p} = {data.count}, |P| = {data.representative.order}"
        return payload, note, EXIT_MODERATE

    _run(spec_file, answer)


@main.command()
@_spec_arg
@_p_opt
@_seed_opt
def prop31(spec_file, p, seed):
    """Counting-criterion certificate, plus a randomized witness when it holds."""
    def answer(G):
        cert = prop_certificate(G, p)
        payload = cert.to_json()
        if cert.verdict:
            delta = randomized_witness_from_z(G, p, cert.z, seed=seed)
            if delta is None:
                trials = census_module.SAMPLING_TRIALS
                _fail(f"criterion holds but no witness found in {trials} trials")
            payload["witness"] = delta.sorted_points()
            payload["witness_p_part"] = stab_p_part(G, delta, p)
        return payload, f"verdict: {cert.verdict}", EXIT_MODERATE

    _run(spec_file, answer)


@main.command()
@_spec_arg
@_p_opt
@_seed_opt
def witness(spec_file, p, seed):
    """Search for an explicit moderation witness (constructive strategy)."""
    _run(spec_file, lambda G: _moderation(classify_moderation(G, p, "constructive", seed=seed)))


@main.command("verify-paper")
@_seed_opt
def verify_paper(seed):
    """Run the full reproduction suite; one pass/fail line per criterion."""
    started = time.time()
    checks = run_all(seed=seed)
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
    _emit(started, f"{payload['passed']} passed, {payload['failed']} failed",
          1 if failed else 0, payload=payload)


if __name__ == "__main__":
    main()
