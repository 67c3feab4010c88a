"""The package's import graph, and the CI workflow's command lines, read as
text: nothing here runs a stabparts command."""

import ast
import graphlib
import pathlib
import shlex

import click

from stabparts.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabparts"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _targets(node: ast.ImportFrom) -> list[str]:
    """The package modules a relative import reads: `from .x import y` reads
    x, and `from . import y` reads y when y is a module, else __init__."""
    if node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def _imports(tree: ast.Module):
    """(module-level imports, imports inside a function body) of one module."""
    top, nested = [], []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                (nested if in_function else top).append(child)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return top, nested


def test_imports_are_module_level_and_acyclic():
    graph, nested = {}, []
    for name in MODULES:
        top, inner = _imports(ast.parse((PACKAGE / f"{name}.py").read_text()))
        nested += [f"{name}.py:{node.lineno}" for node in inner]
        graph[name] = {t for node in top if isinstance(node, ast.ImportFrom)
                       for t in _targets(node)} - {name}
    assert nested == []
    assert "classify" not in graph["census"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def _parse(args: list[str]) -> None:
    """Build the click context of `stabparts args`, running no command."""
    if args and args[0] in main.commands:
        parent = click.Context(main, info_name="stabparts")
        main.commands[args[0]].make_context(args[0], args[1:], parent=parent)
    else:
        main.make_context("stabparts", args)


def test_workflow_command_lines_parse(tmp_path):
    # a stale option in the workflow would otherwise show only on GitHub
    document = tmp_path / "group.json"
    document.write_text("{}")
    lines = [line.strip() for line in WORKFLOW.read_text().splitlines()
             if line.strip().startswith("stabparts ")]
    refused, commands = [], set()
    for line in lines:
        args = []
        for token in shlex.split(line)[1:]:
            if token[0] in "<>" or token[:2] in ("1>", "2>"):  # a redirection
                break
            args.append(str(document) if token.startswith("$RUNNER_TEMP/") else token)
        commands.add(args[0])
        try:
            _parse(args)
        except click.exceptions.Exit as exc:  # --version prints and exits
            if exc.exit_code != 0:
                refused.append((line, exc.exit_code))
        except click.ClickException as exc:
            refused.append((line, exc.format_message()))
    assert refused == []
    assert {"--version", "verify-paper", "classify", "census", "prop31"} <= commands
