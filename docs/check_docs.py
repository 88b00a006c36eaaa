#!/usr/bin/env python
"""Docs-consistency check: every code reference in the docs must exist.

Run from the repository root::

    PYTHONPATH=src python docs/check_docs.py

Scans ``README.md`` and ``docs/*.md`` and verifies five kinds of
references against the actual tree, exiting 1 with a per-reference
report if any is broken:

1. **Imports in python code fences** — every ``import repro...`` /
   ``from repro... import name`` line must import, and each imported
   name must exist in that module.
2. **Backticked dotted names** — any `` `repro.a.b.C` `` token must
   resolve: the longest importable module prefix is imported and the
   remainder is followed with ``getattr``.
3. **Repo-relative paths** — markdown link targets and backticked
   ``docs/...``, ``src/...``, ``tests/...``, ``benchmarks/...``,
   ``examples/...`` paths must exist on disk.
4. **Component names** — rows of catalog tables whose header is
   ``| kind | name | ... |`` (docs/SCENARIOS.md), and backticked
   ``kind:name`` tokens anywhere (e.g. `` `scheduler:sns` ``), must
   name components registered in the shared component registry.
5. **Spec keys** — every ``--set KEY=`` in the documents (code fences
   included) and in the comments of ``examples/scenarios/*.toml`` must
   name a scenario-spec field, resolved as
   ``ScenarioSpec.with_overrides`` resolves a dotted path (a bare
   ``name``/``mode``/``seed`` is a ``scenario.`` key).  The placeholder
   ``section.key`` is exempt.

The point is to fail CI when a doc names a module, symbol, or file that
a refactor renamed — the docs are checked against the code, not against
themselves.
"""

import argparse
import ast
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
DOTTED_RE = re.compile(r"\brepro(?:\.\w+)+")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PATH_RE = re.compile(r"^(?:docs|src|tests|benchmarks|examples)/[\w./-]+$")


def doc_files():
    return [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


def resolve_dotted(name: str) -> bool:
    """Import the longest module prefix of ``name``, getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def check_import_line(node, errors, where):
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] != "repro":
                continue
            if not resolve_dotted(alias.name):
                errors.append(f"{where}: import {alias.name} fails")
    elif isinstance(node, ast.ImportFrom):
        if node.level or not node.module:
            return
        if node.module.split(".")[0] != "repro":
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            if not resolve_dotted(f"{node.module}.{alias.name}"):
                errors.append(
                    f"{where}: from {node.module} import {alias.name} fails"
                )


def check_code_fences(text: str, doc: str, errors):
    for lang, body in FENCE_RE.findall(text):
        if lang not in ("python", "py"):
            continue
        # Doc snippets are often fragments; parse line-by-line so one
        # elided `...` doesn't hide the import lines around it.
        for line in body.splitlines():
            stripped = line.strip()
            if not stripped.startswith(("import ", "from ")):
                continue
            try:
                tree = ast.parse(stripped)
            except SyntaxError:
                continue
            for node in tree.body:
                check_import_line(node, errors, doc)


def strip_fences(text: str) -> str:
    return FENCE_RE.sub("", text)


def check_dotted_names(text: str, doc: str, errors):
    for token in BACKTICK_RE.findall(strip_fences(text)):
        for name in DOTTED_RE.findall(token):
            if not resolve_dotted(name):
                errors.append(f"{doc}: `{name}` does not resolve")


def check_paths(text: str, doc_path: pathlib.Path, errors):
    doc = doc_path.relative_to(ROOT).as_posix()
    prose = strip_fences(text)
    for target in LINK_RE.findall(prose):
        if target.startswith(("http://", "https://", "#", "mailto:")):
            continue
        rel = target.split("#")[0]
        if not rel:
            continue
        if not (doc_path.parent / rel).exists():
            errors.append(f"{doc}: link target {target} missing")
    for token in BACKTICK_RE.findall(prose):
        if PATH_RE.match(token) and not (ROOT / token).exists():
            errors.append(f"{doc}: path `{token}` missing")


TABLE_ROW_RE = re.compile(r"^\|(.+)\|\s*$")
COMPONENT_TOKEN_RE = re.compile(r"^([a-z][a-z-]*):([A-Za-z0-9_.-]+)$")


def _component_registry():
    from repro.scenarios.components import install_default_components
    from repro.scenarios.registry import REGISTRY

    install_default_components()
    return REGISTRY


def check_components(text: str, doc: str, errors):
    """Validate doc-referenced component names against the registry."""
    registry = _component_registry()
    kinds = set(registry.kinds())

    def verify(kind, name, where):
        if not registry.has(kind, name):
            hint = registry.suggest(kind, name)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            errors.append(
                f"{doc}: {where} names unregistered {kind} "
                f"{name!r}{extra}"
            )

    # catalog tables: | kind | name | ... | rows under that header
    in_catalog = False
    for line in text.splitlines():
        match = TABLE_ROW_RE.match(line.strip())
        if not match:
            in_catalog = False
            continue
        cells = [c.strip().strip("`") for c in match.group(1).split("|")]
        if len(cells) >= 2 and cells[0] == "kind" and cells[1] == "name":
            in_catalog = True
            continue
        if not in_catalog or set(cells[0]) <= {"-", " "}:
            continue
        if cells[0] in kinds:
            verify(cells[0], cells[1], "catalog row")

    # backticked kind:name tokens in prose
    for token in BACKTICK_RE.findall(strip_fences(text)):
        match = COMPONENT_TOKEN_RE.match(token)
        if match and match.group(1) in kinds:
            verify(match.group(1), match.group(2), f"`{token}`")


SET_RE = re.compile(r"--set\s+([\w.]+)=")


def spec_key_exists(key: str) -> bool:
    """Whether ``--set key=...`` names a spec field: the path rules of
    :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides` over the
    canonical dict, which materializes every field."""
    from repro.scenarios.spec import ScenarioSpec

    parts = key.split(".")
    if len(parts) == 1:
        parts = ["scenario", parts[0]]
    if len(parts) == 3 and parts[:2] == ["scheduler", "kwargs"]:
        return True
    doc = ScenarioSpec().to_dict()
    return len(parts) == 2 and parts[1] in doc.get(parts[0], {})


def check_spec_keys(text: str, doc: str, errors):
    for lineno, line in enumerate(text.splitlines(), 1):
        for key in SET_RE.findall(line):
            if key != "section.key" and not spec_key_exists(key):
                errors.append(
                    f"{doc}:{lineno}: --set {key}= names no spec key"
                )


def scenario_comments(path: pathlib.Path) -> str:
    """A spec file's comment lines only (line numbers kept)."""
    return "\n".join(
        line if line.lstrip().startswith("#") else ""
        for line in path.read_text().splitlines()
    )


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    errors = []
    for path in doc_files():
        text = path.read_text()
        doc = path.relative_to(ROOT).as_posix()
        check_code_fences(text, doc, errors)
        check_dotted_names(text, doc, errors)
        check_paths(text, path, errors)
        check_components(text, doc, errors)
        check_spec_keys(text, doc, errors)
    for path in sorted((ROOT / "examples" / "scenarios").glob("*.toml")):
        doc = path.relative_to(ROOT).as_posix()
        check_spec_keys(scenario_comments(path), doc, errors)
    if errors:
        print(f"docs-consistency: {len(errors)} broken reference(s)")
        for err in errors:
            print(f"  {err}")
        return 1
    print(f"docs-consistency: OK ({len(doc_files())} documents)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
