"""``repro-lint`` — command-line front end for :mod:`repro.devtools`.

Usage::

    repro-lint src/repro                     # lint the tree, text output
    repro-lint --json src/repro              # machine-readable diagnostics
    repro-lint --format sarif --output lint.sarif src/repro
    repro-lint --rules RPR003 src/repro      # run a subset of rules
    repro-lint --cache .lint-cache.json src/repro   # warm runs skip files
    repro-lint --baseline lint-baseline.json src/repro  # gate on regression
    repro-lint --baseline lint-baseline.json --update-baseline src/repro
    repro-lint --contracts wire-contracts.json src/repro  # pin RPR010 file
    repro-lint --contracts wire-contracts.json --update-contracts src/repro
    repro-lint --list-rules                  # print the rule catalog
    repro-lint --explain RPR006              # one rule's full documentation

Exits 0 when no (non-baselined) error-severity diagnostics were produced,
1 otherwise, and 2 on usage errors (e.g. an unknown rule id).

The ``--json`` payload is an object carrying ``schema_version`` (bumped on
any breaking change to the payload shape, so CI consumers can detect
format drift), the ``findings`` array, and the incremental-cache
counters.  Text output is stable and unversioned.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.devtools.diagnostics import Severity
from repro.devtools.driver import run_lint
from repro.devtools.registry import all_checkers

#: Version of the ``--json`` payload shape.  1 was the bare findings array
#: (no version field — the bug this field fixes); 2 is the current object.
JSON_SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis for the repro codebase "
                    "(determinism, time units, layering, errors, dataclasses, "
                    "stage purity, worker state, wire contracts).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="shorthand for --format json",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="write formatted output to FILE instead of stdout",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RPR001,RPR003",
        help="comma-separated subset of rule ids to run (default: all)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="FILE", dest="cache_path",
        help="incremental analysis cache; warm runs skip unchanged files",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="accepted-findings file; only non-baselined findings fail",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the --baseline file from the current findings",
    )
    parser.add_argument(
        "--contracts", default=None, metavar="FILE",
        help="wire-contract file RPR010 checks against (default: nearest "
             "wire-contracts.json at or above a linted path)",
    )
    parser.add_argument(
        "--update-contracts", action="store_true",
        help="regenerate the --contracts file from the current source, "
             "bumping the version of every changed entry",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RPR0NN",
        help="print one rule's full documentation (what it flags, why, "
             "and how to fix or suppress findings) and exit",
    )
    return parser


def _explain(rule: str) -> int:
    """Print the documentation of ``rule``'s checker module."""
    import importlib

    rule = rule.strip().upper()
    for checker in all_checkers():
        if checker.rule != rule:
            continue
        module = importlib.import_module(type(checker).__module__)
        doc = (module.__doc__ or "").strip()
        print("%s  %s" % (checker.rule, checker.summary))
        if doc:
            print()
            print(doc)
        return 0
    print("repro-lint: unknown rule %r; --list-rules shows the catalog"
          % rule, file=sys.stderr)
    return 2


def _update_contracts(paths: Sequence[str], contracts: str) -> int:
    """Regenerate ``contracts`` from the wire declarations under ``paths``."""
    import ast as ast_module

    from repro.devtools.driver import iter_python_files, module_name_for
    from repro.devtools.wire import (
        build_contracts,
        extract_wire_decls,
        load_contracts,
        write_contracts,
    )

    decls = []
    for path in iter_python_files(paths):
        try:
            tree = ast_module.parse(path.read_text(encoding="utf-8"),
                                    filename=str(path))
        except SyntaxError:
            continue  # the lint run proper reports this as RPR000
        decls.extend(extract_wire_decls(tree, module_name_for(path)))
    existing: dict[str, dict] = {}
    try:
        existing = load_contracts(contracts)
    except (OSError, ValueError):
        pass  # first generation, or a file bad enough to rebuild
    write_contracts(build_contracts(decls, existing), contracts)
    print("repro-lint: wrote %d wire contract(s) to %s"
          % (len(decls), contracts), file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    if options.as_json:
        options.format = "json"

    if options.list_rules:
        for checker in all_checkers():
            print("%s  %s" % (checker.rule, checker.summary))
        return 0

    if options.explain is not None:
        return _explain(options.explain)

    if options.update_baseline and options.baseline is None:
        print("repro-lint: --update-baseline requires --baseline FILE",
              file=sys.stderr)
        return 2

    if options.update_contracts and options.contracts is None:
        print("repro-lint: --update-contracts requires --contracts FILE",
              file=sys.stderr)
        return 2

    rules = None
    if options.rules is not None:
        rules = [rule.strip().upper() for rule in options.rules.split(",")
                 if rule.strip()]
        known = {checker.rule for checker in all_checkers()}
        unknown = sorted(set(rules) - known)
        if unknown:
            print("repro-lint: unknown rule(s): %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2
        if not rules:
            print("repro-lint: --rules given but empty; pass rule ids or "
                  "omit the flag to run every rule", file=sys.stderr)
            return 2

    if options.update_contracts:
        try:
            return _update_contracts(options.paths, options.contracts)
        except OSError as error:
            print("repro-lint: cannot update contracts %s: %s"
                  % (options.contracts, error.strerror or error),
                  file=sys.stderr)
            return 2

    try:
        result = run_lint(options.paths, rules=rules,
                          cache_path=options.cache_path,
                          contracts_path=options.contracts)
    except OSError as error:
        print("repro-lint: cannot read %s: %s"
              % (getattr(error, "filename", "path"), error.strerror or error),
              file=sys.stderr)
        return 2

    if options.cache_path is not None:
        print("repro-lint: analyzed %d file(s), skipped %d unchanged"
              % (result.files_analyzed, result.files_skipped),
              file=sys.stderr)

    if options.update_baseline:
        from repro.devtools.baseline import write_baseline

        write_baseline(result.diagnostics, options.baseline)
        print("repro-lint: wrote %d finding(s) to %s"
              % (len(result.diagnostics), options.baseline), file=sys.stderr)
        return 0

    diagnostics = result.diagnostics
    if options.baseline is not None:
        from repro.devtools.baseline import filter_new, load_baseline

        try:
            accepted = load_baseline(options.baseline)
        except (OSError, ValueError) as error:
            print("repro-lint: cannot load baseline %s: %s"
                  % (options.baseline, error), file=sys.stderr)
            return 2
        diagnostics = filter_new(diagnostics, accepted)

    if options.format == "json":
        rendered = json.dumps({
            "schema_version": JSON_SCHEMA_VERSION,
            "findings": [d.to_dict() for d in diagnostics],
            "files_analyzed": result.files_analyzed,
            "files_skipped": result.files_skipped,
        }, indent=2)
    elif options.format == "sarif":
        from repro.devtools.sarif import to_sarif

        rendered = json.dumps(to_sarif(diagnostics), indent=2)
    else:
        rendered = "\n".join(d.format() for d in diagnostics)

    if options.output is not None:
        with open(options.output, "w", encoding="utf-8") as stream:
            stream.write(rendered + "\n")
    elif rendered:
        print(rendered)
    if options.format == "text" and diagnostics:
        print("repro-lint: %d finding(s)" % len(diagnostics), file=sys.stderr)

    failed = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
