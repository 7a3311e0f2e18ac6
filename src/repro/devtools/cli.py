"""``repro-lint`` — command-line front end for :mod:`repro.devtools`.

Usage::

    repro-lint src/repro                     # lint the tree, text output
    repro-lint --json src/repro              # machine-readable diagnostics
    repro-lint --rules RPR003 src/repro      # run a subset of rules
    repro-lint --contracts wire-contracts.json src/repro  # pin RPR010 file
    repro-lint --contracts wire-contracts.json --update-contracts src/repro
    repro-lint --list-rules                  # print the rule catalog
    repro-lint --explain RPR010              # one rule's full documentation

Exits 0 when no error-severity diagnostics were produced, 1 otherwise,
and 2 on usage errors (e.g. an unknown rule id).

The ``--json`` payload is an object carrying ``schema_version`` (bumped on
any breaking change to the payload shape, so CI consumers can detect
format drift) and the ``findings`` array.  Text output is stable and
unversioned.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.devtools.diagnostics import Severity
from repro.devtools.driver import file_records, lint_paths
from repro.devtools.registry import all_checkers
from repro.devtools.wire import build_contracts, load_contracts, write_contracts

#: Version of the ``--json`` payload shape.  1 was the bare findings array
#: (no version field — the bug this field fixes); 2 was the first object,
#: which also carried the incremental cache's file counters; 3 drops them.
JSON_SCHEMA_VERSION = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static analysis for the repro codebase "
                    "(determinism, time units, layering, errors, dataclasses, "
                    "wire contracts).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print a versioned JSON object instead of text lines",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RPR001,RPR003",
        help="comma-separated subset of rule ids to run (default: all)",
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
    # No checkers: only the declarations are needed.  A file that does
    # not parse has none (the lint run proper reports it as RPR000).
    decls = [decl for record in file_records(paths, ())
             for decl in record.wire_decls]
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

    if options.list_rules:
        for checker in all_checkers():
            print("%s  %s" % (checker.rule, checker.summary))
        return 0

    if options.explain is not None:
        return _explain(options.explain)

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
        diagnostics = lint_paths(options.paths, rules=rules,
                                 contracts_path=options.contracts)
    except OSError as error:
        print("repro-lint: cannot read %s: %s"
              % (getattr(error, "filename", "path"), error.strerror or error),
              file=sys.stderr)
        return 2

    if options.as_json:
        print(json.dumps({
            "schema_version": JSON_SCHEMA_VERSION,
            "findings": [d.to_dict() for d in diagnostics],
        }, indent=2))
    elif diagnostics:
        print("\n".join(d.format() for d in diagnostics))
        print("repro-lint: %d finding(s)" % len(diagnostics), file=sys.stderr)

    failed = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
