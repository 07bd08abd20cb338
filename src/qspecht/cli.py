"""Command-line interface for batch computation with machine-readable output.

Every command prints a deterministic key/value document on stdout (or one
JSON object with --json); diagnostics go to stderr.  Exit code 0 means no
error and, for `verify`, that every check passed; 1 a failed check, 2 bad
input, and 141 a reader that closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinat import Partition, enumerate_standard, hook_count
from .roots import analyze, enumerate_p_root_standard, find_submodule_generators
from .scalar import GENERIC, ScalarDomain, root_of_unity
from .specht import (
    annihilator_checks,
    defining_relation_checks,
    generator_matrix,
    generator_relation_checks,
)

# above this module dimension, `verify` checks the defining relations on the
# generator vector instead of on every basis vector (see --full)
FULL_RELATION_DIM_LIMIT = 150

# exit status when stdout closes early: 128 + SIGPIPE, as a shell reports a
# process that SIGPIPE killed
EXIT_BROKEN_PIPE = 141


class CommandError(Exception):
    pass


def _domain_from_p(p: int | None) -> ScalarDomain:
    return GENERIC if p is None else root_of_unity(p)


def _domain_fields(domain: ScalarDomain) -> dict:
    return {"kind": "generic" if domain.is_generic else "root-of-unity", "p": domain.p}


def cmd_matrix(args) -> dict:
    shape = Partition.parse(args.shape)
    domain = _domain_from_p(args.p)
    matrix = generator_matrix(shape, args.gen, domain)
    return {
        "command": "matrix",
        "shape": list(shape.parts),
        "domain": _domain_fields(domain),
        "generator": args.gen,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "matrix": matrix.string_grid(),
    }


def cmd_verify(args) -> dict:
    shape = Partition.parse(args.shape)
    domain = _domain_from_p(args.p)
    dim = hook_count(shape)
    full = args.full or dim <= FULL_RELATION_DIM_LIMIT
    relation_mode = "matrix" if full else "generator-vector"
    checks = (
        defining_relation_checks(shape, domain)
        if full
        else generator_relation_checks(shape, domain)
    )
    checks = list(checks) + annihilator_checks(shape, domain)
    return {
        "command": "verify",
        "shape": list(shape.parts),
        "domain": _domain_fields(domain),
        "relation_mode": relation_mode,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
        "result": "pass" if all(ok for _, ok in checks) else "fail",
    }


def cmd_decompose(args) -> dict:
    shape = Partition.parse(args.shape)
    if len(shape.parts) > 2:
        raise CommandError(f"decompose needs at most two parts, got {shape}")
    domain = _domain_from_p(args.p)
    report = analyze(shape, args.p)
    doc = {
        "command": "decompose",
        "shape": list(shape.parts),
        "domain": _domain_fields(domain),
        "reducible": report.reducible,
        "dim_specht": report.specht_dim,
        "dim_quotient": report.quotient_dim,
    }
    if report.reducible:
        doc["strip_multiplier"] = report.strip_multiplier
        doc["strip_length"] = report.strip.length if report.strip else None
        doc["strip_boxes"] = [list(box) for box in report.strip.boxes] if report.strip else None
        doc["submodule_shape"] = list(report.submodule_shape.parts)
        doc["dim_submodule"] = report.submodule_dim
    if args.oracle:
        if report.reducible:
            generators = find_submodule_generators(shape, report.submodule_shape, args.p)
        else:
            generators = ()
        doc["oracle_kernel"] = [
            {str(t): str(c) for t, c in v.terms().items()} for v in generators
        ]
    return doc


def cmd_tableaux(args) -> dict:
    shape = Partition.parse(args.shape)
    domain = _domain_from_p(args.p)
    if args.filter == "p-root":
        if args.p is None:
            raise CommandError("--filter p-root requires --p")
        if len(shape.parts) > 2:
            raise CommandError(f"p-root filter needs at most two parts, got {shape}")
        tableaux = enumerate_p_root_standard(shape, args.p)
    else:
        tableaux = enumerate_standard(shape)
    return {
        "command": "tableaux",
        "shape": list(shape.parts),
        "domain": _domain_fields(domain),
        "filter": args.filter,
        "count": len(tableaux),
        "tableaux": [str(t) for t in tableaux],
    }


def _print_text(doc: dict):
    simple_keys = {
        "command", "generator", "rows", "cols", "reducible", "dim_specht",
        "dim_quotient", "strip_multiplier", "strip_length", "submodule_shape",
        "dim_submodule", "filter", "count", "relation_mode", "result",
    }
    print(f"command: {doc['command']}")
    print("shape: " + ",".join(str(part) for part in doc["shape"]))
    domain = doc["domain"]
    if domain["kind"] == "generic":
        print("domain: generic")
    else:
        print(f"domain: root-of-unity p={domain['p']}")
    for key, value in doc.items():
        if key in ("command", "shape", "domain"):
            continue
        if key in simple_keys:
            if key == "submodule_shape":
                value = ",".join(str(part) for part in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            print(f"{key.replace('_', '-')}: {value}")
        elif key == "strip_boxes":
            boxes = " ".join(f"({r},{c})" for r, c in value) if value else ""
            print(f"strip-boxes: {boxes}")
        elif key == "matrix":
            print("matrix:")
            for row in value:
                print("[" + ", ".join(row) + "]")
        elif key == "checks":
            for check in value:
                status = "pass" if check["pass"] else "FAIL"
                print(f"check: {check['name']} ... {status}")
        elif key == "tableaux":
            for t in value:
                print(f"tableau: {t}")
        elif key == "oracle_kernel":
            for i, vector in enumerate(value):
                terms = " + ".join(
                    f"({coeff})*[{t}]" for t, coeff in vector.items()
                ) or "0"
                print(f"oracle-kernel-{i}: {terms}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspecht",
        description="Exact Specht module representations of the Hecke algebra H_n(q)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    matrix = sub.add_parser("matrix", help="generator matrix in the standard basis")
    matrix.add_argument("--shape", required=True, help="partition, e.g. 3,2")
    matrix.add_argument("--gen", required=True, type=int, help="generator index i of h_i")
    matrix.add_argument("--p", type=int, default=None, help="root-of-unity order (generic if absent)")
    matrix.add_argument("--json", action="store_true")
    matrix.set_defaults(handler=cmd_matrix)

    verify = sub.add_parser("verify", help="check defining relations and annihilators")
    verify.add_argument("--shape", required=True)
    verify.add_argument("--p", type=int, default=None)
    verify.add_argument("--full", action="store_true",
                        help="force matrix-identity relation checks regardless of dimension")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(handler=cmd_verify)

    decompose = sub.add_parser("decompose", help="two-row root-of-unity decomposition")
    decompose.add_argument("--shape", required=True)
    decompose.add_argument("--p", type=int, required=True)
    decompose.add_argument("--oracle", action="store_true",
                           help="also compute the annihilator-kernel generators")
    decompose.add_argument("--json", action="store_true")
    decompose.set_defaults(handler=cmd_decompose)

    tableaux = sub.add_parser("tableaux", help="list standard or p-root standard tableaux")
    tableaux.add_argument("--shape", required=True)
    tableaux.add_argument("--p", type=int, default=None)
    tableaux.add_argument("--filter", choices=["standard", "p-root"], default="standard")
    tableaux.add_argument("--json", action="store_true")
    tableaux.set_defaults(handler=cmd_tableaux)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except (CommandError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            _print_text(doc)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`qspecht ... | head`); send the
        # unflushed rest to devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    if doc.get("result") == "fail":
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
