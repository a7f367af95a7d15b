"""Batch front door.

Loads a workspace document, runs validations, presheaf enumerations,
Morita decisions and completion checks, and emits deterministic human or
JSON reports.

Exit codes: 0 success (all valid / Morita equivalent / verified), 1 failure
(invalid object, not equivalent, parse error), 2 a resource cap was
exceeded, 3 a regularity precondition was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from itertools import compress

from .completion import build_idm, verify_rsdist_is_idm_matr
from .errors import (
    EnumerationCapExceeded,
    NotRegular,
    ParseError,
    QsError,
    SearchCapExceeded,
)
from .morita import morita_equivalent
from .presheaf import (
    CO,
    CONTRA,
    DEFAULT_CAP,
    _build_view,
    enumerate_presheaves,
    is_regular_presheaf,
    is_yoneda_presheaf,
)
from .workspace import load_path, load_workspace, parse_quantaloid, validate_report

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CAP = 2
EXIT_NOT_REGULAR = 3


def _emit(report, as_json, render):
    if as_json:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        for line in render(report):
            sys.stdout.write(line + "\n")


def _workspace(args):
    return load_workspace(load_path(args.workspace), args.cap)


def cmd_validate(args) -> int:
    doc = load_path(args.workspace)
    _, verdicts = validate_report(doc, args.cap)
    report = {
        "schema": 1,
        "objects": verdicts,
        "all_valid": all(v["valid"] for v in verdicts),
    }

    def render(rep):
        for v in rep["objects"]:
            status = "ok" if v["valid"] else f"INVALID ({v['error']})"
            yield f"{v['kind']} {v['name']}: {status}"
        yield f"all valid: {rep['all_valid']}"

    _emit(report, args.json, render)
    return EXIT_OK if report["all_valid"] else EXIT_FAIL


_CLASS_FILTERS = {
    "all": lambda phi: True,
    "regular": is_regular_presheaf,
    "yoneda": is_yoneda_presheaf,
}


def cmd_presheaves(args) -> int:
    A = _workspace(args).semicategory(args.name)
    types = [args.type] if args.type else list(A.base.objects)
    for t in types:
        if t not in A.base.objects:
            raise ParseError(f"unknown type {t!r}", witness=t)

    counts = {}
    class_counts = {cls: {} for cls in _CLASS_FILTERS}
    listed, pools = [], {}
    for t in types:
        pool = enumerate_presheaves(A, t, args.variance, args.cap)
        hits = {cls: [pred(phi) for phi in pool] for cls, pred in _CLASS_FILTERS.items()}
        for cls, flags in hits.items():
            class_counts[cls][str(t)] = sum(flags)
        found = pools[t] = list(compress(pool, hits[args.cls]))
        counts[str(t)] = len(found)
        for i, phi in enumerate(found):
            listed.append(
                {
                    "tag": f"{t}#{i}",
                    "type": str(t),
                    "values": {a: phi.value(a) for a in A.names},
                }
            )
    report = {
        "schema": 1,
        "object": args.name,
        "variance": args.variance,
        "class": args.cls,
        "counts": counts,
        "class_counts": class_counts,
        "total": sum(counts.values()),
        "presheaves": listed,
    }
    if args.matrices:
        view = _build_view(A, args.variance, pools)
        report["matrices"] = {f"{a1}>{a0}": e for (a1, a0), e in view.hom.items()}

    def render(rep):
        yield f"presheaves of {rep['object']} ({rep['variance']}, class={rep['class']})"
        for t in sorted(rep["counts"]):
            per_class = ", ".join(
                f"{cls}={rep['class_counts'][cls][t]}" for cls in sorted(rep["class_counts"])
            )
            yield f"  type {t}: {per_class}"
        for entry in rep["presheaves"]:
            vals = ", ".join(f"{a}={v}" for a, v in sorted(entry["values"].items()))
            yield f"  {entry['tag']}: {vals}"
        yield f"total: {rep['total']}"

    _emit(report, args.json, render)
    return EXIT_OK


def cmd_morita(args) -> int:
    ws = _workspace(args)
    A = ws.semicategory(args.first)
    B = ws.semicategory(args.second)
    result = morita_equivalent(A, B, args.cap)
    report = result.as_json()

    def render(rep):
        yield f"morita equivalent: {rep['morita']}"
        yield f"skeleton sizes: {rep['skeleton_sizes'][0]} vs {rep['skeleton_sizes'][1]}"
        yield f"certificate: {'found' if rep['certificate'] else 'none'}"
        yield f"routes agree: {rep['routes_agree']}"

    _emit(report, args.json, render)
    return EXIT_OK if result.equivalent else EXIT_FAIL


def cmd_completion_idm(args) -> int:
    if args.workspace:
        q = _workspace(args).quantaloid(args.name)
    else:
        q = parse_quantaloid(args.name)
    idm = build_idm(q)
    report = {
        "schema": 1,
        "objects": [
            {"tag": idm.tag(e), "object": e.dom, "elem": e.elem} for e in idm.objects
        ],
        "homs": {
            f"{t1}>{t2}": list(elems)
            for (t1, t2), elems in sorted(idm.hom_elements.items())
        },
        "identities": dict(sorted(idm.quantaloid.identity.items())),
    }

    def render(rep):
        yield f"idempotents: {len(rep['objects'])}"
        for o in rep["objects"]:
            yield f"  {o['tag']} (element {o['elem']} on {o['object']})"
        for key, elems in sorted(rep["homs"].items()):
            yield f"  hom {key}: {elems}"

    _emit(report, args.json, render)
    return EXIT_OK


def cmd_completion_verify(args) -> int:
    ws = _workspace(args)
    A = ws.semicategory(args.first)
    B = ws.semicategory(args.second)
    outcome = verify_rsdist_is_idm_matr(A, B, args.cap)
    report = {
        "schema": 1,
        "verdict": outcome.ok,
        "regular_semidistributors": outcome.regular_semidistributors,
        "compatible_matrices": outcome.compatible_matrices,
        "detail": outcome.detail,
    }

    def render(rep):
        yield f"verdict: {rep['verdict']}"
        yield (
            f"regular semidistributors: {rep['regular_semidistributors']}, "
            f"idempotent-fixed matrices: {rep['compatible_matrices']}"
        )
        if rep["detail"]:
            yield f"detail: {rep['detail']}"

    _emit(report, args.json, render)
    return EXIT_OK if outcome.ok else EXIT_FAIL


def _cap(text) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qsemicat",
        description="Validate, enumerate and compare quantaloid-enriched semicategories.",
    )
    parser.add_argument(
        "--cap", type=_cap, default=DEFAULT_CAP, help="enumeration/search bound (at least 1)"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate every object of a workspace")
    p.add_argument("workspace")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("presheaves", help="enumerate and classify presheaves")
    p.add_argument("workspace")
    p.add_argument("name")
    p.add_argument("--type", default=None, help="restrict to one base object")
    p.add_argument(
        "--class", dest="cls", choices=sorted(_CLASS_FILTERS), default="all"
    )
    p.add_argument("--variance", choices=[CONTRA, CO], default=CONTRA)
    p.add_argument("--matrices", action="store_true", help="include the hom matrix")
    p.set_defaults(func=cmd_presheaves)

    p = sub.add_parser("morita", help="decide Morita equivalence of two semicategories")
    p.add_argument("workspace")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_morita)

    p = sub.add_parser("completion", help="idempotent-splitting checks")
    comp = p.add_subparsers(dest="sub", required=True)
    c = comp.add_parser("idm", help="object/hom tables of the idempotent completion")
    c.add_argument("name", help="workspace quantaloid name or built-in constructor")
    c.add_argument("--workspace", default=None)
    c.set_defaults(func=cmd_completion_idm)
    c = comp.add_parser("verify", help="check regular semidistributors against the idempotent recipe")
    c.add_argument("workspace")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_completion_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QsError as exc:
        line = f"{type(exc).__name__}: {exc}"
        if exc.witness is not None:
            line += f" (witness: {exc.witness!r})"
        sys.stderr.write(line + "\n")
        if isinstance(exc, (EnumerationCapExceeded, SearchCapExceeded)):
            return EXIT_CAP
        if isinstance(exc, NotRegular):
            return EXIT_NOT_REGULAR
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
