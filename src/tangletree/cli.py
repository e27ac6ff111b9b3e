"""Command-line surface tying the pipelines together with stable formats.

Exit codes: 0 when every requested check passes, 2 when a check computed a
failing report, 1 on errors (malformed input, budget exhaustion, unknown
command). Reports distinguish `error` (could not compute) from `fail`
(computed, property violated). Every report embeds the tool version and a
hash of the invoking configuration, and repeated runs with the same
configuration produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from functools import cache

from . import __version__
from .errors import (
    FamilyParameterError,
    GraphFormatError,
    OutputError,
    PreconditionError,
    SeparationError,
    SequenceOrderError,
    TangletreeError,
    UnknownVertexError,
)
from .families import LayeredPresentation, generate_family
from .graph import Graph, _graph_of_document
from .limits import (
    _growth_table,
    check_interlaced_pair,
    construct_interlaced,
    exhaustiveness_evidence,
    thin_out,
)
from .separations import (
    DEFAULT_ENUMERATION_BUDGET,
    NestedSet,
    Separation,
    SeparationSequence,
    first_crossing,
)
from .tangles import PreTangle, check_tangle, clique_witness, enumerate_tangles
from .tree_of_tangles import (
    TreeDecomposition,
    _edge_induced_separation,
    build_tree_of_tangles,
    induce_tree_decomposition,
    verify_tree_decomposition,
    verify_tree_of_tangles,
)
from .ends import thick_end_pipeline


def _file_sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _config_hash(args: argparse.Namespace) -> str:
    # the output path steers delivery, not the computation, so it stays out
    # of the hash; inputs count by their contents, not by their paths
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "output"}
    payload["input"] = [_file_sha256(path) for path in args.input]
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _stamp(doc: dict, args) -> dict:
    doc["tool_version"] = __version__
    doc["config_hash"] = _config_hash(args)
    return doc


def _emit(args, text: str) -> None:
    """Write text to stdout, or atomically to --output: into a temporary
    file beside it, then renamed onto it, so the path never holds a partial
    artifact."""
    if not args.output:
        sys.stdout.write(text)
        return
    tmp = f"{args.output}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.output)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise OutputError(f"cannot write output {args.output}: {exc.strerror}") from exc


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load(path: str, parse):
    """parse(the JSON document at path). An unreadable file, invalid JSON,
    or a missing field or wrong type met while parsing is a GraphFormatError
    naming the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GraphFormatError(f"cannot read input: {exc.strerror}", context=path) from exc
    except ValueError as exc:  # invalid JSON or text encoding
        raise GraphFormatError(f"invalid JSON: {exc}", context=path) from exc
    try:
        return parse(doc)
    except GraphFormatError as exc:  # a library parser's names no path
        if exc.context is not None:
            raise
        raise GraphFormatError(str(exc), context=path) from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"malformed document: {exc!r}", context=path) from exc


def _inputs(args, count: int) -> list[str]:
    """The --input paths, of which the command needs at least `count`."""
    if len(args.input) < count:
        raise GraphFormatError(
            f"{args.command} needs {count} --input documents, got {len(args.input)}",
            context="--input",
        )
    return args.input


def _as_presentation(doc: dict) -> LayeredPresentation:
    if doc.get("kind") == "presentation":
        return LayeredPresentation.from_json(doc)
    return generate_family(doc["family"], doc.get("params", {}))


def _family_presentation(args) -> LayeredPresentation:
    if args.family:
        params: dict = {"horizon": args.horizon}
        if args.sizes:
            try:
                params["sizes"] = [int(s) for s in args.sizes.split(",")]
            except ValueError:
                raise FamilyParameterError(
                    f"--sizes must be comma-separated integers, got {args.sizes!r}"
                ) from None
        if args.width is not None:
            params["width"] = args.width
        return generate_family(args.family, params)
    if args.input:
        return _load(args.input[0], _as_presentation)
    raise TangletreeError("either --family or --input is required")


def _family_bundle(p: LayeredPresentation):
    """Canonical nested set, per-layer chains, and tangle pool at the top."""
    chains = p.canonical_layer_chains()
    if not chains:
        raise PreconditionError(f"no canonical separations up to horizon {p.horizon}")
    top = max(chains)
    g = p.graph_at(top)
    members = [item.canonical() for item in chains[top]]
    nested = NestedSet.of(g, members)
    pool = []
    if p.family == "clique_chain":
        pool = [
            clique_witness(g, p.clique(nn), len(p.clique(nn)))
            for nn in range(len(p.cliques))
        ]
    return nested, chains, pool


def cmd_generate(args) -> int:
    p = _family_presentation(args)
    _emit_json(args, _stamp(p.to_json(), args))
    return 0


def cmd_tangles(args) -> int:
    g = _load(_inputs(args, 1)[0], _graph_of_document)
    found = enumerate_tangles(g, args.order, budget=args.budget)
    doc = {
        "kind": "tangle_list",
        "order_bound": args.order,
        "tangles": [t.to_json() for t in found],
    }
    _emit_json(args, _stamp(doc, args))
    return 0


def cmd_tot(args) -> int:
    g = _load(_inputs(args, 1)[0], _graph_of_document)
    found = enumerate_tangles(g, args.order, budget=args.budget)
    nested = build_tree_of_tangles(g, list(found), budget=args.budget)
    report = verify_tree_of_tangles(g, nested, list(found), budget=args.budget)
    doc = {
        "kind": "nested_set",
        "members": [s.to_json() for s in nested],
        "report": {
            "nested_ok": report.nested_ok,
            "relevance": [
                {"sep": m.to_json(), "status": status}
                for m, status in sorted(report.relevance.items(), key=lambda kv: kv[0].sort_key)
            ],
            "efficiency": [
                {"pair": list(pair), "status": status}
                for pair, status in sorted(report.efficiency.items())
            ],
            "ok": report.ok,
        },
        "tangle_count": len(found),
    }
    _emit_json(args, _stamp(doc, args))
    return 0 if report.ok else 2


def cmd_decompose(args) -> int:
    paths = _inputs(args, 2)
    g = _load(paths[0], _graph_of_document)
    members = _load(paths[1], lambda doc: [Separation.from_json(g, d).canonical() for d in doc["members"]])
    try:
        nested = NestedSet.of(g, members)
    except SequenceOrderError:  # name the first crossing pair in document order
        crossing = first_crossing(members)
        doc = {
            "kind": "report",
            "check": "nestedness",
            "status": "fail",
            "witness": [crossing[0].to_json(), crossing[1].to_json()],
        }
        _emit_json(args, _stamp(doc, args))
        return 2
    td = induce_tree_decomposition(g, nested)
    report = verify_tree_decomposition(g, td, nested, [])
    if args.format == "dot":
        _emit(args, td.to_dot())
        return 0 if report.ok else 2
    doc = td.to_json()
    doc["report"] = {
        "tree_ok": report.tree_ok,
        "t1_cover": report.t1_cover,
        "t2_edges": report.t2_edges,
        "t3_connected": report.t3_connected,
        "induced_equal": report.induced_equal,
        "ok": report.ok,
    }
    _emit_json(args, _stamp(doc, args))
    return 0 if report.ok else 2


def cmd_limits(args) -> int:
    p = _family_presentation(args)
    chains = p.canonical_layer_chains()
    verdict = exhaustiveness_evidence(p, chains)
    doc = verdict.to_json()
    if verdict.verdict == "non-exhaustive-witness":
        table = _growth_table(chains)
        if args.format == "csv":
            _emit(args, table.to_csv())
            return 0
        doc["growth"] = table.to_json()
    _emit_json(args, _stamp(doc, args))
    return 0


def cmd_interlace(args) -> int:
    if args.family:
        p = _family_presentation(args)
        nested, chains, pool = _family_bundle(p)
        top = max(chains)
        g = p.graph_at(top)
        depth = max(2, top - 3)
        seq = SeparationSequence.strictly_increasing(chains[top].items[:depth])
    else:
        paths = _inputs(args, 4)
        g = _load(paths[0], _graph_of_document)
        nested = _load(paths[1], lambda doc: NestedSet.from_json(g, doc))
        seq = _load(paths[2], lambda doc: SeparationSequence.from_json(g, doc))
        pool = _load(paths[3], lambda doc: [PreTangle.from_json(g, d) for d in doc["tangles"]])
    pair = construct_interlaced(g, nested, seq, pool, budget=args.budget)
    report = check_interlaced_pair(g, pair, budget=args.budget)
    thinned = thin_out(pair)
    thin_report = check_interlaced_pair(g, thinned.pair, budget=args.budget)
    doc = pair.to_json()
    doc["im_report"] = {
        "im1_ok": report.im1_ok,
        "im2_ok": report.im2_ok,
        "thin_out_selected": list(thinned.selected),
        "thinned_im1_ok": thin_report.im1_ok,
        "thinned_im2_ok": thin_report.im2_ok,
    }
    _emit_json(args, _stamp(doc, args))
    return 0 if report.ok and thin_report.ok else 2


def cmd_ends(args) -> int:
    p = _family_presentation(args)
    nested, chains, pool = _family_bundle(p)
    report = thick_end_pipeline(p, nested, chains, pool, budget=args.budget)
    if args.format == "csv":
        lines = ["horizon,packing"]
        if not report.rejected:
            lines += [
                f"{m},{size}"
                for m, size in report.stage("packing_growth").details["packings"]
            ]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, _stamp(report.to_json(), args))
    return 0 if report.ok else 2


def _kind_of(doc: dict) -> str:
    if "kind" in doc:
        return doc["kind"]
    if "vertices" in doc and "edges" in doc:
        return "graph"
    raise TangletreeError("artifact kind not recognized")


def _as_first_graph(doc: dict) -> Graph:
    if _kind_of(doc) != "graph":
        raise TangletreeError("first input must be a graph document")
    return _graph_of_document(doc)


def _as_artifact(g: Graph, doc: dict):
    """(kind, parsed artifact) of a document `verify` checks against g."""
    kind = _kind_of(doc)
    if kind == "nested_set":
        return kind, [Separation.from_json(g, d).canonical() for d in doc["members"]]
    if kind == "tangle_list":
        return kind, [PreTangle.from_json(g, d) for d in doc["tangles"]]
    if kind == "tree_decomposition":
        return kind, TreeDecomposition.from_json(doc)
    raise TangletreeError(f"cannot verify artifact of kind {kind!r}")


def cmd_verify(args) -> int:
    paths = _inputs(args, 1)
    g = _load(paths[0], _as_first_graph)
    checks: list[dict] = []
    ok = True
    for path in paths[1:]:
        kind, artifact = _load(path, lambda doc: _as_artifact(g, doc))
        if kind == "nested_set":
            crossing = first_crossing(artifact)
            witness = [s.to_json() for s in crossing] if crossing else None
            checks.append(
                {"check": "nestedness", "status": "fail" if crossing else "pass", "witness": witness}
            )
            ok = ok and crossing is None
        elif kind == "tangle_list":
            bad = [
                i for i, t in enumerate(artifact) if not check_tangle(g, t, budget=args.budget).ok
            ]
            checks.append(
                {"check": "tangles", "status": "fail" if bad else "pass", "failing": bad}
            )
            ok = ok and not bad
        else:
            td = artifact
            try:
                induced = {_edge_induced_separation(g, td, edge).canonical() for edge in td.edges}
                nested = NestedSet.of(g, induced)
            except (SeparationError, SequenceOrderError, UnknownVertexError):  # a computed failure
                nested = NestedSet.of(g, ())
            report = verify_tree_decomposition(g, td, nested, [])
            status = "pass" if report.ok else "fail"
            checks.append({"check": "tree_decomposition", "status": status})
            ok = ok and report.ok
    doc = {"kind": "report", "checks": checks, "ok": ok}
    _emit_json(args, _stamp(doc, args))
    return 0 if ok else 2


COMMANDS = {
    "generate": cmd_generate,
    "tangles": cmd_tangles,
    "tot": cmd_tot,
    "decompose": cmd_decompose,
    "limits": cmd_limits,
    "interlace": cmd_interlace,
    "ends": cmd_ends,
    "verify": cmd_verify,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser: the command name, then options shared by every command,
    which may also come before the name. Built once: parsing leaves it
    unchanged, and `append` copies the `--input` default before adding."""
    parser = argparse.ArgumentParser(
        prog="tangletree",
        description="Separation, tangle, and end analysis on finite windows",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", action="append", default=[], help="input artifact path (repeatable)")
    parser.add_argument("--family", choices=("clique_chain", "ray", "double_ray", "grid", "binary_tree"))
    parser.add_argument("--sizes", help="comma-separated clique sizes override")
    parser.add_argument("--horizon", type=int, default=3)
    parser.add_argument("--width", type=int, default=None, help="strip width for the grid family")
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    parser.add_argument("--format", choices=("json", "dot", "csv"), default="json")
    parser.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.budget < 1:
            raise PreconditionError("--budget must be positive")
        return COMMANDS[args.command](args)
    except TangletreeError as exc:
        # errors go to stdout, never to --output, so a failed command leaves
        # the artifact of an earlier run in place
        args.output = None
        if args.format == "json":
            doc = {
                "kind": "error",
                "error": type(exc).__name__,
                "message": str(exc),
            }
            _emit_json(args, _stamp(doc, args))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
