"""Batch front end: parse the JSON interchange formats, run the pipelines,
emit deterministic reports.

Exit codes: 0 success, 1 input or validation failure, 2 a verified property
fails on the instance (witness on stderr), 64 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import constructs as _constructs
from . import games as _games
from .errors import InputError, PropertyViolation
from .graphs import Graph, graph_trees, incidence_hypergraph
from .hypergraph import Hypergraph
from .minimodel import SignConvention
from .pipeline import check_report, complex_for_graph, homology_report
from .variants import GenusGrading, Orientation, classify

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=1))
    sys.stdout.write("\n")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None
    except ValueError as exc:  # e.g. an integer literal over the interpreter's digit limit
        raise InputError(f"cannot read the JSON in {path}: {exc}") from None


def _load_hypergraph(path: str) -> Hypergraph:
    return Hypergraph.from_json(_load_json(path))


def _load_graph(path: str):
    raw = _load_json(path)
    return Graph.from_json(raw), raw


def _load_game(spec: str, ground):
    if spec in ("pow3", "loday"):
        return _games.builtin_game(spec, ground)
    return _games.game_from_json(_load_json(spec), ground)


def _convention(args) -> SignConvention:
    return SignConvention.from_name(getattr(args, "sign_convention", "default"))


# -- hg subcommands --------------------------------------------------------


def _hg_check(args):
    h = _load_hypergraph(args.input)
    _emit(
        {
            "ok": True,
            "vertices": len(h),
            "hyperedges": len(h.edges),
            "connected": h.is_connected(),
            "saturated": h.is_saturated(),
        }
    )
    return 0


def _hg_constructs(args):
    h = _load_hypergraph(args.input)
    if args.rank == 0:
        grades = [_constructs.vertex_constructs(h)]
    else:
        grades = _constructs.graded_constructs(h)
    if args.rank is not None:
        grades = [grade if k == args.rank else [] for k, grade in enumerate(grades)]
    items = [c for grade in reversed(grades) for c in grade]
    if args.count:
        by_rank = [len(grade) for grade in grades]
        while len(by_rank) > 1 and by_rank[-1] == 0 and args.rank is not None:
            by_rank.pop()
        _emit({"by_rank": by_rank, "total": len(items)})
    else:
        _emit([c.to_json(h) for c in items])
    return 0


def _hg_poset(args):
    if args.max_faces < 0:
        raise InputError(f"--max-faces must be at least 0, got {args.max_faces}")
    h = _load_hypergraph(args.input)
    grades = _constructs.graded_constructs(h)
    by_rank = [len(grade) for grade in grades]
    if sum(by_rank) > args.max_faces:
        # over the cap the CLI reports counts only
        _emit({"capped": True, "by_rank": by_rank, "total": sum(by_rank)})
        return 0
    poset = _constructs.FacePoset(h, grades)
    if args.format == "dot":
        sys.stdout.write(poset.to_dot())
        sys.stdout.write("\n")
    else:
        _emit(poset.to_json())
    return 0


def _hg_diamond(args):
    h = _load_hypergraph(args.input)
    ok, witness = _constructs.check_diamond(h)
    if not ok:
        raise PropertyViolation("diamond property fails", witness)
    _emit({"diamond": True})
    return 0


def _hg_realize(args):
    h = _load_hypergraph(args.input)
    game = _load_game(args.game, h.vertices)
    if args.verify_brute_force:
        _games.require_brute_force_size(len(h))
    realization = _games.realize(h, game)
    report = realization.to_json()
    if args.verify_brute_force:
        points = _games.brute_force_vertices(realization.hrep)
        agrees = set(points) == realization.points()
        if not agrees:
            raise PropertyViolation(
                "brute-force vertex enumeration disagrees with the realization",
                {
                    "realized": _coordinate_strings(realization.points()),
                    "brute_force": _coordinate_strings(points),
                },
            )
        report["verification"] = {
            "brute_force_agrees": True,
            "num_vertices": len(points),
        }
    _emit(report)
    return 0


def _coordinate_strings(points) -> list:
    """Points in ascending order, each as its coordinate strings."""
    return [[str(x) for x in p] for p in sorted(points)]


# -- graph subcommands -------------------------------------------------------


def _graph_validate(args):
    g, _ = _load_graph(args.input)
    _emit(
        {
            "ok": True,
            "vertices": list(g.vertices),
            "internal_edges": list(g.edge_names()),
            "legs": list(g.legs),
            "b1": g.b1(),
        }
    )
    return 0


def _graph_hyper(args):
    g, _ = _load_graph(args.input)
    _emit(incidence_hypergraph(g).to_json())
    return 0


def _graph_gtrees(args):
    g, _ = _load_graph(args.input)
    h = incidence_hypergraph(g)
    items = _constructs.enumerate_constructs(h)
    trees = graph_trees(g, items)
    if args.count:
        by_vertices: dict = {}
        for t in trees:
            by_vertices[t.num_vertices()] = by_vertices.get(t.num_vertices(), 0) + 1
        _emit(
            {
                "total": len(trees),
                "by_tree_vertices": {str(k): v for k, v in sorted(by_vertices.items())},
            }
        )
    else:
        _emit([t.to_json() for t in trees])
    return 0


# -- model subcommands ---------------------------------------------------------


def _model_boundary(args):
    g, _ = _load_graph(args.input)
    convention = _convention(args)
    complex_ = complex_for_graph(g, convention, name=Path(args.input).stem)
    if args.format == "triplet":
        sys.stdout.write(complex_.to_triplets(args.rank))
        sys.stdout.write("\n")
        return 0
    _emit(complex_.to_json(args.rank))
    return 0


def _model_homology(args):
    g, _ = _load_graph(args.input)
    report = homology_report(g, _convention(args), name=Path(args.input).stem)
    _emit(report)
    return 0


def _model_check(args):
    g, _ = _load_graph(args.input)
    _emit(check_report(g, _convention(args), name=Path(args.input).stem))
    return 0


# -- variants ---------------------------------------------------------------------


def _variants_classify(args):
    g, raw = _load_graph(args.input)
    grading = GenusGrading.from_json(g, raw["genus"]) if "genus" in raw else None
    orientation = (
        Orientation.from_json(g, raw["orientation"]) if "orientation" in raw else None
    )
    _emit(classify(g, grading, orientation))
    return 0


# -- wiring ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hgpoly", description=__doc__)
    top = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, func, **flags):
        p = group.add_parser(name)
        p.add_argument("input")
        for flag, spec in flags.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
        return p

    hg = parser_group(top, "hg")
    sub(hg, "check", _hg_check)
    sub(
        hg,
        "constructs",
        _hg_constructs,
        **{
            "--count": {"action": "store_true"},
            "--rank": {"type": int, "default": None},
        },
    )
    sub(
        hg,
        "poset",
        _hg_poset,
        **{
            "--format": {"choices": ["json", "dot"], "default": "json"},
            "--max-faces": {"type": int, "default": _constructs.DEFAULT_MAX_FACES},
        },
    )
    sub(hg, "diamond", _hg_diamond)
    sub(
        hg,
        "realize",
        _hg_realize,
        **{
            "--game": {"required": True},
            "--verify-brute-force": {"action": "store_true"},
        },
    )

    graph = parser_group(top, "graph")
    sub(graph, "validate", _graph_validate)
    sub(graph, "hyper", _graph_hyper)
    sub(graph, "gtrees", _graph_gtrees, **{"--count": {"action": "store_true"}})

    model = parser_group(top, "model")
    sign = {"--sign-convention": {"choices": ["default", "alt"], "default": "default"}}
    sub(
        model,
        "boundary",
        _model_boundary,
        **{
            "--rank": {"type": int, "default": None},
            "--format": {"choices": ["json", "triplet"], "default": "json"},
            **sign,
        },
    )
    sub(model, "homology", _model_homology, **sign)
    sub(model, "check", _model_check, **sign)

    variants = parser_group(top, "variants")
    sub(variants, "classify", _variants_classify)
    return parser


def parser_group(top, name):
    p = top.add_parser(name)
    group = p.add_subparsers(dest="command", required=True)
    return group


@functools.cache
def _parser() -> _Parser:
    """The parser of `main`, built once per process; it holds no state
    between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except PropertyViolation as exc:
        sys.stderr.write(f"property violated: {exc}\n")
        if getattr(exc, "witness", None) is not None:
            sys.stderr.write(f"witness: {exc.witness}\n")
        return 2
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
