"""Command-line driver: solve, brute-force, validate, topology, demos.

JSON goes to stdout, progress and warnings to stderr.  Exit codes: 0
success, 2 search budget exhausted, 3 validation, matching or expectation
failure, 4 bad input, usage errors included, 5 resource cap.  All
randomness flows from --seed, so a repeated invocation with the same flags
produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import complexes, preferences, reductions, solver
from .complexes import ResourceCapExceeded
from .preferences import PreferenceValidationError
from .solver import BudgetExhausted, MatchingError, SearchOptions

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_VALIDATION = 3
EXIT_INPUT = 4
EXIT_RESOURCE = 5

DEFAULT_SEED = 0

logger = logging.getLogger("envydiv")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True)
    print(text)
    if out:
        Path(out).write_text(text + "\n")


def _options(args) -> SearchOptions:
    return SearchOptions(tolerance=args.tol, coarse_budget=args.coarse_budget, seed=args.seed)


def _load_prefs(args):
    """The oracle of ``--prefs``, whose r also sizes the board of ``--space``;
    ``--r`` supplies the r a file leaves out, or must agree with the file's."""
    return preferences.load_preference_file(args.prefs, space=args.space, r=args.r)


def _cmd_solve(args) -> tuple[dict, int]:
    prefs = _load_prefs(args)
    division = solver.solve(complexes.for_space(args.space, prefs.r), prefs, _options(args))
    logger.info("verified division with residual %.3g", division.residual)
    return division.to_json(), EXIT_OK


def _cmd_brute(args) -> tuple[dict, int]:
    prefs = _load_prefs(args)
    result = solver.brute_force(complexes.for_space(args.space, prefs.r), prefs, args.grid, seed=args.seed)
    return result.to_json(), EXIT_OK


def _cmd_validate(args) -> tuple[dict, int]:
    prefs = _load_prefs(args)
    report = preferences.validate(
        prefs, args.property, sample_count=args.samples, seed=args.seed
    )
    return report.to_json(), EXIT_OK if report.passed else EXIT_VALIDATION


def _topology_variant(args) -> complexes.Variant:
    if args.complex == "chessboard":
        if args.m is None or args.n is None:
            raise ValueError("chessboard needs --m and --n")
        return complexes.chessboard(args.m, args.n)
    if args.r is None:
        raise ValueError(f"{args.complex} needs --r")
    if args.complex == "gorbushka-join":
        return complexes.gorbushka_join(args.r)
    return complexes.join_power(args.r)


def _cmd_topology(args) -> tuple[dict, int]:
    variant = _topology_variant(args)
    cx = complexes.build_complex(variant)
    report = complexes.reduced_homology(cx, max_simplices=args.max_simplices)
    payload = report.to_json()
    payload["variant"] = variant.to_json()
    payload["face_counts"] = list(cx.face_counts())
    if args.pseudomanifold:
        payload["pseudomanifold"] = complexes.is_pseudomanifold(cx)
    return payload, EXIT_OK


# ---------------------------------------------------------------------------
# canned demo scenarios


def _demo_gale(r, seed):
    prefs = preferences.make_builtin(
        "hungry", r, kind="new", variant=complexes.gorbushka_join(r)
    )
    division = solver.solve(
        complexes.gorbushka_join(r), prefs, SearchOptions(seed=seed)
    )
    lengths = division.point.cut.lengths
    full = len(division.point.allocation) == r and min(lengths) > 1e-3
    return {
        "scenario": "gale",
        "r": r,
        "division": division.to_json(),
        "narrative": "hungry players cut the cake into r solid tiles, one per box",
        "all_tiles_solid": full,
        "pass": bool(full),
    }


def _demo_gorbushka(r, seed):
    variant = complexes.gorbushka_join(r)
    plain = preferences.make_builtin(
        "gorbushka", r, kind="new", params={"dte": False}, variant=variant
    )
    certificate = solver.brute_force(variant, plain, grid_resolution=51)
    tolerant = preferences.make_builtin(
        "gorbushka", r, kind="new", params={"dte": True}, variant=variant
    )
    division = solver.solve(variant, tolerant, SearchOptions(seed=seed))
    near_empty_cut = max(division.point.cut.lengths) >= 1.0 - 1e-3
    ok = (not certificate.feasible) and near_empty_cut
    return {
        "scenario": "gorbushka",
        "r": r,
        "impossible_without_degenerate_tolerance": not certificate.feasible,
        "brute_force": certificate.to_json(),
        "division": division.to_json(),
        "cut_collapses_to_endpoint": near_empty_cut,
        "narrative": (
            "with only two end slices no division satisfies everyone, but once "
            "degenerate tiles are acceptable, cutting everything at one endpoint "
            "hands every player either the loaf or an equally good empty box"
        ),
        "pass": bool(ok),
    }


def _demo_burnt(r, seed):
    variant = complexes.join_power(r)
    prefs = preferences.make_builtin("burnt", r, kind="new", variant=variant)
    division = solver.solve(variant, prefs, SearchOptions(seed=seed))
    occupied = {box for _, box in division.point.allocation}
    empty_preferred = [
        box
        for box in range(1, r + 1)
        if box not in occupied and division.certificate[0][box - 1]
    ]
    ok = bool(empty_preferred)
    return {
        "scenario": "burnt",
        "r": r,
        "division": division.to_json(),
        "empty_preferred_boxes": empty_preferred,
        "narrative": "players of a burnt cake happily accept empty boxes",
        "pass": ok,
    }


def _demo_ppe(r, seed):
    old = preferences.make_builtin("hungry", r, kind="old")
    lifted = reductions.phi(old)
    variant = complexes.for_space("c2", r)
    division = solver.solve(variant, lifted, SearchOptions(seed=seed))
    tiles_per_box = {}
    for _, box in division.point.allocation:
        tiles_per_box[box] = tiles_per_box.get(box, 0) + 1
    full = all(count == 1 for count in tiles_per_box.values())
    return {
        "scenario": "ppe",
        "r": r,
        "division": division.to_json(),
        "narrative": "every solid interval goes to a different player; the rest take empty boxes",
        "one_tile_per_box": full,
        "pass": bool(full),
    }


_DEMOS = {
    "gale": (_demo_gale, 5),
    "gorbushka": (_demo_gorbushka, 3),
    "burnt": (_demo_burnt, 3),
    "ppe": (_demo_ppe, 4),
}


def _cmd_demo(args) -> tuple[dict, int]:
    fn, default_r = _DEMOS[args.name]
    r = args.r if args.r is not None else default_r
    payload = fn(r, args.seed)
    return payload, EXIT_OK if payload["pass"] else EXIT_VALIDATION


def _non_negative(text: str) -> int:
    """argparse type of a cap or budget: a negative one is bad input, not one exceeded."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, which ``main`` reports as bad input (exit 4),
    instead of exiting with argparse's 2, the budget-exhausted code."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="envydiv",
        description="Envy-free division of the unit interval, with degenerate-piece-tolerant preferences.",
    )
    parser.add_argument("--verbose", action="store_true", help="chatty logs on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, space_required=True):
        p.add_argument("--r", type=int, default=None, help="number of players/boxes, if the file has no r")
        p.add_argument("--space", choices=["c1", "c2", "c3"], required=space_required)
        p.add_argument("--prefs", required=True, help="preference JSON file")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", default=None, help="also write the JSON here")

    p_solve = sub.add_parser("solve", help="search for a verified envy-free division")
    add_common(p_solve)
    p_solve.add_argument("--tol", type=float, default=SearchOptions.tolerance)
    p_solve.add_argument(
        "--coarse-budget",
        type=_non_negative,
        default=SearchOptions.coarse_budget,
        help="distinct points one grid may score; the grid stops doubling beyond it",
    )
    p_solve.set_defaults(fn=_cmd_solve)

    p_brute = sub.add_parser("brute", help="exhaustive max-min scan on a grid")
    add_common(p_brute)
    p_brute.add_argument("--grid", type=int, default=31)
    p_brute.set_defaults(fn=_cmd_brute)

    p_val = sub.add_parser("validate", help="statistically check a preference axiom")
    add_common(p_val, space_required=False)
    p_val.add_argument("--property", required=True, choices=list(preferences.VALIDATION_PROPERTIES))
    p_val.add_argument("--samples", type=int, default=1000)
    p_val.set_defaults(fn=_cmd_validate)

    p_top = sub.add_parser("topology", help="homology and pseudomanifold reports")
    p_top.add_argument("--complex", required=True, choices=["chessboard", "gorbushka-join", "join-power"])
    p_top.add_argument("--m", type=int, default=None)
    p_top.add_argument("--n", type=int, default=None)
    p_top.add_argument("--r", type=int, default=None)
    p_top.add_argument("--pseudomanifold", action="store_true")
    p_top.add_argument("--max-simplices", type=_non_negative, default=complexes.MAX_SIMPLICES)
    p_top.add_argument("--out", default=None)
    p_top.set_defaults(fn=_cmd_topology)

    p_demo = sub.add_parser("demo", help="canned scenarios with expected outcomes")
    p_demo.add_argument("name", choices=sorted(_DEMOS))
    p_demo.add_argument("--r", type=int, default=None)
    p_demo.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_demo.add_argument("--out", default=None)
    p_demo.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        payload, code = args.fn(args)
    except BudgetExhausted as exc:
        payload = {"budget_exhausted": True, "message": str(exc)}
        if exc.best is not None:
            payload["best_residual"] = exc.best.residual
            payload["best_point"] = exc.best.point.to_json()
            payload["evaluations"] = exc.best.evaluations
            payload["orbit_representatives"] = exc.best.orbit_representatives
            payload["denominator"] = exc.best.denominator
            payload["pl_zeros"] = [list(pair) for pair in exc.best.pl_zeros]
        _emit(payload, getattr(args, "out", None))
        return EXIT_BUDGET
    except PreferenceValidationError as exc:
        _emit({"validation_failed": True, "message": str(exc)}, getattr(args, "out", None))
        return EXIT_VALIDATION
    except MatchingError as exc:
        _emit({"matching_failed": True, "message": str(exc)}, getattr(args, "out", None))
        return EXIT_VALIDATION
    except ResourceCapExceeded as exc:
        _emit({"resource_cap": True, "message": str(exc)}, getattr(args, "out", None))
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError, TypeError) as exc:
        logger.error("%s", exc)
        _emit({"input_error": True, "message": str(exc)}, getattr(args, "out", None))
        return EXIT_INPUT
    _emit(payload, getattr(args, "out", None))
    return code


if __name__ == "__main__":
    sys.exit(main())
