"""Command-line front end.

Subcommands: check-hopf, cyclic-relations, cohomology, pair, gamma-check.
Reports are deterministic structured text (seed recorded when one is used)
so they can serve as byte-stable regression goldens.  Each command returns
its text and whether every check passed; ``main`` alone prints the text
(stdout or --output) and picks the exit code: 0 all checks pass, 1 a check
failed or the input was refused (the refusal goes where the report would),
2 unreadable or malformed input, an unknown character or an unwritable
--output (one line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import actions
from .cohomology import (NotCyclicError, NotMixedComplexError,
                         cohomology_report, require_involution)
from .cyclic_ops import HopfCyclicModule
from .enveloping import tensor_samples
from .hopf import (BUILTIN_BUILDERS, CharacterError, check_hopf_axioms,
                   check_involution, check_twisted_properties)
# load_lie is not called here; bench/tracing.py wraps it as cli.load_lie
from .presentations import (PresentationError, hopf_from_dict,
                            lie_from_dict, load_gamma_input, load_hopf,
                            load_lie, load_pairing_input, _load_json)
from .relations import relation_suite


class _Refused(Exception):
    """A command's input was refused; the message is the report to print."""


def _emit(text, output):
    if not output:
        print(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise PresentationError(f"cannot write {output}: {exc.strerror}")


def _load_hopf_arg(value):
    if value in BUILTIN_BUILDERS:
        return BUILTIN_BUILDERS[value]()
    return load_hopf(value)


def _character_of(H, name):
    if name is None or name == "counit":
        return H.counit_character()
    return H.character(name)


def _require_hopf_axioms(H):
    """Refuse H, with its failed axiom report, unless it is a Hopf algebra.

    Every number derived from H assumes it is one, so the commands that
    compute from a finite H call this first.
    """
    report = check_hopf_axioms(H)
    if not report.ok:
        raise _Refused(report.render())


def cmd_check_hopf(args):
    H = _load_hopf_arg(args.input)
    report = check_hopf_axioms(H)
    if args.character is not None or args.require_involution:
        delta = _character_of(H, args.character)
        report.merge(check_twisted_properties(delta))
        if args.require_involution:
            ok, witness = check_involution(delta)
            report.add("twisted-antipode-involution", ok,
                       None if ok else witness)
    return report.render(), report.ok


def cmd_cyclic_relations(args):
    """A file is parsed once; a "brackets" key marks a Lie presentation."""
    data = None if args.input in BUILTIN_BUILDERS else _load_json(args.input)
    if isinstance(data, dict) and "brackets" in data:
        if args.character is not None:
            raise PresentationError(
                f"{args.input}: --character does not apply to a Lie "
                f"presentation; U(g) uses its modular character")
        U = lie_from_dict(data, args.input)
        delta = U.modular_character()
        samples = tensor_samples(U, args.max_degree,
                                 rng=random.Random(args.seed)).__getitem__
        meta = {"input": "enveloping-algebra", "seed": args.seed}
    else:
        H = _load_hopf_arg(args.input) if data is None \
            else hopf_from_dict(data, args.input)
        _require_hopf_axioms(H)
        delta = _character_of(H, args.character)
        samples = None
        meta = {"input": H.name, "character": delta.name}
    report = relation_suite(HopfCyclicModule(delta), args.max_degree,
                            samples=samples)
    report.meta.update(meta)
    return report.render(), report.ok


def cmd_cohomology(args):
    H = _load_hopf_arg(args.input)
    _require_hopf_axioms(H)
    report = cohomology_report(_character_of(H, args.character),
                               args.max_degree, method=args.method)
    negative = report.negative_entries()
    if negative:
        return "error: negative dimension " + ", ".join(negative), False
    text = report.render()
    if args.method == "both" and not report.methods_agree():
        text += "\nerror: method disagreement on an unflagged degree"
        return text, False
    return text, True


def cmd_pair(args):
    A, phi, E, q = load_pairing_input(args.input)
    value = actions.pair_idempotent(A, phi, E, q)
    return (f"report: pairing\nalgebra: {A.name}\nq: {q}\n"
            f"value: {A.field.format(value)}"), True


def cmd_gamma_check(args):
    action, delta, trace = load_gamma_input(args.input)
    _require_hopf_axioms(action.hopf)
    report = actions.check_action(action)
    report.merge(actions.check_delta_invariance(action, delta, trace))
    if report.ok:
        try:
            require_involution(delta)
        except NotCyclicError as exc:
            report.add("twisted-antipode-involution", False, str(exc))
        else:
            report.merge(actions.check_gamma_morphism(action, delta, trace,
                                                      args.max_degree))
    return report.render(), report.ok


@functools.cache
def build_parser():
    """The one parser of every ``main`` call, built on the first."""
    parser = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="Exact checks and cohomology of cyclic modules "
                    "attached to Hopf algebras with a modular character.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=None):
        p.add_argument("--input", required=True,
                       help="presentation file, or a builtin name "
                            f"({', '.join(sorted(BUILTIN_BUILDERS))})")
        p.add_argument("--output", default=None, help="write report here")
        if degree_default is not None:
            p.add_argument("--max-degree", type=int, default=degree_default,
                           metavar="N")

    p = sub.add_parser("check-hopf", help="verify the Hopf axioms")
    common(p)
    p.add_argument("--character", default=None, metavar="NAME")
    p.add_argument("--require-involution", action="store_true",
                   help="also require the twisted antipode to square "
                        "to the identity")
    p.set_defaults(func=cmd_check_hopf)

    p = sub.add_parser("cyclic-relations",
                       help="verify the face/degeneracy/cyclic relations")
    common(p, degree_default=3)
    p.add_argument("--character", default=None, metavar="NAME")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for symbolic sample tensors")
    p.set_defaults(func=cmd_cyclic_relations)

    p = sub.add_parser("cohomology", help="dimension tables")
    common(p, degree_default=4)
    p.add_argument("--character", default=None, metavar="NAME")
    p.add_argument("--method", choices=["lambda", "bB", "both"],
                   default="both")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("pair", help="pair an idempotent with an even cochain")
    common(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("gamma-check",
                       help="verify an action, trace invariance, and that "
                            "the characteristic map is cyclic")
    common(p, degree_default=3)
    p.set_defaults(func=cmd_gamma_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_degree", 1) < 1:
        parser.error("--max-degree must be at least 1")
    try:
        try:
            text, ok = args.func(args)
        except (_Refused, NotMixedComplexError) as exc:
            text, ok = str(exc), False
        except (NotCyclicError, actions.ActionError) as exc:
            text, ok = f"error: {exc}", False
        _emit(text, args.output)
    except (PresentationError, CharacterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
