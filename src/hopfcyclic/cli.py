"""Command-line front end.

Subcommands: check-hopf, cyclic-relations, cohomology, pair, gamma-check.
Reports are deterministic structured text (seed recorded when one is used)
so they can serve as byte-stable regression goldens.  Exit codes: 0 all
checks pass, 1 a check failed, 2 unreadable or malformed input or an
unwritable --output.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import actions
from .cohomology import (NotCyclicError, NotMixedComplexError,
                         cohomology_report, methods_agree, require_involution)
from .cyclic_ops import HopfCyclicModule, relation_suite
from .hopf import (BUILTIN_BUILDERS, CharacterError, check_hopf_axioms,
                   check_involution, check_twisted_properties)
from .presentations import (PresentationError, load_gamma_input, load_hopf,
                            load_lie, load_pairing_input, _load_json)


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
    try:
        if name is None or name == "counit":
            return H.counit_character()
        return H.character(name)
    except CharacterError as exc:
        raise PresentationError(str(exc))


def _fails_hopf_axioms(H, output):
    """Check H against the Hopf axioms; on failure emit that report.

    Every number derived from H assumes it is a Hopf algebra, so the
    commands that compute from a finite H call this first.
    """
    report = check_hopf_axioms(H)
    if not report.ok:
        _emit(report.render(), output)
    return not report.ok


def cmd_check_hopf(args):
    H = _load_hopf_arg(args.input)
    report = check_hopf_axioms(H)
    if args.character is not None or args.require_involution:
        delta = _character_of(H, args.character)
        report.merge(check_twisted_properties(H, delta))
        if args.require_involution:
            ok, witness = check_involution(H, delta)
            report.add("twisted-antipode-involution", ok,
                       None if ok else witness)
    _emit(report.render(), args.output)
    return 0 if report.ok else 1


def cmd_cyclic_relations(args):
    data = _load_json(args.input) if args.input not in BUILTIN_BUILDERS \
        else None
    if isinstance(data, dict) and "brackets" in data:
        if args.character is not None:
            raise PresentationError(
                f"{args.input}: --character does not apply to a Lie "
                f"presentation; U(g) uses its modular character")
        from .enveloping import tensor_samples
        U = load_lie(args.input)
        delta = U.modular_character()
        module = HopfCyclicModule(U, delta)
        rng = random.Random(args.seed)
        samples = tensor_samples(U, args.max_degree, rng=rng)
        report = relation_suite(module, args.max_degree,
                                samples=samples.__getitem__,
                                title="cyclic-relations")
        report.meta["input"] = "enveloping-algebra"
        report.meta["seed"] = args.seed
    else:
        H = _load_hopf_arg(args.input)
        if _fails_hopf_axioms(H, args.output):
            return 1
        delta = _character_of(H, args.character)
        module = HopfCyclicModule(H, delta)
        report = relation_suite(module, args.max_degree,
                                title="cyclic-relations")
        report.meta["input"] = H.name
        report.meta["character"] = delta.name
    report.meta["max-degree"] = args.max_degree
    _emit(report.render(), args.output)
    return 0 if report.ok else 1


def cmd_cohomology(args):
    H = _load_hopf_arg(args.input)
    if _fails_hopf_axioms(H, args.output):
        return 1
    delta = _character_of(H, args.character)
    try:
        report = cohomology_report(H, delta, args.max_degree,
                                   method=args.method)
    except NotCyclicError as exc:
        _emit(f"error: {exc}", args.output)
        return 1
    except NotMixedComplexError as exc:
        _emit(exc.report.render(), args.output)
        return 1
    negative = report.negative_entries()
    if negative:
        _emit("error: negative dimension " + ", ".join(negative),
              args.output)
        return 1
    text = report.render()
    if args.method == "both" and not methods_agree(report):
        text += "\nerror: method disagreement on an unflagged degree"
        _emit(text, args.output)
        return 1
    _emit(text, args.output)
    return 0


def cmd_pair(args):
    A, phi, E, q = load_pairing_input(args.input)
    try:
        value = actions.pair_idempotent(A, phi, E, q)
    except actions.ActionError as exc:
        _emit(f"error: {exc}", args.output)
        return 1
    _emit(f"report: pairing\nalgebra: {A.name}\nq: {q}\n"
          f"value: {A.field.format(value)}", args.output)
    return 0


def cmd_gamma_check(args):
    H, delta, A, action, trace = load_gamma_input(args.input)
    if _fails_hopf_axioms(H, args.output):
        return 1
    report = actions.check_action(H, A, action)
    report.merge(actions.check_delta_invariance(H, delta, A, action, trace))
    if report.ok:
        try:
            require_involution(H, delta)
        except NotCyclicError as exc:
            report.add("twisted-antipode-involution", False, str(exc))
            _emit(report.render(), args.output)
            return 1
        report.merge(actions.check_gamma_morphism(H, delta, A, action,
                                                  trace, args.max_degree))
    _emit(report.render(), args.output)
    return 0 if report.ok else 1


def build_parser():
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
        return args.func(args)
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
