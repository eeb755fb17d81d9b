"""Command line interface to the census pipeline.

One subcommand per verification stage.  Exit status 0 means every check
of the invoked stage passed; 2 is a failed verification, 3 an exhausted
resource budget, 4 a malformed certificate, 64 a usage error.
"""

import argparse
import json
import sys

from . import catalog, pipeline
from .certificates import read_certificate
from .errors import (
    CensusError,
    ParseError,
    ResourceBudgetExceeded,
    VerificationFailed,
)
from .groebner import DEFAULT_BUDGET, Budget, GroebnerTrace
from .linalg import mat_det
from .field import kelem

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3
EXIT_PARSE = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # verification failures, so remap
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive(text):
    """A budget flag's value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _add_common(p, budget=False):
    if budget:  # only the stages that run Buchberger
        p.add_argument("--budget-pairs", type=_positive, metavar="N",
                       help="raise the Groebner S-pair budget")
        p.add_argument("--budget-terms", type=_positive, metavar="N",
                       help="raise the Groebner term budget")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report format")


def build_parser():
    parser = _Parser(
        prog="conic-census",
        description="Exact census of the 800 irreducible conics on the Mukai quartic surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="generate and certify the orbit census")
    p.add_argument("--out", metavar="PATH", help="write the certificate here")
    _add_common(p)

    p = sub.add_parser("census", help="plane pairing census of a certificate")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="certificate to census (default: recompute the orbits)")
    _add_common(p)

    p = sub.add_parser("fibers", help="singular fibers of the conic pencil")
    _add_common(p, budget=True)

    p = sub.add_parser("components", help="components of the pencil's singular locus")
    _add_common(p, budget=True)

    p = sub.add_parser("enumerate", help="ansatz enumeration of splitting planes")
    p.add_argument("--case", required=True, choices=("i", "ii", "iii", "iv"))
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="census certificate for cross checking")
    _add_common(p, budget=True)

    p = sub.add_parser("gram", help="intersection Gram matrix of the 20 spanning conics")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="certificate of conics (default: the shipped spanning basis)")
    p.add_argument("--dot", metavar="PATH", help="write the adjacency graph in DOT format")
    _add_common(p)

    p = sub.add_parser("kummer", help="verify the 16-conic Kummer configuration")
    p.add_argument("--in", dest="infile", metavar="PATH",
                   help="certificate of conics (default: the shipped configuration)")
    _add_common(p)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    _add_common(p)

    return parser


def _budget(args):
    pairs = args.budget_pairs
    terms = args.budget_terms
    if pairs is None and terms is None:
        return None
    if pairs is None:
        pairs = DEFAULT_BUDGET.max_pairs
    if terms is None:
        terms = DEFAULT_BUDGET.max_terms
    # let the basis cap grow with whichever budget was raised
    scale = max(pairs / DEFAULT_BUDGET.max_pairs, terms / DEFAULT_BUDGET.max_terms, 1.0)
    return Budget(pairs, int(DEFAULT_BUDGET.max_basis * scale), terms)


def _emit(args, rep, **extra):
    if args.format == "machine":
        doc = {"report": rep.as_dict()}
        doc.update(extra)
        print(json.dumps(doc, indent=2))
    else:
        print(rep.render())


def _cmd_orbits(args):
    rep, cert = pipeline.orbit_census(out=args.out)
    counts = [cert.label_counts().get(n, 0) for n in catalog.SEED_LABELS]
    _emit(args, rep, orbits=counts, total=len(cert.entries))
    if args.format == "text":
        print(f"orbits: {counts[0]} {counts[1]} {counts[2]}, total {len(cert.entries)}")
    return EXIT_OK


def _cmd_census(args):
    if args.infile:
        cert = read_certificate(args.infile)
    else:
        _, cert = pipeline.orbit_census()
    rep = pipeline.plane_census(cert)
    _emit(args, rep)
    return EXIT_OK


def _cmd_fibers(args):
    rep = pipeline.fiber_survey(budget=_budget(args))
    _emit(args, rep)
    return EXIT_OK


def _cmd_components(args):
    rep = pipeline.verify_components(budget=_budget(args))
    _emit(args, rep)
    return EXIT_OK


def _cmd_enumerate(args):
    census = None
    if args.infile:
        census = read_certificate(args.infile).keys()
    rep, _ = pipeline.enumerate_case(args.case, budget=_budget(args), census=census)
    _emit(args, rep)
    return EXIT_OK


def _cmd_gram(args):
    conics = read_certificate(args.infile).conics if args.infile else None
    rep, rows = pipeline.gram_report(conics=conics, dot_out=args.dot)
    det = mat_det([[kelem(v) for v in row] for row in rows]).as_fraction()
    _emit(args, rep, matrix=rows, det=int(det))
    if args.format == "text":
        for row in rows:
            print(" ".join(f"{v:3d}" for v in row))
        print(f"det = {det}")
    return EXIT_OK


def _cmd_kummer(args):
    conics = read_certificate(args.infile).conics if args.infile else None
    rep = pipeline.kummer_report(conics=conics)
    _emit(args, rep)
    return EXIT_OK


def _cmd_verify(args):
    rep = pipeline.verify_certificate(args.infile)
    _emit(args, rep)
    return EXIT_OK


_DISPATCH = {
    "orbits": _cmd_orbits,
    "census": _cmd_census,
    "fibers": _cmd_fibers,
    "components": _cmd_components,
    "enumerate": _cmd_enumerate,
    "gram": _cmd_gram,
    "kummer": _cmd_kummer,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except VerificationFailed as exc:
        rep = getattr(exc, "report", None)
        if rep is not None:
            _emit(args, rep)
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ResourceBudgetExceeded as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        if exc.stats:
            # the Groebner work spent before the stop
            for line in GroebnerTrace(**exc.stats).lines():
                print(f"  {line}", file=sys.stderr)
        hint = "raise --budget-pairs and --budget-terms to continue"
        if args.command == "enumerate" and args.case == "i":
            hint += "; case (i) needs a far larger budget and hours of runtime"
        print(hint, file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CensusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
