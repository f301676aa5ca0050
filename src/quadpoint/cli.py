"""Command-line front end.

Every subcommand reads the documented text formats, writes deterministic
``key value`` lines to stdout, and reports failures as one machine-
readable line on stderr: ``error <kind>: <detail>`` with kind one of
usage, parse, precondition, membership, guard.  Exit codes: 0 success,
1 usage or parse error, 2 precondition or membership failure.  Every
form must be non-degenerate.  A reader that closes stdout early ends the
command quietly with exit 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import formats, mcg, oracle, orthogroup
from .gf2 import BitMatrix
from .guards import DimensionGuardError
from .mcg import MappingClass, NotRegularlyHomotopicError
from .orthogroup import OrthogonalMap


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to usage error
        raise _UsageError(message)


def _read(path: str) -> str:
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise formats.FormatError(
            f"cannot read {path}: not UTF-8 (byte {exc.start})") from None


def _load_matrix(arg: str) -> BitMatrix:
    if Path(arg).exists():
        return formats.parse_matrix(_read(arg))
    if set(arg) <= set("01/") and arg:
        return formats.parse_inline_matrix(arg)
    raise formats.FormatError(f"no such file and not an inline matrix: {arg!r}")


def _cmd_arf(args) -> int:
    f = formats.parse_form(_read(args.form))
    from .quadform import arf

    print(f"arf {arf(f)}")
    return 0


def _cmd_psi(args) -> int:
    f = formats.parse_form(_read(args.form))
    t = OrthogonalMap(f, _load_matrix(args.matrix))
    print(f"psi {orthogroup.rank_parity(t)}")
    return 0


def _cmd_q(args) -> int:
    surface = formats.parse_surface(_read(args.surface))
    if args.word is not None:
        h = mcg.evaluate_word(surface, formats.parse_word(_read(args.word)))
    else:
        action = _load_matrix(args.matrix)
        h = MappingClass(action, args.epsilon)
    print(f"Q {mcg.quadruple_point_invariant(surface, h)}")
    return 0


def _cmd_decompose(args) -> int:
    f = formats.parse_form(_read(args.form))
    t = OrthogonalMap(f, _load_matrix(args.matrix))
    u_flag, word = orthogroup.decompose(t)
    sys.stdout.write(formats.dump_decomposition(u_flag, word))
    return 0


def _cmd_verify(args) -> int:
    f = formats.parse_form(_read(args.form))
    m = _load_matrix(args.matrix)
    u_flag, word = formats.parse_decomposition(_read(args.decomposition))
    recomposed = orthogroup.recompose(f, u_flag, word)
    if recomposed == m:
        print("verify ok")
        return 0
    print("verify fail")
    return 2


def _cmd_check_rh(args) -> int:
    if len(args.surface) != 2:
        raise _UsageError("check-rh needs exactly two --surface arguments")
    s1 = formats.parse_surface(_read(args.surface[0]))
    s2 = formats.parse_surface(_read(args.surface[1]))
    rh = mcg.regularly_homotopic(s1, s2)
    diffeo = mcg.equivalent_up_to_diffeomorphism(s1, s2)
    realizable = mcg.embedding_realizable(s1)  # reported for the first surface
    print(f"regularly-homotopic {'true' if rh else 'false'}")
    print(f"diffeo-equivalent {'true' if diffeo else 'false'}")
    print(f"embedding-realizable {'true' if realizable else 'false'}")
    return 0


def _cmd_enumerate(args) -> int:
    f = formats.parse_form(_read(args.form))
    elements = orthogroup.enumerate_group(f)
    table = oracle.GroupTable.from_elements(f, elements)
    print(f"order {len(table.elements)}")
    for m, p in zip(table.elements, table.psi_values):
        print(f"{oracle.matrix_key(m)} {p}")
    return 0


def _cmd_catalog(args) -> int:
    if args.genus != 1:
        raise ValueError("the catalog covers genus 1 only")
    surface = mcg.SurfacePinkallForm.standard(1, args.arf)
    table = mcg.GENUS1_GENERATORS[args.arf]
    classes = mcg.genus1_generators(args.arf)
    for (name, entries), h in zip(table, classes):
        flat = " ".join(str(e) for row in entries for e in row)
        parity = mcg.mapping_class_parity(surface, h)
        print(f"{name} matrix {flat} epsilon {h.epsilon} Psi {parity}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="quadpoint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arf", help="Arf invariant of a form")
    p.add_argument("--form", required=True)
    p.set_defaults(fn=_cmd_arf)

    p = sub.add_parser("psi", help="rank parity of an orthogonal matrix")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("q", help="quadruple-point parity of a mapping class")
    p.add_argument("--surface", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--matrix")
    p.add_argument("--epsilon", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=_cmd_q)

    p = sub.add_parser("decompose", help="factor an orthogonal matrix into generators")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="recompose a decomposition and compare")
    p.add_argument("--form", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--decomposition", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("check-rh", help="compare two immersed surfaces")
    p.add_argument("--surface", action="append", required=True)
    p.set_defaults(fn=_cmd_check_rh)

    p = sub.add_parser("enumerate", help="list a small orthogonal group")
    p.add_argument("--form", required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("catalog", help="torus generator matrices with invariants")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--arf", type=int, choices=(0, 1), required=True)
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error usage: {exc}", file=sys.stderr)
        return 1
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: nothing left to say.  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _UsageError as exc:
        print(f"error usage: {exc}", file=sys.stderr)
        return 1
    except formats.FormatError as exc:
        print(f"error parse: {exc}", file=sys.stderr)
        return 1
    except DimensionGuardError as exc:
        print(f"error guard: {exc}", file=sys.stderr)
        return 2
    except NotRegularlyHomotopicError as exc:
        print(f"error membership: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error precondition: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
