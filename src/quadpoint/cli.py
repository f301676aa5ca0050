"""Command-line front end.

Every subcommand reads the documented text formats, writes deterministic
``key value`` lines to stdout, and reports failures as one machine-
readable line on stderr: ``error <kind>: <detail>`` with kind one of
usage, parse, precondition, membership, guard.  Exit codes: 0 success,
1 usage or parse error, 2 precondition, membership or guard failure.  Every
form must be non-degenerate.  A reader that closes stdout early ends the
command quietly with exit 0.
"""

import os
import sys
from types import SimpleNamespace

from . import formats, mcg, orthogroup, quadform
from .gf2 import BitMatrix
from .mcg import MappingClass, NotRegularlyHomotopicError
from .orthogroup import DimensionGuardError, OrthogonalMap


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as text:
            return text.read()
    except OSError as exc:
        raise formats.FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise formats.FormatError(
            f"cannot read {path}: not UTF-8 (byte {exc.start})") from None


def _load_matrix(arg: str) -> BitMatrix:
    if os.path.exists(arg):
        return formats.parse_matrix(_read(arg))
    if set(arg) <= set("01/") and arg:
        return formats.parse_inline_matrix(arg)
    raise formats.FormatError(f"no such file and not an inline matrix: {arg!r}")


def _cmd_arf(args) -> int:
    f = formats.parse_form(_read(args.form))
    print(f"arf {quadform.arf(f)}")
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
        h = MappingClass(_load_matrix(args.matrix), args.epsilon or 0)
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
    from . import oracle  # imported here, so that no other subcommand loads it
    f = formats.parse_form(_read(args.form))
    elements = orthogroup.enumerate_group(f)
    table = oracle.GroupTable.from_elements(elements)
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


_SYNOPSIS = """\
quadpoint arf --form FORM                      # prints: arf <0|1>
quadpoint psi --form FORM --matrix M           # prints: psi <0|1>
quadpoint q --surface S (--word W | --matrix M [--epsilon E])   # prints: Q <0|1>
quadpoint decompose --form FORM --matrix M     # prints a decomposition
quadpoint verify --form FORM --matrix M --decomposition D
quadpoint check-rh --surface S1 --surface S2
quadpoint enumerate --form FORM                # prints: order N, then elements
quadpoint catalog --genus 1 --arf <0|1>        # torus generators with invariants
"""
# The grammar: each command's function and options.  An option must or may be given, is
# given twice (a list), or is "either": exactly one of those is given.  A repeat keeps the last.
_MUST, _MAY, _TWICE, _EITHER = "must", "may", "twice", "either"
_COMMANDS = {
    "arf": (_cmd_arf, {"--form": _MUST}),
    "psi": (_cmd_psi, {"--form": _MUST, "--matrix": _MUST}),
    "q": (_cmd_q, {"--surface": _MUST, "--word": _EITHER, "--matrix": _EITHER, "--epsilon": _MAY}),
    "decompose": (_cmd_decompose, {"--form": _MUST, "--matrix": _MUST}),
    "verify": (_cmd_verify, {"--form": _MUST, "--matrix": _MUST, "--decomposition": _MUST}),
    "check-rh": (_cmd_check_rh, {"--surface": _TWICE}),
    "enumerate": (_cmd_enumerate, {"--form": _MUST}),
    "catalog": (_cmd_catalog, {"--genus": _MUST, "--arf": _MUST}),
}
_REFUSED = (("--word", "--matrix"), ("--word", "--epsilon"))  # a word's flips give epsilon
_INTS, _BITS = ("--epsilon", "--arf", "--genus"), ("--epsilon", "--arf")  # _BITS take 0 or 1


def _parse(argv) -> SimpleNamespace:
    """fn and each option's value (None if not given); -h or --help anywhere asks for help."""
    def need(ok, message: str) -> None:
        if not ok:
            raise _UsageError(message)

    if "-h" in argv or "--help" in argv:
        return SimpleNamespace(fn=lambda args: print(_SYNOPSIS, end="") or 0)
    need(argv, "the following arguments are required: command")
    listed = ", ".join(map(repr, _COMMANDS))
    need(argv[0] in _COMMANDS, f"argument command: invalid choice: {argv[0]!r} "
         f"(choose from {listed})")
    (fn, kinds), given, rest = _COMMANDS[argv[0]], {}, iter(argv[1:])
    for arg in rest:
        opt, eq, val = arg.partition("=")
        need(opt in kinds, f"unrecognized arguments: {arg}")
        val = val if eq else next(rest, "-")  # a missing value reads as an option
        need(eq or val[:1] != "-" or val[1:].isdecimal(), f"argument {opt}: expected one argument")
        if opt in _INTS:
            invalid = f"argument {opt}: invalid int value: {val!r}"
            digits = val.removeprefix("-")
            need(digits.isascii() and digits.isdecimal(), invalid)
            try:
                val = int(val)
            except ValueError:  # past the interpreter's limit on digits
                raise _UsageError(invalid) from None
            need(opt not in _BITS or val in (0, 1),
                 f"argument {opt}: invalid choice: {val} (choose from 0, 1)")
        given[opt] = [*given.get(opt, ()), val] if kinds[opt] == _TWICE else val
    for a, b in _REFUSED:
        need(a not in given or b not in given, f"argument {b}: not allowed with argument {a}")
    missing = [opt for opt, kind in kinds.items() if kind in (_MUST, _TWICE) and opt not in given]
    need(not missing, f"the following arguments are required: {', '.join(missing)}")
    either = [opt for opt, kind in kinds.items() if kind == _EITHER]
    need(not either or set(either) & given.keys(),
         f"one of the arguments {' '.join(either)} is required")
    twice = [opt for opt, kind in kinds.items() if kind == _TWICE and len(given[opt]) != 2]
    need(not twice, f"{argv[0]} needs exactly two {' '.join(twice)} arguments")
    return SimpleNamespace(fn=fn, **{opt[2:]: given.get(opt) for opt in kinds})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
