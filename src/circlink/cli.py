"""Command-line front end.

Exit codes are part of the contract: 0 on success, 1 for semantic problems
(validation violations, failed equivariance, points outside the disc), 2 for
malformed input (bad JSON, bad schema, bad argument syntax). All JSON output
is key-sorted with a fixed layout, so identical inputs give identical bytes:
those of json.dumps(obj, sort_keys=True, indent=2) and a newline.
json.dumps writes every answer, in one write, but classify's and disc's,
whose row lists _stream spells from per-shape templates. Those row lists
and every file leave through _write, _CHUNK pieces to a write.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import re
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str

# Each subcommand imports the modules it runs inside its function, so a
# process pays only for those. render stays here: RenderOptions supplies the
# argparse defaults, and render holds no drawing code, which is in svg.
from .errors import CirclinkError, FamilyValidationError, MalformedInputError
from .family import FamilyPair, especial_disc
from .render import RenderOptions

__all__ = ["main", "run"]


def _answer(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(obj) -> None:
    sys.stdout.write(_answer(obj))


# the most pieces one write hands on: rows of a streamed answer or lines of
# a picture, about 90 KB of classify's rows
_CHUNK = 1024


def _write(pieces, write) -> None:
    """Hand the pieces to write, joined _CHUNK at a time: the whole is never
    one string, and a long stream is not one write per piece, a system call
    each under PYTHONUNBUFFERED=1."""
    pieces = iter(pieces)
    while chunk := "".join(islice(pieces, _CHUNK)):
        write(chunk)


def _row(fields: dict) -> str:
    """The %-template of a flat row in a list under the answer's top-level
    dict, spelled as json.dumps(..., sort_keys=True, indent=2) spells it and
    led by the joint that follows the row before it. fields maps each key
    to its value's spelling, JSON text or a % field; the fields take their
    values in the sorted order of the keys."""
    return ",\n    {" + ",".join("\n      " + _json_str(k) + ": " + v
                                for k, v in sorted(fields.items())) + "\n    }"


def _stream(answer: dict):
    """The pieces of answer in _emit's bytes, one to a row. Its values are
    ints or iterables of rows spelled from _row templates; a list's first
    row swaps its leading comma for the bracket that opens the list."""
    joint = "{\n  "
    for key, value in sorted(answer.items()):
        head = joint + _json_str(key) + ": "
        joint = ",\n  "
        if type(value) is int:
            yield head + "%d" % value
            continue
        rows = iter(value)
        first = next(rows, None)
        if first is None:
            yield head + "[]"
            continue
        yield head + "[" + first[1:]
        yield from rows
        yield "\n  ]"
    yield "\n}\n"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedInputError("cannot read %s: %s" % (path, exc.strerror), path) from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError("%s is not UTF-8: byte 0x%02x at offset %d"
                                  % (path, exc.object[exc.start], exc.start), path) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            "invalid JSON: %s" % exc.msg,
            "%s: line %d column %d" % (path, exc.lineno, exc.colno)) from None
    except RecursionError:
        raise MalformedInputError("invalid JSON: nested too deeply", path) from None
    except ValueError as exc:
        # an integer literal past sys.get_int_max_str_digits()
        raise MalformedInputError("invalid JSON: %s" % exc, path) from None


def _load_pair(path: str) -> FamilyPair:
    return FamilyPair.from_json(_load_json(path))


def _atomic_write(path: str, pieces) -> None:
    """Write the pieces through _write to a temporary file beside path, then
    rename the file to path; if a piece or the write raises, the file is
    removed.

    The file gets the permission bits of the path it replaces, without its
    setuid, setgid and sticky bits, or, for a new path, the mode a plain
    open() gives: 0o666 less the umask.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".circlink-%s.tmp" % os.urandom(8).hex())
    try:
        try:
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            mode = None
        # O_EXCL, as mkstemp opens, but with open()'s 0o666 for the umask to cut
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if mode is not None:
                    os.fchmod(fd, mode)
                _write(pieces, fh.write)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise MalformedInputError("cannot write %s: %s" % (path, exc.strerror), path) from None


def _parse_point(text: str):
    from .hullgeom import PlanePoint

    # some argparse versions, CPython 3.11's among them, drop the "--" of
    # "--point=--" and hand the option [] as its value
    parts = text.split(",") if isinstance(text, str) else []
    if len(parts) != 2:
        raise MalformedInputError("point must be \"x,y\" with rational entries", "--point")
    try:
        return PlanePoint.from_json([p.strip() for p in parts], "--point")
    except MalformedInputError:
        raise MalformedInputError("bad rational in point %.40r" % text, "--point") from None


def cmd_validate(args) -> int:
    fp = _load_pair(args.file)
    _emit({"ok": True, "plus": len(fp.plus), "minus": len(fp.minus)})
    return 0


def cmd_classify(args) -> int:
    fp = _load_pair(args.file)
    # builds the disc, so a failure raises before the first write
    interior, boundary = fp.interior, fp.boundary
    linked = _row({"class": '"linked"', "minus": "%d", "n": "%d", "plus": "%d"})
    unlinked = _row({"class": '"unlinked"', "minus": "%d", "plus": "%d"})
    meet = _row({"class": '"intersecting"', "minus": "%d", "plus": "%d", "point": "%s"})
    _write(_stream({"pairs": (
        linked % (j, interior[i, j], i) if (i, j) in interior
        else meet % (j, i, _json_str(str(boundary[i, j]))) if (i, j) in boundary
        else unlinked % (j, i)
        for i in range(len(fp.plus)) for j in range(len(fp.minus)))}), sys.stdout.write)
    return 0


def cmd_disc(args) -> int:
    disc = especial_disc(_load_pair(args.file))
    meet = _row({"minus": "%d", "plus": "%d", "point": "%s"})
    link = _row({"link_number": "%d", "minus": "%d", "plus": "%d"})
    _write(_stream({"boundary": (meet % (j, i, _json_str(str(s))) for i, j, s in disc.boundary),
                    "interior": (link % (n, j, i) for i, j, n in disc.interior),
                    "n_minus": disc.n_minus, "n_plus": disc.n_plus}), sys.stdout.write)
    return 0


def cmd_straighten(args) -> int:
    from .straighten import result_to_json, straighten_point

    fp = _load_pair(args.file)
    _emit(result_to_json(straighten_point(fp, _parse_point(args.point))))
    return 0


def cmd_render(args) -> int:
    from .svg import _Canvas, _input_lines, _straightened_lines
    from .straighten import layout

    try:
        opts = RenderOptions(width=args.width, height=args.height, labels=args.labels)
    except MalformedInputError as exc:
        # the field's flag is the location
        raise MalformedInputError(exc.message, "--" + exc.location) from None
    fp = _load_pair(args.file)
    input_path = args.out + "-input.svg"
    straight_path = args.out + "-straightened.svg"
    sd = layout(fp)
    # every Z-point is formatted once, for both pictures: a point cell's
    # vertex is its Z-point's place in the layout. Each picture streams into
    # its file in chunks of lines
    canvas = _Canvas(opts)
    at = canvas.table(sd.layout)
    _atomic_write(input_path, _input_lines(fp, canvas, at))
    _atomic_write(straight_path, _straightened_lines(sd, canvas, at))
    _emit({"written": [input_path, straight_path]})
    return 0


def cmd_equivariance(args) -> int:
    from .symmetry import CircleMap, check_equivariance

    fp = _load_pair(args.file)
    g = CircleMap.from_json(_load_json(args.map))
    report = check_equivariance(fp, g)
    _emit(report.to_json())
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    from .generators import GenSpec, gen_symmetric

    if args.map_out is not None and args.kind != "symmetric":
        raise MalformedInputError("--map-out only applies to --kind symmetric", "--map-out")
    spec = GenSpec(kind=args.kind, n=args.n, k=args.k, depth=args.depth, seed=args.seed)
    fp = spec.build()
    if args.map_out is not None:
        _atomic_write(args.map_out, (_answer(gen_symmetric()[1].to_json()),))
    _emit(fp.to_json())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # once per process: a parser's subparsers and actions refer back to it,
    # a cycle that with the collector off would stay until the next collection
    parser = argparse.ArgumentParser(
        prog="circlink",
        description="Exact linking analysis and straightening of chord families on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a family pair file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="classify every cross pair")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("disc", help="compute the classification disc")
    p.add_argument("file")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("straighten", help="straighten one plane point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="\"x,y\" with rational entries like -13/17,10/17")
    # let --point values with a leading minus (negative rationals) parse as
    # values instead of option strings; the top-level parser hands every
    # argument after the command name to this one unclassified. A digit,
    # or a point and a digit, after the minus starts every wire rational
    # (-3, -.5, -1/17), and no option of this parser
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("render", help="write input and straightened SVG files")
    p.add_argument("file")
    p.add_argument("--out", required=True, help="output path prefix")
    defaults = RenderOptions()
    p.add_argument("--width", type=int, default=defaults.width)
    p.add_argument("--height", type=int, default=defaults.height)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("equivariance", help="check a symmetry against a family pair")
    p.add_argument("file")
    p.add_argument("--map", required=True, help="JSON file with the projective map")
    p.set_defaults(func=cmd_equivariance)

    p = sub.add_parser("gen", help="emit a generated family pair as JSON")
    p.add_argument("--kind", required=True,
                   choices=["grid", "tripod", "star", "nested", "symmetric", "figure"])
    p.add_argument("--n", type=int, default=2, help="grid size")
    p.add_argument("--k", type=int, default=3, help="star valence")
    p.add_argument("--depth", type=int, default=2, help="nesting depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--map-out", default=None,
                   help="with --kind symmetric, also write the symmetry map here")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        _emit({"error": "malformed-input", "message": exc.message, "location": exc.location})
        return 2
    except FamilyValidationError as exc:
        _emit({"ok": False, "violations": [v.to_json() for v in exc.violations]})
        return 1
    except CirclinkError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except ValueError as exc:
        _emit({"error": "invalid-value", "message": str(exc)})
        return 1


def run() -> int:
    """The entry of a circlink process (python -m circlink and the circlink
    script): main's exit code, run with the cyclic collector off and with
    the heap frozen before shutdown.

    A command's pair, disc, cells and leaves sit in no reference cycle, so
    reference counting frees them when the command returns; until then they
    are live, and a collection during main would only trace them. main
    leaves the collector as it found it, for callers in process. Freezing
    moves every tracked object into the collector's permanent generation,
    which the collections of interpreter shutdown skip, off or not. main
    closes each file it writes before it returns, so no finalizer is left
    for shutdown to run. A reader that closes stdout early ends the process
    with exit code 1 and nothing on stderr, as the signal module's
    documentation shows for SIGPIPE.
    """
    gc.disable()
    try:
        try:
            return main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left
        # to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
