"""Command-line front end.

Exit codes are part of the contract: 0 on success, 1 for semantic problems
(validation violations, failed equivariance, points outside the disc), 2 for
malformed input (bad JSON, bad schema, bad argument syntax). All JSON output
is key-sorted with a fixed layout, so identical inputs give identical bytes:
those of json.dumps(obj, sort_keys=True, indent=2), written by _dumps.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii as _json_str

# Each subcommand imports the modules it runs inside its function, so a
# process pays only for those. render stays here: RenderOptions supplies the
# argparse defaults.
from .errors import CirclinkError, FamilyValidationError, MalformedInputError
from .family import FamilyPair, especial_disc
from .render import RenderOptions

__all__ = ["main", "run"]


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# how _dumps spells a scalar, by its exact type
_SCALARS = {str: _json_str, int: int.__repr__, float: _json_float,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte, for values
    whose dict keys are all str; a key of another type raises TypeError.

    The json module of CPython 3.10 to 3.12 runs its pure-Python encoder
    whenever indent is set. This writer spells each scalar in the list or
    dict holding it, and each key with its separator once per call. A list
    of flat rows goes to json's C encoder whole (see _rows).
    """
    out = []
    _write(obj, "\n", out.append, {})
    return "".join(out)


def _write(o, nl: str, put, keys: dict) -> None:
    # _dumps's recursion: o indented by nl, handed to put in fragments, with
    # keys the spelled keys. A module-level function and not a closure, which
    # would hold its own cell, and through put every fragment, in a cycle
    # that only the cyclic collector frees
    scalar = _SCALARS.get
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            put("{}")
            return
        sep = "{" + inner
        for k, v in sorted(o.items()):
            key = keys.get(k)
            if key is None:
                if not isinstance(k, str):
                    raise TypeError("keys must be str, not %s" % type(k).__name__)
                key = keys[k] = _json_str(k) + ": "
            enc = scalar(type(v))
            if enc is None:
                put(sep + key)
                _write(v, inner, put, keys)
            else:
                put(sep + key + enc(v))
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        if type(o[0]) is dict and c_make_encoder is not None:
            text = _rows(o, nl)
            if text is not None:
                put(text)
                return
        sep = "[" + inner
        for v in o:
            enc = scalar(type(v))
            if enc is None:
                put(sep)
                _write(v, inner, put, keys)
            else:
                put(sep + enc(v))
            sep = "," + inner
        put(nl + "]")
    else:
        # a scalar at the top, or a subclass of str, int or float
        enc = scalar(type(o)) or next(
            (_SCALARS[t] for t in (str, int, float) if isinstance(o, t)), None)
        if enc is None:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(o).__name__)
        put(enc(o))


def _rows(o, nl: str):
    """The list o indented by nl, spelled by json's C encoder, when o holds
    only non-empty dicts of str keys and values of an exact type in
    _SCALARS; None for any other list.

    Without indent, the encoder takes one item separator for the rows and
    for the entries of each row. It is given the entries' separator, a comma
    and a newline with the entries' indent, and each joint between two rows
    is then rewritten. A joint is the only place where "}," meets that
    separator: the value before an entry's separator is a scalar, and an
    encoded string holds no raw newline.
    """
    # each test runs in C, without a Python loop over the rows
    if set(map(type, o)) != {dict} or not all(o) \
            or set(map(type, chain.from_iterable(o))) != {str} \
            or not set(map(type, chain.from_iterable(map(dict.values, o)))).issubset(_SCALARS):
        return None
    row, entry = nl + "  ", nl + "    "
    # no markers: a row holds no container; no default: nothing is unknown
    encode = c_make_encoder(None, None, _json_str, None, ": ", "," + entry,
                            True, False, True)
    text = "".join(encode(o, 0)).replace("}," + entry + "{", row + "}," + row + "{" + entry)
    # text is [{ + the rows + }]
    return "[" + row + "{" + entry + text[2:-2] + row + "}" + nl + "]"


def _emit(obj) -> None:
    # two writes: the answer is not copied once more to append its newline
    out = sys.stdout
    out.write(_dumps(obj))
    out.write("\n")


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


def _atomic_write(path: str, emit) -> None:
    """Call emit with the write of a temporary file beside path, then rename
    the file to path; if emit or the write raises, the file is removed.

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
                emit(fh.write)
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
        raise MalformedInputError("bad rational in point %r" % text, "--point") from None


def cmd_validate(args) -> int:
    fp = _load_pair(args.file)
    _emit({"ok": True, "plus": len(fp.plus), "minus": len(fp.minus)})
    return 0


def cmd_classify(args) -> int:
    fp = _load_pair(args.file)
    interior = fp.interior
    boundary = fp.boundary
    rows = []
    for i in range(len(fp.plus)):
        for j in range(len(fp.minus)):
            row = {"plus": i, "minus": j}
            if (i, j) in boundary:
                row["class"] = "intersecting"
                row["point"] = str(boundary[(i, j)])
            elif (i, j) in interior:
                row["class"] = "linked"
                row["n"] = interior[(i, j)]
            else:
                row["class"] = "unlinked"
            rows.append(row)
    _emit({"pairs": rows})
    return 0


def cmd_disc(args) -> int:
    fp = _load_pair(args.file)
    _emit(especial_disc(fp).to_json())
    return 0


def cmd_straighten(args) -> int:
    from .straighten import result_to_json, straighten_point

    fp = _load_pair(args.file)
    _emit(result_to_json(straighten_point(fp, _parse_point(args.point))))
    return 0


def cmd_render(args) -> int:
    from .render import _write_input, _write_straightened
    from .straighten import layout

    try:
        opts = RenderOptions(width=args.width, height=args.height, labels=args.labels)
    except MalformedInputError as exc:
        # the field's flag is the location
        raise MalformedInputError(exc.message, "--" + exc.location) from None
    fp = _load_pair(args.file)
    input_path = args.out + "-input.svg"
    straight_path = args.out + "-straightened.svg"
    # each picture streams into its file element by element
    sd = layout(fp)
    _atomic_write(input_path, lambda write: _write_input(fp, opts, write))
    _atomic_write(straight_path, lambda write: _write_straightened(sd, opts, write))
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
        text = _dumps(gen_symmetric()[1].to_json()) + "\n"
        _atomic_write(args.map_out, lambda write: write(text))
    _emit(fp.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    # (-3, -.5, -1_0/17), and no option of this parser
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
