"""One grammar for every number on the wire, on every Python version.

A circle parameter, a `straighten --point` coordinate and an equivariance
map entry are read by one ASCII pattern (circle._NUMBER_RE): after
str.strip(), an optional sign and ASCII digits spelling an integer, p/q
or, except in a circle parameter, a decimal. TABLE gives each spelling's
value, or None where the CLI exits 2 at the spelling's location. Fraction's
own grammar differs between versions (underscores from 3.11 on, spaces at
the slash from 3.12 on), so the table holds no Fraction, and the module
runs as a script under an interpreter that has no pytest:

    PYTHONPATH=src python3.10 tests/test_wire_grammar.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from circlink import CircleMap, FamilyPair
from circlink.cli import _parse_point, main

# spelling: (its value as a wire rational, as a circle parameter), each a
# reduced (num, den), or None for malformed input
TABLE = {
    "1 / 4": (None, None),
    "1_0/100": (None, None),
    "٣": (None, None),                      # ARABIC-INDIC DIGIT THREE, which int() reads
    " -.5 ": ((-1, 2), None),
    "+.5": ((1, 2), None),
    "1.": ((1, 1), None),
    ".": (None, None),
    "1e9": (None, None),
    "1/0": (None, None),
    " -3/6\t": ((-1, 2), (-1, 2)),
    "7": ((7, 1), (7, 1)),
    "1" * 4301: (None, None),                    # past int()'s 4 300 digits
    "2" * 3000 + "." + "1" * 3000: ((int("2" * 3000) * 10 ** 3000 + int("1" * 3000),
                                     10 ** 3000), None),
}

LINKED = {"plus": [["-1", "1"]], "minus": [["0", "inf"]]}


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _malformed_at(answer, location):
    code, doc = answer
    return code == 2 and (doc["error"], doc["location"]) == ("malformed-input", location)


def test_every_number_reads_as_the_table_says():
    with tempfile.TemporaryDirectory() as d:
        pair = _write(d, "pair.json", LINKED)
        for text, (wire, param) in TABLE.items():
            label = text[:12]
            # a --point coordinate; a point outside the disc exits 1
            answer = _cli("straighten", pair, "--point=%s,0" % text)
            if wire is None:
                assert _malformed_at(answer, "--point"), label
            else:
                assert answer[0] in (0, 1), label
                assert _parse_point(text + ",0").key() == (wire[0], 0, wire[1]), label
            # a map entry: the translation u -> u + text
            doc = {"m": [["1", text], ["0", "1"]]}
            answer = _cli("equivariance", pair, "--map", _write(d, "map.json", doc))
            if wire is None:
                assert _malformed_at(answer, "$.m[0][1]"), label
            else:
                assert answer[0] in (0, 1), label
                g = CircleMap.from_json(doc)
                assert (g.b, g.a, g.c, g.d) == wire + (0, wire[1]), label
            # a circle parameter
            doc = {"plus": [[text]], "minus": [["inf"]]}
            answer = _cli("validate", _write(d, "single.json", doc))
            if param is None:
                assert _malformed_at(answer, "$.plus[0]"), label
            else:
                assert answer[0] == 0, label
                p = FamilyPair.from_json(doc).plus[0].points[0]
                assert (p.num, p.den) == param, label


if __name__ == "__main__":
    test_every_number_reads_as_the_table_says()
    print("%d spellings read as the table says on Python %s"
          % (len(TABLE), sys.version.split()[0]))
