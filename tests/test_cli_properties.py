"""Every subcommand answers any input with one JSON document and an exit code.

cli.main runs in process on hypothesis-drawn inputs: malformed JSON, values
of the wrong type, deep and huge values, wire rationals in every spelling
(exponents, underscores, Unicode digits, whitespace, decimals), small valid
pairs with inf, random positive-determinant maps and random --point values.
Whatever the input, the exit code is 0, 1 or 2, stdout holds exactly one
JSON document, nothing escapes main as an exception and stderr shows no
traceback; each example meets a deadline. Every SVG a successful render
writes parses as XML. An exit of 1 with an "error"
document names a typed error, GroupOrderNotTotalError among them, which
render still raises on some valid pairs with shared marked points. No
assert in the library is relied on, so the module also runs under python -O.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from xml.dom import minidom

from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlink import random_family_pair
from circlink.cli import main

EXITS = (0, 1, 2)
# the "error" of an exit-1 document: a --point outside the disc, a value the
# library refuses (a map of determinant <= 0, a generator size out of
# range), and GroupOrderNotTotalError, which render still raises on some
# valid pairs with shared marked points; any other typed
# error, such as an InvariantViolation, would be a bug
TYPED = {"OutsideDiscError", "invalid-value", "GroupOrderNotTotalError"}

# A generous bound: examples are small, so a slow one means a hang or an
# expansion, not a busy machine.
CLI_SETTINGS = settings(deadline=timedelta(seconds=5), max_examples=150)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run_cli(argv)
    assert code in EXITS, (argv, code)
    assert out.endswith("\n"), out
    doc = json.loads(out)    # raises on no document or on a second one
    assert "Traceback" not in err, err
    if code == 1 and isinstance(doc, dict) and "error" in doc:
        assert doc["error"] in TYPED, doc
    if code == 2:
        assert doc["error"] == "malformed-input", doc
    return code, doc


# ── strategies ───────────────────────────────────────────────────────────

digit_run = st.text(alphabet="0123456789٣०", min_size=1, max_size=3)
space = st.sampled_from(["", " ", "\t", "\n", "\xa0", "　"])
# a wire rational in any spelling, or a string that only looks like one
rational = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 12)),
    st.builds("{}{}{}.{}{}".format, space, st.sampled_from(["", "-", "+"]),
              digit_run | st.just(""), digit_run, space),
    st.builds("{}_{}".format, digit_run, digit_run),
    st.builds("{}e{}".format, digit_run, st.sampled_from(["5", "-3", "999999999"])),
    st.builds("{}E{}".format, digit_run, digit_run),
    st.text(alphabet="0123456789٣_ ./-+eE\t", max_size=8),
    st.sampled_from(["inf", "-inf", "nan", "", "1/0", "9" * 5000, "1e999999999"]),
)
# circle parameters: mostly small valid ones, so that pairs often validate
parameter = st.one_of(
    st.integers(-12, 12).map(str),
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 5)),
    st.just("inf"),
    rational,
)
circle_set = st.lists(parameter, min_size=0, max_size=4)
family = st.lists(circle_set, min_size=0, max_size=3)

# a JSON value of the wrong shape anywhere: scalars, deep lists, huge ints
scalar = st.one_of(st.none(), st.booleans(), st.integers(-10 ** 30, 10 ** 30),
                   st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=5))
junk = st.recursive(scalar, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.sampled_from(["plus", "minus", "m", "x"]), inner,
                                      max_size=3), max_leaves=8)


def _pair_doc(plus, minus, extra):
    doc = {"plus": plus, "minus": minus}
    doc.update(extra)
    return json.dumps(doc)


def _split(owned):
    # owners 0 and 1 are plus sets, 2 and 3 minus sets; a point may be in
    # both families
    sets = {}
    for param, owner in owned:
        sets.setdefault(owner, []).append(param)
    return json.dumps({"plus": [v for k, v in sorted(sets.items()) if k < 2],
                       "minus": [v for k, v in sorted(sets.items()) if k >= 2]})


# small pairs on a few parameters with inf, often valid and sometimes with
# shared points, and seeded valid pairs of every generated shape
small_pair = st.lists(st.tuples(st.sampled_from(["inf", "0", "1", "-1", "2", "1/2", "-3/2",
                                                 "5", "-7", "7/3", "10"]),
                                st.integers(0, 3)),
                      min_size=2, max_size=9, unique=True).map(_split)
seeded_pair = st.integers(0, 2 ** 32).map(lambda s: json.dumps(random_family_pair(s).to_json()))

pair_text = st.one_of(
    small_pair,
    seeded_pair,
    st.builds(_pair_doc, family, family,
              st.dictionaries(st.sampled_from(["plus_labels", "minus_labels", "z"]), junk,
                              max_size=1)),
    junk.map(json.dumps),
    st.text(max_size=20),                                             # malformed JSON
    st.builds(lambda d, c: c * d, st.integers(1, 100000), st.sampled_from(["[", "{\"plus\":"])),
    st.sampled_from(['{"plus": [["0", "2"]], "minus": [["1", "3"]]',    # truncated
                     '{"plus": [["0", "inf"]], "minus": [["1", "-1"]]}',
                     '{"plus": [[1, 2]], "minus": [["3"]]}']),
)


def _positive_map(m):
    # swapping the rows negates the determinant; a singular draw keeps b
    a, b, c, d = m
    det = a * d - b * c
    if det < 0:
        a, b, c, d = c, d, a, b
    elif det == 0:
        a, c, d = 1, 0, 1
    return {"m": [[str(a), str(b)], [str(c), str(d)]]}


positive_maps = st.tuples(*[st.integers(-7, 7)] * 4).map(_positive_map)


map_text = st.one_of(
    positive_maps.map(json.dumps),
    st.builds(lambda rows: json.dumps({"m": rows}),
              st.lists(st.lists(rational, min_size=2, max_size=2), min_size=2, max_size=2)),
    junk.map(json.dumps),
    st.text(max_size=12),
)

point_text = st.one_of(
    st.builds("{},{}".format, rational, rational),
    st.builds("{}/{},{}/{}".format, st.integers(-9, 9), st.integers(1, 9),
              st.integers(-9, 9), st.integers(1, 9)),
    st.text(alphabet="0123456789,/.-_ e٣", max_size=10),
)


def _files(directory, pair, map_doc=None):
    pair_path = os.path.join(directory, "pair.json")
    with open(pair_path, "w", encoding="utf-8") as fh:
        fh.write(pair)
    map_path = os.path.join(directory, "map.json")
    if map_doc is not None:
        with open(map_path, "w", encoding="utf-8") as fh:
            fh.write(map_doc)
    return pair_path, map_path


# ── properties ───────────────────────────────────────────────────────────

@CLI_SETTINGS
@given(st.sampled_from(["validate", "classify", "disc"]), pair_text)
@example("validate", "[" * 200000)
@example("disc", '{"plus": [["0", "' + "7" * 5000 + '"]], "minus": [["1"]]}')
def test_read_commands_answer_any_pair(command, pair):
    with tempfile.TemporaryDirectory() as d:
        pair_path, _ = _files(d, pair)
        check([command, pair_path])


@CLI_SETTINGS
@given(pair_text, point_text)
@example('{"plus": [["0", "2"]], "minus": [["1", "3"]]}', "1e999999999,0")
@example('{"plus": [["0", "2"]], "minus": [["1", "inf"]]}', " ٣/7 , -0.1_5 ")
def test_straighten_answers_any_pair_and_point(pair, point):
    with tempfile.TemporaryDirectory() as d:
        pair_path, _ = _files(d, pair)
        # the = form keeps a point that starts with "-" a value
        check(["straighten", pair_path, "--point=" + point])


@CLI_SETTINGS
@given(pair_text, map_text)
@example('{"plus": [["-1", "1"]], "minus": [["0", "inf"]]}', '{"m": [["0", "1"], ["-1", "0"]]}')
@example('{"plus": [["0", "2"]], "minus": [["1", "3"]]}', '{"m": [["1_0", "0"], ["0", "1e9"]]}')
def test_equivariance_answers_any_pair_and_map(pair, map_doc):
    with tempfile.TemporaryDirectory() as d:
        pair_path, map_path = _files(d, pair, map_doc)
        check(["equivariance", pair_path, "--map", map_path])


@CLI_SETTINGS
@given(pair_text, st.sampled_from([[], ["--labels"], ["--width", "40"], ["--width", "47"],
                                   ["--height", "1", "--width", "1000"]]))
@example('{"plus": [["0", "2", "4"]], "minus": [["1", "3", "5"]]}', ["--labels"])
@example('{"plus": [["0", "2"]], "minus": [["1", "3"]], "plus_labels": ["a\\u0001b"]}',
         ["--labels"])
@example('{"plus": [["0", "2"]], "minus": [["1", "3"]], "plus_labels": ["a\\ud800b"]}',
         ["--labels"])
def test_render_answers_any_pair(pair, flags):
    with tempfile.TemporaryDirectory() as d:
        pair_path, _ = _files(d, pair)
        code, doc = check(["render", pair_path, "--out", os.path.join(d, "pic")] + flags)
        if code == 0:
            # both pictures are well-formed XML
            for path in doc["written"]:
                minidom.parse(path).unlink()
        assert not [n for n in os.listdir(d) if n.startswith(".circlink-")]


@CLI_SETTINGS
@given(st.sampled_from(["grid", "tripod", "star", "nested", "symmetric", "figure"]),
       st.integers(-2, 6), st.integers(-1, 8), st.integers(-1, 4),
       st.integers(-2 ** 70, 2 ** 70), st.booleans())
@example("nested", 2, 3, 2000, 0, False)   # refused, not a RecursionError
def test_gen_answers_any_request(kind, n, k, depth, seed, map_out):
    with tempfile.TemporaryDirectory() as d:
        argv = ["gen", "--kind", kind, "--n", str(n), "--k", str(k), "--depth", str(depth),
                "--seed", str(seed)]
        if map_out:
            argv += ["--map-out", os.path.join(d, "map.json")]
        code, doc = check(argv)
        if code == 0:
            _, validated = check(["validate", _files(d, json.dumps(doc))[0]])
            assert validated["ok"] is True
