"""Command-line behavior: exit codes, JSON output, SVG snapshots."""

import hashlib
import json
import os
import shlex
import stat
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from childenv import TESTS, child_env
from circlink import (
    DisjointLinked,
    FamilyPair,
    IntersectingAt,
    MalformedInputError,
    OutsideDiscError,
    PlanePoint,
    RenderOptions,
    classify_pair,
    especial_disc,
    gen_grid,
    gen_tripod,
    locate,
    nested_pair,
    random_family_pair,
    render_input_svg,
)
from circlink.cli import main
from circlink.generators import GenSpec, random_circle_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write_pair(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


GRID2 = {"plus": [["0", "3"], ["4", "7"]], "minus": [["2", "5"], ["1", "6"]]}
TRIPOD = {"plus": [["0", "2", "4"]], "minus": [["1", "3", "5"]]}
LINKED_PLUS = {"plus": [["0", "2"], ["1", "3"]], "minus": [["5"]]}


def structure(svg_path):
    """Tag counts and id list of an SVG file, namespace stripped."""
    root = ET.parse(svg_path).getroot()
    tags = {}
    ids = []
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        tags[tag] = tags.get(tag, 0) + 1
        if "id" in el.attrib:
            ids.append(el.attrib["id"])
    return tags, ids


# ── validate ─────────────────────────────────────────────────────────────

def test_validate_ok(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out) == {"ok": True, "plus": 2, "minus": 2}


def test_validate_reports_violations(tmp_path, capsys):
    path = write_pair(tmp_path, "bad.json", LINKED_PLUS)
    code, out = run(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["violations"][0]["kind"] == "WithinFamilyLinked"


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"plus": [[', encoding="utf-8")
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "malformed-input"
    assert "line 1" in report["location"]


def test_validate_schema_error_location(tmp_path, capsys):
    for bad in ("zzz", 2):
        path = write_pair(tmp_path, "schema.json", {"plus": [["0", bad]], "minus": [["1"]]})
        code, out = run(capsys, "validate", path)
        assert code == 2
        err = json.loads(out)
        assert (err["error"], err["location"]) == ("malformed-input", "$.plus[0]")


def test_zero_denominator_parameter_is_malformed(tmp_path, capsys):
    path = write_pair(tmp_path, "zero.json", {"plus": [["1/0"]], "minus": [["3"]]})
    code, out = run(capsys, "validate", path)
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", "$.plus[0]")


@pytest.mark.parametrize("param", ["1" + "0" * 5000, "1/1" + "0" * 5000],
                         ids=["numerator", "denominator"])
def test_oversized_parameter_is_malformed(tmp_path, capsys, param):
    # more digits than int() converts from a string
    path = write_pair(tmp_path, "big.json", {"plus": [["0", param]], "minus": [["3"]]})
    code, out = run(capsys, "validate", path)
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", "$.plus[0]")
    assert len(out) < 200


def test_deeply_nested_json_is_malformed(tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit, and an integer literal
    # longer than int's 4 300 digit limit (json.loads raises a plain
    # ValueError), each as a pair and as a map
    pair = write_pair(tmp_path, "grid.json", GRID2)
    for name, text in (("deep.json", "[" * 200000), ("long.json", "[%s]" % ("7" * 5000))):
        bad = str(tmp_path / name)
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["validate", bad], ["equivariance", pair, "--map", bad]):
            code, out = run(capsys, *argv)
            assert code == 2, (name, argv)
            err = json.loads(out)
            assert (err["error"], err["location"]) == ("malformed-input", bad)
            assert err["message"].startswith("invalid JSON: ")


def test_file_that_is_not_utf8_is_malformed(tmp_path, capsys):
    # byte 0xff starts no UTF-8 sequence; as a pair and as a map
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"plus": [["0", "2"]], "minus": [["1", "3"]], "plus_labels": ["\xff"]}')
    pair = write_pair(tmp_path, "grid.json", GRID2)
    for argv in (["validate", str(bad)], ["equivariance", pair, "--map", str(bad)]):
        code, out = run(capsys, *argv)
        assert code == 2
        err = json.loads(out)
        assert (err["error"], err["location"]) == ("malformed-input", str(bad))
        assert "not UTF-8" in err["message"]


@pytest.mark.parametrize("key", ["plus_labels", "minus_labels"])
@pytest.mark.parametrize("label", ["a\u0001b", "a\ud800b", "\ufffe"],
                         ids=["control", "surrogate", "nonchar"])
def test_labels_outside_xml_chars_are_malformed(tmp_path, capsys, key, label):
    path = write_pair(tmp_path, "p.json", dict(GRID2, **{key: ["ok", label]}))
    code, out = run(capsys, "render", path, "--out", str(tmp_path / "pic"), "--labels")
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", "$.%s[1]" % key)
    assert sorted(os.listdir(tmp_path)) == ["p.json"]


def test_missing_file(capsys):
    code, out = run(capsys, "validate", "/nonexistent/nothing.json")
    assert code == 2
    assert json.loads(out)["error"] == "malformed-input"


# ── classify and disc ────────────────────────────────────────────────────

def test_classify_grid(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "classify", path)
    assert code == 0
    rows = json.loads(out)["pairs"]
    assert len(rows) == 4
    assert all(r["class"] == "linked" and r["n"] == 2 for r in rows)


def test_classify_mixed(tmp_path, capsys):
    path = write_pair(tmp_path, "mixed.json",
                      {"plus": [["0", "1"]], "minus": [["1", "5"]]})
    code, out = run(capsys, "classify", path)
    assert code == 0
    rows = json.loads(out)["pairs"]
    assert rows == [{"plus": 0, "minus": 0, "class": "intersecting", "point": "1"}]


def test_classify_matches_classify_pair_loop(tmp_path, capsys):
    # the command reads the pair's interior and boundary maps; classify_pair,
    # pair by pair, is the oracle
    touching = {"plus": [["0", "3"], ["4", "7"]], "minus": [["3", "5"], ["7", "10"]]}
    pairs = [random_family_pair(seed) for seed in range(30)]
    pairs += [random_circle_map(seed).apply_pair(FamilyPair.from_json(touching))
              for seed in range(10)]
    seen = set()
    for k, fp in enumerate(pairs):
        rows = []
        for i in range(len(fp.plus)):
            for j in range(len(fp.minus)):
                c = classify_pair(fp, i, j)
                row = {"plus": i, "minus": j, "class": "unlinked"}
                if isinstance(c, IntersectingAt):
                    row.update({"class": "intersecting", "point": str(c.point)})
                elif isinstance(c, DisjointLinked):
                    row.update({"class": "linked", "n": c.n})
                rows.append(row)
                seen.add(row["class"])
        path = write_pair(tmp_path, "pair%d.json" % k, fp.to_json())
        code, out = run(capsys, "classify", path)
        assert code == 0
        assert out == json.dumps({"pairs": rows}, sort_keys=True, indent=2) + "\n"
    assert seen == {"intersecting", "linked", "unlinked"}


def test_disc_matches_library(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "disc", path)
    assert code == 0
    expected = json.dumps(especial_disc(gen_grid(2)).to_json(), sort_keys=True, indent=2) + "\n"
    assert out == expected


def test_disc_byte_stable_across_runs(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    outputs = set()
    for argv in (["disc", path], ["disc", path]):
        code, out = run(capsys, *argv)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# ── straighten ───────────────────────────────────────────────────────────

def test_straighten_crossing(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "straighten", path, "--point", "-13/17,10/17")
    assert code == 0
    assert json.loads(out) == {"result": "mapped", "z": [0, 0]}


def test_straighten_not_in_domain(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "straighten", path, "--point", "0,0")
    assert code == 0
    assert json.loads(out) == {"result": "not_in_domain"}


def test_straighten_outside_disc(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "straighten", path, "--point", "2,0")
    assert code == 1
    assert json.loads(out)["error"] == "OutsideDiscError"


def test_straighten_outside_disc_past_the_digit_limit(tmp_path, capsys):
    # a 6 000-digit numerator: each run of digits reads, but the value has
    # more digits than int converts to a string, so the message cannot
    # spell the point in full
    big = "2" * 3000 + "." + "1" * 3000
    path = write_pair(tmp_path, "chords.json", {"plus": [["-1", "1"]], "minus": [["0", "inf"]]})
    code, out = run(capsys, "straighten", path, "--point", big + ",0")
    assert code == 1
    assert json.loads(out)["error"] == "OutsideDiscError"
    assert len(out) < 200
    # the error keeps the exact point
    fp = FamilyPair.from_json({"plus": [["-1", "1"]], "minus": [["0", "inf"]]})
    p = PlanePoint.from_json([big, "0"])
    with pytest.raises(OutsideDiscError) as info:
        locate(fp, p)
    assert info.value.point == p and info.value.point.key() == p.key()
    assert len(str(info.value)) < 200


def test_straighten_bad_point(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    for bad in ("bogus", "1,2,3", "1/0,0"):
        code, out = run(capsys, "straighten", path, "--point", bad)
        assert code == 2
        assert json.loads(out)["error"] == "malformed-input"


def test_straighten_point_takes_integers_fractions_and_decimals(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "straighten", path, "--point", "-0.5,1/4")
    assert code == 0
    for same_point in ("-1/2,0.25", "-.5,1/4"):
        code, same = run(capsys, "straighten", path, "--point", same_point)
        assert (code, same) == (0, out)


def _cli_process(*argv):
    # a process, so that a parser which expands the exponent times out
    # instead of hanging the suite
    proc = subprocess.run([sys.executable, "-m", "circlink"] + list(argv),
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("where", ["--point", "$.m[0][0]"])
def test_exponent_rationals_are_malformed(tmp_path, where):
    pair = write_pair(tmp_path, "grid.json", GRID2)
    if where == "--point":
        argv = ["straighten", pair, "--point", "1e999999999,0"]
    else:
        huge = write_pair(tmp_path, "map.json", {"m": [["1e999999999", "0"], ["0", "1"]]})
        argv = ["equivariance", pair, "--map", huge]
    code, out, err = _cli_process(*argv)
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert (report["error"], report["location"]) == ("malformed-input", where)


# ── equivariance ─────────────────────────────────────────────────────────

def test_map_of_json_numbers_is_malformed(tmp_path, capsys):
    grid = write_pair(tmp_path, "grid.json", GRID2)
    numbers = write_pair(tmp_path, "map.json", {"m": [[1, 0], [0, 1]]})
    code, out = run(capsys, "equivariance", grid, "--map", numbers)
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", "$.m[0][0]")


def test_equivariance_pass_and_fail(tmp_path, capsys):
    sym = write_pair(tmp_path, "sym.json", {"plus": [["-1", "1"]], "minus": [["0", "inf"]]})
    neg = write_pair(tmp_path, "map.json", {"m": [["0", "1"], ["-1", "0"]]})
    code, out = run(capsys, "equivariance", sym, "--map", neg)
    assert code == 0
    assert json.loads(out)["ok"] is True

    grid = write_pair(tmp_path, "grid.json", GRID2)
    code, out = run(capsys, "equivariance", grid, "--map", neg)
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["failures"][0]["kind"] == "NotInvariant"


def test_equivariance_answer_spells_numbers_past_the_digit_limit(tmp_path, capsys):
    # D has 6 000 digits, though no run of them is past the reader's limit;
    # the report spells plus 0's image, whose point 3 maps to 3 D, in full
    d = "2" * 3000 + "." + "1" * 3000
    grid = write_pair(tmp_path, "grid.json", GRID2)
    scale = write_pair(tmp_path, "map.json", {"m": [[d, "0"], ["0", "1"]]})
    code, out = run(capsys, "equivariance", grid, "--map", scale)
    assert code == 1
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report["ok"] is False
    failure = report["failures"][0]
    assert (failure["kind"], failure["family"], failure["element"]) == ("NotInvariant", "plus", 0)
    assert failure["image"] == ["0", "6" * 3000 + "3" * 3000 + "/1" + "0" * 3000]


def test_equivariance_rejects_bad_map(tmp_path, capsys):
    grid = write_pair(tmp_path, "grid.json", GRID2)
    flip = write_pair(tmp_path, "flip.json", {"m": [["1", "0"], ["0", "-1"]]})
    code, out = run(capsys, "equivariance", grid, "--map", flip)
    assert code == 1
    assert json.loads(out)["error"] == "invalid-value"


# ── gen ──────────────────────────────────────────────────────────────────

def test_gen_grid_round_trip(tmp_path, capsys):
    code, out = run(capsys, "gen", "--kind", "grid", "--n", "2")
    assert code == 0
    assert json.loads(out) == GRID2
    path = tmp_path / "round.json"
    path.write_text(out, encoding="utf-8")
    code, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_gen_all_kinds_validate(tmp_path, capsys):
    for kind, extra in (("grid", ["--n", "3"]), ("star", ["--k", "5"]), ("tripod", []),
                        ("nested", ["--depth", "2", "--seed", "3"]), ("symmetric", []),
                        ("figure", [])):
        code, out = run(capsys, "gen", "--kind", kind, *extra)
        assert code == 0
        path = tmp_path / ("gen-%s.json" % kind)
        path.write_text(out, encoding="utf-8")
        code, _ = run(capsys, "validate", str(path))
        assert code == 0, kind


def test_gen_symmetric_map_out(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out = run(capsys, "gen", "--kind", "symmetric", "--map-out", str(out_path))
    assert code == 0
    stored = json.loads(out_path.read_text(encoding="utf-8"))
    assert stored == {"m": [["0", "1"], ["-1", "0"]]}


def test_gen_map_out_requires_symmetric(capsys):
    code, out = run(capsys, "gen", "--kind", "grid", "--map-out", "/tmp/never.json")
    assert code == 2


def test_gen_refuses_map_out_before_building(monkeypatch, tmp_path, capsys):
    # a depth-20 nested pair has 2^21 - 1 chords a family; none is built
    def build(spec):
        raise AssertionError("built %r" % (spec,))

    monkeypatch.setattr(GenSpec, "build", build)
    target = str(tmp_path / "map.json")
    code, out = run(capsys, "gen", "--kind", "nested", "--depth", "20", "--map-out", target)
    assert code == 2
    assert json.loads(out)["location"] == "--map-out"
    assert not os.path.exists(target)


def _write_every_file(capsys, pair, map_path, prefix, umask):
    old = os.umask(umask)
    try:
        assert run(capsys, "gen", "--kind", "symmetric", "--map-out", map_path)[0] == 0
        assert run(capsys, "render", pair, "--out", prefix)[0] == 0
    finally:
        os.umask(old)
    return [map_path, prefix + "-input.svg", prefix + "-straightened.svg"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_files_get_the_mode_open_gives(tmp_path, capsys, umask):
    pair = write_pair(tmp_path, "tripod.json", TRIPOD)
    paths = _write_every_file(capsys, pair, str(tmp_path / "g.json"), str(tmp_path / "pic"), umask)
    for path in paths:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask, path
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".circlink-")]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_replaced_files_keep_their_mode(tmp_path, capsys, umask):
    pair = write_pair(tmp_path, "tripod.json", TRIPOD)
    paths = [str(tmp_path / "g.json"), str(tmp_path / "pic-input.svg"),
             str(tmp_path / "pic-straightened.svg")]
    # the setuid and sticky bits do not carry over to the new content
    modes = [0o604, 0o4640, 0o1755]
    for path, mode in zip(paths, modes):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("old\n")
        os.chmod(path, mode)
        assert stat.S_IMODE(os.stat(path).st_mode) == mode
    _write_every_file(capsys, pair, paths[0], str(tmp_path / "pic"), umask)
    for path, mode in zip(paths, modes):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode & 0o777, path
        with open(path, encoding="utf-8") as fh:
            assert fh.read() != "old\n"


# ── render ───────────────────────────────────────────────────────────────

def test_render_grid_snapshot(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    prefix = str(tmp_path / "grid")
    code, out = run(capsys, "render", path, "--out", prefix)
    assert code == 0
    assert json.loads(out)["written"] == [prefix + "-input.svg", prefix + "-straightened.svg"]

    tags, ids = structure(prefix + "-input.svg")
    assert tags == {"svg": 1, "circle": 5, "line": 4}
    assert ids == ["boundary", "hull-plus-0", "hull-plus-1", "hull-minus-0", "hull-minus-1",
                   "cell-0-0", "cell-0-1", "cell-1-0", "cell-1-1"]

    tags, ids = structure(prefix + "-straightened.svg")
    assert tags == {"svg": 1, "circle": 5, "g": 4, "line": 4}
    assert ids == ["boundary",
                   "leaf-plus-0", "leaf-plus-0-e0", "leaf-plus-1", "leaf-plus-1-e0",
                   "leaf-minus-0", "leaf-minus-0-e0", "leaf-minus-1", "leaf-minus-1-e0",
                   "z-0-0", "z-0-1", "z-1-0", "z-1-1"]


def test_render_tripod_snapshot(tmp_path, capsys):
    path = write_pair(tmp_path, "tripod.json", TRIPOD)
    prefix = str(tmp_path / "tri")
    code, _ = run(capsys, "render", path, "--out", prefix)
    assert code == 0

    tags, ids = structure(prefix + "-input.svg")
    assert tags == {"svg": 1, "circle": 1, "polygon": 3}
    assert ids == ["boundary", "hull-plus-0", "hull-minus-0", "cell-0-0"]

    tags, ids = structure(prefix + "-straightened.svg")
    assert tags == {"svg": 1, "circle": 2, "g": 2}
    assert ids == ["boundary", "leaf-plus-0", "leaf-minus-0", "z-0-0"]


def test_render_tripod_bytes(tmp_path, capsys):
    # the snapshots above check structure; these digests pin every attribute,
    # such as the filled cell polygon and the unfilled hulls
    path = write_pair(tmp_path, "tripod.json", TRIPOD)
    prefix = str(tmp_path / "tri")
    code, _ = run(capsys, "render", path, "--out", prefix)
    assert code == 0
    digests = [hashlib.sha256((tmp_path / ("tri" + suffix)).read_bytes()).hexdigest()
               for suffix in ("-input.svg", "-straightened.svg")]
    assert digests == ["39a2cadd6356bada53b507e06691a41c54fc610679c7365afa9aa5c0bef247a6",
                       "89b285ac970851d81387fc8f0f4f82a6f724f83dca2e5c50ee9f6f0189b31c0b"]


def test_render_builds_disc_and_cells_once(tmp_path, capsys, monkeypatch):
    from circlink import family, hullgeom

    counts = {"especial_disc": 0, "linked_cells": 0}
    # wrap each function under every name a circlink module binds it to
    modules = [m for n, m in list(sys.modules.items())
               if n == "circlink" or n.startswith("circlink.")]
    for fn in (family.especial_disc, hullgeom.linked_cells):
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, key, counted)

    path = write_pair(tmp_path, "grid.json", GRID2)
    code, _ = run(capsys, "render", path, "--out", str(tmp_path / "grid"))
    assert code == 0
    assert counts == {"especial_disc": 1, "linked_cells": 1}


def test_render_is_reproducible(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    prefix_a = str(tmp_path / "a")
    prefix_b = str(tmp_path / "b")
    run(capsys, "render", path, "--out", prefix_a)
    run(capsys, "render", path, "--out", prefix_b)
    for suffix in ("-input.svg", "-straightened.svg"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b


def test_render_labels(tmp_path, capsys):
    path = write_pair(tmp_path, "grid.json", GRID2)
    prefix = str(tmp_path / "lab")
    code, _ = run(capsys, "render", path, "--out", prefix, "--labels")
    assert code == 0
    tags, ids = structure(prefix + "-input.svg")
    assert tags["text"] == 4
    assert "label-plus-0" in ids
    tags, ids = structure(prefix + "-straightened.svg")
    assert tags["text"] == 4
    assert "zlabel-1-1" in ids


def test_render_escapes_labels_as_before(tmp_path, capsys):
    # &, < and > are escaped; quotes stay as they are, exactly as the
    # xml.sax.saxutils escape used before
    from xml.sax.saxutils import escape

    tricky = ["a&b", "<x>\"y'"]
    plain = ["LABEL0", "LABEL1"]
    outs = []
    for k, labels in enumerate((tricky, plain)):
        payload = dict(GRID2, plus_labels=labels, minus_labels=labels[::-1])
        prefix = str(tmp_path / ("lab%d" % k))
        code, _ = run(capsys, "render", write_pair(tmp_path, "p.json", payload),
                      "--out", prefix, "--labels")
        assert code == 0
        outs.append((tmp_path / ("lab%d-input.svg" % k)).read_bytes())
    expected = outs[1]
    for old, new in zip(plain, tricky):
        expected = expected.replace((">%s<" % old).encode(), (">%s<" % escape(new)).encode())
    assert outs[0] == expected
    assert b">a&amp;b<" in outs[0] and b">&lt;x&gt;\"y'<" in outs[0]


def test_render_rejects_invalid_family(tmp_path, capsys):
    path = write_pair(tmp_path, "bad.json", LINKED_PLUS)
    code, out = run(capsys, "render", path, "--out", str(tmp_path / "x"))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_render_into_missing_directory_is_malformed(tmp_path, capsys):
    path = write_pair(tmp_path, "tripod.json", TRIPOD)
    prefix = str(tmp_path / "missing" / "x")
    code, out = run(capsys, "render", path, "--out", prefix)
    assert code == 2
    err = json.loads(out)
    assert err["error"] == "malformed-input"
    assert err["location"] == prefix + "-input.svg"
    assert err["message"].startswith("cannot write %s: " % err["location"])


def test_gen_map_out_into_missing_directory_is_malformed(tmp_path, capsys):
    target = str(tmp_path / "missing" / "map.json")
    code, out = run(capsys, "gen", "--kind", "symmetric", "--map-out", target)
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", target)
    assert not os.path.exists(os.path.dirname(target))


@pytest.mark.parametrize("flags,location", [
    (["--width", "0"], "--width"),
    (["--width", "-5"], "--width"),
    (["--height", "48"], "--height"),
    (["--width", "10", "--height", "20"], "--width"),
    (["--width", "30", "--height", "20"], "--height"),
    # too large for a float, so for the canvas's float coordinates
    (["--width", "1" + "0" * 400], "--width"),
    (["--height", "1" + "0" * 400], "--height"),
])
def test_render_rejects_sizes_without_a_disc(tmp_path, capsys, flags, location):
    # the disc radius min(width, height) / 2 - margin (24) must be positive
    path = write_pair(tmp_path, "tripod.json", TRIPOD)
    prefix = str(tmp_path / "small")
    code, out = run(capsys, "render", path, "--out", prefix, *flags)
    assert code == 2
    err = json.loads(out)
    assert (err["error"], err["location"]) == ("malformed-input", location)
    assert os.listdir(tmp_path) == ["tripod.json"]


def test_render_accepts_the_smallest_disc(tmp_path, capsys):
    path = write_pair(tmp_path, "tripod.json", TRIPOD)
    prefix = str(tmp_path / "tiny")
    code, _ = run(capsys, "render", path, "--out", prefix, "--width", "49", "--height", "49")
    assert code == 0
    assert 'r="0.5"' in (tmp_path / "tiny-input.svg").read_text(encoding="utf-8")


@pytest.mark.parametrize("kwargs,location", [
    ({"width": 0}, "width"),
    ({"height": 48}, "height"),
    ({"width": 30, "height": 20}, "height"),
    ({"height": 10 ** 400}, "height"),
    # the least int that float() rounds up to 2**1024
    ({"width": 2 ** 1024 - 2 ** 970}, "width"),
])
def test_render_options_reject_sizes_without_a_disc(kwargs, location):
    # library callers get the CLI's check: no options, so no SVG with a
    # negative disc radius
    with pytest.raises(MalformedInputError) as info:
        RenderOptions(**kwargs)
    assert info.value.location == location
    smallest = RenderOptions(width=49, height=49)
    assert 'r="0.5"' in render_input_svg(gen_tripod(), smallest)


@pytest.mark.parametrize("kwargs,location", [
    # accepted before: the viewBox said 720 while the picture was centred
    # on x = 360.25
    ({"width": 720.5}, "width"),
    # a bare TypeError from the size comparison before
    ({"width": "800"}, "width"),
    # drew the labels before
    ({"labels": "no"}, "labels"),
])
def test_render_options_reject_wrong_types(kwargs, location):
    with pytest.raises(MalformedInputError) as info:
        RenderOptions(**kwargs)
    assert info.value.location == location


# ── process-level smoke ──────────────────────────────────────────────────

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "circlink", "gen", "--kind", "tripod"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == TRIPOD


def test_cli_import_skips_xml_and_urllib():
    code = ("import sys, circlink.cli; "
            "print(sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", [
    [], ["validate"], ["classify"], ["disc"], ["straighten"], ["render"], ["equivariance"],
    ["gen"]])
def test_help_in_a_fresh_process(command):
    # argparse builds every subparser and its defaults with only the
    # modules cli imports at load time
    proc = subprocess.run([sys.executable, "-m", "circlink"] + command + ["--help"],
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: circlink")


def _cli_run(tmp_path, flags):
    # validate, classify, disc and render on two fixtures in a fresh process
    # each; returns every stdout and every SVG, as bytes
    out = {}
    env = child_env()
    for name, fp in (("grid6", gen_grid(6)), ("nested", nested_pair(3, 0))):
        work = tmp_path / name
        work.mkdir()
        (work / "pair.json").write_text(json.dumps(fp.to_json()), encoding="utf-8")
        for cmd in (["validate"], ["classify"], ["disc"], ["render", "--out", "pic"]):
            proc = subprocess.run([sys.executable] + flags + ["-m", "circlink", cmd[0], "pair.json"]
                                  + cmd[1:], capture_output=True, cwd=work, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            out[(name, cmd[0])] = proc.stdout
        for svg in ("pic-input.svg", "pic-straightened.svg"):
            out[(name, svg)] = (work / svg).read_bytes()
    return out


def test_optimised_interpreter_gives_identical_bytes(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "opt").mkdir()
    plain = _cli_run(tmp_path / "plain", [])
    assert plain == _cli_run(tmp_path / "opt", ["-O"])


def _readme_block(marker: str) -> str:
    # the first fenced block of README.md that holds marker
    readme = os.path.join(os.path.dirname(TESTS), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```")[1::2]
    return next(b for b in blocks if marker in b)


def test_readme_cli_block_runs_as_written(tmp_path):
    # every line of README's CLI example, in order, in a fresh directory
    block = _readme_block("python -m circlink gen")
    lines = block.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        words, target = shlex.split(line), None
        if words[-2:-1] == [">"]:
            words, target = words[:-2], words[-1]
        assert words[:3] == ["python", "-m", "circlink"] and ">" not in words, line
        proc = subprocess.run([sys.executable] + words[1:], capture_output=True, cwd=tmp_path,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0, (line, proc.stdout, proc.stderr)
        if target:
            (tmp_path / target).write_bytes(proc.stdout)


def test_readme_library_block_runs_as_written(tmp_path):
    # README's Library example in a fresh process: pos is the point that
    # its last line's comment shows
    block = _readme_block("from circlink import")
    assert block.startswith("python\n")
    code = block[len("python\n"):]
    last = code.strip().splitlines()[-1]
    assert last.startswith("pos = ")
    shown = last.split("# ", 1)[1]
    assert shown == "PlanePoint(-13/17, 10/17)"
    proc = subprocess.run([sys.executable, "-c", code + "print(repr(pos))\n"], capture_output=True,
                          text=True, cwd=tmp_path, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == shown + "\n"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
