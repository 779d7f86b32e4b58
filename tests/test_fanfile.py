import json

import pytest
from conftest import FIXTURE_NAMES, fixture_path
from hypothesis import given, settings
from hypothesis import strategies as st

from stackycones.cli import main
from stackycones.fan import StackyFan
from stackycones.fanfile import (
    FanFileError,
    fan_from_dict,
    fan_to_dict,
    fraction_json,
    load_fan,
)
from fractions import Fraction


def test_load_all_fixtures():
    for name in FIXTURE_NAMES:
        fan = load_fan(fixture_path(name))
        assert fan.name == name
        assert fan.n_rays >= 2


def test_round_trip(tmp_path):
    fan = load_fan(fixture_path("gerby-p1"))
    out = tmp_path / "copy.json"
    out.write_text(json.dumps(fan_to_dict(fan), indent=2) + "\n", encoding="utf-8")
    again = load_fan(out)
    assert again.group == fan.group
    assert again.rays == fan.rays
    assert again.max_cones == fan.max_cones


def test_residues_reduced_on_load():
    fan = fan_from_dict({
        "rank": 1, "torsion": [2],
        "rays": [{"beta_free": [1], "beta_torsion": [7]},
                 {"beta_free": [-1], "beta_torsion": [-1]}],
        "max_cones": [[0], [1]],
    })
    assert fan.rays[0].torsion == (1,)
    assert fan.rays[1].torsion == (1,)


def test_beta_torsion_defaults_to_zero():
    fan = fan_from_dict({
        "rank": 1, "torsion": [3],
        "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
        "max_cones": [[0], [1]],
    })
    assert fan.rays[0].torsion == (0,)


P1_DOC = {"rank": 1, "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
          "max_cones": [[0], [1]]}


def test_name_defaults_to_file_stem(tmp_path):
    path = tmp_path / "my-fan.json"
    for doc in (P1_DOC, {"name": "", **P1_DOC}):   # missing or empty
        path.write_text(json.dumps(doc))
        assert load_fan(path).name == "my-fan"


@pytest.mark.parametrize("name", [None, ["a"], 7, True, {"x": 1}])
def test_name_must_be_a_string(tmp_path, capsys, name):
    doc = {"name": name, **P1_DOC}
    with pytest.raises(FanFileError, match="name must be a string"):
        fan_from_dict(doc)
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: name must be a string\n"


@pytest.mark.parametrize("doc", [
    {"rank": 1, "rays": []},                              # missing max_cones
    {"rank": "x", "rays": [], "max_cones": []},          # rank not an int
    {"rank": 1, "torsion": [1], "rays": [], "max_cones": []},   # order < 2
    {"rank": 1, "rays": [{"beta_free": [1]}], "max_cones": [[0, 3]]},
    {"rank": 1, "rays": [{"beta_free": [1.5]}], "max_cones": [[0]]},
    {"rank": 1, "torsion": [2],
     "rays": [{"beta_free": [1], "beta_torsion": [0, 0]}], "max_cones": [[0]]},
    [],                                                   # not an object
    {"rank": 1, "rays": [{"beta_free": [1]}, {"beta_free": [-1]}],
     "max_cones": [[0], [1, "x"]]},                      # a ray index not an int
])
def test_malformed_documents(doc):
    with pytest.raises(FanFileError):
        fan_from_dict(doc)


# any document json.loads can return, kept small
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10)


def _or_junk(strategy):
    # mostly the given strategy, one time in five an arbitrary JSON value
    return st.integers(0, 4).flatmap(lambda k: _JSON if k == 0 else strategy)


@st.composite
def _fan_documents(draw):
    # the schema's keys with near-valid values, any of them, at any depth,
    # sometimes replaced by an arbitrary JSON value
    rank = draw(_or_junk(st.integers(-1, 3)))
    d = rank if type(rank) is int and 0 <= rank <= 3 else 1
    orders = draw(st.lists(st.integers(-1, 4), max_size=2))
    ints = st.lists(st.integers(-3, 3), max_size=3)
    ray = st.fixed_dictionaries(
        {"beta_free": _or_junk(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                               | ints)},
        optional={"beta_torsion": _or_junk(st.lists(
            st.integers(-5, 5), min_size=len(orders), max_size=len(orders)))})
    doc = {"rank": rank,
           "rays": draw(_or_junk(st.lists(_or_junk(ray), max_size=4))),
           "max_cones": draw(_or_junk(st.lists(_or_junk(
               st.lists(st.integers(-1, 4), max_size=3)), max_size=4)))}
    if draw(st.booleans()):
        doc["torsion"] = draw(_or_junk(st.just(orders)))
    if draw(st.booleans()):
        doc["name"] = draw(_or_junk(st.text(max_size=3)))
    return doc


@given(_fan_documents() | _JSON)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_any_json_document_loads_or_raises_fan_file_error(doc):
    try:
        fan = fan_from_dict(doc)
    except FanFileError:
        return
    assert isinstance(fan, StackyFan)


def test_unreadable_file():
    with pytest.raises(FanFileError):
        load_fan("does/not/exist.json")


def test_invalid_json(tmp_path, capsys):
    for content in (
        b"{not json",
        b'{"name": "\xff\xfe"}',                    # not UTF-8
        b"[" * 100000,                              # nesting past the recursion limit
        b'{"rank": ' + b"9" * 5000 + b"}",          # integer past the digit limit
    ):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(FanFileError):
            load_fan(path)
        assert main(["validate", str(path)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_fan_to_dict_shape():
    doc = fan_to_dict(load_fan(fixture_path("football")))
    assert doc["rank"] == 1
    assert doc["rays"][1] == {"beta_free": [-2], "beta_torsion": []}


def test_fraction_json_strings():
    assert fraction_json(Fraction(-3, 2)) == {"num": "-3", "den": "2"}
    assert fraction_json(5) == {"num": "5", "den": "1"}
