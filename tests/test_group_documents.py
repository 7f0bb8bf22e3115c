"""Finite groups have one resolver, and malformed group input never ends in a traceback.

``load_character_table`` resolves a builtin name (any case), then an
existing file, then ``<root>/<name>.json`` on ``DUALFIELD_GROUPS``.  A
name found nowhere, a directory included, raises ``ValueError`` (CLI exit
2); a file that is found but is not a JSON document raises
``SchemaError`` (exit 3), and so does a JSON value that is not a group
document.  The hypothesis tests write random bytes, truncated and mutated
documents and random JSON values to a file, and pass that file both to
``load_character_table`` and to the CLI as ``finite:<path>``.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualfield import DataIntegrityError, SchemaError, load_character_table
from dualfield.cli import main

S3_TEXT = (Path(__file__).resolve().parents[1] / "src/dualfield/data/s3.json").read_text()
S3 = json.loads(S3_TEXT)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
MUTATED = st.builds(
    lambda key, value: json.dumps({**S3, key: value}),
    st.sampled_from(sorted(S3)),
    JSON_VALUES,
)


def _with_entry(i, c, entry):
    characters = [list(row) for row in S3["characters"]]
    characters[i][c] = entry
    return json.dumps({**S3, "characters": characters})


# Documents that pass the schema and reach the table's invariants.
NUMBERS = st.one_of(
    st.builds(
        _with_entry, st.integers(0, 2), st.integers(0, 2), st.lists(st.floats(), min_size=2, max_size=2)
    ),
    st.builds(
        lambda sizes, order: json.dumps({**S3, "class_sizes": sizes, "order": order}),
        st.lists(st.integers(1, 2**70), min_size=3, max_size=3),
        st.integers(1, 2**70),
    ),
)
CONTENTS = st.one_of(
    st.binary(max_size=200),
    st.integers(0, len(S3_TEXT) - 1).map(lambda n: S3_TEXT[:n]),
    JSON_VALUES.map(lambda value: json.dumps(value)),
    MUTATED,
    NUMBERS,
)


def outcome(document):
    """What ``load_character_table`` does with a document: None on success, else the error."""
    try:
        load_character_table(document)
    except ValueError as exc:
        return exc
    return None


def cli_call(capsys, dual):
    code = main(["spectral", "--dual", dual, "haar"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_cli_agrees(capsys, dual, error):
    """The CLI exits 3 on a data error, 2 on any other ValueError, and prints nothing then."""
    code, out, err = cli_call(capsys, dual)
    if error is None:
        assert code in (0, 2)
        return
    expected = 3 if isinstance(error, DataIntegrityError) else 2
    assert (code, out) == (expected, "")
    assert err.startswith("data error:" if expected == 3 else "error:")


@pytest.fixture(scope="module")
def table_file(tmp_path_factory):
    return tmp_path_factory.mktemp("groups") / "g.json"


class TestResolverPolicy:
    def test_builtin_is_one_shared_dual_in_any_case(self):
        assert load_character_table("Q8") is load_character_table("q8")
        assert load_character_table(S3) is not load_character_table(S3)

    def test_file_is_read_on_every_call(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(S3_TEXT)
        assert load_character_table(path) is not load_character_table(str(path))

    def test_search_path_read_at_call_time(self, tmp_path, monkeypatch):
        (tmp_path / "flip.json").write_text(json.dumps(dict(S3, name="flip")))
        monkeypatch.delenv("DUALFIELD_GROUPS", raising=False)
        with pytest.raises(ValueError, match="unknown group 'flip'"):
            load_character_table("flip")
        monkeypatch.setenv("DUALFIELD_GROUPS", f"{tmp_path / 'none'}::{tmp_path}")
        assert load_character_table("flip").name == "flip"

    @pytest.mark.parametrize("name", ["", ".", "mystery", "x" * 300])
    def test_not_found_is_a_usage_error(self, capsys, name):
        error = outcome(name)
        assert type(error) is ValueError
        assert str(error).startswith(f"unknown group {name!r}: not a builtin (c2, c3, c5, s3, q8)")
        assert_cli_agrees(capsys, f"finite:{name}", error)

    def test_directory_is_not_found(self, capsys, tmp_path):
        for name in (str(tmp_path), f"{tmp_path}/"):
            error = outcome(name)
            assert type(error) is ValueError and "unknown group" in str(error)
            assert_cli_agrees(capsys, f"finite:{name}", error)

    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{", b"[" * 100000, b""])
    def test_file_that_is_not_json_is_a_schema_error(self, capsys, tmp_path, content):
        path = tmp_path / "g.json"
        path.write_bytes(content)
        error = outcome(path)
        assert isinstance(error, SchemaError)
        assert str(error).startswith(f"cannot read group document {path}: ")
        assert_cli_agrees(capsys, f"finite:{path}", error)


class TestMalformedDocuments:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(content=CONTENTS)
    def test_file_contents(self, capsys, table_file, content):
        if isinstance(content, str):
            table_file.write_text(content)
        else:
            table_file.write_bytes(content)
        error = outcome(table_file)
        assert outcome(str(table_file)).__class__ is error.__class__
        assert_cli_agrees(capsys, f"finite:{table_file}", error)

    @settings(max_examples=200, deadline=None)
    @given(document=JSON_VALUES | (MUTATED | NUMBERS).map(json.loads))
    def test_parsed_values(self, document):
        # Strings are names; every other value is a document or refused as one.
        if isinstance(document, str):
            document = [document]
        error = outcome(document)
        assert error is None or isinstance(error, DataIntegrityError)
