"""Tests for the JSON document formats and the command-line interface."""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import DERANDOMIZED, bell_state, count_factorizations, octahedral_ensemble, random_faithful_separable
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tempcert as tc
from tempcert import cli, documents
from tempcert.cli import _bloch_points, main

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    documents.dump_document(doc, path)
    return str(path)


class TestDocuments:
    def test_state_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        tau = tc.assemble_state(tc.random_separable(2, 3, 3, seed=rng))
        doc = documents.state_document(tau, (2, 3))
        path = write(tmp_path, "state.json", doc)
        loaded = documents.load_document(path, "state")
        assert loaded == doc
        back, dims = documents.parse_state_document(loaded)
        assert dims == (2, 3)
        assert np.array_equal(back, tau)
        assert documents.state_document(back, dims) == doc

    def test_channel_round_trip(self, tmp_path):
        e = tc.random_cptp(2, 3, 2, seed=1)
        doc = documents.channel_document(e, tc.is_cptp(e))
        path = write(tmp_path, "channel.json", doc)
        back = documents.parse_channel_document(documents.load_document(path))
        assert (back.dim_in, back.dim_out) == (2, 3)
        assert np.array_equal(back.choi, e.choi)

    def test_process_round_trip(self, tmp_path):
        proc = tc.Process(channel=tc.random_cptp(2, 2, 2, seed=2), input_state=tc.random_density(2, seed=3))
        doc = documents.process_document(proc)
        path = write(tmp_path, "process.json", doc)
        back = documents.parse_process_document(documents.load_document(path))
        assert np.array_equal(back.channel.choi, proc.channel.choi)
        assert np.array_equal(back.input_state, proc.input_state)

    def test_ensemble_round_trip(self, tmp_path):
        ens = octahedral_ensemble()
        doc = documents.ensemble_document(ens)
        path = write(tmp_path, "ens.json", doc)
        back = documents.parse_ensemble_document(documents.load_document(path))
        assert np.array_equal(back.weights, ens.weights)
        assert documents.ensemble_document(back) == doc

    def test_correlations_round_trip(self, tmp_path):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        corr = tc.correlations_from_process(p, 1)
        doc = documents.correlations_document(corr)
        path = write(tmp_path, "corr.json", doc)
        back = documents.parse_correlations_document(documents.load_document(path))
        assert np.array_equal(back.table, corr.table)
        assert documents.correlations_document(back) == doc

    def test_report_round_trip(self, tmp_path):
        result = tc.certify(bell_state(), (2, 2))
        doc = documents.report_document(result)
        path = write(tmp_path, "report.json", doc)
        assert documents.load_document(path, "report") == doc

    def test_unknown_fields_rejected(self):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            documents.parse_state_document(doc)

    def test_missing_fields_rejected(self):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        del doc["dim_b"]
        with pytest.raises(ValueError, match="missing fields"):
            documents.parse_state_document(doc)

    def test_bad_schema_version(self):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        doc["schema_version"] = "999"
        with pytest.raises(ValueError, match="schema_version"):
            documents.parse_state_document(doc)

    def test_wrong_kind(self):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        with pytest.raises(ValueError, match="expected a channel"):
            documents.parse_channel_document(doc)

    def test_malformed_matrix_entries(self):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        doc["matrix"][0][0] = [1.0]
        with pytest.raises(ValueError, match=re.escape("matrix[0][0] must have 2 entries")):
            documents.parse_state_document(doc)

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000, '{"schema_version": "1", "kind": "state", "dim_a": 1, "dim_b": 1, "matrix": ' + "[" * 5000],
        ids=["arrays", "matrix-field"],
    )
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "nested.json"
        path.write_text(text)
        assert main(["certify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON (")
        assert err.count("\n") == 1

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="JSON"):
            documents.load_document(path)


def _state_matrix():
    return documents.state_document(np.eye(4) / 4, (2, 2))["matrix"]


def _set(m, i, j, entry):
    m[i][j] = entry
    return m


def _truncate_row(m, i, n):
    m[i] = m[i][:n]
    return m


class TestDecoderRejections:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (_state_matrix()[:3], "matrix must have 4 entries"),
            ({"rows": []}, "matrix must be an array"),
            (_truncate_row(_state_matrix(), 2, 3), "matrix[2] must have 4 entries"),
            (_set(_state_matrix(), 1, 0, 0.25), "matrix[1][0] must be an array"),
            (_set(_state_matrix(), 1, 3, [0.0]), "matrix[1][3] must have 2 entries"),
            (_set(_state_matrix(), 1, 2, ["0", 0]), "matrix[1][2][0] must be a number"),
            (_set(_state_matrix(), 0, 0, [True, False]), "matrix[0][0][0] must be a number"),
            (_set(_state_matrix(), 3, 1, [float("nan"), 0.0]), "matrix contains non-finite entries, first at matrix[3][1][0]"),
            (_set(_state_matrix(), 0, 2, [0.0, float("-inf")]), "matrix contains non-finite entries, first at matrix[0][2][1]"),
            (_set(_state_matrix(), 2, 3, [0, 10**400]), "matrix[2][3][1] is out of range for a float"),
            (_set(_state_matrix(), 2, 3, [-(10**400), 0]), "matrix[2][3][0] is out of range for a float"),
            # The first bad row or entry in row-major order is the one named.
            (_truncate_row(_set(_state_matrix(), 0, 3, [True, 0]), 1, 2), "matrix[0][3][0] must be a number"),
            (_set(_set(_state_matrix(), 1, 1, [10**400, 0]), 1, 2, [False, 0]), "matrix[1][1][0] is out of range for a float"),
        ],
        ids=[
            "row-count", "not-a-list", "row-length", "entry-not-a-list", "pair-length", "string", "boolean",
            "nan", "inf", "overflow", "negative-overflow", "first-bad-entry", "first-bad-overflow",
        ],
    )
    def test_matrix(self, matrix, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            documents.decode_matrix(matrix, 4)

    def test_matrix_name_in_message(self):
        doc = documents.channel_document(tc.identity_channel(2))
        doc["choi"][2][1] = [True, 0.0]
        with pytest.raises(ValueError, match=re.escape("choi[2][1][0] must be a number")):
            documents.parse_channel_document(doc)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1.0, 0.0, 0.0], "table[2] must have 4 entries"),
            ([1.0, 0.0, 0.0, True], "table[2][3] must be a number"),
            ([1.0, 0.0, None, 0.0], "table[2][2] must be a number"),
            ([1.0, 0.0, 0.0, 10**400], "table[2][3] is out of range for a float"),
            ([1.0, 0.0, float("nan"), 0.0], "table contains non-finite entries, first at table[2][2]"),
        ],
        ids=["row-length", "boolean", "null", "overflow", "nan"],
    )
    def test_table(self, row, message):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        doc = documents.correlations_document(tc.correlations_from_process(p, 1))
        doc["table"][2] = row
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            documents.parse_correlations_document(doc)

    @pytest.mark.parametrize(
        "weight, message",
        [
            (True, "weights[1] must be a number"),
            (10**400, "weights[1] is out of range for a float"),
            ("0.5", "weights[1] must be a number"),
            ([0.5], "weights[1] must be a number"),
            (float("inf"), "weights contains non-finite entries, first at weights[1]"),
        ],
        ids=["boolean", "overflow", "string", "list", "inf"],
    )
    def test_weights(self, weight, message):
        doc = documents.ensemble_document(octahedral_ensemble())
        doc["weights"][1] = weight
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            documents.parse_ensemble_document(doc)

    def test_pdm_of_non_finite_table_exits_1(self, tmp_path, capsys):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        doc = documents.correlations_document(tc.correlations_from_process(p, 1))
        doc["table"][1][2] = float("nan")
        out = tmp_path / "pdm.json"
        assert main(["pdm", write(tmp_path, "corr.json", doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: table contains non-finite entries, first at table[1][2]\n"
        assert not out.exists()

    def test_integer_entries_accepted(self):
        doc = documents.state_document(np.diag([1.0, 0, 0, 0]), (2, 2))
        doc["matrix"] = [[[int(x) for x in entry] for entry in row] for row in doc["matrix"]]
        tau, _ = documents.parse_state_document(doc)
        assert np.array_equal(tau, np.diag([1.0, 0, 0, 0]))


def _field_documents() -> dict[str, tuple[str, object]]:
    """One valid document per numeric field, as JSON text, and the parser that reads it."""
    process = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
    state = documents.dump_document(documents.state_document(tc.random_density(4, seed=3), (2, 2)))
    channel = documents.dump_document(documents.channel_document(tc.identity_channel(2)))
    ensemble = documents.dump_document(documents.ensemble_document(octahedral_ensemble()))
    table = documents.dump_document(documents.correlations_document(tc.correlations_from_process(process, 1)))
    process_text = documents.dump_document(documents.process_document(process))
    return {
        "matrix": (state, documents.parse_state_document),
        "choi": (channel, documents.parse_channel_document),
        "input_state": (process_text, documents.parse_process_document),
        "weights": (ensemble, documents.parse_ensemble_document),
        "states_a": (ensemble, documents.parse_ensemble_document),
        "states_b": (ensemble, documents.parse_ensemble_document),
        "table": (table, documents.parse_correlations_document),
    }


FIELD_DOCUMENTS = _field_documents()
NOT_A_NUMBER = "{where} must be a number"
# Each corruption replaces one entry and names it; "short" drops the last entry of the list holding it.
CORRUPTIONS = {
    "bool": (lambda x: True, NOT_A_NUMBER),
    "string": (lambda x: "0.5", NOT_A_NUMBER),
    "null": (lambda x: None, NOT_A_NUMBER),
    "nesting": (lambda x: [x], NOT_A_NUMBER),
    "huge": (lambda x: -(10**400), "{where} is out of range for a float"),
    "nan": (lambda x: float("nan"), "{field} contains non-finite entries, first at {where}"),
    "inf": (lambda x: float("inf"), "{field} contains non-finite entries, first at {where}"),
    "short": (None, "{where} must have {n} entries"),
}


# One to three entries, each by its row-major position (taken modulo the field's size), and a corruption.
PICKS = st.lists(st.tuples(st.integers(0, 2**16), st.sampled_from(list(CORRUPTIONS))), min_size=1, max_size=3)
NOT_A_LIST = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=3), st.just({}))


def _at(field: list, path: tuple[int, ...]) -> list:
    for k in path:
        field = field[k]
    return field


class TestFirstBadEntry:
    @pytest.mark.parametrize("field", list(FIELD_DOCUMENTS))
    @settings(**DERANDOMIZED, max_examples=40)
    @given(picks=PICKS)
    @example(picks=[(0, "bool"), (1, "short")])  # a shortened list is named before its first entry
    def test_the_first_corrupted_entry_is_named(self, field, picks):
        text, parse = FIELD_DOCUMENTS[field]
        doc = json.loads(text)
        shape = np.shape(doc[field])
        entries = list(np.ndindex(shape))
        # The length of weights is the ensemble size, not a shape to break, so weights are not shortened.
        chosen = {entries[i % len(entries)]: kind for i, kind in picks if field != "weights" or kind != "short"}
        assume(chosen)
        named = {}
        for path, kind in sorted(chosen.items(), key=lambda item: item[1] == "short"):  # shorten last
            corrupt, message = CORRUPTIONS[kind]
            holder = _at(doc[field], path[:-1])
            if corrupt is None:
                where = path[:-1]
                holder.pop()
            else:
                where = path
                holder[path[-1]] = corrupt(holder[path[-1]])
            named[where] = message.format(where=field + "".join(f"[{k}]" for k in where), field=field, n=shape[-1])
        # Row-major order visits a list before its entries: a path sorts before its extensions.
        with pytest.raises(ValueError, match=f"^{re.escape(named[min(named)])}$"):
            parse(doc)

    @settings(**DERANDOMIZED, max_examples=30)
    @given(weights=NOT_A_LIST)
    @example(weights=[])
    @example(weights={"0": 1.0})
    def test_weights_that_are_not_a_list(self, weights):
        doc = json.loads(FIELD_DOCUMENTS["weights"][0])
        doc["weights"] = weights
        if weights == []:  # the empty ensemble decodes, and the ensemble names what is missing
            doc["states_a"] = doc["states_b"] = []
            message = "weights and the two state lists must be nonempty and of equal length"
        else:
            message = "weights must be an array"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            documents.parse_ensemble_document(doc)

    @pytest.mark.parametrize("key", ["states_a", "states_b"])
    def test_one_state_per_weight(self, key):
        doc = documents.ensemble_document(octahedral_ensemble())
        doc[key] = doc[key][:5]
        with pytest.raises(ValueError, match=f"^{key} must have 6 entries$"):
            documents.parse_ensemble_document(doc)

    def test_only_the_decoder_reads_numbers_in_bulk(self):
        # Every numeric field is read by documents._decoded, so one walker names every rejection.
        sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
        calls = {name: len(re.findall(r"(?<!def )\b_nested_floats\(", text)) for name, text in sources.items()}
        assert {name: k for name, k in calls.items() if k} == {"documents.py": 1}
        body = sources["documents.py"].split("def _decoded(")[1].split("\ndef ")[0]
        assert "_nested_floats(" in body


class TestDocumentText:
    def test_encode_matrix_matches_per_entry_reference(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m[0, 0] = complex(-0.0, 0.0)
        m[1, 2] = complex(5e-324, -1e308)
        m[4, 4] = complex(0.1, -0.0)
        reference = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        encoded = documents.encode_matrix(m)
        assert json.dumps(encoded) == json.dumps(reference)
        assert {type(x) for row in encoded for entry in row for x in entry} == {float}
        assert documents.encode_matrix(m.real.tolist()) == [[[x, 0.0] for x in row] for row in m.real.tolist()]

    def test_channel_16x16_round_trip_bit_identical(self, tmp_path):
        e = tc.random_cptp(16, 16, 2, seed=12)
        doc = documents.channel_document(e, tc.is_cptp(e))
        path = write(tmp_path, "channel.json", doc)
        back = documents.parse_channel_document(documents.load_document(path, "channel"))
        assert back.choi.tobytes() == e.choi.tobytes()

    def test_one_top_level_field_per_line(self):
        result = tc.certify(bell_state(), (2, 2))
        for doc in (
            documents.state_document(bell_state(), (2, 2)),
            documents.report_document(result),
            documents.channel_document(result.side_a.channel, result.side_a.cptp),
        ):
            text = documents.dump_document(doc)
            lines = text.split("\n")
            assert lines[0] == "{" and lines[-1] == "}"
            assert len(lines) == len(doc) + 2
            for line, key in zip(lines[1:-1], doc):
                assert line.startswith(f'  "{key}": ')
            assert json.loads(text) == doc == json.loads(json.dumps(doc, indent=2))

    def test_indented_document_still_loads(self, tmp_path):
        ens = octahedral_ensemble()
        doc = documents.ensemble_document(ens)
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        back = documents.parse_ensemble_document(documents.load_document(path, "ensemble"))
        assert documents.ensemble_document(back) == doc


# SHA-256 of the dumped text of one small fixed document of each kind, so any change to a writer shows.
DUMPED_TEXT_SHA256 = {
    "state": "1441a28df918470e3832e7b8b703ca5d76565db701df1d7e202779297a7ede68",
    "channel": "88b6545bdf8041c61bec658a42a9465c1447c4b7eee6f63669f3aa133bc25320",
    "channel-diagnostics": "78393018d47e5898921d5c522fa11429213b302815bdabf65f668152553dc333",
    "process": "26d21aff504d1602e31340f0153c6e147fbefd89821ac00cf4ab4155d8bd48de",
    "ensemble": "7f4aaf8f3021fbbbad9b4557e3511229526b4308c5e2c116e9928a3193cde492",
    "correlations": "128dd972a00ef8989b325e0e1674d78a4b0849af32be618aa66649deacfd9951",
    "report": "30e1a39d51794fe74aa77896aab1f800e20f72f106db313f33b4f9ef6784fd43",
}


def _pinned_document(name: str) -> dict:
    identity = tc.identity_channel(2)
    if name == "state":
        tau = np.array([[0.5, 0, 0, 0.25j], [0, 0, 0, 0], [0, 0, 0, 0], [-0.25j, 0, 0, 0.5]])
        return documents.state_document(tau, (2, 2))
    if name == "channel":
        return documents.channel_document(identity)
    if name == "channel-diagnostics":
        return documents.channel_document(identity, tc.is_cptp(identity))
    if name == "process":
        return documents.process_document(tc.Process(channel=identity, input_state=np.diag([0.75, 0.25])))
    if name == "ensemble":
        pure = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        ens = tc.ProductEnsemble(weights=[0.25, 0.75], states_a=pure, states_b=(np.eye(2) / 2, pure[0]))
        return documents.ensemble_document(ens)
    if name == "correlations":
        process = tc.Process(channel=identity, input_state=np.eye(2) / 2)
        return documents.correlations_document(tc.correlations_from_process(process, 1))
    return documents.report_document(tc.certify(np.eye(4) / 4, (2, 2)))


class TestSchemaTable:
    @pytest.mark.parametrize("name", list(DUMPED_TEXT_SHA256))
    def test_dumped_text_is_pinned(self, name):
        text = documents.dump_document(_pinned_document(name))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DUMPED_TEXT_SHA256[name]

    def test_every_kind_is_pinned(self):
        assert {name.split("-")[0] for name in DUMPED_TEXT_SHA256} == set(documents._KINDS)

    def test_one_table_one_header_writer_one_dims_check(self):
        sources = {path.name: path.read_text(encoding="utf-8") for path in Path(tc.__file__).parent.glob("*.py")}
        text = sources["documents.py"]
        writes = {name: k for name, t in sources.items() if (k := t.count('"schema_version": SCHEMA_VERSION'))}
        assert writes == {"documents.py": 1}
        assert '"schema_version": SCHEMA_VERSION' in text.split("def _document(")[1].split("\ndef ")[0]
        checks = {name: k for name, t in sources.items() if (k := t.count("must be a positive integer"))}
        assert checks == {"documents.py": 1}
        assert "must be a positive integer" in text.split("def _dims(")[1].split("\ndef ")[0]
        # Outside _KINDS no literal names a dimension field, and no collection literal holds two field names.
        tree = ast.parse(text)
        table = next(n for n in tree.body if isinstance(n, ast.AnnAssign) and n.target.id == "_KINDS")
        inside = set(range(table.lineno, table.end_lineno + 1))
        dim_fields = {key for dims, _, _ in documents._KINDS.values() for key in dims}
        fields = {key for row in documents._KINDS.values() for keys in row for key in keys}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in dim_fields:
                assert node.lineno in inside, f"dimension field {node.value!r} named on line {node.lineno}"
            if isinstance(node, (ast.Set, ast.Tuple, ast.List, ast.Dict)) and node.lineno not in inside:
                items = node.keys if isinstance(node, ast.Dict) else node.elts
                named = [i.value for i in items if isinstance(i, ast.Constant) and i.value in fields]
                assert len(named) < 2, f"field table {named} on line {node.lineno}"

    @pytest.mark.parametrize("kind", [[], {}, ["state"]], ids=["list", "object", "list-of-kind"])
    def test_unhashable_kind_is_named(self, tmp_path, capsys, kind):
        doc = {"schema_version": "1", "kind": kind}
        with pytest.raises(ValueError, match=f"^unknown document kind {re.escape(repr(kind))}$"):
            documents.parse_state_document(doc)
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(doc))
        assert main(["certify", str(path)]) == 1
        assert capsys.readouterr().err == f"error: unknown document kind {kind!r}\n"

    @pytest.mark.parametrize(
        "kind, dims, message",
        [
            ("state", {"dim_a": 2.0, "dim_b": 0}, "dim_a must be a positive integer"),
            ("state", {"dim_a": 2, "dim_b": True}, "dim_b must be a positive integer"),
            ("channel", {"dim_in": -1, "dim_out": "2"}, "dim_in must be a positive integer"),
            ("process", {"dim_in": 2, "dim_out": None}, "dim_out must be a positive integer"),
            ("ensemble", {"dim_a": 0, "dim_b": 0}, "dim_a must be a positive integer"),
            ("correlations", {"qubits": False}, "qubits must be a positive integer"),
        ],
    )
    def test_dims_are_gated_in_table_order_before_numeric_fields(self, kind, dims, message):
        doc = _pinned_document(kind)
        doc.update({key: "not numeric" for key in doc if key not in ("schema_version", "kind")}, **dims)
        parse = getattr(documents, f"parse_{kind}_document")
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse(doc)

    def test_numpy_integer_dims_are_written_as_ints(self, tmp_path):
        # Before, dump_document raised "Object of type int64 is not JSON serializable" on both.
        tau = np.eye(4) / 4
        state = documents.state_document(tau, (np.int64(2), np.int32(2)))
        assert [type(state[key]) for key in ("dim_a", "dim_b")] == [int, int]
        documents.dump_document(state, tmp_path / "state.json")
        got, dims = documents.parse_state_document(documents.load_document(tmp_path / "state.json", "state"))
        assert dims == (2, 2) and np.array_equal(got, tau)
        channel = tc.SuperOp(np.int64(2), np.int64(3), np.eye(6))
        documents.dump_document(documents.channel_document(channel), tmp_path / "channel.json")
        got = documents.parse_channel_document(documents.load_document(tmp_path / "channel.json", "channel"))
        assert (got.dim_in, got.dim_out) == (2, 3) and np.array_equal(got.choi, channel.choi)

    def test_bool_dims_are_still_rejected(self):
        doc = json.loads(documents.dump_document(documents.state_document(np.eye(4) / 4, (True, 4))))
        assert doc["dim_a"] is True
        with pytest.raises(ValueError, match="^dim_a must be a positive integer$"):
            documents.parse_state_document(doc)
        with pytest.raises(ValueError, match="^dim_in and dim_out must be positive ints"):
            tc.SuperOp(True, 4, np.eye(4))


class TestCertifyCommand:
    def test_bell_state_exits_2_with_report(self, tmp_path, capsys):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        code = main(["certify", path, "--json"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "report"
        assert abs(report["sides"]["a"]["test_min_eigenvalue"] + 1) < 1e-8
        assert not report["sides"]["a"]["compatible"]
        assert not report["ppt"]

    def test_octahedral_ensemble_exits_0(self, tmp_path, capsys):
        path = write(tmp_path, "ens.json", documents.ensemble_document(octahedral_ensemble()))
        code = main(["certify", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "compatible in both directions" in out
        assert "PPT: yes" in out

    def test_invalid_trace_exits_1_naming_invariant(self, tmp_path, capsys):
        doc = documents.state_document(np.eye(4) / 4 * 0.9, (2, 2))
        path = write(tmp_path, "bad.json", doc)
        code = main(["certify", path])
        assert code == 1
        assert "trace" in capsys.readouterr().err

    def test_verdict_mismatch_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch):
        def mismatch(tau, dims, tol):
            raise tc.VerdictMismatchError(
                "side a: test-matrix verdict True (min eig 8.481e-02) disagrees "
                "with channel CP verdict False (choi min eig 8.481e-02)"
            )

        monkeypatch.setattr(cli, "certify", mismatch)
        path = write(tmp_path, "sep.json", documents.state_document(np.eye(4) / 4, (2, 2)))
        assert main(["certify", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: side a:")
        assert err.count("\n") == 1

    def test_out_of_range_entry_exits_1_with_one_line(self, tmp_path, capsys):
        doc = documents.state_document(np.eye(4) / 4, (2, 2))
        doc["matrix"][0][1] = [10**400, 0]
        path = write(tmp_path, "huge.json", doc)
        assert main(["certify", path]) == 1
        assert capsys.readouterr().err == "error: matrix[0][1][0] is out of range for a float\n"

    def test_overflowing_scale_exits_1_with_one_line(self, tmp_path, capsys):
        # Hermitian, trace one, density marginals, but ||tau||_F overflows: before, certify's PPT scale was
        # inf, and this non-PPT state printed "compatible in both directions" and exited 0.
        tau = tc.random_density(4, seed=3)
        tau[1, 2] = tau[2, 1] = 1e155
        path = write(tmp_path, "wide.json", documents.state_document(tau, (2, 2)))
        assert main(["certify", path]) == 1
        assert capsys.readouterr().err == "error: tau out of range: its Frobenius norm overflows a float\n"

    def test_exit_code_is_reproducible(self, tmp_path):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        assert main(["certify", path, "--json", "--out", str(tmp_path / "r1.json")]) == main(
            ["certify", path, "--json", "--out", str(tmp_path / "r2.json")]
        )
        assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()


class TestChannelCommand:
    def test_product_state_gives_replace_channel(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rho_a = tc.random_density(2, seed=rng)
        rho_b = tc.random_density(2, seed=rng)
        path = write(tmp_path, "prod.json", documents.state_document(tc.tensor(rho_a, rho_b), (2, 2)))
        assert main(["channel", path, "--side", "A"]) == 0
        doc = json.loads(capsys.readouterr().out)
        chan = documents.parse_channel_document(doc)
        assert tc.max_abs(chan.choi - tc.replace_channel(rho_b).choi) < 1e-9
        assert doc["diagnostics"]["cp"] and doc["diagnostics"]["tp"]

    def test_zero_tol_reports_tp(self, tmp_path, capsys):
        tau = tc.assemble_state(random_faithful_separable((2, 2), np.random.default_rng(3)))
        path = write(tmp_path, "sep.json", documents.state_document(tau, (2, 2)))
        assert main(["channel", path, "--tol", "0"]) == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["tp"] is True and diagnostics["trace_residual"] > 0

    def test_swap_half_gives_identity_channel(self, tmp_path, capsys):
        path = write(tmp_path, "swap.json", documents.state_document(SWAP / 2, (2, 2)))
        assert main(["channel", path]) == 0
        chan = documents.parse_channel_document(json.loads(capsys.readouterr().out))
        assert tc.max_abs(chan.choi - tc.identity_channel(2).choi) < 1e-10

    def test_side_b(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        tau = tc.assemble_state(tc.random_separable(2, 3, 3, seed=rng))
        path = write(tmp_path, "sep.json", documents.state_document(tau, (2, 3)))
        assert main(["channel", path, "--side", "B"]) == 0
        chan = documents.parse_channel_document(json.loads(capsys.readouterr().out))
        assert (chan.dim_in, chan.dim_out) == (3, 2)

    def test_invalid_marginal_exits_1(self, tmp_path, capsys):
        tau = np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex)
        path = write(tmp_path, "bad.json", documents.state_document(tau, (2, 2)))
        assert main(["channel", path]) == 1
        assert "marginal" in capsys.readouterr().err


class TestPdmCommand:
    def test_product_zero_table(self, tmp_path, capsys):
        table = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                table[i, j] = 1.0
        corr = tc.CorrelationTable(qubits=1, table=table)
        path = write(tmp_path, "corr.json", documents.correlations_document(corr))
        assert main(["pdm", path]) == 0
        state, dims = documents.parse_state_document(json.loads(capsys.readouterr().out))
        assert dims == (2, 2)
        np.testing.assert_allclose(state, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_identity_process_table(self, tmp_path, capsys):
        p = tc.Process(channel=tc.identity_channel(2), input_state=np.eye(2) / 2)
        corr = tc.correlations_from_process(p, 1)
        path = write(tmp_path, "corr.json", documents.correlations_document(corr))
        assert main(["pdm", path]) == 0
        state, _ = documents.parse_state_document(json.loads(capsys.readouterr().out))
        np.testing.assert_allclose(state, SWAP / 2, atol=1e-12)

    def test_huge_qubit_count_exits_1_with_a_short_error(self, tmp_path, capsys):
        # 4**20000 has 12,042 digits, past the limit of int-to-str conversion; no count that size is built.
        doc = {"schema_version": "1", "kind": "correlations", "qubits": 20000, "table": [[1.0]]}
        assert main(["pdm", write(tmp_path, "huge.json", doc)]) == 1
        err = capsys.readouterr().err
        assert err == "error: incomplete table: 20000 qubits need 4^20000 rows, got 1\n"
        assert len(err) < 200

    def test_incomplete_table_exits_1(self, tmp_path, capsys):
        doc = {
            "schema_version": "1",
            "kind": "correlations",
            "qubits": 1,
            "table": [[1.0, 0.0]],
        }
        path = write(tmp_path, "bad.json", doc)
        assert main(["pdm", path]) == 1
        assert "incomplete" in capsys.readouterr().err


class TestExpectCommand:
    def test_replace_channel_process(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        rho = tc.random_density(2, seed=rng)
        sigma = tc.random_density(2, seed=rng)
        proc = tc.Process(channel=tc.replace_channel(sigma), input_state=rho)
        path = write(tmp_path, "proc.json", documents.process_document(proc))
        assert main(["expect", path, "--m", "1"]) == 0
        corr = documents.parse_correlations_document(json.loads(capsys.readouterr().out))
        for a in range(4):
            for b in range(4):
                expected = np.trace(rho @ tc.PAULIS[a]).real * np.trace(sigma @ tc.PAULIS[b]).real
                assert abs(corr.table[a, b] - expected) < 1e-10

    def test_round_trip_through_pdm(self, tmp_path, capsys):
        proc = tc.Process(channel=tc.random_cptp(2, 2, 2, seed=7), input_state=tc.random_density(2, seed=8))
        proc_path = write(tmp_path, "proc.json", documents.process_document(proc))
        corr_path = str(tmp_path / "corr.json")
        assert main(["expect", proc_path, "--m", "1", "--out", corr_path]) == 0
        assert main(["pdm", corr_path]) == 0
        state, _ = documents.parse_state_document(json.loads(capsys.readouterr().out))
        expected = tc.star_product(proc.channel, proc.input_state)
        assert tc.max_abs(state - expected) < 1e-10

    def test_qubits_are_read_off_the_process(self, tmp_path, capsys):
        proc = tc.Process(channel=tc.random_cptp(4, 4, 2, seed=9), input_state=tc.random_density(4, seed=10))
        path = write(tmp_path, "proc.json", documents.process_document(proc))
        assert main(["expect", path]) == 0
        corr = documents.parse_correlations_document(json.loads(capsys.readouterr().out))
        assert corr.qubits == 2
        assert corr.table.tobytes() == tc.correlations_from_process(proc, 2).table.tobytes()
        assert main(["expect", path, "--m", "2"]) == 0
        again = documents.parse_correlations_document(json.loads(capsys.readouterr().out))
        assert again.table.tobytes() == corr.table.tobytes()

    @pytest.mark.parametrize("m", ["1", "3"])
    def test_mismatched_m_exits_1(self, tmp_path, capsys, m):
        proc = tc.Process(channel=tc.identity_channel(4), input_state=np.eye(4) / 4)
        path = write(tmp_path, "proc.json", documents.process_document(proc))
        assert main(["expect", path, "--m", m]) == 1
        assert capsys.readouterr().err == f"error: process dims (4, 4) are not {m}-qubit algebras\n"

    def test_non_qubit_process_exits_1(self, tmp_path, capsys):
        # With no --m the message names no qubit count: none was given, and none fits.
        for dim in (1, 3):
            proc = tc.Process(channel=tc.identity_channel(dim), input_state=np.eye(dim) / dim)
            path = write(tmp_path, f"proc{dim}.json", documents.process_document(proc))
            assert main(["expect", path]) == 1
            assert capsys.readouterr().err == f"error: process dims ({dim}, {dim}) are not qubit algebras\n"


class TestBlochCommand:
    def test_maximally_mixed_marginal_dephased_equals_input(self, tmp_path):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        out_in = tmp_path / "in.csv"
        out_dep = tmp_path / "dep.csv"
        assert main(["bloch", path, "--stage", "input", "--samples", "64", "--seed", "5", "--out", str(out_in)]) == 0
        assert main(["bloch", path, "--stage", "dephased", "--samples", "64", "--seed", "5", "--out", str(out_dep)]) == 0
        assert out_in.read_text() == out_dep.read_text()

    @pytest.mark.parametrize("stage", ["input", "dephased", "output"])
    def test_points_match_per_sample_readout(self, stage):
        tau = tc.assemble_state(octahedral_ensemble())
        push = {
            "input": lambda rho: rho,
            "dephased": tc.dephasing_channel(tc.partial_trace(tau, (2, 2), "b")),
            "output": tc.temporal_channel(tau, (2, 2), "a"),
        }[stage]
        rng = np.random.default_rng(4)
        expected = []
        for _ in range(32):
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            out = push((np.eye(2) + sum(c * s for c, s in zip(v, tc.PAULIS[1:]))) / 2)
            expected.append([np.trace(out @ s).real for s in tc.PAULIS[1:]])
        points = _bloch_points(tau, (2, 2), stage, 32, 4)
        np.testing.assert_allclose(points, expected, rtol=0, atol=1e-15)

    def test_dephased_stage_solves_the_marginal_once(self, monkeypatch):
        tau = tc.assemble_state(octahedral_ensemble())
        sizes = count_factorizations(monkeypatch)
        _bloch_points(tau, (2, 2), "dephased", 8, 0)
        assert sizes == {"eigh": [2], "eigvalsh": [], "cholesky": []}

    def test_zero_samples_empty_file(self, tmp_path):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        out = tmp_path / "empty.csv"
        assert main(["bloch", path, "--samples", "0", "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_json_output(self, tmp_path, capsys):
        path = write(tmp_path, "ens.json", documents.ensemble_document(octahedral_ensemble()))
        assert main(["bloch", path, "--stage", "output", "--samples", "16", "--json"]) == 0
        points = json.loads(capsys.readouterr().out)
        assert len(points) == 16 and all(len(p) == 3 for p in points)

    def test_non_qubit_input_exits_1(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        tau = tc.assemble_state(tc.random_separable(2, 3, 2, seed=rng))
        path = write(tmp_path, "big.json", documents.state_document(tau, (2, 3)))
        assert main(["bloch", path]) == 1
        assert "qubit" in capsys.readouterr().err

    def test_csv_lines_parse(self, tmp_path):
        path = write(tmp_path, "ens.json", documents.ensemble_document(octahedral_ensemble()))
        out = tmp_path / "cloud.csv"
        assert main(["bloch", path, "--samples", "8", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 8 and all(len(r) == 3 for r in rows)
        floats = np.array([[float(x) for x in r] for r in rows])
        assert np.all(np.abs(floats) <= 1 + 1e-9)


class TestTolOption:
    @pytest.mark.parametrize("command", [["certify"], ["channel"]])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_invalid_tol_exits_1_with_one_line(self, tmp_path, capsys, command, value):
        path = str(tmp_path / "never-read.json")  # the tol is checked before the input is opened
        assert main([command[0], path, *command[1:], f"--tol={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and >= 0")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", [["pdm"], ["expect", "--m", "1"], ["bloch"]])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_commands_without_a_tolerance_reject_tol(self, tmp_path, capsys, command, value):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        with pytest.raises(SystemExit) as exit_info:
            main([command[0], path, *command[1:], f"--tol={value}"])
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --tol={value}" in err
        assert err.count("\n") == 1


class TestUsageErrors:
    # Exit 2 is certify's "incompatible" verdict, so a usage error exits 1, as bad input does.
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["nosuch"],
            ["certify"],
            ["certify", "s.json", "--tol", "abc"],
            ["certify", "s.json", "--json", "--text"],
            ["certify", "s.json", "--text"],
            ["channel", "s.json", "--side", "C"],
            ["channel", "s.json", "--bogus"],
            ["pdm"],
            ["pdm", "c.json", "extra.json"],
            ["expect", "p.json", "--m"],
            ["expect", "p.json", "--m", "z"],
            ["bloch", "s.json", "--stage", "foo"],
            ["bloch", "s.json", "--s", "3"],
        ],
    )
    def test_bad_argv_exits_1_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--samples", "--seed"])
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_bloch_counts_name_the_flag(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["bloch", "never-read.json", flag, value])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err == f"error: argument {flag}: expected an int >= 0, got {value!r}\n"

    @pytest.mark.parametrize("argv", [["--help"], ["certify", "--help"], ["bloch", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tempcert")


class TestMissingFile:
    def test_nonexistent_input(self, capsys):
        assert main(["certify", "/nonexistent/state.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_expect_without_m_reads_the_missing_file(self, tmp_path, monkeypatch, capsys):
        # --m is optional, so this argv is no usage error: the exit 1 is returned, for the file that is not there.
        monkeypatch.chdir(tmp_path)
        assert main(["expect", "p.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "p.json" in captured.err
        assert captured.err.count("\n") == 1
