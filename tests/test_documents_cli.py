"""Tests for the JSON document formats and the command-line interface."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from conftest import bell_state, count_factorizations, octahedral_ensemble, random_faithful_separable

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
        with pytest.raises(ValueError, match="re, im"):
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
            (_state_matrix()[:3], "matrix must be a 4x4 nested array"),
            ({"rows": []}, "matrix must be a 4x4 nested array"),
            (_truncate_row(_state_matrix(), 2, 3), "matrix row 2 must have 4 entries"),
            (_set(_state_matrix(), 1, 0, 0.25), "matrix[1][0] must be a [re, im] pair"),
            (_set(_state_matrix(), 1, 3, [0.0]), "matrix[1][3] must be a [re, im] pair"),
            (_set(_state_matrix(), 1, 2, ["0", 0]), "matrix[1][2] must be a [re, im] pair"),
            (_set(_state_matrix(), 0, 0, [True, False]), "matrix[0][0] must be a [re, im] pair"),
            (_set(_state_matrix(), 3, 1, [float("nan"), 0.0]), "matrix contains non-finite entries, first at matrix[3][1]"),
            (_set(_state_matrix(), 0, 2, [0.0, float("-inf")]), "matrix contains non-finite entries, first at matrix[0][2]"),
            (_set(_state_matrix(), 2, 3, [0, 10**400]), "matrix[2][3] is out of range for a float"),
            (_set(_state_matrix(), 2, 3, [-(10**400), 0]), "matrix[2][3] is out of range for a float"),
            # The first bad row or entry in row-major order is the one named.
            (_truncate_row(_set(_state_matrix(), 0, 3, [True, 0]), 1, 2), "matrix[0][3] must be a [re, im] pair"),
            (_set(_set(_state_matrix(), 1, 1, [10**400, 0]), 1, 2, [False, 0]), "matrix[1][1] is out of range for a float"),
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
        with pytest.raises(ValueError, match=re.escape("choi[2][1] must be a [re, im] pair")):
            documents.parse_channel_document(doc)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1.0, 0.0, 0.0], "incomplete table: row 2 must hold 4 numbers"),
            ([1.0, 0.0, 0.0, True], "incomplete table: row 2 must hold 4 numbers"),
            ([1.0, 0.0, None, 0.0], "incomplete table: row 2 must hold 4 numbers"),
            ([1.0, 0.0, 0.0, 10**400], "table row 2 holds a number out of range for a float"),
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
            (True, "weights must be an array of numbers that fit a float"),
            (10**400, "weights must be an array of numbers that fit a float"),
            ("0.5", "weights must be an array of numbers that fit a float"),
            ([0.5], "weights must be an array of numbers that fit a float"),
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
        assert capsys.readouterr().err == "error: matrix[0][1] is out of range for a float\n"

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
    @pytest.mark.parametrize("command", [["certify"], ["channel"], ["pdm"], ["expect", "--m", "1"], ["bloch"]])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_invalid_tol_exits_1_with_one_line(self, tmp_path, capsys, command, value):
        path = write(tmp_path, "bell.json", documents.state_document(bell_state(), (2, 2)))
        assert main([command[0], path, *command[1:], f"--tol={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and >= 0")
        assert captured.err.count("\n") == 1


class TestMissingFile:
    def test_nonexistent_input(self, capsys):
        assert main(["certify", "/nonexistent/state.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")
