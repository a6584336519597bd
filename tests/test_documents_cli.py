"""Tests for the JSON document formats and the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import bell_state, octahedral_ensemble

import tempcert as tc
from tempcert import documents
from tempcert.cli import main

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

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        with pytest.raises(ValueError, match="JSON"):
            documents.load_document(path)


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

    def test_verdict_mismatch_exits_3_with_one_line(self, tmp_path, capsys):
        # Separable, so compatible; the first marginal's smallest eigenvalue 1e-11
        # amplifies rounding in the channel's hermiticity and trace gates until its
        # CP verdict disagrees with the positive test matrix.
        rng = np.random.default_rng(0)
        eps = 1e-11
        u = tc.random_unitary(3, seed=rng)
        states_a = []
        for _ in range(3):
            q = rng.dirichlet(np.ones(2)) * (1 - eps)
            states_a.append(u @ np.diag([q[0], q[1], eps]) @ u.conj().T)
        states_b = tuple(tc.random_density(3, seed=rng) for _ in range(3))
        weights = rng.dirichlet(np.ones(3))
        ens = tc.ProductEnsemble(weights=weights, states_a=tuple(states_a), states_b=states_b)
        path = write(tmp_path, "ill.json", documents.state_document(tc.assemble_state(ens), (3, 3)))
        assert main(["certify", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: side a:")
        assert err.count("\n") == 1

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


class TestMissingFile:
    def test_nonexistent_input(self, capsys):
        assert main(["certify", "/nonexistent/state.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")
