import json

import pytest
from click.testing import CliRunner

from stabparts.cli import (
    EXIT_ERROR,
    EXIT_EXTREME,
    EXIT_INAPPLICABLE,
    EXIT_MODERATE,
    main,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="group.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def _payload(result):
    return json.loads(result.stdout)["payload"]


class TestClassify:
    def test_moderate_exit_zero(self, runner, spec_file):
        path = spec_file({"product": [{"named": "D6"}, {"named": "D6"}]})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        assert result.exit_code == EXIT_MODERATE
        payload = _payload(result)
        assert payload["status"] == "MODERATE"
        assert payload["witness"] == [0, 4]
        assert payload["stab_p_part"] == 2

    def test_sym10_classify_over_table_bound(self, runner, spec_file):
        # the witness checks need the element table, which the byte bound refuses
        path = spec_file({"degree": 10, "generators": ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "MAX_TABLE_BYTES" in lines[0]

    def test_extreme_exit_ten(self, runner, spec_file):
        path = spec_file({"named": "D6"})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        assert result.exit_code == EXIT_EXTREME
        assert _payload(result)["status"] == "EXTREME"

    def test_bad_prime_exit_two(self, runner, spec_file):
        path = spec_file({"named": "D6"})
        result = runner.invoke(main, ["classify", path, "--p", "5"])
        assert result.exit_code == EXIT_ERROR
        assert "error:" in result.stderr

    def test_strategies_agree(self, runner, spec_file):
        path = spec_file({"named": "Sym(4)"})
        for strategy in ("exhaustive", "constructive"):
            result = runner.invoke(
                main, ["classify", path, "--p", "2", "--strategy", strategy]
            )
            assert result.exit_code == EXIT_MODERATE, result.stderr

    def test_seed_determinism(self, runner, spec_file):
        path = spec_file({"named": "AGL(2,3)"})
        outs = set()
        for _ in range(2):
            result = runner.invoke(
                main, ["classify", path, "--p", "2", "--seed", "3"]
            )
            payload = _payload(result)
            outs.add(json.dumps(payload, sort_keys=True))
        assert len(outs) == 1

    def test_report_shape(self, runner, spec_file):
        path = spec_file({"named": "C4"})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        doc = json.loads(result.stdout)
        assert doc["tool"] == "stabparts"
        assert doc["input"] == {"named": "C4"}
        assert doc["group"] == {
            "degree": 4,
            "order": 4,
            "transitive": True,
            "primitive": False,
        }
        assert doc["elapsed_seconds"] >= 0


class TestConcealed:
    def test_positive(self, runner, spec_file):
        path = spec_file({"named": "J"})
        result = runner.invoke(main, ["concealed", path, "--p", "3"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["concealed"] is True
        assert payload["counterexample"] is None

    def test_negative_with_counterexample(self, runner, spec_file):
        path = spec_file({"named": "AGL(1,5)"})
        result = runner.invoke(main, ["concealed", path, "--p", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["concealed"] is False
        assert payload["counterexample"] is not None


class TestCensus:
    def test_c4(self, runner, spec_file):
        path = spec_file({"named": "C4"})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == 0
        assert _payload(result)["histogram"] == {"1": 12, "2": 2, "4": 2}

    def test_generator_document(self, runner, spec_file):
        path = spec_file({"degree": 3, "generators": ["(0 1 2)", "(0 1)"]})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == 0
        hist = _payload(result)["histogram"]
        assert sum(hist.values()) == 8

    def test_sym10_beyond_enumeration(self, runner, spec_file):
        # 10! exceeds the element-table bound; |G| comes from the chain
        path = spec_file({"degree": 10, "generators": ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == 0, result.stderr
        # k-subsets form one orbit of size C(10, k); 2-part 2^8 / C(10, k)_2
        assert _payload(result)["histogram"] == {"32": 240, "64": 252, "128": 440, "256": 92}


class TestSylow:
    def test_j(self, runner, spec_file):
        path = spec_file({"named": "J"})
        result = runner.invoke(main, ["sylow", path, "--p", "3"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["count"] == 28
        assert payload["cover_bound"]["exact"] == str(28 * (1 << 4))

    def test_p_not_dividing(self, runner, spec_file):
        path = spec_file({"named": "D6"})
        result = runner.invoke(main, ["sylow", path, "--p", "5"])
        assert result.exit_code == EXIT_ERROR


class TestProp31:
    def test_c4_true_with_witness(self, runner, spec_file):
        path = spec_file({"named": "C4"})
        result = runner.invoke(main, ["prop31", path, "--p", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["verdict"] is True
        assert payload["witness"] in ([0, 2], [1, 3])
        assert payload["witness_p_part"] == 2

    def test_s4_false_no_witness_field(self, runner, spec_file):
        path = spec_file({"named": "Sym(4)"})
        result = runner.invoke(main, ["prop31", path, "--p", "2"])
        assert result.exit_code == 0
        payload = _payload(result)
        assert payload["verdict"] is False
        assert "witness" not in payload

    def test_inapplicable_exit_eleven(self, runner, spec_file):
        path = spec_file({"product": [{"named": "J"}, {"named": "J"}]})
        result = runner.invoke(main, ["prop31", path, "--p", "3"])
        assert result.exit_code == EXIT_INAPPLICABLE
        assert "elementary abelian" in result.stderr


class TestWitness:
    def test_d6xd6(self, runner, spec_file):
        path = spec_file({"named": "Product(D6,D6)"})
        result = runner.invoke(main, ["witness", path, "--p", "2"])
        assert result.exit_code == EXIT_MODERATE
        payload = _payload(result)
        assert payload["witness"] == [0, 4]
        assert payload["strategy"] == "constructive"

    def test_extreme(self, runner, spec_file):
        path = spec_file({"named": "D10"})
        result = runner.invoke(main, ["witness", path, "--p", "2"])
        assert result.exit_code == EXIT_EXTREME


class TestErrors:
    def test_missing_file(self, runner):
        result = runner.invoke(main, ["classify", "/nonexistent.json", "--p", "2"])
        assert result.exit_code == 2

    def test_malformed_document(self, runner, spec_file):
        path = spec_file({"named": "D6", "product": []})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR

    def test_unknown_name(self, runner, spec_file):
        path = spec_file({"named": "M11"})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR

    @pytest.mark.parametrize("doc, where", [
        ({"affine": {"p": 2}}, "$.affine.k"),
        ({"named": 5}, "$.named"),
        ({"degree": "x", "generators": ["(0 1)"]}, "$.degree"),
    ])
    def test_bad_field_named_by_path(self, runner, spec_file, doc, where):
        result = runner.invoke(main, ["census", spec_file(doc), "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}: ")

    @pytest.mark.parametrize("doc", [
        {"degree": 10**9, "generators": ["(0 1)"]},
        {"affine": {"p": 2, "k": 1, "dim": 10**9}},
        {"affine": {"p": 2, "k": 1, "dim": 13}},
        {"product": [{"degree": 100, "generators": ["(0 1)"]}] * 2},
        {"named": "C1000000000"},
    ])
    def test_document_over_max_degree(self, runner, spec_file, doc):
        # each is rejected before its points are allocated
        for command in ("census", "prop31"):
            result = runner.invoke(main, [command, spec_file(doc), "--p", "2"])
            assert result.exit_code == EXIT_ERROR
            lines = result.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "MAX_DEGREE = 4096" in lines[0]

    @pytest.mark.parametrize("command", ["classify", "witness", "concealed", "census",
                                         "sylow", "prop31"])
    @pytest.mark.parametrize("p", ["0", "1", "4"])
    def test_non_prime_p(self, runner, spec_file, command, p):
        # 4 divides |Sym(4)| = 24 but is not prime
        result = runner.invoke(main, [command, spec_file({"named": "Sym(4)"}), "--p", p])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0] == f"error: {p} is not prime"

    def test_census_over_degree_bound(self, runner, spec_file):
        path = spec_file({"degree": 25, "generators": ["(0 1)"]})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        assert "MAX_SCAN_BITS" in result.stderr


class TestVerifyPaper:
    def test_runs_clean(self, runner):
        result = runner.invoke(main, ["verify-paper", "--trials", "50"])
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["payload"]["failed"] == 0
        assert doc["payload"]["passed"] == len(doc["payload"]["checks"])
        lines = [l for l in result.stderr.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(doc["payload"]["checks"])

    def test_seed_determinism(self, runner):
        blobs = set()
        for _ in range(2):
            result = runner.invoke(
                main, ["verify-paper", "--seed", "0", "--trials", "50"]
            )
            doc = json.loads(result.stdout)
            blobs.add(json.dumps(doc["payload"], sort_keys=True))
        assert len(blobs) == 1
