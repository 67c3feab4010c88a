import json
from decimal import Decimal

import pytest
from click.testing import CliRunner

from stabparts import (PermGroup, PointSet, format_cycles, group_from_document, named_group,
                       stab_p_part)
from stabparts.cli import (
    EXIT_ERROR,
    EXIT_EXTREME,
    EXIT_INAPPLICABLE,
    EXIT_MODERATE,
    main,
)
from strategies import relabelled_document, symmetric, wreath


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

    def test_product_over_one_characteristic(self, runner, spec_file):
        # GF(9) and GF(3) share p = 3: the product is affine over GF(3), so the
        # translation recipe decides it without a census of 2^27 subsets
        path = spec_file({"named": "Product(AGammaL(1,9),D6)"})
        result = runner.invoke(main, ["classify", path, "--p", "3"])
        assert result.exit_code == EXIT_MODERATE, result.stderr
        payload = _payload(result)
        assert (payload["status"], payload["stage"]) == ("MODERATE", "translation")
        assert payload["witness"] == [0, 1, 2]

    @pytest.mark.parametrize("doc, p", [
        (relabelled_document(named_group("AGL(1,25)"), 1), 5),
        (relabelled_document(named_group("AGL(1,27)"), 1), 3),
        (relabelled_document(wreath(named_group("AGL(1,5)")), 0), 5),
    ], ids=["AGL(1,25)", "AGL(1,27)", "AGL(1,5)wr2"])
    def test_affine_generators_decide_at_translation(self, runner, spec_file, doc, p):
        # degree 25 or 27 is past MAX_SCAN_BITS: without V read off the group
        # the census refuses them; AGL(1,5) wr 2 is solvable and primitive
        result = runner.invoke(main, ["classify", spec_file(doc), "--p", str(p)])
        assert result.exit_code == EXIT_MODERATE, result.stderr
        payload = _payload(result)
        assert payload["stage"] == "translation"
        G = group_from_document(doc)
        part = stab_p_part(G, PointSet(G.degree, payload["witness"]), p)
        assert part == payload["stab_p_part"] and 1 < part < payload["group_p_part"]

    def test_sym5_wreath_is_not_affine(self, runner, spec_file):
        # 28800 does not divide 25 |GL(2,5)|: no recipe applies, and the census
        # would refuse 25 points, so a union of the orbits of an element of order 5 decides
        G = wreath(symmetric(5))
        doc = {"degree": 25, "generators": [format_cycles(g) for g in G.generators]}
        result = runner.invoke(main, ["classify", spec_file(doc), "--p", "5"])
        assert result.exit_code == EXIT_MODERATE, result.stderr
        payload = _payload(result)
        assert payload["stage"] == "q-orbits"
        part = stab_p_part(G, PointSet(G.degree, payload["witness"]), 5)
        assert (part, payload["stab_p_part"], payload["group_p_part"]) == (5, 5, 25)

    @pytest.mark.parametrize("strategy", ["constructive", "exhaustive"])
    def test_p_part_p_past_the_scan_bound(self, runner, spec_file, strategy):
        # C26 at p = 2: EXTREME by arithmetic, and concealment stays unknown
        # because the census refuses 26 points
        path = spec_file({"degree": 26, "generators": [
            "(" + " ".join(map(str, range(26))) + ")"]})
        result = runner.invoke(main, ["classify", path, "--p", "2", "--strategy", strategy])
        assert result.exit_code == EXIT_EXTREME, result.stderr
        payload = _payload(result)
        assert (payload["status"], payload["concealed"]) == ("EXTREME", None)
        assert payload["note"] == "|G|_p = p: moderation is impossible"

    @pytest.mark.parametrize("command", ["classify", "witness"])
    def test_table_bound_refused_before_h_is_built(self, runner, spec_file, monkeypatch,
                                                   command):
        # AGL(3,4) at p = 3: G's table would take 2.97 GB, and H = GL(3,4) is
        # its rows that fix 0; every candidate is verified on G's table, so no
        # table is built at all
        built = []
        enumerate_ = PermGroup._enumerate
        monkeypatch.setattr(PermGroup, "_enumerate",
                            lambda G: built.append(G.order) or enumerate_(G))
        shift = [[int(j == (i + 1) % 3) for j in range(3)] for i in range(3)]
        transvection = [[int(i == j or (i, j) == (0, 1)) for j in range(3)] for i in range(3)]
        path = spec_file({"affine": {"p": 2, "k": 2, "dim": 3, "generators": [
            {"matrix": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"matrix": shift}, {"matrix": transvection}]}})
        result = runner.invoke(main, [command, path, "--p", "3"])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and "MAX_TABLE_BYTES" in lines[0]
        assert built == []

    def test_sym10_classify_over_table_bound(self, runner, spec_file):
        # the witness checks need the element table, which the byte bound refuses
        path = spec_file({"degree": 10, "generators": ["(0 1 2 3 4 5 6 7 8 9)", "(0 1)"]})
        result = runner.invoke(main, ["classify", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "MAX_TABLE_BYTES" in lines[0]

    def test_exhaustive_past_scan_bits(self, runner, spec_file):
        # AGL(1,27) has 2^27 subsets: the census refuses them; at p = 3,
        # |G|_3 = 27 > p leaves the verdict open, so the refusal is the answer
        path = spec_file({"named": "AGL(1,27)"})
        result = runner.invoke(main, ["classify", path, "--strategy", "exhaustive", "--p", "3"])
        assert result.exit_code == EXIT_ERROR
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "MAX_SCAN_BITS" in lines[0]
        assert result.stdout == ""

    def test_exhaustive_past_scan_bits_at_p_part_p(self, runner, spec_file):
        # at p = 2, |G|_2 = p decides EXTREME without the census, whose
        # refusal leaves only concealment unknown
        path = spec_file({"named": "AGL(1,27)"})
        result = runner.invoke(main, ["classify", path, "--strategy", "exhaustive", "--p", "2"])
        assert result.exit_code == EXIT_EXTREME, result.stderr
        payload = _payload(result)
        assert (payload["status"], payload["concealed"]) == ("EXTREME", None)
        assert payload["note"] == "|G|_p = p: moderation is impossible"

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

    def test_powers_past_the_str_digit_cap(self, runner, spec_file):
        # C125 as 32 disjoint 125-cycles: z moves all 4000 points, so the
        # right side is 2^16000, 4817 digits, past str(int)'s 4300-digit cap
        cycles = "".join("(" + " ".join(str(125 * k + i) for i in range(125)) + ")"
                         for k in range(32))
        path = spec_file({"degree": 4000, "generators": [cycles]})
        result = runner.invoke(main, ["prop31", path, "--p", "5"])
        assert result.exit_code == 0, result.stderr
        payload = _payload(result)
        assert payload["verdict"] is True
        assert payload["lhs_power"] == "1"
        rhs = payload["rhs_power"]
        assert rhs.isdigit() and len(rhs) == 4817 and int(Decimal(rhs)) == 1 << 16000
        assert 1 < payload["witness_p_part"] < 125

    def test_inapplicable_exit_eleven(self, runner, spec_file):
        path = spec_file({"product": [{"named": "J"}, {"named": "J"}]})
        result = runner.invoke(main, ["prop31", path, "--p", "3"])
        assert result.exit_code == EXIT_INAPPLICABLE
        assert "elementary abelian" in result.stderr

    def test_no_witness_in_the_trials(self, runner, spec_file):
        # C4's z = (0 2)(1 3): seed 0 draws the empty union, fixed by all of C4
        path = spec_file({"named": "C4"})
        result = runner.invoke(main, ["prop31", path, "--p", "2", "--trials", "1",
                                      "--seed", "0"])
        assert result.exit_code == EXIT_ERROR
        assert result.stderr.splitlines() == [
            "error: criterion holds but no witness found in 1 trials"]

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one(self, runner, spec_file, trials):
        path = spec_file({"named": "C4"})
        result = runner.invoke(main, ["prop31", path, "--p", "2", "--trials", trials])
        assert result.exit_code == 2
        assert "--trials" in result.stderr


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

    @pytest.mark.parametrize("doc, message", [
        ({"affine": {"p": 2}}, "$.affine.k: required field is missing"),
        ({"named": 5}, "$.named: expected a string, got 5"),
        ({"degree": "x", "generators": ["(0 1)"]},
         '$.degree: expected a positive integer at most MAX_DEGREE = 4096, got "x"'),
        ({"named": "Product(C2)"}, "$.named: expected two comma-separated names in 'C2'"),
        ({"product": [5, {"named": "C2"}]}, "$.product[0]: expected a group document object"),
        ({"affine": {"p": 2, "k": 1, "dim": 1, "generators": [5]}},
         "$.affine.generators[0]: expected an object"),
        # well formed: the trivial group on 3 points, which 2 does not divide
        ({"named": "Trivial(3)"}, "2 does not divide |G| = 1"),
    ], ids=lambda v: v.split(":")[0] if isinstance(v, str) else None)
    def test_bad_field_named_by_path(self, runner, spec_file, doc, message):
        result = runner.invoke(main, ["classify", spec_file(doc), "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        assert result.stderr.splitlines() == [f"error: {message}"]

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

    @pytest.mark.parametrize("command", ["classify", "witness", "concealed", "census",
                                         "sylow", "prop31"])
    def test_p_above_max_degree(self, runner, spec_file, monkeypatch, command):
        # a prime dividing |G| is at most the degree: a larger p is refused by
        # the option, before trial division up to its root would hang
        import stabparts.fields  # p_part's primality test

        is_prime = stabparts.fields.is_prime

        def bounded(n):
            assert n <= 4096, f"primality test on {n}"
            return is_prime(n)

        monkeypatch.setattr(stabparts.fields, "is_prime", bounded)
        result = runner.invoke(main, [command, spec_file({"named": "C4"}),
                                      "--p", str(10**18 + 3)])
        assert result.exit_code == EXIT_ERROR
        assert "--p" in result.stderr and "4096" in result.stderr

    @pytest.mark.parametrize("depth", [520, 5000])
    def test_deeply_nested_document(self, runner, tmp_path, depth):
        # json.load raises RecursionError at about 500 levels of products
        text = '{"named": "Trivial(1)"}'
        for _ in range(depth):
            text = '{"product": [{"named": "Trivial(1)"}, ' + text + ']}'
        path = tmp_path / "deep.json"
        path.write_text(text)
        result = runner.invoke(main, ["census", str(path), "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        assert result.stderr.splitlines() == ["error: group document is nested too deeply"]

    def test_census_over_degree_bound(self, runner, spec_file):
        path = spec_file({"degree": 25, "generators": ["(0 1)"]})
        result = runner.invoke(main, ["census", path, "--p", "2"])
        assert result.exit_code == EXIT_ERROR
        assert "MAX_SCAN_BITS" in result.stderr


class TestVerifyPaper:
    def test_runs_clean(self, runner):
        result = runner.invoke(main, ["verify-paper"])
        assert result.exit_code == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["payload"]["failed"] == 0
        assert doc["payload"]["passed"] == len(doc["payload"]["checks"])
        lines = [l for l in result.stderr.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(doc["payload"]["checks"])

    def test_a_failed_check_exits_one(self, runner, monkeypatch):
        # the J x J randomized search is made to find nothing: its check is
        # the one FAIL, and the command exits 1
        monkeypatch.setattr("stabparts.verify.randomized_witness_from_z",
                            lambda *args, **kwargs: None)
        result = runner.invoke(main, ["verify-paper", "--seed", "0"])
        assert result.exit_code == 1
        fails = [l for l in result.stderr.splitlines() if l.startswith("FAIL")]
        assert len(fails) == 1 and "no witness found" in fails[0]
        payload = _payload(result)
        assert payload["failed"] == 1
        assert payload["passed"] == len(payload["checks"]) - 1

    def test_trials_is_not_an_option(self, runner):
        # the J x J search takes the default draws: --trials is a usage error,
        # refused before any check runs, not reported as a FAIL
        result = runner.invoke(main, ["verify-paper", "--trials", "50"])
        assert result.exit_code == 2
        assert "--trials" in result.stderr and "FAIL" not in result.stderr

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one(self, runner, trials):
        # refused as a usage error before any check runs, not reported as a FAIL
        result = runner.invoke(main, ["verify-paper", "--trials", trials])
        assert result.exit_code == 2
        assert "--trials" in result.stderr and "FAIL" not in result.stderr

    def test_report_keys(self, runner, spec_file):
        # one emitter builds both envelopes; verify-paper has no input or group
        result = runner.invoke(main, ["classify", spec_file({"named": "C4"}), "--p", "2"])
        assert list(json.loads(result.stdout)) == [
            "tool", "version", "input", "group", "payload", "elapsed_seconds"]
        result = runner.invoke(main, ["verify-paper"])
        assert list(json.loads(result.stdout)) == [
            "tool", "version", "payload", "elapsed_seconds"]

    def test_seed_determinism(self, runner):
        blobs = set()
        for _ in range(2):
            result = runner.invoke(main, ["verify-paper", "--seed", "0"])
            doc = json.loads(result.stdout)
            blobs.add(json.dumps(doc["payload"], sort_keys=True))
        assert len(blobs) == 1
