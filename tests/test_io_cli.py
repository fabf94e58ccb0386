import json
import os

import numpy as np
import pytest

from kolmoreduce import (
    DiscreteDistribution,
    DistributionParseError,
    fixture_path,
    make_distribution,
    read_distribution_file,
    write_distribution_file,
)
from kolmoreduce.cli import bench_errors, bench_instance, main
from kolmoreduce.io import _load_csv_table, _parse_csv_rows, _wrap_validation

from generators import binomial, random_distribution

UNIFORM4 = make_distribution([(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDistributionFiles:
    def test_csv_header_optional(self, tmp_path):
        with_header = write(tmp_path, "a.csv", "value,probability\n1,0.5\n2,0.5\n")
        without = write(tmp_path, "b.csv", "1,0.5\n2,0.5\n")
        da, fmt_a = read_distribution_file(with_header)
        db, fmt_b = read_distribution_file(without)
        assert fmt_a == fmt_b == "csv"
        assert da == db

    def test_json_format(self, tmp_path):
        path = write(tmp_path, "d.json", '{"values": [1, 2], "probs": [0.5, 0.5]}')
        d, fmt = read_distribution_file(path)
        assert fmt == "json"
        assert d == make_distribution([(1, 0.5), (2, 0.5)])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_is_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(8)
        original = random_distribution(rng, n=37, values=np.sort(rng.uniform(-9, 9, 37)))
        path = str(tmp_path / f"d.{fmt}")
        write_distribution_file(original, path, fmt)
        loaded, loaded_fmt = read_distribution_file(path)
        assert loaded_fmt == fmt
        assert loaded == original

    def test_parse_error_names_line(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,0.5\nnope,0.5\n")
        with pytest.raises(DistributionParseError, match="bad.csv:2"):
            read_distribution_file(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "bad.csv", "1,0.5,9\n")
        with pytest.raises(DistributionParseError, match="expected 2 fields"):
            read_distribution_file(path)

    def test_brace_in_csv_file_reads_as_json(self, tmp_path):
        path = write(tmp_path, "d.csv", '  {"values": [1, 2], "probs": [0.5, 0.5]}')
        assert read_distribution_file(path) == (make_distribution([(1, 0.5), (2, 0.5)]), "json")
        bad = write(tmp_path, "bad.csv", "{1,0.5\n2,0.5\n")
        with pytest.raises(DistributionParseError, match="bad.csv: invalid JSON"):
            read_distribution_file(bad)

    def test_unknown_write_format(self, tmp_path):
        path = str(tmp_path / "d.xml")
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            write_distribution_file(UNIFORM4, path, "xml")
        assert not os.path.exists(path)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, fmt):
        # Renaming a file onto a directory fails after the temp file is written.
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            write_distribution_file(UNIFORM4, str(target), fmt)
        assert sorted(os.listdir(tmp_path)) == ["out"]
        assert os.listdir(target) == []
        with pytest.raises(OSError, match="cannot write"):
            write_distribution_file(UNIFORM4, str(target / "missing" / "d.csv"), fmt)

    def test_missing_file(self):
        with pytest.raises(DistributionParseError, match="no such file"):
            read_distribution_file("/nonexistent/d.csv")

    def test_bad_mass_mentions_renormalize(self, tmp_path):
        path = write(tmp_path, "half.csv", "1,0.25\n2,0.25\n")
        with pytest.raises(DistributionParseError, match="renormalize"):
            read_distribution_file(path)
        d, _ = read_distribution_file(path, renormalize=True)
        assert d.probs.tolist() == [0.5, 0.5]


def read_or_error(read):
    """What a reader gives: the distribution's bytes, or the error's type and message."""
    try:
        d = read()
    except Exception as exc:
        return type(exc), str(exc)
    return d.values.tobytes(), d.probs.tobytes()


# (text, whether numpy's parser accepts it whole)
CSV_CASES = {
    "header": ("value,probability\n1,0.25\n2,0.75\n", True),
    "no_header": ("1,0.25\n2,0.75\n", True),
    "crlf": ("value,probability\r\n1,0.25\r\n2,0.75\r\n", True),
    "blank_lines": ("\n1,0.25\n\n2,0.75\n\n\n", True),
    "no_final_newline": ("1,0.25\n2,0.75", True),
    "padded": (" 1 , 0.25 \n\t2\t,\t0.75\n", True),
    "non_finite": ("inf,0.25\n2,0.75\n", True),
    "bad_mass": ("1,0.25\n2,0.25\n", True),
    "blank_header": (" , \n1,0.25\n2,0.75\n", True),
    "whitespace_line": ("1,0.25\n   \n2,0.75\n", False),
    "blank_fields": ("1,0.25\n,\n2,0.75\n", False),
    "quoted": ('"1","0.25"\n2,"0.75"\n', False),
    "quoted_header": ('"value","probability"\n1,0.25\n2,0.75\n', True),
    "hash_header": ("# value,probability\n1,0.25\n2,0.75\n", True),
    "hash_line": ("#values\n1,0.25\n2,0.75\n", False),
    "hash_in_data": ("1,0.25\n#2,0.75\n", False),
    "underscore": ("1_000,0.25\n2,0.75\n", False),
    "unicode_digit": ("\u0661,0.25\n2,0.75\n", False),
    "one_column": ("1\n2\n", False),
    "three_columns": ("1,0.25,9\n2,0.75,9\n", False),
    "three_field_header": ("a,b,c\n1,0.25\n2,0.75\n", False),
    "late_header": ("1,0.25\nvalue,probability\n2,0.75\n", False),
    "header_only": ("value,probability\n", False),
    "empty": ("", False),
}


class TestCsvFastPath:
    """The numpy parse must accept, read and reject exactly what the
    per-line parser does, with the same messages."""

    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_matches_row_parser(self, tmp_path, recwarn, name):
        text, fast = CSV_CASES[name]
        path = str(tmp_path / f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (_load_csv_table(path) is not None) == fast
        for renormalize in (False, True):
            expected = read_or_error(
                lambda: _wrap_validation(path, *_parse_csv_rows(path), renormalize)
            )
            got = read_or_error(lambda: read_distribution_file(path, renormalize=renormalize)[0])
            assert got == expected
        assert not recwarn.list

    def test_random_tables_read_bit_identically(self, tmp_path):
        rng = np.random.default_rng(21)
        for k, fmt in enumerate([".17g", "r", ".6e"] * 3):
            n = int(rng.integers(1, 500))
            values = rng.standard_normal(n) * 10.0 ** int(rng.integers(-300, 300))
            probs = rng.random(n)
            probs /= probs.sum()
            cells = [repr(v) if fmt == "r" else format(v, fmt)
                     for v in np.column_stack((values, probs)).ravel().tolist()]
            path = write(tmp_path, f"r{k}.csv", "value,probability\n" * (k % 2) + "".join(
                f"{a},{b}\n" for a, b in zip(cells[::2], cells[1::2])))
            assert _load_csv_table(path) is not None
            expected = read_or_error(lambda: _wrap_validation(path, *_parse_csv_rows(path), True))
            assert read_or_error(lambda: read_distribution_file(path, renormalize=True)[0]) == expected

    @pytest.mark.parametrize("body", [
        '{"values": [[1], [2]], "probs": [0.5, 0.5]}',
        '{"values": [[1, 2]], "probs": [1]}',
        '{"values": [1, 2], "probs": [[0.5, 0.5], [0.5, 0.5]]}',
        '{"values": ["a", 2], "probs": [0.5, 0.5]}',
        '{"values": [null, 2], "probs": [0.5, 0.5]}',
        '{"values": [1, 2], "probs": [null, 0.5]}',
        '{"values": [1, 2, 3], "probs": [0.5, 0.5]}',
        '{"values": [], "probs": []}',
        '{"values": [{}], "probs": [1]}',
        '{"values": [1, 2], "probs": [0.5,',
        '{"values": [1]}',
        '[[1, 1.0]]',
        '{"values": 1, "probs": 1}',
    ])
    def test_bad_json_columns_rejected(self, tmp_path, body):
        path = write(tmp_path, "bad.json", body)
        with pytest.raises(DistributionParseError, match="bad.json"):
            read_distribution_file(path)


def old_format(dist, fmt):
    """The writers' text as formatted one number at a time."""
    f = lambda v: format(float(v), ".17g")  # noqa: E731
    if fmt == "csv":
        lines = ["value,probability"]
        lines.extend(f"{f(v)},{f(p)}" for v, p in zip(dist.values, dist.probs))
        return "\n".join(lines) + "\n"
    values = ", ".join(f(v) for v in dist.values)
    probs = ", ".join(f(p) for p in dist.probs)
    return f'{{"values": [{values}], "probs": [{probs}]}}\n'


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_match_per_number_format(tmp_path, fmt):
    rng = np.random.default_rng(17)
    for k in range(12):
        n = int(rng.integers(1, 400))
        values = np.unique(np.concatenate((
            rng.standard_normal(n) * 10.0 ** int(rng.integers(-300, 300)),
            [-5e-324, 5e-324, -2.2250738585072014e-308, 0.0],
        )))
        probs = rng.random(values.size) ** 4
        probs[:2] = 5e-324
        probs[2:] /= probs[2:].sum()
        d = DiscreteDistribution(values, probs)
        path = str(tmp_path / f"w{k}.{fmt}")
        write_distribution_file(d, path, fmt)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == old_format(d, fmt)
        assert read_distribution_file(path)[0] == d


class TestCmdDistance:
    def test_identical_files(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "1,0.5\n2,0.5\n")
        b = write(tmp_path, "b.csv", "1,0.5\n2,0.5\n")
        assert main(["distance", a, b]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_disjoint_deltas(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "0,1\n")
        b = write(tmp_path, "b.csv", "1,1\n")
        assert main(["distance", a, b]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_half(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "1,0.5\n2,0.5\n")
        b = write(tmp_path, "b.csv", "1,1\n")
        assert main(["distance", a, b]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_unparsable_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", "garbage\n")
        b = write(tmp_path, "b.csv", "1,1\n")
        assert main(["distance", a, b]) == 2
        assert "a.csv" in capsys.readouterr().err


class TestCmdReduce:
    def test_klm_summary_and_output(self, tmp_path, capsys):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        out = str(tmp_path / "r.csv")
        assert main(["reduce", src, "--m", "2", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "klm,2,0.25"
        d, fmt = read_distribution_file(out)
        assert fmt == "csv"
        assert d == make_distribution([(1, 0.375), (3, 0.625)])

    def test_generous_budget_round_trips_input(self, tmp_path, capsys):
        src = write(tmp_path, "u4.json", '{"values": [1, 2, 3, 4], "probs": [0.25, 0.25, 0.25, 0.25]}')
        out = str(tmp_path / "r.json")
        assert main(["reduce", src, "--m", "9", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "klm,4,0"
        d, fmt = read_distribution_file(out)
        assert fmt == "json"
        assert d == UNIFORM4

    def test_sample_method_is_byte_deterministic(self, tmp_path, capsys):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        args = ["reduce", src, "--method", "sample", "--m", "2",
                "--samples", "10000", "--seed", "7"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        capsys.readouterr()
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_missing_method_flags_exit_2(self, tmp_path, capsys):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        out = str(tmp_path / "r.csv")
        assert main(["reduce", src, "--out", out]) == 2
        assert main(["reduce", src, "--method", "trim", "--out", out]) == 2
        assert main(["reduce", src, "--method", "sample", "--m", "2", "--out", out]) == 2
        capsys.readouterr()
        assert not os.path.exists(out)

    def test_renormalize_flag(self, tmp_path, capsys):
        src = write(tmp_path, "half.csv", "1,0.25\n2,0.25\n")
        out = str(tmp_path / "r.csv")
        assert main(["reduce", src, "--m", "5", "--out", out]) == 2
        assert main(["reduce", src, "--m", "5", "--out", out, "--renormalize"]) == 0
        capsys.readouterr()

    def test_bad_method_name_exits_2(self, tmp_path):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        with pytest.raises(SystemExit) as info:
            main(["reduce", src, "--method", "magic", "--out", str(tmp_path / "r.csv")])
        assert info.value.code == 2

    def test_opttrim_drops_a_point_whose_mass_rounds_to_zero(self, tmp_path, capsys):
        src = write(tmp_path, "x.csv", "0,0.5\n1,1e-20\n2,0.5\n3,1e-20\n")
        out = str(tmp_path / "y.csv")
        assert main(["reduce", src, "--method", "opttrim", "--m", "3", "--out", out]) == 0
        assert capsys.readouterr().out.startswith("opttrim,2,")
        assert read_distribution_file(out)[0] == make_distribution([(0, 0.5), (2, 0.5)])


class TestCmdBench:
    def test_schema_and_determinism(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "b1.csv"), str(tmp_path / "b2.csv")
        args = ["bench", "--n", "12", "--instances", "3", "--m", "2,4",
                "--methods", "klm,opttrim,trim", "--seed", "5"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        capsys.readouterr()
        text = open(out1).read()
        assert text == open(out2).read()
        lines = text.strip().splitlines()
        assert lines[0] == "method,m,mean_error,std_error,instances,n,seed"
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            method, m, mean, std, instances, n, seed = line.split(",")
            assert method in ("klm", "opttrim", "trim")
            assert 0.0 <= float(mean) <= 1.0
            assert (int(m), int(instances), int(n), int(seed)) == (int(m), 3, 12, 5)

    def test_rows_aggregate_bench_errors(self, capsys):
        # A repeated budget gets one row, in first-mention order.
        assert main(["bench", "--n", "12", "--instances", "3", "--m", "4,2,4",
                     "--methods", "trim,klm", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        errors = bench_errors(12, 3, [4, 2, 4], ["trim", "klm"], 7)
        expected = [("trim", 4), ("trim", 2), ("klm", 4), ("klm", 2)]
        assert list(errors) == expected
        assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
            (meth, str(m)) for meth, m in expected
        ]
        for line, key in zip(lines[1:], expected):
            assert errors[key].size == 3
            _, _, mean, std, instances, n, seed = line.split(",")
            assert float(mean) == float(np.mean(errors[key]))
            assert float(std) == float(np.std(errors[key], ddof=1))
            assert (instances, n, seed) == ("3", "12", "7")
        once = bench_errors(12, 3, [4], ["trim"], 7)[("trim", 4)]
        assert errors[("trim", 4)].tobytes() == once.tobytes()

    def test_instance_generator_is_stable(self):
        a = bench_instance(10, seed=3, index=4)
        b = bench_instance(10, seed=3, index=4)
        c = bench_instance(10, seed=3, index=5)
        assert a == b
        assert a != c
        assert a.values.tolist() == list(range(1, 11))

    def test_bad_flags_exit_2(self, capsys):
        assert main(["bench", "--n", "1", "--instances", "3"]) == 2
        assert main(["bench", "--n", "10", "--instances", "3", "--methods", "wat"]) == 2
        assert main(["bench", "--n", "10", "--instances", "3", "--m", "1",
                     "--methods", "trim"]) == 2
        assert main(["bench", "--n", "10", "--instances", "3", "--m", ","]) == 2
        assert main(["bench", "--n", "10", "--instances", "3", "--methods", " , "]) == 2
        assert capsys.readouterr().err.count("empty --m or --methods list") == 2


class TestCmdPipeline:
    def test_fixture_run(self, tmp_path, capsys):
        out = str(tmp_path / "p.csv")
        code = main(["pipeline", fixture_path("seq10"), "--m", "10",
                     "--deadlines", "20,45,70", "--out", out])
        assert code == 0
        summary = capsys.readouterr().out
        assert "d_k=" in summary and "exact_support=91" in summary
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "deadline,f_exact,f_approx,abs_delta,d_k,exact_support,approx_support"
        assert len(lines) == 4
        deltas = [float(line.split(",")[3]) for line in lines[1:]]
        d_k = float(lines[1].split(",")[4])
        assert all(delta <= d_k + 1e-12 for delta in deltas)

    def test_cap_override_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KLM_CAP", "10")
        code = main(["pipeline", fixture_path("seq10"), "--m", "10",
                     "--deadlines", "20", "--out", str(tmp_path / "p.csv")])
        assert code == 4
        capsys.readouterr()

    def test_leaves_whose_convolution_underflows_exit_0(self, tmp_path, capsys):
        b = binomial(600)
        node = {"kind": "leaf", "inline": {"values": b.values.tolist(), "probs": b.probs.tolist()}}
        tree = write(tmp_path, "t.json", json.dumps({"kind": "seq", "children": [node, node]}))
        code = main(["pipeline", tree, "--m", "64", "--deadlines", "600",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 0
        assert "approx_support=" in capsys.readouterr().out

    def test_unparsable_tree_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "t.json", '{"kind": "leaf"}')
        assert main(["pipeline", bad, "--m", "4", "--deadlines", "1"]) == 2
        capsys.readouterr()
        truncated = write(tmp_path, "bad_tree.json", '{"kind": "seq", "children": [')
        assert main(["pipeline", truncated, "--m", "4", "--deadlines", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {truncated}: invalid JSON (")
        inline = write(tmp_path, "inline.json", json.dumps(
            {"kind": "leaf", "inline": {"values": [1, 2], "probs": [0.5, 0.4]}}))
        assert main(["pipeline", inline, "--m", "4", "--deadlines", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: inline leaf: total mass 0.9")

    @pytest.mark.filterwarnings("error")
    def test_leaves_whose_sum_overflows_exit_2(self, tmp_path, capsys):
        node = {"kind": "leaf", "inline": {"values": [0, 1e308], "probs": [0.5, 0.5]}}
        tree = write(tmp_path, "t.json", json.dumps({"kind": "seq", "children": [node, node]}))
        assert main(["pipeline", tree, "--m", "4", "--deadlines", "1"]) == 2
        assert "overflow" in capsys.readouterr().err


class TestCmdOracle:
    def test_match(self, tmp_path, capsys):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        assert main(["oracle", src, "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "MATCH" in out and "0.25" in out

    def test_generous_budget(self, tmp_path, capsys):
        src = write(tmp_path, "u4.csv", "1,0.25\n2,0.25\n3,0.25\n4,0.25\n")
        assert main(["oracle", src, "--m", "9"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_sweep_random_file(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        x = random_distribution(rng, n=10)
        src = str(tmp_path / "x.csv")
        write_distribution_file(x, src, "csv")
        for m in range(1, 11):
            assert main(["oracle", src, "--m", str(m)]) == 0
        assert capsys.readouterr().out.count("MATCH") == 10

    def test_guard_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        x = random_distribution(rng, n=30)
        src = str(tmp_path / "x.csv")
        write_distribution_file(x, src, "csv")
        assert main(["oracle", src, "--m", "3"]) == 2
        capsys.readouterr()
