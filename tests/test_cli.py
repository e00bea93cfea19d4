"""Exit-code contract and stream discipline of the command line."""

import json
import operator
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from triplify import (
    Literal,
    convert,
    execute,
    load_csv,
    parse_mapping,
    parse_ntriples,
    parse_query,
    parse_turtle,
    serialize_ntriples,
)
from triplify import cli
from triplify.cli import main
from triplify.registry import bundled_mapping_text, predicate_categories
from triplify.terms import RDF_TYPE

from conftest import FIXTURES
from oracles import brute_force_solution

CASE01 = FIXTURES / "case01_basic"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, stdout=subprocess.PIPE, hash_seed=None):
    """`python -m triplify *argv` in a new process, reading this checkout's
    `src`; `hash_seed` sets PYTHONHASHSEED."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, "-m", "triplify", *argv],
        stdout=stdout, stderr=subprocess.PIPE, encoding="utf-8", env=env,
    )


class TestConvert:
    def test_fixture_converts_to_oracle(self, capsys, tmp_path):
        out = tmp_path / "out.nt"
        code, stdout, stderr = run(
            capsys,
            "convert",
            str(CASE01 / "mapping.ttl"),
            str(CASE01 / "PATIENT.csv"),
            "-o",
            str(out),
        )
        assert code == 0
        expected = parse_ntriples((CASE01 / "expected.nt").read_text())
        assert parse_ntriples(out.read_text()) == expected
        assert "triples in graph" in stderr
        assert stdout == ""

    def test_stdout_when_no_output_flag(self, capsys):
        code, stdout, _ = run(
            capsys, "convert", str(CASE01 / "mapping.ttl"), str(CASE01 / "PATIENT.csv")
        )
        assert code == 0
        assert parse_ntriples(stdout) == parse_ntriples((CASE01 / "expected.nt").read_text())

    def test_missing_column_exits_1_and_names_it(self, capsys, tmp_path):
        bad = tmp_path / "PATIENT.csv"
        bad.write_text("ID\n1\n")
        code, _, stderr = run(capsys, "convert", str(CASE01 / "mapping.ttl"), str(bad))
        assert code == 1
        assert "AGE" in stderr

    def test_nonexistent_mapping_exits_2(self, capsys):
        code, _, stderr = run(capsys, "convert", "/nope/mapping.ttl")
        assert code == 2
        assert "error" in stderr

    def test_malformed_mapping_exits_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.ttl"
        broken.write_text("@prefix rr: <http://www.w3.org/ns/r2rml#> . rr:x rr:y")
        code, _, _ = run(capsys, "convert", str(broken))
        assert code == 2

    def test_strict_turns_skips_into_failure(self, capsys, tmp_path):
        out = tmp_path / "out.nt"
        code, _, _ = run(
            capsys,
            "convert",
            str(CASE01 / "mapping.ttl"),
            str(CASE01 / "PATIENT.csv"),
            "-o",
            str(out),
            "--strict",
        )
        assert code == 1  # row 2 has a NULL age
        assert out.exists()

    def test_skipped_log_written(self, capsys, tmp_path):
        log = tmp_path / "skips.tsv"
        code, _, _ = run(
            capsys,
            "convert",
            str(CASE01 / "mapping.ttl"),
            str(CASE01 / "PATIENT.csv"),
            "-o",
            str(tmp_path / "out.nt"),
            "--skipped-log",
            str(log),
        )
        assert code == 0
        fields = log.read_text().strip().split("\t")
        assert len(fields) == 4 and fields[1] == "2" and fields[2] == "AGE"

    @pytest.mark.parametrize("flag", ["-o", "--skipped-log"])
    def test_unwritable_output_path_exits_2(self, capsys, tmp_path, flag):
        target = tmp_path / "nodir" / "out"
        code, _, stderr = run(
            capsys,
            "convert",
            str(CASE01 / "mapping.ttl"),
            str(CASE01 / "PATIENT.csv"),
            flag,
            str(target),
        )
        assert code == 2
        assert "error: cannot write" in stderr
        assert str(target) in stderr
        assert "Traceback" not in stderr

    def test_bundled_mapping_against_registry_oracle(self, capsys, tmp_path):
        case = FIXTURES / "case12_registry"
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(bundled_mapping_text())
        code, stdout, _ = run(
            capsys,
            "convert",
            str(mapping),
            str(case / "PATIENT.csv"),
            str(case / "TREATMENT.csv"),
        )
        assert code == 0
        assert parse_ntriples(stdout) == parse_ntriples((case / "expected.nt").read_text())

    def test_table_without_equals_exits_2(self, capsys):
        code, stdout, stderr = run(
            capsys, "convert", str(CASE01 / "mapping.ttl"), "--table", "PATIENT.csv"
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: --table needs NAME=PATH, got 'PATIENT.csv'\n"

    def test_mapping_warnings_reach_stderr(self, capsys, tmp_path):
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(
            (CASE01 / "mapping.ttl").read_text()
            + "\n[] <http://www.w3.org/ns/r2rml#madeUp> 1 .\n"
        )
        code, stdout, stderr = run(capsys, "convert", str(mapping), str(CASE01 / "PATIENT.csv"))
        assert code == 0
        assert parse_ntriples(stdout) == parse_ntriples((CASE01 / "expected.nt").read_text())
        assert stderr.startswith(
            "warning: unknown R2RML property ignored: <http://www.w3.org/ns/r2rml#madeUp>\n"
        )

    def test_table_override(self, capsys, tmp_path):
        renamed = tmp_path / "weird-name.csv"
        renamed.write_text((CASE01 / "PATIENT.csv").read_text())
        code, stdout, _ = run(
            capsys,
            "convert",
            str(CASE01 / "mapping.ttl"),
            "--table",
            f"PATIENT={renamed}",
        )
        assert code == 0
        assert parse_ntriples(stdout) == parse_ntriples((CASE01 / "expected.nt").read_text())


    @pytest.mark.parametrize("how", ("two_csvs", "table_flag"))
    def test_same_table_name_twice_exits_2_naming_both(self, capsys, tmp_path, how):
        first = tmp_path / "a" / "PATIENT.csv"
        second = tmp_path / "b" / "PATIENT.csv"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text((CASE01 / "PATIENT.csv").read_text())
        if how == "two_csvs":
            extra = (str(second),)
        else:
            extra = ("--table", f"PATIENT={second}")
        code, stdout, stderr = run(
            capsys, "convert", str(CASE01 / "mapping.ttl"), str(first), *extra
        )
        assert code == 2
        assert stdout == ""
        assert str(first) in stderr and str(second) in stderr


class TestLineEnds:
    """The CLI reads a file with its line ends as written, so a value that
    holds one converts as the library converts the file's text."""

    MAPPING = (
        "@prefix rr: <http://www.w3.org/ns/r2rml#> .\r\n"
        '<http://ex.org/M> rr:logicalTable [ rr:tableName "T" ] ;\r\n'
        '  rr:subjectMap [ rr:template "http://ex.org/{ID}" ] ;\r\n'
        "  rr:predicateObjectMap [ rr:predicate <http://ex.org/p> ;\r\n"
        "    OBJECT ] .\r\n"
    )

    def convert_both(self, capsys, tmp_path, mapping_text, csv_text):
        """The graph `triplify convert` writes, checked equal to the library's."""
        mapping, csv, out = tmp_path / "mapping.ttl", tmp_path / "T.csv", tmp_path / "out.nt"
        mapping.write_bytes(mapping_text.encode("utf-8"))
        csv.write_bytes(csv_text.encode("utf-8"))
        code, _, stderr = run(capsys, "convert", str(mapping), str(csv), "-o", str(out))
        assert code == 0, stderr
        m = parse_mapping(*parse_turtle(mapping_text))
        want, _ = convert(m, {"T": load_csv(csv_text, "T")})
        assert out.read_bytes().decode("utf-8") == serialize_ntriples(want)
        return want

    def test_crlf_in_a_long_string_of_the_mapping(self, capsys, tmp_path):
        mapping = self.MAPPING.replace("OBJECT", 'rr:object """a\r\nb"""')
        g = self.convert_both(capsys, tmp_path, mapping, "ID\r\n1\r\n")
        assert {t.o for t in g} == {Literal("a\r\nb")}

    def test_crlf_in_a_quoted_csv_field(self, capsys, tmp_path):
        mapping = self.MAPPING.replace("OBJECT", 'rr:objectMap [ rr:column "NOTE" ]')
        g = self.convert_both(capsys, tmp_path, mapping, 'ID,NOTE\r\n1,"x\r\ny"\r\n2,"z\rw"\r\n')
        assert {t.o for t in g} == {Literal("x\r\ny"), Literal("z\rw")}


class TestValidate:
    @pytest.fixture()
    def conforming_graph(self, capsys, tmp_path):
        synth_dir = tmp_path / "tables"
        assert main(["synth", str(synth_dir), "--n", "6", "--seed", "3"]) == 0
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(bundled_mapping_text())
        graph = tmp_path / "graph.nt"
        assert (
            main(
                [
                    "convert",
                    str(mapping),
                    str(synth_dir / "PATIENT.csv"),
                    str(synth_dir / "TREATMENT.csv"),
                    "-o",
                    str(graph),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return graph

    def test_conforming_graph_exits_0_silent(self, capsys, conforming_graph):
        code, stdout, _ = run(capsys, "validate", str(conforming_graph))
        assert code == 0
        assert stdout == ""

    def test_missing_edge_is_one_line_exit_1(self, capsys, tmp_path, conforming_graph):
        lines = conforming_graph.read_text().splitlines(keepends=True)
        victim = next(i for i, l in enumerate(lines) if "P100018" in l)
        broken = tmp_path / "broken.nt"
        broken.write_text("".join(lines[:victim] + lines[victim + 1 :]))
        code, stdout, _ = run(capsys, "validate", str(broken))
        assert code == 1
        assert len(stdout.splitlines()) == 1

    def test_two_graphs_are_merged_and_a_blank_focus_is_named_by_its_scoped_label(
        self, capsys, tmp_path, conforming_graph
    ):
        patient = "<http://purl.obolibrary.org/obo/NCIT_C16960>"
        typed = f"_:b0 <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> {patient} .\n"
        second = tmp_path / "second.nt"
        second.write_text(typed)
        code, stdout, _ = run(capsys, "validate", str(conforming_graph), str(second))
        assert code == 1
        lines = stdout.splitlines()
        # the blank patient holds none of the four required edges
        assert len(lines) == 4
        assert all(line.startswith(f"_:f2_b0\t{patient}\t") for line in lines)
        assert lines[0].endswith("expected at least 1 conforming value(s), found 0")

    def test_malformed_ntriples_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://e.org/s> <http://e.org/p> .\n")
        code, _, stderr = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error" in stderr

    def test_custom_shapes_file(self, capsys, tmp_path, conforming_graph):
        shapes = tmp_path / "shapes.tsv"
        shapes.write_text("ncit:C16960\troo:P100027\tliteral(xsd:integer)\t1\t1\n")
        code, stdout, _ = run(
            capsys, "validate", str(conforming_graph), "--shapes", str(shapes)
        )
        assert code == 0 and stdout == ""

    def test_shapes_file_with_a_bom_and_a_comment(self, capsys, tmp_path, conforming_graph):
        shapes = tmp_path / "shapes.tsv"
        shapes.write_text(
            "\ufeff# patients\r\nncit:C16960\troo:P100027\tliteral(xsd:integer)\t2\t2\r\n",
            encoding="utf-8",
            newline="",
        )
        code, stdout, stderr = run(
            capsys, "validate", str(conforming_graph), "--shapes", str(shapes)
        )
        assert code == 1, stderr
        assert len(stdout.splitlines()) == 6  # one per patient: one age, not two

    @pytest.mark.parametrize(
        "bad",
        [
            "ncit:C16960\troo:P100027\tliteral(xsd:integer)\tx\t1",
            "C16960\troo:P100027\tliteral(xsd:integer)\t1\t1",
        ],
    )
    def test_malformed_shapes_file_exits_2(self, capsys, tmp_path, conforming_graph, bad):
        shapes = tmp_path / "shapes.tsv"
        shapes.write_text(bad + "\n")
        code, stdout, stderr = run(
            capsys, "validate", str(conforming_graph), "--shapes", str(shapes)
        )
        assert code == 2 and stdout == ""
        assert "cannot load shapes: shapes line 1:" in stderr


class TestQuery:
    def _graphs(self, tmp_path):
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(bundled_mapping_text())
        paths = []
        for prefix, seed in (("A", 1), ("B", 2)):
            synth_dir = tmp_path / f"tables{prefix}"
            assert main(["synth", str(synth_dir), "--n", "3", "--seed", str(seed)]) == 0
            # namespace the IDs so the two centres stay disjoint
            for name in ("PATIENT", "TREATMENT"):
                f = synth_dir / f"{name}.csv"
                lines = f.read_text().splitlines()
                header = lines[0].split(",")
                rows = [line.split(",") for line in lines[1:]]
                for row in rows:
                    for i, col in enumerate(header):
                        if col in ("ID", "PATIENT_ID"):
                            row[i] = prefix + row[i]
                f.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")
            out = tmp_path / f"centre{prefix}.nt"
            assert (
                main(
                    [
                        "convert",
                        str(mapping),
                        str(synth_dir / "PATIENT.csv"),
                        str(synth_dir / "TREATMENT.csv"),
                        "-o",
                        str(out),
                    ]
                )
                == 0
            )
            paths.append(out)
        return paths

    def test_unified_patient_count(self, capsys, tmp_path):
        a, b = self._graphs(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(
            capsys,
            "query",
            str(a),
            str(b),
            "--query",
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "PREFIX ncit: <http://purl.obolibrary.org/obo/NCIT_> "
            "SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }",
        )
        assert code == 0
        assert stdout.splitlines() == ["?n", '"6"^^<http://www.w3.org/2001/XMLSchema#integer>']

    def test_empty_result_header_only(self, capsys, tmp_path):
        a, _ = self._graphs(tmp_path)
        capsys.readouterr()
        code, stdout, _ = run(
            capsys,
            "query",
            str(a),
            "--query",
            "PREFIX e: <http://nothing.org/> SELECT ?x WHERE { ?x e:absent ?y . }",
        )
        assert code == 0
        assert stdout == "?x\n"

    def test_syntax_error_exits_2(self, capsys, tmp_path):
        a, _ = self._graphs(tmp_path)
        capsys.readouterr()
        code, _, stderr = run(capsys, "query", str(a), "--query", "SELECT ?x WHERE {")
        assert code == 2
        assert "line" in stderr

    def test_filter_on_a_term_of_another_kind_drops_its_row(self, capsys):
        # ?o is an IRI in some triples, and an IRI has no order against a
        # number: those rows are dropped, and the command succeeds
        text = "SELECT ?s WHERE { ?s ?p ?o . FILTER(?o > 5) }"
        code, stdout, stderr = run(capsys, "query", str(CASE01 / "expected.nt"), "--query", text)
        graph = parse_ntriples((CASE01 / "expected.nt").read_text())
        want = brute_force_solution(graph, parse_query(text))
        assert want and (code, stderr) == (0, "")
        assert stdout == "?s\n" + "".join(s.to_ntriples() + "\n" for (s,) in want)

    def test_query_file(self, capsys, tmp_path):
        a, _ = self._graphs(tmp_path)
        qfile = tmp_path / "q.rq"
        qfile.write_text(
            "PREFIX roo: <http://www.cancerdata.org/roo/> "
            "SELECT (COUNT(*) AS ?n) WHERE { ?p roo:P100039 ?t . }"
        )
        capsys.readouterr()
        code, stdout, _ = run(capsys, "query", str(a), "--query-file", str(qfile))
        assert code == 0 and stdout.startswith("?n\n")


class TestQueryAcrossFiles:
    def test_blank_node_labels_are_scoped_per_file(self, capsys, tmp_path):
        paths = []
        for name in ("a.nt", "b.nt"):
            path = tmp_path / name
            path.write_text('_:b0 <http://ex.org/p> "x" .\n')
            paths.append(str(path))
        count = "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://ex.org/p> ?o . }"
        code, stdout, _ = run(capsys, "query", *paths, "--query", count)
        assert code == 0
        assert stdout.splitlines()[1] == '"2"^^<http://www.w3.org/2001/XMLSchema#integer>'
        subjects = "SELECT ?s WHERE { ?s <http://ex.org/p> ?o . }"
        _, stdout, _ = run(capsys, "query", *paths, "--query", subjects)
        assert stdout.splitlines() == ["?s", "_:f1_b0", "_:f2_b0"]
        # one file keeps its labels as written
        _, stdout, _ = run(capsys, "query", paths[0], "--query", subjects)
        assert stdout.splitlines() == ["?s", "_:b0"]
        code, stdout, _ = run(capsys, "stats", *paths)
        assert code == 0 and stdout.splitlines()[0] == "triples\t2"

    @pytest.mark.parametrize("command", ["validate", "query", "stats"])
    def test_one_file_is_used_as_parsed_without_a_merge(
        self, capsys, tmp_path, monkeypatch, command
    ):
        path = tmp_path / "g.nt"
        path.write_text('<http://ex.org/a> <http://ex.org/p> "x" .\n')
        merged = []
        monkeypatch.setattr(cli, "merge", lambda graphs: merged.append(graphs))
        argv = {"validate": [], "stats": [], "query": ["--query", "SELECT ?s WHERE { ?s ?p ?o . }"]}
        code, stdout, _ = run(capsys, command, str(path), *argv[command])
        assert code == 0 and merged == []
        if command == "query":
            assert stdout.splitlines() == ["?s", "<http://ex.org/a>"]
        if command == "stats":
            assert stdout.splitlines()[0] == "triples\t1"

    def test_blank_free_files_are_loaded_as_parsed(self, tmp_path, monkeypatch):
        texts = ['<http://ex.org/a> <http://ex.org/p> "x" .\n', "_:x <http://ex.org/q> _:y .\n"]
        paths = []
        for i, text in enumerate(texts * 2):
            paths.append(tmp_path / f"{i}.nt")
            paths[-1].write_text(text)
        parsed = []

        def parse(text):
            parsed.append(parse_ntriples(text))
            return parsed[-1]

        monkeypatch.setattr(cli, "parse_ntriples", parse)
        loaded = cli._load_graphs([str(paths[0]), str(paths[2])])
        assert all(map(operator.is_, loaded, parsed))
        loaded = cli._load_graphs([str(paths[0]), str(paths[1]), str(paths[3])])
        assert loaded[0] is parsed[2] and parsed[3] is not loaded[1]
        assert [serialize_ntriples(g) for g in loaded] == [
            texts[0],
            "_:f2_x <http://ex.org/q> _:f2_y .\n",
            "_:f3_x <http://ex.org/q> _:f3_y .\n",
        ]

    def test_explain_prints_the_plan_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "g.nt"
        path.write_text(
            "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n"
            "<http://ex.org/b> <http://ex.org/p> <http://ex.org/c> .\n"
            '<http://ex.org/b> <http://ex.org/q> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
        )
        text = (
            "PREFIX e: <http://ex.org/> SELECT ?x ?n WHERE "
            "{ ?x e:p ?y . ?y e:q ?n . FILTER(?n >= 1) }"
        )
        code, stdout, stderr = run(capsys, "query", str(path), "--query", text, "--explain")
        assert code == 0
        assert stdout == execute(parse_ntriples(path.read_text()), parse_query(text)).to_tsv()
        assert json.loads(stderr) == {
            "steps": [
                {"pattern": "?y <http://ex.org/q> ?n", "estimate": 1, "access": "p", "rows": 1},
                # bound ?y: 3 triples over 3 objects
                {"pattern": "?x <http://ex.org/p> ?y", "estimate": 1.0, "access": "o", "rows": 1},
            ]
        }
        _, again, stderr_again = run(capsys, "query", str(path), "--query", text, "--explain")
        assert (again, stderr_again) == (stdout, stderr)
        _, plain, quiet = run(capsys, "query", str(path), "--query", text)
        assert (plain, quiet) == (stdout, "")


class TestGraphFilesInANewProcess:
    """Graph files read by `python -m triplify`, as by the installed script."""

    def test_a_lone_cr_ends_a_line_and_a_comment(self, tmp_path):
        graph = tmp_path / "cr.nt"
        lines = [
            "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> . # one",
            "# a comment",
            '<http://ex.org/b> <http://ex.org/p> "2" .',
        ]
        graph.write_bytes("".join(line + "\r" for line in lines).encode("utf-8"))
        stats = run_module(["stats", str(graph)])
        assert stats.returncode == 0, stats.stderr
        assert "triples\t2" in stats.stdout.splitlines()

    def test_a_non_ascii_blank_label_reads_and_a_cr_is_written_back_escaped(self, tmp_path):
        graph = tmp_path / "cafe.nt"
        graph.write_bytes('_:café <http://ex.org/p> "x\\r\\ny" .\n'.encode("utf-8"))
        stats = run_module(["stats", str(graph)])
        assert stats.returncode == 0, stats.stderr
        assert "triples\t1" in stats.stdout.splitlines()
        query = run_module(
            ["query", str(graph), "--query", "SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o . }"]
        )
        assert query.returncode == 0, query.stderr
        assert '_:café\t"x\\r\\ny"' in query.stdout.splitlines()

    def test_two_files_that_say_x_name_two_nodes_under_two_hash_seeds(self, tmp_path):
        paths = []
        for i in (1, 2):
            path = tmp_path / f"x{i}.nt"
            path.write_bytes(
                f"_:x <{RDF_TYPE.value}> <http://ex.org/C> .\n"
                f'_:x <http://ex.org/p> "{i}" .\n'.encode("utf-8")
            )
            paths.append(str(path))
        select = "SELECT ?s WHERE { ?s a <http://ex.org/C> . }"
        outputs = []
        for seed in (1, 2):
            query = run_module(["query", *paths, "--query", select], hash_seed=seed)
            stats = run_module(["stats", *paths], hash_seed=seed)
            assert query.returncode == stats.returncode == 0, query.stderr + stats.stderr
            outputs.append((query.stdout, stats.stdout))
        assert outputs[0] == outputs[1]
        subjects, stats = outputs[0]
        blanks = {line for line in subjects.splitlines()[1:] if line.startswith("_:")}
        assert len(blanks) == 2
        assert "class\t<http://ex.org/C>\t2" in stats.splitlines()


class TestEveryCommandInANewProcess:
    """`python -m triplify` through synth, convert, validate, query and
    stats, as by the installed script, on 40 synthetic patients plus one
    with a NULL age and three treatment rows with an impossible date."""

    EXPLAIN = (
        "SELECT ?p ?age WHERE { ?p a ncit:C16960 . ?p roo:P100027 ?age . "
        "?p roo:P100039 ?t . FILTER(?age >= 50) }"
    )

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        """The directory holding mapping.ttl and tables/, and graph<seed>.nt
        and skipped<seed>.tsv from `convert` under hash seeds 1 and 2."""
        work = tmp_path_factory.mktemp("commands")
        tables = work / "tables"
        synth = run_module(["synth", str(tables), "--n", "40", "--seed", "1"])
        assert synth.returncode == 0, synth.stderr
        with open(tables / "PATIENT.csv", "a", encoding="utf-8") as f:
            f.write("999,,C16576,C12420\n")
        with open(tables / "TREATMENT.csv", "a", encoding="utf-8") as f:
            for treatment in ("T999", "T998", "T997"):
                f.write(f"{treatment},999,2021-02-30,photon,C104914\n")
        (work / "mapping.ttl").write_text(bundled_mapping_text(), encoding="utf-8")
        for seed in (1, 2):
            argv = self.convert_argv(work, "mapping.ttl")
            argv += ["-o", str(work / f"graph{seed}.nt")]
            argv += ["--skipped-log", str(work / f"skipped{seed}.tsv")]
            convert = run_module(argv, hash_seed=seed)
            assert convert.returncode == 0, convert.stderr
        return work

    @staticmethod
    def convert_argv(work, mapping, tables=("PATIENT", "TREATMENT")):
        csv = [str(work / "tables" / f"{table}.csv") for table in tables]
        return ["convert", str(work / mapping), *csv]

    def test_a_mapping_column_the_table_lacks_exits_1_and_names_it(self, work, tmp_path):
        # the check runs before a row is read: no output file is written
        text = bundled_mapping_text()
        assert text.count('rr:column "AGE"') == 1
        mapping = tmp_path / "ages.ttl"
        mapping.write_text(text.replace('rr:column "AGE"', 'rr:column "AGES"'), encoding="utf-8")
        out = tmp_path / "ages.nt"
        argv = ["convert", str(mapping), *self.convert_argv(work, "mapping.ttl")[2:]]
        result = run_module(argv + ["-o", str(out)])
        assert result.returncode == 1
        assert not out.exists()
        assert "object map references column 'AGES' absent from table 'PATIENT'" in result.stderr

    def test_convert_is_the_same_under_two_hash_seeds(self, work):
        for name in ("graph{}.nt", "skipped{}.tsv"):
            assert (work / name.format(1)).read_bytes() == (work / name.format(2)).read_bytes()

    def test_four_skips_and_a_repeated_bad_date_logged_on_every_row_in_row_order(self, work):
        log = (work / "skipped1.tsv").read_text(encoding="utf-8")
        skips = [line.split("\t") for line in log.splitlines()]
        assert len(skips) == 4
        treatments = (work / "tables" / "TREATMENT.csv").read_text(encoding="utf-8")
        rows = len(treatments.splitlines()) - 1
        dates = [(int(row), column) for _, row, column, _ in skips if column == "RT_START_DATE"]
        assert dates == [(n, "RT_START_DATE") for n in range(rows - 2, rows + 1)], skips

    def test_validate_finds_the_null_age_and_the_three_dates_under_two_hash_seeds(self, work):
        argv = ["validate", str(work / "graph1.nt")]
        runs = [run_module(argv, hash_seed=seed) for seed in (1, 2)]
        assert [r.returncode for r in runs] == [1, 1], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        lines = runs[0].stdout.splitlines()
        assert len(lines) == 4
        assert sum("roo/P100027>" in line for line in lines) == 1
        assert sum("roo/P100041>" in line for line in lines) == 3

    def test_count_query(self, work):
        count = "SELECT (COUNT(*) AS ?n) WHERE { ?p a ncit:C16960 . }"
        query = run_module(["query", str(work / "graph1.nt"), "--query", count])
        assert query.returncode == 0, query.stderr
        assert query.stdout.splitlines()[1] == '"41"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_explain_is_the_same_under_two_hash_seeds(self, work):
        argv = ["query", str(work / "graph1.nt"), "--explain", "--query", self.EXPLAIN]
        runs = [run_module(argv, hash_seed=seed) for seed in (1, 2)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)
        assert json.loads(runs[0].stderr)["steps"]

    def test_stats(self, work):
        stats = run_module(["stats", str(work / "graph1.nt")])
        assert stats.returncode == 0, stats.stderr
        patients = "class\t<http://purl.obolibrary.org/obo/NCIT_C16960>\t41"
        assert patients in stats.stdout.splitlines()

    def test_the_bundled_mapping_with_crlf_line_ends_converts_unchanged(self, work):
        crlf = bundled_mapping_text().replace("\n", "\r\n")
        (work / "crlf.ttl").write_text(crlf, encoding="utf-8", newline="")
        convert = run_module([*self.convert_argv(work, "crlf.ttl"), "-o", str(work / "crlf.nt")])
        assert convert.returncode == 0, convert.stderr
        assert (work / "crlf.nt").read_bytes() == (work / "graph1.nt").read_bytes()

    def test_a_cr_only_mapping_names_the_line_of_its_unknown_prefix(self, work):
        lines = [
            "@prefix rr: <http://www.w3.org/ns/r2rml#> .",
            "# line 2",
            'nope:M rr:logicalTable [ rr:tableName "PATIENT" ] .',
        ]
        (work / "cr.ttl").write_text("".join(line + "\r" for line in lines), newline="")
        convert = run_module(self.convert_argv(work, "cr.ttl", ["PATIENT"]))
        assert convert.returncode == 2
        assert "line 3" in convert.stderr


class TestSynth:
    def test_deterministic_files(self, capsys, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["synth", str(d1), "--n", "50", "--seed", "1"]) == 0
        assert main(["synth", str(d2), "--n", "50", "--seed", "1"]) == 0
        for name in ("PATIENT.csv", "TREATMENT.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_zero_patients_header_only(self, capsys, tmp_path):
        d = tmp_path / "zero"
        assert main(["synth", str(d), "--n", "0"]) == 0
        assert (d / "PATIENT.csv").read_text() == "ID,AGE,SEX,TUMOUR_SITE\n"
        assert (
            d / "TREATMENT.csv"
        ).read_text() == "ID,PATIENT_ID,RT_START_DATE,MODALITY,MODALITY_CODE\n"

    def test_negative_count_exits_2_and_writes_nothing(self, capsys, tmp_path):
        d = tmp_path / "negative"
        code, stdout, stderr = run(capsys, "synth", str(d), "--n", "-1")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and "--n" in stderr
        assert not d.exists()

    def test_unwritable_directory_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, stderr = run(capsys, "synth", str(blocker), "--n", "1")
        assert code == 2
        assert "error" in stderr

    def test_synth_convert_validate_chain(self, capsys, tmp_path):
        d = tmp_path / "chain"
        assert main(["synth", str(d), "--n", "12", "--seed", "5"]) == 0
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(bundled_mapping_text())
        graph = tmp_path / "chain.nt"
        assert (
            main(
                [
                    "convert",
                    str(mapping),
                    str(d / "PATIENT.csv"),
                    str(d / "TREATMENT.csv"),
                    "-o",
                    str(graph),
                ]
            )
            == 0
        )
        assert main(["validate", str(graph)]) == 0


class TestStats:
    def test_stats_shape(self, capsys, tmp_path):
        d = tmp_path / "tables"
        assert main(["synth", str(d), "--n", "4", "--seed", "8"]) == 0
        mapping = tmp_path / "mapping.ttl"
        mapping.write_text(bundled_mapping_text())
        graph = tmp_path / "g.nt"
        assert (
            main(
                [
                    "convert",
                    str(mapping),
                    str(d / "PATIENT.csv"),
                    str(d / "TREATMENT.csv"),
                    "-o",
                    str(graph),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code, stdout, _ = run(capsys, "stats", str(graph))
        assert code == 0
        lines = stdout.splitlines()
        assert any(l.startswith("class\t") and "C16960" in l and l.endswith("\t4") for l in lines)
        g = parse_ntriples(graph.read_text(encoding="utf-8"))
        category_of = predicate_categories()
        classes, categories = Counter(), Counter()
        for t in g:
            if t.p == RDF_TYPE:
                classes[t.o.to_ntriples()] += 1
            categories[category_of.get(t.p)] += 1
        want = [f"triples\t{len(g)}"]
        want += [f"class\t{c}\t{classes[c]}" for c in sorted(classes)]
        want += [
            f"category\t{name}\t{categories[name]}"
            for name in ("demographic", "tumour", "treatment", "core")
        ]
        assert lines == want


class TestUndecodableInput:
    QUERY = "SELECT ?s WHERE { ?s ?p ?o . }"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["convert", "BAD", str(CASE01 / "PATIENT.csv")], "cannot load mapping"),
            (["convert", str(CASE01 / "mapping.ttl"), "--table", "PATIENT=BAD"],
             "cannot load tables"),
            (["validate", "BAD"], "cannot load graph"),
            (["validate", str(CASE01 / "expected.nt"), "--shapes", "BAD"],
             "cannot load shapes"),
            (["query", str(CASE01 / "expected.nt"), "--query-file", "BAD"], "bad query"),
            (["query", "BAD", "--query", QUERY], "cannot load graph"),
            (["stats", "BAD"], "cannot load graph"),
        ],
        ids=["convert-mapping", "convert-csv", "validate-graph", "validate-shapes",
             "query-file", "query-graph", "stats-graph"],
    )
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, argv, message):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe<http://e.org/s> <http://e.org/p> <http://e.org/o> .\n")
        argv = [a.replace("BAD", str(bad)) for a in argv]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {message}: {bad}: not UTF-8 text: byte 0")


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["convert", "--frobnicate"])
        assert err.value.code == 2

    def test_help_available_everywhere(self, capsys):
        for sub in ("convert", "validate", "query", "synth", "stats"):
            with pytest.raises(SystemExit) as err:
                main([sub, "--help"])
            assert err.value.code == 0
            assert sub in capsys.readouterr().out


# a registry patient with neither age nor sex: two shape violations
PATIENT_WITHOUT_EDGES = (
    "<https://data.example.org/registry/patient/1> "
    "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://purl.obolibrary.org/obo/NCIT_C16960> .\n"
)


class TestClosedStdout:
    """A reader that has gone away, as in `triplify stats g.nt | head -1`."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "GRAPH"],
            ["query", "GRAPH", "--query", "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }"],
            ["validate", "GRAPH"],
        ],
        ids=["stats", "query", "validate"],
    )
    def test_no_traceback_and_the_exit_code_of_an_open_pipe(self, tmp_path, argv):
        graph = tmp_path / "g.nt"
        graph.write_text(PATIENT_WITHOUT_EDGES)
        argv = [a.replace("GRAPH", str(graph)) for a in argv]
        open_pipe = run_module(argv)
        assert open_pipe.stdout  # there is something to write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            closed = run_module(argv, write_end)
        finally:
            os.close(write_end)
        assert "Traceback" not in closed.stderr
        assert "Exception ignored" not in closed.stderr
        assert closed.stderr == open_pipe.stderr
        assert closed.returncode == open_pipe.returncode
