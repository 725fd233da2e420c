import hashlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from grasspace import cli, projspace
from grasspace.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_PARSE,
    line_map_from_grassmap,
    main,
    parse_grassmap,
    serialize_grassmap,
)
from grasspace.errors import FormatError
from grasspace.grassmann import parse_graph
from grasspace.maps import LineMap
from grasspace.projspace import build_space
from grasspace.theorems import (
    InstanceGenerator,
    InstanceKind,
    generate_instance,
    verify_theorem2,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_pg32(capsys):
    code, out, _ = run(capsys, "stats", "-n", "3", "-q", "2")
    assert code == EXIT_OK
    assert out == "points 15\nlines 35\nstar 7\npencil 3\ndegree 18\n"


def test_stats_pg23(capsys):
    code, out, _ = run(capsys, "stats", "-n", "2", "-q", "3")
    assert code == EXIT_OK
    assert out == "points 13\nlines 13\nstar 4\npencil 4\ndegree 12\n"


@pytest.mark.parametrize("n,q", [(2, 4), (3, 3), (4, 2)])
def test_stats_reads_the_pencil_off_one_plane(capsys, monkeypatch, n, q):
    # The pencil at 0 comes from the plane of two lines through it, so the
    # plane table of the whole space is never built.
    def refuse(sp):
        raise AssertionError("stats built the plane table")

    monkeypatch.setattr(projspace, "_planes", refuse)
    code, out, _ = run(capsys, "stats", "-n", str(n), "-q", str(q))
    assert code == EXIT_OK
    assert f"\npencil {q + 1}\n" in out


def test_stats_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "stats", "-n", "1", "-q", "2")
    assert code == EXIT_PARAMS
    assert "error:" in err
    code, _, err = run(capsys, "stats", "-n", "2", "-q", "6")
    assert code == EXIT_PARAMS


def test_graph_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "graph", "-n", "3", "-q", "2")
    assert code == EXIT_OK
    assert out.startswith("GRAPH 35 315\n")
    v_count, edges = parse_graph(out)
    assert v_count == 35 and len(edges) == 315

    path = tmp_path / "g.graph"
    code, out, _ = run(capsys, "graph", "-n", "3", "-q", "2", "--out", str(path))
    assert code == EXIT_OK
    assert out == ""
    on_disk = path.read_text(encoding="utf-8")
    assert parse_graph(on_disk) == (v_count, edges)


def test_aut_pg32(capsys):
    code, out, _ = run(capsys, "aut", "-n", "3", "-q", "2")
    assert code == EXIT_OK
    assert out == "40320\n"


def test_aut_pg27_in_1596_nodes(capsys):
    # Every two lines of a plane meet, so its line graph is K_57.
    code, out, _ = run(capsys, "aut", "-n", "2", "-q", "7", "--budget", "1596")
    assert code == EXIT_OK
    assert out == f"{math.factorial(57)}\n"
    code, _, err = run(capsys, "aut", "-n", "2", "-q", "7", "--budget", "1595")
    assert code == EXIT_BUDGET
    assert "exceeded 1595 nodes" in err


def test_aut_budget_exhaustion(capsys):
    code, _, err = run(capsys, "aut", "-n", "3", "-q", "2", "--budget", "5")
    assert code == EXIT_BUDGET
    assert "exceeded 5 nodes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("aut", "-n", "3", "-q", "2", "--budget", "-1"),
        ("verify", "--suite", "chow", "-n", "3", "-q", "2", "--budget", "-3"),
    ],
)
def test_negative_budget_is_a_bad_parameter(capsys, argv):
    # Budget 0 stays valid; below it nothing was searched, so nothing ran out.
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PARAMS
    assert out == ""
    assert "node budget must be at least 0" in err


def test_aut_too_large(capsys, monkeypatch):
    # The cap is checked before the line graph is built.
    monkeypatch.setattr(cli, "build_grassmann", lambda sp: pytest.fail("graph built"))
    code, out, err = run(capsys, "aut", "-n", "4", "-q", "3")
    assert code == EXIT_PARAMS
    assert out == ""
    assert "1210 vertices exceeds the 700 limit" in err


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.grassmap"
    b = tmp_path / "b.grassmap"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "gen", "-n", "3", "-q", "2",
            "--kind", "collineation", "--seed", "17",
            "--out", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run(
        capsys, "gen", "-n", "3", "-q", "2", "--kind", "collineation", "--seed", "17"
    )
    assert code == EXIT_OK
    assert out.encode() == a.read_bytes()


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (("gen", "-n", "3", "-q", "2", "--kind", "collineation"), "ffa32222910bfa0a"),
        (("gen", "-n", "3", "-q", "2", "--kind", "duality"), "17bb1f6283198a0f"),
        (("gen", "-n", "3", "-q", "2", "--kind", "perturbed"), "11a148af0575395e"),
        (("gen", "-n", "3", "-q", "3", "--kind", "collineation"), "b737b3e69e007baa"),
        (("gen", "-n", "3", "-q", "3", "--kind", "duality"), "a8f90bb5b86ec948"),
        (("gen", "-n", "3", "-q", "3", "--kind", "perturbed"), "a8671901d237c691"),
        (("gen", "-n", "3", "-q", "4", "--kind", "collineation"), "30a28fd7993e2bab"),
        (("gen", "-n", "3", "-q", "4", "--kind", "duality"), "982ea260f6646fc5"),
        (("gen", "-n", "3", "-q", "4", "--kind", "perturbed"), "deaf9d0c84dd1d87"),
        (("gen", "-n", "3", "-q", "5", "--kind", "collineation"), "adf23c644e2c7496"),
        (("gen", "-n", "3", "-q", "5", "--kind", "duality"), "42236ff903ef9dfa"),
        (("gen", "-n", "3", "-q", "5", "--kind", "perturbed"), "ddab3f39ce123355"),
        (("gen", "-n", "4", "-q", "2", "--kind", "collineation"), "877765f39632e0d2"),
        (("gen", "-n", "4", "-q", "2", "--kind", "perturbed"), "8adb372c3ffa9d0a"),
        (("gen", "-n", "2", "-q", "9", "--kind", "collineation"), "30f70c5d1be1d313"),
        (("gen", "-n", "2", "-q", "9", "--kind", "perturbed"), "de72a0b171779a0b"),
        (("gen", "-n", "2", "-q", "16", "--kind", "collineation"), "c30e4862fb4167aa"),
        (("gen", "-n", "2", "-q", "16", "--kind", "perturbed"), "88bcf74b42d500cf"),
        (("gen", "-n", "2", "-q", "25", "--kind", "collineation"), "4a70d6e8952db30f"),
        (("gen", "-n", "2", "-q", "25", "--kind", "perturbed"), "4f9606079ff97179"),
        (("gen", "-n", "2", "-q", "27", "--kind", "collineation"), "34ce3146688c9f16"),
        (("gen", "-n", "2", "-q", "27", "--kind", "perturbed"), "9dd4346e42eaf914"),
        (("graph", "-n", "3", "-q", "2"), "86279664f4a5de42"),
        (("graph", "-n", "3", "-q", "3"), "bd2e06e5aa261550"),
    ],
)
def test_gen_and_graph_bytes_are_fixed(capsys, argv, prefix):
    # gen and graph output is an interchange contract: canonical ids and
    # seeded instances must not drift between versions.
    if argv[0] == "gen":
        argv += ("--seed", "5")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


@pytest.mark.parametrize(
    "n,q,prefix",
    [
        (3, 2, "9bde87f64c5f320d"),
        (3, 4, "489ff970d4352b41"),
        (2, 9, "3cf32e645f2f5ef6"),
        (4, 3, "c73a030ba0c0d3eb"),
        (3, 5, "4c7ab7a18ede8e30"),
    ],
)
def test_instance_population_bytes_are_fixed(n, q, prefix):
    # Seeds 0-49 of every kind fix the whole rejection-sampling stream: the
    # redrawn matrices, the automorphism draw and the perturbing swap.
    # Dualities exist only for n = 3.
    sp = build_space(n, q)
    h = hashlib.sha256()
    for kind in InstanceKind:
        if kind is InstanceKind.DUALITY and n != 3:
            continue
        for seed in range(50):
            lm = generate_instance(InstanceGenerator(seed, kind), sp, sp)
            h.update(serialize_grassmap(lm).encode())
    assert h.hexdigest()[:16] == prefix


def test_gen_seeds_differ(capsys):
    _, out0, _ = run(
        capsys, "gen", "-n", "3", "-q", "2", "--kind", "collineation", "--seed", "0"
    )
    _, out1, _ = run(
        capsys, "gen", "-n", "3", "-q", "2", "--kind", "collineation", "--seed", "1"
    )
    assert out0 != out1


def test_gen_and_verify_seeds_stay_in_64_bits(capsys):
    gen = ("gen", "-n", "3", "-q", "2", "--kind", "collineation", "--seed")
    verify = ("verify", "--suite", "thm1", "-n", "3", "-q", "2", "--samples", "1", "--seed")
    for argv, seed, code in [
        (gen, 0, EXIT_OK),
        (gen, 2**64 - 1, EXIT_OK),
        (gen, -1, EXIT_PARAMS),
        (gen, 2**64, EXIT_PARAMS),
        (verify, 0, EXIT_OK),
        (verify, 2**64 - 2, EXIT_OK),  # its duality block ends at 2**64 - 1
        (verify, 2**64 - 1, EXIT_PARAMS),
        (verify, -1, EXIT_PARAMS),
    ]:
        got, out, err = run(capsys, *argv, str(seed))
        assert got == code, (argv[0], seed)
        assert (out == "") == (code == EXIT_PARAMS)
        assert ("error:" in err) == (code == EXIT_PARAMS)


def test_gen_duality_needs_dimension_three(capsys):
    code, _, err = run(
        capsys, "gen", "-n", "2", "-q", "3", "--kind", "duality"
    )
    assert code == EXIT_PARAMS
    assert "error:" in err


def test_gen_header_shape(capsys):
    _, out, _ = run(
        capsys, "gen", "-n", "3", "-q", "2", "--kind", "duality", "--seed", "4"
    )
    rows = out.split("\n")
    assert rows[0] == "GRASSMAP 1"
    assert rows[1] == "SOURCE PG 3 2"
    assert rows[2] == "TARGET PG 3 2 DUAL"
    assert rows[3] == "MAP"
    assert rows[39] == "END"
    assert rows[40] == ""


def test_check_collineation_instance(tmp_path, capsys):
    path = tmp_path / "c.grassmap"
    run(
        capsys,
        "gen", "-n", "3", "-q", "2", "--kind", "collineation", "--seed", "3",
        "--out", str(path),
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert out == (
        "BIJECTIVE yes\n"
        "PRESERVES-INTERSECTIONS yes\n"
        "PRESERVES-SKEW yes\n"
        "KAPPA InducedIntoTarget Collineation\n"
    )


def test_check_duality_instance(tmp_path, capsys):
    path = tmp_path / "d.grassmap"
    run(
        capsys,
        "gen", "-n", "3", "-q", "2", "--kind", "duality", "--seed", "3",
        "--out", str(path),
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert "KAPPA InducedIntoDual Collineation\n" in out


def test_check_perturbed_instance(tmp_path, capsys):
    path = tmp_path / "p.grassmap"
    run(
        capsys,
        "gen", "-n", "3", "-q", "2", "--kind", "perturbed", "--seed", "0",
        "--out", str(path),
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_NEGATIVE
    assert "KAPPA - -\n" in out


def test_check_non_bijective_file(tmp_path, capsys):
    rows = ["GRASSMAP 1", "SOURCE PG 2 2", "TARGET PG 2 2", "MAP"]
    rows += [f"{i} 0" for i in range(7)]
    rows += ["END", ""]
    path = tmp_path / "const.grassmap"
    path.write_text("\n".join(rows), encoding="utf-8")
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_NEGATIVE
    assert out.startswith("BIJECTIVE no\n")
    assert "KAPPA - -\n" in out


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.grassmap"))
    assert code == EXIT_IO
    assert "error:" in err


def test_check_parse_error_carries_line_number(tmp_path, capsys):
    path = tmp_path / "bad.grassmap"
    path.write_text(
        "GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 za\nEND\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_PARSE
    assert "line 5" in err


def test_check_non_utf8_file_carries_line_number(tmp_path, capsys):
    path = tmp_path / "bad.grassmap"
    path.write_bytes(b"GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 \xff\nEND\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_PARSE
    assert "line 5" in err


@pytest.mark.parametrize("n,q", [(9, 9), (10**8, 2), (2, 10**1000)])
def test_check_size_guard(tmp_path, capsys, n, q):
    # A huge dimension or order is refused before its lines are counted.
    path = tmp_path / "huge.grassmap"
    path.write_text(
        f"GRASSMAP 1\nSOURCE PG {n} {q}\nTARGET PG 2 2\nMAP\nEND\n",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "check", str(path))
    assert code == EXIT_PARAMS
    assert "checking limit" in err


def test_verify_thm1_and_thm2(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "thm1", "-n", "3", "-q", "2", "--samples", "3",
    )
    assert code == EXIT_OK
    rows = out.strip().split("\n")
    assert rows == ["THM1.ab PASS", "THM1.c PASS", "THM1.d PASS"]

    code, out, _ = run(
        capsys,
        "verify", "--suite", "thm2", "-n", "3", "-q", "2", "--samples", "2",
    )
    assert code == EXIT_OK
    rows = out.strip().split("\n")
    assert rows[:4] == ["THM2.a PASS", "THM2.b PASS", "THM2.c PASS", "THM2.d PASS"]
    assert rows[4].startswith("THM2.equivalence PASS")


def test_verify_thm2_full_output(capsys):
    code, out, err = run(
        capsys,
        "verify", "--suite", "thm2", "-n", "3", "-q", "3", "--samples", "5",
        "--seed", "7",
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == (
        "THM2.a PASS\nTHM2.b PASS\nTHM2.c PASS\nTHM2.d PASS\n"
        "THM2.equivalence PASS\n"
    )


def test_verify_thm1_plane_space_runs_collineations_only(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "thm1", "-n", "2", "-q", "3", "--samples", "2",
    )
    assert code == EXIT_OK
    assert "THM1.ab PASS" in out


def test_plane_witness_needs_dimension_three(tmp_path, capsys):
    # In a plane every two lines meet, so a swap of two lines is bijective
    # and preserves intersections and, vacuously, skewness; yet no point map
    # induces it.  So Suites 1-2 need n >= 3; `verify -n 2` passes because
    # its population holds seeded collineations only.
    path = tmp_path / "plane.grassmap"
    run(
        capsys,
        "gen", "-n", "2", "-q", "3", "--kind", "perturbed", "--seed", "0",
        "--out", str(path),
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_NEGATIVE
    assert out == (
        "BIJECTIVE yes\n"
        "PRESERVES-INTERSECTIONS yes\n"
        "PRESERVES-SKEW yes\n"
        "KAPPA Mixed -\n"
    )
    lm = line_map_from_grassmap(parse_grassmap(path.read_text(encoding="utf-8")))
    rows = verify_theorem2(lm).render().split("\n")
    assert rows[-1] == "THM2.equivalence FAIL (False, True, False, True)"


def test_verify_thm3(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm3", "-n", "3", "-q", "2")
    assert code == EXIT_OK
    assert "THM3.a PASS" in out
    assert "THM3.b PASS" in out
    assert "THM3.c PASS" in out


def test_verify_chow(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chow", "-n", "3", "-q", "2")
    assert code == EXIT_OK
    rows = out.strip().split("\n")
    assert rows[0] == "graph_order 40320"
    assert rows[1] == "group_order 40320"
    assert any(r.startswith("CHOW.order_match PASS") for r in rows)


@pytest.mark.parametrize("suite", ["thm1", "thm2"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_empty_population(capsys, suite, samples):
    code, out, err = run(
        capsys,
        "verify", "--suite", suite, "-n", "3", "-q", "2", "--samples", samples,
    )
    assert code == EXIT_PARAMS
    assert out == ""
    assert "--samples must be at least 1" in err


def test_verify_chow_too_large(capsys):
    code, _, err = run(capsys, "verify", "--suite", "chow", "-n", "3", "-q", "5")
    assert code == EXIT_PARAMS
    assert "806 lines exceed the 700 limit" in err


def test_grassmap_round_trip(pg32):
    lm = LineMap(source=pg32, target=pg32, image=tuple((l * 3) % 35 for l in range(35)))
    text = serialize_grassmap(lm)
    gf = parse_grassmap(text)
    rebuilt = line_map_from_grassmap(gf)
    assert rebuilt.image == lm.image
    assert not rebuilt.dual
    assert serialize_grassmap(rebuilt) == text


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("GRASSMAP 2\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\nEND\n", 1),
        ("GRASSMAP 1\nSOURCE QG 2 2\nTARGET PG 2 2\nMAP\nEND\n", 2),
        ("GRASSMAP 1\nSOURCE PG 2 2 x\nTARGET PG 2 2\nMAP\nEND\n", 2),
        ("GRASSMAP 1\nSOURCE PG a 2\nTARGET PG 2 2\nMAP\nEND\n", 2),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2 XL\nMAP\nEND\n", 3),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAPS\nEND\n", 4),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 1\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n1 0\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 -1\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 1\n2 1\nEND\n", 6),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 1 2\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 +1\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 0_1\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 1\n01 1\nEND\n", 6),
        ("GRASSMAP 1\nSOURCE PG 02 2\nTARGET PG 2 2\nMAP\nEND\n", 2),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 \u0662\nMAP\nEND\n", 3),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n\u0660 1\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n\t0 1\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 1\r\nEND\n", 5),
        ("GRASSMAP 1\nSOURCE PG -2 2\nTARGET PG 2 2\nMAP\nEND\n", 2),
    ],
)
def test_parse_grassmap_rejects_malformed(text, lineno):
    with pytest.raises(FormatError) as err:
        parse_grassmap(text)
    assert err.value.lineno == lineno


def test_truncated_grassmap():
    with pytest.raises(FormatError):
        parse_grassmap("GRASSMAP 1\nSOURCE PG 2 2\n")


def test_dual_flag_requires_dimension_three():
    text = "GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2 DUAL\nMAP\n"
    text += "\n".join(f"{i} {i}" for i in range(7)) + "\nEND\n"
    gf = parse_grassmap(text)
    assert gf.dual
    with pytest.raises(FormatError) as err:
        line_map_from_grassmap(gf)
    assert err.value.lineno == 3


@pytest.mark.parametrize("kind", list(InstanceKind))
def test_dual_flags_survive_the_round_trip(pg32, kind):
    lm = generate_instance(InstanceGenerator(4, kind), pg32, pg32)
    text = serialize_grassmap(lm)
    assert ("DUAL" in text) == lm.dual == (kind is InstanceKind.DUALITY)
    back = line_map_from_grassmap(parse_grassmap(text))
    assert (back.image, back.dual) == (lm.image, lm.dual)
    assert serialize_grassmap(back) == text


def test_row_count_and_range_validation():
    text = "GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n0 0\nEND\n"
    with pytest.raises(FormatError) as err:
        line_map_from_grassmap(parse_grassmap(text))
    assert "map rows" in str(err.value)
    rows = [f"{i} {i}" for i in range(6)] + ["6 99"]
    text = (
        "GRASSMAP 1\nSOURCE PG 2 2\nTARGET PG 2 2\nMAP\n"
        + "\n".join(rows)
        + "\nEND\n"
    )
    with pytest.raises(FormatError) as err:
        line_map_from_grassmap(parse_grassmap(text))
    assert err.value.lineno == 11
    assert "out of range" in str(err.value)


@given(perm=st.permutations(list(range(7))))
@settings(max_examples=30, deadline=None)
def test_grassmap_round_trip_random_permutations(perm):
    sp = build_space(2, 2)
    lm = LineMap(source=sp, target=sp, image=tuple(perm))
    text = serialize_grassmap(lm)
    rebuilt = line_map_from_grassmap(parse_grassmap(text))
    assert rebuilt.image == lm.image
    assert serialize_grassmap(rebuilt) == text


@pytest.mark.parametrize("kind", ["collineation", "duality", "perturbed"])
def test_check_builds_no_line_graph(tmp_path, capsys, monkeypatch, kind):
    # Both preservation verdicts and reconstruction read cliques off their
    # holders, so check neither calls the graph builder nor leaves a graph.
    path = tmp_path / "m.grassmap"
    run(capsys, "gen", "-n", "3", "-q", "3", "--kind", kind, "--out", str(path))
    monkeypatch.setattr(cli, "build_grassmann", lambda sp: pytest.fail("graph built"))
    built = []

    def fresh_space(n, q):
        built.append(projspace._build_space(n, q))
        return built[-1]

    monkeypatch.setattr(cli, "build_space", fresh_space)
    code, out, _ = run(capsys, "check", str(path))
    assert code == (EXIT_NEGATIVE if kind == "perturbed" else EXIT_OK)
    assert out.startswith("BIJECTIVE yes\n")
    assert len(built) == 2 and all(sp._grassmann is None for sp in built)
