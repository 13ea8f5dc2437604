import hashlib
import json
import sys
from pathlib import Path

from hgpoly.cli import main
from hgpoly.constructs import covers_of, enumerate_constructs
from hgpoly.corpus import corpus_raw
from hgpoly.graphs import Graph, incidence_hypergraph
from hgpoly.homology import dense, verify_complex
from hgpoly.minimodel import boundary_of_basis

CORPUS = Path(__file__).resolve().parents[1] / "src" / "hgpoly" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def path(name):
    return str(CORPUS / name)


def test_constructs_count(capsys):
    code, out, _ = run(capsys, "hg", "constructs", path("hg_pentagon.json"), "--count")
    assert code == 0
    assert json.loads(out) == {"by_rank": [5, 5, 1], "total": 11}


def test_constructs_listing_rank_filter(capsys):
    code, out, _ = run(
        capsys, "hg", "constructs", path("hg_pentagon.json"), "--rank", "0"
    )
    assert code == 0
    assert len(json.loads(out)) == 5


def test_hg_check(capsys):
    code, out, _ = run(capsys, "hg", "check", path("hg_hexagon.json"))
    assert code == 0
    data = json.loads(out)
    assert data["connected"] and data["vertices"] == 3


def test_hg_poset_formats(capsys):
    code, out, _ = run(capsys, "hg", "poset", path("hg_segment.json"))
    assert code == 0
    assert len(json.loads(out)["faces"]) == 3
    code, out, _ = run(
        capsys, "hg", "poset", path("hg_segment.json"), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")


def test_hg_poset_over_capacity_reports_counts(capsys):
    code, out, _ = run(
        capsys, "hg", "poset", path("hg_pentagon.json"), "--max-faces", "2"
    )
    assert code == 0
    assert json.loads(out) == {"capped": True, "by_rank": [5, 5, 1], "total": 11}


def test_hg_diamond(capsys):
    code, out, _ = run(capsys, "hg", "diamond", path("hg_hexagon.json"))
    assert code == 0
    assert json.loads(out) == {"diamond": True}


def test_hg_realize_verified(capsys):
    code, out, _ = run(
        capsys,
        "hg",
        "realize",
        path("hg_hexagon.json"),
        "--game",
        "loday",
        "--verify-brute-force",
    )
    assert code == 0
    data = json.loads(out)
    assert data["verification"] == {"brute_force_agrees": True, "num_vertices": 6}
    assert len(data["vertices"]) == 6


def test_hg_realize_brute_force_violation_exits_two(capsys, monkeypatch):
    import hgpoly.games

    monkeypatch.setattr(hgpoly.games, "brute_force_vertices", lambda rep: ())
    code, _, err = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        "loday",
        "--verify-brute-force",
    )
    assert code == 2
    assert "witness" in err


def test_graph_validate(capsys):
    code, out, _ = run(capsys, "graph", "validate", path("graph_multiloop.json"))
    assert code == 0
    data = json.loads(out)
    assert data["internal_edges"] == ["u", "v", "x", "y", "z"]
    assert data["b1"] == 3


def test_graph_hyper(capsys):
    code, out, _ = run(capsys, "graph", "hyper", path("graph_theta.json"))
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["a", "b", "c"]
    assert len(data["hyperedges"]) == 6


def test_graph_gtrees_count(capsys):
    code, out, _ = run(capsys, "graph", "gtrees", path("graph_theta.json"), "--count")
    assert code == 0
    assert json.loads(out)["total"] == 13


def test_model_homology(capsys):
    code, out, _ = run(capsys, "model", "homology", path("graph_theta.json"))
    assert code == 0
    data = json.loads(out)
    assert data["betti"] == [1, 0, 0]
    assert data["d_squared_zero"] is True


def test_model_boundary_matrix_and_triplets(capsys):
    code, out, _ = run(
        capsys, "model", "boundary", path("graph_line3.json"), "--rank", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["tag"]["sign_convention"] == "default"
    assert data["matrices"]["1"] == [["1"], ["-1"]] or data["matrices"]["1"] == [
        ["-1"],
        ["1"],
    ]
    code, out, _ = run(
        capsys, "model", "boundary", path("graph_line3.json"), "--format", "triplet"
    )
    assert code == 0
    assert set(out.strip().splitlines()) == {"1 0 0 1", "1 1 0 -1"}


def test_model_boundary_alt_convention(capsys):
    code, out, _ = run(
        capsys,
        "model",
        "boundary",
        path("graph_line3.json"),
        "--sign-convention",
        "alt",
    )
    assert code == 0
    data = json.loads(out)
    assert data["tag"]["sign_convention"] == "alt"


def test_model_check(capsys):
    code, out, _ = run(capsys, "model", "check", path("graph_line4.json"))
    assert code == 0
    data = json.loads(out)
    assert all(
        data[k]
        for k in (
            "d_squared_zero",
            "support_plus_minus_one",
            "diamond_signs",
            "chain_map",
            "alpha_roundtrip",
        )
    )


def test_variants_classify_with_genus(capsys, tmp_path):
    raw = corpus_raw("graph", "line3")
    raw["genus"] = {"1": 1, "2": 0, "3": 2}
    target = tmp_path / "graded.json"
    target.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "variants", "classify", str(target))
    assert code == 0
    assert json.loads(out)["genus"] == 3


def test_exit_codes(capsys):
    code, _, _ = run(capsys, "hg", "check", "/nonexistent.json")
    assert code == 1
    code, _, _ = run(capsys, "bogus")
    assert code == 64
    code, _, _ = run(capsys, "hg")
    assert code == 64


def test_determinism(capsys):
    _, first, _ = run(capsys, "model", "homology", path("graph_line4.json"))
    _, second, _ = run(capsys, "model", "homology", path("graph_line4.json"))
    assert first == second
    _, p1, _ = run(capsys, "hg", "poset", path("hg_pentagon.json"))
    _, p2, _ = run(capsys, "hg", "poset", path("hg_pentagon.json"))
    assert p1 == p2


def test_invalid_graph_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": ["1"],
                "flags": {"1": ["a", "b", "c"]},
                "involution": [["a", "b"], ["b", "c"]],
                "legs": [],
            }
        )
    )
    code, _, err = run(capsys, "graph", "validate", str(bad))
    assert code == 1
    assert "involution" in err


# sha256 of stdout for `model boundary`, `model boundary --format triplet`,
# `model homology` and `model check` on every corpus graph with at most 5
# internal edges.  The first three were recorded from the dense-Fraction
# implementation, the `model check` digests from the handler that enumerated
# the constructs once per statement; the current code must print the same
# bytes.
OUTPUT_SHA256 = {
    "edge": (
        "2afcfe0c705d8dc5198c5ae6a32a14c11cf9a9a554e8efe9ea389aea01f5fb25",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "95e5b9ddc066a4bf7dbbcbf5d4eb475d3f7161b331c123f730565cde2445e02d",
        "d7687a3aeebb0b1ff4003267191826e2644acc5cdb810facbaa304fd03f84360",
    ),
    "loop": (
        "b112277c5fcf4dc5499bc71571a4507db7419dcf45da23758b28c5357421c76d",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "f633197169311bd176949a18cd2b54b9e11dd372205b482401444e95fee3141d",
        "d7687a3aeebb0b1ff4003267191826e2644acc5cdb810facbaa304fd03f84360",
    ),
    "cherry_increasing": (
        "bec27b6f0ca10a62f64315a3700c4ac66371593aca7f3531db54920f97ebf996",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "2e34be689ac8d6e1d10c3d4cb5d69434f881439fc14790ac76df1000e4e4e78f",
        "d7687a3aeebb0b1ff4003267191826e2644acc5cdb810facbaa304fd03f84360",
    ),
    "cherry_decreasing": (
        "0f8680d6a86f8bc3695ab58f76a2deccb92f18f1b4297bbd818a2d619f33c3bd",
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "c363d13e94d5c4d521b851e5d723a60c374fc0ab7bece086020a5618eb74192f",
        "d7687a3aeebb0b1ff4003267191826e2644acc5cdb810facbaa304fd03f84360",
    ),
    "line3": (
        "c36afe2b060a21cfa6d0ba4035ddb734f8d48972fef6f77f7720b1df53288a46",
        "240314b8066028f418d5ed813340744c688891c3dd0b590f75211fafb8da649f",
        "74f9672b1438e4cf34c74d8e9b3a3f888b0cc2d01b975c41925ee360b2121d04",
        "8b11d394ec5d25f25cf014e890a2ffb2bc703e886e6343b8acd83a69fc23fa2e",
    ),
    "fragile_root": (
        "c486e6333edd6a9947838f277e281dd72ccfec071796c7455cc4dd2010332993",
        "240314b8066028f418d5ed813340744c688891c3dd0b590f75211fafb8da649f",
        "4a6ef41a351f61718160d62d864896143135aa2f049dd396536b0e8380262674",
        "8b11d394ec5d25f25cf014e890a2ffb2bc703e886e6343b8acd83a69fc23fa2e",
    ),
    "theta": (
        "b85037dd4cdb29c984803875834281f3f9f82b4a6743e4315a5c7d1c0f97e893",
        "095a79bed772af3c6465665d94f1f8588af7ff79bd73e0d0fb734513affa6bdd",
        "79f1aced0086efa7af46206afb00ef0e90ffeff10e042df83b32d0709ceec4f9",
        "3eac346e5e00c6fc21d593e6d93eb661c7563f38d66d2f692cf54f21e9921f27",
    ),
    "triangle": (
        "6207606fb9efe22b2e1c6164681857ff45701cc329518e40b7a0e79db84b5546",
        "095a79bed772af3c6465665d94f1f8588af7ff79bd73e0d0fb734513affa6bdd",
        "5ac21e83c090e20b5addf712577407928b07dfbb24e324bfac27b8843e834d99",
        "3eac346e5e00c6fc21d593e6d93eb661c7563f38d66d2f692cf54f21e9921f27",
    ),
    "line4": (
        "6b8f610934d0aed43d8f8653a63c8d98052c3059f55d615d87b8cec3f7f44dc5",
        "efbd3936369bd75b1cea48f99712bfda3e1123c2d3a12be5880b996bd785deca",
        "dde28e0a9be6c37dbb4a45f9644adaf1afd304acc6db0df40e17c46f46ee5c13",
        "3eac346e5e00c6fc21d593e6d93eb661c7563f38d66d2f692cf54f21e9921f27",
    ),
    "star4": (
        "9b9ea0ca165d93be7843a64d76fc1b76eb4bfba1d320c664ab66a7f353aed8e3",
        "8dd2deb460b5e5b0e6da80ecabe577b4e9c8c1df49db0a931cbc049a4c2799ed",
        "7c5663b9916dd68ee8c3861b2e4291b90d4ffd8acb47b00425fc26fda26361c2",
        "09193d15544875de7bdb460574be9c156c4842b7b8f89c9061fee354d37366e6",
    ),
    "theta_loop": (
        "a2150dbf8112b51a2baa148b3b715a274002c8ea811fab841dd7ff7a82db985a",
        "8dd2deb460b5e5b0e6da80ecabe577b4e9c8c1df49db0a931cbc049a4c2799ed",
        "cc3a57c4889d8910304dbdbafaadd2a3c3ade9553f9f8303cc3cdcaeb1d65ac5",
        "09193d15544875de7bdb460574be9c156c4842b7b8f89c9061fee354d37366e6",
    ),
    "line5": (
        "20ac5a1277583b6d6d265db40fb756f578aa810595a264e178ce5225bcdd22ee",
        "6697ff30b68c10cc395cf1f600b2a94ea26bceed014fd9e0e9ad0f19110df67b",
        "3a408d8ef20c7b12e2c340db6176ac9d355297abd3e04a0e4a89e302cbc7246d",
        "09193d15544875de7bdb460574be9c156c4842b7b8f89c9061fee354d37366e6",
    ),
    "multiloop": (
        "124463788a70e777e6ec9e42e37364d145482ca4215cce9eab32cc75ce70ba6c",
        "e207ebb3bdd81099c74fe48be91d29b472775d947a339ef37306ab815f2acc44",
        "b9ab00856f3b0cfd67633f5af0e02e247a8cc0745c1b0888c3530027c1fad244",
        "6665c12de9955b6ce185960198962198a6cb77af4acf91fa5c9ce00b6d160cf5",
    ),
    "line6": (
        "647b7537130d1729abf9fa80518a61c205679bd3f4ea163ed8ecd0cd5fce1d95",
        "ae1ef0df17d5c26d348dbb21e4d286aae4862a77bff9ed588c87a2c1dbf72e9d",
        "3cce2f2bd261795af717528697b79128639d84f90f1a0f1a56d114c5c5171ce2",
        "6665c12de9955b6ce185960198962198a6cb77af4acf91fa5c9ce00b6d160cf5",
    ),
}


def test_model_output_bytes_match_recorded_digests(capsys):
    commands = (
        ("model", "boundary"),
        ("model", "boundary", "--format", "triplet"),
        ("model", "homology"),
        ("model", "check"),
    )
    for name, digests in OUTPUT_SHA256.items():
        for argv, expected in zip(commands, digests):
            code, out, _ = run(capsys, *argv, path(f"graph_{name}.json"))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expected, (name, argv)


def test_hg_diamond_with_three_element_hyperedges(capsys, tmp_path):
    # {p0}({p3} {p2,p4,p1}) covers {p3,p0}({p2,p4,p1}) although the
    # hyperedge {p3,p0,p4} meets both the split block {p3} and the child.
    data = {
        "vertices": ["p3", "p0", "p2", "p4", "p1"],
        "hyperedges": [["p3"], ["p0"], ["p2"], ["p4"], ["p1"], ["p3", "p0", "p4"], ["p2", "p4", "p1"]],
    }
    target = tmp_path / "h.json"
    target.write_text(json.dumps(data))
    code, out, _ = run(capsys, "hg", "diamond", str(target))
    assert code == 0
    assert json.loads(out) == {"diamond": True}



# -- malformed input: exit 1 with a message, never a traceback ------------------


def write_json(tmp_path, data, name="input.json"):
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return str(target)


def test_one_element_involution_pair_exits_one(capsys, tmp_path):
    raw = corpus_raw("graph", "line3")
    raw["involution"] = [["a", "a'"], ["b"]]
    code, _, err = run(capsys, "graph", "validate", write_json(tmp_path, raw))
    assert code == 1
    assert "involution" in err


def test_list_vertex_label_exits_one(capsys, tmp_path):
    data = {"vertices": ["a", ["b"]], "hyperedges": [["a"], [["b"]], ["a", ["b"]]]}
    code, _, err = run(capsys, "hg", "check", write_json(tmp_path, data))
    assert code == 1
    assert "vertex label" in err


def test_non_numeric_game_value_exits_one(capsys, tmp_path):
    game = {"type": "table", "values": {"a": "1", "b": "lots", "a,b": "3"}}
    code, _, err = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        write_json(tmp_path, game, "game.json"),
    )
    assert code == 1
    assert "'lots'" in err


def test_string_vertex_list_exits_one(capsys, tmp_path):
    hyper = {"vertices": "ab", "hyperedges": [["a"], ["b"], ["a", "b"]]}
    code, _, err = run(capsys, "hg", "check", write_json(tmp_path, hyper))
    assert code == 1
    assert "vertices" in err
    graph = {
        "vertices": "12",
        "flags": {"1": ["a"], "2": ["a'"]},
        "involution": [["a", "a'"]],
        "legs": [],
    }
    code, _, err = run(capsys, "graph", "validate", write_json(tmp_path, graph))
    assert code == 1
    assert "vertices" in err


def test_list_flag_label_exits_one(capsys, tmp_path):
    graph = {"vertices": ["1", "2"], "flags": {"1": [["a"]], "2": ["b"]}, "involution": [], "legs": []}
    code, _, err = run(capsys, "graph", "validate", write_json(tmp_path, graph))
    assert code == 1
    assert "flag labels" in err


def test_non_integer_genus_exits_one(capsys, tmp_path):
    for value in ("x", [1]):
        raw = corpus_raw("graph", "line3")
        raw["genus"] = {"1": 0, "2": value, "3": 0}
        code, _, err = run(capsys, "variants", "classify", write_json(tmp_path, raw))
        assert code == 1
        assert "vertex genera must be nonnegative integers" in err


def test_malformed_orientation_exits_one(capsys, tmp_path):
    for value in ({"edges": [1]}, {"legs": [1]}, [1]):
        raw = corpus_raw("graph", "line3")
        raw["orientation"] = value
        code, _, err = run(capsys, "variants", "classify", write_json(tmp_path, raw))
        assert code == 1
        assert "orientation" in err


def test_json_string_file_exits_one(capsys, tmp_path):
    inner = json.dumps(corpus_raw("graph", "line3"))
    for data in ("x", inner):
        target = write_json(tmp_path, data)
        for argv in (("hg", "check"), ("graph", "validate")):
            code, _, err = run(capsys, *argv, target)
            assert code == 1, (argv, data)
            assert "JSON" in err


# -- work done per op -------------------------------------------------------------


def count_calls(monkeypatch, *functions):
    """Count calls of each function wherever an hgpoly module binds it."""
    counts = {f.__name__: 0 for f in functions}

    def counted(f):
        def wrapper(*args, **kwargs):
            counts[f.__name__] += 1
            return f(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "hgpoly" or name.startswith("hgpoly."):
            for f in functions:
                if getattr(module, f.__name__, None) is f:
                    monkeypatch.setattr(module, f.__name__, counted(f))
    return counts


def test_model_check_enumerates_once(capsys, monkeypatch):
    h = incidence_hypergraph(Graph.from_json(corpus_raw("graph", "line4")))
    positive = sum(1 for c in enumerate_constructs(h) if c.num_nodes() < len(h))
    functions = (
        enumerate_constructs, boundary_of_basis, covers_of, verify_complex, dense
    )
    counts = count_calls(monkeypatch, *functions)
    code, _, _ = run(capsys, "model", "check", path("graph_line4.json"))
    assert code == 0
    assert counts == {
        "enumerate_constructs": 1,
        "boundary_of_basis": positive,
        "covers_of": 0,
        "verify_complex": 1,
        "dense": 0,
    }


def test_model_homology_verifies_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, verify_complex, dense)
    code, _, _ = run(capsys, "model", "homology", path("graph_line4.json"))
    assert code == 0
    assert counts == {"verify_complex": 1, "dense": 0}
