import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hgpoly import cli, constructs, minimodel, pipeline
from hgpoly.cli import main
from hgpoly.constructs import (
    Construct,
    covers_of,
    enumerate_constructs,
    format_construct,
    node_splits,
)
from hgpoly.corpus import corpus_hypergraph, corpus_raw
from hgpoly.graphs import (
    Graph,
    canonical_contraction,
    contract_fibers,
    incidence_hypergraph,
)
from hgpoly.homology import _rank, _sparse_rows, dense, verify_complex
from hgpoly.minimodel import boundary_of_basis, signed_splits

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


def test_hg_poset_negative_max_faces_exits_one(capsys):
    code, out, err = run(
        capsys, "hg", "poset", path("hg_pentagon.json"), "--max-faces", "-1"
    )
    assert code == 1 and out == ""
    assert "--max-faces" in err


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


def test_hg_realize_witness_lists_coordinate_strings(capsys, monkeypatch):
    import hgpoly.games

    monkeypatch.setattr(hgpoly.games, "brute_force_vertices", lambda rep: ((1, 1),))
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
    assert "witness: {'realized': [['1', '2'], ['2', '1']], 'brute_force': [['1', '1']]}" in err
    assert "Fraction" not in err


def test_hg_realize_brute_force_cap_checked_before_realizing(capsys, monkeypatch, tmp_path):
    import hgpoly.games

    def refuse(*args):
        raise AssertionError("realize ran past the brute-force cap")

    monkeypatch.setattr(hgpoly.games, "realize", refuse)
    labels = list("abcdefg")
    chain = [[v] for v in labels] + [list(p) for p in zip(labels, labels[1:])]
    target = write_json(tmp_path, {"vertices": labels, "hyperedges": chain})
    code, out, err = run(
        capsys, "hg", "realize", target, "--game", "pow3", "--verify-brute-force"
    )
    assert (code, out) == (1, "")
    assert err == "error: brute force capped at 6 players\n"


def test_hg_realize_fractional_table_game(capsys, tmp_path):
    game = {"type": "table", "values": {"a": "1/2", "b": "1/3", "a,b": 2}}
    code, out, _ = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        write_json(tmp_path, game, "game.json"),
        "--verify-brute-force",
    )
    assert code == 0
    data = json.loads(out)
    assert [v["coordinates"] for v in data["vertices"]] == [["5/3", "1/3"], ["1/2", "3/2"]]
    assert data["verification"] == {"brute_force_agrees": True, "num_vertices": 2}


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


# sha256 of stdout for `hg poset` (json and dot), `hg poset --max-faces 3`,
# `hg diamond`, `hg constructs`, `hg constructs --count` and
# `hg constructs --count --rank 1` on every corpus hypergraph, recorded from
# the face poset that built its covers by trying every split.
HG_OUTPUT_SHA256 = {
    "hexagon": (
        "0a06a92303757e632c9fe8cf62985890396b1d647f6db03c7bc16d30c7ef3cf9",
        "0dc8b219e6cc54af1ebc5e57d9fe29ad3871280d0346c6f8cd22116e2ac547bd",
        "b6b3b2e55c5fa30a4c182eef0cd5e6f85c6a12baebf3e3a85414acf31eb0e17d",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "48ccafb1e43da5a22452032f2763af9c9f5bf95fac652f564f87a4feae172cb3",
        "08c6009a2955a290e8fa4f501cc1e7c143e256939f8e294a8a4501c7da188b54",
        "c6b40b0960787f3971d11214376fd3d3d2ee307fb3ef12c8858aa59ce7ac61fd",
    ),
    "k4": (
        "9ea412006644bf72cfeee726b78626c7dec94511d4f80fa8e5e43fe8189b00c4",
        "8e7219a61ab958d5aafec0a026d495cc9dda2d82c374c9f07abed9b40a09d7a8",
        "dc12292964c8260e062d3441f07a77ff68114803958c9b157a21f3c51e10313e",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "66e41c154fb3048a2629b44934a0c54076535b65ff1d4e705d0eda0c3bde2e12",
        "394b29915b2ec13e4274548b79a58c8783382cb16a6bfcf6981d8d0c56e06ee5",
        "7b306fc2a303f26fb18cad538edae08f68ad82133bf5f441700edca25bbf55f4",
    ),
    "k5_minus": (
        "fc16cc4e8c1728a3cb8478a1f48a44e6808fd0c056cdecd42ef604c970ed10ce",
        "8249a83f1bca7d40908291d3a77b7642f5c7a85a9e4848bfe661b032381ebbbe",
        "7017260dfbddaaa5b5f0ab5d4fe30fdfd2efaaeed860af242197aaf10fd9eaa4",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "6c271fd65b4ef889dd276fd6d1affa678678facd5f4f06e598f98a77541c7255",
        "b20c6dca431e392562f56cf731c3a621f4a01a27e6b1824a22a679e75d742a85",
        "c9ba469e914de079285cab5ee401f7b9f0bb141d79818d54354305aef23b77cd",
    ),
    "path4": (
        "eb7ac8a7db3afb06b718b61e8b6ecaa393e20ecd9357e0aaf592fd1024714494",
        "c2e72f4ecbdd91988cfcd3481fe67758ee9d7bb8a225c8b1cfa42e20ab6e1ba3",
        "f18813d62114ab7363e7a087a2b900b05877225a88bf63deaef2a148bbb7dcd7",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "e89132fed20e258071ac0ac22199c9bff713754200a5053ec207610660196c92",
        "193ad4d3d3add4c9055421c008e5b8be3aa59848b84ec9606dd09d61a2f018ac",
        "63206b4e8f9fbd78c33324a7158c8347e892eac4331889549f26d20b522450d3",
    ),
    "pentagon": (
        "accd5bd11360e7000b800bb2d3a7b218d962ee8479ab6a30d549b7458921af94",
        "651037d560b6a9975a8b4c3404e64d030c73325108d5fbaf88205f521cdba573",
        "01c10004ed01ae8b734dab2cd4e0640bc6d8007209cc30725d9bdd31c9af4810",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "8245cc6ab6e2e5ea6784b748c1b30f5d0d183f23cf5d24a9c136ecfe2d47463b",
        "eaf353c11a367017352967f0c801be11ee6c4e500fe5c1bb044c24448b5dcfea",
        "e61b6cf970481136ba2f097cf0194233a1e303b855644aa4079dc1cbaa2f868d",
    ),
    "segment": (
        "3f78ee26eea5249e39dad296ed3146de2ce0fb1326b070b6c03236b6708579a7",
        "cba341be2fb16644fd9055128468982869ed2db5997d40910913348ba7e8264d",
        "3f78ee26eea5249e39dad296ed3146de2ce0fb1326b070b6c03236b6708579a7",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "2ab87407b2eb0548cb0bcc56c8a58ba88067c1379682e2e875f1dbe8cf1fb039",
        "8b1eb9b769b2dce3f4d791d99f36eada689320b8af9f847ee59f07a8142caacf",
        "581613a46bc7fdf090968a947c4cee4e678be36d1f68859bb303125800d1c128",
    ),
    "star4": (
        "335f8e660db6497f757e7632a3a8c8e9fcc1020a3ad4dac0089a76df25eb3569",
        "ede58dee0ac0cdce758f494618d39e825d1877000e06369d4e2b19223fa0b68c",
        "52f5d135f1a77c73e75b563bed0dfc57dfc4618be456633e010efd8a9da2b58f",
        "b0174f18c1875ee1c4f972f4bb4960efc557f7ef88c987724b0c8c2d7b4bf3f5",
        "22c2d6a1b0006f58bfc7bfea353569bfe69df68ed020b95480278fe9d60067d9",
        "d7c85884303b0b87aaf0287149babba8adf8aad70da1fb7c7a11ada9795063a7",
        "5dab9a1f727db936dcd4d2394f79505d857f35b7d388d356061a7caabb7f46af",
    ),
}

HG_COMMANDS = (
    ("hg", "poset"),
    ("hg", "poset", "--format", "dot"),
    ("hg", "poset", "--max-faces", "3"),
    ("hg", "diamond"),
    ("hg", "constructs"),
    ("hg", "constructs", "--count"),
    ("hg", "constructs", "--count", "--rank", "1"),
)


def test_hg_output_bytes_match_recorded_digests(capsys):
    for name, digests in HG_OUTPUT_SHA256.items():
        for argv, expected in zip(HG_COMMANDS, digests):
            code, out, _ = run(capsys, *argv, path(f"hg_{name}.json"))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == expected, (name, argv)


def test_constructs_count_outside_the_ranks(capsys):
    for rank in ("7", "-1"):
        code, out, _ = run(
            capsys, "hg", "constructs", path("hg_pentagon.json"), "--count", "--rank", rank
        )
        assert code == 0
        assert json.loads(out) == {"by_rank": [0], "total": 0}


# sha256 of stdout for `graph gtrees` on every corpus graph with at most 5
# internal edges, recorded from the `alpha` that rebuilt the incidence
# hypergraph of every fiber.
GTREES_SHA256 = {
    "cherry_decreasing": "037d5f0b120bb6c19f8c0ea56b12b4bf72db23128e5357b39a9915712a9de384",
    "cherry_increasing": "45731575064b2b0ae42133918b58ec8344662e65f7bd6931a50bf5d864f43b70",
    "edge": "67cd64f2dbeaabc9261747bc7504a7113c0dcf9988d627f09d0293fc43379dce",
    "fragile_root": "e774a1ce8134ad8ca69d25e7c8cd519ed3c8fba5c5203321d9ab05e58b32ba12",
    "line3": "e181a4f5df797137a8dc0ccc316c33bb89333ab606e2136b99caaaba3b242c03",
    "line4": "0f514cf49d4ed92fdb754d28e20d2bb19001777e94a955c142e69590ab68ec30",
    "line5": "dd7aec5a67d8cda9ca5afad0bdb928f2fae1cda8a4b4d46bbaf402f559651971",
    "line6": "b3135e441827b3b2cfd429d7c74dc647bc48869c728e8d333f9fb75c046330d4",
    "loop": "8209dd08301e16ef1c75e5ecfea43f608790571d817f1eaf92d6d359064bd5b4",
    "multiloop": "cb923fd36809e3561c17197e58f58d4aed7faa717db2e71beb5a7d659f8183f6",
    "star4": "058d05e7f5465238754045488eacc09716662e939bac5cc5394ff7f8d7982d39",
    "theta": "d5890f1176b65519c64c57ce6b6068febb24aa47dc992a3d4f5d1f726be83b2e",
    "theta_loop": "0839cc27b7b1cfbecdb912b9586345cbb2eb5ea79b3f8f0d08cf5d332c3b7b27",
    "triangle": "be950eb4be633d6a8efa3fdfe06bb65ca57cc39cf87b75d688cfa562df490ceb",
}


def test_graph_gtrees_bytes_match_recorded_digests(capsys):
    for name, expected in GTREES_SHA256.items():
        code, out, _ = run(capsys, "graph", "gtrees", path(f"graph_{name}.json"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, name


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


def test_boolean_vertex_label_exits_one(capsys, tmp_path):
    data = {"vertices": [True, 2], "hyperedges": [[True], [2], [True, 2]]}
    code, _, err = run(capsys, "hg", "check", write_json(tmp_path, data))
    assert code == 1
    assert err == "error: vertex label True is not a string or number\n"


def test_non_string_graph_vertex_label_exits_one(capsys, tmp_path):
    for value in ([["1"]], [1], [None]):
        raw = corpus_raw("graph", "line3")
        raw["vertices"] = value
        code, _, err = run(capsys, "graph", "validate", write_json(tmp_path, raw))
        assert code == 1, value
        assert err == "error: graph JSON 'vertices' must be a list of strings\n"


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


def test_boolean_game_value_exits_one(capsys, tmp_path):
    game = {"type": "table", "values": {"a": True, "b": 1, "a,b": 3}}
    code, out, err = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        write_json(tmp_path, game, "game.json"),
    )
    assert (code, out) == (1, "")
    assert "True" in err and '"1/10"' in err


def test_float_game_value_exits_one(capsys, tmp_path):
    game = {"type": "table", "values": {"a": 0.1, "b": 1, "a,b": 3}}
    code, out, err = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        write_json(tmp_path, game, "game.json"),
    )
    assert (code, out) == (1, "")
    assert "0.1" in err and '"1/10"' in err
    assert "36028797018963968" not in err


def test_zero_denominator_game_value_exits_one(capsys, tmp_path):
    game = {"type": "table", "values": {"a": 1, "b": 1, "a,b": "1/0"}}
    code, out, err = run(
        capsys,
        "hg",
        "realize",
        path("hg_segment.json"),
        "--game",
        write_json(tmp_path, game, "game.json"),
    )
    assert (code, out) == (1, "")
    assert "'1/0'" in err and "is not a number" in err
    assert "Traceback" not in err


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
    for value in ("x", [1], True, False):
        raw = corpus_raw("graph", "line3")
        raw["genus"] = {"1": 0, "2": value, "3": 0}
        code, _, err = run(capsys, "variants", "classify", write_json(tmp_path, raw))
        assert code == 1
        assert "vertex genera must be nonnegative integers" in err


def test_non_object_flags_exit_one(capsys, tmp_path):
    for value in ([], "x", 5, None):
        raw = corpus_raw("graph", "line3")
        raw["flags"] = value
        code, _, err = run(capsys, "graph", "validate", write_json(tmp_path, raw))
        assert code == 1, value
        assert err == "error: graph JSON 'flags' must be an object\n"


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


def test_non_object_json_file_exits_one(capsys, tmp_path):
    for data in ("x", [1]):
        target = write_json(tmp_path, data)
        for argv, kind in ((("hg", "check"), "hypergraph"), (("graph", "validate"), "graph")):
            code, _, err = run(capsys, *argv, target)
            assert code == 1, (argv, data)
            assert f"{kind} JSON must be an object" in err


def test_non_utf8_file_exits_one(capsys, tmp_path):
    target = tmp_path / "input.json"
    target.write_bytes(b"\xff\xfe{}")
    for argv in (("hg", "check"), ("graph", "validate")):
        code, _, err = run(capsys, *argv, str(target))
        assert code == 1, argv
        assert "UTF-8" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no limit on int-string conversion",
)
def test_integer_literal_over_the_digit_limit_exits_one(capsys, tmp_path):
    """`json.loads` raises a plain ValueError on an integer literal longer
    than the interpreter's limit on int-string conversion (4,300 digits);
    each input file reports it and exits 1."""
    huge = "7" * 5000
    graph = tmp_path / "graph.json"
    graph.write_text(Path(path("graph_line3.json")).read_text().replace("{", '{"extra": ' + huge + ",", 1))
    hyper = tmp_path / "hyper.json"
    hyper.write_text('{"vertices": ["a", ' + huge + '], "hyperedges": [["a"]]}')
    game = tmp_path / "game.json"
    game.write_text('{"type": "table", "values": {"a": 1, "b": 1, "a,b": ' + huge + "}}")
    for argv in (
        ("model", "check", str(graph)),
        ("hg", "check", str(hyper)),
        ("hg", "realize", path("hg_segment.json"), "--game", str(game)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: cannot read the JSON in "), err[:200]


@pytest.mark.parametrize(
    "value, message",
    [
        ("1e5000", "game value '1e5000' of 'a,b' has an exponent beyond 150"),
        ("1e10000000", "game value '1e10000000' of 'a,b' has an exponent beyond 150"),
        ("3E+151", "game value '3E+151' of 'a,b' has an exponent beyond 150"),
        ("1.5e-151", "game value '1.5e-151' of 'a,b' has an exponent beyond 150"),
        ("9" * 201, "game value of 'a,b' has more than 200 digits"),
        ("1/" + "3" * 200, "game value of 'a,b' has more than 200 digits"),
        (int("9" * 201), "game value of 'a,b' has more than 200 digits"),
    ],
)
def test_game_value_over_the_size_cap_exits_one(capsys, tmp_path, value, message):
    game = {"type": "table", "values": {"a": 1, "b": 1, "a,b": value}}
    code, out, err = run(
        capsys, "hg", "realize", path("hg_segment.json"), "--game", write_json(tmp_path, game)
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_game_values_at_the_size_cap_are_realized(capsys, tmp_path):
    big = "9" * 200
    game = {"type": "table", "values": {"a": "1e150", "b": "1/" + "7" * 199, "a,b": big}}
    code, out, _ = run(
        capsys, "hg", "realize", path("hg_segment.json"), "--game", write_json(tmp_path, game)
    )
    assert code == 0
    points = [v["coordinates"] for v in json.loads(out)["vertices"]]
    assert sorted(points) == sorted(
        [["1" + "0" * 150, str(Fraction(big) - 10**150)], [str(Fraction(big) - Fraction(1, int("7" * 199))), "1/" + "7" * 199]]
    )


def test_deeply_nested_json_exits_one(capsys, tmp_path):
    target = tmp_path / "input.json"
    target.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("hg", "check"), ("graph", "validate")):
        code, _, err = run(capsys, *argv, str(target))
        assert code == 1, argv
        assert "nested too deeply" in err


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
        enumerate_constructs,
        signed_splits,
        boundary_of_basis,
        covers_of,
        verify_complex,
        dense,
    )
    counts = count_calls(monkeypatch, *functions)
    code, _, _ = run(capsys, "model", "check", path("graph_line4.json"))
    assert code == 0
    assert counts == {
        "enumerate_constructs": 1,
        "signed_splits": positive,
        "boundary_of_basis": 0,
        "covers_of": 0,
        "verify_complex": 1,
        "dense": 0,
    }


def test_model_check_builds_each_node_graph_once(capsys, monkeypatch):
    h = incidence_hypergraph(Graph.from_json(corpus_raw("graph", "line6")))
    faces = enumerate_constructs(h)
    node_graphs = {
        (n.subtree_union, tuple(ch.subtree_union for ch in n.children))
        for c in faces
        for n in c.nodes()
        if n.children
    }
    counts = count_calls(
        monkeypatch, incidence_hypergraph, contract_fibers, canonical_contraction
    )
    code, _, _ = run(capsys, "model", "check", path("graph_line6.json"))
    assert code == 0
    assert counts == {
        "incidence_hypergraph": 1,
        "contract_fibers": len(node_graphs),
        "canonical_contraction": 0,
    }
    assert counts["contract_fibers"] < len(faces)


def test_model_homology_verifies_once(capsys, monkeypatch):
    counts = count_calls(monkeypatch, verify_complex, dense)
    code, _, _ = run(capsys, "model", "homology", path("graph_line4.json"))
    assert code == 0
    assert counts == {"verify_complex": 1, "dense": 0}


def test_labels_and_dense_matrices_only_where_printed(capsys, monkeypatch):
    counts = count_calls(monkeypatch, format_construct, dense)
    for command in ("homology", "check"):
        code, _, _ = run(capsys, "model", command, path("graph_line5.json"))
        assert code == 0
        assert counts == {"format_construct": 0, "dense": 0}, command
    code, _, _ = run(
        capsys, "model", "boundary", path("graph_line5.json"), "--format", "triplet"
    )
    assert code == 0
    assert counts["dense"] == 0
    code, out, _ = run(capsys, "model", "boundary", path("graph_line5.json"))
    assert code == 0
    h = incidence_hypergraph(Graph.from_json(corpus_raw("graph", "line5")))
    labels = [label for grade in json.loads(out)["grades"] for label in grade["basis"]]
    assert sorted(labels) == sorted(format_construct(c, h) for c in enumerate_constructs(h))


def test_model_homology_and_check_rank_without_bareiss(capsys, monkeypatch):
    counts = count_calls(monkeypatch, _rank, _sparse_rows, verify_complex)
    for command in ("homology", "check"):
        counts.update(_rank=0, _sparse_rows=0, verify_complex=0)
        code, _, _ = run(capsys, "model", command, path("graph_line5.json"))
        assert code == 0
        assert counts == {"_rank": 0, "_sparse_rows": 0, "verify_complex": 1}, command


def test_model_homology_builds_no_construct_after_enumeration(capsys, monkeypatch):
    built = []
    enumerated = []
    construct_init = Construct.__init__

    def counted_init(self, *args, **kwargs):
        built.append(bool(enumerated))
        construct_init(self, *args, **kwargs)

    def marked_enumeration(h):
        faces = enumerate_constructs(h)
        enumerated.append(len(faces))
        return faces

    monkeypatch.setattr(Construct, "__init__", counted_init)
    monkeypatch.setattr(constructs, "enumerate_constructs", marked_enumeration)
    code, _, _ = run(capsys, "model", "homology", path("graph_line4.json"))
    assert code == 0
    assert enumerated and built
    assert True not in built


def test_hg_poset_and_diamond_enumerate_once_without_splits(capsys, monkeypatch):
    counts = count_calls(monkeypatch, enumerate_constructs, node_splits)
    for argv in (("hg", "poset"), ("hg", "diamond")):
        counts.update(enumerate_constructs=0, node_splits=0)
        code, _, _ = run(capsys, *argv, path("hg_k4.json"))
        assert code == 0
        assert counts == {"enumerate_constructs": 1, "node_splits": 0}, argv
    counts.update(enumerate_constructs=0)
    code, out, _ = run(capsys, "hg", "poset", path("hg_k4.json"), "--max-faces", "3")
    assert code == 0 and json.loads(out)["capped"]
    assert counts == {"enumerate_constructs": 1, "node_splits": 0}


def test_model_homology_reads_the_differential_off_collapses(capsys, monkeypatch):
    counts = count_calls(monkeypatch, node_splits, signed_splits)
    for argv in (("model", "homology"), ("model", "boundary")):
        code, _, _ = run(capsys, *argv, path("graph_line5.json"))
        assert code == 0
        assert counts == {"node_splits": 0, "signed_splits": 0}, argv
    code, _, _ = run(capsys, "model", "check", path("graph_line5.json"))
    assert code == 0
    assert counts["signed_splits"] > 0 and counts["node_splits"] > 0


def test_main_reuses_one_parser(capsys, monkeypatch):
    """A cached parser answers a usage error, a command and another
    subcommand exactly as a fresh parser does, in that order."""
    calls = (
        ("model", "homology"),
        ("model", "homology", path("graph_line4.json")),
        ("hg", "constructs", path("hg_pentagon.json"), "--count", "--rank", "1"),
        ("model", "boundary", path("graph_line3.json"), "--rank", "x"),
        ("graph", "validate", path("graph_theta.json")),
    )
    cached = [run(capsys, *argv) for argv in calls]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [64, 0, 0, 64, 0]


def test_hg_constructs_rank_zero_enumerates_only_the_vertices(capsys, monkeypatch):
    counts = count_calls(
        monkeypatch, constructs.graded_constructs, constructs.vertex_constructs
    )
    for name in HG_OUTPUT_SHA256:
        h = corpus_hypergraph(name)
        vertices = constructs.graded_constructs(h)[0]
        listing = json.dumps([c.to_json(h) for c in vertices], sort_keys=True, indent=1)
        count = json.dumps(
            {"by_rank": [len(vertices)], "total": len(vertices)}, sort_keys=True, indent=1
        )
        counts.update(graded_constructs=0, vertex_constructs=0)
        code, out, _ = run(
            capsys, "hg", "constructs", path(f"hg_{name}.json"), "--rank", "0"
        )
        assert (code, out) == (0, listing + "\n"), name
        code, out, _ = run(
            capsys, "hg", "constructs", path(f"hg_{name}.json"), "--rank", "0", "--count"
        )
        assert (code, out) == (0, count + "\n"), name
        assert counts == {"graded_constructs": 0, "vertex_constructs": 2}, name


def test_model_boundary_rank_prints_one_grade_in_both_formats(capsys, monkeypatch):
    graph = path("graph_line4.json")
    code, out, _ = run(capsys, "model", "boundary", graph)
    assert code == 0
    full = json.loads(out)
    code, out, _ = run(capsys, "model", "boundary", graph, "--format", "triplet")
    assert code == 0
    triplets = out.splitlines()
    assert sorted(full["matrices"]) == ["1", "2"]
    counts = count_calls(monkeypatch, dense)
    for rank in ("1", "2"):
        counts["dense"] = 0
        code, out, _ = run(capsys, "model", "boundary", graph, "--rank", rank)
        assert code == 0
        assert json.loads(out) == {**full, "matrices": {rank: full["matrices"][rank]}}
        assert counts["dense"] == 1
        code, out, _ = run(
            capsys, "model", "boundary", graph, "--format", "triplet", "--rank", rank
        )
        assert code == 0
        assert out.splitlines() == [line for line in triplets if line.split()[0] == rank]
    for rank in ("0", "3", "-1"):
        for fmt in ("json", "triplet"):
            code, out, err = run(
                capsys, "model", "boundary", graph, "--format", fmt, "--rank", rank
            )
            assert (code, out) == (1, ""), (rank, fmt)
            assert err == f"error: no boundary in degree {rank}\n"


# -- `model check` witnesses ---------------------------------------------------
#
# Each case corrupts the boundary of graph_line5 (45 faces; `signed_splits`
# runs once per face of positive grade, grade 1 first) and pins the exact
# stderr of the first statement that fails.  The case names the calls whose
# results are mutated, the mutation, whether the d^2 = 0 check is stubbed to
# pass, and the `pipeline` functions it stubs.


def _double(terms):
    terms[0] = (terms[0][0], 2 * terms[0][1])


def _duplicate(terms):
    terms.append(terms[0])


def _drop(terms):
    terms.pop()


def _flip(terms):
    terms[0] = (terms[0][0], -terms[0][1])


def _witness(problem, face):
    return f"property violated: {problem}\nwitness: {{'construct': {face}}}\n"


def _leaf(*labels):
    return {"decoration": list(labels), "children": []}


WITNESS_CASES = {
    "coefficient": (
        (25,), _double, True, {},
        _witness(
            "boundary coefficient outside {-1,+1}",
            {"decoration": ["a", "c", "d"], "children": [_leaf("b")]},
        ),
    ),
    "duplicate": (
        (30,), _duplicate, True, {},
        _witness("a covered face appears twice", _leaf("a", "b", "c", "d")),
    ),
    "support": (
        (22,), _drop, True, {},
        _witness(
            "boundary support differs from the covered faces",
            {"decoration": ["a", "b"], "children": [_leaf("c", "d")]},
        ),
    ),
    "support_lowest_column": (
        (30, 28, 24), _drop, True, {},
        _witness(
            "boundary support differs from the covered faces",
            {"decoration": ["a", "b", "d"], "children": [_leaf("c")]},
        ),
    ),
    "diamond": (
        (3,), _flip, True, {},
        "property violated: diamond sign relation fails\nwitness: (35, 13, 14, 1)\n",
    ),
    "augmentation": (
        (5,), _flip, True, {"diamond_sign_check": lambda poset, signs: (True, None)},
        _witness(
            "augmentation does not kill the boundary",
            {
                "decoration": ["a", "b"],
                "children": [{"decoration": ["c"], "children": [_leaf("d")]}],
            },
        ),
    ),
    "roundtrip": (
        (), None, True, {"alpha_invs": lambda trees, g: [None] * len(trees)},
        _witness("construct/graph-tree roundtrip fails", _leaf("a", "b", "c", "d")),
    ),
    "d_squared": (
        (24,), _flip, False, {},
        "property violated: d^2 != 0\nwitness: {'graph': 'graph_line5'}\n",
    ),
}


@pytest.mark.parametrize("case", sorted(WITNESS_CASES))
def test_model_check_failure_witnesses(capsys, monkeypatch, case):
    targets, mutation, stub_betti, stubs, expected = WITNESS_CASES[case]
    original = minimodel.signed_splits
    calls = []

    def mutated(*args):
        terms = original(*args)
        if len(calls) in targets:
            mutation(terms)
        calls.append(args)
        return terms

    monkeypatch.setattr(minimodel, "signed_splits", mutated)
    if stub_betti:
        monkeypatch.setattr(pipeline, "_betti_or_none", lambda grades, columns: [])
    for name, stub in stubs.items():
        monkeypatch.setattr(pipeline, name, stub)
    assert run(capsys, "model", "check", path("graph_line5.json")) == (2, "", expected)


def test_model_check_catches_swapped_graph_trees(capsys, monkeypatch):
    """A `graph_trees` that hands two faces each other's trees fails the
    round trip, witnessed by the first face in poset order."""
    original = pipeline.graph_trees

    def swapped(g, faces):
        trees = original(g, faces)
        trees[0], trees[1] = trees[1], trees[0]
        return trees

    monkeypatch.setattr(pipeline, "graph_trees", swapped)
    expected = _witness("construct/graph-tree roundtrip fails", _leaf("a", "b", "c", "d"))
    assert run(capsys, "model", "check", path("graph_line5.json")) == (2, "", expected)
