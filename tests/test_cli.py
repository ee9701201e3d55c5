import json

import pytest

from conftest import operator_from_blocks
from transdolbeault.cli import RunConfig, execute, main
from transdolbeault.errors import TheoremViolationError
from transdolbeault.schema import dumps_canonical, entry_to_dict, load_entry_file, parse_entry


def test_classify_kt_text():
    status, out = execute(RunConfig("classify", catalog="kodaira_thurston"))
    assert status == 0
    assert out == "MinimallyNonIntegrable, dim Im N = 2\n"


def test_report_abelian_all_binomial():
    status, out = execute(RunConfig("report", catalog="abelian2n", n=2, fmt="json"))
    assert status == 0
    doc = json.loads(out)
    assert doc["p0_check"] == "pass"
    assert doc["classification"]["class"] == "Integrable"
    assert doc["tables"]["trans"]["1,1"] == 4
    assert doc["tables"]["trans"] == doc["tables"]["cw"]


def test_validate_jacobi_violation_exits_1(tmp_path):
    bad = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": {"1": "1"}},
            {"i": 1, "j": 3, "coeffs": {"2": "1"}},
        ],
        "J": ["0", "0", "-1", "0",
              "0", "0", "0", "-1",
              "1", "0", "0", "0",
              "0", "1", "0", "0"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    status, out = execute(RunConfig("validate", input=str(path)))
    assert status == 1
    assert "jacobi fails on triple (1, 2, 3)" in out


def test_validate_good_file_roundtrip(tmp_path, kt):
    doc = entry_to_dict(kt.algebra, kt.acs)
    path = tmp_path / "kt.json"
    path.write_text(dumps_canonical(doc))
    status, out = execute(RunConfig("validate", input=str(path)))
    assert status == 0
    parsed = load_entry_file(str(path))
    assert parsed.algebra == kt.algebra
    assert parsed.acs == kt.acs
    status, out = execute(RunConfig("classify", input=str(path)))
    assert out.startswith("MinimallyNonIntegrable")


def test_pair_schema_roundtrip(tmp_path, su2):
    doc = entry_to_dict(su2.algebra, su2.acs, h=su2.h)
    assert doc["J_mod_h"] is True
    path = tmp_path / "su2.json"
    path.write_text(dumps_canonical(doc))
    status, out = execute(RunConfig("homogeneous", input=str(path)))
    assert status == 0
    assert "invariance (mod h): holds" in out


def test_json_output_roundtrips_bit_identical():
    _, out = execute(RunConfig("report", catalog="kodaira_thurston", fmt="json"))
    assert dumps_canonical(json.loads(out)) + "\n" == out


def test_seeded_config_is_deterministic():
    config = RunConfig("report", catalog="iwasawa", fmt="json", seed=11)
    assert execute(config) == execute(config)


def test_flag_command_json():
    status, out = execute(RunConfig("flag", catalog="heisenberg5_plus_r", fmt="json"))
    doc = json.loads(out)
    assert doc["flag_dims"] == [2]
    assert doc["stable_index"] == 1
    assert len(doc["limit"]) == 2


def test_cohomology_theory_selection():
    _, trans_only = execute(RunConfig("cohomology", catalog="kodaira_thurston", theory="trans"))
    assert "H_trans" in trans_only and "H_cw" not in trans_only
    _, cw_only = execute(RunConfig("cohomology", catalog="kodaira_thurston", theory="cw"))
    assert "H_cw" in cw_only and "H_trans" not in cw_only


def test_max_degree_filter():
    _, out = execute(RunConfig("cohomology", catalog="iwasawa", theory="trans", fmt="json", max_degree=1))
    doc = json.loads(out)
    assert set(doc["tables"]["trans"]) == {"0,0", "0,1", "1,0"}


def test_homogeneous_json_golden():
    """`homogeneous --format json` on every catalog entry, unseeded and at seeds 0-2."""
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "golden_homogeneous.json").read_text())
    for key, doc in golden.items():
        name, *opts = key.split()
        kw = {k: int(v) for k, v in (o.split("=") for o in opts)}
        status, out = execute(RunConfig("homogeneous", catalog=name, fmt="json", **kw))
        assert (status, out) == (0, dumps_canonical(doc) + "\n"), key


def test_report_json_and_cohomology_text_golden():
    """Exit status and sha256 of stdout and stderr of `report --format json` and of
    text `cohomology` on every catalog entry (abelian2n n=1-3), unseeded and at
    seeds 0-2. su2_mod_u1 has a stabilizer h, so both commands exit 1 there."""
    import contextlib
    import hashlib
    import io
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "golden_report.json").read_text())
    assert len(golden) == 36
    for key, want in golden.items():
        name, *opts = key.split()
        argv = ["--catalog", name] + [a for o in opts for a in ("--" + o.split("=")[0], o.split("=")[1])]
        for command, fmt in (("report", "json"), ("cohomology", "text")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([command, "--format", fmt] + argv)
            got = [status] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
            assert got == want[command], (key, command)


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["classify", "--catalog", "kodaira_thurston"]) == 0
    assert main(["classify", "--catalog", "does_not_exist"]) == 3
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({
        "dim": 2,
        "brackets": [],
        "J": ["1", "0", "0", "1"],  # J^2 = +Id
    }))
    assert main(["classify", "--input", str(bad)]) == 1
    capsys.readouterr()

    import transdolbeault.cli as cli_mod

    def boom(algebra, acs):
        raise TheoremViolationError("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod, "compare_p0", boom)
    assert main(["report", "--catalog", "kodaira_thurston"]) == 2
    err = capsys.readouterr().err
    assert "theorem violation" in err


def test_validate_report_lists_acs_columns(tmp_path):
    doc = {
        "dim": 2,
        "brackets": [],
        "J": ["1", "0", "0", "1"],
    }
    path = tmp_path / "j.json"
    path.write_text(json.dumps(doc))
    status, out = execute(RunConfig("validate", input=str(path), fmt="json"))
    assert status == 1
    parsed = json.loads(out)
    assert parsed["acs_failing_columns"] == [1, 2]


def test_schema_errors(tmp_path):
    from transdolbeault.errors import SchemaError

    with pytest.raises(SchemaError):
        parse_entry({"brackets": []})
    with pytest.raises(SchemaError):
        parse_entry({"dim": 2, "brackets": [], "J": ["1"]})
    with pytest.raises(SchemaError):
        parse_entry([1, 2, 3])
    j_std = ["0", "-1", "1", "0"]
    bad_docs = (
        {"dim": 2, "J": 5},
        {"dim": 2, "J": j_std, "h": 3},
        {"dim": 2, "brackets": 5, "J": j_std},
        {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": 5}], "J": j_std},
        {"dim": 1e999, "J": j_std},
        {"dim": 1e300, "J": ["0"], "brackets": [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]},
        # dim, i and j are integers: no truncation, no booleans
        {"dim": 2.7, "J": j_std},
        {"dim": True, "J": ["0"]},
        {"dim": 2, "brackets": [{"i": 1.5, "j": 2, "coeffs": {}}], "J": j_std},
        {"dim": 2, "brackets": [{"i": True, "j": 2, "coeffs": {}}], "J": j_std},
    )
    # coefficient keys are canonical ASCII decimals; all but "" were once read as e3 or e30
    bad_docs += tuple(
        {"dim": 4, "brackets": [{"i": 1, "j": 2, "coeffs": {key: "1"}}], "J": _J_STANDARD[4]}
        for key in (" 3", "+3", "\u0663", "03", "3 ", "3_0", "3\n", "")
    )
    for i, doc in enumerate(bad_docs):
        with pytest.raises(SchemaError):
            parse_entry(doc)
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--input", str(path)]) == 3
    # JSON that the decoder itself refuses: an integer too long to convert, deep nesting
    for i, text in enumerate(('{"dim": ' + "1" * 5000 + ', "J": ["0"]}', "[" * 100000)):
        path = tmp_path / f"raw{i}.json"
        path.write_text(text)
        assert main(["report", "--input", str(path)]) == 3


def test_canonical_coefficient_keys_parse():
    """The shipped catalog data and entry_to_dict output (keys up to "12") still parse."""
    from transdolbeault.acs import AlmostComplexStructure
    from transdolbeault.catalog import catalog_get, catalog_names, standard_j
    from transdolbeault.lie import LieAlgebra

    pairs = []
    for name in catalog_names():
        entry = catalog_get(name, n=2 if name == "abelian2n" else None)
        pairs.append((entry.algebra, entry.acs, entry.h))
    filiform12 = LieAlgebra.from_brackets(12, {(0, i): {i + 1: 1} for i in range(1, 11)})
    pairs.append((filiform12, AlmostComplexStructure(standard_j(12)), None))
    for algebra, acs, h in pairs:
        parsed = parse_entry(entry_to_dict(algebra, acs, h=h))
        assert parsed.algebra == algebra
        assert parsed.acs == acs


def test_strict_commands_reject_a_stabilizer(capsys):
    for command in ("classify", "flag", "cohomology", "report"):
        assert main([command, "--catalog", "su2_mod_u1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"validation error: {command} expects a strict structure; use the homogeneous command\n"
        )


def test_derived_flag_failure_exits_2_without_traceback(monkeypatch, capsys):
    import transdolbeault.flag as flag_mod
    from transdolbeault.linalg import Subspace

    def shrink(algebra, acs, d):  # Im N is 2-dimensional on kodaira_thurston
        return Subspace.zero(algebra.dim)

    monkeypatch.setattr(flag_mod, "_grow", shrink)
    flag_mod.derived_flag.cache_clear()
    try:
        assert main(["report", "--catalog", "kodaira_thurston"]) == 2
    finally:
        flag_mod.derived_flag.cache_clear()
    err = capsys.readouterr().err
    assert "derived flag failed to grow strictly before stabilizing" in err
    assert "Traceback" not in err


@pytest.fixture
def corrupt_block(monkeypatch):
    """corrupt_block(name, bid) makes the `name` block out of bid all ONE in the
    operators that cohomology reads. Every cohomology cache that reads the
    operators is cleared at the patch and again at teardown, so the result does
    not depend on which tests ran before."""
    import transdolbeault.cohomology as coh
    from transdolbeault.forms import component_operators
    from transdolbeault.scalars import ONE

    cached = (coh._restricted_del_bar, coh.transverse_dolbeault, coh._mu_bar_presentations,
              coh.mu_bar_cohomology, coh._cw_pipeline, coh.generalized_dolbeault)

    def corrupt(name, bid):
        def corrupted(algebra, acs):
            ops = dict(component_operators(algebra, acs))
            op = ops[name]
            ops[name] = operator_from_blocks(op, tuple(
                (b, tuple(tuple(ONE for _ in row) for row in mat) if b == bid else mat)
                for b, mat in op.blocks
            ))
            return ops

        monkeypatch.setattr(coh, "component_operators", corrupted)
        for fn in cached:
            fn.cache_clear()

    yield corrupt
    for fn in cached:
        fn.cache_clear()


def test_cw_inclusion_failure_exits_2_without_traceback(corrupt_block, capsys):
    """del_bar(Ker mu_bar) ⊆ Ker mu_bar follows from mu_bar del_bar + del_bar mu_bar = 0,
    so a corrupted del_bar block is a theorem violation, not bad user data."""
    corrupt_block("del_bar", (1, 0))
    assert main(["cohomology", "--theory", "cw", "--catalog", "heisenberg5_plus_r"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "theorem violation (internal bug): del_bar(Ker mu_bar) is not contained in "
        "Ker mu_bar at bidegree (1, 1)\n"
    )


@pytest.mark.parametrize("name, message", [
    ("del_bar", "d left the transverse module at bidegree (1, 1)"),
    ("mu_bar", "mu/mu_bar acted nontrivially on a transverse (1,0)-form"),
], ids=["del_bar", "mu_bar"])
def test_transverse_closure_failure_exits_2_without_traceback(corrupt_block, capsys, name, message):
    """d keeps the transverse module and has no mu or mu_bar part on it; report
    reads the same corrupted operators in its transverse table first."""
    corrupt_block(name, (1, 0))
    assert main(["report", "--catalog", "heisenberg5_plus_r"]) == 2
    assert capsys.readouterr().err == f"theorem violation (internal bug): {message}\n"


@pytest.mark.parametrize("name, bid, source, theory, message", [
    ("del_bar", (0, 0), "iwasawa", "cw",
     "induced del_bar does not square to zero: del_bar(del_bar(Ker mu_bar)) is not contained "
     "in Im mu_bar at bidegree (0, 2)"),
    ("del_bar", (0, 0), "iwasawa", "trans",
     "del_bar does not square to zero on the transverse module at bidegree (0, 0)"),
    ("del_bar", (1, 2), "heisenberg5_plus_r", "cw",
     "del_bar(Im mu_bar) is not contained in Im mu_bar at bidegree (1, 3)"),
    # mu_bar out of (1, 2) lands in (0, 4), so this needs m >= 4: filiform-8
    ("mu_bar", (1, 2), "filiform8", "cw",
     "Im mu_bar escaped Ker mu_bar at bidegree (1, 2) (mu_bar^2 != 0)"),
], ids=["induced_square", "transverse_square", "image_inclusion", "mu_bar_square"])
def test_cohomology_theorem_checks_exit_2_without_traceback(
    corrupt_block, capsys, tmp_path, name, bid, source, theory, message
):
    """Each identity the cohomology pipelines check is reached by a corrupted block."""
    if source == "filiform8":
        from transdolbeault.acs import AlmostComplexStructure
        from transdolbeault.catalog import standard_j
        from transdolbeault.lie import LieAlgebra

        filiform = LieAlgebra.from_brackets(8, {(0, i): {i + 1: 1} for i in range(1, 7)})
        path = tmp_path / "filiform8.json"
        path.write_text(dumps_canonical(entry_to_dict(filiform, AlmostComplexStructure(standard_j(8)))))
        args = ["--input", str(path), "--seed", "0"]
    else:
        args = ["--catalog", source]
    corrupt_block(name, bid)
    assert main(["cohomology", "--theory", theory, *args]) == 2
    assert capsys.readouterr().err == f"theorem violation (internal bug): {message}\n"


def test_random_acs_exhausted_draws_exit_1_without_traceback(monkeypatch, capsys):
    """Sixty-four singular draws in a row are a validation error, not a RuntimeError."""
    from types import SimpleNamespace

    import transdolbeault.catalog as catalog_mod

    draws = []

    class AllZero:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            draws.append((lo, hi))
            return 0

    monkeypatch.setattr(catalog_mod, "random", SimpleNamespace(Random=AllZero))
    assert main(["classify", "--catalog", "kodaira_thurston", "--seed", "3"]) == 1
    assert capsys.readouterr().err == (
        "validation error: could not draw an invertible matrix in 64 attempts\n"
    )
    assert len(draws) == 64 * 4 * 4


def test_form_serialization_roundtrip(kt):
    import random

    from transdolbeault.errors import SchemaError
    from transdolbeault.forms import bigrade, bigraded_frame
    from transdolbeault.schema import form_from_json, form_to_json

    rng = random.Random(4)
    frame = bigraded_frame(kt.algebra, kt.acs)
    form = bigrade(kt.algebra, kt.acs, {(0, 1): 2, (1, 3): -5, (0, 2): rng.randint(1, 9)})
    doc = form_to_json(form)
    assert form_from_json(frame, doc) == form
    assert json.loads(dumps_canonical(doc)) == doc
    # keys are canonical ASCII decimals, as for bracket coefficients: the first
    # seven were once read as index 1 of (1,0), and a non-object form or
    # component raised AttributeError
    for bad in (
        {" 1, 0 ": {"+1": "1"}},
        {"1,0": {"\u0661": "2"}},
        {"1,0": {"0_1": "1"}},
        {"1,0": {"01": "1"}},
        {"1,0": {" 1": "1"}},
        {"+1,0": {"1": "1"}},
        {"1, 0": {"1": "1"}},
        {"1,0,": {"1": "1"}},
        {"1": {"1": "1"}},
        {"1,0": 5},
        {"1,0": ["1"]},
        [],
    ):
        with pytest.raises(SchemaError):
            form_from_json(frame, bad)


def test_schema_checks_j_before_building_the_algebra(monkeypatch):
    """A J of the wrong length is rejected before anything of size dim is allocated."""
    import transdolbeault.schema as schema_mod
    from transdolbeault.errors import SchemaError

    def forbidden(*args, **kwargs):
        raise AssertionError("LieAlgebra.from_brackets ran before the J checks")

    monkeypatch.setattr(schema_mod.LieAlgebra, "from_brackets", forbidden)
    brackets = [{"i": 1, "j": 2, "coeffs": {"3": "1"}}]
    for doc in (
        {"dim": 10000000, "brackets": brackets, "J": ["0"]},
        {"dim": 1e300, "brackets": brackets, "J": ["0"]},
        {"dim": 4, "brackets": brackets, "J": ["0", "-1", "1", "0"]},
    ):
        with pytest.raises(SchemaError, match="'J' must have"):
            parse_entry(doc)


_J_STANDARD = {
    2: ["0", "-1", "1", "0"],
    4: ["0", "-1", "0", "0", "1", "0", "0", "0", "0", "0", "0", "-1", "0", "0", "1", "0"],
}


def _fuzz_documents():
    from hypothesis import strategies as st

    huge = st.sampled_from(["1" + "0" * 2200, 10 ** 300, 1e300, -(10 ** 300)])
    junk = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 5), st.floats(allow_nan=True),
        st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2), huge,
    )
    scalar = st.one_of(st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", "x", ""]), junk)
    dim = st.one_of(st.integers(-2, 4), junk)
    j = st.one_of(
        st.sampled_from(list(_J_STANDARD.values())),
        st.lists(scalar, max_size=17),
        junk,
    )
    index = st.one_of(st.integers(-1, 5), junk)
    coeffs = st.one_of(st.dictionaries(st.one_of(st.sampled_from(["1", "2", "3", "4", "9"]), st.text(max_size=2)),
                                       scalar, max_size=3), junk)
    bracket_entry = st.one_of(st.fixed_dictionaries({"i": index, "j": index, "coeffs": coeffs}), junk)
    brackets = st.one_of(st.lists(bracket_entry, max_size=3), junk)
    h = st.one_of(st.lists(st.one_of(st.lists(scalar, max_size=5), junk), max_size=2), junk)
    optional = st.fixed_dictionaries({}, optional={"brackets": brackets, "h": h, "J_mod_h": junk})
    return st.tuples(st.fixed_dictionaries({}, optional={"dim": dim, "J": j}), optional).map(
        lambda parts: {**parts[0], **parts[1]}
    )


def test_report_input_fuzz_exits_cleanly():
    """Any small JSON-like document makes `report` exit 0, 1 or 3, never raise."""
    import contextlib
    import io
    import os
    import tempfile

    from hypothesis import given, settings

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")

        @settings(max_examples=300, deadline=None)
        @given(_fuzz_documents())
        def run(doc):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = main(["report", "--input", path])
            assert status in (0, 1, 3), (doc, status)

        run()
