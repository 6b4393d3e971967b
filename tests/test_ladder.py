"""The scale ladder (``tests/ladder.py``) at degree 3: a smoke run that
checks the record's shape, not its times."""

import json

import ladder


def test_ladder_records_sizes_times_and_slopes(tmp_path):
    record = ladder.run(tmp_path, degrees=(3,), gauge_degrees=(3,),
                        powers=(3,), steps=(100, 200))
    json.dumps(record)   # the record is plain JSON
    ladders = record["ladders"]
    (search,), (fit,), (field,) = (ladders[k]["rungs"] for k in (
        "symmetries", "verify", "verify_field"))
    # Three slots of C(5 + 3, 3) monomials over t, x, y, x', y' and a gauge
    # of C(3 + 3, 3) - 1 over t, x, y.
    assert (search["unknowns"], search["rank"], search["nullity"]) == \
        (3 * 56 + 19, 171, 16)
    assert search["laws"] == search["nullity"]   # no gauge-only direction
    assert search["rows"] > 0 and search["nnz"] >= search["rows"]
    assert (fit["candidates"], fit["accepted"]) == (4, 2)
    assert fit["residual_terms"] > 0 and fit["gauge_terms"] > 0
    # Two gauge slots of C(3 + 3, 3) - 1 monomials over t, x, u; the
    # divergence-free fields (D_x G, -D_t G), G of degree 2 to 4 in t and
    # x, span the nullity.
    assert (field["candidates"], field["accepted"]) == (6, 4)
    assert (field["unknowns"], field["nullity"]) == (2 * 19, 3 + 4 + 5)
    assert field["rank"] + field["nullity"] == field["unknowns"]
    assert [r["steps"] for r in ladders["numcheck"]["rungs"]] == [100, 200]
    assert all(r["runs"] == 20 and r["truncated"] == 0
               for r in ladders["numcheck"]["rungs"])
    for name, layers in (("symmetries", {"_system", "nullspace", "_law"}),
                         ("verify", {"_antiderivative", "_law"}),
                         ("verify_field", {"_assemble", "solve_affine_many",
                                           "_law"}),
                         ("numcheck", {"check_integrals"})):
        assert all(set(r["times_s"]) == layers and
                   min(r["times_s"].values()) >= 0
                   for r in ladders[name]["rungs"])
        assert set(ladders[name]["slopes"]) == layers
    assert ladders["symmetries"]["slopes"]["_law"] is None   # one rung
    assert isinstance(ladders["numcheck"]["slopes"]["check_integrals"], float)


def test_slope_of_a_power_law():
    assert abs(ladder.slope([(10, 3), (100, 300), (1000, 30000)]) - 2) < 1e-12
    assert ladder.slope([(10, 1.0), (10, 2.0)]) is None
