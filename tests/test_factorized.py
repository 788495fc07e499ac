"""Factorized cofactor evaluation == cofactor over the materialized join."""
import pickle

import numpy as np
import pandas as pd
import pytest

from repro.ring import AttrSchema, cofactor_ring
from repro.ring.factorized import fact_fold, final_fold, keyed_fold, lift_dim
from repro.ring.triple import Triple, _py, triple_sum


def cofactor_factorized_2(left, right, schema, left_attrs, right_attrs, key):
    """Example 4: SUM(t1.T * t2.T) over pre-aggregated per-key triples.

    Both sides are aggregated in Spark; the pairwise multiply + global sum
    runs distributed via ``mapInPandas`` over the joined keyed triples.
    """
    t1 = fact_fold(left, schema, left_attrs, [], None, [key]).withColumnRenamed("t", "t1")
    t2 = fact_fold(right, schema, right_attrs, [], None, [key]).withColumnRenamed("t", "t2")
    joined = t1.join(t2, on=key, how="inner").select("t1", "t2")

    def mul_sum(batches):
        acc = Triple.zero(schema)
        for b in batches:
            for a, c in zip(b["t1"], b["t2"]):
                acc = acc + pickle.loads(a) * pickle.loads(c)
        yield pd.DataFrame({"t": [pickle.dumps(acc)]})

    rows = joined.mapInPandas(mul_sum, "t binary").collect()
    return triple_sum((pickle.loads(r.t) for r in rows), schema)


def _lift_grouped_iterrows(pdf, schema, attrs, by):
    """Frozen copy of ``lift_grouped``'s earlier assembly, the reference for
    exact equality: the same pandas group-bys, with the per-(key, category)
    continuous sums read back row by row through ``iterrows``."""
    cont = [n for n in attrs if not schema.is_cat(schema.index(n))]
    cats = [n for n in attrs if schema.is_cat(schema.index(n))]

    def norm_key(k):
        return _py(k[0]) if isinstance(k, tuple) and len(by) == 1 else (
            tuple(_py(x) for x in k) if isinstance(k, tuple) else _py(k)
        )

    work_cols, pair_names = {}, []
    xc = pdf[cont].to_numpy(dtype=np.float64, copy=False)
    for a, ca in enumerate(cont):
        work_cols[f"__s_{a}"] = xc[:, a]
        for b in range(a, len(cont)):
            i, j = schema.index(ca), schema.index(cont[b])
            work_cols[f"__q_{a}_{b}"] = xc[:, a] * xc[:, b]
            pair_names.append((f"__q_{a}_{b}", *((i, j) if i <= j else (j, i))))
    work = pd.DataFrame(work_cols, index=pdf.index)
    work[by] = pdf[by]
    gb = work.groupby(by, sort=False, observed=True)
    sizes, agg = gb.size(), gb.sum()
    col_pos = {c: k for k, c in enumerate(agg.columns)}
    mat, nvec = agg.to_numpy(dtype=np.float64), sizes.to_numpy(dtype=np.float64)
    out = {}
    for r, k in enumerate(agg.index):
        s = {schema.index(ca): mat[r][col_pos[f"__s_{a}"]] for a, ca in enumerate(cont)}
        q = {(i, j): mat[r][col_pos[col]] for col, i, j in pair_names}
        out[norm_key(k)] = Triple(schema, nvec[r], s, q)

    for cname in cats:
        i = schema.index(cname)
        counts = pdf.groupby(by + [cname], sort=False, observed=True).size()
        for k, v in counts.items():
            key, cv = norm_key(k[:-1] if len(by) > 1 else k[0]), _py(k[-1])
            t = out[key]
            t.s.setdefault(i, {})[cv] = t.s.get(i, {}).get(cv, 0.0) + float(v)
            t.q.setdefault((i, i), {})[cv] = t.q.get((i, i), {}).get(cv, 0.0) + float(v)
        gsum = pdf.groupby(by + [cname], sort=False, observed=True)[cont].sum()
        for k, row in gsum.iterrows():
            key, cv = norm_key(k[:-1] if len(by) > 1 else k[0]), _py(k[-1])
            t = out[key]
            for ccol in cont:
                j = schema.index(ccol)
                rel = t.q.setdefault((i, j) if i <= j else (j, i), {})
                rel[cv] = rel.get(cv, 0.0) + float(row[ccol])

    for a in range(len(cats)):
        for b in range(a + 1, len(cats)):
            i, j = schema.index(cats[a]), schema.index(cats[b])
            swap = i > j
            if swap:
                i, j = j, i
            pair = pdf.groupby(by + [cats[a], cats[b]], sort=False, observed=True).size()
            for k, v in pair.items():
                key = norm_key(k[:-2] if len(by) > 1 else k[0])
                va, vb = _py(k[-2]), _py(k[-1])
                rel_key = (vb, va) if swap else (va, vb)
                rel = out[key].q.setdefault((i, j), {})
                rel[rel_key] = rel.get(rel_key, 0.0) + float(v)
    return out


@pytest.fixture(scope="module")
def star(spark):
    """Tiny star schema: fact(k1, k2, x) ⋈ d1(k1, a, c) ⋈ d2(k2, b)."""
    g = np.random.default_rng(7)
    n, n1, n2 = 3000, 40, 15
    fact = pd.DataFrame(
        {
            "k1": g.integers(0, n1, n),
            "k2": g.integers(0, n2, n),
            "x": g.normal(size=n).round(4),
        }
    )
    d1 = pd.DataFrame(
        {
            "k1": np.arange(n1),
            "a": g.normal(5, 2, n1).round(4),
            "c": g.choice(["u", "v", "w"], n1),
        }
    )
    d2 = pd.DataFrame({"k2": np.arange(n2), "b": g.normal(-1, 1, n2).round(4)})
    schema = AttrSchema.of(continuous=["x", "a", "b"], categorical=["c"])
    sdf_fact = spark.createDataFrame(fact).repartition(6).cache()
    sdf_fact.count()
    joined = fact.merge(d1, on="k1").merge(d2, on="k2")
    yield dict(fact=fact, d1=d1, d2=d2, sdf_fact=sdf_fact, joined=joined, schema=schema, spark=spark)
    sdf_fact.unpersist()


class TestTwoTable:
    def test_example4_two_table(self, spark, star):
        """SUM(t1.T * t2.T) over per-key partials == cofactor over the join."""
        schema = star["schema"]
        r = spark.createDataFrame(star["fact"][["k1", "x"]])
        s = spark.createDataFrame(star["d1"])
        fac = cofactor_factorized_2(r, s, schema, ["x"], ["a", "c"], "k1")
        joined = spark.createDataFrame(star["fact"][["k1", "x"]].merge(star["d1"], on="k1"))
        mat = cofactor_ring(joined, schema, attrs=["x", "a", "c"])
        assert fac.allclose(mat, rtol=1e-7, atol=1e-4)

    def test_example4_key_mismatch_drops_rows(self, spark, star):
        schema = star["schema"]
        d1_half = star["d1"].iloc[:20]
        r = spark.createDataFrame(star["fact"][["k1", "x"]])
        s = spark.createDataFrame(d1_half)
        fac = cofactor_factorized_2(r, s, schema, ["x"], ["a", "c"], "k1")
        joined = spark.createDataFrame(star["fact"][["k1", "x"]].merge(d1_half, on="k1"))
        mat = cofactor_ring(joined, schema, attrs=["x", "a", "c"])
        assert fac.allclose(mat, rtol=1e-7, atol=1e-4)


class TestLiftGrouped:
    """Vectorized multi-group lift == per-group bulk lift."""

    def test_matches_per_group_lift_block(self, star):
        from repro.ring.triple import lift_block, lift_grouped

        schema = star["schema"]
        j = star["joined"]
        got = lift_grouped(j, schema, ["x", "a", "c"], ["k2"])
        for k, grp in j.groupby("k2"):
            assert got[k].allclose(lift_block(grp, schema, ["x", "a", "c"]),
                                   rtol=1e-9, atol=1e-9), k

    def test_compound_keys(self, star):
        from repro.ring.triple import lift_block, lift_grouped

        schema = star["schema"]
        j = star["joined"]
        got = lift_grouped(j, schema, ["x", "b", "c"], ["k1", "k2"])
        sample = list(got)[:5]
        for k in sample:
            grp = j[(j["k1"] == k[0]) & (j["k2"] == k[1])]
            assert got[k].allclose(lift_block(grp, schema, ["x", "b", "c"]))

    def test_bit_identical_to_iterrows_assembly(self):
        """Every n, s and q entry equals the row-by-row reference exactly:
        two key columns, two categoricals (one key lacks a category), and
        float and integer continuous attributes."""
        from repro.ring.triple import lift_grouped

        g = np.random.default_rng(11)
        n = 4000
        pdf = pd.DataFrame({
            "k1": g.integers(0, 6, n),
            "k2": g.integers(0, 4, n),
            "x": g.normal(3, 10, n),
            "y": g.lognormal(2, 1, n),
            "z": g.integers(-50, 50, n),
            "c1": g.choice(["u", "v", "w"], n),
            "c2": g.integers(0, 3, n),
        })
        pdf.loc[pdf["k1"] == 0, "c1"] = "u"
        # interleaved, so cat x cont pairs are keyed both (cat, cont) and (cont, cat)
        schema = AttrSchema(("y", "c2", "x", "c1", "z"), (False, True, False, True, False))
        attrs = ["x", "c1", "y", "c2", "z"]
        got = lift_grouped(pdf, schema, attrs, ["k1", "k2"])
        want = _lift_grouped_iterrows(pdf, schema, attrs, ["k1", "k2"])
        i_c1 = schema.index("c1")
        assert set(got[(0, 0)].s[i_c1]) == {"u"} and len(want) == 24
        assert got.keys() == want.keys()
        for k, t in want.items():
            assert got[k].n == t.n, k
            assert got[k].s == t.s, k
            assert got[k].q == t.q, k

    def test_empty_frame(self, star):
        from repro.ring.triple import lift_grouped

        assert lift_grouped(star["joined"].iloc[:0], star["schema"],
                            ["x"], ["k1"]) == {}

    def test_no_attrs_counts_only(self, star):
        from repro.ring.triple import lift_grouped

        got = lift_grouped(star["joined"], star["schema"], [], ["k2"])
        sizes = star["joined"].groupby("k2").size()
        for k, n in sizes.items():
            assert got[k].n == n and not got[k].s


class TestLiftDim:
    def test_lift_dim_single_key(self, star):
        schema = star["schema"]
        dims = lift_dim(star["d1"], schema, ["a", "c"], ["k1"])
        assert len(dims) == 40
        t0 = dims[0]
        row = star["d1"].iloc[0]
        assert t0.n == 1 and np.isclose(t0.sum_of("a"), row["a"])
        assert t0.sum_of("c") == {row["c"]: 1.0}

    def test_lift_dim_compound_key(self, star):
        schema = star["schema"]
        d = star["d2"].copy()
        d["k2b"] = d["k2"] % 3
        dims = lift_dim(d, schema, ["b"], ["k2", "k2b"])
        assert (0, 0) in dims

    def test_lift_dim_grouped(self, star):
        """Non-unique key: the dim triples aggregate the group."""
        schema = star["schema"]
        d = pd.concat([star["d2"], star["d2"]], ignore_index=True)
        dims = lift_dim(d, schema, ["b"], ["k2"])
        assert dims[0].n == 2


class TestStarFold:
    def test_full_star_fold(self, star):
        """fact ⋈ d1 ⋈ d2 via fold == cofactor over materialized join."""
        schema, spark = star["schema"], star["spark"]
        d1t = lift_dim(star["d1"], schema, ["a", "c"], ["k1"])
        d2t = lift_dim(star["d2"], schema, ["b"], ["k2"])
        # Fold d1 into the fact grouped by k2, then multiply by d2 per key.
        keyed = fact_fold(star["sdf_fact"], schema, ["x"], ["k1"], d1t, ["k2"])
        total = final_fold(keyed, schema, ["k2"], d2t)
        expected = cofactor_ring(spark.createDataFrame(star["joined"]), schema)
        assert total.allclose(expected, rtol=1e-6, atol=1e-3)

    def test_fold_then_keyed_fold(self, star):
        """Same plan but with the second fold running in Spark."""
        schema, spark = star["schema"], star["spark"]
        d1t = lift_dim(star["d1"], schema, ["a", "c"], ["k1"])
        d2t = lift_dim(star["d2"], schema, ["b"], ["k2"])
        fact2 = star["fact"].copy()
        fact2["bucket"] = fact2["k2"] % 4
        sdf = spark.createDataFrame(fact2)
        keyed = fact_fold(sdf, schema, ["x"], ["k1"], d1t, ["k2", "bucket"])
        keyed2 = keyed_fold(keyed, schema, ["k2"], d2t, ["bucket"])
        total = final_fold(keyed2, schema)
        expected = cofactor_ring(spark.createDataFrame(star["joined"]), schema)
        assert total.allclose(expected, rtol=1e-6, atol=1e-3)

    def test_merge_leaf_matches_dict_path(self, star):
        """The vectorized merge-lift leaf equals the per-key ring-product path."""
        schema = star["schema"]
        d1t = lift_dim(star["d1"], schema, ["a", "c"], ["k1"])
        via_dict = final_fold(
            fact_fold(star["sdf_fact"], schema, ["x"], ["k1"], d1t, ["k2"]),
            schema,
        )
        via_merge = final_fold(
            fact_fold(star["sdf_fact"], schema, ["x"], ["k1"], None, ["k2"],
                      inner_frame=(star["d1"], ["a", "c"])),
            schema,
        )
        assert via_merge.allclose(via_dict, rtol=1e-7, atol=1e-4)

    def test_fact_fold_no_dim(self, star):
        schema = star["schema"]
        keyed = fact_fold(star["sdf_fact"], schema, ["x"], [], None, ["k1"])
        total = final_fold(keyed, schema)
        direct = cofactor_ring(star["sdf_fact"], schema, attrs=["x"])
        assert total.allclose(direct, rtol=1e-7, atol=1e-4)

    def test_marginalization_counts(self, star):
        """After folding, N equals the join cardinality, not the fact size."""
        schema = star["schema"]
        d1_half = lift_dim(star["d1"].iloc[:10], schema, ["a", "c"], ["k1"])
        keyed = fact_fold(star["sdf_fact"], schema, ["x"], ["k1"], d1_half, ["k2"])
        total = final_fold(keyed, schema)
        expected_n = (star["fact"]["k1"] < 10).sum()
        assert total.n == expected_n
