"""End-to-end assertions on every experiment's quick-scale output.

These check the *scientific claims* each table is supposed to exhibit —
not just that code runs.
"""


import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def tables():
    return {name: EXPERIMENTS[name]() for name in EXPERIMENTS}


class TestRegistry:
    def test_all_registered(self, tables):
        assert set(tables) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
            "A1", "A2", "A3", "STRESS", "CHURN-STRESS", "FUZZ",
            "E9-SCALE", "ABLATION",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_case_insensitive(self):
        table = run_experiment("e2")
        assert table.rows

    def test_every_table_renders(self, tables):
        for table in tables.values():
            rendered = table.render()
            assert rendered
            assert table.to_markdown()


class TestClaims:
    def test_e1_halving_and_validity_hold(self, tables):
        table = tables["E1"]
        assert all(tables["E1"].column("halved every iter"))
        assert all(table.column("validity ok"))

    def test_e2_validity_and_consistency_hold(self, tables):
        table = tables["E2"]
        assert all(table.column("validity ok"))
        assert all(table.column("consistency ok"))

    def test_e3_estimates_within_delta(self, tables):
        table = tables["E3"]
        assert all(table.column("within (L12)"))
        assert all(table.column("within (L13)"))

    def test_e4_skew_within_bound(self, tables):
        table = tables["E4"]
        assert all(table.column("within"))
        assert all(table.column("live"))
        # Steady-state skew sits well below the worst-case bound.
        for steady, bound in zip(
            table.column("steady skew"), table.column("bound S")
        ):
            assert steady < bound

    def test_e5_resilience_gap(self, tables):
        table = tables["E5"]
        rows = {
            (row[0], row[1]): row for row in table.rows
        }  # (f, algorithm)
        # CPS holds everywhere.
        for (f, algorithm), row in rows.items():
            if algorithm == "CPS":
                assert row[6], f"CPS broke at f={f}"
        # LW holds at its design resilience and breaks at f = 4 >= n/3.
        assert rows[(2, "Lynch-Welch")][6]
        assert not rows[(4, "Lynch-Welch")][6]

    def test_e6_ordering_of_algorithms(self, tables):
        table = tables["E6"]
        by_algo = {}
        for row in table.rows:
            by_algo.setdefault(row[0], []).append(row)
        # Signed relay skew is order d (>= 0.3 d), CPS well below.
        for row in by_algo["Signed relay [28]/[21]"]:
            assert row[4] > 0.3
        for row in by_algo["CPS (this paper)"]:
            assert row[4] < 0.05
        # Chain relay grows with n.
        chain = by_algo["Chain relay [2]-style"]
        assert chain[-1][4] > chain[0][4]

    def test_e6_covers_every_algorithm_and_size(self, tables):
        assert len(tables["E6"].rows) >= 8

    def test_stress_live_rows_within_bound(self, tables):
        table = tables["STRESS"]
        # A failed trial tabulates without metrics, so its f is NaN.
        assert all(f == f for f in table.column("f"))
        live = table.column("live")
        assert any(live)
        assert all(
            within
            for within, alive in zip(table.column("within"), live)
            if alive
        )

    def test_e7_lower_bound_met_exactly(self, tables):
        table = tables["E7"]
        assert all(table.column(">= bound"))
        assert all(table.column("well-defined"))
        for identity, expected in zip(
            table.column("identity sum"), table.column("2u~")
        ):
            assert identity == pytest.approx(expected, abs=1e-6)

    def test_e8_degradation_with_u_tilde(self, tables):
        table = tables["E8"]
        rows = table.rows
        # u~ = u: within S, zero rejections.
        assert rows[0][4]
        assert rows[0][5] == 0
        # u~ >> u: bound violated, rejections of honest dealers happen.
        assert not rows[-1][4]
        assert rows[-1][5] > 0

    def test_e9_periods_within_bounds(self, tables):
        assert all(tables["E9"].column("within"))

    def test_e10_contracts_to_floor(self, tables):
        table = tables["E10"]
        skews = table.column("skew")
        bound = table.column("bound S")[0]
        assert skews[0] == pytest.approx(bound, rel=0.1)  # worst start
        assert min(skews) < skews[0] / 4                  # contraction
        assert all(s <= bound + 1e-9 for s in skews)

    def test_a1_echo_rejection_matters(self, tables):
        table = tables["A1"]
        rows = {row[0]: row for row in table.rows}
        assert rows[True][5]       # with the rule: Lemma 13 holds
        assert not rows[False][5]  # without: consistency broken
        assert rows[False][2] > 0  # the staggered dealer was accepted

    def test_a2_discard_rule_matters(self, tables):
        table = tables["A2"]
        rows = {row[0]: row for row in table.rows}
        assert rows["f-b"][2] == "ok"
        assert rows["f"][2] != "ok"

    def test_e9_scale_bound_holds_at_all_sizes(self, tables):
        table = tables["E9-SCALE"]
        assert sorted(table.column("n")) == [100, 1000, 10000]
        assert all(table.column("within"))
        assert all(table.column("live"))
        # S is n-independent: every row reports the same bound.
        assert len(set(table.column("bound S"))) == 1

    def test_fuzz_shards_end_as_their_space_predicts(self, tables):
        table = tables["FUZZ"]
        assert all(table.column("ok"))
        # The quick grid carries both polarities: valid shards find
        # nothing, the known-bad shard always finds a counterexample.
        by_strategy = dict(
            zip(table.column("strategy"), table.column("found"))
        )
        assert by_strategy["valid"] is False
        assert by_strategy["known-bad"] is True

    def test_a3_send_offset_matters(self, tables):
        table = tables["A3"]
        with_offset, without_offset = table.rows
        assert with_offset[3] == 0       # no honest ⊥ with the offset
        assert without_offset[3] > 0     # rejections without it
        assert with_offset[5]
