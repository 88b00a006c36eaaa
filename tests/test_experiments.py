"""Smoke + shape tests for every experiment runner (quick mode)."""

import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run every experiment once in quick mode (cached per module)."""
    return {key: run_experiment(key, quick=True) for key in EXPERIMENTS}


class TestAllExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_runs_and_renders(self, results, key):
        result = results[key]
        assert isinstance(result, ExperimentResult)
        assert result.rows
        assert all(len(row) == len(result.headers) for row in result.rows)
        text = result.to_text()
        assert result.title in text
        md = result.to_markdown()
        assert md.startswith(f"### {key}")


class TestShapes:
    """The qualitative claims each experiment must regenerate."""

    def test_e1_ratio_matches_theorem1(self, results):
        for row in results["E1"].rows:
            m, ratio, predicted = row[0], row[6], row[7]
            assert ratio == pytest.approx(predicted, rel=0.02), f"m={m}"

    def test_e1_adversarial_slower_than_random(self, results):
        for row in results["E1"].rows:
            t_adv, t_rand, t_clair = row[4], row[5], row[3]
            assert t_clair <= t_rand <= t_adv

    def test_e2_ratio_approaches_one(self, results):
        ratios = [row[5] for row in results["E2"].rows]
        # monotone toward 1 as node size shrinks, final within 5%
        assert ratios[-1] >= 0.95
        assert ratios == sorted(ratios)

    def test_e3_fractions_positive_and_below_bound(self, results):
        for row in results["E3"].rows:
            frac = row[1]
            assert 0 < frac <= 1.0 + 1e-6

    def test_e4_speed_helps(self, results):
        fracs = [row[1] for row in results["E4"].rows]
        assert fracs[-1] > 3 * fracs[0]  # speed 3 vastly beats speed 1

    def test_e5_augmented_beats_unaugmented(self, results):
        rows = results["E5"].rows
        by_eps = {}
        for eps, speed, frac, *_ in rows:
            by_eps.setdefault(eps, {})[speed] = frac
        for eps, entry in by_eps.items():
            base = entry[1.0]
            augmented = entry[1.0 + eps]
            assert augmented >= base

    def test_e6_positive_fractions(self, results):
        for row in results["E6"].rows:
            assert row[2] > 0  # S earns something in every regime

    def test_e7_s_degrades_gracefully(self, results):
        load_rows = [r for r in results["E7"].rows if isinstance(r[0], float)]
        s_col = results["E7"].headers.index("S(eps=1)")
        fifo_col = results["E7"].headers.index("FIFO")
        s_vals = [r[s_col] for r in load_rows]
        fifo_vals = [r[fifo_col] for r in load_rows]
        # at the highest load S holds a better fraction than FIFO
        assert s_vals[-1] > fifo_vals[-1]

    def test_e8_zero_violations(self, results):
        for row in results["E8"].rows:
            assert row[3] == 0  # lemma violations
            assert row[5] == 0  # post-hoc violations

    def test_e9_trap_separation(self, results):
        trap = {r[1]: r[2] for r in results["E9"].rows if r[0] == "trap"}
        assert trap["S"] >= 3 * trap["S-no-admission"]

    def test_e10_ratio_growth(self, results):
        ratios = [float(row[6]) for row in results["E10"].rows]
        assert ratios == sorted(ratios, reverse=True)

    def test_e11_reports_throughput(self, results):
        for row in results["E11"].rows:
            assert row[5] > 0  # steps/s

    def test_e15_covers_single_and_all_routers(self, results):
        from repro.cluster.router import ROUTERS

        rows = results["E15"].rows
        assert [row[0] for row in rows] == ["single"] + [
            name for name in sorted(ROUTERS) if name != "band-aware"
        ]
        for row in rows:
            assert row[2] > 0  # completed
            assert row[4] > 0  # profit

    def test_e15_clusters_shed_only_in_shards(self):
        """E15's clusters are unsupervised: nothing is shed at the
        cluster level, so its shed column (``ClusterResult.num_shed``,
        shard sheds only) counts every shed."""
        from repro.experiments import e15_cluster

        specs, m = e15_cluster.workload(quick=True)
        for name, result, _ in e15_cluster.cluster_runs(specs, m):
            assert result.extra.get("cluster_shed", []) == [], name
            assert len(result.shed) == result.num_shed, name
