import numpy as np
import pytest

from hmpc.scenarios import (
    ForecastModel,
    PeriodRealization,
    ScenarioPool,
    SchemaError,
    load_csv,
    load_pool,
    sample_period,
    save_pool,
    stream,
    synthetic_pool,
)


def _flat(n, price=0.1, fr=0.02, load=100.0, alpha=0.2):
    one = np.ones(n + 1)
    return PeriodRealization(price * one, fr * one, load * one, alpha * one)


def test_realization_validation():
    with pytest.raises(ValueError):
        _flat(4, price=-0.1)
    with pytest.raises(ValueError):
        _flat(4, alpha=1.5)
    with pytest.raises(ValueError):
        PeriodRealization([0.1, 0.1], [0.0, 0.0], [1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PeriodRealization([0.1], [0.0], [1.0], [0.0])


def test_keys_distinguish_content():
    a, b = _flat(4), _flat(4)
    assert a.key == b.key
    c = _flat(4, load=101.0)
    assert c.key != a.key
    assert _flat(4, alpha=0.3).key != a.key


def test_arrays_are_frozen():
    d = _flat(3)
    with pytest.raises(ValueError):
        d.load[0] = 5.0


def test_pool_validation():
    d = _flat(4)
    with pytest.raises(ValueError):
        ScenarioPool(support=(d,), weights=[0.5])
    with pytest.raises(ValueError):
        ScenarioPool(support=(d, _flat(5)), weights=[0.5, 0.5])
    pool = ScenarioPool(support=(d,), weights=[1.0])
    assert pool.size == 1 and pool.n_steps == 4


def test_single_template_pool_always_returns_it():
    d = _flat(4)
    pool = ScenarioPool(support=(d,), weights=[1.0])
    rng = stream(7)
    for _ in range(10):
        assert sample_period(pool, rng) is d


def test_sampling_frequencies_match_weights():
    pool = synthetic_pool(n_steps=4, n_scenarios=5, seed=3)
    rng = stream(123)
    counts = np.zeros(5)
    index = {d.key: k for k, d in enumerate(pool.support)}
    draws = 100_000
    for _ in range(draws):
        counts[index[sample_period(pool, rng).key]] += 1
    freq = counts / draws
    sigma = np.sqrt(0.2 * 0.8 / draws)
    assert np.all(np.abs(freq - 0.2) < 3 * sigma)


def test_sampling_is_reproducible():
    pool = synthetic_pool(n_steps=6, n_scenarios=4, seed=0)
    seq1 = [sample_period(pool, stream(9)).key for _ in range(1)]
    a = stream(9)
    b = stream(9)
    seq_a = [sample_period(pool, a).key for _ in range(50)]
    seq_b = [sample_period(pool, b).key for _ in range(50)]
    assert seq_a == seq_b
    assert seq1[0] == seq_a[0]


def test_sampled_realizations_are_support_members():
    pool = synthetic_pool(n_steps=5, n_scenarios=3, seed=11)
    rng = stream(2)
    for _ in range(20):
        drawn = sample_period(pool, rng)
        assert any(drawn is d for d in pool.support)


class TestForecast:
    def test_zero_sigma_is_identity(self):
        truth = _flat(6)
        model = ForecastModel(noise_sigma=0.0, seed=1)
        assert model.make_forecast(truth) is truth

    def test_lognormal_moment(self):
        sigma = 0.1
        truth = _flat(4999)  # 5000 samples per series
        model = ForecastModel(noise_sigma=sigma, seed=5)
        hat = model.make_forecast(truth)
        ratios = np.concatenate(
            [hat.energy_price / truth.energy_price, hat.load / truth.load]
        )
        assert ratios.mean() == pytest.approx(np.exp(sigma**2 / 2), rel=0.02)
        assert (ratios > 0).all()

    def test_fr_request_stays_in_unit_interval(self):
        one = np.ones(200)
        truth = PeriodRealization(one, one, one, 0.95 * one)
        hat = ForecastModel(noise_sigma=0.5, seed=2).make_forecast(truth)
        assert (hat.fr_request <= 1.0).all() and (hat.fr_request >= 0.0).all()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ForecastModel(noise_sigma=-0.1)


class TestCsv:
    def _write(self, tmp_path, rows, header="hour,energy_price,fr_price,load,fr_request"):
        p = tmp_path / "data.csv"
        p.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
        return p

    def test_two_days_and_wraparound(self, tmp_path):
        rows = [f"{h % 24},0.1,0.02,{100 + i},0.2" for i, h in enumerate(range(48))]
        periods = load_csv(self._write(tmp_path, rows))
        assert len(periods) == 2
        assert periods[0].n_steps == 24
        # sample 24 of day one is hour 0 of day two
        assert periods[0].load[24] == periods[1].load[0] == 124.0
        # the last day wraps to its own first hour
        assert periods[1].load[24] == periods[1].load[0]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(SchemaError):
            load_csv(p)

    def test_header_only(self, tmp_path):
        with pytest.raises(SchemaError, match="no data rows"):
            load_csv(self._write(tmp_path, []))

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("hour,price,load\n0,1,2\n")
        with pytest.raises(SchemaError, match="header"):
            load_csv(p)

    @pytest.mark.parametrize("column, value", [
        ("energy_price", "-0.1"), ("fr_price", "-1"), ("load", "nan"), ("load", "inf"),
        ("load", "-3"),
    ])
    def test_negative_load_rejected_with_line_number(self, tmp_path, column, value):
        bad = dict(energy_price="0.1", fr_price="0.0", load="50")
        bad[column] = value
        rows = ["0,0.1,0.0,50,0.1", f"1,{bad['energy_price']},{bad['fr_price']},{bad['load']},0.1"]
        with pytest.raises(ValueError, match=":3:"):
            load_csv(self._write(tmp_path, rows))

    def test_fr_request_out_of_range(self, tmp_path):
        rows = ["0,0.1,0.0,50,1.2"]
        with pytest.raises(ValueError, match="fr_request"):
            load_csv(self._write(tmp_path, rows))

    def test_unequal_days(self, tmp_path):
        rows = ["0,0.1,0,50,0.1", "1,0.1,0,50,0.1", "0,0.1,0,50,0.1"]
        with pytest.raises(SchemaError, match="unequal"):
            load_csv(self._write(tmp_path, rows))

    def test_wrong_column_count(self, tmp_path):
        rows = ["0,0.1,0.0,50"]
        with pytest.raises(SchemaError, match="5 columns"):
            load_csv(self._write(tmp_path, rows))


def test_pool_json_round_trip(tmp_path):
    pool = synthetic_pool(n_steps=8, n_scenarios=4, seed=21)
    path = tmp_path / "pool.json"
    save_pool(pool, path, seed=21)
    back = load_pool(path)
    assert back.size == pool.size
    np.testing.assert_allclose(back.weights, pool.weights, rtol=1e-12)
    for d0, d1 in zip(pool.support, back.support):
        np.testing.assert_allclose(d1.energy_price, d0.energy_price, rtol=1e-12)
        np.testing.assert_allclose(d1.load, d0.load, rtol=1e-12)
        np.testing.assert_allclose(d1.fr_request, d0.fr_request, rtol=1e-12)


def test_synthetic_pool_shape():
    pool = synthetic_pool(n_steps=24, n_scenarios=5, seed=0)
    assert pool.size == 5
    assert pool.weights.sum() == pytest.approx(1.0)
    keys = {d.key for d in pool.support}
    assert len(keys) == 5
    for d in pool.support:
        assert d.n_steps == 24
        assert (d.load > 0).all()
        assert (d.energy_price > 0).all()
