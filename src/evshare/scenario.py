"""Seeded instance generation: spatial layouts, windows, demands, tariffs.

Everything is derived deterministically from ScenarioConfig (including the
seed); generating twice with the same config yields a byte-identical
instance JSON.  Money lands in integer minor units (0.01 SEK), with
exact-fraction scaling so tariff sweeps stay reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charging import ChargingInstance
from .core import EvshareError, _exact, _half_up


class ScenarioError(EvshareError):
    pass


class PriceFormatError(EvshareError):
    pass


@dataclass(frozen=True)
class PriceSeries:
    """24 hourly energy prices in minor units per energy unit."""

    prices: tuple

    def __post_init__(self):
        if len(self.prices) != 24:
            raise PriceFormatError(f"need exactly 24 hourly prices, got {len(self.prices)}")
        if any(p < 0 for p in self.prices):
            raise PriceFormatError("negative price")


def load_price_series(csv_text):
    """Parse `hour,price` rows (price in SEK) into a PriceSeries in minor units."""
    seen = {}
    rows = csv_text.strip().splitlines()
    for lineno, raw in enumerate(rows, start=1):
        line = raw.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") == "hour,price":
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise PriceFormatError(f"row {lineno}: expected `hour,price`, got {raw!r}")
        try:
            hour = int(parts[0])
        except ValueError:
            raise PriceFormatError(f"row {lineno}: non-integer hour {parts[0]!r}") from None
        try:
            price = Fraction(parts[1].strip())
        except (ValueError, ZeroDivisionError):
            raise PriceFormatError(f"row {lineno}: non-numeric price {parts[1]!r}") from None
        if hour < 0 or hour > 23:
            raise PriceFormatError(f"row {lineno}: hour {hour} outside 0-23")
        if hour in seen:
            raise PriceFormatError(f"row {lineno}: duplicate hour {hour}")
        seen[hour] = _half_up(price * 100)
    missing = [h for h in range(24) if h not in seen]
    if missing:
        raise PriceFormatError(f"missing hour {missing[0]}")
    return PriceSeries(tuple(seen[h] for h in range(24)))


# A synthetic-but-plausible Nordic day-ahead shape (SEK/kWh in minor units):
# cheap overnight, morning and evening peaks.
DEFAULT_PRICES = PriceSeries(
    (42, 39, 37, 36, 38, 45, 62, 84, 95, 88, 79, 74,
     70, 68, 66, 69, 78, 92, 104, 98, 86, 71, 58, 48))


def energy_cost_matrix(ev_locations, charger_locations, sek_per_km):
    """Travel cost table w[i, j] in minor units: Euclidean km x tariff, half-up rounded."""
    rate = _exact(sek_per_km) * 100
    table = {}
    for i, a in ev_locations.items():
        for j, b in charger_locations.items():
            km = math.dist(a, b)
            table[i, j] = _half_up(Fraction(str(km)) * rate)
    return table


@dataclass(frozen=True)
class ScenarioConfig:
    ev_distribution: str = "uniform"        # uniform | clustered
    charger_layout: str = "uniform"         # uniform | centralized
    n_evs: int = 10
    n_chargers: int = 5
    area_km: float = 10.0
    seed: int = 0
    horizon: int = 24
    rental_fee_sek: int = 1500
    vot_sek_per_hour: int = 300
    travel_sek_per_km: float = 6.0
    collab_discount: float = 0.5            # beta: collaborative fee = public fee x beta
    charge_rate_kw: int = 50
    window_length_h: int = 4
    earliest_start_range: tuple = (1, 20)
    demand_intervals: tuple = (1, 3)        # each EV needs this many intervals at full rate
    price_scale: float = 1.0                # theta: uniform scaling of both tariffs

    def validate(self):
        if self.ev_distribution not in ("uniform", "clustered"):
            raise ScenarioError(f"unknown ev_distribution {self.ev_distribution!r}")
        if self.charger_layout not in ("uniform", "centralized"):
            raise ScenarioError(f"unknown charger_layout {self.charger_layout!r}")
        if self.n_evs <= 0 or self.n_chargers <= 0:
            raise ScenarioError("counts must be positive")
        if not 0 < self.area_km < math.inf:
            raise ScenarioError(f"area must be positive and finite, got {self.area_km!r}")
        if self.horizon < 1:
            raise ScenarioError("horizon must be at least 1")
        beta = _exact(self.collab_discount)
        if not (0 < beta <= 1):
            raise ScenarioError("collab_discount must lie in (0, 1]")
        if _exact(self.price_scale) <= 0:
            raise ScenarioError("price_scale must be positive")
        lo, hi = self.demand_intervals
        if not (1 <= lo <= hi):
            raise ScenarioError("demand_intervals must satisfy 1 <= lo <= hi")
        a, b = self.earliest_start_range
        if not (0 <= a <= b):
            raise ScenarioError("earliest_start_range must satisfy 0 <= lo <= hi")

    def instance_name(self):
        ev = {"uniform": "UniEV", "clustered": "CluEV"}[self.ev_distribution]
        ch = {"uniform": "UniChar", "centralized": "CenChar"}[self.charger_layout]
        return f"{ev}-{ch}-{self.n_evs}-{self.n_chargers}"


def _round_pos(xy):
    return (round(float(xy[0]), 6), round(float(xy[1]), 6))


def _draw_positions(cfg, rng):
    area = cfg.area_km
    ev_pos = {}
    if cfg.ev_distribution == "uniform":
        for n in range(cfg.n_evs):
            ev_pos[f"v{n + 1}"] = _round_pos(rng.uniform(0.0, area, size=2))
    else:
        centers = [rng.uniform(0.0, area, size=2) for _ in range(2)]
        dev = area / 10.0
        for n in range(cfg.n_evs):
            c = centers[n % 2]
            while True:
                p = rng.normal(c, dev, size=2)
                inside = 0.0 <= p[0] <= area and 0.0 <= p[1] <= area
                if inside and abs(p[0] - c[0]) <= 3 * dev and abs(p[1] - c[1]) <= 3 * dev:
                    break
            ev_pos[f"v{n + 1}"] = _round_pos(p)
    ch_pos = {}
    lo, hi = (0.0, area) if cfg.charger_layout == "uniform" else (area / 4.0, 3.0 * area / 4.0)
    for m in range(cfg.n_chargers):
        ch_pos[f"c{m + 1}"] = _round_pos(rng.uniform(lo, hi, size=2))
    return ev_pos, ch_pos


def _tariffs(cfg, prices, chargers, horizon):
    theta = _exact(cfg.price_scale)
    beta = _exact(cfg.collab_discount)
    own_by_hour = []
    collab_by_hour = []
    for p in prices.prices:
        own = theta * p
        collab = theta * _half_up(beta * p)
        if own.denominator != 1 or collab.denominator != 1:
            raise ScenarioError(
                f"price_scale {cfg.price_scale} does not keep tariff {p} on whole minor units")
        own_by_hour.append(int(own))
        collab_by_hour.append(int(collab))
    own = {}
    collab = {}
    for j in chargers:
        for t in range(1, horizon + 1):
            hour = (t - 1) % 24
            own[j, t] = own_by_hour[hour]
            collab[j, t] = collab_by_hour[hour]
    return own, collab


def _greedy_fits(evs, window, need, chargers, horizon):
    """First-fit check: True means a non-overlapping placement exists (sound,
    not complete -- used only to steer the generator away from dead draws)."""
    free = {j: [True] * (horizon + 1) for j in chargers}
    order = sorted(evs, key=lambda i: (window[i][1], window[i][0], i))
    for i in order:
        e, l = window[i]
        d = need[i]
        placed = False
        for j in chargers:
            for s in range(e, l - d + 1):
                if all(free[j][t] for t in range(s + 1, s + d + 1)):
                    for t in range(s + 1, s + d + 1):
                        free[j][t] = False
                    placed = True
                    break
            if placed:
                break
        if not placed:
            return False
    return True


def generate_scenario(config, prices=None):
    """Generate a two-company ChargingInstance from a seeded config."""
    cfg = config
    cfg.validate()
    series = prices if prices is not None else DEFAULT_PRICES
    rng = np.random.default_rng(cfg.seed)

    ev_pos, ch_pos = _draw_positions(cfg, rng)
    evs = tuple(sorted(ev_pos, key=lambda s: int(s[1:])))
    chargers = tuple(sorted(ch_pos, key=lambda s: int(s[1:])))
    companies = ("k1", "k2")
    owner = {i: companies[n % 2] for n, i in enumerate(evs)}

    rate = int(cfg.charge_rate_kw)  # energy units per 1 h interval
    charge_rate = {(i, j): rate for i in evs for j in chargers}
    travel = energy_cost_matrix(ev_pos, ch_pos, cfg.travel_sek_per_km)
    fee = int(cfg.rental_fee_sek) * 100
    rental = {(j, k): fee for j in chargers for k in companies}
    own, collab = _tariffs(cfg, series, chargers, cfg.horizon)
    vot = {i: int(cfg.vot_sek_per_hour) * 100 for i in evs}

    e_lo, e_hi = cfg.earliest_start_range
    e_hi = min(e_hi, cfg.horizon - 1)
    e_lo = min(e_lo, e_hi)
    d_lo, d_hi = cfg.demand_intervals

    for _attempt in range(50):
        window = {}
        need = {}
        for i in evs:
            for _retry in range(200):
                e = int(rng.integers(e_lo, e_hi + 1))
                d = int(rng.integers(d_lo, d_hi + 1))
                l = min(e + cfg.window_length_h, cfg.horizon)
                if l - e >= d:
                    window[i] = (e, l)
                    need[i] = d
                    break
            else:
                raise ScenarioError(f"cannot draw a viable window for EV {i}")
        fits = _greedy_fits(evs, window, need, chargers, cfg.horizon)
        for k in companies:
            fleet = [i for i in evs if owner[i] == k]
            fits = fits and _greedy_fits(fleet, window, need, chargers, cfg.horizon)
        if fits:
            break
    else:
        raise ScenarioError("generator could not reach a feasible draw within the retry budget")

    demand = {i: (need[i] * rate, need[i] * rate) for i in evs}
    return ChargingInstance(
        name=f"{cfg.instance_name()}-seed{cfg.seed}",
        companies=companies,
        evs=evs,
        owner=owner,
        chargers=chargers,
        horizon=cfg.horizon,
        rental_fee=rental,
        energy_fee_own=own,
        energy_fee_collab=collab,
        charge_rate=charge_rate,
        travel_cost=travel,
        vot=vot,
        window=window,
        demand=demand,
        ev_positions=ev_pos,
        charger_positions=ch_pos,
    )


def t1_instance():
    """The hand-checkable two-EV reference instance used across the test suite.

    Two companies with one EV each, two chargers, four intervals; every fee
    uniform; each EV needs exactly two intervals of charge.  Small enough
    that every feasible outcome can be enumerated by hand.
    """
    companies = ("k1", "k2")
    evs = ("v1", "v2")
    chargers = ("A", "B")
    T = 4
    return ChargingInstance(
        name="T1",
        companies=companies,
        evs=evs,
        owner={"v1": "k1", "v2": "k2"},
        chargers=chargers,
        horizon=T,
        rental_fee={(j, k): 1000 for j in chargers for k in companies},
        energy_fee_own={(j, t): 100 for j in chargers for t in range(1, T + 1)},
        energy_fee_collab={(j, t): 200 for j in chargers for t in range(1, T + 1)},
        charge_rate={(i, j): 5 for i in evs for j in chargers},
        travel_cost={("v1", "A"): 100, ("v1", "B"): 300, ("v2", "A"): 300, ("v2", "B"): 100},
        vot={i: 200 for i in evs},
        window={i: (0, 4) for i in evs},
        demand={i: (10, 10) for i in evs},
    )
