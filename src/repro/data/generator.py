"""Synthetic scaled dataset of Section 6.

Three relations generalising the pizzeria schema:

    Orders(customer, date, package)
    Packages(package, item)
    Items(item, price)

Scaling parameter ``s`` follows the paper's description:

- the number of dates on which orders are placed is ``800·s``;
- the average number of orders per order date is 2, with a binomial
  distribution (so |Orders| ≈ 1600·s and, with 20 customers, each
  customer orders on ≈ 80·s dates — the paper's other stated average);
- there are ``100·√s`` items and ``40·√s`` packages of ``20·√s`` items
  on average (binomial).

The natural join R1 = Orders ⋈ Packages ⋈ Items therefore grows by an
extra ``√s`` factor (≈ items per package) over its factorisation: the
paper's succinctness gap, whose fitted exponents ``python -m repro
sizes`` reports.

Generation is deterministic per (scale, seed).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.relational.relation import Relation


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the Section 6 generator (defaults = the paper's text)."""

    scale: float = 1.0
    seed: int = 2013  # the paper's year; any fixed value works
    customers: int = 20
    dates_per_scale: int = 800
    orders_per_date: float = 2.0
    items_per_sqrt_scale: int = 100
    packages_per_sqrt_scale: int = 40
    package_size_per_sqrt_scale: int = 20
    max_price: int = 20

    @property
    def n_dates(self) -> int:
        return max(1, round(self.dates_per_scale * self.scale))

    @property
    def n_items(self) -> int:
        return max(1, round(self.items_per_sqrt_scale * math.sqrt(self.scale)))

    @property
    def n_packages(self) -> int:
        return max(
            1, round(self.packages_per_sqrt_scale * math.sqrt(self.scale))
        )

    @property
    def package_size(self) -> int:
        return max(
            1,
            round(self.package_size_per_sqrt_scale * math.sqrt(self.scale)),
        )


@dataclass
class GeneratedData:
    """The three relations plus the labels used to build them."""

    orders: Relation
    packages: Relation
    items: Relation
    config: GeneratorConfig = field(default_factory=GeneratorConfig)

    def relations(self) -> tuple[Relation, Relation, Relation]:
        return self.orders, self.packages, self.items


def _binomial(rng: random.Random, mean: float, spread: int = 2) -> int:
    """A binomial draw with the given mean: Binomial(spread·mean, 1/spread)."""
    trials = max(1, round(mean * spread))
    probability = mean / trials
    return sum(1 for _ in range(trials) if rng.random() < probability)


def generate(config: GeneratorConfig) -> GeneratedData:
    """Generate the dataset for one scale factor."""
    # String seeds hash deterministically across processes (unlike tuple
    # hashes, which PYTHONHASHSEED randomises).
    rng = random.Random(f"{config.seed}/{config.scale!r}")

    customers = [f"c{i:03d}" for i in range(config.customers)]
    dates = [f"d{i:07d}" for i in range(config.n_dates)]
    item_names = [f"i{i:05d}" for i in range(config.n_items)]
    package_names = [f"p{i:05d}" for i in range(config.n_packages)]

    items = Relation(
        ("item", "price"),
        [(item, rng.randint(1, config.max_price)) for item in item_names],
        name="Items",
    )

    package_rows: list[tuple[str, str]] = []
    for package in package_names:
        size = min(
            config.n_items, max(1, _binomial(rng, config.package_size))
        )
        for item in rng.sample(item_names, size):
            package_rows.append((package, item))
    packages = Relation(("package", "item"), package_rows, name="Packages")

    order_rows: set[tuple[str, str, str]] = set()
    for date in dates:
        for _ in range(_binomial(rng, config.orders_per_date)):
            order_rows.add(
                (
                    rng.choice(customers),
                    date,
                    rng.choice(package_names),
                )
            )
    orders = Relation(
        ("customer", "date", "package"), sorted(order_rows), name="Orders"
    )
    return GeneratedData(orders, packages, items, config)


def generate_database(scale: float = 1.0, seed: int = 2013) -> GeneratedData:
    """Convenience wrapper: generate at a scale with default knobs."""
    return generate(GeneratorConfig(scale=scale, seed=seed))
