"""Named experiment recipes: frozen configs for the standard tables/figures.

Each recipe maps to one config dict (or a list of dicts for sweep
recipes), built by ``_recipe`` with every key written out; a table's
builder passes only what differs from the shared settings. Names ending
in ``-d20`` or ``-d100`` are long-running (``LONG_RUNNING``).
"""

from __future__ import annotations

import copy

__all__ = ["RECIPES", "LONG_RUNNING", "recipe_names", "get_recipe"]


_SCHEDULES = {"eta0": 0.1, "alpha": 0.501, "h0": 0.1, "gamma": 0.7}


def _recipe(
    name: str, model: dict, kind: str, seed: int, *,
    m: int = 1, replacement: str = "with", n: int = 100_000, **rest,
) -> dict:
    """One frozen config with every key written out: the shared schedules,
    100 replications, level 0.95 and the three methods, unless ``rest``
    sets its own."""
    return {
        "name": name,
        "model": model,
        "directions": {"kind": kind, "m": m, "replacement": replacement},
        "schedules": dict(_SCHEDULES),
        "n": n,
        "replications": 100,
        "seed": seed,
        "level": 0.95,
        "inference": ["plugin", "random_scaling", "oracle"],
        **rest,
    }


def _table2(family: str, design: str, d: int, seed: int) -> dict:
    model = {"family": family, "dim": d, "design": design, "rho": 0.2}
    return _recipe(f"table2-{family}-{design}-d{d}", model, "canonical", seed)


def _directions(kind: str, seed: int) -> dict:
    cfg = _recipe(f"table5-directions-{kind}", {"family": "linear", "dim": 5}, kind, seed)
    if kind == "orthonormal":
        cfg["directions"]["basis_seed"] = 11
    if kind == "nonuniform":
        # probabilities proportional to 1..d
        cfg["directions"]["p"] = [k / 15.0 for k in range(1, 6)]
    return cfg


def _multiquery(m: int, replacement: str, seed: int) -> dict:
    tag = "table8-wor" if replacement == "without" else "table7-multiquery"
    return _recipe(f"{tag}-m{m}", {"family": "linear", "dim": 5}, "canonical", seed,
                   m=m, replacement=replacement, n=50_000)


def _quantile(tau: float, seed: int) -> dict:
    return _recipe(
        f"tableD2-quantile-tau{int(round(100 * tau)):02d}",
        {"family": "quantile", "dim": 5, "tau": tau, "sigma2": 0.2},
        "canonical",
        seed,
        # the nonsmooth check loss needs a larger, slower-decaying spacing:
        # the entrywise Hessian second differences have variance ~ 1/h
        schedules={**_SCHEDULES, "h0": 0.2, "gamma": 0.6},
    )


RECIPES: dict[str, dict | list[dict]] = {
    "table2-linear-identity-d5": _table2("linear", "identity", 5, 101),
    "table2-linear-equicorr-d5": _table2("linear", "equicorr", 5, 102),
    "table2-linear-identity-d20": _table2("linear", "identity", 20, 103),
    "table2-linear-equicorr-d20": _table2("linear", "equicorr", 20, 104),
    "table2-logistic-identity-d5": _table2("logistic", "identity", 5, 105),
    "table2-logistic-equicorr-d5": _table2("logistic", "equicorr", 5, 106),
    "table2-logistic-identity-d20": _table2("logistic", "identity", 20, 107),
    "table2-logistic-equicorr-d20": _table2("logistic", "equicorr", 20, 108),
    "table2-linear-identity-d100": _table2("linear", "identity", 100, 109),
    "table5-directions-gaussian": _directions("gaussian", 201),
    "table5-directions-spherical": _directions("spherical", 202),
    "table5-directions-canonical": _directions("canonical", 203),
    "table5-directions-orthonormal": _directions("orthonormal", 204),
    "table5-directions-nonuniform": _directions("nonuniform", 205),
    "table7-multiquery-m2": _multiquery(2, "with", 301),
    "table7-multiquery-m5": _multiquery(5, "with", 302),
    "table8-wor-m2": _multiquery(2, "without", 303),
    "table8-wor-m5": _multiquery(5, "without", 304),
    "tableD2-quantile-tau10": _quantile(0.1, 401),
    "tableD2-quantile-tau50": _quantile(0.5, 402),
    "tableD2-quantile-tau90": _quantile(0.9, 403),
    "fig2-error-checkpoints": _recipe(
        "fig2-error-checkpoints", {"family": "linear", "dim": 5}, "spherical", 501,
        replications=20, checkpoints=[100, 1_000, 10_000, 100_000],
    ),
    "fig5-msweep": [
        _recipe(f"fig5-msweep-m{m}", {"family": "logistic", "dim": 20}, "canonical", 600 + m,
                m=m, n=20_000, schedules={**_SCHEDULES, "eta0": 1.0}, replications=50,
                inference=["plugin", "oracle"])
        for m in (1, 2, 5, 10, 100)
    ],
}

LONG_RUNNING = frozenset(
    name for name in RECIPES if name.endswith("-d100") or name.endswith("-d20")
)


def recipe_names() -> list[str]:
    return sorted(RECIPES)


def get_recipe(name: str) -> dict | list[dict]:
    try:
        return copy.deepcopy(RECIPES[name])
    except KeyError:
        known = ", ".join(recipe_names())
        raise KeyError(f"unknown recipe {name!r}; known recipes: {known}") from None
