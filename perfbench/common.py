"""Pieces shared by the workloads: the request record and the size ladder."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_sources():
    if not (SRC / "dualfield" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dualfield sources under {SRC}")


def use_checkout_package():
    """Import ``dualfield`` from this checkout's ``src``, never from elsewhere."""
    require_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dualfield

    if Path(dualfield.__file__).resolve().parent != SRC / "dualfield":
        raise SystemExit(f"perfbench: imported dualfield from {dualfield.__file__}, not {SRC}")


@dataclass
class Request:
    kind: str
    window: int | None  # label window bound N, or None where there is none
    spec: dict  # the generated inputs; hashed into the request-list digest
    call: Callable[[Any], Any]  # call(tracer) -> result; tracer is None when untraced
    check: Callable[[Any], str | None]  # result -> None, or what was wrong


def generators(name, seed):
    """(rng, shape): the seeded generator of the inputs, and one fixed for every seed.

    ``shape`` draws whatever sets how much work a request holds (its kind,
    window, sample and stream counts, heat times); ``rng`` draws the rest
    (coefficients, labels, weights, generator seeds) and the order of the
    requests.  Every seed therefore runs the same amount of work.
    """
    return random.Random(f"{name}:{seed}"), random.Random(f"{name}:shape")


def ladder(shape: random.Random, deck, size):
    """(kind, u) pairs: ``size`` strata of [0, 1), each kind once per block of strata.

    Stratum i holds u in [i/size, (i+1)/size).  Consecutive strata are cut
    into blocks of len(deck), and each block takes the kinds of the deck in
    a shuffled order.  Every kind therefore spans the whole size range.
    Pass the fixed ``shape`` generator, so that the ladder is the same for
    every seed.
    """
    assert size % len(deck) == 0
    out = []
    for block in range(size // len(deck)):
        kinds = list(deck)
        shape.shuffle(kinds)
        for j, kind in enumerate(kinds):
            i = block * len(deck) + j
            out.append((kind, (i + shape.random()) / size))
    return out
