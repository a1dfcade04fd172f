"""Oracles that do not depend on the code under test.

Everything here uses only the standard library: money is checked with
``fractions.Fraction`` and interleaving counts with a direct dynamic
programme over plan positions. Nothing in this module imports ``rpsf``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence


def frac(value) -> Fraction:
    """A quantity as a Fraction: accepts "n", "n/d", decimals, ints, or
    any object with integer ``num``/``den`` attributes."""
    if hasattr(value, "num") and hasattr(value, "den"):
        return Fraction(value.num, value.den)
    return Fraction(value)


def merge_count(lengths: Sequence[int],
                after: Mapping[tuple[int, int], Iterable[tuple[int, int]]] = {}) -> int:
    """Number of interleavings of sequential plans under cross-plan waits.

    ``lengths[a]`` is the number of steps of plan ``a``. ``after[(a, i)]``
    lists steps ``(b, j)`` that must already have happened before step
    ``i`` of plan ``a`` may run. With no waits this is the multinomial
    coefficient (4, 3, 3) -> 10! / (4! 3! 3!) = 4200.
    """
    lengths = tuple(lengths)
    needs = {step: tuple(reqs) for step, reqs in after.items()}

    @lru_cache(maxsize=None)
    def count(done: tuple[int, ...]) -> int:
        if done == lengths:
            return 1
        total = 0
        for a, n in enumerate(done):
            if n == lengths[a]:
                continue
            if all(done[b] > j for b, j in needs.get((a, n), ())):
                total += count(done[:a] + (n + 1,) + done[a + 1:])
        return total

    return count((0,) * len(lengths))


# ---------------------------------------------------------------------------
# closed forms for the built-in products (per agent, per day, signed)
# ---------------------------------------------------------------------------

def _nets(pairs: Iterable[tuple[str, int, Fraction]]) -> dict[str, dict[int, Fraction]]:
    out: dict[str, dict[int, Fraction]] = {}
    for agent, day, amount in pairs:
        per_day = out.setdefault(agent, {})
        per_day[day] = per_day.get(day, Fraction(0)) + amount
    return {a: {d: v for d, v in days.items() if v} for a, days in out.items()
            if any(days.values())}


def savings_nets(p, c, q, t) -> dict[str, dict[int, Fraction]]:
    """Deposit p at day 0; repayment p - c + q*p at day t (X saver, Y bank)."""
    p, c, q = frac(p), frac(c), frac(q)
    repayment = p - c + q * p
    return _nets([("X", 0, -p), ("Y", 0, p), ("X", t, repayment), ("Y", t, -repayment)])


def loan_nets(p, i, c, c2, t) -> dict[str, dict[int, Fraction]]:
    """p - c out at day 0, p + i + c2 back at day t (X lender, Y borrower)."""
    p, i, c, c2 = frac(p), frac(i), frac(c), frac(c2)
    out_leg, back_leg = p - c, p + i + c2
    return _nets([("X", 0, -out_leg), ("Y", 0, out_leg),
                  ("X", t, back_leg), ("Y", t, -back_leg)])


def json_nets(payload: Mapping) -> dict[str, dict[int, Fraction]]:
    """The ``net_positions`` map of ``rpsf run --format json`` as Fractions."""
    return {agent: {int(day): Fraction(value) for day, value in days.items()}
            for agent, days in payload.items()}


def transfers_conserve(opening: Mapping[str, Fraction],
                       moves: Iterable[tuple[str, str, Fraction, int]],
                       closing: Mapping[str, Fraction]) -> list[str]:
    """Replay cash moves (payer, payee, amount, day) from the opening balances.

    Returns problems: a balance going negative, or closing balances (the
    program's) that differ from the replay or change the total money.
    """
    problems = []
    balance = dict(opening)
    for payer, payee, amount, day in moves:
        balance[payer] = balance.get(payer, Fraction(0)) - amount
        balance[payee] = balance.get(payee, Fraction(0)) + amount
        if balance[payer] < 0:
            problems.append(f"{payer} overdrawn on day {day}")
    if sum(closing.values()) != sum(opening.values()):
        problems.append("total money changed")
    wrong = {a for a in set(balance) | set(closing)
             if balance.get(a, Fraction(0)) != closing.get(a, Fraction(0))}
    if wrong:
        problems.append(f"closing balances differ for {sorted(wrong)}")
    return problems


def unbalanced_days(nets: Mapping[str, Mapping[int, Fraction]]) -> list[int]:
    """Days whose signed nets do not sum to zero over all agents."""
    per_day: dict[int, Fraction] = {}
    for days in nets.values():
        for day, value in days.items():
            per_day[day] = per_day.get(day, Fraction(0)) + value
    return sorted(d for d, v in per_day.items() if v)
