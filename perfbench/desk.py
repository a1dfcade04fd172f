"""cli_desk: the README's commands, each as a fresh ``python -m rpsf.cli``.

One operation is one command, timed from spawn to exit and scaled to
reference speed (see ``speed``). Commands come in cycles of twenty with a
fixed composition, so every seed weighs the commands alike; the seed
picks parameters and the order inside a cycle.
Every output is checked against ``oracles`` or against values stated in
the README and the acceptance suite, never against rpsf itself.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import children
import oracles
import speed

SCENARIOS = (
    "loan_with_interest", "savings_account_with_interest", "ina_two_party",
    "tawarruq_classic", "contractus_trinus", "murabaha", "tawarruq_pi",
    "tawarruq_pi_prime", "tawarruq_pi_double_prime", "tawarruq_pi_triple_prime",
    "tawarruq_single_contract", "brokered_loan", "unethical_examples",
)

POSITIONS = ("CONVENTIONAL", "STRICT_DESCRIPTIVE", "STRICT_FUNCTIONAL", "MAJORITY", "MALAYSIA")

EXIT = {"halal": 0, "haram": 3}

# Verdicts at default parameters: the ten-verdict matrix of acceptance
# criterion 4 plus the expected maps the scenario builders declare.
VERDICTS: dict[str, tuple[tuple[tuple[str, ...], str], ...]] = {
    "CONVENTIONAL": tuple(((name,), "halal") for name in SCENARIOS)
    + ((("ina_two_party", "single_contract=true"), "halal"),),
    "STRICT_DESCRIPTIVE": (
        (("savings_account_with_interest",), "haram"),
        (("tawarruq_pi_double_prime",), "halal"),
        (("tawarruq_pi_triple_prime",), "halal"),
        (("unethical_examples",), "haram"),
    ),
    "STRICT_FUNCTIONAL": (
        (("savings_account_with_interest",), "haram"),
        (("tawarruq_pi",), "haram"),
        (("tawarruq_pi_prime",), "haram"),
        (("tawarruq_pi_double_prime",), "haram"),
    ),
    "MAJORITY": (
        (("ina_two_party",), "haram"),
        (("ina_two_party", "single_contract=true"), "haram"),
        (("tawarruq_classic",), "halal"),
    ),
    "MALAYSIA": (
        (("ina_two_party",), "halal"),
        (("ina_two_party", "single_contract=true"), "haram"),
    ),
}

# Interleaving counts of the README's enumerate examples at the seed commit;
# neither depends on the prices.
ENUMERATED = {"tawarruq_pi_triple_prime": 8, "tawarruq_classic": 3}

# Bound-4 synthesis of an integral savings target over the trade catalogue:
# the same counts for every parameter set the generator can draw.
SYNTH_BOUND4 = {"witness_count": 14, "explored": 247}

KNOWN_DEFECT = ("synthesize on a savings target whose repayment is not a whole number "
                "exits 2 (ValidationError: market value is not a multiple of block size)")


@dataclass
class Command:
    label: str
    argv: list[str]
    check: Callable[["Command"], Optional[str]]
    code: int = -1
    out: bytes = b""
    err: bytes = b""
    known_defect: Callable[["Command"], bool] = field(default=lambda c: False)

    def payload(self) -> dict:
        return json.loads(self.out)


@dataclass(frozen=True)
class Sample:
    seconds: float  # scaled to reference speed
    measured: float  # as measured
    status: str  # "ok", "failed" or "known-defect"
    note: str = ""
    peak_rss_kb: int = 0


def _expect_code(code: int) -> Callable[[Command], Optional[str]]:
    def check(c: Command) -> Optional[str]:
        return None if c.code == code else f"exit {c.code}, expected {code}"
    return check


def _text_net(text: str, agent: str) -> Fraction:
    prefix = f"  {agent}: balance "
    for line in text.splitlines():
        if line.startswith(prefix):
            return Fraction(line.rsplit("net ", 1)[1].rstrip(")"))
    raise ValueError(f"no balance line for {agent}")


class CliDesk:
    name = "cli_desk"

    def __init__(self, root: str, tmp: str, env: dict[str, str]):
        self.root = root
        self.tmp = tmp
        self.env = env
        self.tracer = None  # set while commands run traced
        self.witness_path = os.path.join(tmp, "witness.json")
        self.params: list[Fraction] = []
        self.pending: list[Command] = []

    # -- inputs ------------------------------------------------------------

    def setup(self, seed: int) -> None:
        self.rng = random.Random(f"cli_desk:{seed}")
        warm = self._execute(Command("warm-up", ["list-scenarios"], _expect_code(0)))
        if warm.code != 0:
            raise RuntimeError(f"warm-up command failed: {warm.err.decode()}")

    def _savings(self) -> dict[str, str]:
        rng = self.rng
        p = rng.randrange(1, 51) * 100
        k = rng.randint(1, 10)
        c = rng.randint(0, min(10, k * p // 100 - 1))
        q = rng.choice((f"{k}/100", f"0.{k:02d}"))
        params = {"p": str(p), "c": str(c), "q": q, "t": str(rng.randint(30, 730))}
        self.params.extend(Fraction(v) for v in params.values())
        return params

    def _cycle(self) -> list[Command]:
        rng = self.rng

        def kv(params: dict[str, str]) -> list[str]:
            return [f"{k}={v}" for k, v in params.items()]

        def run_json(name: str, params: dict[str, str], expected) -> Command:
            def check(c: Command) -> Optional[str]:
                if c.code != 0:
                    return f"exit {c.code}"
                got = oracles.json_nets(c.payload()["net_positions"])
                return None if got == expected else f"net positions {got} != {expected}"
            return Command(f"run {name} json", ["run", name, *kv(params), "--format", "json"],
                           check)

        def run_text(name: str, params: dict[str, str], header: str, x_net: Fraction) -> Command:
            def check(c: Command) -> Optional[str]:
                text = c.out.decode()
                if c.code != 0 or header not in text:
                    return f"exit {c.code} or missing {header!r}"
                got = _text_net(text, "X")
                return None if got == x_net else f"X net {got} != {x_net}"
            return Command(f"run {name} -v", ["run", name, *kv(params), "-v"], check)

        ops: list[Command] = []

        def list_text(c: Command) -> Optional[str]:
            heads = {line.split("  [")[0] for line in c.out.decode().splitlines()}
            missing = set(SCENARIOS) - heads
            return f"exit {c.code}, missing {sorted(missing)}" if c.code or missing else None

        def list_json(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}"
            names = tuple(s["name"] for s in c.payload()["scenarios"])
            return None if names == SCENARIOS else f"scenarios {names}"

        ops.append(Command("list-scenarios", ["list-scenarios"], list_text))
        ops.append(Command("list-scenarios json", ["list-scenarios", "--format", "json"],
                           list_json))

        for _ in range(2):
            s = self._savings()
            ops.append(run_json("savings_account_with_interest", s,
                                oracles.savings_nets(s["p"], s["c"], s["q"], int(s["t"]))))
        p = rng.randint(100, 10000)
        loan = {"p": str(p), "i": str(rng.randint(0, p // 5)), "c": str(rng.randint(0, 10)),
                "c2": str(rng.randint(0, 5)), "t": str(rng.randint(1, 730))}
        self.params.extend(Fraction(v) for v in loan.values())
        ops.append(run_json("loan_with_interest", loan, oracles.loan_nets(
            loan["p"], loan["i"], loan["c"], loan["c2"], int(loan["t"]))))

        p = rng.randint(10, 1000)
        taw = {"p": str(p), "i": str(rng.randint(0, p // 5)), "t": str(rng.randint(1, 730))}
        ops.append(run_text("tawarruq_classic", taw,
                            f"tawarruq_classic: 10 events, final day {taw['t']}",
                            Fraction(taw["i"])))
        s = self._savings()
        ops.append(run_text("savings_account_with_interest", s,
                            f"events, final day {s['t']}",
                            Fraction(s["q"]) * Fraction(s["p"]) - Fraction(s["c"])))

        for position in POSITIONS:
            target, verdict = rng.choice(VERDICTS[position])
            argv = ["judge", *target, "--position", position]
            if rng.random() < 0.5:
                argv += ["--format", "json"]
            ops.append(Command(f"judge {position}", argv, _expect_code(EXIT[verdict])))

        def compare_x(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}"
            return None if c.payload()["equivalent"] is True else "not equivalent from X"

        ops.append(Command("compare X", ["compare", "pi_prime", "savings_account_with_interest",
                                         "--perspective", "X", "--format", "json"],
                           compare_x))
        ops.append(Command("compare all", ["compare", "pi_prime",
                                           "savings_account_with_interest"], _expect_code(5)))

        def enum_text(c: Command) -> Optional[str]:
            lines = c.out.decode().splitlines()
            want = ENUMERATED["tawarruq_pi_triple_prime"]
            ok = (c.code == 0 and lines and f": {want} maximal interleavings" in lines[0]
                  and sum(line.startswith("  [") for line in lines) == want)
            return None if ok else f"exit {c.code}, header {lines[:1]}"

        def enum_json(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}"
            data = c.payload()
            want = ENUMERATED["tawarruq_classic"]
            ok = data["count"] == want and len(data["progressions"]) == want
            return None if ok else f"count {data['count']} != {want}"

        ops.append(Command("enumerate -v", ["enumerate", "tawarruq_pi_triple_prime", "-v"],
                           enum_text))
        p = rng.randint(10, 1000)
        ops.append(Command("enumerate json", ["enumerate", "tawarruq_classic", f"p={p}",
                                              f"i={rng.randint(0, p // 5)}", "-v",
                                              "--format", "json"], enum_json))

        s = self._savings()
        target_x = oracles.savings_nets(s["p"], s["c"], s["q"], int(s["t"]))["X"]

        def synth(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}"
            data = c.payload()
            got = {k: data[k] for k in SYNTH_BOUND4}
            if not data["found"] or got != SYNTH_BOUND4:
                return f"found={data['found']} {got} != {SYNTH_BOUND4}"
            if not all(any(a["kind"] == "buy-on-credit" for a in w["actions"])
                       for w in data["witnesses"]):
                return "a witness without a credit sale"
            with open(self.witness_path, "w", encoding="utf-8") as fh:
                json.dump({"scenarios": [data["witness_scenarios"][0]]}, fh)
            return None

        synthesize = Command("synthesize", ["synthesize", "--target",
                                            "savings_account_with_interest", *kv(s),
                                            "--catalogue", "spot-sale,credit-sale,prepare-good",
                                            "--bound", "4", "--perspective", "X",
                                            "--format", "json"], synth)
        ops.append(synthesize)

        def witness(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}"
            got = oracles.json_nets(c.payload()["net_positions"]).get("X")
            return None if got == target_x else f"witness X nets {got} != {target_x}"

        witness_run = Command("run witness --scenario-file",
                              ["run", "witness-0", "--scenario-file", self.witness_path,
                               "--format", "json"], witness)

        p = rng.choice([n for n in range(1000, 5000) if n % 3])

        def nonintegral(c: Command) -> Optional[str]:
            if c.code != 0:
                return f"exit {c.code}: {c.err.decode().strip()}"
            data = c.payload()
            if not data["found"] or not all(
                    any(a["kind"] == "buy-on-credit" for a in w["actions"])
                    for w in data["witnesses"]):
                return "no witness with a credit sale"
            return None

        def is_known(c: Command) -> bool:
            return c.code == 2 and b"is not a multiple of block size" in c.err

        ops.append(Command("synthesize q=1/3", ["synthesize", "--target",
                                                "savings_account_with_interest", f"p={p}",
                                                "q=1/3", "--bound", "4", "--format", "json"],
                           nonintegral, known_defect=is_known))

        rng.shuffle(ops)
        at = ops.index(synthesize)
        ops.insert(rng.randint(at + 1, len(ops)), witness_run)

        # identical invocations must print identical output; always the
        # same kind of command, so the cycle's composition stays fixed
        original = next(c for c in ops if c.label == "run loan_with_interest json")

        def same_output(c: Command) -> Optional[str]:
            if (c.code, c.out) == (original.code, original.out):
                return None
            return f"{original.label}: a repeated invocation printed different output"

        at = ops.index(original)
        ops.insert(rng.randint(at + 1, len(ops)),
                   Command(f"repeat {original.label}", original.argv, same_output))
        return ops

    # -- operations --------------------------------------------------------

    def _execute(self, command: Command) -> children.Finished:
        """Run the command once in a fresh process."""
        if self.tracer is not None:
            stats = os.path.join(self.tmp, "spans.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"),
                   stats, *command.argv]
        else:
            cmd = [sys.executable, "-m", "rpsf.cli", *command.argv]
        done = children.spawn(cmd, self.root, self.env)
        if self.tracer is not None:
            with open(stats, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh))
            os.remove(stats)
        return done

    def step(self) -> Sample:
        """Run the next command of the current cycle and check its output."""
        if not self.pending:
            self.pending = self._cycle()
        command = self.pending.pop(0)
        done, seconds, factor = speed.timed(lambda: self._execute(command))
        command.code, command.out, command.err = done.code, done.out, done.err
        try:
            problem = command.check(command)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None:
            status = "ok"
        elif command.known_defect(command):
            status, problem = "known-defect", KNOWN_DEFECT
        else:
            status = "failed"
        note = f"{command.label}: {problem}" if problem else ""
        return Sample(seconds * factor, seconds, status, note, done.peak_rss_kb)

    def quantities(self) -> list:
        from rpsf.money import Quantity

        return [Quantity(f.numerator, f.denominator) for f in self.params]
