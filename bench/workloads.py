"""The benchmark's workloads: fixed lists of ``fdsc`` CLI commands.

Each command is the argument list a user would type after ``fdsc``.  The
string ``{work}`` in an argument stands for the run's work directory.
Set-up writes the inputs that ``verify-sweep`` reads: correct circuits from
``fdsc synth`` and one-gate mutants drawn from the workload seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple[str, ...]
    out: str | None = None     # file the command writes, in the work dir
    mutant: str | None = None  # mutant file it verifies; verdict derived, not pinned

    def resolve(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    largest: str                          # id of the heaviest command
    commands: tuple[Command, ...]
    setup: tuple[Command, ...] = ()       # synth commands run by set-up
    mutant_bases: tuple[str, ...] = ()    # set-up outputs that get mutants


def synth(code: str, size: int, strategy: str) -> Command:
    cid = f"synth-{code}-{size}-{strategy}"
    return Command(cid, ("synth", "--code", code, "--size", str(size),
                         "--strategy", strategy, "--out", f"{{work}}/{cid}.json"),
                   out=f"{cid}.json")


def verify(circuit: Command, oracle: bool = False) -> Command:
    _, code, size, _ = circuit.id.split("-", 3)
    argv = ("verify", "--circuit", f"{{work}}/{circuit.out}", "--code", code,
            "--size", size) + (("--oracle",) if oracle else ())
    return Command("verify-" + circuit.id.split("-", 1)[1], argv)


def verify_mutant(base: Command, kind: str) -> Command:
    _, code, size, _ = base.id.split("-", 3)
    name = mutant_name(base.out, kind)
    return Command(f"verify-mutant-{code}-{size}-{kind}",
                   ("verify", "--circuit", f"{{work}}/{name}", "--code", code,
                    "--size", size), mutant=name)


MUTANT_KINDS = ("drop", "add")


def mutant_name(base_file: str, kind: str) -> str:
    return f"mutant-{kind}-{base_file}"


def groups(group: str, lengths: str, trials: int | None = None) -> Command:
    argv = ("groups", "--group", group, "--lengths", lengths)
    if trials is not None:
        argv += ("--trials", str(trials))
    return Command("groups-" + group.replace(":", "-").replace(",", "x"), argv)


def _toric_scaling(smoke: bool) -> Workload:
    """The paper's scaling study: css build and validation, the toric
    tree-path reconstruction, emission and circuit JSON do the work."""
    sizes = (4, 8) if smoke else (32, 64, 128)
    cmds = [synth("toric", L, s) for L in sizes
            for s in ("toric_comb", "toric_recursive")]
    cmds.append(synth("toric", sizes[0], "greedy"))
    return Workload("toric-scaling", f"synth-toric-{sizes[-1]}-toric_comb",
                    tuple(cmds))


def _fracton_synth(smoke: bool) -> Workload:
    """The generic path: gf2 elimination and products, toric tree path
    bypassed; haah L=14 has the densest fan-out."""
    xs, hs = ((2, 3), (2, 3)) if smoke else ((8, 16), (8, 14))
    cmds = [synth("xcube", L, "xcube_dual_trees") for L in xs]
    cmds += [synth("haah", L, "haah_canonical") for L in hs]
    return Workload("fracton-synth", f"synth-xcube-{xs[-1]}-xcube_dual_trees",
                    tuple(cmds))


def _verify_sweep(smoke: bool) -> Workload:
    """Exact verification at the largest sizes the tableau reaches in
    seconds, the reject path on mutants, and state-vector oracle cases."""
    big = 4 if smoke else 32
    full = [synth("toric", big, "toric_comb"),
            synth("toric", big, "toric_recursive"),
            synth("xcube", 2 if smoke else 8, "xcube_dual_trees"),
            synth("haah", 2 if smoke else 8, "haah_canonical")]
    bases = [synth("toric", 4 if smoke else 16, "toric_comb"),
             synth("xcube", 2 if smoke else 4, "xcube_dual_trees"),
             synth("haah", 2 if smoke else 4, "haah_canonical")]
    oracle = [synth("toric", 3, "toric_comb"), synth("haah", 1, "haah_canonical"),
              synth("ghz", 20, "greedy")]
    cmds = [verify(c) for c in full]
    cmds += [verify_mutant(b, k) for b in bases for k in MUTANT_KINDS]
    cmds += [verify(c, oracle=True) for c in oracle]
    setup = tuple(dict.fromkeys(full + bases + oracle))
    return Workload("verify-sweep", verify(full[3]).id, tuple(cmds), setup,
                    tuple(b.out for b in bases))


def _groups(smoke: bool) -> Workload:
    """Exhaustive D8 stresses per-sequence evaluation; order 128 stresses
    the level tables and network planning."""
    if smoke:
        cmds = (groups("dihedral:4", "2,3"), groups("dihedral:8", "8", 20),
                groups("abelian:2,4", "4,16", 20))
    else:
        cmds = (groups("dihedral:8", "2,3,4"),
                groups("dihedral:64", "16,64,256", 500),
                groups("abelian:2,4", "4,16,64,256", 500))
    return Workload("groups", cmds[1].id, cmds)


def workloads(smoke: bool = False) -> dict[str, Workload]:
    ws = (_toric_scaling(smoke), _fracton_synth(smoke), _verify_sweep(smoke),
          _groups(smoke))
    return {w.name: w for w in ws}


# -- set-up -----------------------------------------------------------------


def write_mutants(work: Path, base_file: str, seed: int) -> list[str]:
    """One circuit with a gate dropped and one with a gate added.

    The added gate keeps the one-layer structure (control in the |+> set,
    target outside it) and is not already present, so the file parses and
    the verdict is decided by the verifier alone.
    """
    doc = json.loads((work / base_file).read_text())
    rng = random.Random(f"{seed}:{base_file}")
    gates = [tuple(g) for g in doc["gates"]]
    plus = doc["plus_qubits"]
    plus_set = set(plus)
    others = [q for q in range(doc["n_qubits"]) if q not in plus_set]
    present = set(gates)
    written = []
    for kind in MUTANT_KINDS:
        if kind == "drop":
            i = rng.randrange(len(gates))
            mutated = gates[:i] + gates[i + 1:]
        else:
            while True:
                g = (rng.choice(plus), rng.choice(others))
                if g not in present:
                    break
            mutated = sorted(gates + [g])
        out = dict(doc, gates=[list(g) for g in mutated])
        name = mutant_name(base_file, kind)
        (work / name).write_text(
            json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
        written.append(name)
    return written
