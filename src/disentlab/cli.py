"""Command-line front end: world management, dataset generation, scoring,
calculus queries, and the verification suites.

Exit codes: 0 success, 1 check/assertion failure, 2 usage or parse error.
All randomness flows from --seed, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
from click.core import ParameterSource

from .calculus import closure, entails, parse_facts
from .continuous import rotation_world
from .errors import DegenerateDenominator, DisentlabError
from .indexset import IndexSet, parse_ints
from .learner import MAX_ENUM_SUPPORT
from .metrics import (
    EvaluationTarget,
    holds,
    mig,
    normalized_consistency,
    normalized_restrictiveness,
)
from .supervision import SupervisionSpec, write_dataset
from .verify import (
    check_assumptions,
    run_counterexample_suite,
    soundness_sweep,
    verify_theorem_guarantees,
)
from .worlds import (
    SCHEMATIC_KINDS,
    CandidateModel,
    DiscreteWorld,
    load_world,
    random_world,
    save_world,
    schematic_world,
)


class _Ints(click.ParamType):
    """Comma-separated nonnegative integers, read by ``parse_ints``."""

    name = "text"  # the metavar --help shows, as for a plain string option

    def convert(self, value, param, ctx):
        try:
            return parse_ints(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


class _World(click.ParamType):
    """A world file, or with ``named`` also a named construction, as the pair
    (world, paired candidate or None); named constructions carry their
    canonical candidate model."""

    name = "text"  # the metavar --help shows, as for a plain string option

    def __init__(self, named: bool):
        self.named = named

    def convert(self, value, param, ctx):
        if self.named and value == "rotation":
            return rotation_world()
        if self.named and value in SCHEMATIC_KINDS:
            return schematic_world(value)
        try:
            return load_world(value), None
        except DisentlabError as exc:
            self.fail(f"invalid world file {value!r}: {exc}", param, ctx)


def _emit_records(records: list[dict], fmt: str):
    if fmt == "json":
        for rec in records:
            click.echo(json.dumps(rec))
        return
    if fmt == "csv":
        fieldnames = list(dict.fromkeys(k for rec in records for k in rec))
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(records)
        click.echo(buf.getvalue().rstrip("\n"))
        return
    for rec in records:
        click.echo("  ".join(f"{k}={v}" for k, v in rec.items()))


class _OneLineErrors(click.Group):
    """A command group whose usage errors print only their ``Error:`` line
    (exit code 2).  ``UsageError.show`` prints the usage and a help hint
    above the message when the error has a context, so that context is
    dropped; errors that show themselves otherwise, such as the help page of
    a bare group, keep it.  Subcommand errors pass through ``invoke``,
    which also makes every library error, and every file that cannot be
    read or written, a usage error."""

    @staticmethod
    def _drop_context(exc: click.UsageError):
        if type(exc).show is click.UsageError.show:
            exc.ctx = None

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            self._drop_context(exc)
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            self._drop_context(exc)
            raise
        except DisentlabError as exc:
            raise click.UsageError(str(exc))
        except BrokenPipeError:
            raise  # a closed stdout: click's main exits quietly
        except OSError as exc:
            raise click.UsageError(f"cannot access {exc.filename!r}: {exc.strerror}" if exc.filename else str(exc))


@click.group(cls=_OneLineErrors)
def main():
    """Verification lab for weakly supervised disentanglement."""


# -- world ---------------------------------------------------------------------


@main.group()
def world():
    """Generate, validate, and inspect oracle worlds."""


@world.command("gen")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--cards", type=_Ints(), default="2,2", show_default=True,
              help="Comma-separated cardinalities, one per factor.")
@click.option("--corr", default=0.0, show_default=True, help="Factor correlation strength in [0,1].")
@click.option("--schematic", type=click.Choice(SCHEMATIC_KINDS), default=None,
              help="Emit a named schematic world instead of a random one (takes no --seed, --cards or --corr).")
@click.option("--out", "-o", type=click.Path(), default=None, help="Output file (default stdout).")
def world_gen(seed, cards, corr, schematic, out):
    """Write a world-spec document."""
    if schematic:
        ctx = click.get_current_context()
        given = [f"--{name}" for name in ("seed", "cards", "corr")
                 if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE]
        if given:
            raise click.UsageError(f"--schematic fixes the whole world; drop {', '.join(given)}")
    w = schematic_world(schematic)[0] if schematic else random_world(seed, len(cards), cards, corr)
    if out:
        save_world(w, out)
        click.echo(f"wrote {out}")
    else:
        click.echo(json.dumps(w.to_doc()))


@world.command("validate")
@click.argument("path", type=_World(named=False))
def world_validate(path):
    """Run the assumption report on a world file (warnings do not fail)."""
    w, _ = path
    failures = check_assumptions(w)
    for a, b in failures:
        click.echo(f"warning: support not zig-zag connected for I={list(a)} J={list(b)}")
    click.echo("assumption warnings present" if failures else "ok")


@world.command("inspect")
@click.argument("path", type=_World(named=False))
def world_inspect(path):
    """Print support, marginals, and the pairwise mutual-information table."""
    w, _ = path
    click.echo(f"factors: {w.n}  cards: {list(w.cards)}  ordered: {list(w.ordered)}")
    click.echo(f"support size: {w.support_size}")
    for t, p, x in zip(w.support, w.support_probs, w.obs_ids):
        click.echo(f"  s={tuple(int(v) for v in t)}  p={float(p)!r}  x={x}")
    for i in range(1, w.n + 1):
        click.echo(f"marginal s_{i}: {[round(float(v), 6) for v in w.factor_marginal(i)]}")
    mi = w.pairwise_mi()
    click.echo("pairwise MI (nats):")
    for row in mi:
        click.echo("  " + " ".join(f"{v:.6f}" for v in row))


# -- dataset ----------------------------------------------------------------------


@main.command()
@click.option("--world", "world_arg", type=_World(named=True), required=True,
              help="World file or named world.")
@click.option("--spec", "spec_str", required=True, help="Supervision spec, e.g. share:1 or label:1,2.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n", "count", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
def dataset(world_arg, spec_str, seed, count, out):
    """Sample an augmented-distribution dataset to a file."""
    write_dataset(out, world_arg[0], SupervisionSpec.parse(spec_str), seed, count)
    click.echo(f"wrote {count} records to {out}")


# -- score ------------------------------------------------------------------------


@main.command()
@click.option("--world", "world_arg", type=_World(named=True), required=True,
              help="World file or named world.")
@click.option("--bijection", type=_Ints(), default=None,
              help="Candidate as a comma-separated support permutation (default identity).")
@click.option("--set", "sets", type=_Ints(), multiple=True,
              help="Index set like 1,2 (repeatable; default: every singleton).")
@click.option("--facts", default=None,
              help="Fact conjunction like 'C{1} & R{2}' to test with holds().")
@click.option("--kind", type=click.Choice(["c", "r", "both"]), default="both", show_default=True)
@click.option("--direction", type=click.Choice(["gen", "enc", "both"]), default="gen",
              show_default=True)
@click.option("--mode", type=click.Choice(["exact", "mc"]), default=None,
              help="Default: exact for discrete worlds, mc for continuous.")
@click.option("--samples", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--tol", default=1e-12, show_default=True, help="Zero-deviation tolerance for --facts.")
@click.option("--with-mig", is_flag=True, help="Also report the mutual information gap.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text",
              show_default=True)
def score(world_arg, bijection, sets, facts, kind, direction, mode, samples, seed, tol, with_mig, fmt):
    """Emit normalized consistency/restrictiveness records for a candidate."""
    w, paired = world_arg
    if bijection:  # an empty --bijection keeps the default candidate
        if not isinstance(w, DiscreteWorld):
            raise click.UsageError("the rotation world carries its own candidate")
        model = CandidateModel(w, bijection)
    else:
        model = paired or CandidateModel.identity(w)

    if mode is None:
        mode = "exact" if isinstance(model, CandidateModel) else "mc"
    n = model.n
    index_sets = [IndexSet.of(s, n) for s in sets or [[i] for i in range(1, n + 1)]]

    directions = {"gen": ["generator"], "enc": ["encoder"], "both": ["generator", "encoder"]}[direction]
    kinds = {"c": ["consistency"], "r": ["restrictiveness"], "both": ["consistency", "restrictiveness"]}[kind]

    fact_list = parse_facts(facts, n) if facts else []

    records = []
    degenerate = 0
    for d in directions:
        target = EvaluationTarget(d, model)
        for I in index_sets:
            for k in kinds:
                fn = normalized_consistency if k == "consistency" else normalized_restrictiveness
                try:
                    records.append(fn(target, I, mode=mode, samples=samples, seed=seed).to_dict())
                except DegenerateDenominator:
                    degenerate += 1
                    records.append(
                        {"direction": d, "kind": k, "index_set": list(I.members()), "score": None,
                         "degenerate": True}
                    )
        for f in fact_list:
            verdict = holds(target, f, tol=tol, mode=mode, samples=samples, seed=seed)
            records.append({"direction": d, "fact": str(f), "holds": verdict, "tol": tol})
        if with_mig:
            rep = mig(target, samples=samples, seed=seed)
            records.append({"direction": d, "kind": "mig", **rep.to_dict()})
    _emit_records(records, fmt)
    if degenerate:
        click.echo(f"note: {degenerate} degenerate denominator(s)", err=True)


# -- calc --------------------------------------------------------------------------


@main.command()
@click.option("--n", "n_factors", type=int, required=True)
@click.option("--axioms", default="", help="Conjunction like 'C{1,2} & C{2,3}'.")
@click.option("--query", default=None, help="Fact conjunction to test for entailment.")
@click.option("--nuisance", is_flag=True, help="Extend the universe with the eta index.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def calc(n_factors, axioms, query, nuisance, fmt):
    """Entailment queries over C/R/D facts; without --query, list the closure."""
    axiom_facts = parse_facts(axioms, n_factors, nuisance)
    if query is not None:
        ok, lines = entails(axiom_facts, parse_facts(query, n_factors, nuisance), n_factors, nuisance)
        if fmt == "json":
            click.echo(json.dumps({"entailed": ok, "trace": lines}))
        else:
            click.echo("YES" if ok else "NO")
            for line in lines:
                click.echo("  " + line)
        return

    fs = closure(axiom_facts, n_factors, nuisance=nuisance)
    facts = [str(f) for f in fs.facts()]
    derived = [str(f) for f in fs.derived_d()]
    if fmt == "json":
        click.echo(json.dumps({"atoms": facts, "derived_d": derived}))
    else:
        click.echo("closure atoms:")
        for f in facts:
            click.echo("  " + f)
        click.echo("derived disentanglement:")
        for f in derived:
            click.echo("  " + f)


# -- verify -------------------------------------------------------------------------


@main.command()
@click.option("--sweep", is_flag=True)
@click.option("--counterexamples", is_flag=True)
@click.option("--theorems", is_flag=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--support-max", type=click.IntRange(4, MAX_ENUM_SUPPORT), default=6, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=50000, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
def verify(sweep, counterexamples, theorems, seed, trials, support_max, samples, fmt):
    """Run the verification suites; exit 1 unless every check passes."""
    suites = [
        ("counterexamples", counterexamples, lambda: run_counterexample_suite(seed=seed, samples=samples)),
        ("theorems", theorems, lambda: verify_theorem_guarantees(support_max=support_max, seed=seed)),
        ("sweep", sweep, lambda: soundness_sweep(seed=seed, trials=trials)),
    ]
    run_all = not (sweep or counterexamples or theorems)
    passed = True
    out: dict = {}
    for name, chosen, run in suites:
        if chosen or run_all:
            report = run()
            passed &= report.passed
            out[name] = report.to_dict()
            if fmt == "text":
                click.echo(report.to_text())
    if fmt == "json":
        click.echo(json.dumps(out))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
