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
from pathlib import Path

import click

from .calculus import closure, derive, parse_facts
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
    load_world,
    random_world,
    save_world,
    schematic_world,
)


def _load_world_arg(value: str):
    """A world argument is a named construction or a world file path.

    Returns (world, paired_model_or_None); named constructions carry
    their canonical candidate model.
    """
    if value == "rotation":
        return rotation_world()
    if value in SCHEMATIC_KINDS:
        return schematic_world(value)
    return _read_world_file(value), None


def _read_world_file(path: str):
    """Load a world file; an unreadable or invalid file is a usage error."""
    try:
        return load_world(path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read world file {path!r}: {exc}")
    except DisentlabError as exc:
        raise click.UsageError(f"invalid world file {path!r}: {exc}")


def _read_model_perm(path: str) -> list:
    """The 'perm' array of a model file; a malformed file is a usage error."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise click.UsageError(f"cannot read model file {path!r}: {exc.strerror}")
    except ValueError as exc:
        raise click.UsageError(f"model file {path!r} is not valid JSON: {exc}")
    perm = doc.get("perm") if isinstance(doc, dict) else None
    if not isinstance(perm, list) or not all(type(v) is int for v in perm):
        raise click.UsageError(f"model file {path!r} needs a 'perm' array of integers")
    return perm


def _emit_records(records: list[dict], fmt: str):
    if fmt == "json":
        for rec in records:
            click.echo(json.dumps(rec))
        return
    if fmt == "csv":
        if not records:
            return
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
    which also makes every library error a usage error."""

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


@click.group(cls=_OneLineErrors)
def main():
    """Verification lab for weakly supervised disentanglement."""


# -- world ---------------------------------------------------------------------


@main.group()
def world():
    """Generate, validate, and inspect oracle worlds."""


@world.command("gen")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n", "n_factors", type=int, default=2, show_default=True)
@click.option("--cards", default="2,2", show_default=True, help="Comma-separated cardinalities.")
@click.option("--corr", default=0.0, show_default=True, help="Factor correlation strength in [0,1].")
@click.option("--schematic", type=click.Choice(SCHEMATIC_KINDS), default=None,
              help="Emit a named schematic world instead of a random one.")
@click.option("--out", "-o", type=click.Path(), default=None, help="Output file (default stdout).")
def world_gen(seed, n_factors, cards, corr, schematic, out):
    """Write a world-spec document."""
    try:
        if schematic:
            w, _ = schematic_world(schematic)
        else:
            w = random_world(seed, n_factors, parse_ints(cards), corr)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out:
        try:
            save_world(w, out)
        except OSError as exc:
            raise click.UsageError(f"cannot write {out!r}: {exc.strerror}")
        click.echo(f"wrote {out}")
    else:
        click.echo(json.dumps(w.to_doc()))


@world.command("validate")
@click.argument("path", type=click.Path(exists=True))
def world_validate(path):
    """Run the assumption report on a world file (warnings do not fail)."""
    w = _read_world_file(path)
    report = check_assumptions(w)
    click.echo(f"injective generator: {report.injective}")
    click.echo(f"encoder inverts generator: {report.encoder_inverts}")
    if report.zigzag_failures:
        for a, b in report.zigzag_failures:
            click.echo(f"warning: support not zig-zag connected for I={list(a)} J={list(b)}")
    click.echo("ok" if report.ok else "assumption warnings present")


@world.command("inspect")
@click.argument("path", type=click.Path(exists=True))
def world_inspect(path):
    """Print support, marginals, and the pairwise mutual-information table."""
    w = _read_world_file(path)
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
@click.option("--world", "world_arg", required=True, help="World file or named world.")
@click.option("--spec", "spec_str", required=True, help="Supervision spec, e.g. share:1 or label:1,2.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n", "count", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--out", "-o", type=click.Path(), required=True)
def dataset(world_arg, spec_str, seed, count, out):
    """Sample an augmented-distribution dataset to a file."""
    w, _ = _load_world_arg(world_arg)
    spec = SupervisionSpec.parse(spec_str)
    try:
        write_dataset(out, w, spec, seed, count)
    except OSError as exc:
        raise click.UsageError(f"cannot write {out!r}: {exc.strerror}")
    click.echo(f"wrote {count} records to {out}")


# -- score ------------------------------------------------------------------------


@main.command()
@click.option("--world", "world_arg", required=True, help="World file or named world.")
@click.option("--bijection", default=None,
              help="Candidate as a comma-separated support permutation (default identity).")
@click.option("--model-file", type=click.Path(exists=True), default=None,
              help="JSON file with a 'perm' array.")
@click.option("--set", "sets", multiple=True,
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
def score(world_arg, bijection, model_file, sets, facts, kind, direction, mode, samples, seed,
          tol, with_mig, fmt):
    """Emit normalized consistency/restrictiveness records for a candidate."""
    w, paired = _load_world_arg(world_arg)
    if bijection or model_file:
        if world_arg == "rotation":
            raise click.UsageError("the rotation world carries its own candidate")
        if model_file:
            perm = _read_model_perm(model_file)
        else:
            try:
                perm = parse_ints(bijection)
            except ValueError:
                raise click.UsageError(f"--bijection {bijection!r} is not a comma-separated list of integers")
        try:
            model = CandidateModel(w, perm)
        except OverflowError as exc:
            raise click.UsageError(str(exc))
    elif paired is not None:
        model = paired
    else:
        model = CandidateModel.identity(w)

    discrete = isinstance(model, CandidateModel)
    if mode is None:
        mode = "exact" if discrete else "mc"
    n = model.n
    if sets:
        try:
            index_sets = [IndexSet.of(parse_ints(s), n) for s in sets]
        except (ValueError, DisentlabError) as exc:
            raise click.UsageError(f"bad --set for {n} factors: {exc}")
    else:
        index_sets = [IndexSet.of([i], n) for i in range(1, n + 1)]

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
    if query is None:
        fs = closure(axiom_facts, n_factors, nuisance=nuisance)
    else:
        queries = parse_facts(query, n_factors, nuisance)
        fs = derive(axiom_facts, queries, n_factors, nuisance)

    if query is not None:
        ok = all(fs.contains(q) for q in queries)
        lines: list[str] = []
        if ok:
            for q in queries:
                lines.extend(fs.trace_lines(q))
        if fmt == "json":
            click.echo(json.dumps({"entailed": ok, "trace": lines}))
        else:
            click.echo("YES" if ok else "NO")
            for line in lines:
                click.echo("  " + line)
        return

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
    if not (sweep or counterexamples or theorems):
        sweep = counterexamples = theorems = True
    passed = True
    out: dict = {}

    if counterexamples:
        report = run_counterexample_suite(seed=seed, samples=samples)
        passed &= report.passed
        out["counterexamples"] = report.to_dict()
        if fmt == "text":
            click.echo(report.to_text())
    if theorems:
        report = verify_theorem_guarantees(support_max=support_max, seed=seed)
        passed &= report.passed
        out["theorems"] = report.to_dict()
        if fmt == "text":
            click.echo(report.to_text())
    if sweep:
        sweep_report = soundness_sweep(seed=seed, trials=trials)
        passed &= sweep_report.passed
        out["sweep"] = sweep_report.to_dict()
        if fmt == "text":
            click.echo(
                f"sweep: {sweep_report.trials} trials, {sweep_report.facts_checked} facts, "
                f"{len(sweep_report.violations)} violations"
            )
    if fmt == "json":
        click.echo(json.dumps(out))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
