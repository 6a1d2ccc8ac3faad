"""Command-line entry point: gen / analyze / hit / tree / sbd / verify /
cutoff-scan / simulate.

Conventions shared by every subcommand:

- files are written atomically (temp file in the target directory, then a
  rename), so a crash never leaves a half-written artifact;
- chain/tree specs travel as JSON, tables and profiles as CSV;
- commands that consume randomness require an explicit ``--seed``;
- exit code 0 means success, 1 a validation or usage problem, and 2 that
  a verification suite produced a failing assertion record.

Heavy imports happen inside the commands so that ``--threads`` (or the
``CUTOFFLAB_THREADS`` environment variable) can cap the linear-algebra
thread pools before numpy is loaded.
"""

from __future__ import annotations

import csv
import json
import os
import sys

import click


class VerificationFailure(Exception):
    """A suite produced at least one failing assertion record."""


def _parse_ints(text: str, what: str) -> list[int]:
    """A comma-separated list of integers; ``what`` names it in errors."""
    try:
        return [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise click.ClickException(f"bad {what} list {text!r}: {exc}") from exc


def _check_state(option: str, value, n: int) -> None:
    """Reject a state index outside 0..n-1; ``None`` means not given."""
    if value is not None and not 0 <= value < n:
        raise click.ClickException(
            f"{option} {value} is not a state (states are 0..{n - 1})")


def _load_chain(path: str):
    from .chain import ChainValidationError, chain_from_json

    try:
        return chain_from_json(path)
    except ChainValidationError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc
    except (OSError, KeyError, ValueError) as exc:
        raise click.ClickException(f"{path}: malformed chain file ({exc})") from exc


def _load_tree(path: str):
    from .trees import build_tree_chain, tree_from_json

    try:
        return build_tree_chain(tree_from_json(path))
    except (OSError, KeyError, ValueError) as exc:
        raise click.ClickException(f"{path}: malformed tree file ({exc})") from exc


def _emit_records(records, label: str) -> int:
    """Print one line per record; return the number of failed assertions."""
    failures = 0
    lines = []
    for rec in records:
        if rec.kind == "skip":
            lines.append(f"  skip  {rec.inequality} {rec.params}: {rec.note}")
            continue
        if rec.kind == "report":
            lines.append(f"  info  {rec.inequality} {rec.params}: "
                         f"value={rec.lhs:.6g}")
            continue
        status = "ok" if rec.passed else "FAIL"
        if not rec.passed:
            failures += 1
        lines.append(f"  {status:4s}  {rec.inequality} {rec.params}: "
                     f"lhs={rec.lhs:.10g} rhs={rec.rhs:.10g} "
                     f"margin={rec.margin:.3e}")
    if lines:
        click.echo("\n".join(lines))
    if failures:
        click.echo(f"{label}: {failures} failing record(s)", err=True)
    return failures


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--threads", type=int, default=None, envvar="CUTOFFLAB_THREADS",
              help="Cap linear-algebra worker threads; falls back to the "
                   "CUTOFFLAB_THREADS environment variable.")
def cli(threads: int | None) -> None:
    """Exact mixing, hitting, and spectral diagnostics for finite chains."""
    if threads is not None:
        if threads < 1:
            raise click.ClickException("--threads must be a positive integer")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = str(threads)


# ---------------------------------------------------------------------------
# gen


@cli.command()
@click.option("--family", "family_id", required=True,
              type=click.Choice(["biased-path", "aldous", "two-cliques",
                                 "random", "random-tree", "bd"]),
              help="Which family to draw from.")
@click.option("--n", "size", type=int, required=True, help="Size parameter.")
@click.option("--seed", type=int, default=None,
              help="Required for the random families.")
@click.option("--density", type=float, default=0.5, show_default=True,
              help="Edge density for --family random.")
@click.option("-o", "--output", required=True, type=click.Path(),
              help="Destination JSON file.")
def gen(family_id: str, size: int, seed: int | None, density: float,
        output: str) -> None:
    """Generate one family member and write it as JSON.

    Deterministic families ignore --seed; `random`, `random-tree`, and
    `bd` refuse to run without one.  `random-tree` writes a tree spec
    (consumed by the `tree` subcommands); everything else writes a chain.
    """
    from .chain import chain_to_json
    from .families import FAMILIES, birth_death, random_reversible, random_tree
    from .trees import tree_to_json

    if family_id in FAMILIES:
        chain_to_json(FAMILIES[family_id](size), output)
        click.echo(f"wrote {family_id} n={size} -> {output}")
        return
    if seed is None:
        raise click.ClickException(
            f"--family {family_id} is randomized; --seed is required")
    if family_id == "random":
        chain_to_json(random_reversible(size, density=density, seed=seed),
                      output)
    elif family_id == "random-tree":
        tree_to_json(random_tree(size, seed=seed), output)
    else:  # bd
        import numpy as np

        rng = np.random.default_rng(seed)
        up = rng.uniform(0.05, 0.25, size=size - 1)
        down = rng.uniform(0.05, 0.25, size=size - 1)
        holding = np.full(size, 0.5)
        holding[0] = 1.0 - up[0]
        holding[-1] = 1.0 - down[-1]
        holding[1:-1] = 1.0 - up[1:] - down[:-1]
        chain_to_json(birth_death(up, down, holding), output)
    click.echo(f"wrote {family_id} n={size} seed={seed} -> {output}")


# ---------------------------------------------------------------------------
# analyze


@cli.command()
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=float, default=0.25, show_default=True,
              help="Level for the mixing time.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def analyze(chain_file: str, eps: float, as_json: bool) -> None:
    """Print spectral and mixing summary quantities for a chain."""
    from .mixing import mixing_time

    chain = _load_chain(chain_file)
    spectrum = chain.spectrum
    try:
        t_mix = mixing_time(chain, eps)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {
        "n": chain.n,
        "reversible": chain.is_reversible,
        "lazy": chain.is_lazy,
        "irreducible": chain.is_irreducible,
        "lambda_2": float(spectrum.lambda_2),
        "lambda_min": float(spectrum.lambda_min),
        "t_rel": float(spectrum.t_rel),
        "eps": eps,
        "t_mix": int(t_mix),
        "min_pi": float(chain.pi.min()),
    }
    if as_json:
        click.echo(json.dumps(payload, indent=1))
        return
    click.echo(f"n        = {payload['n']}")
    click.echo(f"flags    = reversible={payload['reversible']} "
               f"lazy={payload['lazy']} irreducible={payload['irreducible']}")
    click.echo(f"lambda_2 = {payload['lambda_2']:.12g}")
    click.echo(f"t_rel    = {payload['t_rel']:.12g}")
    click.echo(f"t_mix({eps:g}) = {payload['t_mix']}")
    click.echo(f"min pi   = {payload['min_pi']:.6g}")


# ---------------------------------------------------------------------------
# hit


@cli.command()
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=float, default=0.5, show_default=True,
              help="Stationary-mass threshold for worst-set tails.")
@click.option("--eps", "eps_values", type=float, multiple=True,
              default=(0.25,), show_default=True, help="Tail level(s).")
@click.option("--start", type=int, default=None,
              help="Start state (worst start when omitted).")
@click.option("--set", "set_states", default=None,
              help="Comma-separated target states; overrides the "
                   "worst-set sweep at --alpha.")
@click.option("--exact-threshold", type=int, default=14, show_default=True,
              help="Largest n for exhaustive set enumeration.")
@click.option("--continuous", is_flag=True,
              help="Continuized-walk hitting values instead of discrete.")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the tail profile as CSV (columns t, tail).")
def hit(chain_file: str, alpha: float, eps_values, start, set_states,
        exact_threshold: int, continuous: bool, output) -> None:
    """Hitting values of large sets: worst-case over sets, or one set."""
    import numpy as np

    from .chain import write_csv_atomic
    from .hitting import KilledSystem, hit_time, worst_tail_profile

    chain = _load_chain(chain_file)
    chain.require(irreducible=True)
    _check_state("--start", start, chain.n)
    if set_states is not None:
        states = _parse_ints(set_states, "state")
        try:
            ks = KilledSystem(chain, states)
        except ValueError as exc:
            raise click.ClickException(f"--set {set_states}: {exc}") from exc
        if ks.B.size == 0:
            raise click.ClickException("target set covers every state")
        if start is not None and start in ks.A:
            click.echo("start lies inside the target; hit time is 0")
            return
        horizon = 4 * max(int(np.ceil(chain.spectrum.t_rel)), 1)
        grid: list[float] = list(range(0, horizon + 1))
        try:
            if start is None:
                tails = ks.tail_stationary(grid, continuous)
            else:
                tails = ks.tail_state(ks.position(start), grid, continuous)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        for e in eps_values:
            below = np.nonzero(tails <= e + 1e-12)[0]
            when = f"t = {grid[int(below[0])]}" if below.size else \
                f"beyond t = {horizon}"
            click.echo(f"tail <= {e:g} first at {when} "
                       f"(set={states}, start={'stationary' if start is None else start})")
        if output:
            write_csv_atomic(output, ["t", "tail"],
                             [(t, float(v)) for t, v in zip(grid, tails)])
            click.echo(f"wrote tail profile -> {output}")
        return
    for e in eps_values:
        try:
            res = hit_time(chain, alpha, e, x=start, continuous=continuous,
                           exact_threshold=exact_threshold)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
        if res.bracket is not None:
            tag = f"bracket [{res.bracket[0]:.6g}, {res.bracket[1]:.6g}]"
        else:
            tag = "exact sweep" if res.exact else "greedy lower bound"
        click.echo(f"hit(alpha={alpha:g}, eps={e:g}) = {res.value:g} ({tag})")
    if output:
        prof = worst_tail_profile(chain, alpha, stop_level=min(eps_values),
                                  exact_threshold=exact_threshold)
        seq = prof.global_sequence()
        write_csv_atomic(output, ["t", "tail"],
                         [(t, float(v)) for t, v in enumerate(seq)])
        click.echo(f"wrote tail profile -> {output}")


# ---------------------------------------------------------------------------
# tree


@cli.group()
def tree() -> None:
    """Tree-walk diagnostics (input: tree JSON files)."""


@tree.command("central")
@click.argument("tree_file", type=click.Path(exists=True, dir_okay=False))
def tree_central(tree_file: str) -> None:
    """Print the central root and heaviest branches."""
    tc = _load_tree(tree_file)
    click.echo(f"vertices = {tc.n}")
    click.echo(f"root     = {tc.root}")
    click.echo(f"t_rel    = {tc.t_rel:.12g}")
    masses = sorted(((float(tc.subtree_mass[v]), v) for v in range(tc.n)
                     if tc.parent[v] == tc.root), reverse=True)
    for mass, v in masses[:5]:
        click.echo(f"branch at {v}: stationary mass {mass:.6g}")


@tree.command("crossing")
@click.argument("tree_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-u", "--vertex", type=int, required=True,
              help="Vertex whose parent-edge crossing is analyzed.")
def tree_crossing(tree_file: str, vertex: int) -> None:
    """Exact mean/variance of one parent-edge crossing time."""
    from .trees import crossing_time

    tc = _load_tree(tree_file)
    _check_state("-u", vertex, tc.n)
    try:
        ct = crossing_time(tc, vertex)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"crossing {vertex} -> {int(tc.parent[vertex])}")
    click.echo(f"mean          = {ct.mean:.12g}")
    click.echo(f"second moment = {ct.second_moment:.12g}")
    click.echo(f"variance      = {ct.variance:.12g}")


@tree.command("window-check")
@click.argument("tree_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--eps", type=float, default=0.25, show_default=True)
def tree_window(tree_file: str, eps: float) -> None:
    """Run the mixing-window and concentration checks on one tree."""
    from .trees import window_check

    tc = _load_tree(tree_file)
    try:
        records = window_check(tc, eps)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if _emit_records(records, "window-check"):
        raise VerificationFailure("window-check failed")


@tree.command("tails")
@click.argument("tree_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x", type=int, required=True, help="Start vertex.")
@click.option("--y", type=int, default=None,
              help="Ancestor target (root when omitted).")
@click.option("--c", "c_grid", type=float, multiple=True,
              default=(0.5, 1.0, 2.0), show_default=True)
def tree_tails(tree_file: str, x: int, y, c_grid) -> None:
    """Two-sided sub-gaussian tail checks for a passage time."""
    from .trees import tail_bound_check

    tc = _load_tree(tree_file)
    _check_state("--x", x, tc.n)
    _check_state("--y", y, tc.n)
    try:
        records = tail_bound_check(tc, x, y, c_grid=c_grid)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if _emit_records(records, "tails"):
        raise VerificationFailure("tail bounds failed")


# ---------------------------------------------------------------------------
# sbd


@cli.group()
def sbd() -> None:
    """Banded-chain (skip-free block) diagnostics."""


@sbd.command("classify")
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True)
def sbd_classify(chain_file: str, as_json: bool) -> None:
    """Decide bandedness and report (r, delta, alpha)."""
    from .sbd import classify_sbd

    cls = classify_sbd(_load_chain(chain_file))
    payload = {"is_banded": cls.is_sbd, "r": cls.r, "delta": cls.delta,
               "alpha": cls.alpha, "reasons": list(cls.reasons)}
    if as_json:
        click.echo(json.dumps(payload, indent=1))
        return
    click.echo(f"banded = {cls.is_sbd}")
    if cls.is_sbd:
        click.echo(f"r      = {cls.r}")
        click.echo(f"delta  = {cls.delta:.12g}")
        click.echo(f"alpha  = {cls.alpha:.12g}")
    for reason in cls.reasons:
        click.echo(f"note: {reason}")


@sbd.command("blocks")
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--r", "r_override", type=int, default=None)
@click.option("--delta", "delta_override", type=float, default=None)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the block table as CSV.")
def sbd_blocks(chain_file: str, r_override, delta_override, output) -> None:
    """Partition the state line into width-r blocks around the center."""
    from .chain import write_csv_atomic
    from .sbd import blocks, classify_sbd

    chain = _load_chain(chain_file)
    if r_override is None or delta_override is None:
        cls = classify_sbd(chain)
        if not cls.is_sbd:
            raise click.ClickException(
                "chain is not banded; pass --r/--delta explicitly: "
                + "; ".join(cls.reasons))
        r = r_override if r_override is not None else cls.r
        delta = delta_override if delta_override is not None else cls.delta
    else:
        r, delta = r_override, delta_override
    try:
        dec = blocks(chain, r, delta)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    rows = []
    for j, members in enumerate(dec.blocks):
        mass = float(chain.pi[members].sum())
        rows.append((j, int(members.min()), int(members.max()),
                     len(members), mass, j == dec.central_block))
    if output:
        write_csv_atomic(output, ["block", "lo", "hi", "size", "mass",
                                  "central"], rows)
        click.echo(f"wrote block table -> {output}")
        return
    bound_txt = ("" if dec.central_mass_bound is None
                 else f" <= {dec.central_mass_bound:.6g}")
    click.echo(f"r={dec.r} delta={dec.delta:.6g} "
               f"central block={dec.central_block} "
               f"(mass {dec.central_mass:.6g}{bound_txt})")
    for j, lo, hi, size, mass, central in rows:
        mark = " *" if central else ""
        click.echo(f"block {j}: [{lo}, {hi}] size={size} mass={mass:.6g}{mark}")


@sbd.command("hit-stats")
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x", "start", type=int, default=None,
              help="Start state (farthest from the center when omitted).")
def sbd_hit_stats(chain_file: str, start) -> None:
    """Exact central-block hitting statistics from a far start."""
    from .sbd import blocks, central_block_hit, classify_sbd

    chain = _load_chain(chain_file)
    _check_state("--x", start, chain.n)
    cls = classify_sbd(chain)
    if not cls.is_sbd:
        raise click.ClickException("chain is not banded: "
                                   + "; ".join(cls.reasons))
    dec = blocks(chain, cls.r, cls.delta)
    try:
        cbh = central_block_hit(chain, dec, x=start)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"start    = {cbh.x}")
    click.echo(f"mean     = {cbh.mean:.12g}")
    click.echo(f"variance = {cbh.variance:.12g}")
    for level, t in sorted(cbh.tau_profile.items()):
        click.echo(f"tau({level:g}) = {t}")
    if _emit_records(cbh.records, "hit-stats"):
        raise VerificationFailure("hit-stats failed")


@sbd.command("corr")
@click.argument("chain_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--x", "start", type=int, required=True)
@click.option("--block-i", type=int, required=True)
@click.option("--block-j", type=int, required=True)
@click.option("--paths", type=int, default=20000, show_default=True)
@click.option("--seed", type=int, required=True,
              help="Required: simulation must be reproducible.")
def sbd_corr(chain_file: str, start: int, block_i: int, block_j: int,
             paths: int, seed: int) -> None:
    """Monte-Carlo check of the block crossing-time correlation bound."""
    from .sbd import block_correlation_mc, blocks, classify_sbd

    chain = _load_chain(chain_file)
    _check_state("--x", start, chain.n)
    cls = classify_sbd(chain)
    if not cls.is_sbd:
        raise click.ClickException("chain is not banded: "
                                   + "; ".join(cls.reasons))
    dec = blocks(chain, cls.r, cls.delta)
    try:
        mc = block_correlation_mc(chain, dec, start, block_i, block_j,
                                  paths=paths, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"E[tau_i tau_j]  = {mc.estimate.value:.6g} "
               f"(se {mc.estimate.standard_error:.3g}, {paths} paths)")
    click.echo(f"mean_i * mean_j = {mc.mean_i * mc.mean_j:.6g}")
    click.echo(f"bound           = {mc.bound:.6g} (gap {mc.gap})")
    if _emit_records([mc.record], "corr"):
        raise VerificationFailure("correlation bound failed")


# ---------------------------------------------------------------------------
# verify


@cli.command("verify")
@click.option("--chain", "chain_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--suite", "suite_ids", multiple=True, required=True,
              help="Suite id, or 'all'; repeatable.")
@click.option("--eps", "eps_values", type=float, multiple=True,
              help="Override the level grid.")
@click.option("--alpha", "alpha_values", type=float, multiple=True,
              help="Override the threshold grid.")
@click.option("--sets", "set_mode", type=click.Choice(["sampled", "all"]),
              default="sampled", show_default=True,
              help="Target-set sweep mode for the identity suites.")
@click.option("--seed", type=int, default=7, show_default=True,
              help="Seed for sampled sets and random test functions.")
@click.option("--exact-threshold", type=int, default=14, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the JSON report(s).")
@click.option("--quiet", is_flag=True, help="Only summaries and failures.")
def verify_cmd(chain_file: str, suite_ids, eps_values, alpha_values,
               set_mode: str, seed: int, exact_threshold: int, output,
               quiet: bool) -> None:
    """Run verification suites on a chain and report every record."""
    from .chain import write_json_atomic
    from .verify import SUITE_IDS, run_suites

    chain = _load_chain(chain_file)
    wanted: list[str] = []
    for sid in suite_ids:
        if sid == "all":
            wanted.extend(s for s in SUITE_IDS if s not in wanted)
        elif sid not in wanted:
            wanted.append(sid)
    params: dict = {"sets": set_mode, "seed": seed,
                    "exact_threshold": exact_threshold}
    if eps_values:
        params["eps_grid"] = tuple(eps_values)
    if alpha_values:
        params["alpha_grid"] = tuple(alpha_values)
    try:
        reports = run_suites(chain, wanted, params)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    total_failures = 0
    for report in reports:
        click.echo(report.summary())
        _emit_records(report.records if not quiet else report.failures,
                      report.suite)
        total_failures += report.counts().get("failed", 0)
    if output:
        payload = [r.to_dict() for r in reports]
        write_json_atomic(output, payload[0] if len(payload) == 1 else payload)
        click.echo(f"wrote report -> {output}")
    if total_failures:
        raise VerificationFailure(f"{total_failures} failing record(s) "
                                  f"across {len(reports)} suite(s)")


# ---------------------------------------------------------------------------
# cutoff-scan


@cli.command("cutoff-scan")
@click.option("--family", required=True,
              help="Deterministic family id (biased-path, aldous, two-cliques).")
@click.option("--sizes", required=True,
              help="Comma-separated strictly increasing sizes.")
@click.option("--eps", "eps_values", type=float, multiple=True,
              default=(0.1,), show_default=True)
@click.option("--alpha", type=float, default=0.5, show_default=True)
@click.option("--exact-threshold", type=int, default=14, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="CSV destination (stdout when omitted).")
def cutoff_scan_cmd(family: str, sizes: str, eps_values, alpha: float,
                    exact_threshold: int, output) -> None:
    """Tabulate mixing windows/ratios across sizes of one family."""
    from .verify import cutoff_scan

    try:
        scan = cutoff_scan(family, _parse_ints(sizes, "size"), eps_grid=eps_values,
                           alpha=alpha, exact_threshold=exact_threshold)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if output:
        scan.to_csv(output)
        click.echo(f"wrote scan -> {output}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(scan.COLUMNS)
        writer.writerows(scan.csv_rows())
    if scan.flags:
        click.echo("flags: " + ", ".join(scan.flags), err=True)
    else:
        click.echo("flags: none", err=True)


# ---------------------------------------------------------------------------
# simulate


@cli.command()
@click.option("--chain", "chain_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--start", type=int, required=True)
@click.option("--set", "set_states", required=True,
              help="Comma-separated target states.")
@click.option("--t", "t", type=int, required=True)
@click.option("--paths", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, required=True,
              help="Required: simulation must be reproducible.")
def simulate(chain_file: str, start: int, set_states: str, t: int,
             paths: int, seed: int) -> None:
    """Estimate Pr[T_A > t] by simulation and compare to the exact tail."""
    from .hitting import KilledSystem
    from .oracle import simulate_hitting

    chain = _load_chain(chain_file)
    states = _parse_ints(set_states, "state")
    try:
        ks = KilledSystem(chain, states)
        est = simulate_hitting(chain, start, ks.A, t, paths=paths, seed=seed)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    if ks.B.size == 0:
        raise click.ClickException("target set covers every state")
    if start in ks.A:
        exact = 0.0
    else:
        try:
            exact = float(ks.tail_state(ks.position(start), [t])[0])
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc
    click.echo(f"estimate = {est.value:.6g} +/- {est.standard_error:.3g} "
               f"({paths} paths, seed {seed})")
    click.echo(f"exact    = {exact:.10g}")
    if est.standard_error > 0:
        click.echo(f"z        = {(est.value - exact) / est.standard_error:+.2f}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping.  A chain that
    fails a command's requirements (say, ``analyze`` on a non-reversible
    chain) is a validation problem: "Error: ...", exit 1."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except ValueError as exc:
        # looked up, not imported, to keep numpy out until --threads has
        # applied: no chain was validated if the module is not loaded
        chain = sys.modules.get("cutofflab.chain")
        if chain is None or not isinstance(exc, chain.ChainValidationError):
            raise
        click.ClickException(str(exc)).show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
