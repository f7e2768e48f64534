"""Programmatic scorecard: check every reproduced paper claim at once.

Each check evaluates one sentence of the paper's evaluation against
the simulated results and returns pass/fail with a detail string.
``python -m repro scorecard`` prints the table; the integration suite
asserts every claim holds.  EXPERIMENTS.md's prose scorecard mirrors
these checks.  On a workload subset (``--workloads``), a claim that
needs a workload outside it is reported as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments import (
    fig02_potential,
    fig06_threshold,
    fig08_compiler_sync,
    fig10_comparison,
    fig11_overlap,
    fig12_program,
)
from repro.experiments.runner import bundle_for
from repro.workloads import all_workloads


@dataclass
class ClaimResult:
    claim: str
    where: str
    ok: bool
    detail: str
    #: the claim was not evaluated: it needs workloads outside the
    #: requested subset (``detail`` names them)
    skipped: bool = False


#: ``needs`` of a claim calibrated on the whole suite (a count such as
#: "8 of 15 workloads"): any subset leaves it unchecked.
SUITE = None


def _claim(claim: str, where: str, needs: Optional[Sequence[str]] = ()):
    """Attach a check's claim, its paper location and the workloads it
    needs; the check itself returns ``(ok, detail)``."""

    def wrap(check):
        check.claim, check.where, check.needs = claim, where, needs
        return check

    return wrap


def _all_names() -> List[str]:
    return [w.name for w in all_workloads()]


def _skip_reason(check, names: Sequence[str]) -> Optional[str]:
    """Why ``check`` cannot run on ``names``, or None when it can."""
    needed = _all_names() if check.needs is SUITE else check.needs
    missing = [n for n in needed if n not in names]
    if not missing:
        return None
    if check.needs is SUITE:
        return (
            f"skipped: counts over all {len(needed)} workloads; "
            f"{len(missing)} not requested"
        )
    return f"skipped: needs {', '.join(missing)} (not requested)"


def _times(rows, bar_key="bar"):
    return {(r["workload"], r[bar_key]): r["time"] for r in rows}


@_claim(
    "Eliminating failed speculation yields substantial gains for most benchmarks",
    "§1.2 / Fig. 2", needs=SUITE,
)
def check_figure2_potential(names) -> Tuple[bool, str]:
    rows = fig02_potential.run(names)
    gains = fig02_potential.potential_gain(rows)
    substantial = sorted(n for n, g in gains.items() if g > 1.3)
    ok = len(substantial) >= 8
    return ok, f"{len(substantial)}/{len(names)} workloads gain >1.3x under O"


@_claim(
    "Only the 5% dependence-frequency threshold improves every benchmark",
    "§2.4 / Fig. 6", needs=("bzip2_comp",),
)
def check_figure6_threshold(names) -> Tuple[bool, str]:
    rows = fig06_threshold.run(["bzip2_comp"])
    by_bar = {r["bar"]: r["time"] for r in rows}
    ok = by_bar[">25%"] > 95.0 and by_bar[">5%"] < 90.0
    all_rows = fig06_threshold.run(names)
    ok = ok and fig06_threshold.improves_all(all_rows, ">5%")
    return ok, f"bzip2_comp: >25% {by_bar['>25%']:.1f}, >5% {by_bar['>5%']:.1f}"


@_claim(
    "The signal address buffer never needs more than 10 entries",
    "§2.2",
)
def check_signal_buffer(names) -> Tuple[bool, str]:
    worst = 0
    for name in names:
        for bar in ("C", "B"):
            for region in bundle_for(name).simulate(bar).regions:
                worst = max(worst, region.max_signal_buffer)
    return worst <= 10, f"maximum observed occupancy: {worst}"


@_claim(
    "Compiler synchronization improves about half the benchmarks",
    "§4.1 / Fig. 8", needs=SUITE,
)
def check_figure8_improvers(names) -> Tuple[bool, str]:
    rows = fig08_compiler_sync.run(names)
    improved = fig08_compiler_sync.improved_workloads(rows)
    required = {"go", "gzip_comp", "gzip_decomp", "gcc", "parser", "perlbmk", "gap"}
    ok = 6 <= len(improved) <= 10 and required <= set(improved)
    return ok, f"improved: {', '.join(improved)}"


@_claim(
    "Profiling-input sensitivity appears only in GZIP_COMP",
    "§4.1 / Fig. 8", needs=("gzip_comp",),
)
def check_figure8_sensitivity(names) -> Tuple[bool, str]:
    rows = fig08_compiler_sync.run(names)
    times = _times(rows)
    sensitive = [
        n for n in names if abs(times[(n, "T")] - times[(n, "C")]) > 5.0
    ]
    return sensitive == ["gzip_comp"], f"T-vs-C divergent: {sensitive}"


@_claim(
    "Hardware value prediction has insignificant effect",
    "§4.2 / Fig. 10", needs=SUITE,
)
def check_figure10_prediction(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    times = _times(rows)
    deltas = {n: abs(times[(n, "P")] - times[(n, "U")]) for n in names}
    near = sum(1 for d in deltas.values() if d < 3.0)
    return near >= 12, f"{near}/{len(names)} workloads within 3 points of U"


@_claim(
    "Compiler wins GO/GZIP_DECOMP/PERLBMK/GAP; hardware wins M88KSIM/VPR_PLACE",
    "§4.2 / Fig. 10",
    needs=("go", "gzip_decomp", "perlbmk", "gap", "m88ksim", "vpr_place"),
)
def check_figure10_winners(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    winners = fig10_comparison.best_scheme(rows)
    compiler_set = {"go", "gzip_decomp", "perlbmk", "gap"}
    hardware_set = {"m88ksim", "vpr_place"}
    ok = all(winners[n] == "C" for n in compiler_set) and all(
        winners[n] == "H" for n in hardware_set
    )
    return ok, ", ".join(
        f"{n}={winners[n]}" for n in sorted(compiler_set | hardware_set)
    )


@_claim(
    "The hybrid tracks the best of compiler/hardware overall",
    "§5 / Fig. 10", needs=SUITE,
)
def check_figure10_hybrid(names) -> Tuple[bool, str]:
    rows = fig10_comparison.run(names)
    times = _times(rows)

    def excess(bar):
        return sum(
            times[(n, bar)] - min(times[(n, "H")], times[(n, "C")])
            for n in names
        )

    ok = excess("B") < excess("C") and excess("B") < excess("H")
    return ok, (
        f"total excess over best: B {excess('B'):.0f}, C {excess('C'):.0f}, "
        f"H {excess('H'):.0f}"
    )


@_claim(
    "Compiler and hardware synchronize different loads",
    "§4.2 / Fig. 11", needs=("gzip_comp", "go", "vpr_place"),
)
def check_figure11_complementary(names) -> Tuple[bool, str]:
    rows = fig11_overlap.run(["gzip_comp", "go", "vpr_place"])
    complementary = fig11_overlap.complementary_workloads(rows)
    return (
        len(complementary) >= 2,
        f"complementary on: {', '.join(complementary)}",
    )


@_claim(
    "Memory synchronization helps significantly at program level for several benchmarks",
    "§4.3 / Fig. 12", needs=SUITE,
)
def check_figure12_program(names) -> Tuple[bool, str]:
    rows = fig12_program.run(names)
    improved = fig12_program.significantly_improved(rows)
    return (
        len(improved) >= 6,
        f"{len(improved)} workloads improve by >2 program points",
    )


@_claim(
    "Slot attribution explains 100% of execution time",
    "§1.2 / repro analyze",
)
def check_accounting_identity(names) -> Tuple[bool, str]:
    worst = 0.0
    cells = 0
    for name in names:
        bundle = bundle_for(name)
        for bar in ("U", "C", "H", "B"):
            for region in bundle.simulate(bar).regions:
                cells += 1
                error = region.slots.total - sum(region.attribution.values())
                worst = max(worst, abs(error))
    return (
        worst == 0.0,
        f"worst |total - sum(attribution)| over {cells} regions: {worst:g}",
    )


@_claim(
    "Conservative synchronization slightly degrades TWOLF",
    "§4.2", needs=("twolf",),
)
def check_twolf_degradation(names) -> Tuple[bool, str]:
    bundle = bundle_for("twolf")
    u, _ = bundle.normalized_region("U")
    c, _ = bundle.normalized_region("C")
    ok = u <= c <= u + 5.0
    return ok, f"U {u:.1f} vs C {c:.1f}"


CHECKS: Tuple[Callable[[Sequence[str]], Tuple[bool, str]], ...] = (
    check_figure2_potential,
    check_figure6_threshold,
    check_signal_buffer,
    check_figure8_improvers,
    check_figure8_sensitivity,
    check_figure10_prediction,
    check_figure10_winners,
    check_figure10_hybrid,
    check_figure11_complementary,
    check_figure12_program,
    check_accounting_identity,
    check_twolf_degradation,
)


def run_scorecard(workloads: Optional[Sequence[str]] = None) -> List[ClaimResult]:
    """Evaluate every claim; returns the results in check order.

    A claim that needs a workload outside ``workloads`` is reported as
    skipped rather than evaluated on data it does not have.
    """
    names = list(workloads) if workloads else _all_names()
    results = []
    for check in CHECKS:
        reason = _skip_reason(check, names)
        if reason is not None:
            results.append(
                ClaimResult(check.claim, check.where, False, reason, skipped=True)
            )
            continue
        ok, detail = check(names)
        results.append(ClaimResult(check.claim, check.where, ok, detail))
    return results


def format_scorecard(results: List[ClaimResult]) -> str:
    lines = []
    for result in results:
        mark = "SKIP" if result.skipped else "PASS" if result.ok else "FAIL"
        lines.append(f"[{mark}] {result.claim} ({result.where})")
        lines.append(f"       {result.detail}")
    passed = sum(r.ok for r in results)
    skipped = sum(r.skipped for r in results)
    tally = f"\n{passed}/{len(results) - skipped} claims reproduced"
    lines.append(tally + (f", {skipped} skipped" if skipped else ""))
    return "\n".join(lines)
