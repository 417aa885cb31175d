#!/usr/bin/env python3
"""Single-event-upset study: one-bit flips of the knee angle reading.

Flips a random bit once per run, grouped by bit region (mantissa, exponent,
sign), and reports the classification counts per region as JSON. Runs that
produce non-finite values (possible when exponent bits flip) are counted as
diverged.
"""

import argparse
import json
from pathlib import Path

from faultbench import experiments as ex
from faultbench.scenario import data_path, load_scenario

REGIONS = {
    "mantissa": range(0, 52),
    "exponent": range(52, 63),
    "sign": [63],
}


def outcome_counts(outcomes) -> dict:
    """Runs per classification, with diverged runs counted on their own."""
    counts = {"Nominal": 0, "Error": 0, "Failure": 0, "diverged": 0}
    for o in outcomes:
        counts["diverged" if o.diverged else o.classification.value] += 1
    return counts


def studies(cfg, joint: str, n_seeds: int):
    """(name, outcomes) of each bit region's flips, then of each small-fault
    probe kind, one study at a time."""
    for region, bits in REGIONS.items():
        yield region, ex.run_bitflip_study(cfg, joint, bits=bits, n_seeds=n_seeds,
                                           base_seed=42)
    yield from ex.run_small_fault_probes(cfg, joint, n_seeds=n_seeds, base_seed=43).items()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--joint", default="right_knee")
    ap.add_argument("--out", type=Path, default=Path("results/bitflips.json"))
    args = ap.parse_args()

    cfg = load_scenario(data_path("case_study.json"))
    report = {}
    for name, outcomes in studies(cfg, args.joint, args.seeds):
        report[name] = outcome_counts(outcomes)
        print(f"{name:9s} ({args.seeds} runs): {report[name]}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
