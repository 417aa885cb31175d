#!/usr/bin/env python3
"""Single case-study run: fault-free baseline vs chained knee-sensor faults.

Writes both traces and the violation log to results/case_study/ and prints
tracking quality and the safety classification.
"""

import argparse
from pathlib import Path

import numpy as np

from faultbench import experiments as ex
from faultbench.scenario import data_path, load_scenario


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("results/case_study"))
    args = ap.parse_args()

    cfg = load_scenario(data_path("case_study.json"))
    args.out.mkdir(parents=True, exist_ok=True)

    baseline = ex.simulate(cfg, seed=args.seed, faults_enabled=False)
    faulty = ex.simulate(cfg, seed=args.seed, faults_enabled=True)
    baseline.trace.to_csv(args.out / "trace_baseline.csv")
    faulty.trace.to_csv(args.out / "trace_faulty.csv")
    ex.write_violations_csv(faulty.violations, args.out / "violations.csv")

    print(f"seed {args.seed}")
    print(f"baseline: {baseline.classification.value} "
          f"({len(baseline.violations)} violations)")
    for j in cfg.joint_names:
        err = baseline.trace.signal(f"plant.{j}.pos") - baseline.trace.signal(f"dmp.{j}.pos")
        print(f"  {j:12s} tracking RMSE {np.sqrt(np.mean(err**2)):.5f} rad")
    print(f"faulty:   {faulty.classification.value} "
          f"({len(faulty.violations)} violations)")
    for field, unit in (("pos", "rad"), ("vel", "rad/s"), ("torque", "N*m")):
        d = ex.rmse(faulty.trace.signal(f"plant.right_knee.{field}"),
                    baseline.trace.signal(f"plant.right_knee.{field}"))
        print(f"  right_knee {field:6s} RMSE vs baseline: {d:.4f} {unit}")
    print(f"traces written to {args.out}/")


if __name__ == "__main__":
    main()
