#!/usr/bin/env python3
"""Quality of the default pipeline under reference noise (reference figures,
not a benchmark metric).

    python3 perfbench/quality_sweep.py [--seed 0]

Runs the default pipeline on the stock room with depth noise, pose noise
and both, and prints mIoU and mAP against the analytic ground truth as a
Markdown table.  Each case is one full pipeline run.
"""

import argparse
from dataclasses import replace

import run  # sets the BLAS thread variables before NumPy is used

run.import_fgs()

from fgs import pipeline, synth  # noqa: E402

CASES = (("depth_noise=0.15", {"depth_noise": 0.15}),
         ("pose_noise=0.05", {"pose_noise": 0.05}),
         ("both", {"depth_noise": 0.15, "pose_noise": 0.05}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    print("| `SynthSpec` noise | mIoU | mAP |\n|---|---|---|")
    for name, noise in CASES:
        spec = replace(synth.room_spec(seed), **noise)
        report = pipeline.run_pipeline(pipeline.PipelineConfig(seed=seed, spec=spec))
        m = report["stages"][-1]["metrics"]
        print(f"| {name} | {m['miou']:.3f} | {m['map']:.3f} |", flush=True)


if __name__ == "__main__":
    main()
