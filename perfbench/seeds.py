"""Run one workload over several seeds and summarize each metric.

    python3 perfbench/seeds.py --workload oracle --seeds 1-10 --seconds 36

Each seed is one fresh ``run.py`` process.  For every metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread: the distance between the quartiles as a share of the median.
The last line of standard output is the summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        _, result = run.run_process(args.workload, seed, args.seconds)
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": entry["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
        print(f"{name:34} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {summary[name]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs,
                      "summary": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
