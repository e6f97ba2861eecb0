"""Write the golden outputs of the default seed into benchmarks/golden/.

    python3 benchmarks/make_golden.py

Run only on a commit whose outputs are trusted: every later benchmark run
at the default seed is compared against these files.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.prepare()
    import tracing
    import workloads

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for cls in workloads.WORKLOADS.values():
        if not cls.has_golden:
            continue
        wl = cls(workloads.DEFAULT_SEED, run.OUT / f"golden-{cls.name}",
                 compare_golden=False)
        output = wl.run_pass(tracing.NullTracer())
        record = wl.golden_record(output)
        if wl.check(output):
            raise SystemExit(f"{cls.name}: outputs fail their own checks")
        path = workloads.GOLDEN_DIR / f"{cls.name}.json"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
