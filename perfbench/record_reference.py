"""Record the benchmark's reference values from the program as it stands.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: the recovery ratio of every recover row and
the final energy of every descent job the streams can generate.  The values
were recorded once, from the commit that introduced the benchmark; later
changes to helimag are checked against them, so do not re-record to make a
check pass.
"""

from __future__ import annotations

import json

import bench_workloads as bw


def main() -> None:
    recover = {}
    for params in bw.recover_levels("full"):
        n = round(1.0 / params.lam)
        for kind in bw.RECOVER_KINDS:
            walls = bw.LAMINATE_WALLS if kind == "laminate" else (3,)
            for w in walls:
                row = bw.recover_row(kind, w, params)
                if row["overflow"]:
                    raise SystemExit(f"{kind} {w} @{n}: {row['overflow']} overflow bonds")
                recover[bw.recover_key(kind, w, n)] = row["ratio"]
    descent = {}
    for side, cap in bw.PLANE_CAPS["full"].items():
        for pair in bw.PLANE_PAIRS:
            res = bw.descend(bw.plane_problem(side, pair), cap)
            descent[bw.plane_key(side, pair)] = res.report.total
    for eps, cap in bw.CHAIN_CAPS["full"].items():
        for sides in bw.CHAIN_SIDES:
            res = bw.descend(bw.chain_problem(eps, sides), cap)
            descent[bw.chain_key(eps, sides)] = res.report.total
    doc = {"recover": recover, "descent": descent}
    bw.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recover)} recover and {len(descent)} descent references")


if __name__ == "__main__":
    main()
