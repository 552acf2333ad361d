"""Check that two benchmark records computed the same things.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Ops are matched by (repetition, index).  For each op both records ran,
the report/result sha256, the op-level work counts, the error class and,
when both records are traced, the per-op layer counts must be equal.  Two
same-seed runs of the same code, traced or not, must agree; timed runs
stop at a deadline, so only the ops both completed are compared.  Exits 1
on any mismatch.
"""

import json
import sys

FIELDS = ("digest", "work", "error", "counts")


def load(path):
    with open(path) as handle:
        record = json.load(handle)
    return record, {(op["unit"], op["index"]): op for op in record["ops"]}


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    (rec_a, ops_a), (rec_b, ops_b) = load(argv[0]), load(argv[1])
    for key in ("workload", "seed"):
        if rec_a["provenance"][key] != rec_b["provenance"][key]:
            print(f"records differ in {key}: {rec_a['provenance'][key]} vs {rec_b['provenance'][key]}")
            return 1
    shared = sorted(set(ops_a) & set(ops_b))
    mismatches = 0
    for key in shared:
        a, b = ops_a[key], ops_b[key]
        if a["op"] != b["op"]:
            print(f"op {key}: different inputs")
            mismatches += 1
            continue
        for field in FIELDS:
            if field in a and field in b and a[field] != b[field]:
                print(f"op {key} {a['op']['kind']}: {field} differs")
                mismatches += 1
    print(f"{len(shared)} shared ops, {mismatches} mismatches")
    return 1 if mismatches or not shared else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
