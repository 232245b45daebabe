"""Check a `hgspdc validate --output` report: its top-level keys, each
check's keys in order (extras on oracle_agreement only), the nine check
names in order, and trend_forbidden_increasing the one failing check (it
fails by design, see README). Prints each check's elapsed time without
bounding it.

Usage: python .github/check_validate_report.py validate.json
"""

import json
import sys

report = json.load(open(sys.argv[1]))
assert list(report) == ["passed", "checks", "pi_seeds"], list(report)
checks = report["checks"]
for c in checks:
    print(f"{c['name']:28} {1e3 * c['elapsed_s']:8.1f} ms")
    keys = ["name", "passed", "max_deviation", "detail", "elapsed_s"]
    if c["name"] == "oracle_agreement":
        keys.append("extras")
    assert list(c) == keys, (c["name"], list(c))
names = [c["name"] for c in checks]
assert names == ["vacuum_golden", "turbulence_golden", "selection_rules",
                 "oracle_agreement", "symmetry_factorization",
                 "trend_allowed_decreasing", "trend_forbidden_increasing",
                 "robust_mode_ordering", "specfun"], names
failing = [c["name"] for c in checks if not c["passed"]]
print("failing checks:", failing)
assert failing == ["trend_forbidden_increasing"], failing
