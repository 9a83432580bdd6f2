"""Pass a tier-1 JUnit report only when A4 is its one failure.

Usage: python .github/check_tier1.py tier1.xml

`test_a4_sensor_count_ordering` is a known red (README, "Known-red
acceptance criterion"): it must run and fail.  Exits 1 on any other
failed or erroring test, on an A4 that passes, is skipped or is missing,
and on a report in which no test passed.
"""

import sys
import xml.etree.ElementTree as ET

KNOWN_RED = ("tests.test_acceptance", "test_a4_sensor_count_ordering")


def problems(path: str) -> list[str]:
    found, passed, a4 = [], 0, "missing"
    for case in ET.parse(path).getroot().iter("testcase"):
        key = (case.get("classname", ""), case.get("name", ""))
        red = case.find("failure") is not None or case.find("error") is not None
        skipped = case.find("skipped") is not None
        if key == KNOWN_RED:
            a4 = "failed" if red else "skipped" if skipped else "passed"
        elif red:
            found.append(f"failed: {'::'.join(key)}")
        passed += not (red or skipped)
    if a4 != "failed":
        found.append(f"A4 must run and fail, but it {a4}")
    if not passed:
        found.append("no test passed")
    return found


if __name__ == "__main__":
    report = problems(sys.argv[1])
    print("\n".join(report) or "tier-1: every test passed but A4, which failed as known")
    sys.exit(1 if report else 0)
