#!/usr/bin/env python3
"""Fixture tests for scripts/lint/fastjoin_lint.py.

Each rule gets three assertions: it FIRES on a seeded-violation
fixture, it stays QUIET on a clean fixture, and an inline
`fastjoin-lint: allow(<rule>)` SUPPRESSES it. On top of that the
baseline machinery is round-tripped (baselined findings pass, new ones
still fail) and the shipped tree is asserted clean under the committed
baseline — so tier-1 ctest gates lint cleanliness.

Run directly or via ctest (registered in tests/CMakeLists.txt).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
LINT = os.path.join(REPO, "scripts", "lint", "fastjoin_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint", "fixtures")
BASELINE = os.path.join(REPO, "scripts", "lint",
                        "fastjoin_lint_baseline.json")

failures = []


def run_lint(*args):
    """Run the linter; returns (exit_code, findings_list)."""
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tmp:
        out_path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, LINT, "--json", out_path, *args],
            capture_output=True, text=True)
        with open(out_path, encoding="utf-8") as f:
            findings = json.load(f)["findings"]
        return proc.returncode, findings, proc.stdout + proc.stderr
    finally:
        os.unlink(out_path)


def check(label, cond, detail=""):
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {label}")
    if not cond:
        failures.append(label)
        if detail:
            print(f"       {detail}")


def fixture(name):
    return os.path.join(FIXTURES, name)


def expect(name, rule, count, exact_lines=None):
    code, findings, log = run_lint(fixture(name))
    got = [f for f in findings if f["rule"] == rule]
    other = [f for f in findings if f["rule"] != rule]
    check(f"{name}: {rule} fires {count}x", len(got) == count,
          f"got {len(got)}: {json.dumps(got, indent=2)}\n{log}")
    check(f"{name}: no other rules fire", not other,
          json.dumps(other, indent=2))
    check(f"{name}: exit {'1' if count else '0'}",
          code == (1 if count else 0), f"exit={code}\n{log}")
    if exact_lines is not None:
        check(f"{name}: findings on lines {exact_lines}",
              sorted(f["line"] for f in got) == sorted(exact_lines),
              f"got lines {[f['line'] for f in got]}")


def main():
    # --- atomic-order -----------------------------------------------
    expect("atomic_order_bad.cpp", "atomic-order", 9)
    expect("atomic_order_allowed.cpp", "atomic-order", 0)
    expect("atomic_order_clean.cpp", "atomic-order", 0)

    # --- hot-path-blocking ------------------------------------------
    expect("hot_path_bad.cpp", "hot-path-blocking", 4)
    expect("hot_path_region.cpp", "hot-path-blocking", 1,
           exact_lines=[10])
    expect("hot_path_allowed.cpp", "hot-path-blocking", 0)

    # --- stub-parity ------------------------------------------------
    expect("stub_parity_bad.hpp", "stub-parity", 2)
    expect("stub_parity_good.hpp", "stub-parity", 0)

    # --- banned-api -------------------------------------------------
    expect("banned_bad.cpp", "banned-api", 4)
    expect("banned_allowed.cpp", "banned-api", 0)

    # --- protocol-clock ---------------------------------------------
    expect("protocol_clock_bad.cpp", "protocol-clock", 3,
           exact_lines=[8, 9, 10])
    expect("protocol_clock_allowed.cpp", "protocol-clock", 0)
    expect("protocol_clock_untagged.cpp", "protocol-clock", 0)

    # --- net-socket -------------------------------------------------
    expect("net_socket_bad.cpp", "net-socket", 5,
           exact_lines=[2, 3, 6, 8, 9])
    expect("net_socket_tagged.cpp", "net-socket", 0)
    expect("net_socket_allowed.cpp", "net-socket", 0)

    # --- net-socket in src/server/ (serving layer) ------------------
    # Fixtures live under fixtures/src/server/ so the linter's
    # path-containment check sees them as serving-layer files.
    expect("src/server/net_socket_server_bad.cpp", "net-socket", 5,
           exact_lines=[2, 3, 6, 8, 9])
    _, sf, _ = run_lint(fixture("src/server/net_socket_server_bad.cpp"))
    check("server fixture: findings carry the serving-layer hint",
          all("serving front door" in f["message"] for f in sf),
          json.dumps(sf, indent=2))
    # The FASTJOIN_NET_FILE tag is reserved for src/net/ itself — a
    # serving-layer file claiming it is a finding, not an exemption.
    expect("src/server/net_socket_server_tagged.cpp", "net-socket", 1,
           exact_lines=[1])
    _, tf, _ = run_lint(
        fixture("src/server/net_socket_server_tagged.cpp"))
    check("server tag abuse: message names the serving layer",
          all("serving layer rides on src/net" in f["message"]
              for f in tf),
          json.dumps(tf, indent=2))
    expect("src/server/net_socket_server_clean.cpp", "net-socket", 0)

    # --- parse-surface ----------------------------------------------
    expect("parse_surface_bad.cpp", "parse-surface", 6,
           exact_lines=[16, 17, 18, 19, 20, 21])
    expect("parse_surface_clean.cpp", "parse-surface", 0)
    expect("parse_surface_allowed.cpp", "parse-surface", 0)
    expect("parse_surface_untagged.cpp", "parse-surface", 0)

    # --- parse-surface: decode/fuzz-harness parity ------------------
    # A tagged header declaring a decoder no harness names fails; one
    # whose type appears in tests/fuzz/ passes. Pointing --fuzz-dir at
    # an empty tree flips the good fixture to failing, proving the
    # check actually reads the harness sources.
    expect("parse_surface_parity_bad.hpp", "parse-surface", 1,
           exact_lines=[14])
    _, pf, _ = run_lint(fixture("parse_surface_parity_bad.hpp"))
    check("parity fixture: message names the uncovered type",
          all("OrphanedFixtureMsg" in f["message"] for f in pf),
          json.dumps(pf, indent=2))
    expect("parse_surface_parity_good.hpp", "parse-surface", 0)
    with tempfile.TemporaryDirectory() as td:
        stub = os.path.join(td, "stub_harness.cpp")
        with open(stub, "w", encoding="utf-8") as f:
            f.write("// no message types named here\n")
        code, findings, log = run_lint(
            fixture("parse_surface_parity_good.hpp"), "--fuzz-dir", td)
        check("parity: harness tree without the type fails (exit 1)",
              code == 1 and len(findings) == 1, log)

    # --- atomic-padding ---------------------------------------------
    expect("atomic_padding_bad.cpp", "atomic-padding", 2,
           exact_lines=[11, 16])
    expect("atomic_padding_clean.cpp", "atomic-padding", 0)
    expect("atomic_padding_allowed.cpp", "atomic-padding", 0)
    expect("atomic_padding_untagged.cpp", "atomic-padding", 0)

    # --- dead-source ------------------------------------------------
    # A src/ tree with a sibling tools/: the module a tool includes is
    # reached (with its .cpp and the header that .cpp includes), the
    # other module is not. Without any program root beside src/ the
    # rule stays silent.
    expect("dead_source/src", "dead-source", 1, exact_lines=[1])
    _, df, _ = run_lint(fixture("dead_source/src"))
    check("dead-source: the finding is the orphan header",
          [os.path.basename(f["path"]) for f in df] == ["orphan.hpp"],
          json.dumps(df, indent=2))
    with tempfile.TemporaryDirectory() as td:
        lone = os.path.join(td, "src")
        shutil.copytree(fixture("dead_source/src"), lone)
        code, findings, log = run_lint(lone)
        check("dead-source: no program root, no findings (exit 0)",
              code == 0 and not findings, log)

    # --- baseline machinery -----------------------------------------
    with tempfile.TemporaryDirectory() as td:
        bl = os.path.join(td, "baseline.json")
        code, _, log = run_lint(fixture("banned_bad.cpp"),
                                "--baseline", bl, "--update-baseline")
        check("baseline: --update-baseline exits 0", code == 0, log)
        code, findings, log = run_lint(fixture("banned_bad.cpp"),
                                       "--baseline", bl)
        baselined = [f for f in findings if f["baselined"]]
        check("baseline: old findings tolerated (exit 0)", code == 0,
              log)
        check("baseline: findings marked baselined",
              len(baselined) == 4, json.dumps(findings, indent=2))
        code, _, log = run_lint(fixture("banned_bad.cpp"),
                                fixture("atomic_order_bad.cpp"),
                                "--baseline", bl)
        check("baseline: NEW findings still fail (exit 1)", code == 1,
              log)

    # --- the shipped tree is clean ----------------------------------
    code, findings, log = run_lint(os.path.join(REPO, "src"),
                                   "--baseline", BASELINE)
    fresh = [f for f in findings if not f["baselined"]]
    check("src/ tree: clean under committed baseline", code == 0,
          f"exit={code}, new findings: {json.dumps(fresh, indent=2)}")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
