#!/usr/bin/env python3
"""Seed-violation fixture tests for aift-lint.

Each rule gets three fixtures under tests/tools/fixtures/:

  <rule>_trigger.cpp   must produce >= 1 finding tagged [<rule>]
  <rule>_clean.cpp     near-miss idioms the rule must NOT fire on
  <rule>_allow.cpp     real violations fully suppressed by
                       `// aift-lint: allow(<rule>)` directives

Fixtures are linted via --as-path so the path-scoped rules see them at a
virtual in-scope location; extra cases re-lint the SAME trigger fixture
at an out-of-scope / whitelisted path and expect silence, proving the
scoping itself. The fixtures directory is excluded from tree-wide lint
walks (aift_lint.py SKIP_DIR_NAMES), so the deliberate violations can
never fail the aift_lint_tree gate.

Usage: run_lint_fixture_tests.py [rule]
With a rule argument, runs only that rule's cases (one CTest entry per
rule); with none, runs everything.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, os.pardir, os.pardir))
LINT = os.path.join(REPO, "tools", "aift_lint", "aift_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

# (rule, fixture, virtual path, expected exit, rule tag expected in output)
CASES = [
    ("locale-float", "locale_float_trigger.cpp",
     "src/runtime/fixture_report.cpp", 1, True),
    ("locale-float", "locale_float_clean.cpp",
     "src/runtime/fixture_report.cpp", 0, False),
    ("locale-float", "locale_float_allow.cpp",
     "src/runtime/fixture_report.cpp", 0, False),
    # The identical violations ARE legal inside the sanctioned formatting
    # implementation sites (scope whitelist) and outside src/ entirely.
    ("locale-float", "locale_float_trigger.cpp",
     "src/common/table.cpp", 0, False),
    ("locale-float", "locale_float_trigger.cpp",
     "bench/fixture_report.cpp", 0, False),

    ("nondeterminism", "nondeterminism_trigger.cpp",
     "src/runtime/fixture_sched.cpp", 1, True),
    ("nondeterminism", "nondeterminism_clean.cpp",
     "src/runtime/fixture_sched.cpp", 0, False),
    ("nondeterminism", "nondeterminism_allow.cpp",
     "src/runtime/fixture_sched.cpp", 0, False),
    # Tests are in scope too (they pin bit-identity); bench/ is not.
    ("nondeterminism", "nondeterminism_trigger.cpp",
     "tests/runtime/fixture_sched.cpp", 1, True),
    ("nondeterminism", "nondeterminism_trigger.cpp",
     "bench/fixture_sched.cpp", 0, False),

    ("fp-reduction-order", "fp_reduction_order_trigger.cpp",
     "src/gemm/fixture_sum.cpp", 1, True),
    ("fp-reduction-order", "fp_reduction_order_trigger.cpp",
     "src/core/fixture_sum.cpp", 1, True),
    ("fp-reduction-order", "fp_reduction_order_clean.cpp",
     "src/gemm/fixture_sum.cpp", 0, False),
    ("fp-reduction-order", "fp_reduction_order_allow.cpp",
     "src/gemm/fixture_sum.cpp", 0, False),
    # Outside gemm/ and core/ the rule does not apply.
    ("fp-reduction-order", "fp_reduction_order_trigger.cpp",
     "src/runtime/fixture_sum.cpp", 0, False),

    ("hot-path-alloc", "hot_path_alloc_trigger.cpp",
     "src/gemm/fixture_blocks.cpp", 1, True),
    ("hot-path-alloc", "hot_path_alloc_clean.cpp",
     "src/gemm/fixture_blocks.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_allow.cpp",
     "src/gemm/fixture_blocks.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_trigger.cpp",
     "src/runtime/fixture_blocks.cpp", 0, False),
    # ThreadLevelAbft::check is the core/ hot body, found inside the
    # namespaces it is defined in; run_blocks* is hot only in gemm/.
    ("hot-path-alloc", "hot_path_alloc_check_trigger.cpp",
     "src/core/fixture_check.cpp", 1, True),
    ("hot-path-alloc", "hot_path_alloc_check_clean.cpp",
     "src/core/fixture_check.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_check_allow.cpp",
     "src/core/fixture_check.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_check_trigger.cpp",
     "src/runtime/fixture_check.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_trigger.cpp",
     "src/core/fixture_blocks.cpp", 0, False),
    # The microkernel bodies (micro_tile*, gemm_block_*) are hot in gemm/
    # too; the variant table built once outside them is not.
    ("hot-path-alloc", "hot_path_alloc_kernel_trigger.cpp",
     "src/gemm/fixture_kernel.cpp", 1, True),
    ("hot-path-alloc", "hot_path_alloc_kernel_clean.cpp",
     "src/gemm/fixture_kernel.cpp", 0, False),
    ("hot-path-alloc", "hot_path_alloc_kernel_trigger.cpp",
     "src/runtime/fixture_kernel.cpp", 0, False),

    ("ordered-iteration", "ordered_iteration_trigger.cpp",
     "src/runtime/report.cpp", 1, True),
    ("ordered-iteration", "ordered_iteration_trigger.cpp",
     "src/gemm/profile_cache.cpp", 1, True),
    ("ordered-iteration", "ordered_iteration_clean.cpp",
     "src/runtime/report.cpp", 0, False),
    ("ordered-iteration", "ordered_iteration_allow.cpp",
     "src/runtime/report.cpp", 0, False),
    # Outside the serialization/table/stats-merge scope the identical
    # iteration is legal (e.g. scheduler-internal lookups).
    ("ordered-iteration", "ordered_iteration_trigger.cpp",
     "src/runtime/executor.cpp", 0, False),
]


def run_case(rule, fixture, as_path, want_exit, want_tag):
    fixture_path = os.path.join(FIXTURES, fixture)
    cmd = [sys.executable, LINT, "--root", REPO, "--as-path", as_path,
           fixture_path]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    label = f"{fixture} as {as_path}"
    errors = []
    if proc.returncode != want_exit:
        errors.append(f"exit {proc.returncode}, want {want_exit}")
    tag = f"[{rule}]"
    if want_tag and tag not in proc.stdout:
        errors.append(f"no {tag} finding in output")
    if not want_tag and tag in proc.stdout:
        errors.append(f"unexpected {tag} finding")
    if errors:
        print(f"FAIL  {label}: {'; '.join(errors)}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        return False
    print(f"ok    {label} (exit {proc.returncode})")
    return True


def main(argv):
    only = argv[0] if argv else None
    cases = [c for c in CASES if only is None or c[0] == only]
    if not cases:
        print(f"no fixture cases for rule {only!r}", file=sys.stderr)
        return 2
    failures = sum(0 if run_case(*c) else 1 for c in cases)
    print(f"{len(cases) - failures}/{len(cases)} fixture cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
