"""Shows that the benchmark's checks pass on the program and fail on wrong references.

    python3 perfbench/selftest.py

First the quadrature of ``reference.py`` is tested against Brownian closed
forms.  Then each workload runs briefly, and its outputs are checked three
times: against the true reference (must pass), against the Brownian law on
the same interval, i.e. the reference with the drift forgotten (must fail),
and against the true reference with E[tau] moved by 2.5 times the smallest
shift the check can detect at that sample size (must fail).  Exits 1 if any
of these expectations is not met.
"""

from __future__ import annotations

import sys

from reference import WORKLOAD_LAWS, brownian_law, exit_law, self_test
from run import check, timed_phase
from workloads import WORKLOADS, set_up


def main() -> int:
    failures = self_test()
    for name, w in WORKLOADS.items():
        s = set_up(w)
        tally, _ = timed_phase(s.ew, s.model, w, 0, seconds=2.0)
        law = WORKLOAD_LAWS[name]
        ref = exit_law(law)
        true = check(w, tally, ref)
        forgot_drift = check(w, tally, exit_law(brownian_law(law.x, law.a, law.b)))
        shift = 1.0 + 2.5 * true["detectable_mean_shift"]
        moved = check(w, tally, (ref[0], ref[1], ref[2] * shift))
        print(f"{name:<11} sims={tally.sims:<6} true reference ok={true['ok']} "
              f"(z={true['mean_exit_time_z']:+.2f}); drift forgotten ok={forgot_drift['ok']}; "
              f"E[tau] x{shift:.3f} ok={moved['ok']}")
        if not true["ok"] or forgot_drift["ok"] or moved["ok"]:
            failures.append(f"{name}: checks did not separate true from wrong references")
    for f in failures:
        print("SELF-TEST FAILED:", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
