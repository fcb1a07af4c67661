#!/usr/bin/env python3
"""Diff google-benchmark JSON reports (the perf-regression harness).

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json
        [BASELINE2.json CURRENT2.json ...]
        [--threshold PCT] [--fail-on-regression]
    scripts/bench_compare.py --self-test

Inputs are google-benchmark JSON reports given as baseline/current
*pairs*, e.g. the checked-in substrate and macro baselines against
fresh runs, compared in one invocation with one merged delta table:

    ./build/bench/micro_sim --json=sim.json --benchmark_repetitions=5
    ./build/bench/macro_pipeline --json=macro.json
    python3 scripts/bench_compare.py \
        BENCH_sim.json sim.json BENCH_macro.json macro.json

Benchmarks are matched by name within their pair. The primary metric
is items_per_second (higher is better); benchmarks that do not report
it fall back to real_time (lower is better). A report recorded with
--benchmark_repetitions holds one entry per repetition; the median of
those is compared (or the "median" aggregate, when only aggregates
were reported). Entries present in only one report of a pair are
listed but never fail the comparison.

Noise band. A baseline recorded with repetitions also gives the
metric's coefficient of variation (stdev / mean over the
repetitions, or its "cv" aggregate). A timing delta is flagged --
"REGRESSION" or "improved" -- only when it exceeds both --threshold
and the noise band, NOISE_CVS coefficients of variation; inside the
band it reads "noise". A single-repetition baseline has no band, so
only --threshold applies.

Every perf run is also a correctness run. A benchmark that reports a
`fingerprint` counter (the low 32 bits of its simulation run's
fingerprint) must report the same value in both reports of its pair
and in every repetition, and no benchmark may have reported an error
(the macro benches abort with one when the fingerprint changes across
iterations). A mismatch or error is always fatal: timing depends on
the machine, the fingerprint does not.

Exit codes:
    0  compared cleanly (regressions are warnings by default -- the
       checked-in baselines were recorded on a different machine, so
       CI treats deltas as informational); --self-test passed
    1  at least one regression beyond --threshold, and
       --fail-on-regression was given; or --self-test failed
    2  malformed input (missing file, bad JSON, no benchmarks, an odd
       number of reports) -- always fatal, so a crashed or truncated
       bench run cannot pass silently
    3  a fingerprint differs for the same benchmark name, or a
       benchmark reported an error -- always fatal
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

# Width of the noise band, in baseline coefficients of variation.
NOISE_CVS = 2.0


def load_report(path):
    """Return {name: Entry} for one report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)
    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        print(f"error: {path} contains no benchmarks", file=sys.stderr)
        raise SystemExit(2)
    runs, medians, cvs = {}, {}, {}
    for bench in benches:
        name = bench.get("run_name") or bench.get("name")
        if not name:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = bench
            elif bench.get("aggregate_name") == "cv":
                cvs[name] = bench
            continue
        runs.setdefault(name, []).append(bench)
    for name, bench in medians.items():
        runs.setdefault(name, [bench])
    out = {}
    for name, group in runs.items():
        entry = make_entry(group, cvs.get(name))
        if entry is not None:
            out[name] = entry
    if not out:
        print(f"error: {path} has no comparable entries", file=sys.stderr)
        raise SystemExit(2)
    return out


class Entry:
    """One benchmark of one report, folded over its repetitions."""

    def __init__(self, value, higher, fingerprints, error, cv=0.0):
        self.value = value            # median metric over repetitions
        self.higher = higher          # True: higher is better
        self.fingerprints = fingerprints  # set of ints, empty if none
        self.error = error            # error message, or None
        self.cv = cv                  # coefficient of variation, 0 if unknown


def make_entry(group, cv_aggregate=None):
    """Fold the repetitions of one benchmark into an Entry."""
    error = next((b.get("error_message") or "error" for b in group
                  if b.get("error_occurred")), None)
    fingerprints = {int(b["fingerprint"]) for b in group
                    if "fingerprint" in b}
    if error is not None:
        return Entry(None, True, fingerprints, error)
    if all("items_per_second" in b for b in group):
        key, higher = "items_per_second", True
    elif all("real_time" in b for b in group):
        key, higher = "real_time", False
    else:
        return None
    values = [float(b[key]) for b in group]
    cv = 0.0
    if len(values) >= 2 and statistics.mean(values) > 0:
        cv = statistics.stdev(values) / statistics.mean(values)
    elif cv_aggregate is not None and key in cv_aggregate:
        cv = abs(float(cv_aggregate[key]))
    return Entry(statistics.median(values), higher, fingerprints, error,
                 cv)


def fmt(value):
    return f"{value:.3e}"


def merge_pairs(paths):
    """Load baseline/current pairs into merged {name: ...} dicts.

    Names are matched within their own pair; a name that appears in
    more than one pair is disambiguated with a #<pair index> suffix so
    the merged table never silently conflates rows.
    """
    if len(paths) % 2 != 0:
        print("error: reports must come in baseline/current pairs "
              f"(got {len(paths)} paths)", file=sys.stderr)
        raise SystemExit(2)
    base, cur = {}, {}
    for i in range(0, len(paths), 2):
        b = load_report(paths[i])
        c = load_report(paths[i + 1])
        for src, dst in ((b, base), (c, cur)):
            for name, entry in src.items():
                key = name if name not in dst else f"{name}#{i // 2 + 1}"
                dst[key] = entry
    return base, cur


def check_fingerprints(base, cur):
    """Return one line per correctness failure across the pairs."""
    problems = []
    for name in sorted(set(base) | set(cur)):
        for side, entries in (("baseline", base), ("current", cur)):
            entry = entries.get(name)
            if entry is None:
                continue
            if entry.error is not None:
                problems.append(f"{name}: {side} reported an error: "
                                f"{entry.error}")
            if len(entry.fingerprints) > 1:
                problems.append(f"{name}: {side} fingerprint differs "
                                "across repetitions")
        if name in base and name in cur:
            bfp, cfp = base[name].fingerprints, cur[name].fingerprints
            if bfp and cfp and bfp != cfp:
                problems.append(
                    f"{name}: fingerprint {fmt_fp(cfp)} != baseline "
                    f"{fmt_fp(bfp)}")
    return problems


def fmt_fp(fps):
    return "/".join(f"{fp:#010x}" for fp in sorted(fps))


def compare(base, cur, threshold):
    """Print the delta table; return the list of (name, pct) regressions."""
    shared = [n for n in base if n in cur]
    only_base = [n for n in base if n not in cur]
    only_cur = [n for n in cur if n not in base]

    width = max((len(n) for n in shared), default=4)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}"
          f"  {'delta':>8}  verdict")
    regressions = []
    for name in shared:
        bval, b_higher = base[name].value, base[name].higher
        cval, c_higher = cur[name].value, cur[name].higher
        if bval is None or cval is None:
            print(f"{name:<{width}}  no timing (errored run); skipping")
            continue
        if b_higher != c_higher:
            print(f"{name:<{width}}  metric kind changed; skipping")
            continue
        # Normalize so positive delta always means "got faster".
        delta = (cval / bval - 1.0) if b_higher else (bval / cval - 1.0)
        pct = delta * 100.0
        band = NOISE_CVS * base[name].cv * 100.0
        if abs(pct) <= band:
            verdict = "noise"
        elif pct <= -threshold:
            verdict = "REGRESSION"
            regressions.append((name, pct))
        elif pct >= threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {fmt(bval):>10}  {fmt(cval):>10}"
              f"  {pct:>+7.1f}%  {verdict}")

    for name in only_base:
        print(f"{name:<{width}}  only in baseline")
    for name in only_cur:
        print(f"{name:<{width}}  only in current run")
    return regressions


def run(argv):
    parser = argparse.ArgumentParser(
        description="Compare google-benchmark JSON reports.")
    parser.add_argument("reports", nargs="*",
                        help="baseline/current report pairs")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent "
                             "(default: 10)")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any benchmark regresses "
                             "beyond the threshold")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if len(args.reports) < 2:
        parser.error("need at least one baseline/current pair")

    base, cur = merge_pairs(args.reports)
    regressions = compare(base, cur, args.threshold)
    problems = check_fingerprints(base, cur)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, pct in regressions:
            print(f"  {name}: {pct:+.1f}%", file=sys.stderr)
        if args.fail_on_regression:
            return 1
        print("(warning only: pass --fail-on-regression to gate)",
              file=sys.stderr)
    if problems:
        print(f"\n{len(problems)} correctness failure(s):", file=sys.stderr)
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------
# Self-test (invoked from CI): exercises pairing, delta math, the
# regression gate and the malformed-input paths without touching the
# real baselines.
# ---------------------------------------------------------------------

def _report(entries):
    return {"benchmarks": [dict(e) for e in entries]}


def _write(tmp, name, doc):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def self_test():
    failures = []

    def check(cond, label):
        print(f"{'ok' if cond else 'FAIL'}: {label}")
        if not cond:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        kern_base = _write(tmp, "kb.json", _report([
            {"name": "BM_Event", "items_per_second": 100.0}]))
        kern_fast = _write(tmp, "kc.json", _report([
            {"name": "BM_Event", "items_per_second": 150.0}]))
        kern_slow = _write(tmp, "ks.json", _report([
            {"name": "BM_Event", "items_per_second": 50.0}]))
        macro_base = _write(tmp, "mb.json", _report([
            {"name": "BM_MacroAcInt", "items_per_second": 10.0},
            {"name": "BM_Time", "real_time": 200.0}]))
        macro_cur = _write(tmp, "mc.json", _report([
            {"name": "BM_MacroAcInt", "items_per_second": 10.5},
            {"name": "BM_Time", "real_time": 190.0}]))
        fp_base = _write(tmp, "fb.json", _report([
            {"name": "BM_MacroRss", "items_per_second": 10.0,
             "fingerprint": 1234.0},
            {"name": "BM_MacroAcInt", "items_per_second": 10.0,
             "fingerprint": 99.0}]))
        fp_same = _write(tmp, "fs.json", _report([
            {"name": "BM_MacroRss", "items_per_second": 5.0,
             "fingerprint": 1234.0},
            {"name": "BM_MacroAcInt", "items_per_second": 10.0,
             "fingerprint": 99.0}]))
        fp_diff = _write(tmp, "fd.json", _report([
            {"name": "BM_MacroRss", "items_per_second": 10.0,
             "fingerprint": 1234.0},
            {"name": "BM_MacroAcInt", "items_per_second": 10.0,
             "fingerprint": 98.0}]))
        fp_none = _write(tmp, "fn.json", _report([
            {"name": "BM_MacroRss", "items_per_second": 10.0,
             "fingerprint_fold": 7.0}]))
        reps = [{"name": "BM_MacroRss", "run_name": "BM_MacroRss",
                 "run_type": "iteration", "items_per_second": v,
                 "fingerprint": 1234.0} for v in (9.0, 10.0, 30.0)]
        reps.append({"name": "BM_MacroRss_mean",
                     "run_name": "BM_MacroRss", "run_type": "aggregate",
                     "aggregate_name": "mean",
                     "items_per_second": 16.3})
        fp_reps = _write(tmp, "fr.json", _report(reps))
        reps_split = [dict(r) for r in reps[:3]]
        reps_split[1]["fingerprint"] = 4321.0
        fp_split = _write(tmp, "fx.json", _report(reps_split))
        errored = _write(tmp, "fe.json", _report([
            {"name": "BM_MacroRss", "error_occurred": True,
             "error_message": "fingerprint changed across iterations",
             "real_time": 0.0}]))
        bad_json = _write(tmp, "bad.json", "{not json")
        empty = _write(tmp, "empty.json", {"benchmarks": []})

        check(_exit_code([kern_base, kern_fast]) == 0,
              "single pair, improvement, exits 0")
        check(_exit_code([kern_base, kern_slow]) == 0,
              "regression without --fail-on-regression exits 0")
        check(_exit_code([kern_base, kern_slow,
                          "--fail-on-regression"]) == 1,
              "regression with --fail-on-regression exits 1")
        check(_exit_code([kern_base, kern_slow, "--fail-on-regression",
                          "--threshold", "60"]) == 0,
              "regression under threshold passes the gate")
        check(_exit_code([kern_base, kern_fast,
                          macro_base, macro_cur]) == 0,
              "two pairs merge into one clean comparison")
        check(_exit_code([kern_base, kern_slow,
                          macro_base, macro_cur,
                          "--fail-on-regression"]) == 1,
              "regression in the first of two pairs still gates")
        check(_exit_code([kern_base, bad_json]) == 2,
              "invalid JSON exits 2")
        check(_exit_code([kern_base, "/nonexistent.json"]) == 2,
              "missing file exits 2")
        check(_exit_code([kern_base, empty]) == 2,
              "report with no benchmarks exits 2")
        check(_exit_code([kern_base, kern_fast, macro_base]) == 2,
              "odd number of reports exits 2")

        check(_exit_code([fp_base, fp_same]) == 0,
              "equal fingerprints with a timing regression exit 0")
        check(_exit_code([fp_base, fp_diff]) == 3,
              "fingerprint mismatch for the same name exits 3")
        check(_exit_code([kern_base, kern_fast, fp_base, fp_diff]) == 3,
              "fingerprint mismatch in the second pair exits 3")
        check(_exit_code([fp_none, fp_base]) == 0,
              "a baseline without a fingerprint is not compared")
        check(_exit_code([fp_base, fp_reps]) == 0,
              "repetitions with one fingerprint compare cleanly")
        check(_exit_code([fp_base, fp_split]) == 3,
              "fingerprint differing across repetitions exits 3")
        check(_exit_code([fp_base, errored]) == 3,
              "a benchmark that reported an error exits 3")
        check(load_report(fp_reps)["BM_MacroRss"].value == 10.0,
              "repetitions fold to their median, aggregates ignored")

        # Noise band: baseline repetitions 90/100/110 give cv 0.1, so
        # the band is 20 %.
        noisy_base = _write(tmp, "nb.json", _report([
            {"name": "BM_Noisy", "run_name": "BM_Noisy",
             "run_type": "iteration", "items_per_second": v}
            for v in (90.0, 100.0, 110.0)]))
        in_band = _write(tmp, "ni.json", _report([
            {"name": "BM_Noisy", "items_per_second": 85.0}]))
        out_band = _write(tmp, "no.json", _report([
            {"name": "BM_Noisy", "items_per_second": 70.0}]))
        single_base = _write(tmp, "n1.json", _report([
            {"name": "BM_Noisy", "items_per_second": 100.0}]))
        check(abs(load_report(noisy_base)["BM_Noisy"].cv - 0.1) < 1e-12,
              "repetitions give the baseline's coefficient of variation")
        check(_exit_code([noisy_base, in_band,
                          "--fail-on-regression"]) == 0,
              "a delta inside the noise band is not a regression")
        check(_exit_code([noisy_base, out_band,
                          "--fail-on-regression"]) == 1,
              "a delta outside the noise band is a regression")
        check(_exit_code([single_base, in_band,
                          "--fail-on-regression"]) == 1,
              "a single-repetition baseline has no band")
        base, cur = merge_pairs([noisy_base, in_band])
        check(compare(base, cur, 10.0) == [],
              "in-band delta reported as noise, not flagged")

        base, cur = merge_pairs([kern_base, kern_fast,
                                 kern_base, kern_slow])
        check("BM_Event" in base and "BM_Event#2" in base,
              "duplicate names across pairs are disambiguated")
        regs = compare(base, cur, 10.0)
        check([n for n, _ in regs] == ["BM_Event#2"],
              "regression attributed to the right pair")

    if failures:
        print(f"\nself-test: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nself-test: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
