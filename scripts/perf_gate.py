#!/usr/bin/env python3
"""Parent-vs-change perfbench gate.

usage: perf_gate.py PARENT_DIR CHANGE_DIR

Both arguments are checkouts of the repository: the parent commit and the
change under review. For every workload PARENT_DIR/BENCHMARK.json declares,
the gate runs each tree's own, unmodified perfbench/run.py in PAIRS
alternating pairs (parent first, then change first, ...), at the declared
run_seconds with --trace 0; both runs of pair k use seed k. Then, per
workload:

- each end_to_end metric compares the change's median over its runs with
  the parent's, in the metric's "better" direction. It fails when the change
  is worse by more than the metric's bound: below parent * (1 - bound) when
  higher is better, above parent * (1 + bound) when lower is better. The
  verdict line ends with every run's value, in pair order
  ("runs parent [a, b, c] -> change [d, e, f]"), so the medians carry
  their spread;
- "correct" fails when any run of either tree is not correct;
- "failed_share" fails when the change's failed/attempted share is higher
  than the parent's.

Each check prints one PASS/FAIL verdict line on stdout, and a summary line
ends the output. Exit status: 0 when every check passes, 1 when one fails,
2 when a tree cannot be read or a run prints no well-formed result line (a
one-line error on stderr).
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 3


class GateError(Exception):
    """A tree or a run the gate cannot use; the message is one line."""


def log(msg):
    print(f"perf_gate: {msg}", file=sys.stderr, flush=True)


def load_spec(tree):
    path = os.path.join(tree, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        workloads = [w["name"] for w in spec["workloads"]]
        metrics = [(m["name"], m["better"], float(m["bound"])) for m in spec["end_to_end"]]
        seconds = int(spec["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise GateError(f"cannot read {path}: {e}") from None
    return workloads, metrics, seconds


def parse_result(line, label):
    """The run.py result line as {correct, attempted, failed, metrics}."""
    try:
        result = json.loads(line)
        parsed = {
            "correct": result["correct"] is True,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {name: float(m["value"]) for name, m in result["metrics"].items()},
        }
    except (ValueError, KeyError, TypeError, AttributeError):
        raise GateError(f"{label}: malformed result line: {line[:120]!r}") from None
    return parsed


def run_once(tree, workload, seed, seconds, label):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        raise GateError(f"{label}: cannot run {cmd[1]}: {e}") from None
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise GateError(f"{label}: printed no result line (exit {done.returncode})")
    return parse_result(lines[-1], label)


def values(xs):
    return "[" + ", ".join(f"{x:.6g}" for x in xs) + "]"


def judge(workload, metrics, parent_runs, change_runs):
    """Verdict lines for one workload: [(passed, line), ...]."""
    verdicts = []
    for name, better, bound in metrics:
        try:
            pv = [r["metrics"][name] for r in parent_runs]
            cv = [r["metrics"][name] for r in change_runs]
        except KeyError:
            raise GateError(f"{workload}: a result line lacks metric {name}") from None
        p, c = statistics.median(pv), statistics.median(cv)
        if better == "higher":
            worse = c < p * (1.0 - bound)
        elif better == "lower":
            worse = c > p * (1.0 + bound)
        else:
            raise GateError(f"{workload}: metric {name} has better={better!r}")
        delta = f"{(c - p) / p:+.1%}" if p else "n/a"
        runs = f"parent {values(pv)} -> change {values(cv)}"
        verdicts.append((not worse, f"{workload} {name}: parent {p:.6g} change {c:.6g} "
                                    f"({delta}; bound {bound:.0%}, {better} is better); "
                                    f"runs {runs}"))

    def correct(runs):
        return sum(r["correct"] for r in runs)

    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0

    np, nc = correct(parent_runs), correct(change_runs)
    verdicts.append((np == len(parent_runs) and nc == len(change_runs),
                     f"{workload} correct: parent {np}/{len(parent_runs)} "
                     f"change {nc}/{len(change_runs)} runs"))
    ps, cs = share(parent_runs), share(change_runs)
    verdicts.append((cs <= ps, f"{workload} failed_share: parent {ps:.6g} change {cs:.6g}"))
    return verdicts


def gate(parent, change):
    """Runs every workload's pairs; returns the verdict lines."""
    for tree in (parent, change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            raise GateError(f"{tree} has no perfbench/run.py")
    workloads, metrics, seconds = load_spec(parent)
    verdicts = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                label = f"{workload} pair {k + 1}/{PAIRS} {side}"
                log(label)
                tree = parent if side == "parent" else change
                runs[side].append(run_once(tree, workload, k + 1, seconds, label))
        verdicts += judge(workload, metrics, runs["parent"], runs["change"])
    return verdicts


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        verdicts = gate(os.path.abspath(argv[1]), os.path.abspath(argv[2]))
    except GateError as e:
        log(f"error: {e}")
        return 2
    for passed, line in verdicts:
        print(f"{'PASS' if passed else 'FAIL'} {line}")
    failed = sum(not passed for passed, _ in verdicts)
    print(f"perf_gate: {'FAIL' if failed else 'PASS'} ({failed} of {len(verdicts)} checks failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
