"""In-memory spans around calls into the package's modules.

Each hook replaces one module attribute, the name under which a caller
looks the function up, with a wrapper that records a span and optional
counters. Nothing inside ``src/`` changes; uninstalling restores every
attribute, so untraced timings run the original functions.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager


def _count_pairs(c, args, result):
    c["laws.pairs_drawn"] += int(args["size"])


def _chain_steps(name, args):
    n = int(args["n"])
    if name in ("backward_marginal_values", "forward_marginal_values"):
        return int(n * float(args["u"])) + 1
    if name in ("backward_sup_values", "forward_sup_values"):
        return int(n * float(args["T"])) + 1
    return n + 1  # pakes_values sums n + 1 decayed terms


def _count_batch(name):
    def count(c, args, result):
        reps = int(args["reps"])
        c["simulate.replications"] += reps
        c["simulate.steps"] += reps * _chain_steps(name, args)
        c["simulate.flagged_replications"] += int((result[1] != 0).sum())
    return count


def _count_path(c, args, result):
    c["simulate.replications"] += 1
    c["simulate.steps"] += args["s"].steps
    c["simulate.flagged_replications"] += int(bool(result.meta["degenerate"]))


def _count_atoms(c, args, result):
    c["limits.atoms"] += result.count


def _count_one_sample(c, args, result):
    c["verify.samples_tested"] += len(args["samples"])


def _count_two_samples(c, args, result):
    c["verify.samples_tested"] += len(args["first"]) + len(args["second"])


def _count_report(c, args, result):
    # the equality check draws R replications on each side
    sides = 2 if result.tag == "ForwardBackwardEquality" else 1
    c["verify.attempted_replications"] += sides * result.R
    c["verify.degenerate"] += result.degenerate


_BATCH = ("backward_marginal_values", "forward_marginal_values",
          "backward_sup_values", "forward_sup_values", "pakes_values")

# (span name, modules whose attribute the callers read, attribute, counter)
HOOKS = (
    ("cli.main", ("cli",), "main", None),
    ("cli.write_paths_csv", ("cli",), "write_paths_csv", None),
    ("laws.draw_log_mq", ("simulate",), "draw_log_mq", _count_pairs),
    ("laws.compute_bn", ("verify",), "compute_bn", None),
    ("slog.signed_log_add_arrays", ("simulate",), "signed_log_add_arrays", None),
    ("slog.signed_log_diff", ("simulate", "slog", "functionals"), "signed_log_diff", None),
    *((f"simulate.{f}", ("verify",), f, _count_batch(f)) for f in _BATCH),
    ("simulate.simulate_forward_chain_path", ("cli",), "simulate_forward_chain_path", _count_path),
    ("simulate.simulate_perpetuity_path", ("cli",), "simulate_perpetuity_path", _count_path),
    ("limits.sample_prm", ("limits", "verify", "cli"), "sample_prm", _count_atoms),
    ("limits.limit_marginal_values", ("verify",), "limit_marginal_values", None),
    ("limits.extremal_path", ("cli",), "extremal_path", None),
    ("verify.verify_marginal", ("cli",), "verify_marginal", _count_report),
    ("verify.verify_forward_backward_equality", ("cli",),
     "verify_forward_backward_equality", _count_report),
    ("verify.verify_functional_sup", ("cli",), "verify_functional_sup", _count_report),
    ("verify.ks_statistic", ("verify",), "ks_statistic", _count_one_sample),
    ("verify.two_sample_ks", ("verify",), "two_sample_ks", _count_two_samples),
    ("functionals.check_conditions", ("cli", "functionals"), "check_conditions", None),
    ("functionals.convergence_demo", ("cli",), "convergence_demo", None),
    ("functionals.fn_functional", ("functionals",), "fn_functional", None),
    ("paths.j1_distance", ("functionals",), "j1_distance", None),
    ("paths.point_match_distance", ("functionals",), "point_match_distance", None),
)

SPAN_NAMES = tuple(dict.fromkeys(h[0] for h in HOOKS))


class Tracer:
    """Collects spans (id, parent, request, name, start, end) and counters.

    A span opened on a worker thread with no open span of its own takes
    the innermost open span of the requesting thread as its parent, so
    the thread split inside a batch sampler stays attributed to it.
    """

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.request_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack = []
        self._counter_lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, request_id):
        self.request_id = request_id
        self._request_stack = self._stack()

    def wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._request_stack[-1] if self._request_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, self.request_id, name, start, end))
            if counter is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                with self._counter_lock:  # worker threads count too
                    counter(self.counters, arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def drain(self, fp):
        """Write the buffered spans, one JSON array a line; return them."""
        spans, self.spans = self.spans, []
        fp.writelines(json.dumps(s) + "\n" for s in spans)
        return spans


@contextmanager
def installed(tracer):
    """Install every hook on the imported package; restore on exit."""
    saved = []
    try:
        for name, modules, attr, counter in HOOKS:
            for mod_name in modules:
                mod = importlib.import_module(f"perpetuities.{mod_name}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per-span-name calls and busy time, and per-layer self time.

    Busy time sums span durations across threads. A span's self time is
    its duration minus the part of it covered by its child spans.
    """
    children = collections.defaultdict(list)
    for span_id, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls = collections.Counter()
    busy = collections.Counter()
    self_time = collections.Counter()
    for span_id, _, _, name, start, end in spans:
        calls[name] += 1
        busy[name] += end - start
        own = end - start - _covered(children.get(span_id, ()), start, end)
        self_time[name.split(".", 1)[0]] += own
    return calls, busy, self_time
