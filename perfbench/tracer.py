"""Span tracer that wraps the program's entry points from outside.

`Tracer.patch` replaces an attribute (a module global, a method, a
property, a classmethod or a dict entry) with a wrapper that records a
span around every call; `Tracer.restore` puts every original object back.
Spans are aggregated in memory as they close, per (phase, name): calls,
busy time and self time, where self time is the span's duration minus the
time of the spans it directly encloses.  Times are integer nanoseconds
from one monotonic clock, so a span's children never exceed it.

The phase is "sim" inside `sim.run`, "checks" inside `run_all_checks`
and "other" elsewhere; it lets one wrapper count the same function
separately for the simulator and the checkers.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.phase = "other"
        self.stats = defaultdict(lambda: [0, 0, 0])   # (phase, name) ->
        #                                               [calls, busy, self]
        self.counts = Counter()                        # (phase, name) -> n
        self.negative_self = 0       # spans whose self time came out < 0
        self._stack = []             # [name, child ns, context] per span
        self._patched = []           # (owner, key, original, is_dict)

    # --- spans -----------------------------------------------------------

    def context(self, kind):
        """The context object of the innermost open span of `kind`."""
        for frame in reversed(self._stack):
            if frame[0] == kind:
                return frame[2]
        return None

    def wrap(self, name, fn, hook=None, phase=None, context=None):
        """`fn` wrapped in a span; `hook(args, result)` runs after it.

        The hook's own time is charged to no span's self time: the
        enclosing span sees the whole wrapped call as child time.
        `context(args)` gives a value that `self.context(name)` returns
        to calls nested inside this one.
        """
        stack = self._stack
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0, context(args) if context else None]
            stack.append(frame)
            outer_phase = self.phase
            if phase:
                self.phase = phase
            key = (self.phase, name)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                self.phase = outer_phase
            if hook:
                hook(args, result)
            own = t1 - t0 - frame[1]
            if own < 0:
                self.negative_self += 1
            rec = stats[key]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += own
            if stack:
                stack[-1][1] += _clock() - t0
            return result
        return wrapper

    def count(self, name, n=1):
        self.counts[(self.phase, name)] += n

    def span_stats(self, phase, name):
        calls, busy, own = self.stats.get((phase, name), (0, 0, 0))
        return calls, busy / 1e9, own / 1e9

    # --- patching --------------------------------------------------------

    def patch(self, owner, attr, name, **kw):
        """Wrap `owner.attr` (or `owner[attr]` for a dict) in a span."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = self.wrap(name, original, **kw)
            self._patched.append((owner, attr, original, True))
            return
        original = vars(owner)[attr]
        if isinstance(original, property):
            new = property(self.wrap(name, original.fget, **kw))
        elif isinstance(original, classmethod):
            new = classmethod(self.wrap(name, original.__func__, **kw))
        else:
            new = self.wrap(name, original, **kw)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original, False))

    def restore(self):
        for owner, attr, original, is_dict in reversed(self._patched):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def unrestored(self):
        """Names of patched attributes that do not hold the original."""
        left = []
        for owner, attr, original, is_dict in self._patched:
            current = owner[attr] if is_dict else vars(owner).get(attr)
            if current is not original:
                left.append("%s.%s" % (getattr(owner, "__name__", "dict"),
                                       attr))
        return left
