"""Span tracing from outside the program.

`Tracer.wrap` replaces a module attribute with a timing wrapper, so every
call the module makes through that name is recorded; `restore` puts the
originals back.  Spans stay in memory as (name, start, end, parent, note)
until the run ends.  Calls into the wrapped functions come from one thread.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1, note]
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name, note=None):
        """Record every call made through `module.attr` as span `name`.

        `note(args, kwargs, result)`, if given, is stored on the span.
        """
        orig = getattr(module, attr)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            self.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, orig))

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def take(self):
        """Return the spans recorded since the last take and start afresh.

        Call it between top-level calls only: parents index into one take.
        """
        spans, self.spans = self.spans, []
        return spans


def total(spans, name):
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def self_total(spans, name):
    """Summed duration of the `name` spans minus their direct children.

    Children of one span run one after another on its thread, so their
    durations do not overlap.
    """
    ids = {i for i, s in enumerate(spans) if s[0] == name}
    return total(spans, name) - sum(s[2] - s[1] for s in spans if s[3] in ids)


def dump(spans):
    return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
            for s in spans]
