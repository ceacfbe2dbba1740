"""Per-layer spans around fedsgm's public functions, installed from outside.

A span wraps one function: it records the call's wall time and subtracts the
time of the spans opened inside it, so every layer is reported by its self
time and the self times of all spans add up to the time the spans cover.
Counters wrap functions whose calls are counted but not timed apart from the
span that calls them (the epsilon evaluations inside a calibration).

Spans are patched onto the module attribute through which the caller looks
the function up (for example ``fedsgm.fedsim.noise_stream``, not
``fedsgm.mechanism.noise_stream``), because the package imports names into
its modules.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Span self times, call counts and sketch rows, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.sketch_rows = 0
        self._children = []  # one child-time accumulator per open span

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - self._children.pop()
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += elapsed

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, name):
        setattr(module, attr, self.span(name, getattr(module, attr)))

    def install(self):
        """Wrap the layers of the fedsgm package (the package exports a
        function named sketch, so modules are looked up by their full name)."""
        cli, config, fedsim, accountant, sketch = (
            importlib.import_module(f"fedsgm.{name}")
            for name in ("cli", "config", "fedsim", "accountant", "sketch")
        )

        self.patch(cli, "load_config", "config.load")
        build = cli.build_task

        def build_and_trace(cfg):
            task, partition = build(cfg)
            self.trace_task(task)
            return task, partition

        cli.build_task = self.span("tasks.build", build_and_trace)

        self.patch(config, "calibrate_sgm_sigma", "accountant.calibrate")
        self.patch(cli, "calibrate_sgm_sigma", "accountant.calibrate")
        accountant.sgm_epsilon = self.counter("accountant.sgm_eval", accountant.sgm_epsilon)
        self.patch(cli, "calibrate_baseline_sigma", "accountant.baseline_calibrate")
        accountant.baseline_gm_epsilon = self.counter(
            "accountant.baseline_eval", accountant.baseline_gm_epsilon
        )

        self.patch(cli, "run_federation", "fedsim.loop")
        for attr in ("client_sampler", "local_stream", "noise_stream"):
            self.patch(fedsim, attr, "fedsim.streams")
        self.patch(fedsim, "client_local_update", "fedsim.local_update")
        self.patch(fedsim, "client_privatize", "mechanism.privatize")
        self.patch(fedsim, "round_compressor", "sketch.generate")
        self.patch(sketch.SketchMatrix, "sketch", "sketch.apply")
        self.patch(sketch.SketchMatrix, "desketch", "sketch.desketch")
        self.patch(fedsim, "server_round", "fedsim.server")
        for attr in ("gd_step", "amsgrad_step", "adam_step"):
            self.patch(fedsim, attr, "optim.step")
        self.patch(fedsim, "sgm_epsilon", "accountant.round_epsilon")

        self.patch(cli, "write_round_csv", "cli.write")
        self.patch(cli, "write_manifest", "cli.write")

        iter_blocks = sketch.SketchMatrix.iter_blocks

        def counted_blocks(matrix):
            for block in iter_blocks(matrix):
                self.sketch_rows += block.shape[0]
                yield block

        sketch.SketchMatrix.iter_blocks = counted_blocks

    def trace_task(self, task):
        """Split the task's grad calls into client minibatches and full-data evaluation."""
        grad = task.grad
        client_grad = self.span("tasks.client_grad", grad)
        eval_grad = self.span("tasks.eval", grad)

        def routed_grad(theta, idx=None):
            return eval_grad(theta) if idx is None else client_grad(theta, idx)

        task.grad = routed_grad
        task.loss = self.span("tasks.eval", task.loss)
        task.test_metric = self.span("tasks.eval", task.test_metric)
