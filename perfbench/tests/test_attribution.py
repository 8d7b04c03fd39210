#!/usr/bin/env python3
"""Attribution self-test: a delay planted in one layer lands in that layer.

Runs the ingest_ring workload traced twice, once as is and once with
--inject-delay session.route_frame:DELAY, which busy-waits DELAY ns inside
every traced route_frame span (a benchmark-side wrapper around the
session layer's call). The delay is small enough that the shards, not the
router, stay the bottleneck, so the run keeps its shape. Then:

  * route_frame's self time per call must rise by about DELAY;
  * every other layer's self time per delivered frame must stay within
    BOUND of its undelayed value.

    python3 perfbench/tests/test_attribution.py [path/to/ltbench]

Without a path it builds ltbench the way perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DELAYED_OP = "session.route_frame"
DELAY_NS = 150
SECONDS = 3
# Measured increase of the delayed op's self time per call, over DELAY.
INCREASE_RANGE = (0.8, 1.3)
# Every other layer's self time per delivered frame may move this much.
BOUND = 0.25


def ltbench_path():
    if len(sys.argv) > 1:
        return sys.argv.pop(1)
    sys.path.insert(0, os.path.dirname(HERE))
    import run  # perfbench/run.py
    path = run.build(run.build_dir())
    if path is None:
        raise RuntimeError("cannot build ltbench")
    return path


LTBENCH = None


def traced_ops(extra):
    cmd = [LTBENCH, "--workload", "ingest_ring", "--seed", "7",
           "--seconds", str(SECONDS), "--trace", "1"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result["check_failures"]
    return {op["name"]: op for op in result["ops"]}


def self_ns_per_call(ops, name):
    return ops[name]["self_ms"] * 1e6 / ops[name]["calls"]


def layer_ns_per_frame(ops, layer):
    """Self time of `layer`'s ops per frame delivered to the sinks."""
    frames = ops["lt.deliver"]["calls"]
    self_ms = sum(op["self_ms"] for name, op in ops.items()
                  if name.split(".")[0] == layer)
    return self_ms * 1e6 / frames


class AttributionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.base = traced_ops([])
        cls.slow = traced_ops(["--inject-delay",
                               "%s:%d" % (DELAYED_OP, DELAY_NS)])

    def test_delay_lands_in_the_delayed_op(self):
        increase = (self_ns_per_call(self.slow, DELAYED_OP) -
                    self_ns_per_call(self.base, DELAYED_OP))
        self.assertGreaterEqual(increase / DELAY_NS, INCREASE_RANGE[0],
                                increase)
        self.assertLessEqual(increase / DELAY_NS, INCREASE_RANGE[1], increase)

    def test_other_layers_stay_within_bound(self):
        delayed_layer = DELAYED_OP.split(".")[0]
        layers = {name.split(".")[0] for name in self.base} - {delayed_layer}
        self.assertTrue(layers, "no other traced layer to compare")
        for layer in sorted(layers):
            before = layer_ns_per_frame(self.base, layer)
            after = layer_ns_per_frame(self.slow, layer)
            with self.subTest(layer=layer):
                self.assertLessEqual(abs(after / before - 1.0), BOUND,
                                     (layer, before, after))


if __name__ == "__main__":
    LTBENCH = ltbench_path()
    unittest.main()
