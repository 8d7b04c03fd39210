// Self-time arithmetic on a hand-built span tree: a layer's self time is
// its span minus the part its children cover, the self times of one
// thread add back up to its top-level spans, and wall − top-level spans
// is waiting.
#include <cstdlib>
#include <iostream>

#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect_eq(long long got, long long want, const char* what) {
  if (got != want) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << "\n";
    ++failures;
  }
}

const OpTotals& op(const ThreadTrace& t, Op o) {
  return t.totals(Phase::kMeasure)[static_cast<std::size_t>(o)];
}

}  // namespace

int main() {
  // t:   0        10   20   30   40   50        70        100   120 150
  //      handle_frame ───────────────────────────────────────┐
  //                deliver ──────┐      recv_batch ─┐       │
  //                     sink_verify┐                 │       │
  //      (wait)                                              send_batch
  ThreadTrace t("hand-built");
  const Phase m = Phase::kMeasure;
  t.open(Op::kHandleFrame, 7, m, 0);
  t.open(Op::kDeliver, 7, m, 10);
  t.open(Op::kSinkVerify, 7, m, 20);
  t.close(30);  // sink_verify: 10
  t.close(40);  // deliver: 30, self 20
  t.open(Op::kRecvBatch, 0, m, 50);
  t.close(70);  // recv_batch: 20
  t.close(100);  // handle_frame: 100, self 100 − 30 − 20 = 50
  t.open(Op::kSendBatch, 0, m, 120);
  t.close(140);  // send_batch: 20 (second top-level span)
  // A setup-phase span must not leak into the measured totals.
  t.open(Op::kChunk, 0, Phase::kSetup, 200);
  t.close(260);

  expect_eq(op(t, Op::kHandleFrame).total_ns, 100, "handle_frame total");
  expect_eq(op(t, Op::kHandleFrame).self_ns, 50, "handle_frame self");
  expect_eq(op(t, Op::kDeliver).self_ns, 20, "deliver self");
  expect_eq(op(t, Op::kSinkVerify).self_ns, 10, "sink_verify self");
  expect_eq(op(t, Op::kRecvBatch).self_ns, 20, "recv_batch self");
  expect_eq(op(t, Op::kSendBatch).self_ns, 20, "send_batch self");
  expect_eq(static_cast<long long>(op(t, Op::kHandleFrame).calls), 1,
            "handle_frame calls");
  expect_eq(t.top_level_ns(m), 120, "top-level spans");
  expect_eq(t.top_level_ns(Phase::kSetup), 60, "setup top-level spans");
  expect_eq(op(t, Op::kChunk).self_ns, 0, "setup span kept out of measure");
  expect_eq(static_cast<long long>(t.samples().size()), 5, "sampled spans");
  expect_eq(t.samples()[0].id, 7, "span id kept");

  const ThreadAccount acc = account(t, 150);
  const auto layer = [&](Layer l) {
    return acc.layer_self_ns[static_cast<std::size_t>(l)];
  };
  expect_eq(layer(Layer::kSession), 50, "session self");
  expect_eq(layer(Layer::kLt), 30, "lt self (deliver + sink_verify)");
  expect_eq(layer(Layer::kNet), 40, "net self (recv + send)");
  expect_eq(acc.busy_ns, 120, "busy");
  expect_eq(acc.wait_ns, 30, "wait");
  if (acc.accounting_error != 0.0) {
    std::cerr << "FAIL accounting error " << acc.accounting_error << "\n";
    ++failures;
  }

  // Unbalanced close on an empty stack is ignored, never underflows.
  t.close(500);
  expect_eq(static_cast<long long>(t.depth()), 0, "depth after stray close");

  if (failures == 0) std::cout << "span_tree_test: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
