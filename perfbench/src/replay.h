// The traced replay: the workload's own requests and updates run through
// the public calls of each layer, each call timed from here.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <vector>

#include "common.h"
#include "io/index_bundle.h"
#include "serve/protocol.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Adds the per-layer metrics of `core` (retrieval, SCS, the commit path)
/// and `serve` (codec, scheduler handoff, memo lookup and invalidation).
/// `bundle` is the served epoch-1 state; `responses` are the open loop's
/// answers, used as the codec's response inputs.
void ReplayLayers(const WorkloadSpec& spec, const Inputs& inputs,
                  const abcs::IndexBundle& bundle,
                  const std::vector<abcs::serve::WireResponse>& responses,
                  SpanLog* log, Accounting* acct, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
