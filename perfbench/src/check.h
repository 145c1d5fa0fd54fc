// Checks every answer the daemon gave against the independent reference,
// at the epoch the answer reports.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <vector>

#include "common.h"
#include "reference.h"
#include "served.h"
#include "workload.h"

namespace perfbench {

/// Counts each read as a query (failed when unanswered, not kOk or wrong)
/// and each comparison with the reference as a check.
///  - Every answer: |C| equals the reference community at its epoch; a
///    retrieval is found iff |C| > 0; an SCS answer is found iff |C| > 0,
///    has 0 < |R| ≤ |C| when found and names the kernel it was asked for.
///  - The first `spec.scs_sample` SCS answers of the open loop and every
///    SCS probe: found, |R| and f(R) equal the threshold search.
///  - Probes answer at the epoch of the commit they follow.
/// The reference state at epoch e is the initial edge list with the first
/// e - 1 batches applied, matched through `writer.commit_epochs`.
void CheckAnswers(const WorkloadSpec& spec, const RefGraph& initial,
                  const std::vector<RefCores>& initial_cores,
                  const Inputs& inputs, const std::vector<const ReadLog*>& reads,
                  const ReadLog& open, const WriterLog& writer,
                  Accounting* acct);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
