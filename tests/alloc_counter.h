#ifndef ABCS_TESTS_ALLOC_COUNTER_H_
#define ABCS_TESTS_ALLOC_COUNTER_H_

#include <cstdint>

namespace abcs::testing {

/// Calls of the global `operator new` so far in this process, so a suite
/// can assert a zero-allocation steady state directly rather than infer it
/// from capacity snapshots. The counting replacement operators live in
/// alloc_counter.cc, which only the suites that include this header link.
uint64_t AllocCount();

}  // namespace abcs::testing

#endif  // ABCS_TESTS_ALLOC_COUNTER_H_
