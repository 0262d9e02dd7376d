// The benchmark's own expected results, computed from the mapped bytes
// alone. Nothing here trusts the workload's expected_* fields, a driver,
// or the program's serial reference evaluator: the join is every R object
// with its S-pointer unpacked and the S object read, the plans are a
// plain serial loop over the public pseudo-column definitions.
#ifndef MMJOIN_PERFBENCH_ORACLE_H_
#define MMJOIN_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/op/plan.h"
#include "mmap/mm_relation.h"

namespace perfbench {

struct JoinExpectation {
  uint64_t count = 0;
  uint64_t checksum = 0;  ///< wrapping sum of OutputDigest(r.id, s.key)
  bool valid = false;     ///< every S-pointer resolved inside S
};

/// The pointer join over the mapped relations, serially.
JoinExpectation ExpectedJoin(const mmjoin::mm::MmWorkload& w);

/// Expected outcome of one built-in plan.
struct PlanExpectation {
  uint64_t rows_scanned = 0;
  uint64_t rows_filtered = 0;
  uint64_t rows_joined = 0;
  uint64_t output_rows = 0;
  std::map<uint64_t, std::vector<uint64_t>> groups;  ///< key -> aggregates
  uint64_t checksum = 0;
};

/// Every built-in plan (exec::op::kPlanNames), in one serial pass over R.
std::map<std::string, PlanExpectation> ExpectedPlans(
    const mmjoin::mm::MmWorkload& w);

/// True when `got` agrees with `want` on every count, group and checksum.
bool PlanMatches(const PlanExpectation& want,
                 const mmjoin::exec::op::PlanRunResult& got);

/// Corrupts an expectation so that no correct run can match it (the
/// self-test's wrong expected value).
inline void Corrupt(JoinExpectation* e) { e->checksum ^= 0x5a5a5a5a5a5a5a5aULL; }
void Corrupt(std::map<std::string, PlanExpectation>* plans);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_ORACLE_H_
