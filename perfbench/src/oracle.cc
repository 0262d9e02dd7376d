#include "oracle.h"

#include <algorithm>

#include "rel/relation.h"

namespace perfbench {

using mmjoin::exec::op::AggOp;
using mmjoin::exec::op::AggSpec;
using mmjoin::exec::op::ColumnValue;
using mmjoin::exec::op::PlanSpec;
using mmjoin::exec::op::Predicate;

namespace {

// Reads the S object an R object points to; nullptr when the pointer
// leaves S.
const mmjoin::rel::SObject* Deref(const mmjoin::mm::MmWorkload& w,
                                  uint64_t packed) {
  const mmjoin::rel::SPtr p = mmjoin::rel::SPtr::Unpack(packed);
  if (p.partition >= w.s_count.size() || p.index >= w.s_count[p.partition]) {
    return nullptr;
  }
  return w.SObjects(p.partition) + p.index;
}

}  // namespace

JoinExpectation ExpectedJoin(const mmjoin::mm::MmWorkload& w) {
  JoinExpectation e;
  e.valid = true;
  for (uint32_t i = 0; i < w.r_count.size(); ++i) {
    const mmjoin::rel::RObject* r = w.RObjects(i);
    for (uint64_t k = 0; k < w.r_count[i]; ++k) {
      const mmjoin::rel::SObject* s = Deref(w, r[k].sptr);
      if (s == nullptr) {
        e.valid = false;
        continue;
      }
      e.checksum += mmjoin::rel::OutputDigest(r[k].id, s->key);
      ++e.count;
    }
  }
  return e;
}

std::map<std::string, PlanExpectation> ExpectedPlans(
    const mmjoin::mm::MmWorkload& w) {
  std::vector<const PlanSpec*> specs;
  std::map<std::string, PlanExpectation> out;
  for (const char* name : mmjoin::exec::op::kPlanNames) {
    specs.push_back(mmjoin::exec::op::FindPlan(name));
    out[name];
  }
  for (uint32_t i = 0; i < w.r_count.size(); ++i) {
    const mmjoin::rel::RObject* r = w.RObjects(i);
    for (uint64_t k = 0; k < w.r_count[i]; ++k) {
      const uint64_t r_id = r[k].id;
      const mmjoin::rel::SObject* s = Deref(w, r[k].sptr);
      const uint64_t s_key = s != nullptr ? s->key : 0;
      for (const PlanSpec* spec : specs) {
        PlanExpectation& e = out[spec->name];
        ++e.rows_scanned;
        bool keep = true;
        for (const Predicate& p : spec->filters) {
          const uint64_t v = ColumnValue(p.col, r_id, s_key);
          keep = keep && v >= p.lo && v < p.hi;
        }
        if (!keep) continue;
        ++e.rows_filtered;
        if (spec->probe_s) ++e.rows_joined;
        ++e.output_rows;
        const uint64_t key =
            spec->group_by ? ColumnValue(*spec->group_by, r_id, s_key) : 0;
        auto [it, fresh] = e.groups.try_emplace(key);
        std::vector<uint64_t>& accs = it->second;
        if (fresh) {
          for (const AggSpec& a : spec->aggs) {
            accs.push_back(a.op == AggOp::kMin ? ~uint64_t{0} : 0);
          }
        }
        for (size_t a = 0; a < spec->aggs.size(); ++a) {
          const AggSpec& agg = spec->aggs[a];
          const uint64_t v = ColumnValue(agg.col, r_id, s_key);
          switch (agg.op) {
            case AggOp::kCount: accs[a] += 1; break;
            case AggOp::kSum: accs[a] += v; break;
            case AggOp::kMin: accs[a] = std::min(accs[a], v); break;
            case AggOp::kMax: accs[a] = std::max(accs[a], v); break;
            case AggOp::kSumProduct:
              accs[a] += v * ColumnValue(agg.col2, r_id, s_key);
              break;
          }
        }
      }
    }
  }
  // The documented checksum convention of grouped plan results: a
  // sequential Mix64 fold over the key-sorted groups.
  for (auto& [name, e] : out) {
    for (const auto& [key, aggs] : e.groups) {
      uint64_t h = mmjoin::rel::Mix64(key);
      for (uint64_t a : aggs) h = mmjoin::rel::Mix64(h ^ a);
      e.checksum = mmjoin::rel::Mix64(e.checksum ^ h);
    }
  }
  return out;
}

bool PlanMatches(const PlanExpectation& want,
                 const mmjoin::exec::op::PlanRunResult& got) {
  if (got.rows_scanned != want.rows_scanned ||
      got.rows_filtered != want.rows_filtered ||
      got.rows_joined != want.rows_joined ||
      got.output_rows != want.output_rows || got.checksum != want.checksum ||
      got.groups.size() != want.groups.size()) {
    return false;
  }
  auto it = want.groups.begin();
  for (const auto& g : got.groups) {
    if (g.key != it->first || g.aggs != it->second) return false;
    ++it;
  }
  return true;
}

void Corrupt(std::map<std::string, PlanExpectation>* plans) {
  for (auto& [name, e] : *plans) e.checksum ^= 0x5a5a5a5a5a5a5a5aULL;
}

}  // namespace perfbench
