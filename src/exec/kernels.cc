#include "exec/kernels.h"

#include <algorithm>
#include <cstring>

namespace mmjoin::exec {

const char* KernelName(DerefKernel kernel) {
  switch (kernel) {
    case DerefKernel::kScalar:
      return "scalar";
    case DerefKernel::kPrefetch:
      return "prefetch";
  }
  return "?";
}

const char* PagingModeName(PagingMode paging) {
  switch (paging) {
    case PagingMode::kNone:
      return "none";
    case PagingMode::kAdvise:
      return "advise";
  }
  return "?";
}

namespace {

inline const rel::SObject* Target(const rel::SObject* const* parts,
                                  uint64_t packed_sptr) {
  const rel::SPtr sp = rel::SPtr::Unpack(packed_sptr);
  return parts[sp.partition] + sp.index;
}

inline uint32_t ClampDistance(uint32_t distance) {
  return std::min(std::max(distance, 1u), kMaxPrefetchDistance);
}

}  // namespace

void ProbeRefs(const SRef* refs, uint64_t n, const rel::SObject* const* parts,
               uint32_t distance, KernelTally* tally) {
  const uint64_t d = std::min<uint64_t>(ClampDistance(distance), n);
  uint64_t count = 0, digest = 0;
  // Prologue: put the first window of S lines in flight before consuming
  // anything, then steady-state one-prefetch-one-consume. The ref stream
  // itself is sequential (hardware prefetch covers it); only the S side
  // needs software help.
  for (uint64_t k = 0; k < d; ++k) {
    __builtin_prefetch(Target(parts, refs[k].sptr), 0, 3);
  }
  uint64_t k = 0;
  for (const uint64_t lim = n - d; k < lim; ++k) {
    __builtin_prefetch(Target(parts, refs[k + d].sptr), 0, 3);
    const rel::SObject* s = Target(parts, refs[k].sptr);
    digest += rel::OutputDigest(refs[k].r_id, s->key);
    ++count;
  }
  for (; k < n; ++k) {
    const rel::SObject* s = Target(parts, refs[k].sptr);
    digest += rel::OutputDigest(refs[k].r_id, s->key);
    ++count;
  }
  tally->count += count;
  tally->digest += digest;
  tally->requests += n;
  tally->prefetches += n;
  tally->batches += 1;
}

void ProbeRefsScalar(const SRef* refs, uint64_t n,
                     const rel::SObject* const* parts, KernelTally* tally) {
  uint64_t count = 0, digest = 0;
  for (uint64_t k = 0; k < n; ++k) {
    const rel::SObject* s = Target(parts, refs[k].sptr);
    digest += rel::OutputDigest(refs[k].r_id, s->key);
    ++count;
  }
  tally->count += count;
  tally->digest += digest;
  tally->requests += n;
  tally->batches += 1;
}

void ProbeObjects(const rel::RObject* objs, uint64_t n,
                  const rel::SObject* const* parts, uint32_t distance,
                  KernelTally* tally) {
  const uint64_t d = std::min<uint64_t>(ClampDistance(distance), n);
  uint64_t count = 0, digest = 0;
  for (uint64_t k = 0; k < d; ++k) {
    __builtin_prefetch(Target(parts, objs[k].sptr), 0, 3);
  }
  uint64_t k = 0;
  for (const uint64_t lim = n - d; k < lim; ++k) {
    // Reading only (id, sptr) touches one cache line of the 128-byte
    // object; prefetch the line of the object d ahead as well so the
    // 128-byte stride does not outrun the hardware streamer.
    __builtin_prefetch(&objs[k + d], 0, 0);
    __builtin_prefetch(Target(parts, objs[k + d].sptr), 0, 3);
    const rel::SObject* s = Target(parts, objs[k].sptr);
    digest += rel::OutputDigest(objs[k].id, s->key);
    ++count;
  }
  for (; k < n; ++k) {
    const rel::SObject* s = Target(parts, objs[k].sptr);
    digest += rel::OutputDigest(objs[k].id, s->key);
    ++count;
  }
  tally->count += count;
  tally->digest += digest;
  tally->requests += n;
  tally->prefetches += n;
  tally->batches += 1;
}

void ProbeObjectsScalar(const rel::RObject* objs, uint64_t n,
                        const rel::SObject* const* parts,
                        KernelTally* tally) {
  uint64_t count = 0, digest = 0;
  for (uint64_t k = 0; k < n; ++k) {
    rel::RObject obj;
    std::memcpy(&obj, &objs[k], sizeof(obj));
    const rel::SObject* s = Target(parts, obj.sptr);
    digest += rel::OutputDigest(obj.id, s->key);
    ++count;
  }
  tally->count += count;
  tally->digest += digest;
  tally->requests += n;
  tally->batches += 1;
}

}  // namespace mmjoin::exec
