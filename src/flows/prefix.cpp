#include "flows/prefix.h"

#include "analysis/analyzer.h"
#include "analysis/range.h"
#include "opt/irpasses.h"

namespace c2h::flows {

void optimizeAndPrune(ir::Module &module) {
  opt::optimizeModule(module);
  if (analysis::pruneDeadBranches(module))
    opt::optimizeModule(module);
}

const analysis::Report &PrefixMemo::Lowered::ranges(const ir::Module &raw) {
  return ranges_.get([&] { return analysis::checkRanges(raw); });
}

std::shared_ptr<const ir::Module>
PrefixMemo::Lowered::optimized(std::unique_ptr<ir::Module> raw) {
  return optimized_.get([&] {
    optimizeAndPrune(*raw);
    return std::shared_ptr<const ir::Module>(std::move(raw));
  });
}

const analysis::Report &PrefixMemo::preflight() {
  return preflight_.get(
      [this] { return analysis::preflightFlow(program_, top_, false); });
}

PrefixMemo::Lowered &PrefixMemo::lowered(const ir::Module &raw) {
  ir::Fingerprint key = ir::fingerprint(raw);
  std::lock_guard<std::mutex> lock(mutex_);
  auto &bucket = lowered_[key.hash];
  for (const auto &entry : bucket)
    if (entry->key_.text == key.text)
      return *entry;
  bucket.push_back(std::make_unique<Lowered>());
  bucket.back()->key_ = std::move(key);
  return *bucket.back();
}

} // namespace c2h::flows
