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

PrefixMemo::PrefixMemo(const ast::Program &program, std::string top,
                       std::shared_ptr<const analysis::Report> analysis,
                       std::optional<RangeGate> ranges)
    : program_(program), top_(std::move(top)), analysis_(std::move(analysis)) {
  if (!ranges)
    return;
  auto entry = std::make_unique<Lowered>();
  entry->key_ = std::move(ranges->key);
  entry->ranges_.get([&] { return std::move(ranges->report); });
  lowered_[entry->key_.hash].push_back(std::move(entry));
}

const analysis::Report &PrefixMemo::preflight() {
  return preflight_.get([this] {
    return analysis_ ? analysis::preflightErrors(*analysis_)
                     : analysis::preflightFlow(program_, top_, false);
  });
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
