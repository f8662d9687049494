#include "rtl/fsmd.h"

#include "sched/dfg.h"
#include "support/text.h"

#include <algorithm>

namespace c2h::rtl {

unsigned Design::totalStates() const {
  unsigned n = 0;
  for (const auto &[fn, proc] : processes)
    n += proc.stateCount;
  return n;
}

namespace {

// Appends a number to a fingerprint text; ' ' ends it, as in ir.cpp.
void put(std::string &text, std::uint64_t n) {
  text += std::to_string(n);
  text += ' ';
}

} // namespace

ir::Fingerprint fingerprint(const Design &design) {
  return fingerprint(design, ir::fingerprint(*design.module).text);
}

ir::Fingerprint fingerprint(const Design &design, std::string moduleText) {
  ir::Fingerprint fp;
  fp.text = std::move(moduleText);
  std::string &text = fp.text;
  put(text, design.top.size());
  text += design.top;
  for (const auto &fn : design.module->functions()) {
    const FsmdProcess *proc = design.processFor(fn.get());
    put(text, proc ? 1 : 0);
    if (!proc)
      continue;
    for (const auto &block : fn->blocks()) {
      auto it = proc->blocks.find(block.get());
      put(text, it == proc->blocks.end() ? 0 : block->id() + 1);
      if (it == proc->blocks.end())
        continue;
      const FsmdBlock &fb = it->second;
      const auto &instrs = block->instrs();
      put(text, fb.length);
      put(text, fb.ops.size());
      // buildDesign lists one operation per instruction, in block order;
      // only an operation out of that order costs a search.
      std::size_t next = 0;
      for (const OpSlot &op : fb.ops) {
        std::size_t index = next;
        if (index >= instrs.size() || instrs[index].get() != op.instr)
          index = std::find_if(instrs.begin(), instrs.end(),
                               [&](const auto &i) { return i.get() == op.instr; }) -
                  instrs.begin();
        next = index + 1;
        put(text, index);
        put(text, op.start);
        put(text, op.done);
      }
    }
  }
  fp.hash = fnv1a(text);
  return fp;
}

Design buildDesign(const ir::Module &module, const std::string &top,
                   const sched::TechLibrary &lib,
                   const sched::SchedOptions &options) {
  Design design;
  design.module = &module;
  design.top = top;
  design.options = options;

  for (const auto &fn : module.functions()) {
    sched::FunctionSchedule schedule =
        sched::scheduleFunction(*fn, lib, options);
    for (auto &v : schedule.violations)
      design.violations.push_back(v);

    FsmdProcess proc;
    proc.fn = fn.get();
    for (const auto &block : fn->blocks()) {
      const sched::BlockSchedule &bs = schedule.blocks.at(block.get());
      FsmdBlock fb;
      fb.block = block.get();
      fb.length = bs.length;
      for (std::size_t i = 0; i < block->instrs().size(); ++i) {
        OpSlot slot;
        slot.instr = block->instrs()[i].get();
        slot.start = i < bs.start.size() ? bs.start[i] : 0;
        slot.done = i < bs.done.size() ? bs.done[i] : slot.start;
        fb.ops.push_back(slot);
      }
      proc.stateCount += fb.length;
      proc.blocks.emplace(block.get(), std::move(fb));
    }
    design.processes.emplace(fn.get(), std::move(proc));
  }
  return design;
}

} // namespace c2h::rtl
