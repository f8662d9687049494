#include "rtl/binding.h"

#include "ir/liveness.h"
#include "support/text.h"

#include <algorithm>
#include <set>

namespace c2h::rtl {

double RegisterBinding::areaBefore(const sched::TechLibrary &lib) const {
  double area = 0;
  for (unsigned w : originalWidths)
    area += lib.registerArea(w);
  return area;
}

double RegisterBinding::areaAfter(const sched::TechLibrary &lib) const {
  double area = 0;
  for (unsigned w : registers)
    area += lib.registerArea(w);
  // Each value beyond one per register needs write-side steering.
  if (storageValues > registerCount())
    area += (storageValues - registerCount()) * lib.muxArea(16) * 0.5;
  return area;
}

std::string RegisterBinding::str() const {
  return std::to_string(storageValues) + " values -> " +
         std::to_string(registerCount()) + " registers";
}

RegisterBinding bindRegisters(const ir::Function &fn,
                              const sched::TechLibrary &lib) {
  (void)lib;
  RegisterBinding binding;
  ir::Liveness liveness(fn);

  // Storage values: everything live across any block boundary, plus
  // parameters (they arrive before the FSM starts).
  std::set<unsigned> storage;
  for (const auto &p : fn.params())
    storage.insert(p.id);
  for (const auto &block : fn.blocks()) {
    for (unsigned r : liveness.liveIn(block.get()))
      storage.insert(r);
    for (unsigned r : liveness.liveOut(block.get()))
      storage.insert(r);
  }

  // Widths.
  std::map<unsigned, unsigned> width;
  for (const auto &p : fn.params())
    width[p.id] = p.width;
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs())
      if (instr->dst)
        width[instr->dst->id] = instr->dst->width;

  binding.storageValues = static_cast<unsigned>(storage.size());
  for (unsigned r : storage)
    binding.originalWidths.push_back(width.count(r) ? width[r] : 32);

  // Interference: co-membership in any block's boundary liveness (plus
  // parameters interfering with everything live at entry).
  std::map<unsigned, std::set<unsigned>> interferes;
  auto addClique = [&](const std::set<unsigned> &group) {
    for (unsigned a : group)
      for (unsigned b : group)
        if (a != b && storage.count(a) && storage.count(b))
          interferes[a].insert(b);
  };
  for (const auto &block : fn.blocks()) {
    const auto &in = liveness.liveIn(block.get());
    const auto &out = liveness.liveOut(block.get());
    std::set<unsigned> boundary(in.begin(), in.end());
    boundary.insert(out.begin(), out.end());
    // Values defined in the block that are live out also overlap the
    // block's live-through values.
    addClique(boundary);
  }
  {
    std::set<unsigned> params;
    for (const auto &p : fn.params())
      params.insert(p.id);
    if (fn.entry()) {
      const auto &in = liveness.liveIn(fn.entry());
      std::set<unsigned> entryLive(in.begin(), in.end());
      entryLive.insert(params.begin(), params.end());
      addClique(entryLive);
    }
  }

  // Greedy coloring, widest values first (left-edge flavor: they anchor
  // the registers the narrower values pack into).
  std::vector<unsigned> order(storage.begin(), storage.end());
  std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    if (width[a] != width[b])
      return width[a] > width[b];
    return a < b;
  });
  std::vector<std::set<unsigned>> members; // per physical register
  for (unsigned value : order) {
    bool placed = false;
    for (unsigned reg = 0; reg < members.size() && !placed; ++reg) {
      bool conflict = false;
      for (unsigned other : members[reg])
        if (interferes[value].count(other))
          conflict = true;
      if (!conflict) {
        members[reg].insert(value);
        binding.assignment[value] = reg;
        binding.registers[reg] =
            std::max(binding.registers[reg], width[value]);
        placed = true;
      }
    }
    if (!placed) {
      members.emplace_back(std::set<unsigned>{value});
      binding.assignment[value] = static_cast<unsigned>(members.size() - 1);
      binding.registers.push_back(width[value]);
    }
  }
  return binding;
}

} // namespace c2h::rtl
