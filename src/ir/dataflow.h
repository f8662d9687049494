// Reusable forward-dataflow scaffolding over the IR control-flow graph.
//
// The forward IR analyses (value ranges in analysis/range.cpp and the
// uninitialized-read lint in analysis/lints.cpp) iterate here.  Liveness,
// the one backward analysis, needs no iteration: ir/liveness.h walks each
// vreg's uses back to its definitions.  In the solver, states are
// delivered along edges (so reachability falls out for free: a block only
// acquires a state once some feasible edge hands it one), and blocks are
// visited in Bourdoncle's weak topological order ("Efficient chaotic
// iteration strategies with widenings", 1993) with his recursive strategy:
// each loop component is iterated until its head's in-state stops
// changing, and only then does the code after it run.  A loop is therefore
// stabilized once, not re-swept with every block of the function, and the
// transfers of a program of sequential loops grow linearly with its size.
// This header factors that iteration out so an analysis supplies only its
// lattice: a State, a per-block transfer producing one out-state per
// successor edge (or "edge infeasible"), and a join.
//
// The solver keeps every per-block state in a vector indexed by block id,
// hands each transfer the same out-buffer, and walks successors without
// allocating.  The order and the loop headers depend only on the CFG, so
// the caller computes them once (dataflowOrder) and passes them to every
// solve over the function.
//
// Widening hooks: joins into loop headers (targets of CFG back edges) pass
// `widen = true` once the header has absorbed more than `widenAfter`
// updates, letting interval-style domains with infinite ascending chains
// force termination without giving up precision on short loops.
#ifndef C2H_IR_DATAFLOW_H
#define C2H_IR_DATAFLOW_H

#include "ir/ir.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace c2h::ir {

// Predecessors of every edge-reachable block, derived from terminators.
inline std::map<const BasicBlock *, std::vector<const BasicBlock *>>
predecessorMap(const Function &fn) {
  std::map<const BasicBlock *, std::vector<const BasicBlock *>> preds;
  for (const auto &block : fn.blocks())
    for (BasicBlock *succ : block->successors())
      preds[succ].push_back(block.get());
  return preds;
}

// Targets of back edges w.r.t. a DFS from the entry — the loop headers,
// where widening must apply for domains with unbounded ascending chains.
// By block id: 1 for a header.
inline std::vector<char> loopHeaders(const Function &fn) {
  std::vector<char> headers(fn.blockIdCount(), 0);
  if (!fn.entry())
    return headers;
  // By block id: 1 while on the DFS stack, 2 once finished.
  std::vector<char> mark(fn.blockIdCount(), 0);
  // Iterative DFS: (block, next successor index).
  std::vector<std::pair<const BasicBlock *, std::size_t>> stack;
  stack.push_back({fn.entry(), 0});
  mark[fn.entry()->id()] = 1;
  while (!stack.empty()) {
    auto &[block, idx] = stack.back();
    Successors succs = block->successors();
    if (idx >= succs.size()) {
      mark[block->id()] = 2;
      stack.pop_back();
      continue;
    }
    const BasicBlock *next = succs[idx++];
    if (mark[next->id()] == 1) {
      headers[next->id()] = 1; // back edge
    } else if (mark[next->id()] == 0) {
      stack.push_back({next, 0});
      mark[next->id()] = 1;
    }
  }
  return headers;
}

// One element of a flattened weak topological order.  A component is its
// head followed by its body; the head's `end` is the index one past the
// component's last element.  A plain block has `head == false`.
struct WtoElement {
  BasicBlock *block = nullptr;
  bool head = false;
  std::size_t end = 0;
};

// Bourdoncle's weak topological order of the blocks reachable from the
// entry.  His construction is Tarjan's SCC algorithm applied recursively:
// the strongly connected components of a graph, in topological order, are
// its elements; a nontrivial one (or a block with a self-edge) becomes a
// component headed by its first-visited block, whose body is the order of
// the component's subgraph with the edges into the head removed.  Here each
// component is a task on a worklist and every DFS keeps its own stack, so
// no recursion grows with block count or loop depth.  Cost: one DFS per
// nesting level, O(blocks x loop depth).
inline std::vector<WtoElement> weakTopologicalOrder(const Function &fn) {
  std::vector<WtoElement> order;
  if (!fn.entry())
    return order;
  constexpr std::uint32_t kNone = ~std::uint32_t(0);
  // Blocks and their successors by block id.
  std::vector<BasicBlock *> blocks(fn.blockIdCount(), nullptr);
  std::vector<std::vector<std::uint32_t>> succs(fn.blockIdCount());
  for (const auto &block : fn.blocks()) {
    blocks[block->id()] = block.get();
    for (BasicBlock *succ : block->successors())
      succs[block->id()].push_back(succ->id());
  }

  // Task 0 orders everything reachable from the entry; task t > 0 orders
  // the body of the component headed by tasks[t].head.  A block belongs to
  // the task in `owner`; a placed block (or a head, within its own body)
  // belongs to none, which hides it from every later DFS.
  struct Task {
    std::uint32_t head = kNone;
    // Elements in DFS completion order, i.e. reversed: (block, subtask or
    // kNone).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> elements;
  };
  std::vector<Task> tasks(1);
  std::vector<std::uint32_t> owner(blocks.size(), 0), dfn(blocks.size(), 0);
  std::vector<std::uint32_t> sccStack;
  struct Frame {
    std::uint32_t block, next, low;
  };
  std::vector<Frame> frames;
  for (std::uint32_t t = 0; t < tasks.size(); ++t) {
    std::uint32_t counter = 0;
    auto enter = [&](std::uint32_t v) {
      dfn[v] = ++counter;
      frames.push_back({v, 0, dfn[v]});
      sccStack.push_back(v);
    };
    std::vector<std::uint32_t> roots =
        t == 0 ? std::vector<std::uint32_t>{fn.entry()->id()}
               : succs[tasks[t].head];
    for (std::uint32_t root : roots) {
      if (owner[root] != t || dfn[root] != 0)
        continue;
      enter(root);
      while (!frames.empty()) {
        Frame &f = frames.back();
        if (f.next < succs[f.block].size()) {
          std::uint32_t w = succs[f.block][f.next++];
          if (owner[w] != t)
            continue; // outside this task, or already placed
          if (dfn[w] == 0)
            enter(w);
          else
            f.low = std::min(f.low, dfn[w]);
          continue;
        }
        std::uint32_t v = f.block, low = f.low;
        frames.pop_back();
        if (!frames.empty())
          frames.back().low = std::min(frames.back().low, low);
        if (low != dfn[v])
          continue;
        // v roots a strongly connected component: place it.
        const auto &out = succs[v];
        bool loop = sccStack.back() != v ||
                    std::find(out.begin(), out.end(), v) != out.end();
        std::uint32_t sub = kNone;
        if (loop) {
          sub = static_cast<std::uint32_t>(tasks.size());
          tasks.push_back({v, {}});
        }
        std::uint32_t member;
        do {
          member = sccStack.back();
          sccStack.pop_back();
          owner[member] = sub;
          dfn[member] = 0;
        } while (member != v);
        owner[v] = kNone;
        tasks[t].elements.push_back({v, sub});
      }
    }
  }

  // Flatten: each task's elements in reverse completion order, a
  // subtask's body right after its head.
  std::vector<std::pair<std::uint32_t, std::size_t>> open{{0, 0}};
  std::vector<std::size_t> headAt(tasks.size(), 0);
  while (!open.empty()) {
    auto [t, i] = open.back();
    const auto &elements = tasks[t].elements;
    if (i == elements.size()) {
      if (t != 0)
        order[headAt[t]].end = order.size();
      open.pop_back();
      continue;
    }
    ++open.back().second;
    auto [v, sub] = elements[elements.size() - 1 - i];
    if (sub == kNone) {
      order.push_back({blocks[v], false, order.size() + 1});
    } else {
      headAt[sub] = order.size();
      order.push_back({blocks[v], true, 0});
      open.push_back({sub, 0});
    }
  }
  return order;
}

// What the solver needs of a function's shape besides its blocks.  It
// depends only on the CFG, so one serves every solve over the function.
struct DataflowOrder {
  std::vector<WtoElement> wto;
  std::vector<char> headers; // loopHeaders(fn)
};

inline DataflowOrder dataflowOrder(const Function &fn) {
  return {weakTopologicalOrder(fn), loopHeaders(fn)};
}

// The out-states of one transfer, by successor edge in
// BasicBlock::successors() order.  The solver clears `feasible` before each
// transfer and keeps the states between transfers, so a transfer that
// overwrites a state in place reuses its storage.
template <class State> struct EdgeStates {
  State state[2];
  bool feasible[2] = {false, false};
};

template <class State> struct DataflowResult {
  // Converged block-entry states by block id.  A block without one was
  // never reached by any feasible edge — dead under the analysis's lattice.
  std::vector<std::optional<State>> in;
  bool converged = false;
  std::uint64_t transfers = 0; // calls of `transfer`

  // The entry state of a reached block; throws for any other.
  const State &at(const BasicBlock *block) const {
    return in.at(block->id()).value();
  }
};

// Forward solver.
//   transfer(block, in, out)     fills `out` (EdgeStates<State>): for each
//                                feasible successor edge, its state, with
//                                `out.feasible[edge]` set; an edge left
//                                infeasible hands its target nothing.
//   join(target, into, from, widen) -> bool: merge `from` into `into`, the
//                                in-state of block `target`, and return
//                                whether `into` changed; apply widening
//                                when `widen` is set.
// The entry block starts from `entryState`; everything else starts unknown.
// Blocks are transferred in weak topological order, and a component is
// iterated again while a transfer inside it changed its head's in-state.
// At most `maxRounds` x (reachable blocks) transfers run, the bound of as
// many full sweeps; `converged` is true iff every component stabilized
// within it.
template <class State, class TransferFn, class JoinFn>
DataflowResult<State>
solveForwardDataflow(const Function &fn, const DataflowOrder &order,
                     State entryState, TransferFn transfer, JoinFn join,
                     unsigned widenAfter = 0, unsigned maxRounds = 0) {
  DataflowResult<State> result;
  if (!fn.entry())
    return result;
  const std::vector<WtoElement> &wto = order.wto;
  if (maxRounds == 0)
    maxRounds =
        widenAfter + static_cast<unsigned>(fn.blocks().size()) + 48;
  const std::uint64_t maxTransfers = std::uint64_t(maxRounds) * wto.size();
  result.in.resize(fn.blockIdCount());
  // By block id: changed joins so far, and whether the in-state changed
  // since the block's last transfer (read for component heads).
  std::vector<unsigned> joins(fn.blockIdCount(), 0);
  std::vector<char> changed(fn.blockIdCount(), 0);
  auto deliver = [&](const BasicBlock &succ, State &state) {
    std::optional<State> &slot = result.in[succ.id()];
    if (!slot) {
      slot.emplace(std::move(state));
    } else {
      // Only joins that actually change the target state count toward
      // the widening budget: a header inside a slowly-converging outer
      // loop receives many no-op deliveries, and counting those would
      // widen values the loop never modifies (losing, say, the outer
      // induction variable's bound inside an inner loop, where no
      // branch refinement can win it back).
      bool widen = widenAfter != 0 && order.headers[succ.id()] &&
                   joins[succ.id()] >= widenAfter;
      if (!join(succ, *slot, state, widen))
        return;
      ++joins[succ.id()];
    }
    changed[succ.id()] = 1;
  };

  result.in[fn.entry()->id()].emplace(std::move(entryState));
  EdgeStates<State> out;
  std::vector<std::size_t> components; // heads of the open components
  std::size_t i = 0;
  while (i < wto.size()) {
    const WtoElement &e = wto[i];
    if (e.head && (components.empty() || components.back() != i))
      components.push_back(i); // entering it, not iterating it again
    if (const std::optional<State> &in = result.in[e.block->id()]) {
      if (result.transfers == maxTransfers)
        return result; // not converged
      ++result.transfers;
      changed[e.block->id()] = 0;
      out.feasible[0] = out.feasible[1] = false;
      transfer(*e.block, *in, out);
      Successors succs = e.block->successors();
      for (std::size_t s = 0; s < succs.size(); ++s)
        if (out.feasible[s])
          deliver(*succs[s], out.state[s]);
    }
    ++i;
    // Close every component that ends here: stable if its head's in-state
    // held still through the pass, otherwise iterate it again.
    while (!components.empty() && wto[components.back()].end == i) {
      std::size_t head = components.back();
      if (changed[wto[head].block->id()]) {
        i = head;
        break;
      }
      components.pop_back();
    }
  }
  result.converged = true;
  return result;
}

} // namespace c2h::ir

#endif // C2H_IR_DATAFLOW_H
