#include "atpg/podem.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/packed.hpp"
#include "util/telemetry.hpp"

namespace scanc::atpg {

using fault::Fault;
using netlist::Circuit;
using netlist::GateType;
using netlist::Node;
using netlist::NodeId;
using sim::V3;

namespace {

constexpr std::uint32_t kCcMax = 1u << 24;

std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) {
  return std::min(kCcMax, a + b);
}

bool has_effect(V3 good, V3 bad) {
  return sim::is_binary(good) && sim::is_binary(bad) && good != bad;
}

bool x_ish(V3 good, V3 bad) { return good == V3::X || bad == V3::X; }

}  // namespace

Podem::Podem(const Circuit& circuit, PodemOptions options)
    : circuit_(&circuit),
      options_(options),
      good_(circuit.num_nodes(), V3::X),
      bad_(circuit.num_nodes(), V3::X),
      assign_(circuit.num_nodes(), V3::X),
      cc0_(circuit.num_nodes(), 1),
      cc1_(circuit.num_nodes(), 1),
      x_reach_(circuit.num_nodes(), 0),
      queued_(circuit.num_nodes(), 0),
      in_cone_(circuit.num_nodes(), 0),
      topo_pos_(circuit.num_nodes(), 0),
      assignable_(circuit.num_nodes(), 0),
      observation_(circuit.num_nodes(), 0),
      ff_index_(circuit.num_nodes(), 0),
      observable_ff_(circuit.num_flip_flops(), 1),
      buckets_(circuit.depth() + 1) {
  const auto ffs = circuit.flip_flops();
  const auto order = circuit.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[order[i]] = static_cast<std::uint32_t>(i);
  }
  inputs_.reserve(circuit.num_inputs() + ffs.size());
  for (const NodeId id : circuit.primary_inputs()) {
    inputs_.push_back(id);
    assignable_[id] = 1;
  }
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    const bool scanned =
        options_.scan_mask.empty() || options_.scan_mask.test(i);
    observable_ff_[i] = scanned ? 1 : 0;
    ff_index_[ffs[i]] = static_cast<std::uint32_t>(i);
    if (scanned) {
      inputs_.push_back(ffs[i]);
      assignable_[ffs[i]] = 1;
      observation_[circuit.node(ffs[i]).fanins[0]] = 1;
    }
  }
  for (const NodeId po : circuit.primary_outputs()) observation_[po] = 1;
  // Steer backtrace away from unscanned flip-flops: they can never be
  // justified.
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (!observable_ff_[i]) {
      cc0_[ffs[i]] = kCcMax;
      cc1_[ffs[i]] = kCcMax;
    }
  }
  compute_controllability();
}

void Podem::compute_controllability() {
  for (const NodeId id : circuit_->topo_order()) {
    const Node& n = circuit_->node(id);
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    switch (n.type) {
      case GateType::Buf:
        c0 = cc0_[n.fanins[0]];
        c1 = cc1_[n.fanins[0]];
        break;
      case GateType::Not:
        c0 = cc1_[n.fanins[0]];
        c1 = cc0_[n.fanins[0]];
        break;
      case GateType::And:
      case GateType::Nand: {
        std::uint32_t all1 = 0;
        std::uint32_t any0 = kCcMax;
        for (const NodeId f : n.fanins) {
          all1 = sat_add(all1, cc1_[f]);
          any0 = std::min(any0, cc0_[f]);
        }
        c0 = (n.type == GateType::And) ? any0 : all1;
        c1 = (n.type == GateType::And) ? all1 : any0;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        std::uint32_t all0 = 0;
        std::uint32_t any1 = kCcMax;
        for (const NodeId f : n.fanins) {
          all0 = sat_add(all0, cc0_[f]);
          any1 = std::min(any1, cc1_[f]);
        }
        c0 = (n.type == GateType::Or) ? all0 : any1;
        c1 = (n.type == GateType::Or) ? any1 : all0;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Fold pairwise: cost of even / odd parity over the fanins.
        std::uint32_t even = 0;
        std::uint32_t odd = kCcMax;
        for (const NodeId f : n.fanins) {
          const std::uint32_t e =
              std::min(sat_add(even, cc0_[f]), sat_add(odd, cc1_[f]));
          const std::uint32_t o =
              std::min(sat_add(even, cc1_[f]), sat_add(odd, cc0_[f]));
          even = e;
          odd = o;
        }
        c0 = (n.type == GateType::Xor) ? even : odd;
        c1 = (n.type == GateType::Xor) ? odd : even;
        break;
      }
      default:
        continue;
    }
    cc0_[id] = sat_add(c0, 1);
    cc1_[id] = sat_add(c1, 1);
  }
}

std::pair<V3, V3> Podem::eval_node(const Node& n, NodeId id,
                                   const Fault& fault) const {
  const bool fault_here = fault.node == id;
  const V3 stuck = fault.value ? V3::One : V3::Zero;
  const auto bad_in = [&](std::size_t p) -> V3 {
    if (fault_here && fault.pin == static_cast<std::int32_t>(p)) {
      return stuck;
    }
    return bad_[n.fanins[p]];
  };

  V3 g;
  V3 b;
  switch (n.type) {
    case GateType::Buf:
    case GateType::Not:
      g = good_[n.fanins[0]];
      b = bad_in(0);
      if (n.type == GateType::Not) {
        g = v3_not(g);
        b = v3_not(b);
      }
      break;
    case GateType::And:
    case GateType::Nand: {
      g = good_[n.fanins[0]];
      b = bad_in(0);
      for (std::size_t p = 1; p < n.fanins.size(); ++p) {
        g = v3_and(g, good_[n.fanins[p]]);
        b = v3_and(b, bad_in(p));
      }
      if (n.type == GateType::Nand) {
        g = v3_not(g);
        b = v3_not(b);
      }
      break;
    }
    case GateType::Or:
    case GateType::Nor: {
      g = good_[n.fanins[0]];
      b = bad_in(0);
      for (std::size_t p = 1; p < n.fanins.size(); ++p) {
        g = v3_or(g, good_[n.fanins[p]]);
        b = v3_or(b, bad_in(p));
      }
      if (n.type == GateType::Nor) {
        g = v3_not(g);
        b = v3_not(b);
      }
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      g = good_[n.fanins[0]];
      b = bad_in(0);
      for (std::size_t p = 1; p < n.fanins.size(); ++p) {
        g = v3_xor(g, good_[n.fanins[p]]);
        b = v3_xor(b, bad_in(p));
      }
      if (n.type == GateType::Xnor) {
        g = v3_not(g);
        b = v3_not(b);
      }
      break;
    }
    default:
      g = V3::X;
      b = V3::X;
      break;
  }
  if (fault_here && fault.pin == sim::kStemPin) b = stuck;
  return {g, b};
}

void Podem::imply(const Fault& fault) {
  const bool stem = fault.pin == sim::kStemPin;
  const V3 stuck = fault.value ? V3::One : V3::Zero;

  for (NodeId id = 0; id < circuit_->num_nodes(); ++id) {
    const GateType t = circuit_->node(id).type;
    if (t == GateType::Input || t == GateType::Dff) {
      good_[id] = assign_[id];
      bad_[id] = assign_[id];
    } else if (t == GateType::Const0) {
      good_[id] = V3::Zero;
      bad_[id] = V3::Zero;
    } else if (t == GateType::Const1) {
      good_[id] = V3::One;
      bad_[id] = V3::One;
    } else {
      continue;
    }
    if (stem && fault.node == id) bad_[id] = stuck;
  }

  for (const NodeId id : circuit_->topo_order()) {
    const auto [g, b] = eval_node(circuit_->node(id), id, fault);
    good_[id] = g;
    bad_[id] = b;
  }
  gate_evals_ += circuit_->topo_order().size();
}

void Podem::propagate(NodeId changed_input, const Fault& fault) {
  // Event-driven re-implication: a level-bucketed queue seeded with the
  // changed input's fanouts.  Gates are evaluated in ascending level, so
  // every fanin is final when a gate is evaluated, and only a gate whose
  // value changed schedules its own fanouts.  The fixpoint equals a full
  // re-simulation: a gate that is never queued has no changed fanin.
  ++epoch_;
  good_[changed_input] = assign_[changed_input];
  bad_[changed_input] = assign_[changed_input];
  if (fault.pin == sim::kStemPin && fault.node == changed_input) {
    bad_[changed_input] = fault.value ? V3::One : V3::Zero;
  }

  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  const auto schedule_fanouts = [&](NodeId id) {
    for (const NodeId out : circuit_->node(id).fanouts) {
      const Node& n = circuit_->node(out);
      if (!netlist::is_combinational(n.type) || queued_[out] == epoch_) {
        continue;
      }
      queued_[out] = epoch_;
      buckets_[n.level].push_back(out);
      lo = std::min(lo, n.level);
      hi = std::max(hi, n.level);
    }
  };
  schedule_fanouts(changed_input);
  for (std::uint32_t level = lo; level <= hi; ++level) {
    // Scheduling only ever targets deeper levels, so this bucket is
    // complete and `hi` may still grow while it is drained.
    std::vector<NodeId>& bucket = buckets_[level];
    for (const NodeId id : bucket) {
      const auto [g, b] = eval_node(circuit_->node(id), id, fault);
      if (g != good_[id] || b != bad_[id]) {
        good_[id] = g;
        bad_[id] = b;
        schedule_fanouts(id);
      }
    }
    gate_evals_ += bucket.size();
    bucket.clear();
  }
}

void Podem::build_cone(const Fault& fault) {
  // Fault effects (good != bad) can only appear on the fault site and its
  // combinational fanout: every other node computes the same function of
  // the same fanin values in both machines.  A flip-flop ends the cone —
  // its Q is an assignment, its D line an observation point.
  ++cone_epoch_;
  cone_.clear();
  cone_pos_.clear();
  cone_ffs_.clear();
  in_cone_[fault.node] = cone_epoch_;
  cone_.push_back(fault.node);
  for (std::size_t head = 0; head < cone_.size(); ++head) {
    for (const NodeId out : circuit_->node(cone_[head]).fanouts) {
      if (in_cone_[out] == cone_epoch_ ||
          !netlist::is_combinational(circuit_->node(out).type)) {
        continue;
      }
      in_cone_[out] = cone_epoch_;
      cone_.push_back(out);
    }
  }
  // Observation points the cone can reach: its primary outputs, and the
  // observable flip-flops whose D line it drives (or whose D pin is the
  // fault site itself).
  for (const NodeId id : cone_) {
    if (circuit_->is_primary_output(id)) cone_pos_.push_back(id);
    for (const NodeId out : circuit_->node(id).fanouts) {
      if (circuit_->node(out).type == GateType::Dff &&
          observable_ff_[ff_index_[out]]) {
        cone_ffs_.push_back(out);
      }
    }
  }
  if (circuit_->node(fault.node).type == GateType::Dff && fault.pin == 0 &&
      observable_ff_[ff_index_[fault.node]]) {
    cone_ffs_.push_back(fault.node);
  }
  // The scans below walk the cone's gates in topological order — the
  // whole-circuit order restricted to the cone — so the D-frontier they
  // collect is element-for-element the one a whole-circuit scan finds.
  if (!netlist::is_combinational(circuit_->node(fault.node).type)) {
    cone_.erase(cone_.begin());  // a source site is not a gate
  }
  std::sort(cone_.begin(), cone_.end(), [&](NodeId a, NodeId b) {
    return topo_pos_[a] < topo_pos_[b];
  });
}

bool Podem::fault_effect_observed(const Fault& fault) const {
  for (const NodeId po : cone_pos_) {
    if (has_effect(good_[po], bad_[po])) return true;
  }
  for (const NodeId ff : cone_ffs_) {
    const NodeId d = circuit_->node(ff).fanins[0];
    V3 b = bad_[d];
    if (fault.node == ff && fault.pin == 0) {
      b = fault.value ? V3::One : V3::Zero;
    }
    if (has_effect(good_[d], b)) return true;
  }
  return false;
}

bool Podem::effect_on_input(NodeId id, const Fault& fault) const {
  const Node& n = circuit_->node(id);
  for (std::size_t p = 0; p < n.fanins.size(); ++p) {
    V3 b = bad_[n.fanins[p]];
    if (fault.node == id && fault.pin == static_cast<std::int32_t>(p)) {
      b = fault.value ? V3::One : V3::Zero;
    }
    if (has_effect(good_[n.fanins[p]], b)) return true;
  }
  return false;
}

bool Podem::x_path_exists(const Fault& fault) {
  // x_reach_[id] = 1 when id is X-ish and some X-ish path leads from it to
  // an observation point (PO or an observable flip-flop D line).  Only
  // cone gates can carry a fault effect on an input, and every
  // combinational fanout of a cone gate is itself in the cone, so a
  // reverse-topological pass over the cone decides every value the check
  // reads.  A flip-flop fanout is a source: it is reachable only by its
  // own base mark (a flip-flop that is a PO or another D line).
  const auto base = [&](NodeId id) {
    return observation_[id] != 0 && x_ish(good_[id], bad_[id]);
  };
  for (auto it = cone_.rbegin(); it != cone_.rend(); ++it) {
    const NodeId id = *it;
    char reach = 0;
    if (x_ish(good_[id], bad_[id])) {
      reach = observation_[id];
      for (const NodeId out : circuit_->node(id).fanouts) {
        if (reach) break;
        reach = netlist::is_combinational(circuit_->node(out).type)
                    ? x_reach_[out]
                    : static_cast<char>(base(out));
      }
    }
    x_reach_[id] = reach;
  }
  // Some gate with a fault effect on an input must have an X-path onward.
  for (const NodeId id : cone_) {
    if (x_reach_[id] && effect_on_input(id, fault)) return true;
  }
  return false;
}

std::optional<std::pair<NodeId, bool>> Podem::objective(const Fault& fault) {
  // Activation: the good value at the fault site must oppose the stuck
  // value.  For branch faults, the site value is the driving stem's.
  const NodeId site = fault.pin == sim::kStemPin
                          ? fault.node
                          : circuit_->node(fault.node).fanins[fault.pin];
  const V3 site_good = good_[site];
  const V3 want = fault.value ? V3::Zero : V3::One;
  if (site_good == V3::X) return std::make_pair(site, want == V3::One);
  if (site_good != want) return std::nullopt;  // conflict: cannot excite

  // Fault is excited; require a potential propagation path.  (Ternary
  // simulation is monotone, so once every path from every fault effect to
  // an observation point is blocked by a determined-equal node, no
  // further assignment can create a detection: pruning here is sound.)
  if (!x_path_exists(fault)) return std::nullopt;

  // D-frontier: gates with a fault effect on an input and an X-ish
  // output.  Try the deepest first (closest to the outputs) and take the
  // first gate offering an unassigned (X) input to drive.
  frontier_.clear();
  for (const NodeId id : cone_) {
    if (x_ish(good_[id], bad_[id]) && effect_on_input(id, fault)) {
      frontier_.push_back(id);
    }
  }
  std::sort(frontier_.begin(), frontier_.end(), [&](NodeId a, NodeId b) {
    return circuit_->node(a).level > circuit_->node(b).level;
  });
  for (const NodeId id : frontier_) {
    const Node& n = circuit_->node(id);
    for (const NodeId f : n.fanins) {
      if (good_[f] != V3::X) continue;
      const bool value = netlist::has_controlling_value(n.type)
                             ? !netlist::controlling_value(n.type)
                             : false;  // XOR-family: any binary value
      return std::make_pair(f, value);
    }
  }

  // No frontier gate is directly drivable, but an X-path remains: the
  // blockage sits in the faulty-value cone (good values binary, bad still
  // X).  Keep the search complete by assigning any unassigned input —
  // backtracking explores both values.
  for (const NodeId in : inputs_) {
    if (assign_[in] == V3::X) return std::make_pair(in, false);
  }
  return std::nullopt;
}

std::optional<std::pair<NodeId, bool>> Podem::backtrace(NodeId node,
                                                        bool value) const {
  for (;;) {
    const Node& n = circuit_->node(node);
    if (n.type == GateType::Input || n.type == GateType::Dff) {
      // Unscanned flip-flops are not decision variables.
      return (assignable_[node] && assign_[node] == V3::X)
                 ? std::make_optional(std::make_pair(node, value))
                 : std::nullopt;
    }
    if (n.type == GateType::Const0 || n.type == GateType::Const1) {
      return std::nullopt;  // constants cannot be driven
    }
    switch (n.type) {
      case GateType::Buf:
        node = n.fanins[0];
        break;
      case GateType::Not:
        node = n.fanins[0];
        value = !value;
        break;
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        const bool inner = netlist::is_inverting(n.type) ? !value : value;
        const bool ctrl = netlist::controlling_value(n.type);  // 0 AND, 1 OR
        // inner == !ctrl: all inputs must be !ctrl -> pick the hardest X
        // input; inner == ctrl: one input suffices -> pick the easiest.
        const bool need = inner;
        NodeId pick = netlist::kNoNode;
        std::uint32_t pick_cost = 0;
        const bool want_hardest = (inner != ctrl);
        for (const NodeId f : n.fanins) {
          if (good_[f] != V3::X) continue;
          const std::uint32_t cost = need ? cc1_[f] : cc0_[f];
          if (pick == netlist::kNoNode ||
              (want_hardest ? cost > pick_cost : cost < pick_cost)) {
            pick = f;
            pick_cost = cost;
          }
        }
        if (pick == netlist::kNoNode) return std::nullopt;
        node = pick;
        value = need;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Choose an X input.  With every other input binary the gate
        // computes out = parity ^ in (inversion folded into parity), so
        // the required input is out ^ parity; otherwise any value works.
        NodeId pick = netlist::kNoNode;
        bool others_binary = true;
        bool parity = (n.type == GateType::Xnor);
        for (const NodeId f : n.fanins) {
          if (good_[f] == V3::X) {
            if (pick == netlist::kNoNode) {
              pick = f;
            } else {
              others_binary = false;
            }
          } else {
            parity ^= (good_[f] == V3::One);
          }
        }
        if (pick == netlist::kNoNode) return std::nullopt;
        node = pick;
        value = others_binary ? (value != parity) : false;
        break;
      }
      default:
        return std::nullopt;
    }
  }
}

PodemResult Podem::generate(const Fault& fault) {
  gate_evals_ = 0;
  build_cone(fault);
  PodemResult result = search(fault);
  obs::add(obs::Counter::AtpgPodemCalls);
  obs::add(obs::Counter::AtpgPodemBacktracks, result.backtracks);
  obs::add(obs::Counter::AtpgPodemGateEvals, gate_evals_);
  if (result.status == PodemStatus::Aborted) {
    obs::add(obs::Counter::AtpgPodemAborts);
  }
  return result;
}

PodemResult Podem::search(const Fault& fault) {
  struct Decision {
    NodeId input;
    bool value;
    bool flipped;
  };

  std::fill(assign_.begin(), assign_.end(), V3::X);
  std::vector<Decision> decisions;
  PodemResult result;
  imply(fault);

  for (;;) {
    if (fault_effect_observed(fault)) {
      result.status = PodemStatus::Detected;
      result.cube.inputs.clear();
      result.cube.state.clear();
      for (const NodeId id : circuit_->primary_inputs()) {
        result.cube.inputs.push_back(assign_[id]);
      }
      for (const NodeId id : circuit_->flip_flops()) {
        result.cube.state.push_back(assign_[id]);
      }
      return result;
    }

    bool need_backtrack = true;
    if (const auto obj = objective(fault)) {
      auto bt = backtrace(obj->first, obj->second);
      if (!bt) {
        // Backtrace dead-ended on an unassignable X source (an
        // unscanned flip-flop; only possible under partial scan).
        // That is a heuristic failure, not a proof — declaring the
        // branch exhausted here made PODEM report Untestable for
        // detectable faults.  Stay complete: decide any unassigned
        // input and let backtracking explore both values.
        for (const NodeId in : inputs_) {
          if (assign_[in] == V3::X) {
            bt = std::make_pair(in, false);
            break;
          }
        }
      }
      if (bt) {
        decisions.push_back(Decision{bt->first, bt->second, false});
        assign_[bt->first] = sim::v3_from_bool(bt->second);
        propagate(bt->first, fault);
        need_backtrack = false;
      }
    }
    if (!need_backtrack) continue;

    // Backtrack: undo fully-explored decisions, flip the newest untried.
    while (!decisions.empty() && decisions.back().flipped) {
      assign_[decisions.back().input] = V3::X;
      propagate(decisions.back().input, fault);
      decisions.pop_back();
    }
    if (decisions.empty()) {
      result.status = PodemStatus::Untestable;
      return result;
    }
    if (++result.backtracks > options_.backtrack_limit) {
      result.status = PodemStatus::Aborted;
      return result;
    }
    Decision& d = decisions.back();
    d.flipped = true;
    d.value = !d.value;
    assign_[d.input] = sim::v3_from_bool(d.value);
    propagate(d.input, fault);
  }
}

}  // namespace scanc::atpg
