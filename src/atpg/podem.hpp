// PODEM combinational ATPG over the full-scan view of a circuit.
//
// The scan (combinational) view treats primary inputs and flip-flop Q
// outputs as assignable inputs, and primary outputs and flip-flop D
// capture lines as observation points.  A generated test is a cube over
// (state, inputs); applied as the scan test (SI, <t>) of length one it
// detects the target fault.
//
// Values are pairs (good, bad) of three-valued logic — the classic
// 5-valued D-calculus {0, 1, X, D, D'} plus the partially-specified
// combinations that arise naturally with X inputs.
//
// The search is standard PODEM: excite the fault, backtrace objectives to
// an input assignment, imply by forward simulation, track the D-frontier
// with an X-path check, and backtrack on conflicts.  A backtrack limit
// bounds the search; exhausting the search space without hitting the
// limit proves the fault combinationally untestable.
//
// Per decision the work is proportional to what can change: implication
// is event-driven from the decided input (a level-bucketed queue), and
// the X-path check and D-frontier scan walk only the target fault's
// combinational fanout cone, computed once per generate() call.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"

namespace scanc::atpg {

/// Outcome of one PODEM run.
enum class PodemStatus : std::uint8_t {
  Detected,    ///< test cube found
  Untestable,  ///< search space exhausted: no test exists (in the scan view)
  Aborted,     ///< backtrack limit hit; testability unresolved
};

/// A test cube over the scan view: values may contain X (unspecified).
struct TestCube {
  sim::Vector3 state;   ///< flip-flop scan-in part (flip_flops() order)
  sim::Vector3 inputs;  ///< primary-input part (primary_inputs() order)
};

/// PODEM result.
struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  TestCube cube;          ///< valid iff status == Detected
  std::uint32_t backtracks = 0;
};

/// PODEM options.
struct PodemOptions {
  std::uint32_t backtrack_limit = 2000;
  /// Partial scan: which flip-flops (flip_flops() order) are scannable.
  /// Empty means full scan.  Unscanned flip-flops are neither assignable
  /// (their Q stays X) nor observable at their D line.
  util::Bitset scan_mask;
};

/// Combinational test generator for single stuck-at faults.
class Podem {
 public:
  explicit Podem(const netlist::Circuit& circuit,
                 PodemOptions options = {});

  /// Attempts to generate a test cube for `fault`.  Publishes the
  /// atpg_podem_* telemetry counters (docs/observability.md).
  [[nodiscard]] PodemResult generate(const fault::Fault& fault);

 private:
  // Scratch state lives in the class to avoid per-call allocation.
  const netlist::Circuit* circuit_;
  PodemOptions options_;

  // Per-node 5-valued state (good, bad), assignments and controllability.
  std::vector<sim::V3> good_;
  std::vector<sim::V3> bad_;
  std::vector<sim::V3> assign_;       // per assignable input node id
  std::vector<netlist::NodeId> inputs_;  // PIs then scanned FF Q nodes
  std::vector<std::uint32_t> cc0_;    // SCOAP-like controllability to 0
  std::vector<std::uint32_t> cc1_;    // SCOAP-like controllability to 1
  std::vector<char> x_reach_;         // X-path reachability (cone gates)
  std::vector<std::uint32_t> queued_;   // epoch marks: scheduled by imply
  std::vector<std::uint32_t> in_cone_;  // cone_epoch_ marks: in the cone
  std::vector<std::uint32_t> topo_pos_;  // per gate: index in topo_order()
  std::vector<char> assignable_;      // per node: PI or scanned FF
  std::vector<char> observation_;     // per node: PO or observed D line
  std::vector<std::uint32_t> ff_index_;  // per FF node: flip_flops() index
  std::vector<char> observable_ff_;   // per FF index: D line observed
  std::vector<std::vector<netlist::NodeId>> buckets_;  // per level queue
  std::uint32_t epoch_ = 0;
  std::uint32_t cone_epoch_ = 0;

  // The target fault's combinational fanout cone (gates, topological
  // order) and the observation points it reaches; set by build_cone().
  std::vector<netlist::NodeId> cone_;
  std::vector<netlist::NodeId> cone_pos_;  // primary outputs in the cone
  std::vector<netlist::NodeId> cone_ffs_;  // observable FFs it feeds
  std::vector<netlist::NodeId> frontier_;  // D-frontier scratch
  std::uint64_t gate_evals_ = 0;           // per generate() call

  void compute_controllability();
  void build_cone(const fault::Fault& fault);
  [[nodiscard]] PodemResult search(const fault::Fault& fault);
  void imply(const fault::Fault& fault);
  void propagate(netlist::NodeId changed_input, const fault::Fault& fault);
  [[nodiscard]] bool effect_on_input(netlist::NodeId id,
                                     const fault::Fault& fault) const;
  [[nodiscard]] std::pair<sim::V3, sim::V3> eval_node(
      const netlist::Node& n, netlist::NodeId id,
      const fault::Fault& fault) const;
  [[nodiscard]] bool fault_effect_observed(const fault::Fault& fault) const;
  [[nodiscard]] bool x_path_exists(const fault::Fault& fault);
  [[nodiscard]] std::optional<std::pair<netlist::NodeId, bool>> objective(
      const fault::Fault& fault);
  [[nodiscard]] std::optional<std::pair<netlist::NodeId, bool>> backtrace(
      netlist::NodeId node, bool value) const;
};

}  // namespace scanc::atpg
