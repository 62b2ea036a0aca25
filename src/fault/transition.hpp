// Transition (gross-delay) fault model — the defect type the paper's
// at-speed argument is about.
//
// A slow-to-rise (STR) fault at a line delays its 0->1 transition past
// one clock period; slow-to-fall (STF) dually.  Under functional
// at-speed application, the fault is detected by two *consecutive*
// vectors of a test's PI sequence: the first (launch) sets the line to
// its initial value, the second (capture) would transition it, and the
// line's stale value must reach an observation point in the capture
// cycle — i.e. the corresponding stuck-at effect is observed at a
// primary output in that cycle, or at the scan-out when the capture
// cycle is the test's last.
//
// The key structural consequence, and the reason the paper's long
// functional sequences matter: a scan test whose sequence has length one
// has no launch cycle and can detect *no* transition fault functionally.
//
// Faults are modeled at stems (one STR + one STF per signal), the
// standard transition-fault universe.
#pragma once

#include "fault/fault_sim.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"

namespace scanc::fault {

/// Transition-fault index: node * 2 + (slow_to_fall ? 1 : 0).
[[nodiscard]] constexpr std::size_t transition_fault_index(
    netlist::NodeId node, bool slow_to_fall) noexcept {
  return static_cast<std::size_t>(node) * 2 + (slow_to_fall ? 1 : 0);
}

/// Number of transition faults of a circuit (2 per signal).
[[nodiscard]] inline std::size_t num_transition_faults(
    const netlist::Circuit& c) noexcept {
  return c.num_nodes() * 2;
}

/// Transition-fault simulator: computes, per scan test, the set of
/// transition faults it detects under launch-on-capture functional
/// application (see the header comment for the detection condition).
class TransitionFaultSim {
 public:
  explicit TransitionFaultSim(const netlist::Circuit& circuit);

  /// Faults detected by one scan test (SI, T); indices per
  /// transition_fault_index.  A length-one sequence detects nothing.
  [[nodiscard]] util::Bitset detect(const sim::Vector3& scan_in,
                                    const sim::Sequence& seq);

  /// Union over a set of scan tests.
  [[nodiscard]] util::Bitset coverage(
      std::span<const sim::Vector3> scan_ins,
      std::span<const sim::Sequence> seqs);

  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

 private:
  const netlist::Circuit* circuit_;
  sim::PackedSeqSim sim_;
  sim::InjectionMap injections_;
  std::vector<sim::V3> prev_good_;  // per node, previous-frame good value
};

}  // namespace scanc::fault
