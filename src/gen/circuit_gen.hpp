// Synthetic sequential benchmark-circuit generator.
//
// The original ISCAS-89 / ITC-99 netlists cannot be shipped with this
// repository, so experiments run on deterministic synthetic circuits
// matched to each benchmark's published interface statistics (see
// gen/suite.hpp and DESIGN.md §4).  The generator aims for the structural
// properties the DAC-2001 procedure exercises:
//
//   - a random levelized combinational DAG with fanin 1..4, a realistic
//     gate-type mix, and fanout created by preferring so-far-unused
//     signals when picking fanins;
//   - flip-flops whose next-state logic mixes feedback with
//     PI-controlled load multiplexers, so that circuits are initializable
//     from the all-X state by input sequences alone (as the real
//     benchmarks are) while still having state depth that makes scan-in
//     selection profitable;
//   - every internal signal observable through some path: dangling
//     signals are folded into a parity tree driving the last primary
//     output.
//
// Generation is fully deterministic in (params, seed).
#pragma once

#include <cstdint>
#include <string>

#include "netlist/circuit.hpp"

namespace scanc::gen {

/// Generator parameters.
struct GenParams {
  std::string name = "synth";
  std::size_t num_inputs = 4;
  std::size_t num_outputs = 4;
  std::size_t num_flip_flops = 8;
  /// Approximate number of combinational gates (the FF support logic and
  /// the observability tree are included in the budget; the final count
  /// lands within a few percent of this for realistic sizes).
  std::size_t num_gates = 100;
  std::uint64_t seed = 1;
  /// Fraction of flip-flops whose next-state is a PI-controlled load
  /// multiplexer (easy to initialize).  The remainder get plain feedback
  /// logic (harder to control without scan).
  double pi_mux_fraction = 0.7;
};

/// Generates a circuit.  Throws std::invalid_argument on degenerate
/// parameters (no inputs or no outputs).
[[nodiscard]] netlist::Circuit generate_circuit(const GenParams& params);

/// A row of `tiles` independent 500-gate blocks (24 flip-flops, 4
/// outputs each) sharing only a 16-input primary-input bus: the locality
/// profile of a large scan design, where a fault group's union cone is a
/// small slice of the chip.  (The plain generator wires globally: any
/// 63-fault union cone closes over ~85% of its gates.)  The kernel
/// microbenchmarks and the Auto kernel-choice tests run on it.
[[nodiscard]] netlist::Circuit tiled_circuit(std::size_t tiles);

}  // namespace scanc::gen
