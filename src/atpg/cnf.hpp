// Dual-rail Tseitin encoding of the scan (combinational) view for SAT
// ATPG (docs/atpg.md).
//
// Every signal is encoded as a *rail pair* (is1, is0) of literals so the
// three-valued semantics the rest of the repo computes — conservative
// Kleene logic with X — is captured exactly: X is "both rails false",
// and no reachable assignment sets both rails true.  Binary sources (PIs
// and scanned flip-flop Q outputs) use a single variable per signal
// (is0 = ¬is1), unscanned flip-flops are forced to X with constant-false
// rails.  A SAT model therefore *is* a binary assignment of the scan
// view's free inputs, and an UNSAT proof means no such assignment
// produces a conservative detection — the exact notion of combinational
// untestability used by PODEM, the fault-simulation kernels, and
// the scalar oracle.
//
// The good circuit is encoded once and shared across faults.  Each fault
// adds a guarded faulty cone (fresh rails for the nodes reachable from
// the fault site without crossing flip-flops), a miter over the
// observable points (primary outputs plus the D inputs of scanned
// flip-flops), and an activation constraint; every per-fault clause
// carries the negation of a selector literal so that one solve() under
// the selector assumption targets exactly that fault, and retiring the
// fault with the unit ¬selector permanently satisfies its clauses.
//
// Transition-delay faults use the two-timeframe launch/capture
// construction: frame 1's flip-flop rails are aliased to frame 0's
// next-state (D driver) rails, launch forces the stem to the stale value
// in frame 0 and the opposite value in frame 1, and the faulty copy
// (stem stuck at the stale value) exists only in frame 1, observed at
// frame-1 outputs and captures.  This matches the fault-simulation
// kernels' launch-through-capture semantics frame for frame.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/sat_solver.hpp"
#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"

namespace scanc::atpg {

/// Dual-rail value of one signal: X = neither, never both.
struct Rail {
  SatLit is1 = 0;
  SatLit is0 = 0;
};

class CnfEncoder {
 public:
  /// `scan_mask` follows PodemOptions semantics: empty = full scan.
  CnfEncoder(const netlist::Circuit& circuit, util::Bitset scan_mask,
             SatSolver& solver);

  /// Encodes the shared single-frame good circuit (idempotent).
  void ensure_comb_frame();

  /// Encodes the shared two-frame good circuit for transition-delay
  /// faults (idempotent; implies the single frame).
  void ensure_two_frames();

  /// Adds the guarded faulty cone + miter for a stuck-at fault.  All
  /// emitted clauses carry ¬selector; solve under {selector}.
  void add_stuck_fault(const fault::Fault& fault, SatLit selector);

  /// Adds the guarded two-frame launch/capture encoding for a
  /// transition-delay (stem) fault.
  void add_transition_fault(const fault::Fault& fault, SatLit selector);

  /// Extracts the (state, inputs) test cube from the current model.
  /// Scanned flip-flops and PIs come out binary; unscanned stay X.
  [[nodiscard]] TestCube extract_comb_test() const;

  /// Extracts a two-frame transition test from the current model:
  /// `state` is the frame-0 scan-in, `seq` the two PI frames.
  void extract_transition_test(sim::Vector3& state,
                               sim::Sequence& seq) const;

  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

 private:
  [[nodiscard]] bool scanned(std::size_t ff_index) const {
    return scan_mask_.empty() || scan_mask_.test(ff_index);
  }
  [[nodiscard]] bool lit_model(SatLit l) const {
    return solver_->model_value(lit_var(l)) != lit_sign(l);
  }
  [[nodiscard]] Rail const_rail(bool value) const {
    return value ? Rail{true_lit_, lit_neg(true_lit_)}
                 : Rail{lit_neg(true_lit_), true_lit_};
  }
  [[nodiscard]] Rail binary_source_rail();
  [[nodiscard]] Rail x_rail() const {
    return Rail{lit_neg(true_lit_), lit_neg(true_lit_)};
  }

  // Guarded clause emission: when guard_ is set, every clause gets it
  // appended (guard_ holds ¬selector).
  void emit(std::initializer_list<SatLit> lits);
  void emit_clause(std::vector<SatLit> lits);
  [[nodiscard]] SatLit and_of(std::vector<SatLit> lits);
  [[nodiscard]] SatLit or_of(std::vector<SatLit> lits);
  [[nodiscard]] Rail encode_gate(netlist::GateType type,
                                 const std::vector<Rail>& fanins);

  /// Rails of `node` in good frame `frame` (0 or 1).
  [[nodiscard]] const Rail& good(std::size_t frame,
                                 netlist::NodeId node) const {
    return frames_[frame][node];
  }

  /// Forward closure of the fault site through combinational fanout
  /// (never expanding through flip-flops), in topological order.
  [[nodiscard]] std::vector<netlist::NodeId> faulty_cone(
      netlist::NodeId seed);

  /// Encodes the faulty copy of `cone` in `frame`, seeding the site
  /// with `seed_rail`, and returns the bad rails (index = position in
  /// cone; lookup helper resolves out-of-cone nodes to good rails).
  void encode_faulty_cone(std::size_t frame,
                          const std::vector<netlist::NodeId>& cone,
                          const Rail& seed_rail,
                          std::vector<Rail>& bad_rails);

  /// Appends the detection literals of one observation point — fresh
  /// literals implied by (good=1 ∧ bad=0) and (good=0 ∧ bad=1).
  void add_detect_terms(const Rail& good_rail, const Rail& bad_rail,
                        std::vector<SatLit>& detect);

  /// Miter over frame-`frame` POs and scanned-FF D drivers.  `bad_of`
  /// maps a NodeId to its faulty rail (good rail when out of cone).
  template <typename BadOf>
  void add_miter(std::size_t frame, const fault::Fault& fault,
                 SatLit selector, BadOf&& bad_of);

  const netlist::Circuit* circuit_;
  util::Bitset scan_mask_;
  SatSolver* solver_;
  SatLit true_lit_ = 0;
  SatLit guard_ = -1;  ///< ¬selector while encoding a fault, else -1

  // frames_[f][node] = good rails of node in timeframe f.
  std::vector<std::vector<Rail>> frames_;
  // Scratch: cone membership marks, topological positions for cone
  // ordering, and node-indexed faulty rails (valid where in_cone_).
  std::vector<char> in_cone_;
  std::vector<std::uint32_t> topo_pos_;
  std::vector<Rail> bad_scratch_;
};

}  // namespace scanc::atpg
