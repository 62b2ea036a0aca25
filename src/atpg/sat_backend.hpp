// SAT-based combinational ATPG: the backend that resolves every fault.
//
// Where PODEM aborts on its backtrack budget and leaves a fault's
// testability unknown, the SAT backend either produces a test or an
// UNSAT proof that none exists in the scan view (docs/atpg.md).  It is
// the complete engine behind `--atpg=sat` and the abort-rescue engine
// behind `--atpg=auto`.
//
// The backend owns one incremental CDCL solver (sat_solver.hpp) and one
// dual-rail encoder (cnf.hpp).  The good circuit is encoded once; each
// generate() call adds the fault's guarded clauses, solves under the
// fault's selector assumption, and retires the selector, so consecutive
// faults share both the circuit clauses and everything the solver
// learned about them.  The accumulated per-fault clauses are garbage
// once retired; when the variable count crosses `rebuild_vars` the
// solver is rebuilt from scratch to bound memory.
//
// Results reuse PodemStatus: Detected (model extracted as a test),
// Untestable (UNSAT — a proof, not a budget), Aborted (conflict limit
// or cancellation; testability still unknown).
#pragma once

#include <cstdint>
#include <memory>

#include "atpg/cnf.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat_solver.hpp"
#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::atpg {

/// Which engine generates tests (and how aborts are handled).
enum class AtpgBackend : std::uint8_t {
  Podem,  ///< PODEM only; aborts stay unresolved
  Sat,    ///< SAT only: every fault resolved (test or proof)
  Auto,   ///< PODEM first, SAT retries each Aborted fault
};

[[nodiscard]] const char* to_string(AtpgBackend b) noexcept;

/// Options for the SAT backend.
struct SatBackendOptions {
  /// Per-fault conflict budget before giving up with Aborted.
  /// 0 = unbounded (the backend is then complete).
  std::uint64_t conflict_limit = 100000;
  /// Partial scan, PodemOptions semantics: empty = full scan.
  util::Bitset scan_mask;
  /// Cooperative cancellation, polled inside the solver decision loop.
  util::CancelToken cancel;
  /// Rebuild the solver once it holds this many variables (retired
  /// per-fault clauses are dead weight).  0 = never rebuild.
  std::size_t rebuild_vars = 2000000;
};

/// Cumulative backend statistics.
struct SatBackendStats {
  std::uint64_t solve_calls = 0;
  std::uint64_t tests = 0;      ///< Detected results
  std::uint64_t proofs = 0;     ///< Untestable results (UNSAT)
  std::uint64_t aborted = 0;    ///< Aborted results (budget/cancel)
  std::uint64_t conflicts = 0;  ///< CDCL conflicts, all solves
  std::uint64_t rebuilds = 0;   ///< solver reconstructions
};

/// A two-frame transition-delay test: scan-in state, then the launch
/// and capture primary-input vectors.
struct TransitionTest {
  PodemStatus status = PodemStatus::Aborted;
  sim::Vector3 state;  ///< frame-0 scan-in (flip_flops() order)
  sim::Sequence seq;   ///< two PI frames (launch, capture)
};

class SatBackend {
 public:
  explicit SatBackend(const netlist::Circuit& circuit,
                      SatBackendOptions options = {});
  ~SatBackend();
  SatBackend(SatBackend&&) noexcept;
  SatBackend& operator=(SatBackend&&) noexcept;

  /// Stuck-at test generation in the single-frame scan view.  The
  /// returned cube is fully specified on the assignable inputs.
  [[nodiscard]] PodemResult generate(const fault::Fault& fault);

  /// Transition-delay test generation in the two-frame view.
  [[nodiscard]] TransitionTest generate_transition(
      const fault::Fault& fault);

  [[nodiscard]] const SatBackendStats& stats() const noexcept {
    return stats_;
  }

 private:
  void ensure_solver();
  [[nodiscard]] SatResult solve_fault(SatLit selector);

  const netlist::Circuit* circuit_;
  SatBackendOptions options_;
  std::unique_ptr<SatSolver> solver_;
  std::unique_ptr<CnfEncoder> encoder_;
  SatBackendStats stats_;
};

}  // namespace scanc::atpg
