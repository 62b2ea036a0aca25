// Worker-local parallel-fault simulation engine.
//
// A GroupWorker owns everything one pass over a group of <= 63 collapsed
// fault classes mutates — the PackedSeqSim, the InjectionMap, the cone
// kernel and the scan-mask scratch — and borrows only const
// circuit/fault data.  Any number of workers can therefore simulate
// disjoint fault groups concurrently over the same circuit; the
// execution layer (fault/group_exec.hpp) hands each executing thread its
// own worker.
//
// The per-group passes map one-to-one onto the FaultSimulator queries
// built on top of them:
//   run_detect      -> detect_no_scan / detect_scan_test / detects_all
//   run_times       -> detection_times
//   run_prefix      -> prefix_detection
//   run_consistency -> consistent_faults
// Each pass is a pure function of (const inputs, group): it fully
// re-initialises the owned state, so results never depend on what the
// worker ran before.
//
// All four passes run one frame loop (frame_loop in group_worker.cpp),
// chosen once per pass from three policies:
//   engine      full (PackedSeqSim over every gate) or cone (ConeSim
//               over the group's fanout cone, out-of-cone values seeded
//               from the fault-free trace) — KernelChoice::cone;
//   activation  persistent (stuck-at: every fault injected in every
//               frame, state carried across frames) or launch-gated
//               (FaultModel::frame_gated(), below);
//   observer    what the pass records: detection mask, detection times,
//               prefix coverage or response mismatches.
// Every pairing gives bit-identical results; the engine only decides how
// much of the circuit a frame evaluates.
//
// Launch gating (transition-delay faults): fault j is *active* in frame
// t >= 1 iff the fault-free value of its stem was the stale value in
// frame t-1 and the opposite binary value in frame t.  Frames with no
// active fault are skipped whole (Counter::TdfFramesSkipped).  An active
// frame is simulated from the fault-free state entering it, with the
// active stems stuck at their stale values; effects never persist across
// frames, and scan-out observes a fault only when the test's final frame
// is active.  The fault-free trace is the activation oracle, so gated
// passes need KernelChoice::trace whatever the engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/batch_engine.hpp"
#include "fault/fault_list.hpp"
#include "netlist/circuit.hpp"
#include "sim/cone_kernel.hpp"
#include "sim/node_trace.hpp"
#include "sim/seq_sim.hpp"
#include "sim/simd.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// Fault slots occupied by a group of size n: bits 1..n (slot 0 is the
/// fault-free reference machine).
[[nodiscard]] constexpr std::uint64_t group_slot_mask(std::size_t n) noexcept {
  return n >= 63 ? ~1ULL : ((1ULL << (n + 1)) - 2);
}

/// Registers `group`'s stuck-line injections into `out` (slot j+1 =
/// group[j]).  Shared by GroupWorker passes and the incremental Session,
/// which caches one map per group.
void build_group_injections(const FaultList& faults,
                            std::span<const FaultClassId> group,
                            sim::InjectionMap& out);

/// Fills `out` with `group`'s injection sites (cone-plan seeds), in
/// group order.
void build_cone_sites(const FaultList& faults,
                      std::span<const FaultClassId> group,
                      std::vector<sim::ConeSite>& out);

/// Kernel selection for one pass, decided per group by the
/// FaultSimulator from structure alone (FaultSimulator::plan_kernels).
/// With `cone` set the worker runs the cone-restricted kernel
/// (sim/cone_kernel.hpp) seeded from the shared fault-free `trace`, which
/// must then be non-null; otherwise it runs the full kernel.  A
/// frame-gated fault model needs `trace` on every pass as its activation
/// oracle.  Either choice produces bit-identical results.
struct KernelChoice {
  const sim::NodeTrace* trace = nullptr;
  bool cone = false;
};

class GroupWorker {
 public:
  /// Borrows `circuit` and `faults`; copies `scan_mask` so the worker
  /// stays valid if the owning simulator moves.
  GroupWorker(const netlist::Circuit& circuit, const FaultList& faults,
              util::Bitset scan_mask);

  /// Simulates one group through the whole test and returns its
  /// detection mask (bit j+1 = group[j] detected; bit 0 unused).
  /// `scan_in == nullptr` runs from the all-X state (no scan).  With
  /// `early_exit`, the pass stops once every group fault is PO-detected.
  /// `keep_going`, when given, is polled every frame: once it reads
  /// false the pass aborts and returns a partial mask (cooperative
  /// cancellation for detects_all under parallel execution).  `cancel`,
  /// when given, is likewise polled every frame; a raised token aborts
  /// the pass with a partial mask — callers that observe
  /// cancel->stop_requested() must treat the result as incomplete.
  std::uint64_t run_detect(const sim::Vector3* scan_in,
                           const sim::Sequence& seq,
                           std::span<const FaultClassId> group,
                           bool observe_scan_out, bool early_exit,
                           const std::atomic<bool>* keep_going = nullptr,
                           const util::CancelToken* cancel = nullptr,
                           const KernelChoice& kernel = {});

  /// Full detection-time recording for one group.  `first_po[j]` (init
  /// to -1 by the caller) receives the earliest PO detection time of
  /// group[j]; `state_diff[j]` (pre-sized to seq.length()) collects the
  /// time units whose scan-out would detect it.  Spans are group-local
  /// (index j, not class id).  A raised `cancel` aborts at the next
  /// frame boundary, leaving partial records.
  void run_times(const sim::Vector3& scan_in, const sim::Sequence& seq,
                 std::span<const FaultClassId> group,
                 std::span<std::int64_t> first_po,
                 std::span<util::Bitset> state_diff,
                 const util::CancelToken* cancel = nullptr,
                 const KernelChoice& kernel = {});

  /// Lighter prefix-coverage pass: records first PO detection times into
  /// `first_po` (group-local, init to -1) and returns the detection mask
  /// of the complete test including the final scan-out.  Exits early
  /// when every group fault is PO-detected.  A raised `cancel` aborts at
  /// the next frame boundary with a partial mask.
  std::uint64_t run_prefix(const sim::Vector3& scan_in,
                           const sim::Sequence& seq,
                           std::span<const FaultClassId> group,
                           std::span<std::int64_t> first_po,
                           const util::CancelToken* cancel = nullptr,
                           const KernelChoice& kernel = {});

  /// Response-comparison pass for diagnosis: returns the mask of group
  /// faults whose predicted response *mismatches* the observation
  /// (binary-vs-binary differences only; bits outside the group slots
  /// are clear).  A raised `cancel` aborts at the next frame boundary;
  /// the partial mask under-reports mismatches, which callers must treat
  /// as "conservatively consistent".
  std::uint64_t run_consistency(const sim::Vector3& scan_in,
                                const sim::Sequence& seq,
                                std::span<const sim::Vector3> observed_pos,
                                const sim::Vector3& observed_scan_out,
                                std::span<const FaultClassId> group,
                                const util::CancelToken* cancel = nullptr,
                                const KernelChoice& kernel = {});

  // --- incremental primitives (FaultSimulator::Session) ---------------

  /// Registers the group's stuck-line injections (slot j+1 = group[j]).
  void build_injections(std::span<const FaultClassId> group);

  /// PO / scan-out detection masks for the current simulation state.
  [[nodiscard]] std::uint64_t po_detections() const;
  [[nodiscard]] std::uint64_t state_detections() const;

  /// Copies `scan_in` with unscanned positions forced to X.
  [[nodiscard]] sim::Vector3 masked_state(const sim::Vector3& scan_in) const;

  /// Worker-local wide batch engine for `cfg` (PPSFP and wide
  /// fault-parallel passes), created on first use and rebuilt when the
  /// resolved config changes.  Callers only pass configs with
  /// cfg.lanes() > 1 — single-lane work stays on the scalar passes.
  [[nodiscard]] BatchEngine& batch_engine(const sim::SimdConfig& cfg);

  [[nodiscard]] sim::PackedSeqSim& sim() noexcept { return sim_; }
  [[nodiscard]] sim::InjectionMap& injections() noexcept {
    return injections_;
  }
  [[nodiscard]] const util::Bitset& scan_mask() const noexcept {
    return scan_mask_;
  }

 private:
  struct FullEngine;
  struct ConeEngine;

  /// Sets up `group`'s injections and kernel, then runs `observer`
  /// through the frame loop on the chosen engine and activation.
  template <class Observer>
  void run_pass(const sim::Vector3* scan_in, const sim::Sequence& seq,
                std::span<const FaultClassId> group,
                const KernelChoice& kernel, const util::CancelToken* cancel,
                Observer& observer);

  /// The one frame loop every pass runs (see the header comment).
  template <bool kGated, class Engine, class Observer>
  void frame_loop(Engine& engine, Observer& observer,
                  const sim::Sequence& seq, const sim::NodeTrace* trace,
                  const util::CancelToken* cancel);

  /// Applies the kernel decision for `group`: when the cone is taken,
  /// plan_ holds the group's cone on return.  Counts the pass.
  [[nodiscard]] bool cone_selected(std::span<const FaultClassId> group,
                                   const KernelChoice& kernel);

  /// Caches the group's (node, stale value) sites for activation checks.
  void build_tdf_sites(std::span<const FaultClassId> group);

  /// Slot mask of faults active in frame `t` (launch condition met
  /// across frames t-1 -> t of the fault-free trace).  Requires t >= 1;
  /// frame 0 has no launch frame and is never active.
  [[nodiscard]] std::uint64_t tdf_activation(const sim::NodeTrace& trace,
                                             std::size_t t) const;

  /// Rebuilds injections_ with only the slots in `act` (stuck at the
  /// stale value for one frame).
  void build_tdf_injections(std::uint64_t act);

  /// One activation site: a stem plus the stale value the delayed
  /// transition leaves behind.
  struct TdfSite {
    netlist::NodeId node;
    bool stale;
  };

  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  sim::PackedSeqSim sim_;
  sim::InjectionMap injections_;
  sim::ConePlan plan_;
  sim::ConeSim cone_;
  std::vector<sim::ConeSite> sites_;
  std::vector<TdfSite> tdf_sites_;
  std::unique_ptr<BatchEngine> batch_engine_;
  sim::SimdConfig batch_cfg_;
};

}  // namespace scanc::fault
