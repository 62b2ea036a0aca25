#include "fault/group_worker.hpp"

#include <bit>
#include <cassert>
#include <utility>

#include "util/telemetry.hpp"

namespace scanc::fault {

using netlist::NodeId;
using sim::PackedV3;
using sim::Sequence;
using sim::Vector3;

namespace {

/// Batches per-frame kernel counters into locals and publishes once per
/// group pass, keeping the frame loops free of telemetry calls.
struct FrameTally {
  std::uint64_t simulated = 0;
  std::uint64_t skipped = 0;
  std::uint64_t tdf_activations = 0;
  std::uint64_t tdf_skipped = 0;
  ~FrameTally() {
    if (simulated != 0) {
      obs::add(obs::Counter::FramesSimulated, simulated);
    }
    if (skipped != 0) obs::add(obs::Counter::FramesSkipped, skipped);
    if (tdf_activations != 0) {
      obs::add(obs::Counter::TdfActivations, tdf_activations);
    }
    if (tdf_skipped != 0) {
      obs::add(obs::Counter::TdfFramesSkipped, tdf_skipped);
    }
  }
};

}  // namespace

void build_group_injections(const FaultList& faults,
                            std::span<const FaultClassId> group,
                            sim::InjectionMap& out) {
  out.clear();
  for (std::size_t j = 0; j < group.size(); ++j) {
    const Fault& f = faults.representative(group[j]);
    out.add(f.node, f.pin, f.value, 1ULL << (j + 1));
  }
}

void build_cone_sites(const FaultList& faults,
                      std::span<const FaultClassId> group,
                      std::vector<sim::ConeSite>& out) {
  out.clear();
  out.reserve(group.size());
  for (const FaultClassId id : group) {
    const Fault& f = faults.representative(id);
    out.push_back(sim::ConeSite{f.node, f.pin, f.value});
  }
}

GroupWorker::GroupWorker(const netlist::Circuit& circuit,
                         const FaultList& faults, util::Bitset scan_mask)
    : circuit_(&circuit),
      faults_(&faults),
      scan_mask_(std::move(scan_mask)),
      sim_(circuit),
      injections_(circuit.num_nodes()),
      cone_(circuit) {
  assert(scan_mask_.size() == circuit.num_flip_flops());
}

BatchEngine& GroupWorker::batch_engine(const sim::SimdConfig& cfg) {
  if (batch_engine_ == nullptr || !(batch_cfg_ == cfg)) {
    batch_engine_ = make_batch_engine(*circuit_, *faults_, scan_mask_, cfg);
    batch_cfg_ = cfg;
  }
  return *batch_engine_;
}

Vector3 GroupWorker::masked_state(const Vector3& scan_in) const {
  if (scan_mask_.all()) return scan_in;
  Vector3 masked = scan_in;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!scan_mask_.test(i)) masked[i] = sim::V3::X;
  }
  return masked;
}

void GroupWorker::build_injections(std::span<const FaultClassId> group) {
  build_group_injections(*faults_, group, injections_);
}

void GroupWorker::start_test(const Vector3* scan_in,
                             std::span<const FaultClassId> group) {
  build_injections(group);
  sim_.reset(&injections_);
  if (scan_in != nullptr) {
    sim_.load_state(masked_state(*scan_in), &injections_);
  }
}

bool GroupWorker::cone_selected(std::span<const FaultClassId> group,
                                const KernelChoice& kernel) {
  // cone_selected runs exactly once per group pass, so the pass counters
  // live here rather than in every query method.
  if (!kernel.cone) {
    obs::add(obs::Counter::FullPasses);
    return false;
  }
  assert(kernel.trace != nullptr);
  build_cone_sites(*faults_, group, sites_);
  plan_.build(*circuit_, sites_);
  const std::uint64_t eval = plan_.eval().size();
  const std::uint64_t gates = circuit_->num_gates();
  obs::add(obs::Counter::ConePasses);
  obs::add(obs::Counter::ConeGatesScheduled, eval);
  obs::add(obs::Counter::ConeGatesDropped, gates >= eval ? gates - eval : 0);
  return true;
}

std::uint64_t GroupWorker::po_detections() const {
  std::uint64_t det = 0;
  for (const NodeId po : circuit_->primary_outputs()) {
    const PackedV3 w = sim_.value(po);
    const bool ref0 = (w.is0 & 1) != 0;
    const bool ref1 = (w.is1 & 1) != 0;
    if (ref0 == ref1) continue;  // fault-free X: no detection here
    det |= sim::differs_from_reference(w, ref1);
  }
  return det & ~1ULL;
}

std::uint64_t GroupWorker::state_detections() const {
  std::uint64_t det = 0;
  for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
    if (!scan_mask_.test(i)) continue;  // not on the scan chain
    // Scan-out observes the captured latch contents (PPO convention).
    const PackedV3 w = sim_.captured(i);
    const bool ref0 = (w.is0 & 1) != 0;
    const bool ref1 = (w.is1 & 1) != 0;
    if (ref0 == ref1) continue;
    det |= sim::differs_from_reference(w, ref1);
  }
  return det & ~1ULL;
}

std::uint64_t GroupWorker::po_detections_cone() const {
  std::uint64_t det = 0;
  for (const NodeId po : plan_.cone_pos()) {
    const PackedV3 w = cone_.value(po);
    const bool ref0 = (w.is0 & 1) != 0;
    const bool ref1 = (w.is1 & 1) != 0;
    if (ref0 == ref1) continue;
    det |= sim::differs_from_reference(w, ref1);
  }
  return det & ~1ULL;
}

std::uint64_t GroupWorker::state_detections_cone() const {
  if (cone_.clean()) return 0;  // every latch holds the fault-free value
  std::uint64_t det = 0;
  const auto pos = plan_.cone_ff_pos();
  for (const std::uint32_t i : pos) {
    if (!scan_mask_.test(i)) continue;
    const PackedV3 w = cone_.captured(i);
    const bool ref0 = (w.is0 & 1) != 0;
    const bool ref1 = (w.is1 & 1) != 0;
    if (ref0 == ref1) continue;
    det |= sim::differs_from_reference(w, ref1);
  }
  return det & ~1ULL;
}

std::uint64_t GroupWorker::run_detect(const Vector3* scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      bool observe_scan_out, bool early_exit,
                                      const std::atomic<bool>* keep_going,
                                      const util::CancelToken* cancel,
                                      const KernelChoice& kernel) {
  if (faults_->model().frame_gated()) {
    assert(kernel.trace != nullptr);
    build_tdf_sites(group);
    if (cone_selected(group, kernel)) {
      return run_detect_tdf_cone(*kernel.trace, seq, group, observe_scan_out,
                                 early_exit, keep_going, cancel);
    }
    return run_detect_tdf(*kernel.trace, seq, group, observe_scan_out,
                          early_exit, keep_going, cancel);
  }
  if (cone_selected(group, kernel)) {
    build_injections(group);
    return run_detect_cone(*kernel.trace, seq, group, observe_scan_out,
                           early_exit, keep_going, cancel);
  }
  start_test(scan_in, group);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (keep_going != nullptr &&
        !keep_going->load(std::memory_order_relaxed)) {
      return det;  // another group already decided the answer
    }
    if (cancel != nullptr && cancel->stop_requested()) {
      return det;  // cooperative cancellation: partial mask
    }
    ++tally.simulated;
    sim_.apply_frame(seq.frames[t], &injections_);
    det |= po_detections();
    sim_.latch(&injections_);
    if (early_exit && det == full && t + 1 < seq.length()) return det;
  }
  if (observe_scan_out) det |= state_detections();
  return det;
}

std::uint64_t GroupWorker::run_detect_cone(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const FaultClassId> group, bool observe_scan_out,
    bool early_exit, const std::atomic<bool>* keep_going,
    const util::CancelToken* cancel) {
  cone_.begin(plan_, injections_, trace);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (keep_going != nullptr &&
        !keep_going->load(std::memory_order_relaxed)) {
      return det;
    }
    if (cancel != nullptr && cancel->stop_requested()) {
      return det;
    }
    if (cone_.eval_frame(t)) {
      ++tally.simulated;
      det |= po_detections_cone();
      cone_.latch();
    } else {
      ++tally.skipped;
    }
    // Skipped frames change nothing: all slots stay fault-free.
    if (early_exit && det == full && t + 1 < seq.length()) return det;
  }
  if (observe_scan_out) det |= state_detections_cone();
  return det;
}

void GroupWorker::run_times(const Vector3& scan_in, const Sequence& seq,
                            std::span<const FaultClassId> group,
                            std::span<std::int64_t> first_po,
                            std::span<util::Bitset> state_diff,
                            const util::CancelToken* cancel,
                            const KernelChoice& kernel) {
  assert(first_po.size() == group.size());
  assert(state_diff.size() == group.size());
  if (faults_->model().frame_gated()) {
    assert(kernel.trace != nullptr);
    build_tdf_sites(group);
    if (cone_selected(group, kernel)) {
      run_times_tdf_cone(*kernel.trace, seq, first_po, state_diff, cancel);
    } else {
      run_times_tdf(*kernel.trace, seq, first_po, state_diff, cancel);
    }
    return;
  }
  if (cone_selected(group, kernel)) {
    build_injections(group);
    run_times_cone(*kernel.trace, seq, group, first_po, state_diff, cancel);
    return;
  }
  start_test(&scan_in, group);
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return;
    ++tally.simulated;
    sim_.apply_frame(seq.frames[t], &injections_);
    std::uint64_t fresh = po_detections() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    sim_.latch(&injections_);
    // Scan-out after time unit t would observe the just-latched state.
    std::uint64_t bits = state_detections();
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      state_diff[static_cast<std::size_t>(bit) - 1].set(t);
    }
  }
}

void GroupWorker::run_times_cone(const sim::NodeTrace& trace,
                                 const Sequence& seq,
                                 std::span<const FaultClassId> group,
                                 std::span<std::int64_t> first_po,
                                 std::span<util::Bitset> state_diff,
                                 const util::CancelToken* cancel) {
  (void)group;
  cone_.begin(plan_, injections_, trace);
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return;
    if (!cone_.eval_frame(t)) {
      ++tally.skipped;
      continue;  // no detections on a clean frame
    }
    ++tally.simulated;
    std::uint64_t fresh = po_detections_cone() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    cone_.latch();
    std::uint64_t bits = state_detections_cone();
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      state_diff[static_cast<std::size_t>(bit) - 1].set(t);
    }
  }
}

std::uint64_t GroupWorker::run_prefix(const Vector3& scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      std::span<std::int64_t> first_po,
                                      const util::CancelToken* cancel,
                                      const KernelChoice& kernel) {
  assert(first_po.size() == group.size());
  if (faults_->model().frame_gated()) {
    assert(kernel.trace != nullptr);
    build_tdf_sites(group);
    if (cone_selected(group, kernel)) {
      return run_prefix_tdf_cone(*kernel.trace, seq, group, first_po, cancel);
    }
    return run_prefix_tdf(*kernel.trace, seq, group, first_po, cancel);
  }
  if (cone_selected(group, kernel)) {
    build_injections(group);
    return run_prefix_cone(*kernel.trace, seq, group, first_po, cancel);
  }
  start_test(&scan_in, group);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return det;
    ++tally.simulated;
    sim_.apply_frame(seq.frames[t], &injections_);
    std::uint64_t fresh = po_detections() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    if (det == full) return det;  // everything PO-detected: skip the rest
    sim_.latch(&injections_);
  }
  return det | state_detections();  // final scan-out
}

std::uint64_t GroupWorker::run_prefix_cone(const sim::NodeTrace& trace,
                                           const Sequence& seq,
                                           std::span<const FaultClassId> group,
                                           std::span<std::int64_t> first_po,
                                           const util::CancelToken* cancel) {
  cone_.begin(plan_, injections_, trace);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return det;
    if (!cone_.eval_frame(t)) {
      ++tally.skipped;
      continue;  // det < full here: no change
    }
    ++tally.simulated;
    std::uint64_t fresh = po_detections_cone() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    if (det == full) return det;
    cone_.latch();
  }
  return det | state_detections_cone();  // final scan-out
}

std::uint64_t GroupWorker::run_consistency(
    const Vector3& scan_in, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel, const KernelChoice& kernel) {
  assert(observed_pos.size() == seq.length());
  assert(observed_scan_out.size() == circuit_->num_flip_flops());
  if (faults_->model().frame_gated()) {
    assert(kernel.trace != nullptr);
    build_tdf_sites(group);
    if (cone_selected(group, kernel)) {
      return run_consistency_tdf_cone(*kernel.trace, seq, observed_pos,
                                      observed_scan_out, group, cancel);
    }
    return run_consistency_tdf(*kernel.trace, seq, observed_pos,
                               observed_scan_out, group, cancel);
  }
  if (cone_selected(group, kernel)) {
    build_injections(group);
    return run_consistency_cone(*kernel.trace, seq, observed_pos,
                                observed_scan_out, group, cancel);
  }
  start_test(&scan_in, group);

  // Mismatch bits for one observation point: predicted binary, observed
  // binary, values differ.
  const auto mismatches = [](const PackedV3 w, sim::V3 obs) -> std::uint64_t {
    if (!sim::is_binary(obs)) return 0;
    return sim::differs_from_reference(w, obs == sim::V3::One);
  };

  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t mismatch = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return mismatch;
    ++tally.simulated;
    sim_.apply_frame(seq.frames[t], &injections_);
    const auto pos = circuit_->primary_outputs();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      mismatch |= mismatches(sim_.value(pos[i]), observed_pos[t][i]);
    }
    sim_.latch(&injections_);
    if ((mismatch & full) == full) break;
  }
  for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
    if (!scan_mask_.test(i)) continue;
    mismatch |= mismatches(sim_.captured(i), observed_scan_out[i]);
  }
  return mismatch;
}

std::uint64_t GroupWorker::run_consistency_cone(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel) {
  cone_.begin(plan_, injections_, trace);

  // Out-of-cone (or clean) observation points are slot-uniform at the
  // fault-free value, so a binary/binary difference against the
  // observation mismatches *all* slots at once — exactly what the full
  // kernel's differs_from_reference yields on a uniform word.
  const auto uniform_mismatch = [](sim::V3 v, sim::V3 obs) -> std::uint64_t {
    return (sim::is_binary(obs) && sim::is_binary(v) && v != obs) ? ~0ULL
                                                                  : 0;
  };
  const auto mismatches = [](const PackedV3 w, sim::V3 obs) -> std::uint64_t {
    if (!sim::is_binary(obs)) return 0;
    return sim::differs_from_reference(w, obs == sim::V3::One);
  };

  const std::uint64_t full = group_slot_mask(group.size());
  const auto pos = circuit_->primary_outputs();
  std::uint64_t mismatch = 0;
  bool broke = false;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return mismatch;
    const bool simulated = cone_.eval_frame(t);
    if (simulated) {
      ++tally.simulated;
    } else {
      ++tally.skipped;
    }
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (simulated && plan_.in_cone(pos[i])) {
        mismatch |= mismatches(cone_.value(pos[i]), observed_pos[t][i]);
      } else {
        mismatch |=
            uniform_mismatch(trace.value(t, pos[i]), observed_pos[t][i]);
      }
    }
    if (simulated) cone_.latch();
    if ((mismatch & full) == full) {
      broke = true;
      break;
    }
  }
  if (broke) return mismatch;  // every group slot already mismatches
  const Vector3 ff_free = trace.state_at_start(seq.length());
  const auto ffs = circuit_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (!scan_mask_.test(i)) continue;
    if (!cone_.clean() && plan_.in_cone(ffs[i])) {
      mismatch |= mismatches(cone_.captured(i), observed_scan_out[i]);
    } else {
      mismatch |= uniform_mismatch(ff_free[i], observed_scan_out[i]);
    }
  }
  return mismatch;
}

// ---------------------------------------------------------------------
// Frame-gated (transition-delay) passes.
//
// Semantics shared by all eight passes (and the check/ TDF oracle):
// fault j is *active* in frame t >= 1 iff the fault-free value of its
// stem was the stale value in frame t-1 and the opposite (binary) value
// in frame t — the delayed transition is launched.  An active frame is
// simulated one-frame from the fault-free state entering it with the
// stem stuck at the stale value; POs are observed in that frame, and the
// state captured at its end carries the effect to scan-out only when it
// is the test's final frame.  Effects never persist: every frame starts
// from the fault-free trace, which also makes prefix-coverage records
// per-frame independent exactly as under stuck-at.

void GroupWorker::build_tdf_sites(std::span<const FaultClassId> group) {
  tdf_sites_.clear();
  tdf_sites_.reserve(group.size());
  for (const FaultClassId id : group) {
    const Fault& f = faults_->representative(id);
    assert(f.pin == sim::kStemPin);
    tdf_sites_.push_back(TdfSite{f.node, f.value});
  }
}

std::uint64_t GroupWorker::tdf_activation(const sim::NodeTrace& trace,
                                          std::size_t t) const {
  assert(t >= 1);
  std::uint64_t act = 0;
  for (std::size_t j = 0; j < tdf_sites_.size(); ++j) {
    const TdfSite& s = tdf_sites_[j];
    const sim::V3 stale = s.stale ? sim::V3::One : sim::V3::Zero;
    const sim::V3 fresh = s.stale ? sim::V3::Zero : sim::V3::One;
    if (trace.value(t - 1, s.node) == stale &&
        trace.value(t, s.node) == fresh) {
      act |= 1ULL << (j + 1);
    }
  }
  return act;
}

void GroupWorker::build_tdf_injections(std::uint64_t act) {
  injections_.clear();
  while (act != 0) {
    const int bit = std::countr_zero(act);
    act &= act - 1;
    const TdfSite& s = tdf_sites_[static_cast<std::size_t>(bit) - 1];
    injections_.add(s.node, sim::kStemPin, s.stale, 1ULL << bit);
  }
}

std::uint64_t GroupWorker::run_detect_tdf(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const FaultClassId> group, bool observe_scan_out,
    bool early_exit, const std::atomic<bool>* keep_going,
    const util::CancelToken* cancel) {
  sim_.reset(nullptr);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (keep_going != nullptr &&
        !keep_going->load(std::memory_order_relaxed)) {
      return det;
    }
    if (cancel != nullptr && cancel->stop_requested()) return det;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;  // no launch: every machine follows the fault-free trace
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    ++tally.simulated;
    build_tdf_injections(act);
    sim_.load_state(trace.state_at_start(t), &injections_);
    sim_.apply_frame(seq.frames[t], &injections_);
    det |= po_detections();
    if (observe_scan_out && t + 1 == seq.length()) {
      sim_.latch(&injections_);
      det |= state_detections();
    }
    if (early_exit && det == full && t + 1 < seq.length()) return det;
  }
  return det;
}

std::uint64_t GroupWorker::run_detect_tdf_cone(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const FaultClassId> group, bool observe_scan_out,
    bool early_exit, const std::atomic<bool>* keep_going,
    const util::CancelToken* cancel) {
  injections_.clear();
  cone_.begin(plan_, injections_, trace);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (keep_going != nullptr &&
        !keep_going->load(std::memory_order_relaxed)) {
      return det;
    }
    if (cancel != nullptr && cancel->stop_requested()) return det;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    build_tdf_injections(act);
    if (!cone_.eval_frame(t)) {
      ++tally.skipped;
      continue;
    }
    ++tally.simulated;
    det |= po_detections_cone();
    if (observe_scan_out && t + 1 == seq.length()) {
      cone_.latch();
      det |= state_detections_cone();
    }
    if (early_exit && det == full && t + 1 < seq.length()) return det;
  }
  return det;
}

void GroupWorker::run_times_tdf(const sim::NodeTrace& trace,
                                const Sequence& seq,
                                std::span<std::int64_t> first_po,
                                std::span<util::Bitset> state_diff,
                                const util::CancelToken* cancel) {
  sim_.reset(nullptr);
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;  // inactive frames latch the fault-free state: no records
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    ++tally.simulated;
    build_tdf_injections(act);
    sim_.load_state(trace.state_at_start(t), &injections_);
    sim_.apply_frame(seq.frames[t], &injections_);
    std::uint64_t fresh = po_detections() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    sim_.latch(&injections_);
    // Scan-out after time unit t observes the state captured at the end
    // of the (active) frame t; effects decay again from t+1 on.
    std::uint64_t bits = state_detections();
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      state_diff[static_cast<std::size_t>(bit) - 1].set(t);
    }
  }
}

void GroupWorker::run_times_tdf_cone(const sim::NodeTrace& trace,
                                     const Sequence& seq,
                                     std::span<std::int64_t> first_po,
                                     std::span<util::Bitset> state_diff,
                                     const util::CancelToken* cancel) {
  injections_.clear();
  cone_.begin(plan_, injections_, trace);
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    build_tdf_injections(act);
    if (!cone_.eval_frame(t)) {
      ++tally.skipped;
      continue;
    }
    ++tally.simulated;
    std::uint64_t fresh = po_detections_cone() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    cone_.latch();
    std::uint64_t bits = state_detections_cone();
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      state_diff[static_cast<std::size_t>(bit) - 1].set(t);
    }
    // The latch dirtied the cone state; re-arm the clean path so the
    // next active frame re-seeds from the fault-free trace (per-frame
    // effect independence).
    if (!cone_.clean()) cone_.begin(plan_, injections_, trace);
  }
}

std::uint64_t GroupWorker::run_prefix_tdf(const sim::NodeTrace& trace,
                                          const Sequence& seq,
                                          std::span<const FaultClassId> group,
                                          std::span<std::int64_t> first_po,
                                          const util::CancelToken* cancel) {
  sim_.reset(nullptr);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return det;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    ++tally.simulated;
    build_tdf_injections(act);
    sim_.load_state(trace.state_at_start(t), &injections_);
    sim_.apply_frame(seq.frames[t], &injections_);
    std::uint64_t fresh = po_detections() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    if (det == full) return det;  // everything PO-detected: skip the rest
    if (t + 1 == seq.length()) {
      sim_.latch(&injections_);
      det |= state_detections();  // final scan-out (final frame active)
    }
  }
  return det;
}

std::uint64_t GroupWorker::run_prefix_tdf_cone(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const FaultClassId> group, std::span<std::int64_t> first_po,
    const util::CancelToken* cancel) {
  injections_.clear();
  cone_.begin(plan_, injections_, trace);
  const std::uint64_t full = group_slot_mask(group.size());
  std::uint64_t det = 0;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return det;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      continue;
    }
    tally.tdf_activations +=
        static_cast<std::uint64_t>(std::popcount(act));
    build_tdf_injections(act);
    if (!cone_.eval_frame(t)) {
      ++tally.skipped;
      continue;
    }
    ++tally.simulated;
    std::uint64_t fresh = po_detections_cone() & ~det;
    det |= fresh;
    while (fresh != 0) {
      const int bit = std::countr_zero(fresh);
      fresh &= fresh - 1;
      first_po[static_cast<std::size_t>(bit) - 1] =
          static_cast<std::int64_t>(t);
    }
    if (det == full) return det;
    if (t + 1 == seq.length()) {
      cone_.latch();
      det |= state_detections_cone();
    }
  }
  return det;
}

std::uint64_t GroupWorker::run_consistency_tdf(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel) {
  sim_.reset(nullptr);

  const auto mismatches = [](const PackedV3 w, sim::V3 obs) -> std::uint64_t {
    if (!sim::is_binary(obs)) return 0;
    return sim::differs_from_reference(w, obs == sim::V3::One);
  };
  // In an inactive frame every machine predicts the fault-free value, so
  // a binary/binary difference against the observation mismatches all
  // slots at once (the same word the full stuck-at kernel would yield on
  // a slot-uniform value).
  const auto uniform_mismatch = [](sim::V3 v, sim::V3 obs) -> std::uint64_t {
    return (sim::is_binary(obs) && sim::is_binary(v) && v != obs) ? ~0ULL
                                                                  : 0;
  };

  const std::uint64_t full = group_slot_mask(group.size());
  const auto pos = circuit_->primary_outputs();
  std::uint64_t mismatch = 0;
  bool final_active = false;
  bool broke = false;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return mismatch;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      for (std::size_t i = 0; i < pos.size(); ++i) {
        mismatch |=
            uniform_mismatch(trace.value(t, pos[i]), observed_pos[t][i]);
      }
    } else {
      tally.tdf_activations +=
          static_cast<std::uint64_t>(std::popcount(act));
      ++tally.simulated;
      build_tdf_injections(act);
      sim_.load_state(trace.state_at_start(t), &injections_);
      sim_.apply_frame(seq.frames[t], &injections_);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        mismatch |= mismatches(sim_.value(pos[i]), observed_pos[t][i]);
      }
      if (t + 1 == seq.length()) {
        final_active = true;
        sim_.latch(&injections_);
      }
    }
    if ((mismatch & full) == full) {
      broke = true;
      break;
    }
  }
  if (broke) return mismatch;  // every group slot already mismatches
  if (final_active) {
    for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
      if (!scan_mask_.test(i)) continue;
      mismatch |= mismatches(sim_.captured(i), observed_scan_out[i]);
    }
  } else {
    // Final frame inactive (or empty test): scan-out observes the
    // fault-free state on every machine.
    const Vector3 ff_free = trace.state_at_start(seq.length());
    for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
      if (!scan_mask_.test(i)) continue;
      mismatch |= uniform_mismatch(ff_free[i], observed_scan_out[i]);
    }
  }
  return mismatch;
}

std::uint64_t GroupWorker::run_consistency_tdf_cone(
    const sim::NodeTrace& trace, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel) {
  injections_.clear();
  cone_.begin(plan_, injections_, trace);

  const auto mismatches = [](const PackedV3 w, sim::V3 obs) -> std::uint64_t {
    if (!sim::is_binary(obs)) return 0;
    return sim::differs_from_reference(w, obs == sim::V3::One);
  };
  const auto uniform_mismatch = [](sim::V3 v, sim::V3 obs) -> std::uint64_t {
    return (sim::is_binary(obs) && sim::is_binary(v) && v != obs) ? ~0ULL
                                                                  : 0;
  };

  const std::uint64_t full = group_slot_mask(group.size());
  const auto pos = circuit_->primary_outputs();
  std::uint64_t mismatch = 0;
  bool final_active = false;
  FrameTally tally;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (cancel != nullptr && cancel->stop_requested()) return mismatch;
    const std::uint64_t act = t == 0 ? 0 : tdf_activation(trace, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      for (std::size_t i = 0; i < pos.size(); ++i) {
        mismatch |=
            uniform_mismatch(trace.value(t, pos[i]), observed_pos[t][i]);
      }
    } else {
      tally.tdf_activations +=
          static_cast<std::uint64_t>(std::popcount(act));
      build_tdf_injections(act);
      const bool simulated = cone_.eval_frame(t);
      if (simulated) {
        ++tally.simulated;
      } else {
        ++tally.skipped;
      }
      for (std::size_t i = 0; i < pos.size(); ++i) {
        if (simulated && plan_.in_cone(pos[i])) {
          mismatch |= mismatches(cone_.value(pos[i]), observed_pos[t][i]);
        } else {
          mismatch |=
              uniform_mismatch(trace.value(t, pos[i]), observed_pos[t][i]);
        }
      }
      if (simulated && t + 1 == seq.length()) {
        cone_.latch();
        final_active = true;
      }
    }
    if ((mismatch & full) == full) return mismatch;
  }
  const Vector3 ff_free = trace.state_at_start(seq.length());
  const auto ffs = circuit_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (!scan_mask_.test(i)) continue;
    if (final_active && !cone_.clean() && plan_.in_cone(ffs[i])) {
      mismatch |= mismatches(cone_.captured(i), observed_scan_out[i]);
    } else {
      mismatch |= uniform_mismatch(ff_free[i], observed_scan_out[i]);
    }
  }
  return mismatch;
}

}  // namespace scanc::fault
