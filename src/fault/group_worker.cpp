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
/// group pass, keeping the frame loop free of telemetry calls.
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

/// Slots whose value at one observation point differs from the
/// fault-free slot 0 (none while slot 0 is X).
std::uint64_t observed_diff(const PackedV3& w) {
  const bool ref0 = (w.is0 & 1) != 0;
  const bool ref1 = (w.is1 & 1) != 0;
  if (ref0 == ref1) return 0;  // fault-free X: no detection here
  return sim::differs_from_reference(w, ref1);
}

/// Mismatch bits for one observation point: predicted binary, observed
/// binary, values differ.
std::uint64_t mismatches(const PackedV3& w, sim::V3 observed) {
  if (!sim::is_binary(observed)) return 0;
  return sim::differs_from_reference(w, observed == sim::V3::One);
}

/// Mismatch bits for a slot-uniform observation point at fault-free
/// value `v` (out of the cone, or in a frame no engine evaluated): a
/// binary/binary difference mismatches every slot at once — exactly what
/// differs_from_reference yields on a uniform word.
std::uint64_t uniform_mismatch(sim::V3 v, sim::V3 observed) {
  return (sim::is_binary(observed) && sim::is_binary(v) && v != observed)
             ? ~0ULL
             : 0;
}

/// Records time `t` as the first PO detection of every slot in `fresh`.
void record_first_po(std::uint64_t fresh, std::size_t t,
                     std::span<std::int64_t> first_po) {
  while (fresh != 0) {
    const int bit = std::countr_zero(fresh);
    fresh &= fresh - 1;
    first_po[static_cast<std::size_t>(bit) - 1] = static_cast<std::int64_t>(t);
  }
}

// ---------------------------------------------------------------------
// Observers: what a pass records.  frame_loop calls, per frame t,
//   abandoned()           before the frame: stop with a partial result;
//   frame(engine, t)      after a simulated frame's evaluation;
//   latches(last)         launch-gated only: does this simulated frame
//                         latch (persistent passes latch every one);
//   latched(engine, t)    after that latch;
//   unsimulated(t)        after a frame no engine evaluated (every
//                         machine follows the fault-free trace);
//   done(t, len)          after the frame: exit early;
// and once the frames run out, scan_out(engine, live), where `live` says
// the engine holds the final state (else it is the fault-free one).

/// run_detect: the detection mask.
struct DetectObserver {
  std::uint64_t full;
  bool observe_scan_out;
  bool early_exit;
  const std::atomic<bool>* keep_going;
  std::uint64_t det = 0;

  [[nodiscard]] bool abandoned() const {
    // Another group already decided detects_all's answer.
    return keep_going != nullptr &&
           !keep_going->load(std::memory_order_relaxed);
  }
  template <class E>
  void frame(const E& e, std::size_t) {
    det |= e.po_detections();
  }
  [[nodiscard]] bool latches(bool last) const {
    return last && observe_scan_out;
  }
  template <class E>
  void latched(const E&, std::size_t) {}
  void unsimulated(std::size_t) {}
  [[nodiscard]] bool done(std::size_t t, std::size_t len) const {
    return early_exit && det == full && t + 1 < len;
  }
  template <class E>
  void scan_out(const E& e, bool live) {
    if (live && observe_scan_out) det |= e.state_detections();
  }
};

/// run_times: first PO detection and every scan-out detection time.
struct TimesObserver {
  std::span<std::int64_t> first_po;
  std::span<util::Bitset> state_diff;
  std::uint64_t det = 0;

  [[nodiscard]] bool abandoned() const { return false; }
  template <class E>
  void frame(const E& e, std::size_t t) {
    const std::uint64_t fresh = e.po_detections() & ~det;
    det |= fresh;
    record_first_po(fresh, t, first_po);
  }
  // Scan-out after time unit t observes the state latched at its end,
  // so every simulated frame latches, gated or not.
  [[nodiscard]] bool latches(bool) const { return true; }
  template <class E>
  void latched(const E& e, std::size_t t) {
    std::uint64_t bits = e.state_detections();
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      state_diff[static_cast<std::size_t>(bit) - 1].set(t);
    }
  }
  void unsimulated(std::size_t) {}
  [[nodiscard]] bool done(std::size_t, std::size_t) const { return false; }
  template <class E>
  void scan_out(const E&, bool) {}
};

/// run_prefix: first PO detection times plus the whole test's mask.
struct PrefixObserver {
  std::uint64_t full;
  std::span<std::int64_t> first_po;
  std::uint64_t det = 0;

  [[nodiscard]] bool abandoned() const { return false; }
  template <class E>
  void frame(const E& e, std::size_t t) {
    const std::uint64_t fresh = e.po_detections() & ~det;
    det |= fresh;
    record_first_po(fresh, t, first_po);
  }
  [[nodiscard]] bool latches(bool last) const { return last; }
  template <class E>
  void latched(const E&, std::size_t) {}
  void unsimulated(std::size_t) {}
  // Everything PO-detected: the rest of the test cannot add anything.
  [[nodiscard]] bool done(std::size_t, std::size_t) const {
    return det == full;
  }
  template <class E>
  void scan_out(const E& e, bool live) {
    if (live) det |= e.state_detections();
  }
};

/// run_consistency: slots whose predicted response mismatches the
/// observation.  Out-of-cone points and unsimulated frames compare the
/// fault-free trace value, uniformly for every slot.
struct ConsistencyObserver {
  const netlist::Circuit& circuit;
  const util::Bitset& scan_mask;
  const sim::NodeTrace* trace;
  std::span<const Vector3> observed_pos;
  const Vector3& observed_scan_out;
  std::uint64_t full;
  std::uint64_t mismatch = 0;

  [[nodiscard]] bool abandoned() const { return false; }
  template <class E>
  void frame(const E& e, std::size_t t) {
    const auto pos = circuit.primary_outputs();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      mismatch |= e.observes(pos[i])
                      ? mismatches(e.value(pos[i]), observed_pos[t][i])
                      : uniform_mismatch(trace->value(t, pos[i]),
                                         observed_pos[t][i]);
    }
  }
  [[nodiscard]] bool latches(bool last) const { return last; }
  template <class E>
  void latched(const E&, std::size_t) {}
  void unsimulated(std::size_t t) {
    const auto pos = circuit.primary_outputs();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      mismatch |= uniform_mismatch(trace->value(t, pos[i]), observed_pos[t][i]);
    }
  }
  // Every group slot already mismatches.
  [[nodiscard]] bool done(std::size_t, std::size_t) const {
    return (mismatch & full) == full;
  }
  template <class E>
  void scan_out(const E& e, bool live) {
    Vector3 ff_free;  // fault-free scan-out, built on first use
    for (std::size_t i = 0; i < circuit.num_flip_flops(); ++i) {
      if (!scan_mask.test(i)) continue;
      if (live && e.live_ff(i)) {
        mismatch |= mismatches(e.captured(i), observed_scan_out[i]);
        continue;
      }
      if (ff_free.empty()) ff_free = trace->state_at_start(observed_pos.size());
      mismatch |= uniform_mismatch(ff_free[i], observed_scan_out[i]);
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------
// Engines: how a frame is evaluated and what the observers read.

/// Full kernel: every gate, 64 slots wide.
struct GroupWorker::FullEngine {
  GroupWorker& w;
  const sim::NodeTrace* trace;  ///< launch-gated passes only

  void begin(const Vector3* scan_in) {
    w.sim_.reset(&w.injections_);
    if (scan_in != nullptr) {
      w.sim_.load_state(w.masked_state(*scan_in), &w.injections_);
    }
  }
  /// Launch gating: frame t starts from the fault-free state entering it.
  void restart(std::size_t t) {
    w.sim_.load_state(trace->state_at_start(t), &w.injections_);
  }
  bool eval(std::size_t, const Vector3& pi) {
    w.sim_.apply_frame(pi, &w.injections_);
    return true;
  }
  void latch() { w.sim_.latch(&w.injections_); }
  [[nodiscard]] std::uint64_t po_detections() const {
    return w.po_detections();
  }
  [[nodiscard]] std::uint64_t state_detections() const {
    return w.state_detections();
  }
  [[nodiscard]] bool observes(NodeId) const { return true; }
  [[nodiscard]] const PackedV3& value(NodeId id) const {
    return w.sim_.value(id);
  }
  [[nodiscard]] bool live_ff(std::size_t) const { return true; }
  [[nodiscard]] const PackedV3& captured(std::size_t i) const {
    return w.sim_.captured(i);
  }
};

/// Cone kernel: only the group's sequential fanout cone, seeded from the
/// fault-free trace (sim/cone_kernel.hpp).  Out-of-cone observation
/// points are slot-uniform and never detect, so its masks equal the full
/// kernel's.
struct GroupWorker::ConeEngine {
  GroupWorker& w;
  const sim::NodeTrace* trace;

  void begin(const Vector3*) { w.cone_.begin(w.plan_, w.injections_, *trace); }
  /// Launch gating: a latch (detection times latch every active frame)
  /// dirtied the cone; re-arm the clean path so frame t re-seeds from
  /// the fault-free trace.
  void restart(std::size_t) {
    if (!w.cone_.clean()) begin(nullptr);
  }
  bool eval(std::size_t t, const Vector3&) { return w.cone_.eval_frame(t); }
  void latch() { w.cone_.latch(); }
  [[nodiscard]] std::uint64_t po_detections() const {
    std::uint64_t det = 0;
    for (const NodeId po : w.plan_.cone_pos()) {
      det |= observed_diff(w.cone_.value(po));
    }
    return det & ~1ULL;
  }
  [[nodiscard]] std::uint64_t state_detections() const {
    if (w.cone_.clean()) return 0;  // every latch holds the fault-free value
    std::uint64_t det = 0;
    for (const std::uint32_t i : w.plan_.cone_ff_pos()) {
      if (w.scan_mask_.test(i)) det |= observed_diff(w.cone_.captured(i));
    }
    return det & ~1ULL;
  }
  [[nodiscard]] bool observes(NodeId id) const { return w.plan_.in_cone(id); }
  [[nodiscard]] const PackedV3& value(NodeId id) const {
    return w.cone_.value(id);
  }
  [[nodiscard]] bool live_ff(std::size_t i) const {
    return !w.cone_.clean() && w.plan_.in_cone(w.circuit_->flip_flops()[i]);
  }
  [[nodiscard]] const PackedV3& captured(std::size_t i) const {
    return w.cone_.captured(i);
  }
};

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

std::uint64_t GroupWorker::po_detections() const {
  std::uint64_t det = 0;
  for (const NodeId po : circuit_->primary_outputs()) {
    det |= observed_diff(sim_.value(po));
  }
  return det & ~1ULL;
}

std::uint64_t GroupWorker::state_detections() const {
  std::uint64_t det = 0;
  for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
    if (!scan_mask_.test(i)) continue;  // not on the scan chain
    // Scan-out observes the captured latch contents (PPO convention).
    det |= observed_diff(sim_.captured(i));
  }
  return det & ~1ULL;
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

template <bool kGated, class Engine, class Observer>
void GroupWorker::frame_loop(Engine& engine, Observer& observer,
                             const Sequence& seq, const sim::NodeTrace* trace,
                             const util::CancelToken* cancel) {
  FrameTally tally;
  const std::size_t len = seq.length();
  bool live = !kGated;  // persistent passes end in the engine's state
  for (std::size_t t = 0; t < len; ++t) {
    if (observer.abandoned() ||
        (cancel != nullptr && cancel->stop_requested())) {
      return;  // cooperative cancellation: partial result
    }
    const bool last = t + 1 == len;
    bool active = true;
    if constexpr (kGated) {
      const std::uint64_t act = t == 0 ? 0 : tdf_activation(*trace, t);
      active = act != 0;
      if (active) {
        tally.tdf_activations += static_cast<std::uint64_t>(std::popcount(act));
        build_tdf_injections(act);
        engine.restart(t);
      } else {
        ++tally.tdf_skipped;  // no launch: every machine follows the trace
      }
    }
    const bool simulated = active && engine.eval(t, seq.frames[t]);
    if (active) ++(simulated ? tally.simulated : tally.skipped);
    if (simulated) {
      observer.frame(engine, t);
      if (!kGated || observer.latches(last)) {
        engine.latch();
        observer.latched(engine, t);
        live = !kGated || last;
      }
    } else {
      observer.unsimulated(t);
    }
    if (observer.done(t, len)) return;
  }
  observer.scan_out(engine, live);
}

template <class Observer>
void GroupWorker::run_pass(const Vector3* scan_in, const Sequence& seq,
                           std::span<const FaultClassId> group,
                           const KernelChoice& kernel,
                           const util::CancelToken* cancel,
                           Observer& observer) {
  assert(!group.empty());
  const bool gated = faults_->model().frame_gated();
  if (gated) {
    assert(kernel.trace != nullptr);
    build_tdf_sites(group);
    injections_.clear();  // rebuilt for every active frame
    scan_in = nullptr;    // every active frame loads the trace's state
  } else {
    build_injections(group);
  }
  const auto run = [&](auto engine) {
    engine.begin(scan_in);
    if (gated) {
      frame_loop<true>(engine, observer, seq, kernel.trace, cancel);
    } else {
      frame_loop<false>(engine, observer, seq, kernel.trace, cancel);
    }
  };
  if (cone_selected(group, kernel)) {
    run(ConeEngine{*this, kernel.trace});
  } else {
    run(FullEngine{*this, kernel.trace});
  }
}

std::uint64_t GroupWorker::run_detect(const Vector3* scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      bool observe_scan_out, bool early_exit,
                                      const std::atomic<bool>* keep_going,
                                      const util::CancelToken* cancel,
                                      const KernelChoice& kernel) {
  DetectObserver o{group_slot_mask(group.size()), observe_scan_out,
                   early_exit, keep_going};
  run_pass(scan_in, seq, group, kernel, cancel, o);
  return o.det;
}

void GroupWorker::run_times(const Vector3& scan_in, const Sequence& seq,
                            std::span<const FaultClassId> group,
                            std::span<std::int64_t> first_po,
                            std::span<util::Bitset> state_diff,
                            const util::CancelToken* cancel,
                            const KernelChoice& kernel) {
  assert(first_po.size() == group.size());
  assert(state_diff.size() == group.size());
  TimesObserver o{first_po, state_diff};
  run_pass(&scan_in, seq, group, kernel, cancel, o);
}

std::uint64_t GroupWorker::run_prefix(const Vector3& scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      std::span<std::int64_t> first_po,
                                      const util::CancelToken* cancel,
                                      const KernelChoice& kernel) {
  assert(first_po.size() == group.size());
  PrefixObserver o{group_slot_mask(group.size()), first_po};
  run_pass(&scan_in, seq, group, kernel, cancel, o);
  return o.det;
}

std::uint64_t GroupWorker::run_consistency(
    const Vector3& scan_in, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel, const KernelChoice& kernel) {
  assert(observed_pos.size() == seq.length());
  assert(observed_scan_out.size() == circuit_->num_flip_flops());
  const std::uint64_t full = group_slot_mask(group.size());
  ConsistencyObserver o{*circuit_, scan_mask_, kernel.trace,
                        observed_pos, observed_scan_out, full};
  run_pass(&scan_in, seq, group, kernel, cancel, o);
  return o.mismatch & full;
}

}  // namespace scanc::fault
