#include "fault/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>

#include "fault/batch_engine.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

namespace {

/// One per FaultSimulator query: a trace span plus the query counter and
/// latency histogram.
struct QueryScope {
  explicit QueryScope(const char* name) noexcept : span(name, "query") {
    obs::add(obs::Counter::QueriesRun);
  }
  obs::Span span;
  obs::ScopedTimer timer{obs::Counter::kCount, obs::Histogram::QueryNanos};
};

/// The Auto cost model, in quarter gate evaluations per frame: a full
/// pass costs the circuit's gates (4 * gates); a cone pass its scheduled
/// gates plus a quarter of the circuit (boundary seeding and plan
/// construction).  Returns what one cone pass saves over a full pass
/// (negative when it loses).
[[nodiscard]] constexpr std::int64_t cone_saving(
    std::size_t cone_gates, std::size_t circuit_gates) noexcept {
  return 3 * static_cast<std::int64_t>(circuit_gates) -
         4 * static_cast<std::int64_t>(cone_gates);
}

/// The per-group Auto rule: the cone pays when its compacted schedule
/// drops at least a quarter of the full evaluation work.
[[nodiscard]] constexpr bool cone_pays(std::size_t cone_gates,
                                       std::size_t circuit_gates) noexcept {
  return cone_saving(cone_gates, circuit_gates) >= 0;
}

/// The cost of the fault-free trace that cone passes read, in the same
/// quarter units per circuit gate: one and a half circuits.  Its scalar
/// node-by-node evaluation, which stores every value, ran 1.3-1.5x the
/// time of one 64-slot full pass over the same test (s641, 566 frames:
/// 2.26 vs 1.55 ms; 16-block tiled circuit, 32 frames: 8.0 vs 6.1 ms;
/// one core of a 4-vCPU x86-64 VM).
constexpr std::int64_t kTraceCost = 6;

}  // namespace

using netlist::Circuit;
using sim::Sequence;
using sim::Vector3;

FaultSimulator::FaultSimulator(const Circuit& circuit,
                               const FaultList& faults)
    : FaultSimulator(circuit, faults,
                     util::Bitset(circuit.num_flip_flops(), true)) {}

FaultSimulator::FaultSimulator(const Circuit& circuit,
                               const FaultList& faults,
                               util::Bitset scan_mask)
    : circuit_(&circuit),
      faults_(&faults),
      scan_mask_(std::move(scan_mask)),
      exec_(circuit, faults, scan_mask_),
      trace_cache_(circuit) {
  assert(scan_mask_.size() == circuit.num_flip_flops());
  // Cone-locality rank per class: the representative's position in the
  // level-major CSR order (for source nodes, the earliest position among
  // their fanouts).  Sorting targets by this rank clusters faults whose
  // fanout cones overlap into the same simulation group.
  const netlist::CsrSchedule& csr = circuit.csr();
  pack_rank_.resize(faults.num_classes());
  for (FaultClassId id = 0; id < pack_rank_.size(); ++id) {
    const Fault& f = faults.representative(id);
    std::uint32_t r = csr.rank[f.node];
    if (r == netlist::kNoRank) {
      for (const netlist::NodeId out : csr.fanouts(f.node)) {
        r = std::min(r, csr.rank[out]);
      }
    }
    pack_rank_[id] = r;
  }
}

void FaultSimulator::check_scan_in(const Vector3& scan_in) const {
  if (scan_in.size() != circuit_->num_flip_flops()) {
    throw std::invalid_argument(
        "scan_in width " + std::to_string(scan_in.size()) +
        " != flip-flop count " +
        std::to_string(circuit_->num_flip_flops()));
  }
}

std::vector<FaultClassId> FaultSimulator::collect(
    const FaultSet* targets) const {
  std::vector<FaultClassId> out;
  if (targets == nullptr) {
    out.resize(num_classes());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<FaultClassId>(i);
    }
  } else {
    assert(targets->size() == num_classes());
    out.reserve(targets->count());
    targets->for_each(
        [&](std::size_t i) { out.push_back(static_cast<FaultClassId>(i)); });
  }
  // Stable sort on an ascending-id list = total order (rank, class id):
  // every subset of targets is enumerated in the same relative order, as
  // the compaction procedures' record-merging walks require.
  std::stable_sort(out.begin(), out.end(),
                   [this](FaultClassId a, FaultClassId b) {
                     return pack_rank_[a] < pack_rank_[b];
                   });
  return out;
}

void FaultSimulator::reduce_masks(std::span<const FaultClassId> list,
                                  std::span<const std::uint64_t> group_masks,
                                  FaultSet& out, bool complement) const {
  for (std::size_t g = 0; g < group_masks.size(); ++g) {
    const std::size_t base = g * kGroupSize;
    const std::size_t n = std::min(kGroupSize, list.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      const bool bit = (group_masks[g] & (1ULL << (j + 1))) != 0;
      if (bit != complement) out.set(list[base + j]);
    }
  }
}

std::shared_ptr<const sim::NodeTrace> FaultSimulator::acquire_trace(
    const sim::Vector3* scan_in, const sim::Sequence& seq) {
  if (scan_in == nullptr || scan_mask_.all()) {
    return trace_cache_.get(scan_in, seq);
  }
  // Partial scan: the trace must start from the masked state the
  // workers load (unscanned positions unknown).
  sim::Vector3 masked = *scan_in;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!scan_mask_.test(i)) masked[i] = sim::V3::X;
  }
  return trace_cache_.get(&masked, seq);
}

void FaultSimulator::compute_cone_bounds() {
  // Sequential fanout closure of each representative's node — the
  // ConePlan seed for stem and branch sites alike — counted in gates.
  // One BFS per distinct node; seen[] stamps each BFS with seed + 1.
  const netlist::CsrSchedule& csr = circuit_->csr();
  constexpr std::uint32_t kUnknown = ~0u;
  std::vector<std::uint32_t> node_gates(circuit_->num_nodes(), kUnknown);
  std::vector<std::uint32_t> seen(circuit_->num_nodes(), 0);
  std::vector<netlist::NodeId> bfs;
  class_cone_gates_.resize(num_classes());
  for (FaultClassId id = 0; id < num_classes(); ++id) {
    const netlist::NodeId seed = faults_->representative(id).node;
    if (node_gates[seed] == kUnknown) {
      std::uint32_t count = 0;
      bfs.assign(1, seed);
      seen[seed] = seed + 1;
      for (std::size_t head = 0; head < bfs.size(); ++head) {
        if (netlist::is_combinational(csr.types[bfs[head]])) ++count;
        for (const netlist::NodeId v : csr.fanouts(bfs[head])) {
          if (seen[v] != seed + 1) {
            seen[v] = seed + 1;
            bfs.push_back(v);
          }
        }
      }
      node_gates[seed] = count;
    }
    class_cone_gates_[id] = node_gates[seed];
  }
}

FaultSimulator::QueryKernels FaultSimulator::plan_kernels(
    std::span<const FaultClassId> list, const sim::Vector3* scan_in,
    const sim::Sequence& seq) {
  const std::size_t ng = num_groups(list.size());
  const bool frame_gated = faults_->model().frame_gated();
  QueryKernels qk;
  qk.cone.assign(ng, kernel_ == KernelMode::Cone ? 1 : 0);
  std::size_t cone_groups = kernel_ == KernelMode::Cone ? ng : 0;
  if (kernel_ == KernelMode::Auto) {
    const std::size_t gates = circuit_->num_gates();
    std::int64_t saved = 0;  // cone_saving summed over the cone groups
    if (class_cone_gates_.empty()) compute_cone_bounds();
    for (std::size_t g = 0; g < ng; ++g) {
      const std::span<const FaultClassId> group = list.subspan(
          g * kGroupSize, std::min(kGroupSize, list.size() - g * kGroupSize));
      std::uint32_t bound = 0;
      for (const FaultClassId id : group) {
        bound = std::max(bound, class_cone_gates_[id]);
      }
      if (!cone_pays(bound, gates)) {
        obs::add(obs::Counter::ConeBoundRejects);
        continue;
      }
      build_cone_sites(*faults_, group, sites_);
      plan_.build(*circuit_, sites_);
      const std::size_t eval = plan_.eval().size();
      if (cone_pays(eval, gates)) {
        qk.cone[g] = 1;
        ++cone_groups;
        saved += cone_saving(eval, gates);
      }
    }
    // Without a frame-gated model the trace exists only for the cone
    // groups.  Unless they save its cost between them, the query runs
    // every group on the full kernel and builds no trace.
    if (!frame_gated && cone_groups > 0 &&
        saved < kTraceCost * static_cast<std::int64_t>(gates)) {
      obs::add(obs::Counter::ConeTraceRejects, cone_groups);
      cone_groups = 0;
      std::fill(qk.cone.begin(), qk.cone.end(), 0);
    }
  }
  if (cone_groups > 0 || frame_gated) {
    qk.trace = acquire_trace(scan_in, seq);
  }
  return qk;
}

bool FaultSimulator::wide_fp_detect(const Vector3* scan_in,
                                    const Sequence& seq,
                                    std::span<const FaultClassId> list,
                                    bool observe_scan_out,
                                    const std::atomic<bool>* keep_going,
                                    std::span<std::uint64_t> det) {
  const sim::SimdConfig cfg = simd_config();
  const std::size_t ng = det.size();
  if (cfg.lanes() <= 1 || ng < 2 || kernel_ != KernelMode::Full ||
      faults_->model().frame_gated()) {
    return false;
  }
  obs::set_gauge(obs::Gauge::SimdLaneWidth, cfg.bits);
  obs::add(obs::Counter::GroupsExecuted, ng);
  const std::size_t lanes = cfg.lanes();
  const std::size_t nchunks = (ng + lanes - 1) / lanes;
  exec_.for_each_chunk(
      nchunks, policy(), [&](GroupWorker& w, std::size_t c) {
        if (cancel_.stop_requested()) return;  // skip chunk
        if (keep_going != nullptr &&
            !keep_going->load(std::memory_order_relaxed)) {
          return;
        }
        const std::size_t first = c * lanes;
        const std::size_t n = std::min(lanes, ng - first);
        w.batch_engine(cfg).detect_groups(scan_in, seq, list, first, n,
                                          observe_scan_out,
                                          /*early_exit=*/true, keep_going,
                                          &cancel_, det.subspan(first, n));
      });
  return true;
}

FaultSet FaultSimulator::detect_no_scan(const Sequence& seq,
                                        const FaultSet* targets) {
  const QueryScope scope("detect_no_scan");
  const std::vector<FaultClassId> list = collect(targets);
  std::vector<std::uint64_t> det(num_groups(list.size()), 0);
  if (!wide_fp_detect(nullptr, seq, list, /*observe_scan_out=*/false,
                      /*keep_going=*/nullptr, det)) {
    const QueryKernels qk = plan_kernels(list, nullptr, seq);
    for_each_group(exec_, list, policy(),
                   [&](GroupWorker& w, std::size_t g,
                       std::span<const FaultClassId> group) {
                     if (cancel_.stop_requested()) return;  // skip group
                     det[g] = w.run_detect(nullptr, seq, group,
                                           /*observe_scan_out=*/false,
                                           /*early_exit=*/true,
                                           /*keep_going=*/nullptr, &cancel_,
                                           qk.choice(g));
                   });
  }
  FaultSet detected(num_classes());
  reduce_masks(list, det, detected);
  return detected;
}

FaultSet FaultSimulator::detect_scan_test(const Vector3& scan_in,
                                          const Sequence& seq,
                                          const FaultSet* targets) {
  check_scan_in(scan_in);
  const QueryScope scope("detect_scan_test");
  const std::vector<FaultClassId> list = collect(targets);
  std::vector<std::uint64_t> det(num_groups(list.size()), 0);
  if (!wide_fp_detect(&scan_in, seq, list, /*observe_scan_out=*/true,
                      /*keep_going=*/nullptr, det)) {
    const QueryKernels qk = plan_kernels(list, &scan_in, seq);
    for_each_group(exec_, list, policy(),
                   [&](GroupWorker& w, std::size_t g,
                       std::span<const FaultClassId> group) {
                     if (cancel_.stop_requested()) return;  // skip group
                     det[g] = w.run_detect(&scan_in, seq, group,
                                           /*observe_scan_out=*/true,
                                           /*early_exit=*/true,
                                           /*keep_going=*/nullptr, &cancel_,
                                           qk.choice(g));
                   });
  }
  FaultSet detected(num_classes());
  reduce_masks(list, det, detected);
  return detected;
}

FaultSimulator::DetectionTimes FaultSimulator::detection_times(
    const Vector3& scan_in, const Sequence& seq, const FaultSet& targets) {
  check_scan_in(scan_in);
  const QueryScope scope("detection_times");
  DetectionTimes times;
  times.targets = collect(&targets);
  times.first_po.assign(times.targets.size(), -1);
  times.state_diff.assign(times.targets.size(), util::Bitset(seq.length()));
  const std::span<std::int64_t> first_po(times.first_po);
  const std::span<util::Bitset> state_diff(times.state_diff);
  const QueryKernels qk = plan_kernels(times.targets, &scan_in, seq);
  for_each_group(exec_, times.targets, policy(),
                 [&](GroupWorker& w, std::size_t g,
                     std::span<const FaultClassId> group) {
                   if (cancel_.stop_requested()) return;  // skip group
                   const std::size_t base = g * kGroupSize;
                   w.run_times(scan_in, seq, group,
                               first_po.subspan(base, group.size()),
                               state_diff.subspan(base, group.size()),
                               &cancel_, qk.choice(g));
                 });
  return times;
}

FaultSimulator::PrefixDetection FaultSimulator::prefix_detection(
    const Vector3& scan_in, const Sequence& seq, const FaultSet& targets) {
  check_scan_in(scan_in);
  const QueryScope scope("prefix_detection");
  PrefixDetection out;
  out.targets = collect(&targets);
  out.first_po.assign(out.targets.size(), -1);
  out.detected = util::Bitset(num_classes());
  const std::span<std::int64_t> first_po(out.first_po);
  const QueryKernels qk = plan_kernels(out.targets, &scan_in, seq);
  std::vector<std::uint64_t> det(num_groups(out.targets.size()), 0);
  for_each_group(exec_, out.targets, policy(),
                 [&](GroupWorker& w, std::size_t g,
                     std::span<const FaultClassId> group) {
                   if (cancel_.stop_requested()) return;  // skip group
                   const std::size_t base = g * kGroupSize;
                   det[g] = w.run_prefix(scan_in, seq, group,
                                         first_po.subspan(base,
                                                          group.size()),
                                         &cancel_, qk.choice(g));
                 });
  reduce_masks(out.targets, det, out.detected);
  return out;
}

bool FaultSimulator::detects_all(const Vector3& scan_in, const Sequence& seq,
                                 const FaultSet& required) {
  check_scan_in(scan_in);
  const QueryScope scope("detects_all");
  const std::vector<FaultClassId> list = collect(&required);
  // Cooperative early exit: the first group that misses a fault flips
  // the flag; pending groups are skipped and in-flight groups abort at
  // their next frame boundary.  The answer never depends on the races —
  // the flag only ever moves true -> false, and it moves iff some group
  // genuinely fails.
  std::atomic<bool> all_ok{true};
  const sim::SimdConfig cfg = simd_config();
  const std::size_t ng = num_groups(list.size());
  if (cfg.lanes() > 1 && ng >= 2 && kernel_ == KernelMode::Full &&
      !faults_->model().frame_gated()) {
    // Wide fault-parallel plan: lanes() groups per pass, each chunk
    // checking its lanes' masks so later chunks still exit early.
    obs::set_gauge(obs::Gauge::SimdLaneWidth, cfg.bits);
    obs::add(obs::Counter::GroupsExecuted, ng);
    const std::size_t lanes = cfg.lanes();
    const std::size_t nchunks = (ng + lanes - 1) / lanes;
    std::vector<std::uint64_t> det(ng, 0);
    exec_.for_each_chunk(
        nchunks, policy(), [&](GroupWorker& w, std::size_t c) {
          if (!all_ok.load(std::memory_order_relaxed)) return;
          if (cancel_.stop_requested()) {
            all_ok.store(false, std::memory_order_relaxed);
            return;
          }
          const std::size_t first = c * lanes;
          const std::size_t n = std::min(lanes, ng - first);
          w.batch_engine(cfg).detect_groups(
              &scan_in, seq, list, first, n,
              /*observe_scan_out=*/true, /*early_exit=*/true, &all_ok,
              &cancel_, std::span<std::uint64_t>(det).subspan(first, n));
          for (std::size_t l = 0; l < n; ++l) {
            const std::size_t base = (first + l) * kGroupSize;
            const std::size_t gn = std::min(kGroupSize, list.size() - base);
            if (det[first + l] != group_slot_mask(gn)) {
              all_ok.store(false, std::memory_order_relaxed);
            }
          }
        });
    return all_ok.load(std::memory_order_relaxed);
  }
  const QueryKernels qk = plan_kernels(list, &scan_in, seq);
  for_each_group(exec_, list, policy(),
                 [&](GroupWorker& w, std::size_t g,
                     std::span<const FaultClassId> group) {
                   if (!all_ok.load(std::memory_order_relaxed)) return;
                   if (cancel_.stop_requested()) {
                     // Cancelled: give up on the remaining groups and
                     // report false (conservative — see set_cancel).
                     all_ok.store(false, std::memory_order_relaxed);
                     return;
                   }
                   const std::uint64_t det =
                       w.run_detect(&scan_in, seq, group,
                                    /*observe_scan_out=*/true,
                                    /*early_exit=*/true, &all_ok, &cancel_,
                                    qk.choice(g));
                   if (det != group_slot_mask(group.size())) {
                     all_ok.store(false, std::memory_order_relaxed);
                   }
                 });
  return all_ok.load(std::memory_order_relaxed);
}

FaultSet FaultSimulator::consistent_faults(
    const Vector3& scan_in, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, const FaultSet& targets) {
  check_scan_in(scan_in);
  assert(observed_pos.size() == seq.length());
  assert(observed_scan_out.size() == circuit_->num_flip_flops());
  const QueryScope scope("consistent_faults");
  const std::vector<FaultClassId> list = collect(&targets);
  const QueryKernels qk = plan_kernels(list, &scan_in, seq);
  std::vector<std::uint64_t> mismatch(num_groups(list.size()), 0);
  for_each_group(exec_, list, policy(),
                 [&](GroupWorker& w, std::size_t g,
                     std::span<const FaultClassId> group) {
                   // Skipped groups keep mismatch == 0: their faults
                   // remain (conservatively) consistent.
                   if (cancel_.stop_requested()) return;
                   mismatch[g] = w.run_consistency(scan_in, seq,
                                                   observed_pos,
                                                   observed_scan_out, group,
                                                   &cancel_, qk.choice(g));
                 });
  FaultSet consistent(num_classes());
  reduce_masks(list, mismatch, consistent, /*complement=*/true);
  return consistent;
}

std::vector<std::shared_ptr<const sim::NodeTrace>>
FaultSimulator::acquire_traces(std::span<const BatchTest> tests) {
  if (!faults_->model().frame_gated()) return {};
  std::vector<sim::TraceCache::Request> reqs(tests.size());
  // Masked scan-in copies (partial scan) must outlive get_batch; the
  // reserve keeps their addresses stable.
  std::vector<sim::Vector3> masked;
  const bool full_scan = scan_mask_.all();
  if (!full_scan) masked.reserve(tests.size());
  for (std::size_t i = 0; i < tests.size(); ++i) {
    reqs[i].seq = tests[i].seq;
    if (tests[i].scan_in == nullptr) continue;
    if (full_scan) {
      reqs[i].scan_in = tests[i].scan_in;
      continue;
    }
    sim::Vector3 m = *tests[i].scan_in;
    for (std::size_t k = 0; k < m.size(); ++k) {
      if (!scan_mask_.test(k)) m[k] = sim::V3::X;
    }
    masked.push_back(std::move(m));
    reqs[i].scan_in = &masked.back();
  }
  return trace_cache_.get_batch(reqs);
}

std::vector<FaultSet> FaultSimulator::detect_batch(
    std::span<const BatchTest> tests, const FaultSet* targets) {
  const std::size_t num_tests = tests.size();
  std::vector<FaultSet> out;
  out.reserve(num_tests);
  if (num_tests == 0) return out;
  const bool with_scan = tests.front().scan_in != nullptr;
  for (const BatchTest& t : tests) {
    assert(t.seq != nullptr);
    if ((t.scan_in != nullptr) != with_scan) {
      throw std::invalid_argument(
          "detect_batch: batch mixes scan and no-scan tests");
    }
    if (with_scan) check_scan_in(*t.scan_in);
  }
  const sim::SimdConfig cfg = simd_config();
  if (!use_batch(num_tests, cfg)) {
    for (const BatchTest& t : tests) {
      out.push_back(with_scan ? detect_scan_test(*t.scan_in, *t.seq, targets)
                              : detect_no_scan(*t.seq, targets));
    }
    return out;
  }
  const QueryScope scope("detect_batch");
  obs::set_gauge(obs::Gauge::SimdLaneWidth, cfg.bits);
  obs::set_gauge(obs::Gauge::PpsfpTestsPerPass, cfg.lanes());
  const std::vector<FaultClassId> list = collect(targets);
  const auto traces = acquire_traces(tests);
  std::vector<BatchTestRef> refs(num_tests);
  for (std::size_t i = 0; i < num_tests; ++i) {
    refs[i] = BatchTestRef{tests[i].scan_in, tests[i].seq,
                           traces.empty() ? nullptr : traces[i].get()};
  }
  const std::size_t ng = num_groups(list.size());
  const std::size_t lanes = cfg.lanes();
  // det[g * num_tests + i] = group g's mask under test i.
  std::vector<std::uint64_t> det(ng * num_tests, 0);
  for_each_group(
      exec_, list, policy(),
      [&](GroupWorker& w, std::size_t g,
          std::span<const FaultClassId> group) {
        BatchEngine& eng = w.batch_engine(cfg);
        for (std::size_t c = 0; c < num_tests; c += lanes) {
          if (cancel_.stop_requested()) return;  // skip rest of group
          const std::size_t n = std::min(lanes, num_tests - c);
          eng.detect_batch(
              std::span<const BatchTestRef>(refs).subspan(c, n), group,
              /*observe_scan_out=*/with_scan,
              std::span<std::uint64_t>(det).subspan(g * num_tests + c, n));
        }
      });
  std::vector<std::uint64_t> gm(ng);
  for (std::size_t i = 0; i < num_tests; ++i) {
    for (std::size_t g = 0; g < ng; ++g) gm[g] = det[g * num_tests + i];
    FaultSet s(num_classes());
    reduce_masks(list, gm, s);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<FaultSimulator::DetectionTimes> FaultSimulator::times_batch(
    std::span<const BatchTest> tests, const FaultSet& targets) {
  const std::size_t num_tests = tests.size();
  std::vector<DetectionTimes> out;
  out.reserve(num_tests);
  if (num_tests == 0) return out;
  for (const BatchTest& t : tests) {
    assert(t.seq != nullptr);
    if (t.scan_in == nullptr) {
      throw std::invalid_argument("times_batch: every test needs scan-in");
    }
    check_scan_in(*t.scan_in);
  }
  const sim::SimdConfig cfg = simd_config();
  if (!use_batch(num_tests, cfg)) {
    for (const BatchTest& t : tests) {
      out.push_back(detection_times(*t.scan_in, *t.seq, targets));
    }
    return out;
  }
  const QueryScope scope("times_batch");
  obs::set_gauge(obs::Gauge::SimdLaneWidth, cfg.bits);
  obs::set_gauge(obs::Gauge::PpsfpTestsPerPass, cfg.lanes());
  const std::vector<FaultClassId> list = collect(&targets);
  const auto traces = acquire_traces(tests);
  std::vector<BatchTestRef> refs(num_tests);
  for (std::size_t i = 0; i < num_tests; ++i) {
    refs[i] = BatchTestRef{tests[i].scan_in, tests[i].seq,
                           traces.empty() ? nullptr : traces[i].get()};
  }
  const std::size_t nt = list.size();
  const std::size_t lanes = cfg.lanes();
  // Flat test-major records: test i, target j at index i * nt + j.  The
  // engine's stride parameter lets each (group, chunk) call write its
  // slice of this buffer directly.
  std::vector<std::int64_t> flat_po(num_tests * nt, -1);
  std::vector<util::Bitset> flat_sd(num_tests * nt);
  for (std::size_t i = 0; i < num_tests; ++i) {
    for (std::size_t j = 0; j < nt; ++j) {
      flat_sd[i * nt + j] = util::Bitset(tests[i].seq->length());
    }
  }
  for_each_group(
      exec_, list, policy(),
      [&](GroupWorker& w, std::size_t g,
          std::span<const FaultClassId> group) {
        BatchEngine& eng = w.batch_engine(cfg);
        const std::size_t base = g * kGroupSize;
        for (std::size_t c = 0; c < num_tests; c += lanes) {
          if (cancel_.stop_requested()) return;  // skip rest of group
          const std::size_t n = std::min(lanes, num_tests - c);
          const std::size_t off = c * nt + base;
          const std::size_t len = (n - 1) * nt + group.size();
          eng.times_batch(std::span<const BatchTestRef>(refs).subspan(c, n),
                          group, /*stride=*/nt,
                          std::span<std::int64_t>(flat_po).subspan(off, len),
                          std::span<util::Bitset>(flat_sd).subspan(off, len));
        }
      });
  for (std::size_t i = 0; i < num_tests; ++i) {
    DetectionTimes dt;
    dt.targets = list;
    const auto b = static_cast<std::ptrdiff_t>(i * nt);
    const auto e = static_cast<std::ptrdiff_t>((i + 1) * nt);
    dt.first_po.assign(flat_po.begin() + b, flat_po.begin() + e);
    dt.state_diff.assign(std::make_move_iterator(flat_sd.begin() + b),
                         std::make_move_iterator(flat_sd.begin() + e));
    out.push_back(std::move(dt));
  }
  return out;
}

FaultSimulator::Session::Session(FaultSimulator& parent,
                                 const FaultSet& targets)
    : parent_(&parent),
      worker_(&parent.exec_.serial_worker()),
      targets_(parent.collect(&targets)),
      detected_(parent.num_classes()) {
  num_groups_ = fault::num_groups(targets_.size());
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  group_remaining_.resize(num_groups_);
  tdf_ = parent_->faults_->model().frame_gated();
  if (tdf_) {
    // Frame-gated: effects never persist, so only the fault-free machine
    // state is tracked.  prev_site_ starts at X — the first step has no
    // launch frame and activates nothing.
    free_state_.assign(nff, sim::V3::X);
    prev_site_.assign(targets_.size(), sim::V3::X);
    for (std::size_t g = 0; g < num_groups_; ++g) {
      const std::size_t base = g * kGroupSize;
      group_remaining_[g] = static_cast<std::uint32_t>(
          std::min(kGroupSize, targets_.size() - base));
    }
    return;
  }
  ff_values_.resize(num_groups_ * nff);
  // Build each group's injection map once; step() reuses them every
  // frame instead of re-registering the group's faults per frame.
  group_injections_.reserve(num_groups_);
  for (std::size_t g = 0; g < num_groups_; ++g) {
    const std::size_t base = g * kGroupSize;
    const std::size_t n = std::min(kGroupSize, targets_.size() - base);
    group_injections_.emplace_back(parent_->circuit_->num_nodes());
    build_group_injections(
        *parent_->faults_,
        std::span<const FaultClassId>(targets_.data() + base, n),
        group_injections_.back());
    worker_->sim().reset(&group_injections_[g]);
    worker_->sim().get_ff_values(
        std::span<sim::PackedV3>(ff_values_.data() + g * nff, nff));
    group_remaining_[g] = static_cast<std::uint32_t>(n);
  }
}

std::size_t FaultSimulator::Session::step(const sim::Vector3& pi) {
  if (tdf_) return step_tdf(pi);
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  std::size_t newly = 0;
  for (std::size_t g = 0; g < num_groups_; ++g) {
    if (group_remaining_[g] == 0) continue;  // group fully detected
    worker_->sim().set_ff_values(
        std::span<const sim::PackedV3>(ff_values_.data() + g * nff, nff));
    worker_->sim().apply_frame(pi, &group_injections_[g]);
    std::uint64_t det = worker_->po_detections();
    worker_->sim().latch(&group_injections_[g]);
    worker_->sim().get_ff_values(
        std::span<sim::PackedV3>(ff_values_.data() + g * nff, nff));
    while (det != 0) {
      const int bit = std::countr_zero(det);
      det &= det - 1;
      const FaultClassId id =
          targets_[g * kGroupSize + static_cast<std::size_t>(bit) - 1];
      if (!detected_.test(id)) {
        detected_.set(id);
        --group_remaining_[g];
        ++newly;
      }
    }
  }
  return newly;
}

std::size_t FaultSimulator::Session::step_tdf(const sim::Vector3& pi) {
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  sim::PackedSeqSim& sim = worker_->sim();
  const FaultList& faults = *parent_->faults_;

  // Fault-free frame: evaluate once, sample every target's stem value.
  sim.reset(nullptr);
  sim.load_state(free_state_, nullptr);
  sim.apply_frame(pi, nullptr);
  std::vector<sim::V3> cur_site(targets_.size());
  for (std::size_t k = 0; k < targets_.size(); ++k) {
    const Fault& f = faults.representative(targets_[k]);
    cur_site[k] = sim::slot(sim.value(f.node), 0);
  }
  sim.latch(nullptr);
  sim::Vector3 free_next(nff, sim::V3::X);
  for (std::size_t i = 0; i < nff; ++i) {
    free_next[i] = sim::slot(sim.captured(i), 0);
  }

  // Launch every active fault one-frame from the free state; effects do
  // not persist, so the latched-effect fitness signal is recomputed per
  // step from this frame's captures alone.
  std::size_t newly = 0;
  tdf_latched_ = 0;
  for (std::size_t g = 0; g < num_groups_; ++g) {
    const std::size_t base = g * kGroupSize;
    const std::size_t n = std::min(kGroupSize, targets_.size() - base);
    std::uint64_t act = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Fault& f = faults.representative(targets_[base + j]);
      const sim::V3 stale = f.value ? sim::V3::One : sim::V3::Zero;
      const sim::V3 fresh = f.value ? sim::V3::Zero : sim::V3::One;
      if (prev_site_[base + j] == stale && cur_site[base + j] == fresh) {
        act |= 1ULL << (j + 1);
      }
    }
    if (act == 0 || group_remaining_[g] == 0) continue;
    obs::add(obs::Counter::TdfActivations,
             static_cast<std::uint64_t>(std::popcount(act)));
    sim::InjectionMap& inj = worker_->injections();
    inj.clear();
    std::uint64_t bits = act;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      const Fault& f =
          faults.representative(targets_[base + static_cast<std::size_t>(bit) - 1]);
      inj.add(f.node, sim::kStemPin, f.value, 1ULL << bit);
    }
    sim.reset(&inj);
    sim.load_state(free_state_, &inj);
    sim.apply_frame(pi, &inj);
    std::uint64_t det = worker_->po_detections();
    sim.latch(&inj);
    for (std::size_t i = 0; i < nff; ++i) {
      const sim::PackedV3 w = sim.captured(i);
      const bool ref0 = (w.is0 & 1) != 0;
      const bool ref1 = (w.is1 & 1) != 0;
      if (ref0 == ref1) continue;
      tdf_latched_ += static_cast<std::size_t>(
          std::popcount(sim::differs_from_reference(w, ref1) & ~1ULL));
    }
    while (det != 0) {
      const int bit = std::countr_zero(det);
      det &= det - 1;
      const FaultClassId id = targets_[base + static_cast<std::size_t>(bit) - 1];
      if (!detected_.test(id)) {
        detected_.set(id);
        --group_remaining_[g];
        ++newly;
      }
    }
  }
  free_state_.swap(free_next);
  prev_site_.swap(cur_site);
  return newly;
}

std::size_t FaultSimulator::Session::latched_effects() const {
  if (tdf_) return tdf_latched_;
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  std::size_t effects = 0;
  for (std::size_t g = 0; g < num_groups_; ++g) {
    for (std::size_t i = 0; i < nff; ++i) {
      const sim::PackedV3 w = ff_values_[g * nff + i];
      const bool ref0 = (w.is0 & 1) != 0;
      const bool ref1 = (w.is1 & 1) != 0;
      if (ref0 == ref1) continue;
      effects += static_cast<std::size_t>(
          std::popcount(sim::differs_from_reference(w, ref1) & ~1ULL));
    }
  }
  return effects;
}

FaultSimulator::Session::Snapshot FaultSimulator::Session::snapshot() const {
  return Snapshot{ff_values_,   detected_,  group_remaining_,
                  free_state_,  prev_site_, tdf_latched_};
}

void FaultSimulator::Session::restore(const Snapshot& snap) {
  ff_values_ = snap.ff_values;
  detected_ = snap.detected;
  group_remaining_ = snap.group_remaining;
  free_state_ = snap.free_state;
  prev_site_ = snap.prev_site;
  tdf_latched_ = snap.tdf_latched;
}

}  // namespace scanc::fault
