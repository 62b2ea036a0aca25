// load_gen — load generator / soak driver for the compaction service.
//
//   load_gen --socket=PATH [--jobs=N] [--clients=N (1-256)] [--hostile-pct=P]
//            [--deadline-pct=P] [--seed=N] [--json-out=PATH] [--quiet]
//
// Drives `scanc-serve` with a mixed workload: many small-to-medium
// synthetic-circuit jobs at random priorities (a fraction carrying tight
// deadlines), plus a configurable fraction of hostile traffic —
// truncated frames, oversized length prefixes, garbage JSON, malformed
// specs, and submit-then-vanish clients.  Every *accepted* job is then
// tracked to a terminal state; clients transparently reconnect, so a
// mid-run daemon SIGTERM + restart (the CI soak) is survived rather
// than special-cased — resumed jobs simply finish after the restart.
//
// Reports client-observed latency percentiles (p50/p99), saturation
// throughput, and terminal-state counts; --json-out writes the same
// numbers for bench/check_service_baseline.py.  Exit status is 0 only
// if the daemon answered a final ping and every accepted job reached a
// terminal state.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "svc/client.hpp"
#include "svc/wire.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {

using scanc::util::parse_uint;

using scanc::svc::Client;
using scanc::svc::Json;

struct Options {
  std::string socket_path;
  std::size_t jobs = 200;
  std::size_t clients = 4;
  std::size_t hostile_pct = 0;
  std::size_t deadline_pct = 5;
  std::uint64_t seed = 1;
  std::string json_out;
  bool quiet = false;
};

struct Totals {
  std::mutex mutex;
  std::vector<double> latencies_ms;  // accepted jobs only
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t quarantined = 0;
  std::size_t recovered = 0;  // done with attempts > 1
  std::size_t hostile = 0;
  std::size_t reconnects = 0;
  std::size_t lost = 0;  // accepted but never observed terminal
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return a.c_str() + std::strlen(prefix);
    };
    if (a.rfind("--socket=", 0) == 0) {
      opt.socket_path = value("--socket=");
    } else if (a.rfind("--jobs=", 0) == 0) {
      opt.jobs = parse_uint("--jobs", value("--jobs="));
    } else if (a.rfind("--clients=", 0) == 0) {
      // One thread per client.
      opt.clients = parse_uint("--clients", value("--clients="), 1, 256);
    } else if (a.rfind("--hostile-pct=", 0) == 0) {
      opt.hostile_pct =
          parse_uint("--hostile-pct", value("--hostile-pct="), 0, 100);
    } else if (a.rfind("--deadline-pct=", 0) == 0) {
      opt.deadline_pct =
          parse_uint("--deadline-pct", value("--deadline-pct="), 0, 100);
    } else if (a.rfind("--seed=", 0) == 0) {
      opt.seed = parse_uint("--seed", value("--seed="));
    } else if (a.rfind("--json-out=", 0) == 0) {
      opt.json_out = value("--json-out=");
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      std::cerr << "load_gen: unknown argument: " << a << "\n";
      return false;
    }
  }
  if (opt.socket_path.empty()) {
    std::cerr << "load_gen: --socket=PATH is required\n";
    return false;
  }
  return true;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A job spec of one of a handful of repeating shapes (so the daemon's
/// shared-state registry sees reuse) with per-job measurement seeds.
Json make_spec(scanc::util::Rng& rng, const Options& opt,
               const std::string& id) {
  static constexpr struct {
    const char* name;
    std::uint64_t inputs, outputs, ffs, gates;
  } kShapes[] = {
      {"lg-a", 4, 3, 4, 40},  {"lg-b", 5, 4, 6, 70},  {"lg-c", 6, 4, 8, 110},
      {"lg-d", 4, 4, 5, 55},  {"lg-e", 7, 5, 10, 160}, {"lg-f", 5, 3, 7, 90},
  };
  const auto& shape = kShapes[rng.below(std::size(kShapes))];
  Json gen = Json::object();
  gen.set("name", Json::string(shape.name));
  gen.set("inputs", Json::integer(shape.inputs));
  gen.set("outputs", Json::integer(shape.outputs));
  gen.set("flip_flops", Json::integer(shape.ffs));
  gen.set("gates", Json::integer(shape.gates));
  gen.set("seed", Json::integer(7));

  Json spec = Json::object();
  spec.set("id", Json::string(id));
  spec.set("kind", Json::string("gen"));
  spec.set("gen", std::move(gen));
  spec.set("seed", Json::integer(rng.range(1, 1u << 20)));
  spec.set("t0_length", Json::integer(rng.range(30, 90)));
  spec.set("priority", Json::integer(rng.range(0, 3)));
  if (rng.below(100) < opt.deadline_pct) {
    spec.set("deadline_seconds", Json::number(0.05));
  }
  return spec;
}

/// One shot of hostile traffic on a fresh connection.  Returns after the
/// connection is closed; the daemon must survive all of these.
void hostile_shot(const Options& opt, scanc::util::Rng& rng) {
  int fd = -1;
  try {
    fd = scanc::svc::connect_unix(opt.socket_path,
                                  scanc::util::Deadline::after(2.0));
  } catch (...) {
    return;  // daemon restarting; the slot still counts as hostile
  }
  const std::uint64_t attack = rng.below(4);
  const auto send_all = [&](const void* buf, std::size_t len) {
    (void)::send(fd, buf, len, MSG_NOSIGNAL);
  };
  switch (attack) {
    case 0: {  // garbage JSON in a well-formed frame
      static const char kGarbage[] = "{\"op\": \x01\x02 nonsense!!";
      const std::uint32_t len = sizeof(kGarbage) - 1;
      const unsigned char hdr[4] = {
          static_cast<unsigned char>(len >> 24),
          static_cast<unsigned char>(len >> 16),
          static_cast<unsigned char>(len >> 8),
          static_cast<unsigned char>(len)};
      send_all(hdr, 4);
      send_all(kGarbage, len);
      break;
    }
    case 1: {  // oversized length prefix
      const unsigned char hdr[4] = {0x7F, 0xFF, 0xFF, 0xFF};
      send_all(hdr, 4);
      break;
    }
    case 2: {  // truncated frame: promise 100 bytes, send 10, vanish
      const unsigned char hdr[4] = {0, 0, 0, 100};
      send_all(hdr, 4);
      send_all("0123456789", 10);
      break;
    }
    default: {  // malformed spec (valid JSON, rejected typed)
      try {
        Client c;
        c.connect(opt.socket_path, 2.0);
        Json spec = Json::object();
        spec.set("id", Json::string("../../etc/passwd"));
        spec.set("kind", Json::string("suite"));
        spec.set("circuit", Json::string("no-such-circuit"));
        (void)c.submit_raw(std::move(spec), 5.0);
      } catch (...) {
      }
      break;
    }
  }
  ::close(fd);
}

void client_loop(const Options& opt, Totals& totals, std::size_t index) {
  std::uint64_t mix = opt.seed;
  scanc::util::Rng rng(scanc::util::splitmix64(mix) + index * 7919);
  Client client;
  const auto connect = [&]() -> bool {
    for (int attempt = 0; attempt < 40; ++attempt) {
      try {
        client.connect(opt.socket_path, 1.0);
        return true;
      } catch (...) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    }
    return false;
  };
  if (!connect()) return;

  const std::size_t share =
      opt.jobs / opt.clients + (index < opt.jobs % opt.clients ? 1 : 0);
  std::vector<std::string> open_ids;
  for (std::size_t n = 0; n < share; ++n) {
    if (opt.hostile_pct != 0 && rng.below(100) < opt.hostile_pct) {
      hostile_shot(opt, rng);
      {
        std::lock_guard<std::mutex> lock(totals.mutex);
        totals.hostile++;
      }
      continue;
    }
    const std::string id = "lg-" + std::to_string(opt.seed) + "-" +
                           std::to_string(index) + "-" + std::to_string(n);
    Json spec = make_spec(rng, opt, id);
    const double submitted_at = now_s();
    bool accepted = false;
    // Submit with reconnect: idempotent ids make a retried submit safe
    // across a daemon restart.
    for (int attempt = 0; attempt < 40; ++attempt) {
      try {
        if (!client.connected() && !connect()) break;
        const Json resp = client.submit_raw(spec, 10.0);
        const Json* okv = resp.find("ok");
        if (okv == nullptr || !okv->as_bool()) break;  // typed rejection
        const Json* acc = resp.find("accepted");
        accepted = acc != nullptr && acc->is_bool() && acc->as_bool();
        break;
      } catch (...) {
        std::lock_guard<std::mutex> lock(totals.mutex);
        totals.reconnects++;
      }
    }
    {
      std::lock_guard<std::mutex> lock(totals.mutex);
      totals.submitted++;
      if (!accepted) {
        totals.rejected++;
        continue;
      }
      totals.accepted++;
    }

    // Track to terminal, reconnecting across restarts.
    std::string state;
    std::uint64_t attempts = 0;
    const double give_up = now_s() + 120.0;
    while (now_s() < give_up) {
      try {
        if (!client.connected() && !connect()) break;
        const Json resp = client.wait(id, 10.0);
        const Json* jobv = resp.find("job");
        if (jobv == nullptr) break;  // not_found after restart data loss
        state = jobv->find("state")->as_string();
        if (const Json* a = jobv->find("attempts")) attempts = a->as_u64();
        if (state != "queued" && state != "running") break;
        state.clear();
      } catch (...) {
        std::lock_guard<std::mutex> lock(totals.mutex);
        totals.reconnects++;
      }
    }
    const double latency_ms = (now_s() - submitted_at) * 1000.0;
    std::lock_guard<std::mutex> lock(totals.mutex);
    if (state == "done") {
      totals.done++;
      totals.latencies_ms.push_back(latency_ms);
      if (attempts > 1) totals.recovered++;
    } else if (state == "failed") {
      totals.failed++;
      totals.latencies_ms.push_back(latency_ms);
    } else if (state == "shed") {
      totals.shed++;
    } else if (state == "quarantined") {
      totals.quarantined++;
    } else {
      totals.lost++;
    }
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "load_gen: " << e.what() << "\n";
    return 2;
  }

  Totals totals;
  const double started = now_s();
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  for (std::size_t i = 0; i < opt.clients; ++i) {
    threads.emplace_back(client_loop, std::cref(opt), std::ref(totals), i);
  }
  for (std::thread& t : threads) t.join();
  const double seconds = now_s() - started;

  bool daemon_alive = false;
  {
    Client probe;
    try {
      probe.connect(opt.socket_path, 5.0);
      daemon_alive = probe.ping();
    } catch (...) {
    }
  }

  const double p50 = percentile(totals.latencies_ms, 0.50);
  const double p99 = percentile(totals.latencies_ms, 0.99);
  const double throughput =
      seconds > 0.0 ? static_cast<double>(totals.done) / seconds : 0.0;

  if (!opt.quiet) {
    std::cout << "load_gen: " << totals.submitted << " submitted, "
              << totals.accepted << " accepted, " << totals.rejected
              << " rejected, " << totals.hostile << " hostile\n"
              << "  terminal: " << totals.done << " done, " << totals.failed
              << " failed, " << totals.shed << " shed, "
              << totals.quarantined << " quarantined, " << totals.lost
              << " lost\n"
              << "  recovered (done after retry): " << totals.recovered
              << ", reconnects: " << totals.reconnects << "\n"
              << "  latency p50 " << p50 << " ms, p99 " << p99
              << " ms; throughput " << throughput << " done/s over "
              << seconds << " s\n"
              << "  daemon alive at end: " << (daemon_alive ? "yes" : "NO")
              << "\n";
  }

  if (!opt.json_out.empty()) {
    Json j = Json::object();
    j.set("schema", Json::string("scanc-service-load-v1"));
    j.set("jobs", Json::integer(opt.jobs));
    j.set("clients", Json::integer(opt.clients));
    j.set("hostile_pct", Json::integer(opt.hostile_pct));
    j.set("submitted", Json::integer(totals.submitted));
    j.set("accepted", Json::integer(totals.accepted));
    j.set("rejected", Json::integer(totals.rejected));
    j.set("hostile", Json::integer(totals.hostile));
    j.set("done", Json::integer(totals.done));
    j.set("failed", Json::integer(totals.failed));
    j.set("shed", Json::integer(totals.shed));
    j.set("quarantined", Json::integer(totals.quarantined));
    j.set("lost", Json::integer(totals.lost));
    j.set("recovered", Json::integer(totals.recovered));
    j.set("reconnects", Json::integer(totals.reconnects));
    j.set("p50_ms", Json::number(p50));
    j.set("p99_ms", Json::number(p99));
    j.set("throughput_done_per_s", Json::number(throughput));
    j.set("seconds", Json::number(seconds));
    j.set("daemon_alive", Json::boolean(daemon_alive));
    std::ofstream out(opt.json_out);
    out << j.dump() << "\n";
    if (!out) {
      std::cerr << "load_gen: failed to write " << opt.json_out << "\n";
      return 2;
    }
  }

  // Success = the daemon survived and no accepted job vanished.
  return (daemon_alive && totals.lost == 0) ? 0 : 1;
}
