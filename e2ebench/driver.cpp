// e2e_driver — the suite workloads' measured process.
//
// Runs the experiment runner exactly as the table binaries do (same
// flags, parsed by expt::parse_bench_args, same expt::run_configured
// entry point) and reports, on stdout, one JSON line per runner progress
// note plus the finished results:
//
//   {"note": "<runner note>", "t": <CLOCK_MONOTONIC s>, "counters": {..}}
//   {"end": <CLOCK_MONOTONIC s>, "counters": {..}}
//   {"run": "<expt::serialize_run text>"}        (one per circuit)
//
// The harness (run.py) turns consecutive notes into stage spans and
// counter snapshots into per-stage deltas.  Timestamps use the steady
// clock, which on Linux is CLOCK_MONOTONIC — the clock Python's
// time.monotonic() reads — so the harness can measure from its own
// spawn time.
//
// Extra flag (stripped before the runner flags are parsed):
//   --stop-at-atpg   raise the run's cancel token at the first ATPG note
//                    and exit: the set-up probe (circuit build, fault
//                    collapsing, simulator construction).
#include <chrono>
#include <cstring>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "expt/options.hpp"
#include "expt/runner.hpp"
#include "util/telemetry.hpp"

namespace {

using scanc::obs::Counter;

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void put_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void put_counters(std::ostream& out) {
  const scanc::obs::CounterSnapshot s = scanc::obs::snapshot_counters();
  out << "{";
  for (std::size_t i = 0; i < s.size(); ++i) {
    out << (i == 0 ? "" : ",") << '"'
        << scanc::obs::counter_name(static_cast<Counter>(i))
        << "\":" << s[i];
  }
  out << "}";
}

// One line per call; flushed so a crash still leaves every earlier note.
void emit(const char* key, const std::string& value_json) {
  std::ostringstream line;
  line << std::setprecision(17) << "{\"" << key << "\":" << value_json
       << ",\"t\":" << monotonic_seconds() << ",\"counters\":";
  put_counters(line);
  line << "}\n";
  std::cout << line.str() << std::flush;
}

}  // namespace

int main(int argc, char** argv) {
  bool stop_at_atpg = false;
  std::vector<const char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stop-at-atpg") == 0) {
      stop_at_atpg = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  try {
    scanc::expt::BenchConfig cfg = scanc::expt::parse_bench_args(
        static_cast<int>(args.size()), args.data());
    if (!cfg.runner.cancel.valid()) {
      cfg.runner.cancel = scanc::util::CancelToken::make();
    }
    const scanc::util::CancelToken cancel = cfg.runner.cancel;
    cfg.runner.progress = [cancel, stop_at_atpg](const char* what) {
      std::ostringstream note;
      put_json_string(note, what);
      emit("note", note.str());
      if (stop_at_atpg &&
          std::strcmp(what, "generating combinational test set C") == 0) {
        cancel.request_stop();
      }
    };
    const std::vector<scanc::expt::CircuitRun> runs =
        scanc::expt::run_configured(cfg);
    emit("end", "true");
    if (stop_at_atpg) return 0;
    for (const scanc::expt::CircuitRun& run : runs) {
      std::ostringstream line;
      line << "{\"run\":";
      put_json_string(line, scanc::expt::serialize_run(run));
      line << "}\n";
      std::cout << line.str();
    }
    std::cout << std::flush;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 1;
  }
}
