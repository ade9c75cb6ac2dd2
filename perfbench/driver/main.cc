// perfbench_driver: one benchmark run of one workload.  Prints one JSON
// line per timed replay for perfbench/run.py to check and aggregate.
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --spill_root=DIR [--spans_out=FILE]
//   perfbench_driver --calibrate
//
// The workload's fixed stream is generated from the seed before anything
// is timed.  Every replay builds a fresh deployment: setup_s covers
// building it and InitialTrain; replay_s covers the replay of the stream
// only.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "perfbench/driver/replay.h"
#include "perfbench/driver/workload.h"

namespace cdpipe {
namespace perfbench {
namespace {

// Timed replays of each kind a run makes however short --seconds is.
constexpr int kMinReplays = 3;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags[arg] = "1";
    } else {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

class JsonLine {
 public:
  void Str(const char* key, const std::string& value) {
    Key(key);
    out_ += "\"" + value + "\"";
  }
  void Int(const char* key, int64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }
  void Num(const char* key, double value) {
    Key(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
  }
  /// Exact value as a C99 hexfloat string (the correctness reference).
  void Hex(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    Str(key, buf);
  }
  void Array(const char* key, const std::vector<double>& values) {
    Key(key);
    out_ += "[";
    char buf[32];
    for (size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%.3f" : ",%.3f", values[i]);
      out_ += buf;
    }
    out_ += "]";
  }
  void Print() const { std::printf("{%s}\n", out_.c_str()); }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ",";
    out_ += "\"";
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
};

void PrintReplay(const WorkloadSpec& spec, const ReplayResult& r) {
  JsonLine json;
  json.Str("kind", "replay");
  json.Str("mode", r.mode);
  json.Str("workload", spec.name);
  json.Int("seed", static_cast<int64_t>(spec.seed));
  json.Int("chunks", r.chunks);
  json.Int("chunks_processed", r.chunks_processed);
  json.Int("degraded", r.degraded);
  json.Num("setup_s", r.setup_s);
  json.Num("setup_cpu_s", r.setup_cpu_s);
  json.Num("replay_s", r.replay_s);
  json.Num("replay_cpu_s", r.replay_cpu_s);
  json.Num("peak_rss_mb", r.peak_rss_mb);
  json.Hex("prequential_error_hex", r.prequential_error);
  json.Num("prequential_error", r.prequential_error);
  json.Int("total_work", r.total_work);
  json.Int("remat_chunks", r.remat_chunks);
  json.Int("memory_hits", r.storage.memory_hits);
  json.Int("disk_hits", r.storage.disk_hits);
  json.Int("sample_misses", r.storage.sample_misses);
  json.Int("chunks_spilled", r.storage.chunks_spilled);
  json.Int("spill_bytes_written", r.storage.spill_bytes_written);
  json.Int("spill_raw_bytes", r.storage.spill_raw_bytes);
  json.Int("disk_loads", r.storage.disk_loads);
  json.Int("prefetch_hits", r.storage.prefetch_hits);
  json.Int("requests_sent", r.load.sent);
  json.Int("requests_ok", r.load.ok);
  json.Int("requests_errors", r.load.errors);
  json.Int("requests_over_limit", r.load.over_limit);
  if (r.mode == "traced") {
    json.Array("latency_us", r.load.latency_us);
    json.Array("service_us", r.load.service_us);
    json.Array("lag_us", r.load.lag_us);
    for (size_t i = 0; i < r.span_us.size(); ++i) {
      const std::string key =
          std::string("span_") + SpanNameString(static_cast<SpanName>(i));
      json.Array(key.c_str(), r.span_us[i]);
    }
    json.Array("chunk_self_us", r.chunk_self_us);
  }
  json.Print();
}

/// A fixed dependent random-access walk over a 32 MiB table.  Its rate says
/// how fast this machine ran at the time; it never scales a metric.
int Calibrate() {
  constexpr size_t kSize = size_t{1} << 22;
  std::vector<uint64_t> table(kSize);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t& slot : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    slot = x;
  }
  constexpr int64_t kOps = 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  uint64_t index = 0;
  uint64_t sum = 0;
  for (int64_t i = 0; i < kOps; ++i) {
    const uint64_t value = table[index & (kSize - 1)];
    sum += value;
    index = value ^ static_cast<uint64_t>(i);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  JsonLine json;
  json.Str("kind", "calibration");
  json.Num("mops", static_cast<double>(kOps) / seconds / 1e6);
  json.Int("checksum_low_bits", static_cast<int64_t>(sum & 0xffff));
  json.Str("build_type", PERFBENCH_BUILD_TYPE);
  json.Print();
  return 0;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (flags.count("calibrate")) return Calibrate();
  WorkloadSpec spec;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  try {
    seed = std::stoull(flags.at("seed"));
    seconds = std::stod(flags.at("seconds"));
    trace = std::stoi(flags.at("trace"));
  } catch (const std::exception&) {
    trace = -1;
  }
  if (trace != 0 && trace != 1) {
    std::fprintf(stderr,
                 "perfbench_driver: --seed=N --seconds=S --trace=0|1 are "
                 "required\n");
    return 2;
  }
  if (!MakeWorkload(flags["workload"], seed, &spec)) {
    std::fprintf(stderr, "perfbench_driver: unknown --workload '%s'\n",
                 flags["workload"].c_str());
    return 2;
  }
  if (flags["spill_root"].empty()) {
    std::fprintf(stderr, "perfbench_driver: --spill_root=DIR is required\n");
    return 2;
  }
  // A private spill directory per process, removed on the way out.
  const std::filesystem::path spill_dir =
      std::filesystem::path(flags["spill_root"]) /
      ("spill-" + std::to_string(::getpid()));
  std::error_code error;
  std::filesystem::create_directories(spill_dir, error);
  if (error) {
    std::fprintf(stderr, "perfbench_driver: cannot create %s: %s\n",
                 spill_dir.c_str(), error.message().c_str());
    return 1;
  }

  const Inputs inputs = GenerateInputs(spec);
  // The plan: a warm-up replay, then timed replays until `seconds` have
  // passed and each kind ran kMinReplays times.  Untraced runs end with one
  // traced replica to check against; traced runs alternate the two kinds.
  bool spans_written = false;
  int untraced = 0;
  int traced = 0;
  double peak_rss_mb = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const bool done = elapsed >= seconds && untraced >= kMinReplays &&
                      (trace == 0 || traced >= kMinReplays);
    if (done && (trace == 1 || traced > 0)) break;
    const bool warm_up = i == 0;
    const bool run_traced =
        !warm_up && (done || (trace == 1 && traced <= untraced));
    Result<ReplayResult> result = Status::Internal("not run");
    if (run_traced) {
      result = RunTraced(spec, inputs, spill_dir.string(),
                         spans_written ? std::string() : flags["spans_out"]);
      spans_written = true;
    } else {
      result = RunUntraced(spec, inputs, spill_dir.string());
    }
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench_driver: replay of %s failed: %s\n",
                   spec.name.c_str(), result.status().ToString().c_str());
      std::filesystem::remove_all(spill_dir, error);
      return 1;
    }
    // The warm-up pays for page faults on fresh memory and lazy
    // initialization; it is not timed.  It is the replay that measures peak
    // memory, since later ones reuse the memory it left behind.
    if (warm_up) {
      peak_rss_mb = result->peak_rss_mb;
      continue;
    }
    result->peak_rss_mb = peak_rss_mb;
    (run_traced ? traced : untraced) += 1;
    PrintReplay(spec, *result);
    std::fflush(stdout);
  }
  std::filesystem::remove_all(spill_dir, error);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace cdpipe

int main(int argc, char** argv) { return cdpipe::perfbench::Main(argc, argv); }
