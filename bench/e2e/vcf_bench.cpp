// vcf_bench — the repository's end-to-end load generator (bench/e2e).
//
// One process, two client threads pinned to cpus 2 and 3, one connection
// each, against a freshly spawned `vcfd --threads=2 --cpu-list=0,1`. Every
// workload is fixed work: each phase sends a stated number of keys, and
// throughput is keys over the phase's wall time, so the end state (load
// factor, resizes, freezes, inserted set) is the same on every commit.
// Clients are closed-loop: each waits for its answer before sending again,
// like a store that consults the filter before a disk read.
//
//   vcf_bench --vcfd=PATH --workload=dram --seed=7 --seconds=10 [--trace]
//             [--quick] [--selftest] [--out=DIR]
//
// A run is a few set-ups (spawn → listening → connected → ping, then
// SIGTERM) followed by rounds; each round spawns vcfd, runs the workload's
// fill, read and sync phases and stops vcfd again. The round count is
// floor(--seconds / the workload's nominal round length), the same on every
// commit. The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics, or, with --trace, the
// per-layer ones. bench/e2e/README.md lists both and what each should move.
//
// Correctness (exit 1): a lookup answering "absent" for a key vcfd ACKed, a
// transport error or non-OK status, or vcfd exiting non-zero on SIGTERM.
// Refusals (exit 64): a non-Release build, fewer than 4 usable cpus, or a
// vcfd process already running.
#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/flags.hpp"

namespace {

using namespace vcf::bench;

constexpr unsigned kSetupOnly = 9;  ///< extra set-ups measured per run

// Why each workload exists is recorded in BENCHMARK.json and README.md; the
// sizes are chosen so one round takes about `round_s` on the reference host.
std::vector<WorkloadSpec> Workloads() {
  const auto phase = [](const char* name, Shape shape, bool fill,
                        std::uint64_t keys, std::uint32_t request_keys,
                        double insert_share, double hit_share, double zipf) {
    PhaseSpec p;
    p.name = name;
    p.shape = shape;
    p.fill = fill;
    p.keys = keys;
    p.request_keys = request_keys;
    p.insert_share = insert_share;
    p.hit_share = hit_share;
    p.zipf = zipf;
    return p;
  };
  std::vector<WorkloadSpec> all;
  // Per-frame cost: single-key frames against an L3-resident table.
  all.push_back({"wire", "sharded:8:vcf", 23, 4.5,
                 {phase("fill", Shape::kWindow, true, 3'000'000, 64, 1, 0, 0),
                  phase("read", Shape::kWindow, false, 10'000'000, 64, 0.05,
                        0.5, 0),
                  phase("sync", Shape::kSync, false, 50'000, 1, 0.05, 0.5, 0)}});
  // The paper's case: a table larger than L3 filled to 95% in big batches.
  all.push_back(
      {"dram", "sharded:8:vcf", 26, 9.5,
       {phase("fill", Shape::kBatch, true, 63'753'421, 4096, 1, 0, 0),
        phase("read", Shape::kBatch, false, 20'000'000, 1024, 0, 0.5, 0),
        phase("sync", Shape::kSync, false, 40'000, 1, 0, 0.5, 0)}});
  // Online growth 2^20 → 2^24 slots through the non-sharded server path.
  all.push_back(
      {"elastic-grow", "elastic:vcf", 20, 7.5,
       {phase("fill", Shape::kBatch, true, 12'000'000, 256, 1, 0, 0),
        phase("read", Shape::kBatch, false, 10'000'000, 1024, 0, 0.5, 0),
        phase("sync", Shape::kSync, false, 40'000, 1, 0, 0.5, 0)}});
  // Frozen segments: ~6 auto-freezes, then Zipf-skewed reads of cold keys.
  // Short rounds, so a run's median covers three of them: which vcfd worker
  // runs each freeze decides which malloc arena keeps the build buffers,
  // and resident memory differs by ~60% between the two outcomes.
  all.push_back(
      {"tiered-cold", "tiered:vcf", 22, 3.2,
       {phase("fill", Shape::kBatch, true, 3'000'000, 1024, 1, 0, 0),
        phase("read", Shape::kBatch, false, 2'000'000, 1024, 0, 0.9, 1.05),
        phase("sync", Shape::kSync, false, 40'000, 1, 0, 0.9, 1.05)}});
  return all;
}

/// --quick: tables of 2^16..2^18 slots, keys scaled by the same factor.
WorkloadSpec Quick(WorkloadSpec w) {
  const unsigned target = w.filter.rfind("elastic:", 0) == 0 ? 16 : 18;
  const unsigned shift = w.slots_log2 > target ? w.slots_log2 - target : 0;
  w.slots_log2 -= shift;
  for (PhaseSpec& p : w.phases) {
    p.keys = std::max<std::uint64_t>(p.keys >> shift, 2 * p.request_keys);
  }
  return w;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank quantile of raw samples (exact, no bucketing).
double Quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

const PhaseResult* FindPhase(const RoundResult& r, const std::string& name) {
  for (const PhaseResult& p : r.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  for (int cpu = 0; cpu < 4; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) return 0;  // the fixed layout needs cpus 0-3
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// A process named vcfd, as `pgrep -x vcfd` would find it.
bool VcfdRunning() {
  DIR* d = opendir("/proc");
  if (d == nullptr) return false;
  bool found = false;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    if (ReadFirstLine(std::string("/proc/") + e->d_name + "/comm") == "vcfd") {
      found = true;
      break;
    }
  }
  closedir(d);
  return found;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// The end-to-end metrics of a set of untraced rounds. Only quantities that
/// repeat from run to run on a shared host are gated; wall-clock throughput
/// and latency drift with the host (README.md, "Repeatability") and are
/// reported by the traced run as `live.*` instead.
std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds,
                             const std::vector<double>& setups) {
  std::vector<double> rss;
  std::uint64_t fp = 0, negatives = 0;
  for (const RoundResult& r : rounds) {
    rss.push_back(static_cast<double>(r.rss_bytes) /
                  static_cast<double>(std::max<std::uint64_t>(r.acked_keys, 1)));
    for (const PhaseResult& p : r.phases) {
      fp += p.false_positives;
      negatives += p.negatives;
    }
  }
  return {
      {"setup_s", Median(setups), "s"},
      {"rss_bytes_per_key", Median(rss), "bytes"},
      {"fpr",
       static_cast<double>(fp) /
           static_cast<double>(std::max<std::uint64_t>(negatives, 1)),
       "fraction"},
  };
}

/// Wall-clock throughput and latency of each phase: per round, then the
/// median over rounds.
std::vector<Metric> LiveTiming(const std::vector<RoundResult>& rounds) {
  std::vector<Metric> m;
  const auto over_rounds = [&](const std::string& phase, auto&& value) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(value(*FindPhase(r, phase)));
    return Median(v);
  };
  for (const std::string phase : {"fill", "read", "sync"}) {
    const std::string n = "live." + phase + ".";
    m.push_back({n + "keys_s", over_rounds(phase, [](const PhaseResult& p) {
                   return static_cast<double>(p.keys) / p.wall_s;
                 }),
                 "keys/s"});
    for (const double q : {0.50, 0.99}) {
      m.push_back({n + (q == 0.5 ? "p50_us" : "p99_us"),
                   over_rounds(phase, [q](const PhaseResult& p) {
                     return Quantile(p.lat_ns, q) / 1e3;
                   }),
                   "us"});
    }
  }
  m.push_back({"live.fill.p999_us", over_rounds("fill", [](const PhaseResult& p) {
                 return Quantile(p.lat_ns, 0.999) / 1e3;
               }),
               "us"});
  m.push_back({"live.fill.max_ms", over_rounds("fill", [](const PhaseResult& p) {
                 return Quantile(p.lat_ns, 1.0) / 1e6;
               }),
               "ms"});
  return m;
}

/// The per-layer metrics: `untraced` are the run's untraced rounds (the
/// /proc and STATS numbers come from the first), `t` the same workload
/// traced, `rp` the in-process replay.
std::vector<Metric> PerLayer(const std::vector<RoundResult>& untraced,
                             const RoundResult& t, const ReplayResult& rp,
                             const std::vector<PhaseSpec>& phases) {
  std::vector<Metric> m = LiveTiming(untraced);
  const RoundResult& u = untraced.front();
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  // net: the read phase's frames through the codec, per frame.
  std::size_t read_index = 0, sync_index = 0, fill_index = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].name == "read") read_index = i;
    if (phases[i].name == "sync") sync_index = i;
    if (phases[i].fill) fill_index = i;
  }
  const ReplayResult::Stage& rd = rp.phases[read_index];
  const double frames = static_cast<double>(rd.frames);
  m.push_back({"net.encode_req_ns", per(rd.encode_req_ns, frames), "ns"});
  m.push_back({"net.decode_req_ns", per(rd.decode_req_ns, frames), "ns"});
  m.push_back({"net.encode_resp_ns", per(rd.encode_resp_ns, frames), "ns"});
  m.push_back({"net.decode_resp_ns", per(rd.decode_resp_ns, frames), "ns"});
  m.push_back({"net.wire_bytes_per_key",
               per(static_cast<double>(rd.wire_bytes),
                   static_cast<double>(rd.keys)),
               "bytes"});

  // server: vcfd's /proc counters across each phase of the untraced round.
  for (const PhaseResult& p : u.phases) {
    const double keys = static_cast<double>(p.keys);
    const double user = p.proc_after.utime_s - p.proc_before.utime_s;
    const double sys = p.proc_after.stime_s - p.proc_before.stime_s;
    const std::string s = "server." + p.name + ".";
    m.push_back({s + "user_ns_per_key", per(user * 1e9, keys), "ns"});
    m.push_back({s + "sys_ns_per_key", per(sys * 1e9, keys), "ns"});
    m.push_back({s + "cpu_util", per(user + sys, p.wall_s * 2), "fraction"});
    const double reqs = static_cast<double>(p.requests);
    m.push_back({s + "rw_syscalls_per_req",
                 per(static_cast<double>(p.proc_after.syscr + p.proc_after.syscw -
                                         p.proc_before.syscr -
                                         p.proc_before.syscw),
                     reqs),
                 "count"});
    m.push_back({s + "ctxsw_per_req",
                 per(static_cast<double>(p.proc_after.ctxsw - p.proc_before.ctxsw),
                     reqs),
                 "count"});
    m.push_back({s + "minflt_per_mkey",
                 per(static_cast<double>(p.proc_after.minflt - p.proc_before.minflt) *
                         1e6,
                     keys),
                 "count"});
  }
  m.push_back({"server.ping_rtt_us", Median(u.ping_us), "us"});
  // Live median request minus the replayed stages of the same request shape:
  // kernel, loopback, event loop and scheduling.
  for (std::size_t i : {read_index, sync_index}) {
    const PhaseResult& live = u.phases[i];
    m.push_back({"server." + live.name + ".residual_us",
                 (Quantile(live.lat_ns, 0.5) - Median(rp.phases[i].request_ns)) /
                     1e3,
                 "us"});
  }
  std::uint64_t lookups = 0;
  for (std::size_t i : {read_index, sync_index}) lookups += u.phases[i].keys;
  m.push_back({"server.seqlock_retries_per_mlookup",
               per(static_cast<double>(u.seqlock_retries) * 1e6,
                   static_cast<double>(lookups)),
               "count"});
  m.push_back({"server.seqlock_fallbacks",
               static_cast<double>(u.seqlock_fallbacks), "count"});

  // client: vcf_bench's own CPU, as a guard against measuring itself.
  double client_cpu = 0, keys = 0;
  for (const PhaseResult& p : u.phases) {
    m.push_back({"client." + p.name + ".cpu_util",
                 per(p.client_cpu_s, p.wall_s * kClients), "fraction"});
    client_cpu += p.client_cpu_s;
    keys += static_cast<double>(p.keys);
  }
  m.push_back({"client.cpu_ns_per_key", per(client_cpu * 1e9, keys), "ns"});

  // core: the filter vcfd builds, its bare leaf kernel, and the difference.
  const ReplayResult::Stage& fl = rp.phases[fill_index];
  const double filter_insert =
      per(fl.insert_core_ns, static_cast<double>(fl.insert_keys));
  const double filter_lookup =
      per(rd.lookup_core_ns, static_cast<double>(rd.lookup_keys));
  m.push_back({"core.filter_insert_ns_per_key", filter_insert, "ns"});
  m.push_back({"core.filter_lookup_ns_per_key", filter_lookup, "ns"});
  m.push_back({"core.kernel_insert_ns_per_key", rp.kernel_insert_ns_per_key, "ns"});
  m.push_back({"core.kernel_lookup_ns_per_key", rp.kernel_lookup_ns_per_key, "ns"});
  m.push_back({"core.route_insert_ns_per_key",
               filter_insert - rp.kernel_insert_ns_per_key, "ns"});
  m.push_back({"core.route_lookup_ns_per_key",
               filter_lookup - rp.kernel_lookup_ns_per_key, "ns"});
  m.push_back({"core.evictions_per_insert", rp.evictions_per_insert, "count"});
  m.push_back({"core.probes_per_lookup", rp.probes_per_lookup, "count"});
  m.push_back({"core.insert_failures", static_cast<double>(rp.insert_failures),
               "count"});
  m.push_back({"core.bits_per_key", rp.bits_per_key, "bits"});
  m.push_back({"core.replay_insert_max_ms", fl.insert_max_ms, "ms"});
  m.push_back({"core.load_factor", u.load_factor, "fraction"});
  m.push_back({"core.elastic_resizes", static_cast<double>(u.elastic_resizes),
               "count"});
  m.push_back({"core.elastic_dual_reads",
               static_cast<double>(u.elastic_dual_reads), "count"});
  m.push_back({"host.step_ns", u.host_step_ns, "ns"});

  // trace: what recording spans cost the live phases.
  for (std::size_t i = 0; i < u.phases.size(); ++i) {
    m.push_back({"trace." + u.phases[i].name + ".overhead_pct",
                 per((t.phases[i].wall_s - u.phases[i].wall_s) * 100,
                     u.phases[i].wall_s),
                 "%"});
  }
  return m;
}

int Usage(int code) {
  std::cerr << "usage: vcf_bench --vcfd=PATH --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace] [--quick] [--selftest] [--out=DIR] "
               "[--git_sha=SHA]\n"
               "workloads:";
  for (const WorkloadSpec& w : Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const vcf::Flags flags(argc, argv);
  if (flags.GetBool("help")) return Usage(0);
  RunOptions opt;
  opt.vcfd = flags.GetString("vcfd", "");
  opt.out_dir = flags.GetString("out", ".");
  opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  opt.selftest = flags.GetBool("selftest");
  const bool trace = flags.GetBool("trace");
  const bool quick = flags.GetBool("quick");
  const double seconds = flags.GetDouble("seconds", 10.0);
  const std::string name = flags.GetString("workload", "");

  const WorkloadSpec* found = nullptr;
  const std::vector<WorkloadSpec> all = Workloads();
  for (const WorkloadSpec& w : all) {
    if (w.name == name) found = &w;
  }
  if (found == nullptr || opt.vcfd.empty()) return Usage(64);
  const WorkloadSpec w = quick ? Quick(*found) : *found;

  if (std::string(VCF_BENCH_BUILD_TYPE) != "Release") {
    std::cerr << "error: vcf_bench is a " << VCF_BENCH_BUILD_TYPE
              << " build; benchmark only Release builds\n";
    return 64;
  }
  if (UsableCpus() < 4) {
    std::cerr << "error: needs cpus 0-3 (vcfd on 0,1; clients on 2,3)\n";
    return 64;
  }
  if (VcfdRunning()) {
    std::cerr << "error: a vcfd process is already running; stop it first\n";
    return 64;
  }
  mkdir(opt.out_dir.c_str(), 0755);

  const unsigned rounds =
      quick ? 1
            : std::max(1u, static_cast<unsigned>(seconds / w.round_s));
  std::vector<double> setups;
  std::vector<RoundResult> results;
  bool ok = true;
  std::string error;
  for (unsigned i = 0; i < (quick ? 1 : kSetupOnly) && ok; ++i) {
    const double s = MeasureSetup(w, opt, &error);
    ok = s >= 0;
    if (ok) setups.push_back(s);
  }
  // Untraced rounds; a traced run then adds one traced round and the replay.
  for (unsigned i = 0; i < rounds && ok; ++i) {
    results.push_back(RunRound(w, opt, nullptr));
    ok = results.back().ok;
    error = results.back().error;
    setups.push_back(results.back().setup_s);
  }
  Tracer tracer;
  RoundResult traced;
  ReplayResult replay;
  if (trace && ok) {
    traced = RunRound(w, opt, &tracer);
    ok = traced.ok;
    error = traced.error;
    if (ok) replay = Replay(w, opt, &tracer);
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<const RoundResult*> all_rounds;
  for (const RoundResult& r : results) all_rounds.push_back(&r);
  if (trace) all_rounds.push_back(&traced);
  for (const RoundResult* r : all_rounds) {
    for (const PhaseResult& p : r->phases) {
      attempted += p.keys;
      failed += p.errors + p.rejected;
    }
  }

  // Provenance, then every metric by name with its unit.
  const std::string backend =
      results.empty() ? std::string("unknown") : results.front().backend;
  utsname un{};
  uname(&un);
  std::map<std::string, std::string> prov = {
      {"workload", w.name},
      {"filter", w.filter + " slots_log2=" + std::to_string(w.slots_log2)},
      {"seed", std::to_string(opt.seed)},
      {"rounds", std::to_string(results.size())},
      {"setups", std::to_string(setups.size())},
      {"nproc", std::to_string(UsableCpus())},
      {"cpu_model", CpuModel()},
      {"kernel", un.release},
      {"git_sha", flags.GetString("git_sha", "unknown")},
      {"build_type", VCF_BENCH_BUILD_TYPE},
      {"backend", backend},
      {"thp", ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled")},
      {"pinning", std::string("vcfd --threads=") + kVcfdThreads +
                      " --cpu-list=" + kVcfdCpuList + "; clients on cpus 2,3"},
      {"mode", std::string(trace ? "trace" : "untraced") +
                   (quick ? " quick" : "") + (opt.selftest ? " selftest" : "")},
  };
  std::string prov_json = "{";
  for (const auto& [k, v] : prov) {
    std::cout << "# " << k << ": " << v << "\n";
    prov_json += (prov_json.size() > 1 ? ", \"" : "\"") + k + "\": \"" +
                 JsonEscape(v) + "\"";
  }
  prov_json += "}";
  for (std::size_t i = 0; i < all_rounds.size(); ++i) {
    std::cout << "# round " << i + 1 << (trace && i + 1 == all_rounds.size()
                                             ? " (traced):"
                                             : ":");
    for (const PhaseResult& p : all_rounds[i]->phases) {
      std::printf(" %s %.0f keys/s p50 %.1f us p99 %.1f us;", p.name.c_str(),
                  static_cast<double>(p.keys) / p.wall_s,
                  Quantile(p.lat_ns, 0.5) / 1e3, Quantile(p.lat_ns, 0.99) / 1e3);
    }
    std::printf(" host clock %.3f ns/step\n", all_rounds[i]->host_step_ns);
  }
  if (!ok) std::cout << "# error: " << error << "\n";

  std::vector<Metric> metrics;
  if (ok && trace) {
    metrics = PerLayer(results, traced, replay, w.phases);
    const std::string trace_path = opt.out_dir + "/trace-" + w.name + ".json";
    const std::string layers_path = opt.out_dir + "/layers-" + w.name + ".json";
    std::ofstream layers(layers_path);
    layers << "{\"provenance\": " << prov_json
           << ", \"metrics\": " << MetricsJson(metrics) << "}\n";
    if (!tracer.WriteChromeTrace(trace_path) || !layers.good()) {
      std::cerr << "error: cannot write " << trace_path << " / " << layers_path
                << "\n";
      return 1;
    }
    std::cout << "# trace: " << trace_path << "\n# layers: " << layers_path
              << "\n";
  } else if (ok) {
    metrics = EndToEnd(results, setups);
  }
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
            << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return ok ? 0 : 1;
}
