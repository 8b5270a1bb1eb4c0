// The live half of vcf_bench: request streams, client threads pinned next to
// a freshly spawned vcfd, and the correctness checks on every answer.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "client/vcf_client.hpp"

namespace vcf::bench {

using client::VcfClient;

namespace {

/// Never-inserted keys the self-test plants in the read phase's hit checks.
constexpr std::uint64_t kPlantedKeys = 16;
constexpr unsigned kPingsPerPhase = 100;

double ThreadCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

bool AckBit(const std::vector<std::uint64_t>& ack, std::uint64_t i) {
  return ((ack[i / 64] >> (i % 64)) & 1) != 0;
}

/// One request through VcfClient. `results` receives one answer per key;
/// false on a transport error or a non-OK status.
bool Send(VcfClient& client, Shape shape, const Request& r, bool* results) {
  const std::span<const std::uint64_t> keys(r.keys);
  switch (shape) {
    case Shape::kBatch:
      if (r.insert) {
        bool ok = false;
        client.InsertBatch(keys, results, &ok);
        return ok;
      }
      return client.LookupBatch(keys, results);
    case Shape::kWindow:
      return r.insert ? client.PipelineInserts(keys, results, keys.size())
                      : client.PipelineLookups(keys, results, keys.size());
    case Shape::kSync: {
      bool ok = false;
      results[0] = r.insert ? client.Insert(keys[0], &ok)
                            : client.Lookup(keys[0], &ok);
      return ok;
    }
  }
  return false;
}

struct PhaseSync {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
};

void RunClient(VcfClient& client, const KeySpace& ks, const PhaseSpec& phase,
               unsigned phase_index, unsigned c, const RunOptions& opt,
               std::vector<std::uint64_t>& ack, const Tracer* tracer,
               PhaseSync& sync, ClientPhase& out) {
  PinToCpu(kClientCpu0 + static_cast<int>(c));
  RequestGen gen(ks, phase, phase_index, c, opt.selftest);
  out.lat_ns.reserve(gen.requests());
  const auto results = std::make_unique<bool[]>(phase.request_keys);
  Request r;
  sync.ready.fetch_add(1);
  while (!sync.go.load(std::memory_order_acquire)) {
  }
  const double cpu0 = ThreadCpuSeconds();
  std::uint64_t n = 0;
  using Clock = std::chrono::steady_clock;
  while (gen.Next(&r)) {
    const auto t0 = Clock::now();
    const bool ok = Send(client, phase.shape, r, results.get());
    const auto t1 = Clock::now();
    const std::uint64_t lat = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    out.keys += r.keys.size();
    if (tracer != nullptr && n < kTracedRequests) {
      const std::uint64_t end = tracer->Now();
      out.spans.push_back({"client.request", RequestId(phase_index, c, n),
                           PhaseSpanId(phase_index), end - lat, lat,
                           c + 1});
    }
    ++n;
    if (!ok) {
      out.errors += r.keys.size();
      out.error = client.last_error();
      break;  // the connection is gone; the round fails
    }
    out.lat_ns.push_back(lat);
    for (std::size_t i = 0; i < r.keys.size(); ++i) {
      const bool answer = results[i];
      switch (r.kinds[i]) {
        case KeyKind::kFill:
          if (answer) {
            ack[r.index[i] / 64] |= std::uint64_t{1} << (r.index[i] % 64);
          }
          [[fallthrough]];
        case KeyKind::kFresh:
          ++(answer ? out.accepted : out.rejected);
          break;
        case KeyKind::kHit:
          if (!answer && AckBit(ack, r.index[i])) ++out.false_negatives;
          break;
        case KeyKind::kPlanted:
          if (!answer) ++out.false_negatives;
          break;
        case KeyKind::kMiss:
          ++out.negatives;
          if (answer) ++out.false_positives;
          break;
      }
    }
  }
  out.cpu_s = ThreadCpuSeconds() - cpu0;
}

/// Spawn → listening → clients and control connection up → one ping.
bool Bringup(const WorkloadSpec& w, const RunOptions& opt, VcfdProcess& vcfd,
             VcfClient* clients, VcfClient& control, std::string* error) {
  std::vector<std::string> args = w.FilterFlags();
  args.insert(args.end(), {"--port=0", std::string("--threads=") + kVcfdThreads,
                           std::string("--cpu-list=") + kVcfdCpuList});
  if (!vcfd.Start(opt.vcfd, args, opt.out_dir + "/vcfd-" + w.name + ".log",
                  error)) {
    return false;
  }
  // Data connections first: vcfd deals connections to its workers
  // round-robin, so the two clients land on different workers.
  for (unsigned c = 0; c < kClients; ++c) {
    if (!clients[c].Connect("127.0.0.1", vcfd.port())) {
      *error = "connect: " + clients[c].last_error();
      return false;
    }
  }
  if (!control.Connect("127.0.0.1", vcfd.port()) || !control.Ping()) {
    *error = "control connection: " + control.last_error();
    return false;
  }
  return true;
}

/// Nanoseconds per step of a dependent multiply-add chain (a fixed number
/// of cycles), median over cpus 0-3: the host's effective clock. On a
/// shared VM it drifts by tens of percent over minutes, and every timing
/// metric drifts with it; the probe lets a reader tell a slow host from a
/// slow commit.
double ProbeHostClock() {
  cpu_set_t saved;
  sched_getaffinity(0, sizeof(saved), &saved);
  std::vector<double> per_cpu;
  for (int cpu = 0; cpu < 4; ++cpu) {
    PinToCpu(cpu);
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t a = static_cast<std::uint64_t>(rep + 1);
      for (int i = 0; i < 1'000'000; ++i) {
        a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      asm volatile("" : : "r"(a));
      best = std::min(best, std::chrono::duration<double, std::nano>(
                                std::chrono::steady_clock::now() - t0)
                                    .count() /
                                1e6);
    }
    per_cpu.push_back(best);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
  std::sort(per_cpu.begin(), per_cpu.end());
  return (per_cpu[1] + per_cpu[2]) / 2;
}

}  // namespace

std::vector<std::string> WorkloadSpec::FilterFlags() const {
  return {"--filter=" + filter, "--slots_log2=" + std::to_string(slots_log2)};
}

KeySpace::KeySpace(std::uint64_t s, std::uint64_t fill)
    : seed(s), fill_keys(fill), base_((Mix64(s) & 0xFFFF) << 8) {}

std::uint64_t FillShareBegin(std::uint64_t fill_keys, unsigned client) {
  if (client == 0) return 0;
  if (client >= kClients) return fill_keys;
  const std::uint64_t share = (fill_keys / kClients + 63) / 64 * 64;
  return std::min(fill_keys, share * client);
}

RequestGen::RequestGen(const KeySpace& ks, const PhaseSpec& phase,
                       unsigned phase_index, unsigned client, bool selftest)
    : ks_(ks),
      phase_(phase),
      phase_index_(phase_index),
      client_(client),
      selftest_(selftest && client == 0 && phase.name == "read"),
      rng_(Mix64(ks.seed * 0x9E3779B97F4A7C15ULL + phase_index * 131 + client)) {
  std::uint64_t share;
  if (phase.fill) {
    next_fill_ = FillShareBegin(ks.fill_keys, client);
    fill_end_ = FillShareBegin(ks.fill_keys, client + 1);
    share = fill_end_ - next_fill_;
  } else {
    share = phase.keys / kClients + (client < phase.keys % kClients ? 1 : 0);
  }
  requests_ = (share + phase.request_keys - 1) / phase.request_keys;
  if (phase.zipf > 0.0 && ks.fill_keys > 0) {
    zipf_ = std::make_unique<ZipfGenerator>(
        std::min<std::uint64_t>(ks.fill_keys, std::uint64_t{1} << 20),
        phase.zipf, rng_.Next());
  }
  last_share_ = share - (requests_ == 0 ? 0 : (requests_ - 1) * phase.request_keys);
}

RequestGen::~RequestGen() = default;

bool RequestGen::Next(Request* r) {
  if (issued_ == requests_) return false;
  const std::size_t n =
      ++issued_ == requests_ ? last_share_ : phase_.request_keys;
  r->keys.resize(n);
  r->kinds.resize(n);
  r->index.resize(n);
  if (phase_.fill) {
    r->insert = true;
    for (std::size_t i = 0; i < n; ++i) {
      r->index[i] = next_fill_;
      r->keys[i] = ks_.FillKey(next_fill_++);
      r->kinds[i] = KeyKind::kFill;
    }
    return true;
  }
  r->insert = phase_.insert_share > 0.0 && rng_.NextDouble() < phase_.insert_share;
  for (std::size_t i = 0; i < n; ++i) {
    if (r->insert) {
      r->keys[i] = ks_.FreshKey(phase_index_, client_, fresh_++);
      r->kinds[i] = KeyKind::kFresh;
    } else if (ks_.fill_keys > 0 && rng_.NextDouble() < phase_.hit_share) {
      const std::uint64_t idx =
          zipf_ != nullptr
              ? Mix64(zipf_->NextRank() ^ ks_.seed) % ks_.fill_keys
              : rng_.Below(ks_.fill_keys);
      r->index[i] = idx;
      if (selftest_ && planted_ < kPlantedKeys) {
        r->keys[i] = ks_.PlantedKey(planted_++);
        r->kinds[i] = KeyKind::kPlanted;
      } else {
        r->keys[i] = ks_.FillKey(idx);
        r->kinds[i] = KeyKind::kHit;
      }
    } else {
      r->keys[i] = ks_.MissKey(phase_index_, client_, miss_++);
      r->kinds[i] = KeyKind::kMiss;
    }
  }
  return true;
}

double MeasureSetup(const WorkloadSpec& w, const RunOptions& opt,
                    std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  VcfdProcess vcfd;
  VcfClient clients[kClients];
  VcfClient control;
  if (!Bringup(w, opt, vcfd, clients, control, error)) return -1.0;
  const double setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (VcfClient& c : clients) c.Close();
  control.Close();
  if (const int code = vcfd.Stop(); code != 0) {
    *error = "vcfd exited with " + std::to_string(code) + " on SIGTERM";
    return -1.0;
  }
  return setup_s;
}

RoundResult RunRound(const WorkloadSpec& w, const RunOptions& opt,
                     Tracer* tracer) {
  RoundResult round;
  std::uint64_t fill_keys = 0;
  for (const PhaseSpec& p : w.phases) {
    if (p.fill) fill_keys = p.keys;
  }
  const KeySpace ks(opt.seed, fill_keys);
  std::vector<std::uint64_t> ack((fill_keys + 63) / 64 + 1, 0);

  const double clock_start = ProbeHostClock();
  const auto t0 = std::chrono::steady_clock::now();
  VcfdProcess vcfd;
  VcfClient clients[kClients];
  VcfClient control;
  if (!Bringup(w, opt, vcfd, clients, control, &round.error)) {
    round.ok = false;
    return round;
  }
  round.setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  for (unsigned pi = 0; pi < w.phases.size() && round.ok; ++pi) {
    const PhaseSpec& phase = w.phases[pi];
    PhaseResult result;
    result.name = phase.name;
    std::vector<ClientPhase> per(kClients);
    PhaseSync sync;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
      threads.emplace_back(RunClient, std::ref(clients[c]), std::cref(ks),
                           std::cref(phase), pi, c, std::cref(opt),
                           std::ref(ack), tracer, std::ref(sync),
                           std::ref(per[c]));
    }
    while (sync.ready.load() < kClients) std::this_thread::yield();
    ReadProcSample(vcfd.pid(), &result.proc_before);
    const std::uint64_t span_start = tracer != nullptr ? tracer->Now() : 0;
    const auto p0 = std::chrono::steady_clock::now();
    sync.go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    result.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
            .count();
    ReadProcSample(vcfd.pid(), &result.proc_after);
    if (tracer != nullptr) {
      tracer->Add({{phase.name == "fill"   ? "phase.fill"
                    : phase.name == "read" ? "phase.read"
                                           : "phase.sync",
                    PhaseSpanId(pi), 0, span_start,
                    tracer->Now() - span_start, 0}});
    }
    for (ClientPhase& c : per) {
      result.keys += c.keys;
      result.requests += c.lat_ns.size();
      result.lat_ns.insert(result.lat_ns.end(), c.lat_ns.begin(), c.lat_ns.end());
      result.errors += c.errors;
      result.rejected += c.rejected;
      result.accepted += c.accepted;
      result.false_negatives += c.false_negatives;
      result.negatives += c.negatives;
      result.false_positives += c.false_positives;
      result.client_cpu_s += c.cpu_s;
      if (result.error.empty() && !c.error.empty()) result.error = c.error;
      if (tracer != nullptr) tracer->Add(std::move(c.spans));
    }
    round.acked_keys += result.accepted;
    if (result.errors > 0) {
      round.ok = false;
      round.error = phase.name + ": request failed: " + result.error;
    } else if (result.false_negatives > 0) {
      round.ok = false;
      round.error = phase.name + ": " + std::to_string(result.false_negatives) +
                    " lookups answered absent for ACKed keys";
    }
    for (unsigned i = 0; i < kPingsPerPhase && round.ok; ++i) {
      const auto q0 = std::chrono::steady_clock::now();
      if (!control.Ping()) {
        round.ok = false;
        round.error = "ping: " + control.last_error();
      }
      round.ping_us.push_back(std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - q0)
                                  .count());
    }
    round.phases.push_back(std::move(result));
  }

  VcfClient::ServerStats stats;
  if (round.ok && !control.GetStats(stats)) {
    round.ok = false;
    round.error = "stats: " + control.last_error();
  }
  round.load_factor = stats.load_factor;
  round.seqlock_retries = stats.seqlock_retries;
  round.seqlock_fallbacks = stats.seqlock_fallbacks;
  round.elastic_resizes = stats.elastic_resizes;
  round.elastic_dual_reads = stats.elastic_dual_reads;
  ProcSample end;
  if (ReadProcSample(vcfd.pid(), &end)) round.rss_bytes = end.rss_bytes;
  round.backend = vcfd.Backend();

  for (VcfClient& c : clients) c.Close();
  control.Close();
  const int exit_code = vcfd.Stop();
  round.host_step_ns = (clock_start + ProbeHostClock()) / 2;
  if (exit_code != 0 && round.ok) {
    round.ok = false;
    round.error = "vcfd exited with " + std::to_string(exit_code) + " on SIGTERM";
  }
  return round;
}

void Tracer::Add(std::vector<Span> spans) {
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": \"%#" PRIx64
                 "\", \"parent\": \"%#" PRIx64 "\"}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3, s.id, s.parent,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vcf::bench
