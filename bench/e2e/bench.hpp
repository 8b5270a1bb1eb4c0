// Shared types of the end-to-end load generator (vcf_bench): workload and
// phase definitions, the deterministic request stream both the live run and
// the in-process replay walk, and the span recorder behind --trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vcfd_process.hpp"
#include "workload/key_streams.hpp"

namespace vcf::bench {

/// How one request reaches vcfd.
enum class Shape : std::uint8_t {
  kBatch,   ///< one INSERT_BATCH / LOOKUP_BATCH frame of `request_keys` keys
  kWindow,  ///< `request_keys` single-key frames written back-to-back
  kSync,    ///< one single-key frame, answered before the next is sent
};

struct PhaseSpec {
  std::string name;  ///< "fill", "read" or "sync" (metric prefix)
  Shape shape = Shape::kBatch;
  bool fill = false;               ///< inserts the workload's fill key set
  std::uint64_t keys = 0;          ///< keys over both clients (fixed work)
  std::uint32_t request_keys = 1;  ///< keys per request
  double insert_share = 0.0;  ///< non-fill phases: requests inserting fresh keys
  double hit_share = 0.5;     ///< lookups drawn from the fill set (else never inserted)
  double zipf = 0.0;          ///< > 0: hit draws are Zipf(zipf)-skewed
};

struct WorkloadSpec {
  std::string name;
  std::string filter;  ///< vcfd --filter
  unsigned slots_log2 = 16;
  double round_s = 5.0;  ///< nominal length of one round on the reference host
  std::vector<PhaseSpec> phases;

  /// vcfd construction flags (also parsed by the replay, so both build the
  /// same filter).
  std::vector<std::string> FilterFlags() const;
};

/// The clients, CPUs and vcfd threads every workload runs with.
inline constexpr unsigned kClients = 2;
inline constexpr int kClientCpu0 = 2;  ///< client i is pinned to cpu 2 + i
inline constexpr const char* kVcfdThreads = "2";
inline constexpr const char* kVcfdCpuList = "0,1";

/// Keys of one round: a fill set and per-client streams of fresh and
/// never-inserted keys, all derived from --seed. Streams are pairwise
/// disjoint (UniformKeyAt is a bijection of (stream, index)).
struct KeySpace {
  KeySpace(std::uint64_t seed, std::uint64_t fill_keys);
  std::uint64_t FillKey(std::uint64_t i) const noexcept {
    return UniformKeyAt(base_, i);
  }
  std::uint64_t FreshKey(unsigned phase, unsigned client,
                         std::uint64_t i) const noexcept {
    return UniformKeyAt(base_ + 1 + phase * kClients + client, i);
  }
  std::uint64_t MissKey(unsigned phase, unsigned client,
                        std::uint64_t i) const noexcept {
    return UniformKeyAt(base_ + 64 + phase * kClients + client, i);
  }
  /// Never-inserted keys the self-test plants as "expected present".
  std::uint64_t PlantedKey(std::uint64_t i) const noexcept {
    return UniformKeyAt(base_ + 128, i);
  }
  std::uint64_t seed = 0;
  std::uint64_t fill_keys = 0;  ///< size of the fill set

 private:
  std::uint64_t base_ = 0;
};

/// First fill index client `c` inserts; shares are 64-aligned so each
/// client owns whole words of the ACK bitmap.
std::uint64_t FillShareBegin(std::uint64_t fill_keys, unsigned client);

enum class KeyKind : std::uint8_t {
  kFill,     ///< fill-set insert; `index` is its fill index
  kFresh,    ///< insert of a key used nowhere else
  kHit,      ///< lookup of fill-set key `index`
  kMiss,     ///< lookup of a never-inserted key
  kPlanted,  ///< self-test: never inserted, but checked as present
};

struct Request {
  bool insert = false;
  std::vector<std::uint64_t> keys;
  std::vector<KeyKind> kinds;
  std::vector<std::uint64_t> index;  ///< fill index for kFill / kHit
};

/// The deterministic request stream of one client in one phase. The live
/// run and the replay construct the same generator and see the same
/// requests in the same order.
class RequestGen {
 public:
  RequestGen(const KeySpace& ks, const PhaseSpec& phase, unsigned phase_index,
             unsigned client, bool selftest);
  ~RequestGen();

  /// The next request into *r; false when the client's share is done.
  bool Next(Request* r);
  std::uint64_t requests() const noexcept { return requests_; }

 private:
  const KeySpace& ks_;
  const PhaseSpec& phase_;
  unsigned phase_index_, client_;
  bool selftest_;
  std::uint64_t requests_ = 0;  ///< requests this client sends
  std::uint64_t issued_ = 0;
  std::uint64_t last_share_ = 0;  ///< keys in the final (short) request
  std::uint64_t next_fill_ = 0, fill_end_ = 0;
  std::uint64_t fresh_ = 0, miss_ = 0, planted_ = 0;
  Xoshiro256 rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
};

/// Id of request `n` of `client` in phase `phase_index`: spans of the live
/// request and of its replayed stages share it.
constexpr std::uint64_t RequestId(unsigned phase_index, unsigned client,
                                  std::uint64_t n) noexcept {
  return (std::uint64_t{1} << 62) |
         (static_cast<std::uint64_t>(phase_index) << 48) |
         (static_cast<std::uint64_t>(client) << 40) | n;
}
constexpr std::uint64_t PhaseSpanId(unsigned phase_index) noexcept {
  return (std::uint64_t{1} << 56) | phase_index;
}

/// Spans are recorded for the first kTracedRequests requests of each client
/// in each phase (the trace file stays small); metrics use every request.
inline constexpr std::uint64_t kTracedRequests = 1024;

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;  ///< since Tracer::epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span store; written once, as Chrome trace-event JSON, when the
/// run ends. Each thread appends to its own vector.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  Tracer() : epoch_(Clock::now()) {}
  std::uint64_t Now() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }
  void Add(std::vector<Span> spans);
  bool WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// What one client saw in one phase.
struct ClientPhase {
  std::vector<std::uint64_t> lat_ns;  ///< one per request
  std::uint64_t keys = 0;             ///< keys attempted
  std::uint64_t errors = 0;           ///< keys in failed requests
  std::uint64_t rejected = 0;         ///< inserts answered "not accepted"
  std::uint64_t accepted = 0;         ///< inserts answered "accepted"
  std::uint64_t false_negatives = 0;
  std::uint64_t negatives = 0;        ///< never-inserted lookups
  std::uint64_t false_positives = 0;
  double cpu_s = 0.0;                 ///< this client thread's CPU time
  std::string error;
  std::vector<Span> spans;
};

struct PhaseResult {
  std::string name;
  double wall_s = 0.0;
  std::uint64_t keys = 0;
  std::uint64_t requests = 0;
  std::vector<std::uint64_t> lat_ns;  ///< both clients
  std::uint64_t errors = 0, rejected = 0, accepted = 0;
  std::uint64_t false_negatives = 0, negatives = 0, false_positives = 0;
  double client_cpu_s = 0.0;
  ProcSample proc_before, proc_after;
  std::string error;
};

struct RoundResult {
  double setup_s = 0.0;
  double host_step_ns = 0.0;  ///< host clock probe around the round
  std::vector<PhaseResult> phases;
  std::vector<double> ping_us;
  std::uint64_t rss_bytes = 0;
  std::uint64_t acked_keys = 0;  ///< inserts vcfd answered "accepted"
  // STATS at the end of the round (trailer fields are 0 when absent).
  double load_factor = 0.0;
  std::uint64_t seqlock_retries = 0, seqlock_fallbacks = 0;
  std::uint64_t elastic_resizes = 0, elastic_dual_reads = 0;
  std::string backend = "unknown";
  bool ok = true;  ///< every correctness check passed
  std::string error;
};

struct RunOptions {
  std::string vcfd;     ///< path of the vcfd binary
  std::string out_dir;  ///< vcfd logs and trace files
  std::uint64_t seed = 1;
  bool selftest = false;
};

/// One round: a fresh vcfd, every phase of `w` in order, SIGTERM. With a
/// tracer, client.request spans are recorded under each phase's span.
RoundResult RunRound(const WorkloadSpec& w, const RunOptions& opt,
                     Tracer* tracer);

/// Spawn → listening → clients connected → ping; then SIGTERM. Returns the
/// set-up time, or a negative value (with *error) when vcfd failed to start
/// or exit cleanly.
double MeasureSetup(const WorkloadSpec& w, const RunOptions& opt,
                    std::string* error);

/// Per-layer numbers from the single-threaded in-process replay.
struct ReplayResult {
  struct Stage {
    double encode_req_ns = 0, decode_req_ns = 0, encode_resp_ns = 0,
           decode_resp_ns = 0;
    std::uint64_t frames = 0, keys = 0, lookup_keys = 0, insert_keys = 0;
    double lookup_core_ns = 0, insert_core_ns = 0;
    std::uint64_t wire_bytes = 0;
    std::vector<double> request_ns;  ///< replayed stage sum per request
    double insert_max_ms = 0;        ///< slowest insert request in the core
  };
  std::vector<Stage> phases;
  double evictions_per_insert = 0, probes_per_lookup = 0;
  std::uint64_t insert_failures = 0;
  double bits_per_key = 0;
  double kernel_insert_ns_per_key = 0, kernel_lookup_ns_per_key = 0;
};

ReplayResult Replay(const WorkloadSpec& w, const RunOptions& opt,
                    Tracer* tracer);

}  // namespace vcf::bench
