// The benchmark's workloads: the inputs each one sends, and the seeded
// request stream a run draws from them.
//
// Inputs are fixed per workload (zoo programs, the shipped examples, and
// generated programs pinned by the committed expected-verdict table). The
// run seed decides the stream: the order of each pass over the inputs, and
// for service_serial which engine each request names and which requests are
// resubmitted (half of them alpha-renamed). Every pass sends every input
// once, so two seeds measure the same programs in a different order and the
// figures of different seeds can be compared.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/verifier.hpp"
#include "oracle.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace mcsym_bench {

enum class Workload : std::uint8_t { kDporParallel, kSymbolicSharded, kServiceSerial };

[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
/// Why the workload is in the benchmark (recorded in every result).
[[nodiscard]] const char* workload_why(Workload workload);

struct InputError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One distinct program a workload sends.
struct Input {
  std::string name;
  mcsym::mcapi::Program program;
  std::vector<mcsym::encode::Property> properties;  // from `property` lines
  std::string text;     // service_serial: the .mcp source sent
  std::string renamed;  // service_serial: an alpha-renamed spelling of it
  mcsym::support::Hash128 fingerprint;
  bool stateful = false;
  /// False for programs that can spin forever (only stateful matching ends
  /// their exploration): they are sent to the explorers only, and the
  /// traced run's record and engine probes skip them.
  bool terminates = true;
  Expectation expect;
  std::vector<Engine> engines;  // engines a request on this input may name
};

struct Request {
  std::uint32_t input = 0;
  Engine engine = Engine::kDporOptimal;
  bool resubmit = false;  // repeats an earlier request of the session
  bool renamed = false;   // sends Input::renamed instead of Input::text
};

struct InputPaths {
  std::string examples_dir;  // the project's examples/ directory
  std::string table_path;    // the committed expected-verdict table
};

struct WorkloadInputs {
  Workload workload = Workload::kDporParallel;
  /// A deque, so adding an input never relocates the others: a copied
  /// mcapi::Program's symbol index still views the original's spellings.
  std::deque<Input> inputs;
  std::uint32_t workers = 1;  // threads per request
};

/// Builds the workload's inputs; throws InputError when an input does not
/// match its table row or does not survive a text round trip.
[[nodiscard]] WorkloadInputs make_inputs(Workload workload, const InputPaths& paths);

/// The request a run sends for `r`.
[[nodiscard]] mcsym::check::VerifyRequest verify_request(const WorkloadInputs& w,
                                                         const Request& r);

/// Seeded, endless stream of requests. A pass sends every input once in a
/// seeded order; on service_serial a pass is a session, which also draws
/// each request's engine and the resubmissions.
class RequestStream {
 public:
  RequestStream(const WorkloadInputs& inputs, std::uint64_t seed);

  /// The next pass (a session on service_serial).
  const std::vector<Request>& next_pass();

 private:
  const WorkloadInputs* w_;
  mcsym::support::Rng rng_;
  std::vector<Request> pass_;
};

/// Digest over the inputs' canonical fingerprints, in order.
[[nodiscard]] std::string input_set_digest(const WorkloadInputs& w);
/// Digest over the first `n` requests of the seeded stream.
[[nodiscard]] std::string stream_digest(const WorkloadInputs& w, std::uint64_t seed,
                                        std::size_t n);

/// Renames every thread, endpoint, local and label of an .mcp text.
[[nodiscard]] std::string alpha_rename(std::string_view text);

/// Generates the expected-verdict table: `per_variant` generated programs
/// per generator variant whose explicit exploration stays under the size
/// limit and on which every other engine agrees. Progress goes to stderr.
[[nodiscard]] std::vector<TableRow> make_table(std::uint32_t per_variant);

}  // namespace mcsym_bench
