// The benchmark's own tests: percentile rules, span self-time arithmetic,
// the oracle, and seed determinism of the inputs.
//
//   mcsym_bench_selftest --examples DIR --table FILE
#include <cstdio>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "check/verifier.hpp"
#include "check/workloads.hpp"
#include "inputs.hpp"
#include "mcapi/canonical.hpp"
#include "oracle.hpp"
#include "span_trace.hpp"
#include "text/program_text.hpp"

namespace {

using namespace mcsym_bench;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(nearest_rank(v, 0.5) == 50);
  CHECK(nearest_rank(v, 0.9) == 90);
  CHECK(nearest_rank(v, 1.0) == 100);
  CHECK(nearest_rank({7.0}, 0.9) == 7);
  CHECK(median({3.0, 1.0, 2.0}) == 2);
  // 100 samples: p90 is the 90th, ten lie beyond it.
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(percentile_supported(100, 0.9));
  // 99 samples: rank ceil(89.1) = 90, only nine beyond.
  CHECK(samples_beyond(99, 0.9) == 9);
  CHECK(!percentile_supported(99, 0.9));
  CHECK(!percentile_supported(0, 0.5));
}

void test_self_time() {
  Tracer t;
  const int root = t.add("request", 0, 10, 1, -1, false);
  const int a = t.add("check.verifier", 1, 4, 1, root, false);
  t.add("check.dpor", 3, 6, 1, root, true);          // overlaps a
  t.add("text.parse", 2, 3, 1, a, false);            // grandchild
  t.add("check.explicit", 9, 12, 1, root, true);     // sticks out of root
  const auto self = self_times(t.spans());
  // root: 10 - |[1,6] u [9,10]| = 10 - 6
  CHECK(near(self[0], 4));
  CHECK(near(self[1], 2));  // 3 - 1
  CHECK(near(self[2], 3));
  CHECK(near(self[3], 1));
  CHECK(near(self[4], 3));  // leaves keep their whole duration
  CHECK(span_layer("request") == "bench");
  CHECK(span_layer("text.parse") == "text");
  CHECK(span_layer("check.dpor") == "check.dpor");
  CHECK(span_layer("check.service.key") == "check.service");
  const std::string json = chrome_trace_json(t.spans());
  CHECK(json.find("\"name\": \"check.dpor\"") != std::string::npos);
  CHECK(json.find("\"dur\": 3000000.000") != std::string::npos);
}

void test_oracle() {
  CHECK(factorial(6) == 720);
  CHECK(message_race_executions(4, 2) == 2520);
  CHECK(message_race_executions(3, 3) == 1680);

  // A real verdict against a right and a deliberately wrong expectation.
  const auto program = mcsym::check::workloads::message_race(2, 2);
  mcsym::check::Verifier verifier;
  const auto rep = verifier.verify(program, {});
  Outcome outcome{rep.verdict, std::nullopt};
  for (const auto& run : rep.engines) {
    for (const auto& [k, v] : run.counters) {
      if (k == "executions") outcome.dpor_executions = v;
    }
  }
  const Expectation right{Verdict::kSafe, Verdict::kSafe, message_race_executions(2, 2)};
  CHECK(outcome_matches(right, Engine::kDporOptimal, outcome));
  const Expectation wrong_verdict{Verdict::kViolation, Verdict::kViolation, 0};
  CHECK(!outcome_matches(wrong_verdict, Engine::kDporOptimal, outcome));
  const Expectation wrong_count{Verdict::kSafe, Verdict::kSafe, 7};
  CHECK(!outcome_matches(wrong_count, Engine::kDporOptimal, outcome));

  // figure1.mcp: only property-checking engines see the violation.
  const Expectation figure1{Verdict::kSafe, Verdict::kViolation, 0};
  CHECK(expected_verdict(figure1, Engine::kExplicit) == Verdict::kSafe);
  CHECK(expected_verdict(figure1, Engine::kDporSleepSet) == Verdict::kSafe);
  CHECK(expected_verdict(figure1, Engine::kPortfolio) == Verdict::kViolation);
  CHECK(!outcome_matches(figure1, Engine::kPortfolio, {Verdict::kSafe, std::nullopt}));
  CHECK(!definitive(Verdict::kBudgetExhausted));

  std::string error;
  TableRow row{std::string(32, 'a'), "plain", 1001, false, 42, Verdict::kDeadlock};
  const auto rows = parse_table(format_table({row}), error);
  CHECK(rows && rows->size() == 1 && (*rows)[0].verdict == Verdict::kDeadlock &&
        (*rows)[0].gen_seed == 1001);
  CHECK(!parse_table(std::string(32, 'a') + "\tplain\t1\t0\t5\tbudget-exhausted\n", error));
  CHECK(!parse_table("short\tplain\t1\t0\t5\tsafe\n", error));
}

void test_rename() {
  const auto f1 = mcsym::check::workloads::figure1_with_property();
  const std::string text = mcsym::text::program_to_text(f1.program, f1.properties, "f");
  const std::string renamed = alpha_rename(text);
  CHECK(renamed != text);
  const auto a = mcsym::text::parse_program(text);
  const auto b = mcsym::text::parse_program(renamed);
  CHECK(a.ok() && b.ok());
  if (a.ok() && b.ok()) {
    CHECK(mcsym::mcapi::canonical_fingerprint(a.parsed->program) ==
          mcsym::mcapi::canonical_fingerprint(b.parsed->program));
    CHECK(b.parsed->properties.size() == 1);
  }
}

void test_seed_determinism(const InputPaths& paths) {
  for (Workload wl : {Workload::kDporParallel, Workload::kSymbolicSharded,
                      Workload::kServiceSerial}) {
    const WorkloadInputs a = make_inputs(wl, paths);
    const WorkloadInputs b = make_inputs(wl, paths);
    CHECK(input_set_digest(a) == input_set_digest(b));
    CHECK(stream_digest(a, 7, 500) == stream_digest(b, 7, 500));
    CHECK(stream_digest(a, 7, 500) != stream_digest(a, 8, 500));
  }
  // service_serial: about a third of a session resubmits, half renamed.
  const WorkloadInputs w = make_inputs(Workload::kServiceSerial, paths);
  RequestStream stream(w, 3);
  int total = 0;
  int resubmits = 0;
  int renamed = 0;
  for (int pass = 0; pass < 10; ++pass) {
    for (const Request& r : stream.next_pass()) {
      ++total;
      resubmits += r.resubmit ? 1 : 0;
      renamed += r.renamed ? 1 : 0;
    }
  }
  CHECK(resubmits > total / 4 && resubmits < total * 2 / 5);
  CHECK(renamed > resubmits / 3 && renamed < resubmits * 2 / 3);
}

}  // namespace

int main(int argc, char** argv) {
  InputPaths paths{"examples", "mcsym_bench/expected_verdicts.tsv"};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--examples") paths.examples_dir = argv[i + 1];
    if (flag == "--table") paths.table_path = argv[i + 1];
  }
  test_percentiles();
  test_self_time();
  test_oracle();
  test_rename();
  try {
    test_seed_determinism(paths);
  } catch (const InputError& e) {
    std::printf("FAIL inputs: %s\n", e.what());
    ++failures;
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
