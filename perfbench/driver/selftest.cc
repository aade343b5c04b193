// perfbench_selftest — tests of the benchmark's own code: span self-time
// arithmetic, the quantile helper, the allocation counter, the
// output tally and digest, and the metric name lists.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
//
// Prints one line per failed check and exits 1 if any failed.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "report.h"
#include "spans.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// Makes a pointer escape, so the compiler cannot elide its allocation.
void* volatile g_sink = nullptr;
void escape(void* p) { g_sink = p; }

/// The result format's rule: 1..64 of [A-Za-z0-9_.-], starting with a
/// letter or digit.
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name.front()))) {
    return false;
  }
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool near_all(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!near(a[i], b[i])) return false;
  }
  return true;
}

void test_covered_seconds() {
  using perfbench::covered_seconds;
  CHECK(near(covered_seconds(0, 10, {}), 0));
  // Overlapping children count once; a child running past its parent is
  // clipped to the parent.
  CHECK(near(covered_seconds(0, 10, {{1, 3}, {2, 5}, {8, 12}}), 6));
  CHECK(near(covered_seconds(0, 10, {{8, 12}, {1, 3}, {2, 5}}), 6));
  CHECK(near(covered_seconds(0, 10, {{2, 3}, {1, 9}}), 8));
  CHECK(near(covered_seconds(5, 10, {{0, 4}}), 0));
}

void test_self_time() {
  perfbench::SpanLog log;
  const int root = log.add("root", 0, 10, -1);
  const int a = log.add("a", 1, 3, root);
  log.add("b", 2, 5, root);
  log.add("a.child", 1.5, 2.5, a);  // a grandchild does not reduce root
  CHECK(near(log.self_seconds(0), 6));
  CHECK(near(log.self_seconds(1), 1));
  CHECK(near(log.self_seconds(2), 3));
  CHECK(near(log.self_seconds(3), 1));
  const auto totals = log.totals();
  CHECK(totals.at("root").count == 1);
  CHECK(near(totals.at("a").total_s, 2));
  CHECK(near(log.totals("missing").total_s, 0));

  // open/close nest, and parents follow the open spans.
  perfbench::SpanLog nested;
  const int outer = nested.open("outer");
  const int inner = nested.open("inner");
  nested.close(inner);
  nested.close(outer);
  CHECK(nested.spans()[1].parent == outer);
  CHECK(nested.spans()[0].parent == -1);
  CHECK(nested.self_seconds(0) >= 0);
  bool threw = false;
  const int x = nested.open("x");
  nested.open("y");
  try {
    nested.close(x);
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);

  // Appending re-bases parent indices.
  perfbench::SpanLog combined;
  combined.add("first", 0, 1, -1);
  combined.append(log);
  CHECK(combined.spans().size() == 5);
  CHECK(combined.spans()[2].parent == 1);
  CHECK(near(combined.self_seconds(1), 6));
}

void test_quantiles() {
  using perfbench::quantiles;
  // Reference values from Python's statistics.quantiles.
  CHECK(near_all(quantiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 4),
                 {2.75, 5.5, 8.25}));
  CHECK(near_all(quantiles({1, 2}, 4), {0.75, 1.5, 2.25}));
  CHECK(near_all(quantiles({3.5, 1.25, 9.0, 2.0, 7.75}, 4),
                 {1.625, 3.5, 8.375}));
  CHECK(near_all(quantiles({3.5, 1.25, 9.0, 2.0, 7.75}, 10),
                 {0.95, 1.4, 1.85, 2.6, 3.5, 6.05, 8.0, 8.75, 9.5}));
  bool threw = false;
  try {
    (void)quantiles({1}, 4);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void test_allocation_counter() {
  using perfbench::thread_allocations;
  const std::uint64_t before = thread_allocations();
  auto one = std::make_unique<int>(1);
  escape(one.get());
  CHECK(thread_allocations() - before == 1);
  auto many = std::make_unique<double[]>(64);
  escape(many.get());
  CHECK(thread_allocations() - before == 2);
  struct alignas(64) Wide {
    char bytes[64];
  };
  auto wide = std::make_unique<Wide>();
  escape(wide.get());
  CHECK(reinterpret_cast<std::uintptr_t>(wide.get()) % 64 == 0);
  CHECK(thread_allocations() - before == 3);
  int* nothrow = new (std::nothrow) int(7);
  CHECK(nothrow != nullptr);
  escape(nothrow);
  delete nothrow;
  CHECK(thread_allocations() - before == 4);
  one.reset();  // frees are not counted
  CHECK(thread_allocations() - before == 4);
}

void test_tally_and_digest() {
  perfbench::Digest d;
  d.text("a");
  CHECK(d.value() == 0xaf63dc4c8601ec8cULL);  // published FNV-1a-64 of "a"

  perfbench::Tally tally;
  perfbench::PassOutput first;
  first.ops = {{1, false}, {2, false}};
  tally.add_pass(first);
  perfbench::PassOutput same = first;
  tally.add_pass(same);
  CHECK(tally.attempted() == 4 && tally.failed() == 0);
  perfbench::PassOutput moved = first;
  moved.ops[1].digest = 3;  // a changed output between passes fails
  tally.add_pass(moved);
  CHECK(tally.attempted() == 6 && tally.failed() == 1);
  perfbench::PassOutput shorter;
  shorter.ops = {{1, false}};  // a different op count fails the whole pass
  tally.add_pass(shorter);
  CHECK(tally.attempted() == 7 && tally.failed() == 2);
  perfbench::PassOutput own_failure = first;
  own_failure.ops[0].failed = true;
  tally.add_pass(own_failure);
  CHECK(tally.attempted() == 9 && tally.failed() == 3);
}

void test_metric_lists() {
  CHECK(valid_metric_name("sim.ns_per_event"));
  CHECK(valid_metric_name("wall_s"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  std::set<std::string> seen;
  for (const auto defs : {perfbench::end_to_end_metrics(),
                          perfbench::per_layer_metrics()}) {
    for (const perfbench::MetricDef& d : defs) {
      CHECK(valid_metric_name(d.name));
      CHECK(seen.insert(d.name).second);
    }
  }
  // collect() fills every declared metric, in order, and rejects others.
  const auto m = perfbench::collect(perfbench::end_to_end_metrics(),
                                    {{"wall_s", 2.5}});
  CHECK(m.size() == perfbench::end_to_end_metrics().size());
  CHECK(m[0].name == "setup_s" && near(m[0].value, 0));
  CHECK(m[1].name == "wall_s" && near(m[1].value, 2.5) && m[1].unit == "s");
  bool threw = false;
  try {
    (void)perfbench::collect(perfbench::end_to_end_metrics(), {{"nope", 1}});
  } catch (const std::logic_error&) {
    threw = true;
  }
  CHECK(threw);
}

}  // namespace

int main() {
  test_covered_seconds();
  test_self_time();
  test_quantiles();
  test_allocation_counter();
  test_tally_and_digest();
  test_metric_lists();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
