/**
 * @file
 * Self-tests of the benchmark's measurement helpers (perf.hh). Run
 * with `python3 orion_bench/run.py --selftest`; exits non-zero on the
 * first failed check.
 */
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perf.hh"

namespace {

int failures = 0;

void
check(bool ok, const std::string& what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testTailRule()
{
    using obench::samplesBeyond;
    using obench::tailQuantile;
    // 201 samples: p95 sits at position 190, ten samples above it.
    check(samplesBeyond(201, 0.95) == 10, "201 samples leave 10 beyond p95");
    check(near(tailQuantile(201, 0.95), 0.95), "p95 kept at 201 samples");
    check(near(tailQuantile(5000, 0.95), 0.95),
          "never above the wanted percentile");
    // 182 samples: p95 at position 171.95, samples 172..181 beyond.
    check(samplesBeyond(182, 0.95) == 10, "182 samples leave 10 beyond p95");
    // 181 samples: p95 at position 171 exactly leaves only nine.
    check(samplesBeyond(181, 0.95) == 9, "181 samples leave 9 beyond p95");
    check(near(tailQuantile(181, 0.95), 0.94), "p94 at 181 samples");
    // 30 samples: the rule settles well below p95.
    const double q30 = tailQuantile(30, 0.95);
    check(samplesBeyond(30, q30) >= 10 &&
              samplesBeyond(30, q30 + 0.01) < 10,
          "30 samples: highest percentile with >=10 beyond");
    check(near(tailQuantile(12, 0.95), 0.5), "median when too few samples");

    std::vector<double> v;
    for (int i = 1; i <= 201; ++i)
        v.push_back(i);
    const obench::Tail t = obench::tail(v, 0.95);
    check(near(t.value, 191.0) && t.n == 201 && t.beyond == 10,
          "tail() value and bookkeeping");
    check(near(obench::median(v), 101.0), "median of 1..201");
}

obench::Span
span(const char* name, double a, double b, int parent)
{
    obench::Span s;
    s.name = name;
    s.start = a;
    s.end = b;
    s.parent = parent;
    return s;
}

void
testSelfTime()
{
    // root [0,10] with adjacent children [1,3] and [3,6]; the second
    // has a nested child [4,5].
    std::vector<obench::Span> s = {
        span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 3, 6, 0),
        span("c", 4, 5, 2)};
    const std::vector<double> self = obench::selfTimes(s);
    check(near(self[0], 5.0), "root self = 10 - (2 + 3)");
    check(near(self[1], 2.0), "leaf self = its duration");
    check(near(self[2], 2.0), "nested: b self = 3 - 1");
    check(near(self[3], 1.0), "innermost self");
    check(obench::spansNest(s), "nested and adjacent spans nest");

    // Overlapping children (two threads' work under one parent) count
    // once.
    std::vector<obench::Span> o = {span("p", 0, 10, -1),
                                   span("x", 2, 6, 0),
                                   span("y", 4, 8, 0)};
    check(near(obench::selfTimes(o)[0], 4.0), "overlap counted once");

    std::vector<obench::Span> bad = {span("p", 0, 5, -1),
                                     span("x", 4, 6, 0)};
    check(!obench::spansNest(bad), "child past parent end is caught");

    obench::SpanRecorder rec(true);
    {
        obench::Scope outer(rec, "outer", 7);
        obench::Scope inner(rec, "inner", 7);
    }
    check(rec.spans().size() == 2 && rec.spans()[1].parent == 0 &&
              rec.spans()[1].unit == 7 && obench::spansNest(rec.spans()),
          "recorder parents and closes spans");
    obench::SpanRecorder off(false);
    {
        obench::Scope s0(off, "x");
    }
    check(off.spans().empty(), "disabled recorder records nothing");
}

void
testSchedule()
{
    const auto a = obench::makeSchedule(42, 1000, 32, 400);
    const auto b = obench::makeSchedule(42, 1000, 32, 400);
    const auto c = obench::makeSchedule(43, 1000, 32, 400);
    check(a.hitKeys == b.hitKeys && a.repeats == b.repeats &&
              a.fresh == b.fresh,
          "same seed, same schedule");
    check(a.hitKeys != c.hitKeys && a.repeats != c.repeats,
          "another seed, another schedule");

    std::vector<int> is_hit_key(1000, 0);
    for (const std::size_t k : a.hitKeys)
        is_hit_key[k] = 1;
    bool hits_ok = a.hitKeys.size() == 32 && a.repeats.size() == 400;
    for (const std::size_t k : a.repeats)
        hits_ok = hits_ok && is_hit_key[k] == 1;
    check(hits_ok, "repeats ask only pre-filled keys");

    std::vector<int> seen(1000, 0);
    bool fresh_ok = a.fresh.size() == 1000 - 32;
    for (const std::size_t k : a.fresh)
        fresh_ok = fresh_ok && is_hit_key[k] == 0 && seen[k]++ == 0;
    check(fresh_ok, "fresh keys cover the rest of the universe once");
}

void
testPacer()
{
    // Two clients as in the served workload: 9 hits per miss, 30 misses.
    constexpr std::uint64_t kRatio = 9;
    constexpr std::uint64_t kMisses = 30;
    obench::Pacer pace(kRatio);
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    bool in_step = true;
    std::thread repeat([&] {
        for (std::uint64_t h = 0; pace.awaitHit(h); ++h) {
            if (h / kRatio > misses.load())
                in_step = false; // ran ahead of its batch
            hits.fetch_add(1);
            pace.hitDone();
        }
    });
    std::vector<std::uint64_t> hits_at_miss;
    for (std::uint64_t m = 0; m < kMisses; ++m) {
        pace.awaitMiss(m);
        hits_at_miss.push_back(hits.load());
        misses.fetch_add(1);
        pace.missDone();
    }
    pace.stop();
    repeat.join();
    for (std::uint64_t m = 0; m < kMisses; ++m)
        in_step = in_step && hits_at_miss[m] >= m * kRatio &&
                  hits_at_miss[m] <= (m + 1) * kRatio;
    check(in_step, "each miss starts after ratio x its index hits, "
                   "and before the next batch completes");
    check(hits.load() >= (kMisses - 1) * kRatio &&
              hits.load() <= (kMisses + 1) * kRatio,
          "hits end at ratio x misses, up to one batch");
}

} // namespace

int
main()
{
    testTailRule();
    testSelfTime();
    testSchedule();
    testPacer();
    std::printf("%s\n", failures == 0 ? "selftest: all passed"
                                      : "selftest: FAILED");
    return failures == 0 ? 0 : 1;
}
