/**
 * @file
 * The benchmark's own measurement helpers, kept free of the library
 * so the self-tests exercise them alone:
 *
 *  - tail percentiles under the "at least ten samples beyond" rule;
 *  - an in-memory span recorder with per-span self time and a
 *    nesting check;
 *  - the seeded hit/miss request schedule of the served workload and
 *    the lockstep that holds its two clients to a fixed hit:miss
 *    ratio.
 */
#ifndef ORION_BENCH_PERF_HH
#define ORION_BENCH_PERF_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace obench {

/** Seconds on the monotonic clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// @name Order statistics
/// @{

/** Linear-interpolated quantile @p q in [0,1] of @p v (empty -> 0). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

/** Samples strictly above the quantile-@p q position of @p n. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const double pos = q * static_cast<double>(n - 1);
    return n - 1 - static_cast<std::size_t>(std::floor(pos));
}

/**
 * The highest quantile no greater than @p want that leaves at least
 * ten samples beyond it, in hundredths (0.95, 0.94, ...). Falls back
 * to the median when even that leaves fewer than ten.
 */
inline double
tailQuantile(std::size_t n, double want)
{
    for (int pct = static_cast<int>(std::lround(want * 100.0)); pct > 50;
         --pct) {
        const double q = pct / 100.0;
        if (samplesBeyond(n, q) >= 10)
            return q;
    }
    return 0.5;
}

/** A reported tail percentile with the rule's bookkeeping. */
struct Tail
{
    double value = 0.0;
    double q = 0.5;
    std::size_t n = 0;
    std::size_t beyond = 0;
};

inline Tail
tail(const std::vector<double>& v, double want)
{
    Tail t;
    t.n = v.size();
    t.q = tailQuantile(t.n, want);
    t.value = quantile(v, t.q);
    t.beyond = samplesBeyond(t.n, t.q);
    return t;
}
/// @}

/// @name Spans
/// @{

/** One recorded span: [start, end] seconds on the monotonic clock. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span in the same recorder, -1 for a
     * root. */
    int parent = -1;
    /** Unit of work the span belongs to (one sweep, run or
     * request). */
    std::uint64_t unit = 0;
};

/**
 * Per-thread span recorder. Spans live in memory until the benchmark
 * writes them out at exit; open() and close() nest like a stack.
 * A disabled recorder records nothing.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int
    open(const std::string& name, std::uint64_t unit)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.unit = unit;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = now();
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = now();
        while (!stack_.empty()) {
            const int top = stack_.back();
            stack_.pop_back();
            if (top == id)
                break;
        }
    }

    /** Record an already-timed span under the innermost open one. */
    void
    add(const std::string& name, std::uint64_t unit, double start,
        double end)
    {
        if (!enabled_)
            return;
        Span s;
        s.name = name;
        s.unit = unit;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start = start;
        s.end = end;
        spans_.push_back(std::move(s));
    }

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span on a recorder. */
class Scope
{
  public:
    Scope(SpanRecorder& rec, const std::string& name,
          std::uint64_t unit = 0)
        : rec_(rec), id_(rec.open(name, unit))
    {
    }
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder& rec_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of that
 * interval its direct children cover (overlapping children count
 * once).
 */
inline std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& p = spans[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = p.start;
        for (const auto& [a0, b0] : iv) {
            const double a = std::max(a0, reach);
            const double b = std::min(b0, p.end);
            if (b > a)
                covered += b - a;
            reach = std::max(reach, std::min(b0, p.end));
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

/** True when every span ends after it starts and lies inside its
 * parent. */
inline bool
spansNest(const std::vector<Span>& spans)
{
    for (const Span& s : spans) {
        if (s.end < s.start)
            return false;
        if (s.parent < 0)
            continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        if (s.start < p.start || s.end > p.end)
            return false;
    }
    return true;
}
/// @}

/// @name Seeded inputs
/// @{

/** splitmix64: the benchmark's own generator, independent of the
 * simulator's RNG so a program change never changes the inputs. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, bound), bound > 0 (modulo bias is irrelevant
     * at these sizes). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t s_;
};

/** Fisher-Yates permutation of 0..n-1. */
inline std::vector<std::size_t>
permutation(std::size_t n, SplitMix& rng)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

/** The served workload's request plan for one seed. */
struct Schedule
{
    /** Keys pre-filled into the cache before the run. */
    std::vector<std::size_t> hitKeys;
    /** The repeat client's keys, in request order: pre-filled keys
     * drawn at random. */
    std::vector<std::size_t> repeats;
    /** The fresh client's keys, in request order: every key of the
     * universe outside hitKeys, each once. */
    std::vector<std::size_t> fresh;
};

/** Build the schedule over a @p universe-key space: @p hit_keys
 * pre-filled keys, @p repeats repeat requests, and the rest of the
 * universe as fresh keys, all in one seeded order. */
inline Schedule
makeSchedule(std::uint64_t seed, std::size_t universe,
             std::size_t hit_keys, std::size_t repeats)
{
    SplitMix rng(seed ^ 0x5eedf00dULL);
    const std::vector<std::size_t> order = permutation(universe, rng);
    Schedule s;
    s.hitKeys.assign(order.begin(),
                     order.begin() + static_cast<long>(hit_keys));
    s.fresh.assign(order.begin() + static_cast<long>(hit_keys),
                   order.end());
    s.repeats.reserve(repeats);
    for (std::size_t i = 0; i < repeats; ++i)
        s.repeats.push_back(s.hitKeys[rng.below(hit_keys)]);
    return s;
}

/**
 * Lockstep of the served workload's two closed-loop clients, so the
 * hit:miss ratio is an input and not an outcome of their speeds. Hits
 * come in batches of @p ratio: batch b may start once b misses have
 * completed, and miss m may start once m batches have. Batch m thus
 * runs beside miss m, and hits == ratio * misses up to one batch.
 */
class Pacer
{
  public:
    explicit Pacer(std::uint64_t ratio) : ratio_(ratio) {}

    /** Repeat client: block until hit @p h (0-based) may start; false
     * once the fresh client has stopped. */
    bool
    awaitHit(std::uint64_t h)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stopped_ || misses_ >= h / ratio_; });
        return !stopped_;
    }

    void
    hitDone()
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++hits_;
        cv_.notify_all();
    }

    /** Fresh client: block until miss @p m (0-based) may start. */
    void
    awaitMiss(std::uint64_t m)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return hits_ >= m * ratio_; });
    }

    /** Returns the misses completed, this one included. */
    std::uint64_t
    missDone()
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++misses_;
        cv_.notify_all();
        return misses_;
    }

    /** The fresh client has stopped; the repeat client stops too. */
    void
    stop()
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopped_ = true;
        cv_.notify_all();
    }

  private:
    const std::uint64_t ratio_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    bool stopped_ = false;
};
/// @}

} // namespace obench

#endif // ORION_BENCH_PERF_HH
