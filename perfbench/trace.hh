/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span covers one call from the benchmark into a library layer
 * (or one benchmark-level unit such as a capping event).  Spans
 * carry their parent, so a layer's self time is its span durations
 * minus the part covered by child spans.  Spans stay in memory while
 * the workload runs and are written out as Chrome trace-event JSON
 * after it ends.  A disabled tracer records nothing, so the
 * untraced run pays one branch per call site.
 */

#ifndef TTC_TRACE_HH
#define TTC_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ttc {

/** Layers a span can be attributed to (src/ module names, plus the
 * benchmark's own code). */
enum class Layer : std::uint8_t
{
    bench,
    graph,
    alloc,
    cluster,
};

constexpr std::size_t kLayers = 4;

inline const char *
layerName(Layer l)
{
    static const char *const names[kLayers] = {"bench", "graph",
                                               "alloc", "cluster"};
    return names[static_cast<std::size_t>(l)];
}

struct Span
{
    const char *name = "";
    Layer layer = Layer::bench;
    std::int32_t parent = -1;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;

    double seconds() const { return 1e-9 * double(t1_ns - t0_ns); }
};

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on)
    {
        if (on_)
            spans_.reserve(1u << 16);
    }

    bool on() const { return on_; }

    /** Open a span under the innermost open one; -1 when off. */
    std::int32_t open(const char *name, Layer layer)
    {
        if (!on_)
            return -1;
        const auto id = static_cast<std::int32_t>(spans_.size());
        spans_.push_back({name, layer, current_, nowNs(), 0});
        current_ = id;
        return id;
    }

    void close(std::int32_t id)
    {
        if (id < 0)
            return;
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.t1_ns = nowNs();
        current_ = s.parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds per layer: span time not covered by children. */
    std::array<double, kLayers> selfSeconds() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] +=
                    s.seconds();
        std::array<double, kLayers> self{};
        for (std::size_t i = 0; i < spans_.size(); ++i)
            self[static_cast<std::size_t>(spans_[i].layer)] +=
                spans_[i].seconds() - child[i];
        return self;
    }

    /** Durations (s) of every span with this name. */
    std::vector<double> durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (name == s.name)
                out.push_back(s.seconds());
        return out;
    }

    /** Write Chrome trace-event JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"traceEvents\":[\n", f);
        const std::int64_t base =
            spans_.empty() ? 0 : spans_.front().t0_ns;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":"
                         "\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                         "\"dur\":%.3f,\"args\":{\"id\":%zu,"
                         "\"parent\":%d}}\n",
                         i == 0 ? "" : ",", s.name,
                         layerName(s.layer),
                         1e-3 * double(s.t0_ns - base),
                         1e-3 * double(s.t1_ns - s.t0_ns), i,
                         static_cast<int>(s.parent));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    static std::int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now()
                       .time_since_epoch())
            .count();
    }

    bool on_;
    std::int32_t current_ = -1;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, Layer layer)
        : t_(t), id_(t.open(name, layer))
    {
    }
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    std::int32_t id_;
};

} // namespace ttc

#endif // TTC_TRACE_HH
