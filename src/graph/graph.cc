#include "graph/graph.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.hh"

namespace dpc {

Graph::Graph(std::size_t n)
    : adj_(n)
{
}

Graph::Graph(const Graph &other)
{
    *this = other;
}

Graph::Graph(Graph &&other) noexcept
{
    *this = std::move(other);
}

Graph &
Graph::operator=(const Graph &other)
{
    if (this == &other)
        return *this;
    adj_ = other.adj_;
    num_edges_ = other.num_edges_;
    // Snapshot the source's CSR cache under its build lock so a
    // copy taken while another thread performs the lazy build
    // still sees either nothing or the complete view.
    std::lock_guard<std::mutex> lock(other.csr_mutex_);
    csr_ = other.csr_;
    csr_valid_.store(
        other.csr_valid_.load(std::memory_order_acquire),
        std::memory_order_release);
    return *this;
}

Graph &
Graph::operator=(Graph &&other) noexcept
{
    if (this == &other)
        return *this;
    adj_ = std::move(other.adj_);
    num_edges_ = other.num_edges_;
    csr_ = std::move(other.csr_);
    csr_valid_.store(
        other.csr_valid_.load(std::memory_order_acquire),
        std::memory_order_release);
    other.num_edges_ = 0;
    other.csr_valid_.store(false, std::memory_order_release);
    return *this;
}

bool
Graph::addEdge(std::size_t u, std::size_t v)
{
    DPC_ASSERT(u < adj_.size() && v < adj_.size(),
               "edge endpoint out of range");
    if (u == v || hasEdge(u, v))
        return false;
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    ++num_edges_;
    csr_valid_.store(false, std::memory_order_release);
    return true;
}

bool
Graph::hasEdge(std::size_t u, std::size_t v) const
{
    DPC_ASSERT(u < adj_.size() && v < adj_.size(),
               "edge endpoint out of range");
    const auto &smaller =
        adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
    const std::size_t other = adj_[u].size() <= adj_[v].size() ? v : u;
    return std::find(smaller.begin(), smaller.end(), other) !=
           smaller.end();
}

const std::vector<std::size_t> &
Graph::neighbors(std::size_t v) const
{
    DPC_ASSERT(v < adj_.size(), "vertex out of range");
    return adj_[v];
}

std::size_t
Graph::degree(std::size_t v) const
{
    return neighbors(v).size();
}

const GraphCsr &
Graph::csr() const
{
    // Double-checked lazy build: the acquire-load fast path costs
    // one atomic read once the view exists; a miss takes the build
    // mutex, re-checks, and exactly one caller materializes the
    // arrays before publishing with release order.
    if (csr_valid_.load(std::memory_order_acquire))
        return csr_;
    std::lock_guard<std::mutex> lock(csr_mutex_);
    if (csr_valid_.load(std::memory_order_relaxed))
        return csr_;
    DPC_ASSERT(adj_.size() <
                   std::numeric_limits<std::uint32_t>::max(),
               "CSR view limited to < 2^32 vertices");
    csr_.offsets.assign(adj_.size() + 1, 0);
    csr_.neighbors.clear();
    csr_.neighbors.reserve(2 * num_edges_);
    for (std::size_t v = 0; v < adj_.size(); ++v) {
        for (std::size_t w : adj_[v])
            csr_.neighbors.push_back(
                static_cast<std::uint32_t>(w));
        csr_.offsets[v + 1] =
            static_cast<std::uint32_t>(csr_.neighbors.size());
    }
    csr_valid_.store(true, std::memory_order_release);
    return csr_;
}

void
Graph::buildCsr() const
{
    (void)csr();
}

Graph
Graph::relabeled(const std::vector<std::uint32_t> &perm) const
{
    DPC_ASSERT(perm.size() == adj_.size(),
               "relabeling permutation size mismatch");
    Graph out(adj_.size());
    for (std::size_t v = 0; v < adj_.size(); ++v) {
        auto &row = out.adj_[perm[v]];
        row.reserve(adj_[v].size());
        for (const std::size_t w : adj_[v])
            row.push_back(perm[w]);
    }
    out.num_edges_ = num_edges_;
    return out;
}

double
Graph::averageDegree() const
{
    if (adj_.empty())
        return 0.0;
    return 2.0 * static_cast<double>(num_edges_) /
           static_cast<double>(adj_.size());
}

std::size_t
Graph::maxDegree() const
{
    std::size_t best = 0;
    for (const auto &nbrs : adj_)
        best = std::max(best, nbrs.size());
    return best;
}

std::size_t
Graph::bfsInto(std::size_t source, std::vector<std::size_t> &dist,
               std::vector<std::uint32_t> &cur,
               std::vector<std::uint32_t> &next) const
{
    const GraphCsr &g = csr();
    cur.clear();
    next.clear();
    std::size_t ecc = 0;
    std::size_t depth = 0;
    dist[source] = 0;
    cur.push_back(static_cast<std::uint32_t>(source));
    const std::size_t unreachable = adj_.size();
    while (!cur.empty()) {
        ++depth;
        for (std::uint32_t v : cur) {
            const std::uint32_t lo = g.offsets[v];
            const std::uint32_t hi = g.offsets[v + 1];
            for (std::uint32_t k = lo; k < hi; ++k) {
                const std::uint32_t w = g.neighbors[k];
                if (dist[w] == unreachable) {
                    dist[w] = depth;
                    ecc = depth;
                    next.push_back(w);
                }
            }
        }
        cur.swap(next);
        next.clear();
    }
    return ecc;
}

bool
Graph::isConnected() const
{
    if (adj_.empty())
        return true;
    const std::size_t unreachable = adj_.size();
    std::vector<std::size_t> dist(adj_.size(), unreachable);
    std::vector<std::uint32_t> cur, next;
    bfsInto(0, dist, cur, next);
    for (std::size_t d : dist)
        if (d == unreachable)
            return false;
    return true;
}

std::vector<std::size_t>
Graph::bfsDistances(std::size_t source) const
{
    DPC_ASSERT(source < adj_.size(), "BFS source out of range");
    std::vector<std::size_t> dist(adj_.size(), adj_.size());
    std::vector<std::uint32_t> cur, next;
    bfsInto(source, dist, cur, next);
    return dist;
}

std::size_t
Graph::diameter() const
{
    DPC_ASSERT(isConnected(), "diameter of a disconnected graph");
    const std::size_t unreachable = adj_.size();
    std::vector<std::size_t> dist(adj_.size(), unreachable);
    std::vector<std::uint32_t> cur, next;
    std::size_t best = 0;
    for (std::size_t v = 0; v < adj_.size(); ++v) {
        best = std::max(best, bfsInto(v, dist, cur, next));
        std::fill(dist.begin(), dist.end(), unreachable);
    }
    return best;
}

} // namespace dpc
