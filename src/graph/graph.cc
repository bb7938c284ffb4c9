#include "graph/graph.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "util/logging.hh"

namespace dpc {

namespace {

/** Edge test over two adjacency lists: scans the shorter one. */
template <class List>
bool
linked(const List &nu, const List &nv, std::size_t u, std::size_t v)
{
    return nu.size() <= nv.size() ? std::ranges::find(nu, v) != nu.end()
                                  : std::ranges::find(nv, u) != nv.end();
}

} // namespace

Graph::Graph(std::size_t n)
{
    DPC_ASSERT(n < std::numeric_limits<std::uint32_t>::max(),
               "graphs are limited to < 2^32 vertices");
    csr_.offsets.assign(n + 1, 0);
}

bool
Graph::hasEdge(std::size_t u, std::size_t v) const
{
    return linked(neighbors(u), neighbors(v), u, v);
}

std::span<const std::uint32_t>
Graph::neighbors(std::size_t v) const
{
    DPC_ASSERT(v < numVertices(), "vertex out of range");
    return {csr_.neighbors.data() + csr_.offsets[v],
            csr_.neighbors.data() + csr_.offsets[v + 1]};
}

Graph
Graph::relabeled(const std::vector<std::uint32_t> &perm) const
{
    const std::size_t n = numVertices();
    DPC_ASSERT(perm.size() == n, "relabeling permutation size mismatch");
    Graph out(n);
    std::vector<std::uint32_t> &off = out.csr_.offsets;
    for (std::size_t v = 0; v < n; ++v)
        off[perm[v] + 1] = csr_.degree(v);
    for (std::size_t v = 0; v < n; ++v)
        off[v + 1] += off[v];
    out.csr_.neighbors.resize(csr_.neighbors.size());
    for (std::size_t v = 0; v < n; ++v) {
        std::uint32_t *dst = out.csr_.neighbors.data() + off[perm[v]];
        for (const std::uint32_t w : neighbors(v))
            *dst++ = perm[w];
    }
    return out;
}

double
Graph::averageDegree() const
{
    if (numVertices() == 0)
        return 0.0;
    return 2.0 * static_cast<double>(numEdges()) /
           static_cast<double>(numVertices());
}

std::size_t
Graph::maxDegree() const
{
    std::size_t best = 0;
    for (std::size_t v = 0; v < numVertices(); ++v)
        best = std::max<std::size_t>(best, csr_.degree(v));
    return best;
}

std::size_t
Graph::bfsInto(std::size_t source, std::vector<std::size_t> &dist,
               std::vector<std::uint32_t> &cur,
               std::vector<std::uint32_t> &next) const
{
    const GraphCsr &g = csr_;
    cur.clear();
    next.clear();
    std::size_t ecc = 0;
    std::size_t depth = 0;
    dist[source] = 0;
    cur.push_back(static_cast<std::uint32_t>(source));
    const std::size_t unreachable = numVertices();
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
    const std::size_t n = numVertices();
    if (n == 0)
        return true;
    // The queue doubles as the visit order: every vertex enters it
    // once, so it needs no growth and the scan ends at its tail.
    // Pushes are branchless (write, then advance the tail only for
    // an unseen vertex), which keeps the random seen[] tests off
    // the branch predictor; the one spare slot takes the write
    // made when the queue is already full.
    std::vector<std::uint8_t> seen(n, 0);
    const auto queue =
        std::make_unique_for_overwrite<std::uint32_t[]>(n + 1);
    const std::uint32_t *off = csr_.offsets.data();
    const std::uint32_t *nbr = csr_.neighbors.data();
    seen[0] = 1;
    queue[0] = 0;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
        const std::uint32_t v = queue[head];
        for (std::uint32_t k = off[v]; k < off[v + 1]; ++k) {
            const std::uint32_t w = nbr[k];
            queue[tail] = w;
            tail += seen[w] ^ 1u;
            seen[w] = 1;
        }
    }
    return tail == n;
}

std::vector<std::size_t>
Graph::bfsDistances(std::size_t source) const
{
    DPC_ASSERT(source < numVertices(), "BFS source out of range");
    std::vector<std::size_t> dist(numVertices(), numVertices());
    std::vector<std::uint32_t> cur, next;
    bfsInto(source, dist, cur, next);
    return dist;
}

std::size_t
Graph::diameter() const
{
    DPC_ASSERT(isConnected(), "diameter of a disconnected graph");
    const std::size_t unreachable = numVertices();
    std::vector<std::size_t> dist(numVertices(), unreachable);
    std::vector<std::uint32_t> cur, next;
    std::size_t best = 0;
    for (std::size_t v = 0; v < numVertices(); ++v) {
        best = std::max(best, bfsInto(v, dist, cur, next));
        std::fill(dist.begin(), dist.end(), unreachable);
    }
    return best;
}


Graph::Builder::Builder(std::size_t n)
    : adj_(n)
{
    DPC_ASSERT(n < std::numeric_limits<std::uint32_t>::max(),
               "graphs are limited to < 2^32 vertices");
}

bool
Graph::Builder::addEdge(std::size_t u, std::size_t v)
{
    DPC_ASSERT(u < adj_.size() && v < adj_.size(),
               "edge endpoint out of range");
    if (u == v || hasEdge(u, v))
        return false;
    adj_[u].push_back(static_cast<std::uint32_t>(v));
    adj_[v].push_back(static_cast<std::uint32_t>(u));
    ++num_edges_;
    return true;
}

bool
Graph::Builder::hasEdge(std::size_t u, std::size_t v) const
{
    DPC_ASSERT(u < adj_.size() && v < adj_.size(),
               "edge endpoint out of range");
    return linked(adj_[u], adj_[v], u, v);
}

Graph
Graph::Builder::build() const
{
    Graph g(adj_.size());
    g.csr_.neighbors.reserve(2 * num_edges_);
    for (std::size_t v = 0; v < adj_.size(); ++v) {
        g.csr_.neighbors.insert(g.csr_.neighbors.end(), adj_[v].begin(),
                                adj_[v].end());
        g.csr_.offsets[v + 1] =
            static_cast<std::uint32_t>(g.csr_.neighbors.size());
    }
    return g;
}

} // namespace dpc
