#include "graph/topologies.hh"

#include <algorithm>

#include "util/logging.hh"

namespace dpc {

namespace {

/** A ring 0-1-...-(n-1)-0 in a builder. */
Graph::Builder
ringBuilder(std::size_t n)
{
    DPC_ASSERT(n >= 3, "ring needs at least 3 vertices");
    Graph::Builder g(n);
    for (std::size_t v = 0; v < n; ++v)
        g.addEdge(v, (v + 1) % n);
    return g;
}

/** Add `count` distinct random chords, each also appended to
 * `added` as a canonical (u < v) pair when given. */
void
addChords(Graph::Builder &g, std::size_t count, Rng &rng,
          std::vector<std::pair<std::size_t, std::size_t>> *added = nullptr)
{
    const std::size_t n = g.numVertices();
    DPC_ASSERT(g.numEdges() + count <= n * (n - 1) / 2,
               "too many chords requested");
    for (std::size_t k = 0; k < count;) {
        const std::size_t u = rng.index(n);
        const std::size_t v = rng.index(n);
        if (!g.addEdge(u, v))
            continue;
        ++k;
        if (added != nullptr)
            added->emplace_back(std::min(u, v), std::max(u, v));
    }
}

} // namespace

Graph
makeRing(std::size_t n)
{
    return ringBuilder(n).build();
}

Graph
makeChordalRing(std::size_t n, std::size_t chords, Rng &rng)
{
    Graph::Builder g = ringBuilder(n);
    addChords(g, chords, rng);
    return g.build();
}

Graph
makeStar(std::size_t n)
{
    DPC_ASSERT(n >= 2, "star needs at least 2 vertices");
    Graph::Builder g(n);
    for (std::size_t v = 1; v < n; ++v)
        g.addEdge(0, v);
    return g.build();
}

Graph
makeConnectedErdosRenyi(std::size_t n, std::size_t m, Rng &rng)
{
    DPC_ASSERT(m >= n - 1, "too few edges for a connected graph");
    DPC_ASSERT(m <= n * (n - 1) / 2, "more edges than pairs");
    for (int attempt = 0; attempt < 10000; ++attempt) {
        Graph::Builder b(n);
        while (b.numEdges() < m) {
            const std::size_t u = rng.index(n);
            const std::size_t v = rng.index(n);
            b.addEdge(u, v);
        }
        Graph g = b.build();
        if (g.isConnected())
            return g;
    }
    fatal("could not sample a connected G(", n, ",", m,
          ") graph; edge count too sparse");
}

Graph
makeRandomConnectedGraph(std::size_t n, std::size_t m, Rng &rng)
{
    DPC_ASSERT(n >= 2, "need at least two vertices");
    DPC_ASSERT(m >= n - 1, "too few edges for a connected graph");
    DPC_ASSERT(m <= n * (n - 1) / 2, "more edges than pairs");
    Graph::Builder g(n);
    // Random spanning tree: attach each new vertex (in shuffled
    // order) to a uniformly random already-attached vertex.
    std::vector<std::size_t> order(n);
    for (std::size_t v = 0; v < n; ++v)
        order[v] = v;
    rng.shuffle(order);
    for (std::size_t k = 1; k < n; ++k)
        g.addEdge(order[k], order[rng.index(k)]);
    while (g.numEdges() < m) {
        const std::size_t u = rng.index(n);
        const std::size_t v = rng.index(n);
        g.addEdge(u, v);
    }
    return g.build();
}

Graph
makeTwoTierFabric(std::size_t n, std::size_t rack_size)
{
    DPC_ASSERT(n >= 1 && rack_size >= 1, "bad fabric dimensions");
    const std::size_t racks = (n + rack_size - 1) / rack_size;
    // Vertices: [0, n) servers, [n, n + racks) ToR, n + racks core.
    Graph::Builder g(n + racks + 1);
    const std::size_t core = n + racks;
    for (std::size_t s = 0; s < n; ++s)
        g.addEdge(s, n + s / rack_size);
    for (std::size_t r = 0; r < racks; ++r)
        g.addEdge(n + r, core);
    return g.build();
}

Graph
makeHealableRing(std::size_t n, std::size_t chords, std::size_t spares,
                 Rng &rng,
                 std::vector<std::pair<std::size_t, std::size_t>> *spare_edges)
{
    DPC_ASSERT(spare_edges != nullptr, "makeHealableRing needs a spare sink");
    Graph::Builder g = ringBuilder(n);
    addChords(g, chords, rng);
    spare_edges->clear();
    addChords(g, spares, rng, spare_edges);
    return g.build();
}

std::vector<std::pair<std::size_t, std::size_t>>
proposeOverlayRepairs(
    const std::vector<GraphEdge> &overlay,
    const std::vector<std::uint8_t> &candidate,
    const std::vector<std::uint8_t> &alive,
    const std::vector<std::uint32_t> &comp_of, std::size_t num_comps,
    const std::vector<std::size_t> &live_degree, std::size_t degree_floor)
{
    DPC_ASSERT(candidate.size() == overlay.size(),
               "candidate mask must cover every overlay edge");
    DPC_ASSERT(comp_of.size() == alive.size() &&
                   live_degree.size() == alive.size(),
               "per-node views must agree on the vertex count");
    std::vector<std::pair<std::size_t, std::size_t>> picked;

    // Pass 1: bridge components.  A tiny union-find over component
    // labels tracks which components the proposals already merge so
    // we never spend two spares bridging the same pair.
    std::vector<std::uint32_t> root(num_comps);
    for (std::uint32_t c = 0; c < num_comps; ++c)
        root[c] = c;
    auto find = [&root](std::uint32_t c) {
        while (root[c] != c) {
            root[c] = root[root[c]];
            c = root[c];
        }
        return c;
    };
    std::vector<std::size_t> degree = live_degree;
    std::vector<std::uint8_t> used(overlay.size(), 0);
    if (num_comps > 1) {
        for (std::size_t id = 0; id < overlay.size(); ++id) {
            if (!candidate[id])
                continue;
            const auto [u, v] = overlay[id];
            if (!alive[u] || !alive[v])
                continue;
            const std::uint32_t cu = find(comp_of[u]);
            const std::uint32_t cv = find(comp_of[v]);
            if (cu == cv)
                continue;
            root[cu < cv ? cv : cu] = cu < cv ? cu : cv;
            picked.emplace_back(u, v);
            used[id] = 1;
            ++degree[u];
            ++degree[v];
        }
    }

    // Pass 2: degree-floor top-up with the projected degrees.
    for (std::size_t id = 0; id < overlay.size(); ++id) {
        if (!candidate[id] || used[id])
            continue;
        const auto [u, v] = overlay[id];
        if (!alive[u] || !alive[v])
            continue;
        if (degree[u] >= degree_floor && degree[v] >= degree_floor)
            continue;
        picked.emplace_back(u, v);
        ++degree[u];
        ++degree[v];
    }
    return picked;
}

Graph
makeComplete(std::size_t n)
{
    Graph::Builder g(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v)
            g.addEdge(u, v);
    return g.build();
}

} // namespace dpc
