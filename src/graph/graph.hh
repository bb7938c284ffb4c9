/**
 * @file
 * Undirected graph used as the communication overlay of the
 * decentralized power-capping algorithms (ring, chordal ring,
 * Erdos-Renyi, star, two-tier cluster fabric).  Adjacency-list
 * representation for construction, plus a cached flat CSR view
 * (contiguous offsets[]/neighbors[] arrays) that the hot round
 * engines and the BFS-based structural queries iterate over:
 * degrees, connectivity, BFS distances, diameter.
 */

#ifndef DPC_GRAPH_GRAPH_HH
#define DPC_GRAPH_GRAPH_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace dpc {

/**
 * Compressed-sparse-row view of an undirected graph: the
 * neighbours of v are neighbors[offsets[v] .. offsets[v+1]), in
 * the same order as Graph::neighbors(v).  32-bit entries keep the
 * arrays cache-dense at million-node scale (2 x 4 bytes per
 * directed edge instead of 8-byte pointers plus per-vertex heap
 * blocks).
 */
struct GraphCsr
{
    /** Size numVertices() + 1; offsets.back() == 2 * numEdges(). */
    std::vector<std::uint32_t> offsets;
    /** Concatenated adjacency lists, size 2 * numEdges(). */
    std::vector<std::uint32_t> neighbors;

    /** Degree of v (== Graph::degree(v)). */
    std::uint32_t degree(std::size_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }
};

/** Simple undirected graph over vertices 0..n-1. */
class Graph
{
  public:
    /** Empty graph with n isolated vertices. */
    explicit Graph(std::size_t n = 0);

    // The CSR cache carries a mutex (non-copyable), so the
    // value-semantic copies/moves the topology factories rely on
    // are spelled out: they transfer the adjacency lists and any
    // already-built CSR view, and give the destination its own
    // fresh synchronization state.
    Graph(const Graph &other);
    Graph(Graph &&other) noexcept;
    Graph &operator=(const Graph &other);
    Graph &operator=(Graph &&other) noexcept;

    /** Number of vertices. */
    std::size_t numVertices() const { return adj_.size(); }

    /** Number of undirected edges. */
    std::size_t numEdges() const { return num_edges_; }

    /**
     * Add the undirected edge {u, v}.  Self-loops and duplicate
     * edges are rejected (returns false).
     */
    bool addEdge(std::size_t u, std::size_t v);

    /** True if {u, v} is an edge. */
    bool hasEdge(std::size_t u, std::size_t v) const;

    /** Neighbours of v, in insertion order. */
    const std::vector<std::size_t> &neighbors(std::size_t v) const;

    /** Degree of v. */
    std::size_t degree(std::size_t v) const;

    /**
     * Flat CSR adjacency view, built lazily on first access and
     * cached until the next addEdge().
     *
     * Thread-safety contract: concurrent csr() calls on a fully
     * constructed graph are safe — the lazy build is guarded by a
     * double-checked atomic flag plus a build mutex, so exactly
     * one caller builds and the rest wait.  What is NOT safe is
     * mutating the graph (addEdge) concurrently with any reader;
     * finish construction first.  Hot paths that want the build
     * cost out of their timed region (or out of a parallel phase
     * entirely) call buildCsr() once up front — every allocator
     * constructor does.
     */
    const GraphCsr &csr() const;

    /**
     * Force the CSR build now (idempotent).  Call once after
     * construction when the view will be consumed from worker
     * threads or inside timed regions; csr() afterwards is a pure
     * acquire-load + return.
     */
    void buildCsr() const;

    /**
     * Copy of this graph with vertex ids relabeled through a
     * permutation (perm[old_id] = new_id): vertex v of the result
     * is vertex inv[v] of *this, and its neighbour list is the
     * original list with every entry mapped through perm, *in the
     * original insertion order*.  Preserving per-vertex neighbour
     * order is load-bearing: the allocators' diffusion sums and
     * edge enumerations iterate neighbour lists, so a scrambled-id
     * overlay keeps the same FP reduction order per node and the
     * same edge enumeration up to the relabeling.
     */
    Graph relabeled(const std::vector<std::uint32_t> &perm) const;

    /** Mean degree over all vertices (0 for the empty graph). */
    double averageDegree() const;

    /** Largest degree (0 for the empty graph). */
    std::size_t maxDegree() const;

    /** True if every vertex is reachable from vertex 0. */
    bool isConnected() const;

    /**
     * BFS hop distances from the source; unreachable vertices get
     * numVertices() as a sentinel.
     */
    std::vector<std::size_t> bfsDistances(std::size_t source) const;

    /**
     * Graph diameter (max finite BFS distance over all pairs);
     * requires a connected graph.  One scratch distance buffer and
     * frontier are reused across the V BFS passes, so the cost is
     * O(V * E) time and O(V) scratch rather than O(V^2) allocation
     * churn.
     */
    std::size_t diameter() const;

  private:
    /**
     * BFS from source into a caller-owned dist buffer (entries
     * must be preset to the unreachable sentinel numVertices());
     * cur/next are frontier scratch, cleared on entry.  Returns
     * the eccentricity of the source (max finite distance seen).
     */
    std::size_t bfsInto(std::size_t source,
                        std::vector<std::size_t> &dist,
                        std::vector<std::uint32_t> &cur,
                        std::vector<std::uint32_t> &next) const;

    std::vector<std::vector<std::size_t>> adj_;
    std::size_t num_edges_ = 0;

    /** Lazily built CSR mirror of adj_ (guarded; see csr()). */
    mutable GraphCsr csr_;
    /** Publication flag for csr_: set with release order after the
     * build completes, read with acquire order on every access. */
    mutable std::atomic<bool> csr_valid_{false};
    /** Serializes the one-time lazy build. */
    mutable std::mutex csr_mutex_;
};

} // namespace dpc

#endif // DPC_GRAPH_GRAPH_HH
