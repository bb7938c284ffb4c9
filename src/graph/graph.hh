/**
 * @file
 * Undirected graph used as the communication overlay of the
 * decentralized power-capping algorithms (ring, chordal ring,
 * Erdos-Renyi, star, two-tier cluster fabric).  A Graph is one
 * immutable compressed-sparse-row structure (32-bit offsets[] /
 * neighbors[] arrays, each vertex's neighbours in the order its
 * edges were added), built once by Graph::Builder: a copy is two
 * flat vector copies, and the round engines and the BFS-based
 * structural queries (degrees, connectivity, BFS distances,
 * diameter) iterate the arrays directly.
 */

#ifndef DPC_GRAPH_GRAPH_HH
#define DPC_GRAPH_GRAPH_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dpc {

/**
 * Compressed-sparse-row adjacency of an undirected graph: the
 * neighbours of v are neighbors[offsets[v] .. offsets[v+1]).
 * 32-bit entries keep the arrays cache-dense at million-node scale
 * (2 x 4 bytes per directed edge, no per-vertex heap blocks).
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

/** An undirected edge as a canonical (u < v) pair of vertex ids. */
using GraphEdge = std::pair<std::uint32_t, std::uint32_t>;

/** Simple undirected graph over vertices 0..n-1 (immutable). */
class Graph
{
  public:
    class Builder;

    /** Edgeless graph with n isolated vertices. */
    explicit Graph(std::size_t n = 0);

    /** Number of vertices. */
    std::size_t numVertices() const
    {
        return csr_.offsets.empty() ? 0 : csr_.offsets.size() - 1;
    }

    /** Number of undirected edges. */
    std::size_t numEdges() const { return csr_.neighbors.size() / 2; }

    /** True if {u, v} is an edge (scans the smaller list). */
    bool hasEdge(std::size_t u, std::size_t v) const;

    /** Neighbours of v, in insertion order. */
    std::span<const std::uint32_t> neighbors(std::size_t v) const;

    /** Degree of v. */
    std::size_t degree(std::size_t v) const
    {
        return neighbors(v).size();
    }

    /** The CSR arrays themselves (slot k of vertex v is
     * offsets[v] + its position in neighbors(v)). */
    const GraphCsr &csr() const { return csr_; }

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

    /** True if every vertex is reachable from vertex 0 (one BFS
     * over a byte mask and a vertex queue). */
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

    GraphCsr csr_;
};

/**
 * Mutable edge-by-edge construction of a Graph: the topology
 * factories add edges here, then build() packs the adjacency into
 * the immutable CSR, keeping each vertex's neighbours in insertion
 * order.
 */
class Graph::Builder
{
  public:
    /** n isolated vertices (fewer than 2^32). */
    explicit Builder(std::size_t n);

    /** Number of vertices. */
    std::size_t numVertices() const { return adj_.size(); }

    /** Number of undirected edges added so far. */
    std::size_t numEdges() const { return num_edges_; }

    /**
     * Add the undirected edge {u, v}.  Self-loops and duplicate
     * edges are rejected (returns false).
     */
    bool addEdge(std::size_t u, std::size_t v);

    /** True if {u, v} was added. */
    bool hasEdge(std::size_t u, std::size_t v) const;

    /** The graph of the edges added so far (the builder stays
     * usable: later edges go into later builds only). */
    Graph build() const;

  private:
    std::vector<std::vector<std::uint32_t>> adj_;
    std::size_t num_edges_ = 0;
};

} // namespace dpc

#endif // DPC_GRAPH_GRAPH_HH
