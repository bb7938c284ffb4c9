/**
 * @file
 * Vertex-reordering layout subsystem for the overlay graph.
 *
 * The round engines stream SoA state (p, e, eta, ...) indexed by
 * vertex id, so the memory behaviour of a sweep is fixed by the
 * labeling: neighbours with distant ids force scattered gathers
 * across streams that no longer fit in cache once n reaches 1e5.
 * This module computes a *pure build-time relabeling* -- a
 * permutation perm with perm[old_id] = new_id -- chosen to make
 * topological neighbours numerical neighbours:
 *
 *  - reverse Cuthill-McKee (rcm): BFS from a pseudo-peripheral
 *    vertex with ascending-degree tie-breaking, order reversed;
 *    the classic bandwidth-minimizing heuristic, ideal for rings,
 *    chordal rings and other low-diameter-expansion overlays;
 *  - recursive bisection: BFS-halving splits assigning contiguous
 *    id ranges to the two halves, recursively -- a cheap stand-in
 *    for nested dissection that keeps dense subclusters in
 *    contiguous blocks (good for two-tier cluster fabrics);
 *  - hilbert: maps id i of an implicit row-major sqrt(n) grid to
 *    its Hilbert space-filling-curve rank, for grid-like
 *    topologies whose natural ids are row-major (documented
 *    assumption: vertex ids enumerate a near-square grid row by
 *    row; for anything else this is a no-better-than-identity
 *    shuffle and `automatic` will not pick it);
 *  - automatic: the closed loop over the csrChunkLocality metric
 *    -- compute every candidate, *measure* the chunk locality each
 *    one achieves on the relabeled CSR, and keep the best (ties go
 *    to the earlier candidate; identity is always a candidate, so
 *    automatic never degrades locality).
 *
 * All algorithms are deterministic (no RNG, ties broken by id), so
 * a layout is a pure function of the graph and every run of an
 * engine on the same overlay sees the same labeling.
 */

#ifndef DPC_GRAPH_REORDER_HH
#define DPC_GRAPH_REORDER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hh"

namespace dpc {

/** Vertex-layout policy for the overlay (Config::layout). */
enum class Layout : std::uint8_t
{
    /** Keep the construction-order ids (no relabeling). */
    identity = 0,
    /** Reverse Cuthill-McKee bandwidth reduction. */
    rcm,
    /** Recursive BFS bisection into contiguous id ranges. */
    bisection,
    /** Hilbert curve over the implicit row-major sqrt(n) grid. */
    hilbert,
    /** Measure csrChunkLocality per candidate, keep the best. */
    automatic,
};

/** Human-readable layout name (JSON/bench labels). */
const char *layoutName(Layout layout);

/** The identity permutation on n vertices. */
std::vector<std::uint32_t> identityOrder(std::size_t n);

/**
 * Reverse Cuthill-McKee permutation (perm[old] = new).  Each
 * connected component is ordered from a pseudo-peripheral start
 * vertex (iterated BFS eccentricity sharpening), neighbours
 * appended in ascending-degree order (ties by id), and the final
 * order reversed.  Deterministic; handles disconnected graphs by
 * processing components in ascending order of their lowest id.
 */
std::vector<std::uint32_t> reverseCuthillMcKee(const Graph &g);

/**
 * Recursive-bisection permutation (perm[old] = new): split the
 * vertex set by BFS halving from a pseudo-peripheral vertex and
 * assign each half a contiguous new-id range, recursing until the
 * parts are leaf-sized.  Keeps tightly coupled regions in
 * contiguous id blocks (and hence in the same thread chunk).
 */
std::vector<std::uint32_t> recursiveBisectionOrder(const Graph &g);

/**
 * Hilbert-curve permutation (perm[old] = new) for overlays whose
 * ids enumerate a near-square grid row by row: id i sits at
 * (i % side, i / side) with side = ceil(sqrt(n)), and new ids
 * follow the Hilbert rank on the smallest covering power-of-two
 * grid (ties by old id).  On non-grid overlays this is a valid
 * but unhelpful permutation; prefer `automatic` when unsure.
 */
std::vector<std::uint32_t> hilbertOrder(const Graph &g);

/** Inverse of a permutation: inv[perm[i]] == i. */
std::vector<std::uint32_t>
inversePermutation(const std::vector<std::uint32_t> &perm);

/** True if perm[i] == i for all i. */
bool isIdentityPermutation(const std::vector<std::uint32_t> &perm);

/**
 * The locality a candidate permutation would achieve: the
 * csrChunkLocality of the relabeled CSR cut into `chunks` pieces.
 * This is the measurement side of the layout closed loop.
 */
double layoutLocality(const Graph &g,
                      const std::vector<std::uint32_t> &perm,
                      std::size_t chunks);

/**
 * Compute the permutation for a layout policy (perm[old] = new).
 * `chunks` parameterizes the locality measurement used by
 * Layout::automatic: it is widened to at least one chunk per 2048
 * vertices so the metric resolves cache-block locality even on a
 * single-socket (chunks == 1) engine, closing the loop
 * measured locality -> chosen permutation -> gated ns/edge.
 */
std::vector<std::uint32_t>
computeLayout(const Graph &g, Layout layout, std::size_t chunks = 1);

} // namespace dpc

#endif // DPC_GRAPH_REORDER_HH
