/**
 * @file
 * Generators for the communication topologies evaluated in the paper:
 * the ring used by DiBA (Fig. 4.1 right), the coordinator star of the
 * primal-dual / centralized schemes (Fig. 4.1 left), chord-augmented
 * rings for fault tolerance, connected Erdos-Renyi random graphs
 * (Fig. 4.10), and the two-tier rack/core physical fabric the
 * network model rides on.
 */

#ifndef DPC_GRAPH_TOPOLOGIES_HH
#define DPC_GRAPH_TOPOLOGIES_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hh"
#include "util/rng.hh"

namespace dpc {

/** Cycle over n >= 3 vertices; each vertex has degree 2. */
Graph makeRing(std::size_t n);

/**
 * Ring plus `chords` random non-adjacent chords, the fault-tolerant
 * variant the paper recommends ("the ring topology must be equipped
 * with a few chords").
 */
Graph makeChordalRing(std::size_t n, std::size_t chords, Rng &rng);

/** Star with vertex 0 as the hub (central coordinator). */
Graph makeStar(std::size_t n);

/**
 * Erdos-Renyi G(n, m) graph conditioned on connectivity: sample m
 * distinct edges uniformly, retrying whole graphs until connected.
 * Matches the evaluation protocol of Fig. 4.10 ("100 instances of
 * connected Erdos-Renyi random graphs").
 */
Graph makeConnectedErdosRenyi(std::size_t n, std::size_t m, Rng &rng);

/**
 * Connected random graph with exactly m >= n-1 edges: a uniform
 * random spanning tree (random-attachment construction) plus
 * m - (n-1) uniformly random extra edges.  Below average degree
 * ~ln(n) a G(n, m) sample is essentially never connected, so the
 * Fig. 4.10 sweep uses this generator for its sparse end.
 */
Graph makeRandomConnectedGraph(std::size_t n, std::size_t m,
                               Rng &rng);

/**
 * Two-tier cluster fabric: servers grouped into racks of
 * `rack_size`, each rack wired to a top-of-rack switch vertex and
 * all ToR switches wired to one core switch vertex.  Server
 * vertices are 0..n-1; switch vertices follow.
 */
Graph makeTwoTierFabric(std::size_t n, std::size_t rack_size);

/** Complete graph over n vertices (used in tests as a limit case). */
Graph makeComplete(std::size_t n);

/**
 * Healable overlay: a chordal ring with `spares` additional
 * pre-provisioned random chords intended to start administratively
 * disabled.  The spare chords are reported through `spare_edges`
 * (canonical u < v pairs); the recovery layer disables them on the
 * allocator at session start and re-enables individual spares when
 * the live overlay fragments or a node's live degree sags.  The
 * CSR overlay itself is immutable, so healing can only ever enable
 * capacity that was wired here up front.
 */
Graph makeHealableRing(std::size_t n, std::size_t chords,
                       std::size_t spares, Rng &rng,
                       std::vector<std::pair<std::size_t, std::size_t>>
                           *spare_edges);

/**
 * Overlay healer: propose disabled edges to re-enable so the live
 * overlay becomes connected again and every live node regains at
 * least `degree_floor` live links (capacity permitting).
 *
 * Inputs are per-edge/per-node views of the *believed* cluster
 * state (the caller is the recovery layer; it must not consult
 * ground truth):
 *  - `overlay`     all CSR overlay edges, canonical u < v order,
 *                  index == edge id;
 *  - `candidate`   per edge: 1 when the edge is currently disabled
 *                  but believed healthy and eligible to enable
 *                  (typically: a spare whose endpoints are alive
 *                  and whose fates are not suspected);
 *  - `alive`       per node: believed-active mask;
 *  - `comp_of`     per node: dense component label of the live
 *                  overlay (ComponentTracker::labels()), valid
 *                  where alive;
 *  - `num_comps`   number of live components;
 *  - `live_degree` per node: current live degree;
 *  - `degree_floor` target minimum live degree.
 *
 * Two deterministic greedy passes in ascending edge-id order:
 * first bridge distinct components (each proposal merges two, so k
 * components cost at most k-1 enables), then top up nodes whose
 * projected degree is still below the floor.  Returns the edges to
 * enable as canonical pairs.
 */
std::vector<std::pair<std::size_t, std::size_t>> proposeOverlayRepairs(
    const std::vector<GraphEdge> &overlay,
    const std::vector<std::uint8_t> &candidate,
    const std::vector<std::uint8_t> &alive,
    const std::vector<std::uint32_t> &comp_of, std::size_t num_comps,
    const std::vector<std::size_t> &live_degree,
    std::size_t degree_floor);

} // namespace dpc

#endif // DPC_GRAPH_TOPOLOGIES_HH
