/**
 * @file
 * DiBA: fully decentralized power-budget allocation (Algorithm 4,
 * the paper's core contribution).
 *
 * Every server i holds two local state variables: its power cap
 * p_i and an estimate e_i of its share of the coupled constraint
 * sum_j p_j - P (Eq. 4.7).  One synchronized round consists of
 *
 *  1. neighbour exchange: each node sends e_i to its graph
 *     neighbours and folds the received estimates in with
 *     Metropolis consensus weights (the \hat e_{i->j} transfers of
 *     Eq. 4.9, realised as the equivalent pairwise slack
 *     diffusion);
 *  2. a barrier-regularized gradient step on the local utility
 *     R_i = r_i(p_i) + eta * log(-e_i) with curvature-scaled step
 *     size and backtracking into the action space (box constraints
 *     and e_i strictly negative), applied to p_i and e_i jointly
 *     (Eq. 4.8).
 *
 * Invariants maintained exactly at every round:
 *   - sum_i e_i == sum_i p_i - P (pairwise transfers cancel;
 *     gradient steps add to p_i and e_i simultaneously);
 *   - every e_i < 0, hence sum_i p_i < P: the budget is a hard
 *     guarantee at all times, including across budget changes.
 *
 * Utilities are the concave quadratics r_i(p) = a + b p + c p^2 the
 * paper's problem is posed over (QuadraticUtility): reset() and
 * setUtility() refuse any other utility, naming the node.
 *
 * Note on Eq. 4.10: the dissertation text writes the penalty as
 * "- eta log(-e)", which diverges to +infinity at the boundary and
 * would reward constraint violation under maximization; we use the
 * standard log-barrier sign (see DESIGN.md, "DiBA faithfulness").
 *
 * The class exposes the stepwise IterativeAllocator protocol
 * (reset / step / converged / result, with allocate() as the
 * one-shot wrapper), the raw incremental primitives (iterate /
 * setBudget / setUtility) used by the dynamic-reallocation
 * experiments (Figs. 4.4-4.9), and a fault-injection surface:
 * synchronized rounds routed through a GossipChannel (paired
 * transfers that drop or go stale together, preserving the sum
 * invariant bit-exactly), failNode/joinNode churn, and per-edge
 * enable/disable for link partitions -- all mask-based, with no
 * topology rebuild.
 */

#ifndef DPC_ALLOC_DIBA_HH
#define DPC_ALLOC_DIBA_HH

#include <cstddef>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "net/transport.hh"
#include "alloc/problem.hh"
#include "alloc/round_kernel.hh"
#include "graph/frontier.hh"
#include "graph/graph.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace dpc {

/** Decentralized consensus/barrier budget allocator. */
class DibaAllocator : public IterativeAllocator
{
  public:
    struct Config
    {
        /**
         * Final barrier weight eta: smaller tracks the optimum
         * closer but conditions the barrier worse (Sec. 4.3.2).
         * The equilibrium slack per node is ~eta / lambda*, and
         * that slack is the "pipe" through which consensus moves
         * power between nodes; DiBA therefore anneals eta from
         * `eta_initial` down to this floor (the paper's
         * non-increasing step sequence eps_i^t), interior-point
         * style: a wide pipe while reallocating, tight budget
         * tracking at the end.
         */
        double eta = 0.004;
        /** Initial (annealed-from) barrier weight. */
        double eta_initial = 0.08;
        /**
         * Geometric decay applied to a node's barrier weight in a
         * round where it was locally quiescent (moved less than
         * `anneal_gate`).  The annealing is therefore paced by the
         * actual slack transport: dense overlays quiesce and
         * anneal quickly, sparse rings keep the pipe wide while
         * power is still in flight -- which is what makes the
         * convergence time degree-dependent (Fig. 4.10).
         */
        double eta_decay = 0.93;
        /** Per-round quiescence threshold for annealing (W). */
        double anneal_gate = 0.05;
        /**
         * Reheat factor: a node moving more than `reheat_gate`
         * widens its barrier again (up to eta_initial), re-opening
         * the transport pipe after workload or budget changes.
         */
        double eta_reheat = 1.02;
        /** Per-round movement that triggers reheating (W). */
        double reheat_gate = 1.0;
        /** Damping of the curvature-scaled gradient step. */
        double damping = 0.65;
        /** Per-round power move limit (W) per server. */
        double max_move = 4.0;
        /** Backtracking keeps at least this fraction of |e_i|. */
        double barrier_keep = 0.1;
        /**
         * Optional relative estimate-gap deadband below which
         * neighbours do not exchange slack (gated gossip).  Zero
         * (default) gives exact price equalization and the closest
         * tracking of the optimum; positive values cut message
         * churn and further localize perturbation responses, at
         * the cost of a price dispersion that can accumulate
         * across the graph diameter.
         */
        double deadband = 0.0;
        /**
         * Active-set round engine (negative = off, the default).
         * When >= 0, synchronized rounds track a hot frontier of
         * nodes whose last-round residual max(|dp|, |diffusion
         * de|) reached this threshold (W), and only
         * frontier ∪ N(frontier) does any gossip or gradient work;
         * an edge exchanges slack iff either endpoint is hot, a
         * rule symmetric in the endpoints, so skipped pairs
         * exchange nothing and sum(e) conservation is exact at any
         * threshold.  The membership test is non-strict, so 0.0
         * keeps every node hot forever and the engine is
         * bitwise-identical to the dense sweep; positive values
         * make steady-state rounds O(changed region) instead of
         * O(V + E), at the cost of freezing sub-threshold
         * residuals until the next perturbation reheats them.
         * Control events reheat conservatively: budget steps,
         * churn, link cuts and channel-routed rounds reheat every
         * node, setUtility only the node it touched.  The engine
         * applies in the all-active zero-deadband configuration
         * to iterate()/step() and to transport rounds over a
         * synchronous wake-capable transport (the sharded
         * sockets); every other transport or channel round and
         * every gossip tick runs dense and reheats.
         */
        double active_threshold = -1.0;
        /** Initial budget slack fraction of the uniform start. */
        double slack_frac = 0.01;
        /**
         * Seed reset() at the barrier equilibrium of the budget
         * (true, the default): one sort-free water-level search (a
         * few O(n) passes), the caps at that level, uniform
         * estimates (sum p - P)/n and barriers at `eta`, so gossip
         * only confirms the start.  false keeps the paper's uniform
         * start (caps at (1 - slack_frac) P/n clamped into the
         * boxes, equal estimates, barriers at eta_initial) and its
         * cold gossip solve.
         */
        bool seed_cold_start = true;
        /** Fixed-point tolerance on the max per-round move (W). */
        double tolerance = 0.008;
        /** Rounds below tolerance required to declare convergence. */
        std::size_t quiet_rounds = 5;
        /** Hard iteration cap for allocate(). */
        std::size_t max_iterations = 20000;
        /**
         * Worker threads for the synchronized round engine: 0 runs
         * the plain serial loops, T >= 1 splits both round phases
         * into T static chunks (T - 1 pool threads plus the
         * caller).  Both phases of iterate() read only
         * barrier-separated snapshots and write node-local state,
         * so every thread count produces bitwise-identical
         * trajectories (see DESIGN.md, "Round engine").
         */
        std::size_t num_threads = 0;
    };

    /**
     * @param topology communication overlay; one vertex per server
     *        (ring, chordal ring, ER graph, ...), must be connected
     * @param cfg      algorithm parameters
     */
    explicit DibaAllocator(Graph topology);
    DibaAllocator(Graph topology, Config cfg);

    std::string name() const override { return "diba"; }

    // ---- Stepwise IterativeAllocator protocol -------------------
    // reset(prob) comes from the base (validates, stores the
    // problem, dispatches to doReset(): the barrier-equilibrium
    // seed of cfg.seed_cold_start, else the uniform power start
    // with cfg.slack_frac budget slack and equalized estimates; the
    // topology must have exactly prob.size() vertices).

    /** One synchronized round + convergence accounting. */
    double step(Rng &rng) override;

    /** cfg.quiet_rounds consecutive rounds under cfg.tolerance. */
    bool converged() const override;

    AllocationResult result() const override;

    std::size_t iterations() const override { return iterations_; }

    std::size_t maxIterations() const override
    {
        return cfg_.max_iterations;
    }

    /**
     * One synchronized round (consensus exchange + local gradient
     * steps), without touching the convergence accounting (the
     * raw primitive step() wraps).  @return the largest |dp_i|
     * moved this round (W).
     */
    double iterate();

    /**
     * Shard-local synchronized round over the node-id range
     * [owned_begin, owned_end): the one routed round (an
     * in-process caller passes [0, n), where every node is
     * interior).
     *
     * Fates: with a channel, every live pair's fate is drawn from
     * `chan` in canonical edge_id order over the FULL overlay (so
     * a seeded channel consumes the same draws on every shard and
     * in the single-process run).  A dropped pair cancels both
     * halves (neither endpoint moves estimate mass), a stale pair
     * is computed by both endpoints from the same lagged snapshot,
     * so sum(e) == sum(p) - P is conserved bit-exactly under any
     * loss/delay pattern.  Without a channel every pair is
     * delivered fresh, cut (non-zero t.cutMask() entry) or not.
     *
     * Values: every live cut pair is offered to `t` whatever its
     * fate, carrying the pre-round snapshot estimates and the
     * endpoint ids, and the transport writes the peer halves
     * straight into the round's snapshot rows.  Only owned
     * nodes move -- per-node arithmetic is range-independent, so
     * owned caps/estimates are bitwise equal to the
     * single-process run.  With an identity transport and no
     * channel this is bitwise identical to iterate().
     *
     * It overlaps compute with communication: owned INTERIOR
     * nodes (every CSR neighbour inside the owned range -- their
     * diffusion never reads a halo entry) are diffused and
     * stepped in chunks while the transport drains via tryPoll()
     * between chunks; only the boundary residue waits for the
     * blocking poll().  Per-node arithmetic is node-local and the
     * range max is order-free, so the schedule is bitwise
     * invisible.  On the active-set engine with no channel over a
     * synchronous wake-capable transport the round instead drains
     * first, syncs the halo's frontier bits from the wake view,
     * and sweeps the owned slice of frontier ∪ N(frontier) --
     * bitwise equal to iterate() under the same threshold.
     *
     * @return max |dp| over the owned range only; all-reduce it
     * across shards (the piggybacked dp reports) and feed resolved
     * global values to noteExternalRound() for convergence
     * accounting that matches single-process.
     */
    double iterateShard(net::Transport &t, std::size_t owned_begin,
                        std::size_t owned_end,
                        GossipChannel *chan = nullptr);

    /**
     * Do the one-time setup of iterateShard over [owned_begin,
     * owned_end) on `t` now, between rounds: the interior/boundary
     * run split and the cut-id list, which the first round would
     * otherwise build lazily on its own clock.
     * Optional and state-neutral: the rounds compute the same bits
     * either way.
     */
    void prepareShardRounds(const net::Transport &t,
                            std::size_t owned_begin,
                            std::size_t owned_end);

    /** iterateShard over the whole overlay + convergence
     * accounting (the fault harnesses' step()). */
    double stepWithTransport(net::Transport &t,
                             GossipChannel *chan = nullptr);

    /** Wall-clock totals of the transport-routed round phases
     * (summed over rounds; the bench's per-phase breakdown).
     * Active-set rounds cannot overlap: all their compute waits
     * out the drain and lands in boundary_s. */
    struct TransportPhaseTotals
    {
        double send_s = 0.0;
        double interior_s = 0.0;
        double drain_s = 0.0;
        double boundary_s = 0.0;
        std::uint64_t rounds = 0;
    };

    const TransportPhaseTotals &transportPhases() const
    {
        return phase_totals_;
    }

    /** Wall-clock seconds of the constructor's phases (per-slot
     * tables, connectivity assert) and the last reset()'s
     * (quadratic mirror; seed, or the uniform start). */
    struct SetupPhases
    {
        double slot_tables_s = 0.0;
        double connect_s = 0.0;
        double mirror_s = 0.0;
        double seed_s = 0.0;
    };

    const SetupPhases &setupPhases() const { return setup_phases_; }

    /**
     * Fold an externally reduced round max |dp| (the broker
     * all-reduce over every shard's iterateShard return) into the
     * iteration/convergence accounting, exactly as
     * stepWithTransport would with the locally computed value.
     * The fold is applied only when `epoch` matches the current
     * recovery epoch, so a globally resolved max |dp| that raced
     * across an epoch change (it describes a round the rollback
     * discarded) cannot leak into the post-recovery convergence
     * accounting.
     */
    void noteExternalRound(std::uint32_t epoch, double moved)
    {
        if (epoch == recovery_epoch_)
            noteRound(moved);
    }

    /** Enter recovery epoch `e` (cluster/shard.cc bumps this on
     * every broker-confirmed shard death). */
    void setRecoveryEpoch(std::uint32_t e) { recovery_epoch_ = e; }

    /** Current recovery epoch (0 until a shard death). */
    std::uint32_t recoveryEpoch() const { return recovery_epoch_; }

    /**
     * Announce a new total budget P (the demand-response signal
     * every node receives): each node shifts its estimate by
     * -(delta P)/N and, if the budget dropped enough to exhaust
     * its local slack, sheds power immediately so that sum p < P
     * is restored within the same control step (Fig. 4.5).
     */
    void setBudget(double new_budget) override;

    /**
     * Replace one server's utility (a workload change, Fig. 4.8);
     * it must be a QuadraticUtility, whose coefficients and box
     * overwrite node i's slot of the SoA mirror.  The power cap is
     * clamped into the new box and the estimate adjusted to
     * preserve the global invariant.
     */
    void setUtility(std::size_t i, UtilityPtr u) override;

    /**
     * Warm re-entry from a previous allocation (control-step
     * reconvergence instead of a cold solve).  When `prev.power`
     * is exactly the live state (the ClusterSim steady loop), a
     * budget delta re-seeds the cluster at the barrier equilibrium
     * of the new budget (seedBarrierEquilibrium), so gossip only
     * confirms it; a new budget at or under the total power floor
     * has no such equilibrium and is announced like setBudget (a
     * uniform estimate shift plus the emergency shed).  Otherwise
     * the snapshot is adopted: caps
     * clamped into the current boxes, slack re-equalized to
     * (sum p - P)/n (the one estimate vector derivable from an
     * external power vector that satisfies the invariant), and the
     * barriers restart at the floor -- tight tracking from a
     * near-optimal point, with reheat_gate re-widening them
     * automatically if the step turns out to be large.  Either way
     * the frontier reheats everywhere, iteration/convergence
     * accounting restarts at zero, and a budget drop that exhausts
     * the adopted slack triggers the usual emergency shed, so
     * sum p < P holds from the first round.  Requires a cluster
     * with no failed nodes.
     */
    void warmStart(const AllocationResult &prev,
                   double budget_delta = 0.0) override;

    /**
     * One *asynchronous* gossip tick: a single random edge {u, v}
     * activates, the two endpoints exchange and average their
     * estimates (preserving the global invariant), and both take a
     * local gradient step.  No cluster-wide synchronization (no
     * NTP round barrier) is required in this mode; N ticks do
     * roughly the work of one synchronized round.
     *
     * With a channel, the activated edge's exchange is delivered
     * or dropped by `chan`.  On a drop the pairwise averaging
     * simply does not happen (the endpoints never learn the
     * message was lost) but both still take their local gradient
     * steps; the sum invariant is conserved either way.
     * Staleness does not apply to async ticks (there is no round
     * clock to be stale against), so any returned lag is ignored.
     *
     * @return the largest |dp| moved by the two endpoints (W)
     */
    double gossipTick(Rng &rng, GossipChannel *chan = nullptr);

    /**
     * O(E) audit that the incrementally maintained live-edge list
     * (liveEdges(), pruned by swap-removal on churn instead of a
     * full rebuild) is exact: it contains precisely the enabled
     * edges with both endpoints active, with a consistent
     * position index.  Debug builds assert this after every
     * mutation; tests call it explicitly.
     */
    bool liveEdgeListExact() const;

    /**
     * Permanently remove a failed server from the optimization:
     * its cap is withdrawn (the electrical power it no longer
     * draws is handed to its neighbours as slack) and it stops
     * participating in exchanges.  If the failure disconnects the
     * surviving overlay (avoidable with chord-equipped rings,
     * Sec. 4.4.2), a warning is issued and each partition keeps
     * optimizing within the slack it holds -- the global budget
     * guarantee is unaffected.  This is the fault-isolation
     * property motivating the decentralized design (Sec. 4.2).
     */
    void failNode(std::size_t i);

    /**
     * failNode() minus the neighbour slack hand-off, applied to a
     * whole set of nodes at once, for the sharded recovery path:
     * the dead nodes' authoritative (p, e) lived in a process that
     * no longer exists, so a survivor cannot gift their slack to
     * the neighbours -- the local mirror of the dead entries is
     * simply zeroed and the budget the dead block held is
     * reclaimed by the subsequent re-federation
     * (refederateBudgetWithHeld).  Edges are pruned in ascending
     * id (the set is sorted first), which leaves the
     * live-edge list bitwise equal to failing the nodes one at a
     * time in that order; the history restart, frontier reheat and
     * connectivity check then run once for the set, so surgery on
     * a dead block is one O(n + E) pass.  Every survivor applies
     * the same transform, which keeps their full-size mirrors
     * bitwise aligned.  Every listed node must be active.  The
     * same pass labels the survivors' live components
     * (liveComponents()), into `label_of` when given.
     * @return the number of live components.
     */
    std::size_t failNodesQuiet(std::vector<std::size_t> nodes,
                               std::vector<std::uint32_t> *label_of =
                                   nullptr);

    /**
     * Re-admit a previously failed server: the exact inverse of
     * failNode().  The node rejoins at its power floor with one
     * token of negative slack and its enabled live neighbours are
     * charged the matching debt, so sum_active(e) == sum_active(p)
     * - P holds across the event; an emergency shed inside the
     * same call restores sum p < P if the re-admitted floor power
     * exhausted someone's slack.  The node then ramps in through
     * the barrier (its annealing restarts wide open), acquiring
     * power from its neighbours over the following rounds.  No
     * topology or CSR rebuild happens -- participation is purely
     * mask-based.
     */
    void joinNode(std::size_t i);

    /**
     * Administratively disable or re-enable one overlay edge (a
     * link partition / heal event).  Disabled edges carry no
     * synchronized-round transfer, are never activated by async
     * gossip, and carry no failNode/joinNode slack hand-off; the
     * graph itself is untouched (mask-based, no CSR rebuild).  If
     * cutting an edge splits the active overlay, each partition
     * keeps optimizing within the slack it holds and the global
     * budget guarantee is unaffected (same argument as failNode).
     */
    void setEdgeEnabled(std::size_t u, std::size_t v, bool enabled);

    /** Whether overlay edge {u, v} is currently enabled. */
    bool edgeEnabled(std::size_t u, std::size_t v) const;

    /** Edge id (index into overlayEdges()) of overlay edge {u, v},
     * either orientation: an O(deg(u)) scan of u's CSR slots;
     * asserts that {u, v} is an overlay edge. */
    std::uint32_t edgeId(std::size_t u, std::size_t v) const;

    /** Link mask per edge_id (index-aligned with overlayEdges();
     * 0 = administratively cut).  Lets the recovery layer decide in
     * O(1) per edge which fates the round consumed and which edges
     * it must probe itself. */
    const std::vector<std::uint8_t> &edgeEnabledMask() const
    {
        return edge_enabled_;
    }

    // ---- recovery support (self-healing layer, see DESIGN.md) ---

    /**
     * Re-open the transport pipe cluster-wide: every active node's
     * barrier weight returns to eta_initial and the whole frontier
     * reheats.  Stage 2 of the convergence watchdog's escalation
     * ladder; also useful after external state surgery.
     */
    void reheat();

    /**
     * Label the live overlay's connected components among active
     * nodes: label_of[i] in [0, k) for active i (dense, assigned in
     * ascending order of each component's lowest id -- the same
     * order ComponentTracker uses), kNoComponent for failed nodes.
     * @return k, the number of components.
     */
    std::size_t liveComponents(std::vector<std::uint32_t> &label_of) const;

    /** Label liveComponents() reports for failed nodes. */
    static constexpr std::uint32_t kNoComponent = 0xffffffffu;

    /**
     * Budget each labeled component currently holds according to
     * the books: Q_j = sum_{i in C_j} p_i - sum_{i in C_j} e_i.
     * Because every fault hand-off (failNode gift, joinNode debt,
     * paired transfers) moves estimate mass only along live edges,
     * Q_j is exactly the budget component j is honoring, whether or
     * not re-federation has been announced.  This is the one-shard
     * case of the canonical fold: heldPartials() over every node,
     * then foldHeldPartials().
     */
    std::vector<double> heldBudgets(
        const std::vector<std::uint32_t> &label_of,
        std::size_t num_comps) const;

    /**
     * Per-component (sum p, sum e) partials over the active nodes
     * with owner_of[i] == owner (every active node when owner_of
     * is null), accumulated in ascending id -- one owner's
     * contribution to the canonical held-budget fold (a shard's,
     * in the sharded recovery path, with the shard plan's
     * owner_of).
     */
    void heldPartials(const std::vector<std::uint32_t> &label_of,
                      std::size_t num_comps,
                      const std::uint32_t *owner_of,
                      std::uint32_t owner, std::vector<double> &sum_p,
                      std::vector<double> &sum_e) const;

    /**
     * Stage-1 watchdog action: re-seed the round dynamics at the
     * barrier equilibrium.  A healthy cluster (every node active,
     * no cut edges, no federation) is seeded at the current budget
     * exactly as warmStart seeds it; otherwise every live component
     * is seeded (seedComponent) against the budget it holds on the
     * books, sum p - sum e, so per-component conservation survives.
     * A component the seed refuses (no headroom above its power
     * floor) is equalized instead: its
     * estimates jump to their mean (a one-node compensation keeps
     * the sum to rounding; skipped unless the mean is strictly
     * negative) and its barriers reheat to eta_initial.  Returns
     * true when every component was seeded.  Either way the
     * convergence accounting restarts and the frontier reheats.
     */
    bool reseedEquilibrium();

    /**
     * Adopt externally computed caps (the watchdog's fallback
     * allocator): active nodes' caps are clamped into their boxes,
     * then each live component's slack is re-equalized against the
     * budget it held before the adoption, so per-component
     * conservation -- and hence the global budget guarantee --
     * survives the surgery.  Convergence accounting restarts; an
     * emergency shed runs if any component's slack went
     * non-negative.
     */
    void adoptCaps(const std::vector<double> &caps);

    /**
     * Partition-aware budget re-federation.  Given dense component
     * labels for the active nodes (comp_of[i] < num_comps), each
     * component j is assigned the proportional share
     *
     *   share_j = minP_j + H * w_j / sum_k w_k,   H = P - sum_k minP_k
     *
     * (w_j the component's box headroom), with the last share taken
     * as the exact remainder and then shaved one ulp at a time
     * until the shares' label-order sum is <= P in plain double
     * arithmetic -- the safe-side rounding InvariantChecker audits
     * bitwise.  Estimates shift uniformly within each component so
     * sum_Cj e == sum_Cj p - share_j afterwards, and an emergency
     * shed restores strict slack if a component's share shrank
     * below what it held.  Each component is then seeded at the
     * barrier equilibrium of its share (seedComponent), which
     * reads only the utilities, the membership and the share; a
     * component the seed refuses keeps the shifted state.
     * num_comps == 1 dissolves the federation (the single share is
     * P itself and the global invariant is restored exactly).
     */
    void refederateBudget(const std::vector<std::uint32_t> &comp_of,
                          std::size_t num_comps);

    /**
     * refederateBudget() with the per-component held budgets Q_j
     * supplied by the caller instead of computed from the local
     * books.  The sharded recovery path needs this: the canonical
     * held values are folded from per-shard owned partials
     * (foldHeldPartials), and across several shards that is a
     * different floating-point summation order than one process's
     * books -- heldBudgets() is only its one-shard case -- so every
     * survivor must announce from the broker's bits or their
     * estimate shifts diverge.  Share computation, estimate shifts,
     * and the safe-side rounding are identical to
     * refederateBudget(), which delegates here.
     */
    void refederateBudgetWithHeld(
        const std::vector<std::uint32_t> &comp_of,
        std::size_t num_comps, const std::vector<double> &held);

    // ---- shard checkpoint ring (sharded recovery) ---------------

    /**
     * Keep the last `depth` completed transport rounds' mutable
     * state (caps, estimates, barrier weights, snapshot history,
     * iteration accounting) in a ring so the shard runtime can roll
     * back to the common recovery round an epoch change names --
     * an aborted round leaves partially stepped state that must be
     * discarded before re-federation.  0 (the default) disables
     * checkpointing; call between rounds only.
     */
    void setShardCheckpointDepth(std::size_t depth);

    /** Snapshot the between-rounds state, keyed by
     * transportRound() (completed rounds).  No-op at depth 0. */
    void saveShardCheckpoint();

    /**
     * Restore the checkpoint taken at `rounds_completed` completed
     * rounds, discarding every later -- possibly partial -- round.
     * @return false (allocator untouched) if that checkpoint aged
     * out of the ring or checkpointing is disabled.
     */
    bool rollbackToShardCheckpoint(std::uint64_t rounds_completed);

    /** Completed transport-routed rounds (the checkpoint key). */
    std::uint64_t transportRound() const { return transport_round_; }

    /** True while a multi-component federation is announced. */
    bool federationActive() const { return fed_shares_.size() > 1; }

    /** Announced per-component shares (empty or size 1 when no
     * federation is active). */
    const std::vector<double> &federationShares() const
    {
        return fed_shares_;
    }

    /** Labels the active federation was announced with (empty when
     * no federation is active). */
    const std::vector<std::uint32_t> &federationComponentOf() const
    {
        return fed_comp_of_;
    }

    /**
     * Canonical overlay edge list (u < v, fixed order for the
     * lifetime of the allocator); the index of an edge in this
     * list is its edge_id in GossipChannel queries.
     */
    const std::vector<GraphEdge> &overlayEdges() const
    {
        return all_edges_;
    }

    /** Currently live edges (enabled, both endpoints active;
     * empty before the first reset()). */
    const std::vector<GraphEdge> &liveEdges() const
    {
        return edges_;
    }

    /** Whether node i is still participating. */
    bool isActive(std::size_t i) const;

    /** Number of surviving nodes. */
    std::size_t numActive() const { return num_active_; }

    /** Current power caps. */
    const std::vector<double> &power() const { return p_; }

    /** Current constraint estimates e_i (all < 0). */
    const std::vector<double> &estimates() const { return e_; }

    /** Current utilities (after any setUtility calls). */
    const std::vector<UtilityPtr> &utilities() const
    {
        return problem_.utilities;
    }

    /** Node i's annealed barrier weight. */
    double barrierWeight(std::size_t i) const { return eta_now_[i]; }

    /** Sum of the current power caps over active nodes. */
    double totalPower() const;

    /** Current total budget. */
    double budget() const { return budget_; }

    /** Messages exchanged per round (one per directed edge). */
    std::size_t messagesPerRound() const;

    /** The communication topology. */
    const Graph &topology() const { return topo_; }

    /** The algorithm parameters in force. */
    const Config &config() const { return cfg_; }

    /** True when synchronized rounds run the active-set engine
     * (cfg.active_threshold >= 0 in the all-active zero-deadband
     * configuration). */
    bool sparseEngineActive() const
    {
        return cfg_.active_threshold >= 0.0 &&
               num_active_ == p_.size() && disabled_edges_ == 0 &&
               cfg_.deadband == 0.0;
    }

    /** Current hot-frontier size (diagnostics; n until the first
     * active-set round retires nodes). */
    std::size_t frontierHotCount() const
    {
        return frontier_.hotCount();
    }

  protected:
    /** IterativeAllocator reset hook (reads problem()). */
    void doReset() override;

  private:
    /** One Metropolis consensus exchange of the estimates. */
    void diffuse();

    /** Update iterations_/quiet_ after one counted round. */
    void noteRound(double moved);

    /** Build the per-slot tables from the CSR at construction:
     * all_edges_, slot_edge_ and the Metropolis weights w_ (one
     * O(E) pass). */
    void buildSlotTables();

    /** Reset the live-edge list to the full overlay (canonical
     * order) and rebuild the position index. */
    void resetLiveEdges();

    /** Append edge id to the live list (no-op if present). */
    void addLiveEdge(std::uint32_t id);

    /** Swap-remove edge id from the live list (no-op if absent). */
    void removeLiveEdge(std::uint32_t id);

    /** Incremental churn maintenance: drop node i's live incident
     * edges / re-add the ones that became eligible.  O(deg(i))
     * via the slot_edge_ index instead of an O(E) full-list
     * rebuild. */
    void pruneEdgesOf(std::size_t i);
    void restoreEdgesOf(std::size_t i);

    /** Debug-build micro-assert wrapping liveEdgeListExact(). */
    void assertLiveEdgesExact() const;

    /** Shared front half of failNode()/failNodesQuiet(): mark one
     * node inactive and prune its live edges; the caller disposes
     * of the slack. */
    void deactivateNode(std::size_t i);

    /** Shared back half: after `failed` nodes left, restart the
     * history, reheat the frontier, label the live components
     * (the one connectivity pass of the event) and warn if the
     * survivors split.  Returns the component count. */
    std::size_t membershipLost(std::size_t failed,
                               std::vector<std::uint32_t> &label_of);

    /** Active neighbours of i over enabled links, in CSR order. */
    std::vector<std::size_t> liveNeighbors(std::size_t i) const;

    /** Record the pre-round estimates for staleness lookups,
     * keeping `depth` rounds of history. */
    void pushHistory(std::size_t depth);

    /** Rotate e_ into e_snapshot_ before a diffusion pass. */
    void snapshotSwap();

    /** Masked per-node diffusion over [begin, end) from row
     * `now`, or per edge from the row its fate names when `fated`
     * (dead, cut, undelivered and deadband-gated pairs skipped). */
    void diffuseMasked(std::size_t begin, std::size_t end,
                       const double *now, bool fated);

    /** Build (cached) the interior / boundary run split of
     * [begin, end) for the overlapped schedule. */
    void buildOverlapSets(std::size_t begin, std::size_t end);

    /** The cut edge ids of mask `cut` (cached on its address). */
    const std::vector<std::uint32_t> &
    cutIdsOf(const std::vector<std::uint8_t> &cut);

    /**
     * One fused round (diffuse + step + anneal) over [begin, end),
     * reading estimates only from the snapshot row `now` (or the
     * fate table's rows when `fated`) and writing only node-local
     * state; returns the max |dp| in the range.  Fusing is sound
     * because a node's gradient step never reads another node's
     * post-diffusion estimate.
     */
    double roundRange(std::size_t begin, std::size_t end,
                      const double *now, bool fated);

    /** roundRange hot kernel: every node active, every pair
     * delivered fresh from `now`, no participation checks. */
    double roundRangeQuadDense(std::size_t begin, std::size_t end,
                               const double *now);

    /** One active-set round over a compacted frontier ∪
     * N(frontier) list: stage every participant's pre-round
     * estimate from `pre`, sweep participant-list indices [lo, hi)
     * (chunked over the pool) and commit their frontier verdicts.
     * Returns the max |dp| moved. */
    double sweepParticipants(const std::vector<std::uint32_t> &parts,
                             const double *pre, std::size_t lo,
                             std::size_t hi);

    /** Participant sweep body over participant-list indices
     * [begin, end); reads e_pre_ and the pre-round hot mask,
     * writes node-local state and next_hot_. */
    double roundSparseRange(const std::uint32_t *parts,
                            std::size_t begin, std::size_t end);

    /** Curvature-scaled barrier gradient step for one node over
     * the quadratic SoA mirror (quadNodeDp). */
    double localStepQuad(std::size_t i);

    /** localStepQuad + the post-step annealing/reheating decision
     * for one node; returns |dp|. */
    double stepAnneal(std::size_t i)
    {
        const double dp = std::fabs(localStepQuad(i));
        eta_now_[i] = annealEta(eta_now_[i], dp, kp_);
        return dp;
    }

    /** Write node i's slot of the SoA mirror from `u`, which must
     * be a QuadraticUtility (asserted, naming the node). */
    void mirrorUtility(std::size_t i, const UtilityFunction &u);

    /** Immediately shed power at nodes whose slack is exhausted. */
    void emergencyShed();

    /**
     * Seed (p, e, eta) at the barrier equilibrium of the round
     * dynamics for budget P: the unique water level lambda > 0
     * with sum_i clamp((lambda - b_i)/(2 c_i)) - P = -n eta/lambda
     * (marginals pinned at lambda, estimates uniform at
     * (sum p - P)/n ~ -eta/lambda, barriers at the floor).  The
     * root comes from the sort-free search (waterLevel) over the
     * quadratic SoA mirror, then one O(n) pass writes the caps
     * (seedAtLevel).  A root on a linear node's step (c = 0) is
     * that breakpoint with the step taken, which keeps e0 < 0.
     * One scalar broadcast plus per-node local arithmetic -- the
     * cold start, the warm re-entry and the healthy re-seed all
     * take it.  Returns false with the state untouched unless P
     * exceeds the total power floor.
     */
    bool seedBarrierEquilibrium(double new_budget);

    /**
     * Commit a seed at water level `lambda` for budget P: every
     * node's cap at lambda (seedCap, into scratch), the uniform
     * estimate e0 = (sum p - P)/n and barriers at cfg.eta.  Returns
     * false with the state untouched unless e0 < 0.
     */
    bool seedAtLevel(double lambda, double budget);

    /**
     * The same seed for the m active nodes of one live component
     * (ids ascending) against its announced share: the water level
     * comes from the sort-free search (waterLevel) over the
     * component's boxes, and its caps, the uniform estimate
     * (sum p - share)/m and the floor barriers are written, with a
     * one-node compensation on ids[0] so the component's estimate
     * sum is sum p - share to rounding.  Returns false with the
     * state untouched when the share does not exceed the sum of its
     * power floors.
     */
    bool seedComponent(const std::vector<std::uint32_t> &ids,
                       double share);

    /**
     * The water level of m boxes: a safeguarded Newton search on
     * f(lambda) = sum_k clamp((lambda - b_k)/(2 c_k), lo_k, hi_k)
     * - P + neta/lambda over the boxes in SoA form, inv_k =
     * 1/(2 c_k) (Cominetti, Mascarenhas & Silva, Math. Prog. Comp.
     * 2014).
     * Each iterate is one branchless O(m) pass (segmentAt) that
     * returns the demand curve's linear segment around lambda; the
     * closed-form root of f on that segment is the next iterate,
     * kept inside the bracket the earlier passes proved (bisected
     * when it leaves it).  The search stops when the root lies on
     * the segment it was solved on, or on the breakpoint that
     * closes the bracket (a linear node's step, taken).  The sums
     * run in one fixed order, so every caller holding the same
     * boxes gets the same bits; the root does not depend on where
     * the search starts.  `lambda` in is the first iterate (the
     * previous seed's level) when positive, else one more pass
     * starts at the root with every curved node interior.  False
     * when P does not exceed the boxes' power floor.
     */
    static bool waterLevel(const double *b, const double *c,
                           const double *inv, const double *lo,
                           const double *hi, std::size_t m,
                           double budget, double neta, double &lambda);

    /** The communication overlay; every hot loop (CSR diffusion,
     * SoA kernels, thread chunking) runs over its ids. */
    Graph topo_;
    Config cfg_;
    /** cfg_'s hot-loop subset, flattened once for the shared
     * round kernels (round_kernel.hh). */
    RoundKernelParams kp_;
    std::vector<double> p_;
    std::vector<double> e_;
    std::vector<double> e_snapshot_;
    double budget_ = 0.0;
    /** Per-node annealed barrier weights (reset to eta_initial). */
    std::vector<double> eta_now_;
    /** Participation mask (nodes removed by failNode are 0); a
     * byte per node so the hot loops do plain loads instead of
     * vector<bool> bit arithmetic. */
    std::vector<std::uint8_t> active_;
    std::size_t num_active_ = 0;
    /** Canonical overlay edge list (min < max, index == edge_id).
     * Immutable after construction. */
    std::vector<GraphEdge> all_edges_;
    /**
     * Live-edge list of the overlay for async gossip activation:
     * the subset of all_edges_ that is enabled with both endpoints
     * active.  failNode/joinNode/setEdgeEnabled maintain it
     * incrementally (swap-removal via live_pos_, O(deg) per churn
     * event), so a uniform draw always lands on a live edge; the
     * list order is therefore maintenance-history dependent, which
     * every consumer tolerates (membership queries, degree counts,
     * uniform draws).
     */
    std::vector<GraphEdge> edges_;
    /** Edge id of each live-list slot (aligned with edges_). */
    std::vector<std::uint32_t> live_ids_;
    /** Position of each edge id in the live list (kNoLivePos when
     * the edge is not live). */
    std::vector<std::uint32_t> live_pos_;
    static constexpr std::uint32_t kNoLivePos = 0xffffffffu;
    /** Link mask per edge_id (0 = administratively cut). */
    std::vector<std::uint8_t> edge_enabled_;
    /** Number of currently disabled edges (fast all-enabled test). */
    std::size_t disabled_edges_ = 0;
    /** Per directed CSR slot, the undirected edge_id it belongs
     * to; with a scan of u's slots, edgeId()'s lookup. */
    std::vector<std::uint32_t> slot_edge_;
    /** Pre-round estimate snapshots, most recent first (depth
     * the channel's maxLag + 1), for stale paired transfers. */
    std::deque<std::vector<double>> hist_;
    /** Per-round edge fate scratch for fated iterateShard rounds. */
    std::vector<EdgeFate> fates_;
    /** Monotonic round counter stamped onto transport pairs (so a
     * wire peer can sequence/dedup); restarts on reset(). */
    std::uint64_t transport_round_ = 0;
    /** Recovery epoch for the epoch-fenced noteExternalRound. */
    std::uint32_t recovery_epoch_ = 0;
    /** One shard checkpoint: the mutable between-rounds state a
     * transport-routed round touches (topology, participation and
     * federation bookkeeping are NOT rounds state -- rollback runs
     * before any failNodesQuiet/refederate surgery). */
    struct ShardCheckpoint
    {
        std::uint64_t key = ~0ull; ///< transport_round_ at save
        std::vector<double> e, p, eta;
        std::deque<std::vector<double>> hist;
        std::size_t iterations = 0;
        std::size_t quiet = 0;
        /** Budget at save: a warm-started budget step between
         * checkpoints must roll back with the state it shifted, or
         * re-running the step round would re-apply the delta on an
         * already-stepped budget. */
        double budget = 0.0;
    };
    std::vector<ShardCheckpoint> ckpt_;
    std::size_t ckpt_depth_ = 0;
    /** Cut edge ids derived from a transport's cut mask, cached on
     * the mask's address (the contract pins the mask immutable),
     * so the fully-live offer pass walks the cut instead of
     * scanning the whole overlay each round. */
    std::vector<std::uint32_t> cut_ids_;
    const void *cut_ids_src_ = nullptr;
    /** Per-phase wall-clock totals of transport-routed rounds. */
    TransportPhaseTotals phase_totals_;
    SetupPhases setup_phases_;
    /** Overlap schedule cache for iterateShard: maximal
     * contiguous runs of interior nodes (no CSR neighbour outside
     * the owned range) and of the boundary residue, keyed on the
     * owned range (the topology CSR is static). */
    std::size_t ovl_begin_ = 0;
    std::size_t ovl_end_ = 0;
    bool ovl_built_ = false;
    std::vector<std::pair<std::uint32_t, std::uint32_t>>
        ovl_interior_runs_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>>
        ovl_boundary_runs_;
    /** Rounds stepped since reset() (step/stepWithTransport
     * only). */
    std::size_t iterations_ = 0;
    /** Consecutive counted rounds under cfg_.tolerance. */
    std::size_t quiet_ = 0;
    /**
     * Metropolis weight per directed CSR slot, aligned with
     * topology().csr().neighbors: w_[k] = 1 / (1 + max(deg_i,
     * deg_j)).  Precomputed once (degrees are static) so diffuse()
     * does no divisions on the hot path.
     */
    std::vector<double> w_;
    /** SoA mirror of the quadratic utilities, the one place the
     * allocator reads a node's coefficients and box; qa_ is the
     * constant term, read only by result(). */
    std::vector<double> qa_, qb_, qc_, qmin_, qmax_;
    /** 1/(2 c) per node, the water-level search's slope terms. */
    std::vector<double> qinv_;
    /** Water level of the last committed seed (0 after a uniform
     * reset): the next search's first iterate. */
    double level_ = 0.0;
    /** Seed scratch caps, swapped into p_ on success. */
    std::vector<double> seed_p_;
    /** Per-chunk max |dp| partials for the parallel reduction. */
    std::vector<double> chunk_max_;
    /** Active-set engine state: the hot frontier and its
     * participant compaction (graph/frontier.hh). */
    FrontierWorkset frontier_;
    /** Participants' pre-round estimates (full-size scratch; only
     * participant slots are valid in any given round). */
    std::vector<double> e_pre_;
    /** Post-round frontier verdicts, committed after the sweep so
     * in-round pair-activity tests see the pre-round mask. */
    std::vector<std::uint8_t> next_hot_;
    /** Round-engine pool, shared process-wide per width via
     * ThreadPool::acquire (null when cfg_.num_threads < 1). */
    std::shared_ptr<ThreadPool> pool_;
    /** Announced federation shares (empty/size-1 = inactive); see
     * refederateBudget(). */
    std::vector<double> fed_shares_;
    /** Component labels the federation was announced with. */
    std::vector<std::uint32_t> fed_comp_of_;
};

/**
 * The canonical held-budget fold: held[j] = (sum over owners, in
 * index order, of sum_p[s][j]) minus (same fold of sum_e[s][j]).
 * Owners with empty partials (dead shards) are skipped.  Every
 * recovery stack folds through here -- DibaAllocator::heldBudgets()
 * as the one-owner case, the sharded broker and its survivors over
 * one partial per shard -- so all of them announce from the same
 * bits.
 */
std::vector<double> foldHeldPartials(
    const std::vector<std::vector<double>> &sum_p,
    const std::vector<std::vector<double>> &sum_e);

} // namespace dpc

#endif // DPC_ALLOC_DIBA_HH
