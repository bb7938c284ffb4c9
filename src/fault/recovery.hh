/**
 * @file
 * Self-healing recovery session: fault to healed steady state with
 * no omniscient calls.
 *
 * FaultSession applies a FaultPlan *to the allocator* -- a god's-eye
 * driver that calls failNode/joinNode/setEdgeEnabled directly.
 * RecoverySession closes the loop the way a production agent must:
 * the plan's events mutate only a GroundTruthChannel (the "world":
 * which servers are really powered, which links really carry
 * traffic), and everything the protocol does about them is inferred
 * from the one observable DiBA has -- per-edge paired-transfer
 * fates:
 *
 *   round --> FailureDetector --> ComponentTracker --> healer
 *         --> refederateBudget --> ConvergenceWatchdog --> audit
 *
 * Per round the session (1) applies due plan events to the world,
 * (2) runs one channel-routed synchronized round whose fates are
 * observed by the FailureDetector, (3) probes the overlay edges the
 * allocator did not exchange on (believed-dead or cut edges consume
 * no round draw, so the probe is the only way trust can ever
 * recover -- and the false-positive escape hatch), (4) applies the
 * detector's verdicts (administrative cuts for suspected edges,
 * failNode for dead verdicts, joinNode + heals when hysteresis
 * clears a suspicion), (5) mirrors those actions into the
 * ComponentTracker and lets the overlay healer enable pre-
 * provisioned spare edges when the believed overlay fragments or a
 * live degree sags, (6) re-federates the budget per component
 * whenever the partition structure changed, (7) feeds the round
 * residual to the convergence watchdog, and (8) audits the
 * invariants (partition-aware).
 *
 * A crashed node's books keep stepping locally until the detector
 * fires: every pair it would exchange drops, so no survivor reads
 * its estimate, and its booked cap only ever overstates the power
 * the dead server actually draws -- the budget guarantee is a
 * property of the books and stays safe-side throughout the
 * detection window (see DESIGN.md, "Self-healing recovery").
 *
 * Because the session owns the ground truth, it can report exact
 * false-positive counts; the protocol itself never reads it.
 */

#ifndef DPC_FAULT_RECOVERY_HH
#define DPC_FAULT_RECOVERY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alloc/diba.hh"
#include "alloc/watchdog.hh"
#include "fault/detector.hh"
#include "fault/invariant_checker.hh"
#include "fault/lossy_channel.hh"
#include "fault/plan.hh"
#include "graph/components.hh"

namespace dpc {

/**
 * The real cluster state the protocol must discover: a LossyChannel
 * wrapped with crashed-node and cut-link masks.  A pair whose
 * endpoint is really down, or whose link is really severed, drops
 * unconditionally (consuming no loss draw, mirroring the
 * allocator's dead-edge convention); everything else passes through
 * the inner loss/burst/delay processes.  Only drivers mutate the
 * world; allocators just see fates.
 */
class GroundTruthChannel : public GossipChannel
{
  public:
    GroundTruthChannel(LossyChannel::Config cfg, std::uint64_t seed,
                       std::size_t num_nodes);

    void beginRound(std::size_t num_edges) override;
    EdgeFate fate(std::size_t edge_id, std::size_t u,
                  std::size_t v) override;
    std::size_t maxLag() const override;

    // ---- world mutators (return false when a no-op) -------------
    bool crashNode(std::size_t v);
    bool reviveNode(std::size_t v);
    bool cutLink(std::size_t u, std::size_t v);
    bool healLink(std::size_t u, std::size_t v);

    // ---- ground truth queries (drivers/telemetry only) ----------
    bool nodeUp(std::size_t v) const;
    bool linkUp(std::size_t u, std::size_t v) const;
    std::size_t numNodesUp() const { return nodes_up_; }

    const LossyChannel &inner() const { return inner_; }

    /** Pairs dropped because of world state (not loss). */
    std::uint64_t worldDrops() const { return world_drops_; }

  private:
    static std::uint64_t key(std::size_t u, std::size_t v);

    LossyChannel inner_;
    std::vector<std::uint8_t> up_;
    std::size_t nodes_up_ = 0;
    std::unordered_set<std::uint64_t> cut_;
    std::uint64_t world_drops_ = 0;
};

/** Telemetry of one recovery run (surfaced through ClusterSim and
 * bench/recovery_storm). */
struct RecoveryReport
{
    std::size_t rounds = 0;

    // world timeline
    std::size_t events_applied = 0;
    std::size_t events_skipped = 0;

    // detection
    std::size_t node_suspicions = 0;
    std::size_t edge_suspicions = 0;
    std::size_t false_positive_nodes = 0; ///< failed while world-up
    std::size_t false_positive_edges = 0; ///< cut while world-up

    // protocol actions (all detector/healer driven, none omniscient)
    std::size_t nodes_failed = 0;
    std::size_t nodes_rejoined = 0;
    std::size_t links_cut = 0;
    std::size_t links_healed = 0;
    std::size_t repairs = 0; ///< spare edges enabled by the healer
    std::size_t refederations = 0;

    // watchdog escalations
    std::size_t reheats = 0;
    std::size_t reseeds = 0;
    std::size_t fallbacks = 0;

    /** Round of the last disturbance (world event or protocol
     * action). */
    std::size_t last_disturbance_round = 0;
    /** Rounds from the last disturbance until the allocation first
     * held macroscopically steady after it (total in-protocol
     * utility within Config::recovery_util_eps for
     * Config::recovery_quiet_rounds consecutive rounds; 0 until
     * reached).  Persistent channel loss keeps the microscopic
     * residual above the fixed-point tolerance forever, so a strict
     * converged() verdict would never fire under loss. */
    std::size_t rounds_to_recover = 0;

    std::size_t total_escalations() const
    {
        return reheats + reseeds + fallbacks;
    }
};

/** Non-omniscient fault-plan executor (see file header). */
class RecoverySession
{
  public:
    struct Config
    {
        /** Plan-seconds per synchronized round. */
        double round_dt = 1.0;
        /** Audit the invariants after every round. */
        bool check_invariants = true;
        InvariantChecker::Config checker;
        FailureDetector::Config detector;
        ConvergenceWatchdog::Config watchdog;

        /** Enable the overlay healer. */
        bool enable_healing = true;
        /** Live-degree floor the healer tops up to. */
        std::size_t degree_floor = 2;
        /** Enable partition-aware budget re-federation. */
        bool enable_refederation = true;
        /** Enable the convergence watchdog. */
        bool enable_watchdog = true;

        /** Consecutive rounds the total in-protocol utility must
         * stay within `recovery_util_eps` (relative) to declare the
         * allocation recovered after a disturbance. */
        std::size_t recovery_quiet_rounds = 16;
        /** Relative per-round utility change that still counts as
         * steady. */
        double recovery_util_eps = 1e-3;

        /** Pre-provisioned spare overlay edges (canonical u < v;
         * must exist in the topology, e.g. from makeHealableRing).
         * Disabled at session start; only the healer enables them. */
        std::vector<std::pair<std::size_t, std::size_t>> spare_edges;
    };

    /** The allocator must outlive the session and already be
     * reset() on its problem. */
    RecoverySession(DibaAllocator &diba, const FaultPlan &plan);
    RecoverySession(DibaAllocator &diba, const FaultPlan &plan,
                    Config cfg);

    /**
     * One epoch of the pipeline described in the file header.
     * @return max |dp| moved by the round (W).
     */
    double stepRound();

    /** Run `rounds` epochs; returns how many stayed under the
     * allocator's fixed-point tolerance. */
    std::size_t run(std::size_t rounds);

    /** Plan-time now (s). */
    double now() const { return now_; }

    const RecoveryReport &report() const { return report_; }
    const GroundTruthChannel &world() const { return world_; }
    const FailureDetector &detector() const { return detector_; }
    const ComponentTracker &components() const { return tracker_; }
    const InvariantChecker &checker() const { return checker_; }
    const ConvergenceWatchdog &watchdog() const { return watchdog_; }
    DibaAllocator &allocator() { return diba_; }

  private:
    /** Edge life-cycle from the session's point of view. */
    enum class EdgeStatus : std::uint8_t
    {
        InUse,   ///< enabled, part of the working overlay
        Suspect, ///< cut by the detector; heals on re-trust
        Spare,   ///< pre-provisioned, only the healer enables it
    };

    void applyDueEvents();
    void probeUnqueriedEdges();
    void applyVerdicts();
    void healOverlay();
    void refederate();
    /** Record a disturbance; protocol-visible ones also restart the
     * watchdog ladder (world events the protocol has not detected
     * yet must not leak into it). */
    void markDisturbance(bool protocol_visible);

    DibaAllocator &diba_;
    Config cfg_;
    std::vector<FaultEvent> timeline_;
    std::size_t next_event_ = 0;

    GroundTruthChannel world_;
    FailureDetector detector_;
    ComponentTracker tracker_;
    ConvergenceWatchdog watchdog_;
    InvariantChecker checker_;

    std::vector<EdgeStatus> edge_status_;
    /** Scratch: which edge ids the round consumed fates for. */
    std::vector<std::uint8_t> queried_;

    double now_ = 0.0;
    RecoveryReport report_;
    std::uint64_t last_labels_version_ = 0;
    bool recovered_since_disturbance_ = false;

    // ---- utility-stability recovery tracking --------------------
    double last_util_ = 0.0;
    bool have_util_ = false;
    std::size_t util_quiet_ = 0;
};

} // namespace dpc

#endif // DPC_FAULT_RECOVERY_HH
