/**
 * @file
 * Multi-process sharded DiBA: partition the overlay into
 * contiguous id blocks, fork one real OS process per shard,
 * exchange cut pairs over SocketTransport, coordinate rounds
 * through a tiny TCP broker -- and reproduce the single-process
 * trajectory bitwise on every owned node.
 *
 * Partition.  Each shard owns one contiguous block of node ids
 * (on the ring-based overlays ring neighbours are id neighbours,
 * so a block cuts only its two ring ends plus the chords that
 * leave it).  Overlay edges inside a block stay on the
 * in-process fast path; edges crossing blocks become *wire* edges
 * whose halves travel as WireCodec frames.
 *
 * Exactness.  Every shard holds a full-size DibaAllocator reset
 * from the identical problem, so snapshots, Metropolis weights and
 * edge ids agree everywhere; each round a shard (1) draws every
 * live pair's fate in canonical order (so a same-seed LossyChannel
 * replica agrees on every fate with zero coordination) and offers
 * its live cut pairs, (2) receives the authoritative remote halves
 * of its cut edges straight into its halo snapshot, (3) diffuses
 * and gradient-steps only its owned block.  Per-node round arithmetic is range-independent
 * -- a node reads only the pre-round snapshot and writes only
 * node-local state -- so owned caps and estimates are bitwise
 * equal to the single-process run, round for round.
 *
 * Coordination.  The broker (run inline by the parent process)
 * handles membership, results and recovery ONLY: Hello/Welcome
 * distributes the data-port table, a final Result frame returns
 * each shard's owned state + wire stats, and one RoundGo ("Bye",
 * stop = 1) releases the shards once every Result is in.  The
 * per-round barrier rides on the data plane:
 * CutBatch frames carry piggybacked max-|dp| all-reduce reports
 * (see net/socket_transport.hh), so a round costs zero broker
 * handoffs and the shards' convergence accounting still sees the
 * same global max single-process noteRound sees.
 *
 * Mid-run events are scheduled warm-started budget steps
 * (ShardRunOptions::budget_steps) and, with
 * ShardRunOptions::recover, shard deaths; there is no other churn.
 * Config::num_threads must be 0 (the shards are forked processes;
 * a live thread pool does not survive fork()).
 */

#ifndef DPC_CLUSTER_SHARD_HH
#define DPC_CLUSTER_SHARD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc/diba.hh"
#include "fault/lossy_channel.hh"
#include "fault/shard_fault.hh"
#include "net/socket_transport.hh"

namespace dpc {
namespace cluster {

/** The overlay partition a sharded run executes. */
struct ShardPlan
{
    std::uint32_t num_shards = 1;
    /** Owned id block of shard s:
     * [block_begin[s], block_end[s]). */
    std::vector<std::size_t> block_begin;
    std::vector<std::size_t> block_end;
    /** owner_of[node id] = owning shard. */
    std::vector<std::uint32_t> owner_of;
    /** Overlay edges crossing shard blocks (wire edges). */
    std::size_t cut_edges = 0;
    std::size_t total_edges = 0;

    /** Fraction of overlay edges that must cross the wire. */
    double cutFraction() const
    {
        return total_edges == 0
                   ? 0.0
                   : static_cast<double>(cut_edges) /
                         static_cast<double>(total_edges);
    }
};

/**
 * Partition the overlay `topo` into `num_shards` balanced
 * contiguous id blocks.  Deterministic in the topology: parent
 * and children compute identical plans independently.
 */
ShardPlan makeShardPlan(const Graph &topo, std::uint32_t num_shards);

/** makeShardPlan over `alloc`'s topology. */
ShardPlan makeShardPlan(const DibaAllocator &alloc,
                        std::uint32_t num_shards);

struct ShardRunOptions
{
    std::uint32_t num_shards = 2;
    /** Synchronized rounds to run (fixed; every shard runs the
     * same count, like a ClusterSim control step). */
    std::size_t rounds = 60;
    net::SocketTransport::Proto proto =
        net::SocketTransport::Proto::Udp;
    /** Bounded-staleness depth d: a shard may run up to d rounds
     * ahead of its slowest adjacent peer, every cut pair at fixed
     * lag d.  0 = synchronous, bitwise equal to the blocking
     * path. */
    std::uint32_t pipeline_depth = 0;
    /** UDP retransmit tick while a round is incomplete (ms). */
    int retrans_ms = 20;
    /** Target packed size of one CutBatch frame. */
    std::size_t datagram_budget = 1400;
    /** Draw every shard's pair fates from a same-seed
     * LossyChannel (fault-model parity runs).  Requires
     * pipeline_depth == 0 (the fault model reasons about one
     * round in flight). */
    bool lossy = false;
    LossyChannel::Config loss{};
    std::uint64_t loss_seed = 1;
    /** Process-level faults to inject (empty = none).  A non-empty
     * plan arms the guarded control plane: shard heartbeats, broker
     * liveness deadlines, and deadline-bounded process reaping. */
    fault::ShardFaultPlan faults{};
    /**
     * Survive confirmed shard deaths: the broker bumps the
     * configuration epoch, quiesces the survivors, rolls them back
     * to the last common checkpoint, fails the dead block's nodes,
     * re-federates the held budget partition-aware, and resumes.
     * Off (the default): any death fails the run cleanly
     * (ShardRunResult::ok = false) without hanging the parent.
     * Requires pipeline_depth == 0 and !lossy.
     */
    bool recover = false;
    /** Broker liveness deadline: a shard silent (no heartbeat, no
     * Result) this long is declared hung and SIGKILLed (guarded
     * runs only). */
    int deadline_ms = 2000;
    /** Broker deadline for the whole Hello/Welcome handshake; a
     * shard that never says Hello fails the run within this
     * bound. */
    int handshake_deadline_ms = 20000;
    /** Shard heartbeat cadence on the broker link; 0 = default
     * (50 ms) when the control plane is guarded, off otherwise. */
    int heartbeat_ms = 0;
    /** Between-rounds checkpoint ring depth for rollback
     * (recover = true only).  Must cover the maximum inter-shard
     * round drift (<= the transport's 4-round rx window). */
    std::size_t checkpoint_depth = 8;
    /**
     * Scheduled warm-started budget steps: before running round
     * `round`, every shard calls warmStart(result(), delta).  On a
     * quadratic cluster that re-seeds straight at the new barrier
     * equilibrium from per-node static data -- every shard lands
     * on bitwise-identical state with zero extra exchange, and the
     * sharded reconvergence matches a single-process allocator
     * given the same warmStart at the same round.  Steps must
     * precede any recovery that fails nodes (warmStart requires a
     * fully-live cluster).
     */
    struct BudgetStep
    {
        std::size_t round = 0;
        double delta = 0.0;
    };
    std::vector<BudgetStep> budget_steps;
    /**
     * Per-shard data-plane IPv4 addresses (hosts[s] = the address
     * shard s binds and its peers dial).  Empty = every shard on
     * 127.0.0.1, the tested default of the forked single-machine
     * runner; a multi-host deployment driving shardMain-equivalent
     * processes itself fills one entry per shard.
     */
    std::vector<std::string> hosts;
};

struct ShardRunResult
{
    /** Full-size vectors assembled from the shards'
     * owned blocks. */
    std::vector<double> power;
    std::vector<double> estimates;
    std::size_t rounds_run = 0;
    /** Last round's exact global max |dp| (max over the shards'
     * reported final locals). */
    double final_max_dp = 0.0;
    ShardPlan plan;
    /** Wire totals summed over shards (cut traffic only; first
     * transmissions -- retransmit traffic is counted apart). */
    std::uint64_t wire_frames = 0;
    std::uint64_t wire_bytes = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t retrans_bytes = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    /** Batches dropped by (sender, round, seq) dedup. */
    std::uint64_t duplicates = 0;
    /** Offered cut halves held unchanged (shipped nothing). */
    std::uint64_t edges_suppressed = 0;
    /** Summed histogram: bucket b counts first-transmitted frames
     * carrying [2^b, 2^(b+1)) cut halves. */
    std::array<std::uint64_t, net::kEdgesPerFrameBuckets>
        edges_per_frame_hist{};
    // ---- steady-state wire sparsity ---------------------------
    /** Seq-0 frames declaring zero changed records: the whole
     * peer-round quiesced and shipped only the fixed header. */
    std::uint64_t suppressed_frames = 0;
    /** First-transmitted frames carrying >= 1 XOR-delta record. */
    std::uint64_t delta_frames = 0;
    /** Boundary hot bits that FLIPPED peer-ward round over round
     * (the wake channel's real information content). */
    std::uint64_t wake_messages = 0;
    /** Per-phase seconds summed over shards and rounds. */
    double phase_send_s = 0.0;
    double phase_interior_s = 0.0;
    double phase_drain_s = 0.0;
    double phase_boundary_s = 0.0;
    /** Wall seconds of the SLOWEST shard's round loop: the
     * cluster's steady-state time for opt.rounds rounds, excluding
     * fork/handshake/result collection (which amortize over a real
     * deployment's lifetime but would dominate a short bench). */
    double round_loop_s = 0.0;
    // ---- robustness surface (PR 9) --------------------------
    /** False when the run failed (handshake deadline, unrecovered
     * shard death, ...); `error` says why.  The parent never hangs
     * and never leaks children either way. */
    bool ok = true;
    std::string error;
    /** Raw waitpid() status per shard (-1 = never reaped). */
    std::vector<int> shard_status;
    /** Final configuration epoch (0 = no recovery happened). */
    std::uint32_t epoch = 0;
    /** Shards confirmed dead (bit s = shard s). */
    std::uint64_t dead_mask = 0;
    /** Completed recoveries (confirmed deaths survived). */
    std::uint32_t recoveries = 0;
    /** Last recovery: round the survivors resumed from (the
     * minimum last-completed round across survivors). */
    std::uint64_t recovery_round = 0;
    /** Last recovery: MAX last-completed round across survivors at
     * the quiesce -- "when detection landed" in round units. */
    std::uint64_t quiesce_round = 0;
    /** Wall seconds spent inside recovery (death confirmed ->
     * Resume broadcast), summed over recoveries. */
    double recovery_s = 0.0;
    /** Survivor nodes that reported owned results / survivor nodes
     * total (1.0 when recovery delivers every survivor). */
    double availability = 1.0;
    /** Summed fault-surface wire stats (see net::ResultMsg). */
    std::uint64_t stale_epoch_frames = 0;
    std::uint64_t gaveup_frames = 0;
    std::uint64_t suspect_events = 0;
    std::uint64_t peer_suspected = 0;
};

/**
 * Reference replica of one survivor's recovery transform, applied
 * to a full-size allocator positioned at the resume round: fail
 * every dead-owned node (ascending shard id, ascending
 * id), then re-federate with the held budgets folded exactly as
 * the broker folds them: one DibaAllocator::heldPartials() per
 * surviving shard over its owned block, through foldHeldPartials()
 * (alloc/diba.hh).  Tests drive this on a single-process
 * allocator to predict the survivors' post-recovery trajectory
 * bitwise.
 */
void applyShardRecovery(DibaAllocator &alloc, const ShardPlan &plan,
                        std::uint64_t dead_mask,
                        std::uint32_t epoch);

/**
 * Fork `opt.num_shards` shard processes, run `opt.rounds`
 * synchronized sharded DiBA rounds over real sockets on
 * 127.0.0.1, and reassemble the owned results.  The calling
 * process runs the broker inline and blocks until every shard
 * exits.  Requires cfg.num_threads == 0.
 */
ShardRunResult runShardedDiba(const AllocationProblem &prob,
                              const Graph &topo,
                              const DibaAllocator::Config &cfg,
                              const ShardRunOptions &opt);

} // namespace cluster
} // namespace dpc

#endif // DPC_CLUSTER_SHARD_HH
