#include "alloc/diba.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/logging.hh"
#include "util/stats.hh"

namespace dpc {

namespace {

/** Seconds since `t0`, and restart `t0` (setup phase timing). */
double
lap(std::chrono::steady_clock::time_point &t0)
{
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
    return s;
}

/** Flatten the hot-loop Config subset for the shared kernels. */
RoundKernelParams
kernelParamsOf(const DibaAllocator::Config &cfg)
{
    RoundKernelParams k;
    k.damping = cfg.damping;
    k.max_move = cfg.max_move;
    k.barrier_keep = cfg.barrier_keep;
    k.anneal_gate = cfg.anneal_gate;
    k.reheat_gate = cfg.reheat_gate;
    k.eta_floor = cfg.eta;
    k.eta_initial = cfg.eta_initial;
    k.eta_decay = cfg.eta_decay;
    k.eta_reheat = cfg.eta_reheat;
    return k;
}

} // namespace

DibaAllocator::DibaAllocator(Graph topology)
    : DibaAllocator(std::move(topology), Config())
{
}

DibaAllocator::DibaAllocator(Graph topology, Config cfg)
    : topo_(std::move(topology)), cfg_(cfg),
      kp_(kernelParamsOf(cfg))
{
    DPC_ASSERT(topo_.numVertices() >= 2,
               "DiBA needs at least two nodes");
    auto t0 = std::chrono::steady_clock::now();
    const bool connected = topo_.isConnected();
    setup_phases_.connect_s = lap(t0);
    DPC_ASSERT(connected,
               "DiBA requires a connected communication graph");
    // The live-edge list and the link mask are reset()'s to fill.
    buildSlotTables();
    setup_phases_.slot_tables_s = lap(t0);
    if (cfg_.num_threads >= 1)
        pool_ = ThreadPool::acquire(cfg_.num_threads);
    DPC_ASSERT(cfg_.eta > 0.0, "barrier weight must be positive");
    DPC_ASSERT(cfg_.eta_initial >= cfg_.eta,
               "initial barrier weight below the floor");
    DPC_ASSERT(cfg_.eta_decay > 0.0 && cfg_.eta_decay <= 1.0,
               "eta_decay must be in (0, 1]");
    DPC_ASSERT(cfg_.barrier_keep > 0.0 && cfg_.barrier_keep < 1.0,
               "barrier_keep must be in (0, 1)");
}

void
DibaAllocator::doReset()
{
    const AllocationProblem &prob = problem();
    DPC_ASSERT(prob.size() == topo_.numVertices(),
               "problem size ", prob.size(),
               " != topology size ", topo_.numVertices());
    auto t0 = std::chrono::steady_clock::now();
    const std::size_t n = prob.size();
    for (std::vector<double> *v : {&qa_, &qb_, &qc_, &qinv_, &qmin_, &qmax_})
        v->resize(n);
    for (std::size_t i = 0; i < n; ++i)
        mirrorUtility(i, *prob.utilities[i]);
    setup_phases_.mirror_s = lap(t0);
    DPC_ASSERT(prob.budget > sum(qmin_),
               "DiBA needs strict interior feasibility");

    budget_ = prob.budget;
    level_ = 0.0;
    // Cold start at the barrier equilibrium, else the paper's
    // uniform start.
    const bool seeded =
        cfg_.seed_cold_start && seedBarrierEquilibrium(budget_);
    double e0 = 0.0;
    if (!seeded) {
        std::vector<double> start =
            uniformStart(prob, cfg_.slack_frac);
        e0 = (sum(start) - budget_) / static_cast<double>(prob.size());
        p_ = std::move(start);
        e_.assign(prob.size(), e0);
        eta_now_.assign(prob.size(), cfg_.eta_initial);
    }
    setup_phases_.seed_s = lap(t0);
    e_snapshot_.assign(prob.size(), 0.0);
    active_.assign(prob.size(), 1);
    num_active_ = prob.size();
    frontier_.reset(prob.size());
    e_pre_.assign(prob.size(), 0.0);
    next_hot_.assign(prob.size(), 1);
    // Fault state does not survive a reset: every node rejoins,
    // every link heals, the staleness history restarts empty.
    edge_enabled_.assign(all_edges_.size(), 1);
    disabled_edges_ = 0;
    resetLiveEdges();
    fed_shares_.clear();
    fed_comp_of_.clear();
    hist_.clear();
    iterations_ = 0;
    quiet_ = 0;
    transport_round_ = 0;
    recovery_epoch_ = 0;
    for (ShardCheckpoint &c : ckpt_)
        c.key = ~0ull;
    if (!seeded && e0 >= 0.0)
        emergencyShed();
}

double
DibaAllocator::step(Rng &rng)
{
    // Synchronized rounds are deterministic; the rng only feeds
    // stochastic stepping modes (async gossip, channel sampling).
    (void)rng;
    const double moved = iterate();
    noteRound(moved);
    return moved;
}

void
DibaAllocator::noteRound(double moved)
{
    ++iterations_;
    if (moved < cfg_.tolerance)
        ++quiet_;
    else
        quiet_ = 0;
}

bool
DibaAllocator::converged() const
{
    return quiet_ > 0 && quiet_ >= cfg_.quiet_rounds;
}

AllocationResult
DibaAllocator::result() const
{
    AllocationResult res;
    res.power = p_;
    // totalUtility without the n virtual calls: the same clamp and
    // operation order as QuadraticUtility::value, so the sum is
    // bitwise totalUtility's.
    double acc = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        const double x = std::clamp(p_[i], qmin_[i], qmax_[i]);
        acc += qa_[i] + qb_[i] * x + qc_[i] * x * x;
    }
    res.utility = acc;
    res.iterations = iterations_;
    res.converged = converged();
    return res;
}

void
DibaAllocator::mirrorUtility(std::size_t i, const UtilityFunction &u)
{
    const QuadraticUtility *q = u.quadratic();
    DPC_ASSERT(q != nullptr, "DiBA takes quadratic utilities only; "
               "node ", i, "'s utility is not a QuadraticUtility");
    qa_[i] = q->coeffA();
    qb_[i] = q->coeffB();
    qc_[i] = q->coeffC();
    qinv_[i] = 1.0 / (2.0 * qc_[i]);
    qmin_[i] = q->minPower();
    qmax_[i] = q->maxPower();
}

double
DibaAllocator::iterate()
{
    const std::size_t n = p_.size();
    DPC_ASSERT(n > 0, "iterate() before reset()");

    if (sparseEngineActive()) {
        const auto &parts = frontier_.buildParticipants(topo_.csr());
        return sweepParticipants(parts, e_.data(), 0, parts.size());
    }

    // Phase 1 (neighbour exchange) and phase 2 (local barrier-
    // gradient steps + the local annealing decision: a quiescent
    // node tightens its barrier toward the floor, a node still
    // transporting power re-widens it) run fused in one pass over
    // the nodes: a node's step reads no other node's post-exchange
    // estimate, so fusing preserves the synchronized-round values
    // exactly while halving the sweeps over the state arrays.
    //
    // Every phase reads the pre-round snapshot and writes only
    // node-local state, so the chunked run is bitwise identical to
    // the serial one; the per-round max |dp| is reduced per chunk
    // and max-combined in chunk order.
    snapshotSwap();
    const double *snap = e_snapshot_.data();
    if (!pool_)
        return roundRange(0, n, snap, false);
    const std::size_t chunks = pool_->numChunks();
    chunk_max_.assign(chunks, 0.0);
    pool_->parallelFor(
        n, [this, snap](std::size_t c, std::size_t b, std::size_t e) {
            chunk_max_[c] = roundRange(b, e, snap, false);
        });
    double max_dp = 0.0;
    for (double m : chunk_max_)
        max_dp = std::max(max_dp, m);
    return max_dp;
}

double
DibaAllocator::roundRange(std::size_t begin, std::size_t end,
                          const double *now, bool fated)
{
    if (!fated && num_active_ == p_.size() && disabled_edges_ == 0)
        return roundRangeQuadDense(begin, end, now);
    diffuseMasked(begin, end, now, fated);
    double max_dp = 0.0;
    for (std::size_t i = begin; i < end; ++i)
        if (active_[i])
            max_dp = std::max(max_dp, stepAnneal(i));
    return max_dp;
}

double
DibaAllocator::gossipTick(Rng &rng, GossipChannel *chan)
{
    DPC_ASSERT(!p_.empty(), "gossipTick() before reset()");
    // failNode() prunes dead edges from edges_, so a uniform draw
    // lands on a live edge in one attempt even when survivors are
    // rare (a dead neighbour simply never answers).
    DPC_ASSERT(!edges_.empty(), "no live edge left in the overlay");
    const std::size_t pos = rng.index(edges_.size());
    const auto &[u, v] = edges_[pos];
    DPC_ASSERT(active_[u] && active_[v],
               "stale dead edge in the live-edge list");
    // Async ticks have no round clock to be stale against: the
    // exchange either happens now or not at all, so only the
    // delivered bit of the fate applies.  A dropped exchange
    // leaves both estimates untouched (their sum is trivially
    // conserved) while both endpoints still take their local
    // gradient steps.  Pairwise averaging preserves e_u + e_v
    // exactly and keeps both strictly negative.
    if (chan == nullptr || chan->fate(live_ids_[pos], u, v).delivered) {
        const double mean_e = 0.5 * (e_[u] + e_[v]);
        e_[u] = mean_e;
        e_[v] = mean_e;
    }
    frontier_.reheat(u);
    frontier_.reheat(v);
    const double du = stepAnneal(u);
    return std::max(du, stepAnneal(v));
}

void
DibaAllocator::deactivateNode(std::size_t i)
{
    DPC_ASSERT(i < p_.size(), "failNode index out of range");
    DPC_ASSERT(active_[i], "node already failed");
    DPC_ASSERT(num_active_ > 1, "cannot fail the last node");
    active_[i] = 0;
    --num_active_;
    // Prune the node's incident edges from the live list (O(deg)
    // swap-removal, not an O(E) rebuild) so activation draws stay
    // O(1) and the "no live edge" condition is exact (edges_ empty
    // <=> no live edge exists).
    pruneEdgesOf(i);
}

std::size_t
DibaAllocator::membershipLost(std::size_t failed,
                              std::vector<std::uint32_t> &label_of)
{
    assertLiveEdgesExact();
    // Staleness never spans a membership change: lagged snapshots
    // taken before the event are inconsistent with the post-event
    // bookkeeping, so the history restarts.  Churn moves slack to
    // an unknown reach, so the whole frontier reheats.
    hist_.clear();
    frontier_.reheatAll();
    quiet_ = 0;
    const std::size_t k = liveComponents(label_of);
    if (k > 1) {
        // Survivors split into components.  Every component keeps
        // its share of the invariant (sum e = sum p - P holds
        // globally and per component), so the budget guarantee is
        // unaffected; each partition simply optimizes within the
        // slack it holds.  Chord-equipped rings avoid this
        // (Sec. 4.4.2).
        warn("DiBA overlay disconnected after ", failed,
             " node failure(s); partitions optimize independently");
    }
    return k;
}

void
DibaAllocator::failNode(std::size_t i)
{
    deactivateNode(i);
    std::vector<std::uint32_t> label;
    membershipLost(1, label);

    // The dead server draws no more power: hand its slack estimate
    // plus its entire released cap to the surviving neighbours it
    // could still talk to, preserving
    // sum_active(e) == sum_active(p) - P.
    std::vector<std::size_t> live = liveNeighbors(i);
    if (live.empty()) {
        // All reachable neighbours are dead or cut (e.g. the
        // two-node corner case); give it to any survivor.
        for (std::size_t j = 0; j < p_.size(); ++j)
            if (active_[j])
                live.push_back(j);
    }
    const double gift =
        (e_[i] - p_[i]) / static_cast<double>(live.size());
    for (std::size_t j : live)
        e_[j] += gift;
    p_[i] = 0.0;
    e_[i] = 0.0;
}

std::size_t
DibaAllocator::failNodesQuiet(std::vector<std::size_t> nodes,
                              std::vector<std::uint32_t> *label_of)
{
    // Prune in ascending id: the swap-removals then leave
    // the live-edge list -- and so every later gossip draw -- in
    // the one canonical order every survivor shares, whatever
    // order the caller listed the set in.
    std::sort(nodes.begin(), nodes.end());
    for (const std::size_t i : nodes) {
        // No neighbour gift: the authoritative (p, e) of a remotely
        // owned dead node never lived in this process, so there is
        // no slack to hand off -- zero the local mirror and let the
        // subsequent re-federation reclaim the budget the dead
        // block held.  Identical on every survivor, so full-size
        // mirrors stay bitwise aligned.
        deactivateNode(i);
        p_[i] = 0.0;
        e_[i] = 0.0;
    }
    // One history restart, frontier reheat and component
    // labelling for the whole set: O(n + E) per event instead of
    // per node.
    std::vector<std::uint32_t> scratch;
    std::vector<std::uint32_t> &label =
        label_of != nullptr ? *label_of : scratch;
    if (nodes.empty())
        return liveComponents(label);
    return membershipLost(nodes.size(), label);
}

bool
DibaAllocator::isActive(std::size_t i) const
{
    DPC_ASSERT(i < active_.size(), "index out of range");
    return active_[i];
}

double
DibaAllocator::localStepQuad(std::size_t i)
{
    // The gradient b + 2cp and the exact curvature |r''| = 2|c|
    // come straight from the SoA mirror; quadNodeDp folds the
    // e >= 0 emergency shed into the same branchless select the
    // block kernels blend on.
    const double p = p_[i];
    const double dp =
        quadNodeDp(p, e_[i], eta_now_[i], qb_[i], qc_[i], qmin_[i],
                   qmax_[i], kp_);
    p_[i] = p + dp;
    e_[i] += dp;
    return dp;
}

void
DibaAllocator::diffuse()
{
    // Each node sends its estimate to its neighbours and folds the
    // received values in with Metropolis weights
    // w_ij = 1 / (1 + max(deg_i, deg_j)), which preserves sum(e)
    // exactly (the pairwise transfers cancel) and keeps every e_i
    // a convex combination of the old values.
    //
    // With a positive deadband (gated-gossip option), transfers
    // inside the relative gap gate are suppressed; the default of
    // zero exchanges on every edge.
    //
    // Swapping the buffers instead of copying makes the snapshot
    // free; diffuseMasked rewrites every e_[i] from the snapshot,
    // reading only e_snapshot_ and writing only its own slots, so
    // chunked execution is race-free and bitwise deterministic.
    const std::size_t n = e_.size();
    snapshotSwap();
    const double *snap = e_snapshot_.data();
    if (!pool_) {
        diffuseMasked(0, n, snap, false);
        return;
    }
    pool_->parallelFor(
        n, [this, snap](std::size_t, std::size_t b, std::size_t e) {
            diffuseMasked(b, e, snap, false);
        });
}

void
DibaAllocator::snapshotSwap()
{
    e_snapshot_.swap(e_);
}

double
DibaAllocator::roundRangeQuadDense(std::size_t begin,
                                   std::size_t end,
                                   const double *now)
{
    // Fused diffuse + step + anneal with no participation checks:
    // the all-active, all-quadratic configuration every large-scale
    // experiment runs in.  Runs block-wise in two passes: pass 1
    // gathers the CSR diffusion into e_ (irregular, stays scalar),
    // pass 2 hands the block's seven contiguous streams to
    // stepBlockQuad, whose branchless body the compiler (or the
    // DPC_AVX2 intrinsics path) vectorizes.  Per-node arithmetic is
    // unchanged -- e_now round-trips through e_[i] instead of a
    // register, which is exact -- so the restructuring is bitwise
    // invisible.  Blocks are L1-resident so pass 2 rereads warm
    // lines; raw restrict pointers keep the indexed loads out of
    // the vector wrappers and promise the compiler the streams
    // never alias.
    const GraphCsr &g = topo_.csr();
    const std::uint32_t *DPC_RESTRICT offs = g.offsets.data();
    const std::uint32_t *DPC_RESTRICT nbr = g.neighbors.data();
    const double *DPC_RESTRICT w = w_.data();
    const double *DPC_RESTRICT snap = now;
    double *DPC_RESTRICT p = p_.data();
    double *DPC_RESTRICT e = e_.data();
    double *DPC_RESTRICT eta = eta_now_.data();
    const double *DPC_RESTRICT qb = qb_.data();
    const double *DPC_RESTRICT qc = qc_.data();
    const double *DPC_RESTRICT qlo = qmin_.data();
    const double *DPC_RESTRICT qhi = qmax_.data();
    const bool gated = cfg_.deadband > 0.0;
    constexpr std::size_t kBlock = 512;
    double max_dp = 0.0;
    for (std::size_t b0 = begin; b0 < end; b0 += kBlock) {
        const std::size_t b1 = std::min(end, b0 + kBlock);
        if (gated) {
            for (std::size_t i = b0; i < b1; ++i) {
                const double ei = snap[i];
                double acc = 0.0;
                const std::uint32_t khi = offs[i + 1];
                for (std::uint32_t k = offs[i]; k < khi; ++k) {
                    const double ej = snap[nbr[k]];
                    const double gap = ej - ei;
                    const double gate =
                        cfg_.deadband *
                        std::max(std::fabs(ei), std::fabs(ej));
                    if (std::fabs(gap) <= gate)
                        continue;
                    acc += w[k] * gap;
                }
                e[i] = ei + acc;
            }
        } else {
            for (std::size_t i = b0; i < b1; ++i) {
                const double ei = snap[i];
                double acc = 0.0;
                const std::uint32_t khi = offs[i + 1];
                for (std::uint32_t k = offs[i]; k < khi; ++k)
                    acc += w[k] * (snap[nbr[k]] - ei);
                e[i] = ei + acc;
            }
        }
        max_dp = std::max(
            max_dp,
            stepBlockQuad(b1 - b0, p + b0, e + b0, eta + b0,
                          qb + b0, qc + b0, qlo + b0, qhi + b0,
                          kp_));
    }
    return max_dp;
}

double
DibaAllocator::sweepParticipants(
    const std::vector<std::uint32_t> &parts, const double *pre,
    std::size_t lo, std::size_t hi)
{
    // Active-set round: only frontier ∪ N(frontier) does any
    // gossip or gradient work.  The hot mask stays frozen while
    // the sweep runs (verdicts go to next_hot_ and are committed
    // after), so every participant sees the same pair-activity
    // decisions; the participant list is ascending, so the sweep
    // order -- and with it the bitwise trajectory -- does not
    // depend on how the frontier grew.  e_ stays authoritative:
    // non-participants are untouched, participants' pre-round
    // estimates are staged into e_pre_ (the sparse analogue of the
    // dense engine's snapshot swap, O(participants) instead of
    // O(n)).
    const std::uint32_t *pv = parts.data();
    for (std::size_t idx = 0; idx < parts.size(); ++idx)
        e_pre_[pv[idx]] = pre[pv[idx]];
    if (lo == hi)
        return 0.0;
    double max_dp = 0.0;
    if (!pool_) {
        max_dp = roundSparseRange(pv, lo, hi);
    } else {
        const std::size_t chunks = pool_->numChunks();
        chunk_max_.assign(chunks, 0.0);
        pool_->parallelFor(
            hi - lo, [this, pv, lo](std::size_t c, std::size_t b,
                                    std::size_t e) {
                chunk_max_[c] = roundSparseRange(pv, lo + b, lo + e);
            });
        for (double v : chunk_max_)
            max_dp = std::max(max_dp, v);
    }
    for (std::size_t idx = lo; idx < hi; ++idx)
        frontier_.setHot(pv[idx], next_hot_[pv[idx]] != 0);
    return max_dp;
}

double
DibaAllocator::roundSparseRange(const std::uint32_t *parts,
                                std::size_t begin, std::size_t end)
{
    // Per participant: gossip restricted to pairs with a hot
    // endpoint (symmetric rule -> the two halves of a skipped pair
    // are skipped together and conservation is exact), then the
    // same fused quadNodeDp step + anneal as the dense kernel.
    // With active_threshold == 0 every node is hot, every pair is
    // active, and the arithmetic reduces slot for slot to the
    // dense sweep -- the bitwise identity the tests pin.  The
    // residual driving next round's membership is non-strict
    // (>= threshold) for exactly that reason.
    const GraphCsr &g = topo_.csr();
    const std::uint32_t *DPC_RESTRICT offs = g.offsets.data();
    const std::uint32_t *DPC_RESTRICT nbr = g.neighbors.data();
    const double *DPC_RESTRICT w = w_.data();
    const double *DPC_RESTRICT pre = e_pre_.data();
    const std::uint8_t *DPC_RESTRICT hot = frontier_.mask().data();
    double *DPC_RESTRICT p = p_.data();
    double *DPC_RESTRICT e = e_.data();
    double *DPC_RESTRICT eta = eta_now_.data();
    const double thr = cfg_.active_threshold;
    double max_dp = 0.0;
    for (std::size_t idx = begin; idx < end; ++idx) {
        const std::uint32_t i = parts[idx];
        const double ei = pre[i];
        const bool ih = hot[i] != 0;
        double acc = 0.0;
        const std::uint32_t khi = offs[i + 1];
        for (std::uint32_t k = offs[i]; k < khi; ++k) {
            const std::uint32_t j = nbr[k];
            if (ih || hot[j])
                acc += w[k] * (pre[j] - ei);
        }
        const double e_now = ei + acc;
        const double p_now = p[i];
        const double dp =
            quadNodeDp(p_now, e_now, eta[i], qb_[i], qc_[i],
                       qmin_[i], qmax_[i], kp_);
        p[i] = p_now + dp;
        e[i] = e_now + dp;
        const double moved = std::fabs(dp);
        max_dp = std::max(max_dp, moved);
        eta[i] = annealEta(eta[i], moved, kp_);
        const double resid = std::max(moved, std::fabs(acc));
        next_hot_[i] = resid >= thr ? 1 : 0;
    }
    return max_dp;
}

void
DibaAllocator::diffuseMasked(std::size_t begin, std::size_t end,
                             const double *now, bool fated)
{
    const GraphCsr &g = topo_.csr();
    const bool gated = cfg_.deadband > 0.0;
    // Link cuts are rare fault events; the per-slot mask check is
    // gated on the counter so the healthy overlay pays nothing
    // (and slot_edge_ is guaranteed built whenever the counter is
    // non-zero -- setEdgeEnabled builds it first).  A fate table
    // already encodes liveness: dead or cut pairs are never
    // offered and stay undelivered.
    const bool masked = disabled_edges_ > 0;
    for (std::size_t i = begin; i < end; ++i) {
        if (!active_[i]) {
            e_[i] = now[i];
            continue;
        }
        double acc = 0.0;
        const std::uint32_t hi = g.offsets[i + 1];
        for (std::uint32_t k = g.offsets[i]; k < hi; ++k) {
            const std::uint32_t j = g.neighbors[k];
            const double *snap = now;
            if (fated) {
                const EdgeFate &f = fates_[slot_edge_[k]];
                if (!f.delivered)
                    continue;
                snap = hist_[f.lag].data();
            } else if (!active_[j] ||
                       (masked && !edge_enabled_[slot_edge_[k]])) {
                continue;
            }
            const double ei = snap[i];
            const double ej = snap[j];
            const double gap = ej - ei;
            if (gated &&
                std::fabs(gap) <=
                    cfg_.deadband *
                        std::max(std::fabs(ei), std::fabs(ej)))
                continue;
            acc += w_[k] * gap;
        }
        e_[i] = now[i] + acc;
    }
}

void
DibaAllocator::emergencyShed()
{
    // Power-capping safety action: any node whose local slack is
    // exhausted (e_i >= 0 after a budget drop) immediately lowers
    // its own cap as far as its box permits.  Nodes already at
    // their power floor cannot shed, so a few neighbour-exchange
    // rounds move their surplus to nodes that still can -- still
    // fully decentralized, and all inside one control step.
    // One pass of local shedding; returns the remaining excess
    // sum_active max(0, e_i + kShedFloor).  After a pass, every
    // node still over the line is pinned at its power floor (it
    // shed all it could), so leftover debt sits only on nodes that
    // cannot act on it and must travel by diffusion.
    auto shedPass = [&] {
        double over = 0.0;
        for (std::size_t i = 0; i < p_.size(); ++i) {
            if (!active_[i])
                continue;
            if (e_[i] > -kShedFloor) {
                emergencyShedStep(p_[i], e_[i], qmin_[i]);
                over += std::max(0.0, e_[i] + kShedFloor);
            }
        }
        return over;
    };
    // Debt can sit many hops inside a floor-clamped region and
    // diffusion moves it one hop per exchange, so keep exchanging
    // while the excess still shrinks.  Averaging never increases
    // the positive part and shedding strictly removes whatever
    // reaches a node with headroom, so the excess is monotone
    // non-increasing; when it stalls for several rounds the rest
    // is pinned debt no exchange can move (an over-floored
    // partition), and we stop -- always on a shed pass, never on a
    // diffuse, so every node with headroom leaves here holding
    // e_i <= -kShedFloor.
    const int stall_limit = 8;
    const int hard_cap = 64 + 8 * static_cast<int>(std::min<
                                  std::size_t>(
                                  topo_.numVertices(), 4096));
    double prev_over = std::numeric_limits<double>::infinity();
    int stalled = 0;
    for (int round = 0; round < hard_cap; ++round) {
        const double over = shedPass();
        if (over == 0.0)
            return;
        stalled = over > 0.999 * prev_over ? stalled + 1 : 0;
        if (stalled >= stall_limit)
            return;
        prev_over = over;
        diffuse();
    }
    shedPass();
}

namespace {

/** A node's equilibrium demand at water level lambda: the interior
 * optimum (lambda - b)/(2c) for c < 0, a step from hi to lo at
 * lambda = b for c = 0, clamped into the box. */
inline double
seedCap(double b, double c, double lo, double hi, double lambda)
{
    const double p = c < 0.0 ? (lambda - b) / (2.0 * c)
                             : (lambda < b ? hi : lo);
    return std::clamp(p, lo, hi);
}

/** The equilibrium demand curve's linear piece around a water
 * level: demand is a + lambda * s1 on [lo, hi) (lo, hi the nearest
 * breakpoints, lo floored at 0); floor is the boxes' sum of lo. */
struct DemandSegment
{
    double a, s1, lo, hi, floor;
};

/** Two doubles (GCC vector extension: elementwise IEEE arithmetic
 * on the SSE2 baseline, so the bits never depend on the build's
 * SIMD width).  The water-level passes sum node k into lane k mod
 * 4: lanes 0-1 in one pair, lanes 2-3 in the other. */
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
constexpr std::size_t kLanes = 4;

/** Nodes k, k+1 of `x`, zero past m (a zero box -- b = c = lo = hi
 * = 0 -- adds nothing to any sum or bound below). */
inline Pair
loadPair(const double *x, std::size_t k, std::size_t m)
{
    Pair v{};
    if (k + 2 <= m)
        std::memcpy(&v, x + k, sizeof(v));
    else if (k < m)
        v[0] = x[k];
    return v;
}

/** Fold four lanes (two pairs) in one fixed order. */
inline double
foldSum(Pair x, Pair y)
{
    return (x[0] + x[1]) + (y[0] + y[1]);
}

/** Running sums and nearest breakpoints of one lane pair. */
struct SegmentLanes
{
    Pair a{}, s1{}, fl{}, sl{};
    Pair sh{std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
};

/**
 * One pass of the water-level search: the segment of the demand
 * curve of m boxes that holds `lam` (inv[k] = 1/(2 c_k)).  A c < 0
 * node sits at hi below its entry breakpoint b + 2c hi, at lo from
 * its exit breakpoint b + 2c lo on, and contributes (lam - b)/(2c)
 * in between; a linear (c = 0) node's two breakpoints coincide at
 * b.  Branchless (blends), with node k summed into lane k mod 4
 * and the lanes folded in one fixed order: the bits depend only on
 * the boxes and lam.
 */
DemandSegment
segmentAt(const double *b, const double *c, const double *inv,
          const double *lo, const double *hi, std::size_t m,
          double lam)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Pair zero{}, none{kInf, kInf}, l{lam, lam};
    const auto pass = [&](SegmentLanes &s, std::size_t k) {
        const Pair vb = loadPair(b, k, m);
        const Pair vc = loadPair(c, k, m);
        const Pair vi = loadPair(inv, k, m);
        const Pair vlo = loadPair(lo, k, m);
        const Pair vhi = loadPair(hi, k, m);
        const Pair enter = vb + 2.0 * vc * vhi;
        const Pair leave = vb + 2.0 * vc * vlo;
        const auto below = l < enter; // at hi
        const auto above = leave <= l; // at lo
        s.a += below ? vhi : above ? vlo : -vb * vi;
        s.s1 += (below | above) ? zero : vi;
        s.fl += vlo;
        // Nearest breakpoints: at or below lam, and above it.
        const Pair at_lo = below ? zero : enter;
        const Pair at_lo2 = above ? leave : zero;
        const Pair at_hi = below ? enter : none;
        const Pair at_hi2 = above ? none : leave;
        s.sl = s.sl < at_lo ? at_lo : s.sl;
        s.sl = s.sl < at_lo2 ? at_lo2 : s.sl;
        s.sh = at_hi < s.sh ? at_hi : s.sh;
        s.sh = at_hi2 < s.sh ? at_hi2 : s.sh;
    };
    SegmentLanes x, y;
    for (std::size_t k = 0; k < m; k += kLanes) {
        pass(x, k);
        pass(y, k + 2);
    }
    return {foldSum(x.a, y.a), foldSum(x.s1, y.s1),
            std::max(std::max(x.sl[0], x.sl[1]),
                     std::max(y.sl[0], y.sl[1])),
            std::min(std::min(x.sh[0], x.sh[1]),
                     std::min(y.sh[0], y.sh[1])),
            foldSum(x.fl, y.fl)};
}

/** The positive root of lambda f(lambda) = s1 lambda^2 + (a - P)
 * lambda + neta (s1 <= 0, neta > 0): concave with one positive
 * root, taken without cancellation; +inf when f stays positive
 * (s1 == 0 and a >= P). */
inline double
segmentRoot(double a, double s1, double budget, double neta)
{
    const double qb = a - budget;
    if (s1 == 0.0 && qb >= 0.0)
        return std::numeric_limits<double>::infinity();
    const double d = std::sqrt(qb * qb - 4.0 * s1 * neta);
    return qb >= 0.0 ? (qb + d) / (-2.0 * s1) : 2.0 * neta / (d - qb);
}

} // namespace

bool
DibaAllocator::waterLevel(const double *b, const double *c,
                          const double *inv, const double *lo,
                          const double *hi, std::size_t m,
                          double budget, double neta, double &lambda)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double lam = lambda;
    if (!(lam > 0.0 && lam < kInf)) {
        // No earlier level: start at the root with every curved
        // node interior and every linear one halfway up its box --
        // exact when no box binds, which is where most clusters'
        // optimum sits.
        Pair a0[2] = {}, s0[2] = {};
        for (std::size_t k = 0; k < m; k += 2) {
            const Pair vb = loadPair(b, k, m);
            const Pair vc = loadPair(c, k, m);
            const Pair vi = loadPair(inv, k, m);
            const Pair vlo = loadPair(lo, k, m);
            const Pair vhi = loadPair(hi, k, m);
            const auto curved = vc < Pair{};
            const std::size_t j = (k / 2) % 2;
            a0[j] += curved ? -vb * vi : 0.5 * (vlo + vhi);
            s0[j] += curved ? vi : Pair{};
        }
        lam = segmentRoot(foldSum(a0[0], a0[1]),
                          foldSum(s0[0], s0[1]), budget, neta);
        if (!(lam > 0.0 && lam < kInf))
            lam = 1.0;
    }
    // Bracket: f > 0 below gap_lo, f <= 0 from gap_hi on.  Every
    // pass either returns or shrinks it past the segment it read,
    // and there are at most 2m + 1 segments.
    double gap_lo = 0.0, gap_hi = kInf;
    for (std::size_t pass = 0; pass < 2 * m + 2; ++pass) {
        const DemandSegment s = segmentAt(b, c, inv, lo, hi, m, lam);
        if (!(budget > s.floor))
            return false; // P <= sum(lo): no strictly feasible seed
        // f on the segment is a + x s1 - P + neta/x, strictly
        // decreasing; rounding must not leave s1 positive.
        const double r =
            segmentRoot(s.a, std::min(s.s1, 0.0), budget, neta);
        if (r >= s.lo && r <= s.hi) {
            lambda = r;
            return true;
        }
        if (r > s.hi)
            gap_lo = std::max(gap_lo, s.hi);
        else
            gap_hi = std::min(gap_hi, s.lo);
        if (!(gap_lo < gap_hi)) {
            // f falls across zero at the breakpoint both sides
            // closed on (a linear node's step, or a kink under
            // rounding): lambda sits on it with the step taken, so
            // the stepping nodes hold lo and e0 stays negative.
            lambda = gap_hi;
            return true;
        }
        if (r > gap_lo && r < gap_hi)
            lam = r;
        else if (gap_hi < kInf)
            lam = 0.5 * (gap_lo + gap_hi);
        else
            lam = 2.0 * gap_lo;
    }
    return false;
}

bool
DibaAllocator::seedAtLevel(double lambda, double budget)
{
    // Caps at lambda land in scratch so a refusal leaves the state
    // untouched.
    const std::size_t n = problem_.utilities.size();
    seed_p_.resize(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        seed_p_[i] = seedCap(qb_[i], qc_[i], qmin_[i], qmax_[i], lambda);
        total += seed_p_[i];
    }
    // The uniform estimate that makes the invariant exact; it sits
    // at ~-eta/lambda < 0 (below it on a step), so the barrier is
    // strictly feasible from round one.
    const double e0 = (total - budget) / static_cast<double>(n);
    if (!(e0 < 0.0))
        return false;
    p_.swap(seed_p_);
    e_.assign(n, e0);
    eta_now_.assign(n, cfg_.eta);
    level_ = lambda;
    return true;
}

bool
DibaAllocator::seedBarrierEquilibrium(double new_budget)
{
    const std::size_t n = problem_.utilities.size();
    double lambda = level_;
    return waterLevel(qb_.data(), qc_.data(), qinv_.data(),
                      qmin_.data(), qmax_.data(), n, new_budget,
                      static_cast<double>(n) * cfg_.eta, lambda) &&
           seedAtLevel(lambda, new_budget);
}

bool
DibaAllocator::seedComponent(const std::vector<std::uint32_t> &ids,
                             double share)
{
    const std::size_t m = ids.size();
    // The component's boxes, gathered in SoA form for the search.
    std::vector<double> box(5 * m);
    double *b = box.data(), *c = b + m, *inv = c + m, *lo = inv + m,
           *hi = lo + m;
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t i = ids[k];
        b[k] = qb_[i];
        c[k] = qc_[i];
        inv[k] = qinv_[i];
        lo[k] = qmin_[i];
        hi[k] = qmax_[i];
    }
    double lambda = 0.0;
    if (!waterLevel(b, c, inv, lo, hi, m, share,
                    static_cast<double>(m) * cfg_.eta, lambda))
        return false;
    std::vector<double> caps(m);
    double total = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
        caps[k] = seedCap(b[k], c[k], lo[k], hi[k], lambda);
        total += caps[k];
    }
    const double e0 = (total - share) / static_cast<double>(m);
    if (!(e0 < 0.0))
        return false;
    for (std::size_t k = 0; k < m; ++k) {
        p_[ids[k]] = caps[k];
        e_[ids[k]] = e0;
        eta_now_[ids[k]] = cfg_.eta;
    }
    // One-node compensation (lowest id) so the component's estimate
    // sum is sum p - share to rounding.
    e_[ids[0]] += (total - share) - e0 * static_cast<double>(m);
    return true;
}

void
DibaAllocator::setBudget(double new_budget)
{
    DPC_ASSERT(!p_.empty(), "setBudget() before reset()");
    DPC_ASSERT(new_budget > 0.0, "non-positive budget");
    const double delta = new_budget - budget_;
    const double n = static_cast<double>(num_active_);
    for (std::size_t i = 0; i < e_.size(); ++i)
        if (active_[i])
            e_[i] -= delta / n;
    budget_ = new_budget;
    problem_.budget = new_budget;
    // The uniform shift crosses any announced federation's
    // component boundaries, so the federation dissolves; the
    // recovery layer re-announces shares for the new P on its next
    // round.  Global conservation holds across the event either way.
    fed_shares_.clear();
    fed_comp_of_.clear();
    // A budget step shifts every node's estimate at once; the
    // whole frontier reheats so the reconvergence sweep starts
    // cluster-wide and narrows as regions quiesce.
    frontier_.reheatAll();
    quiet_ = 0;
    if (delta < 0.0)
        emergencyShed();
}

void
DibaAllocator::warmStart(const AllocationResult &prev,
                         double budget_delta)
{
    DPC_ASSERT(!p_.empty(), "warmStart() before reset()");
    DPC_ASSERT(prev.power.size() == p_.size(),
               "warm-start snapshot size ", prev.power.size(),
               " != cluster size ", p_.size());
    DPC_ASSERT(num_active_ == p_.size(),
               "warmStart() on a cluster with failed nodes");
    const double new_budget = budget_ + budget_delta;
    DPC_ASSERT(new_budget > 0.0, "non-positive budget after delta");

    // Reconvergence is measured like a fresh solve.
    iterations_ = 0;
    quiet_ = 0;
    hist_.clear();

    if (prev.power == power()) {
        // State-continuous re-entry (the simulator's steady loop).
        // The stationary point of the round dynamics pins every
        // marginal at eta/(-e), so shifting power while keeping the
        // converged estimates leaves each node off-equilibrium and
        // the re-balancing transports estimate mass at ring speed.
        // Instead the cluster re-seeds straight AT the new barrier
        // equilibrium -- one scalar water level, searched from the
        // previous one, then per-node local arithmetic -- and
        // gossip only has to confirm quiescence.  A budget at or
        // under the power floor has no equilibrium to seed: it is
        // announced like any budget step, a uniform estimate shift
        // plus the emergency shed.
        if (budget_delta == 0.0) {
            problem_.budget = new_budget;
            frontier_.reheatAll();
        } else if (seedBarrierEquilibrium(new_budget)) {
            budget_ = new_budget;
            problem_.budget = new_budget;
            frontier_.reheatAll();
        } else {
            setBudget(new_budget);
        }
        return;
    }

    // External snapshot: adopt the caps, re-equalize the slack.
    const std::size_t n = p_.size();
    for (std::size_t i = 0; i < n; ++i)
        p_[i] = std::clamp(prev.power[i], qmin_[i], qmax_[i]);
    budget_ = new_budget;
    problem_.budget = new_budget;
    const double e0 = (sum(p_) - budget_) / static_cast<double>(n);
    e_.assign(n, e0);
    eta_now_.assign(n, cfg_.eta);
    frontier_.reheatAll();
    if (e0 >= 0.0)
        emergencyShed();
}

void
DibaAllocator::setUtility(std::size_t i, UtilityPtr u)
{
    DPC_ASSERT(i < problem_.utilities.size(), "setUtility index out of range");
    DPC_ASSERT(u != nullptr, "null utility");
    mirrorUtility(i, *u);
    const double clamped = std::clamp(p_[i], qmin_[i], qmax_[i]);
    e_[i] += clamped - p_[i];
    p_[i] = clamped;
    problem_.utilities[i] = std::move(u);
    // The perturbation's locus is known exactly: reheat just this
    // node; its neighbours join the work set via the N(frontier)
    // rule and the residual rule grows the frontier outward as the
    // response actually propagates (Fig. 4.8 locality).
    frontier_.reheat(i);
    quiet_ = 0;
}

double
DibaAllocator::totalPower() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < p_.size(); ++i)
        if (active_[i])
            acc += p_[i];
    return acc;
}

std::size_t
DibaAllocator::messagesPerRound() const
{
    return 2 * topo_.numEdges();
}

double
DibaAllocator::stepWithTransport(net::Transport &t, GossipChannel *chan)
{
    const double moved = iterateShard(t, 0, p_.size(), chan);
    noteRound(moved);
    return moved;
}

void
DibaAllocator::buildOverlapSets(std::size_t begin, std::size_t end)
{
    if (ovl_built_ && ovl_begin_ == begin && ovl_end_ == end)
        return;
    ovl_begin_ = begin;
    ovl_end_ = end;
    ovl_built_ = true;
    ovl_interior_runs_.clear();
    ovl_boundary_runs_.clear();
    const GraphCsr &g = topo_.csr();
    for (std::size_t i = begin; i < end; ++i) {
        const bool interior = std::all_of(
            g.neighbors.begin() + g.offsets[i],
            g.neighbors.begin() + g.offsets[i + 1],
            [&](std::uint32_t j) { return j >= begin && j < end; });
        auto &runs =
            interior ? ovl_interior_runs_ : ovl_boundary_runs_;
        const auto at = static_cast<std::uint32_t>(i);
        if (!runs.empty() && runs.back().second == at)
            ++runs.back().second;
        else
            runs.emplace_back(at, at + 1);
    }
}

const std::vector<std::uint32_t> &
DibaAllocator::cutIdsOf(const std::vector<std::uint8_t> &cut)
{
    if (cut_ids_src_ != &cut) {
        cut_ids_src_ = &cut;
        cut_ids_.clear();
        for (std::size_t id = 0; id < cut.size(); ++id)
            if (cut[id] != 0)
                cut_ids_.push_back(static_cast<std::uint32_t>(id));
    }
    return cut_ids_;
}

void
DibaAllocator::prepareShardRounds(const net::Transport &t,
                                  std::size_t begin, std::size_t end)
{
    DPC_ASSERT(begin <= end && end <= topo_.numVertices(),
               "prepareShardRounds range [", begin, ", ", end,
               ") out of bounds");
    buildOverlapSets(begin, end);
    if (const std::vector<std::uint8_t> *cut = t.cutMask())
        cutIdsOf(*cut);
}

double
DibaAllocator::iterateShard(net::Transport &t, std::size_t begin,
                            std::size_t end, GossipChannel *chan)
{
    using clock = std::chrono::steady_clock;
    const auto secs = [](clock::time_point a, clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    const std::size_t n = p_.size();
    DPC_ASSERT(n > 0, "transport round before reset()");
    DPC_ASSERT(begin <= end && end <= n, "iterateShard range [",
               begin, ", ", end, ") out of bounds");
    // Frontier branch (steady-state sparsity over the wire): when
    // the engine permits the active-set kernel, the caller asked
    // for it (threshold above zero), no channel decides fates, and
    // the transport carries the wake channel, the round's compute
    // is the frontier sweep.  Threshold 0 stays on the dense
    // schedule, bitwise unchanged.
    const bool sparse = sparseEngineActive() &&
                        cfg_.active_threshold > 0.0 &&
                        chan == nullptr && t.wakesSupported();
    const std::size_t chan_lag = chan != nullptr ? chan->maxLag() : 0;
    pushHistory(chan_lag + 1);
    // Dense transport rounds touch every node outside the
    // active-set engine's bookkeeping; keep the frontier
    // conservatively hot so a later iterate() resumes from a valid
    // state.
    if (!sparse)
        frontier_.reheatAll();

    // Open the round with the front history row as the sink: the
    // transport writes every incoming peer half straight into this
    // round's snapshot (row addresses rotate with pushHistory, so
    // the sink is handed over anew every round).
    const auto t0 = clock::now();
    const std::uint64_t round = transport_round_++;
    t.beginRound(round, hist_.front().data());
    if (chan != nullptr)
        chan->beginRound(all_edges_.size());
    const std::vector<std::uint8_t> *cut = t.cutMask();
    DPC_ASSERT(cut == nullptr || cut->size() == all_edges_.size(),
               "transport cut mask does not cover the overlay");
    // The first rounds after a reset have less history than the
    // lag asks for; every lag clamps to the oldest snapshot taken.
    const auto clampLag = [this](std::size_t lag) {
        return static_cast<std::uint32_t>(
            std::min(lag, hist_.size() - 1));
    };
    const std::vector<double> &pre = hist_.front();
    // The frontier's hot bits ride along as the wake channel: a
    // wake-capable transport ships each pair's OWN-endpoint bit,
    // so the peer enters next round with this shard's verdicts for
    // the halo it reads (a dense round's reheated mask sends all
    // hot).
    const std::uint8_t *hot = frontier_.mask().data();
    const auto offerPair = [&](std::uint32_t id) {
        const auto &[u, v] = all_edges_[id];
        net::EdgePair pair;
        pair.edge_id = id;
        pair.u = static_cast<std::uint32_t>(u);
        pair.v = static_cast<std::uint32_t>(v);
        pair.round = round;
        pair.e_u = pre[u];
        pair.e_v = pre[v];
        pair.hot_u = hot[u] != 0;
        pair.hot_v = hot[v] != 0;
        t.send(pair);
    };
    // Fully-live overlay, no channel: every pair's fate is
    // {delivered, 0}, so the fate table is neither written nor
    // read (the compute below runs the fate-free kernels, slot for
    // slot the arithmetic of iterate()) and the offer pass walks
    // only the cut ids, O(cut) instead of O(E).
    // Offered pairs include quiesced ones: suppression makes them
    // nearly free on the wire, and the unconditional offer keeps
    // the sender-declared completion alive on both ends.  The
    // active-set branch always lands here (its engine implies a
    // fully-live overlay).
    const bool uniform_fresh = chan == nullptr &&
                               num_active_ == p_.size() &&
                               disabled_edges_ == 0;
    if (uniform_fresh) {
        if (cut != nullptr)
            for (const std::uint32_t id : cutIdsOf(*cut))
                offerPair(id);
    } else {
        // Draw every live pair's fate in canonical edge_id order,
        // so a seeded channel yields one reproducible fault pattern
        // per round on every shard and in the single-process run;
        // dead or cut-off edges consume no draw and stay dropped.
        // A cut pair is offered whatever its fate (the frame flows
        // even when the transfer is cancelled, which keeps remote
        // snapshots exact).
        fates_.assign(all_edges_.size(), EdgeFate{false, 0});
        for (std::size_t id = 0; id < all_edges_.size(); ++id) {
            const auto &[u, v] = all_edges_[id];
            if (!edge_enabled_[id] || !active_[u] || !active_[v])
                continue;
            EdgeFate f;
            if (chan != nullptr) {
                f = chan->fate(id, u, v);
                DPC_ASSERT(f.lag <= chan_lag, "channel returned lag ",
                           f.lag, " above its maxLag()");
            }
            if (cut != nullptr && (*cut)[id] != 0)
                offerPair(static_cast<std::uint32_t>(id));
            f.lag = clampLag(f.lag);
            fates_[id] = f;
        }
    }
    const auto t_sent = clock::now();

    // Compute, overlapped with communication: interior nodes never
    // read a halo snapshot entry and every fate was filed above,
    // so they are diffused + stepped while the cut batches are in
    // flight; only the boundary residue waits for the blocking
    // drain.  tryPoll() between chunks keeps the sockets draining
    // at memory speed instead of parking the whole round behind
    // the network.  An in-process round ([0, n), every node
    // interior) has nothing to drain.  Each pair's transfer is
    // computed on the snapshot its fate names -- both endpoints on
    // the same snapshot with the same symmetric weight, so the
    // halves are exact IEEE negations and sum(e) is conserved no
    // matter which pairs drop or go stale; a uniform-fresh round
    // runs the fate-free kernels on the front row, slot for slot
    // the same arithmetic as iterate().  The frontier sweep cannot
    // overlap: it needs the halo's hot bits, which arrive with the
    // round, so all of its compute waits out the round barrier.
    const double *now = pre.data();
    const bool fated = !uniform_fresh;
    double max_dp = 0.0;
    auto t_flushed = t_sent;
    if (!sparse) {
        buildOverlapSets(begin, end);
        // Drain cadence: a boundary-riddled block decomposes into
        // thousands of short interior runs, so draining per run
        // would mean thousands of empty non-blocking socket polls
        // per round (each one a syscall).  Count nodes across runs
        // instead and drain once per ~chunk of interior work.
        constexpr std::size_t kOverlapChunk = 4096;
        std::size_t since_drain = 0;
        t.tryPoll();
        t_flushed = clock::now();
        for (const auto &[ra, rb] : ovl_interior_runs_) {
            for (std::size_t a = ra; a < rb; a += kOverlapChunk) {
                const std::size_t b =
                    std::min<std::size_t>(rb, a + kOverlapChunk);
                max_dp =
                    std::max(max_dp, roundRange(a, b, now, fated));
                since_drain += b - a;
                if (since_drain >= kOverlapChunk) {
                    since_drain = 0;
                    t.tryPoll();
                }
            }
        }
    }
    const auto t_interior = clock::now();
    t.poll();
    if (t.aborted()) {
        // Control-plane abort (epoch change): the remote halves
        // never arrived (the interior was stepped speculatively),
        // so discard the whole round via the caller's rollback.
        return 0.0;
    }
    const auto t_drained = clock::now();
    if (!sparse) {
        for (const auto &[ra, rb] : ovl_boundary_runs_)
            max_dp = std::max(max_dp, roundRange(ra, rb, now, fated));
    } else {
        // Sync the remote frontier bits.  A non-owned bit OUTSIDE
        // the halo can only be hot after a conservative global
        // reheat (reset, warm start, a dense transport round), all
        // of which leave the whole mask hot -- cool the remote
        // block once here, O(n) per reheat instead of per round.
        // The halo itself is re-asserted from the wake view every
        // round, so by the participant build below the mask's
        // owned bits are this shard's round-(r-1) verdicts and its
        // halo bits the owners' -- together exactly the
        // single-process mask entering round r, which is what pins
        // the sharded sparse trajectory to iterate()'s bit for bit.
        if (frontier_.hotCount() == n)
            frontier_.coolOutsideRange(begin, end);
        const net::Transport::WakeView wv = t.remoteWakes();
        for (std::size_t k = 0; k < wv.count; ++k)
            frontier_.setHot(wv.nodes[k], wv.hot[k] != 0);
        // frontier ∪ N(frontier), owned block only: participants
        // are ascending ids and the owned block is
        // contiguous, so the owned sub-list is one binary-searched
        // slice.  Staging covers every participant, halo included
        // (owned rows of the history front are this round's e_,
        // halo rows the owners' patches); only the owned slice is
        // swept and committed -- the halo stays the owners' to
        // assert through next round's wake view.
        const auto &parts = frontier_.buildParticipants(topo_.csr());
        const auto slice = [&parts](std::size_t id) {
            return static_cast<std::size_t>(
                std::lower_bound(parts.begin(), parts.end(),
                                 static_cast<std::uint32_t>(id)) -
                parts.begin());
        };
        max_dp = sweepParticipants(parts, now, slice(begin),
                                   slice(end));
    }
    const auto t_done = clock::now();
    phase_totals_.send_s += secs(t0, t_flushed);
    phase_totals_.interior_s += secs(t_flushed, t_interior);
    phase_totals_.drain_s += secs(t_interior, t_drained);
    phase_totals_.boundary_s += secs(t_drained, t_done);
    ++phase_totals_.rounds;
    return max_dp;
}

void
DibaAllocator::joinNode(std::size_t i)
{
    DPC_ASSERT(i < p_.size(), "joinNode index out of range");
    DPC_ASSERT(!active_[i], "node is already active");
    active_[i] = 1;
    ++num_active_;
    restoreEdgesOf(i);
    assertLiveEdgesExact();
    // Staleness never spans a membership change (see failNode).
    hist_.clear();
    frontier_.reheatAll();
    quiet_ = 0;

    // Re-admission at the power floor with one token of negative
    // slack; the enabled live neighbours are charged the matching
    // debt, so sum_active(e) == sum_active(p) - P holds across the
    // event (the exact inverse of failNode's hand-off).
    std::vector<std::size_t> live = liveNeighbors(i);
    if (live.empty()) {
        warn("node ", i, " rejoined with no live link; charging ",
             "its re-admission debt to all survivors");
        for (std::size_t j = 0; j < p_.size(); ++j)
            if (active_[j] && j != i)
                live.push_back(j);
    }
    DPC_ASSERT(!live.empty(), "joinNode with no other active node");
    p_[i] = qmin_[i];
    e_[i] = -kShedFloor;
    // Ramp in through the barrier: annealing restarts wide open so
    // the rejoined node can acquire power over the next rounds.
    eta_now_[i] = cfg_.eta_initial;
    const double debt =
        (p_[i] - e_[i]) / static_cast<double>(live.size());
    for (std::size_t j : live)
        e_[j] += debt;
    // The floor power just re-admitted may exhaust a neighbour's
    // slack; shed inside the same call so sum p < P never lapses.
    emergencyShed();
}

void
DibaAllocator::setEdgeEnabled(std::size_t u, std::size_t v,
                              bool enabled)
{
    DPC_ASSERT(u < active_.size() && v < active_.size() && u != v,
               "setEdgeEnabled endpoints out of range");
    const std::uint32_t id = edgeId(u, v);
    if (static_cast<bool>(edge_enabled_[id]) == enabled)
        return;
    edge_enabled_[id] = enabled ? 1 : 0;
    if (enabled)
        --disabled_edges_;
    else
        ++disabled_edges_;
    if (enabled && active_[u] && active_[v])
        addLiveEdge(id);
    else
        removeLiveEdge(id);
    assertLiveEdgesExact();
    frontier_.reheatAll();
    quiet_ = 0;
    std::vector<std::uint32_t> label;
    if (!enabled && liveComponents(label) > 1) {
        warn("DiBA overlay disconnected after link {", u, ", ", v,
             "} was cut; partitions optimize independently");
    }
}

bool
DibaAllocator::edgeEnabled(std::size_t u, std::size_t v) const
{
    return disabled_edges_ == 0 || edge_enabled_[edgeId(u, v)] != 0;
}

std::uint32_t
DibaAllocator::edgeId(std::size_t u, std::size_t v) const
{
    const auto nbr = topo_.neighbors(u);
    const auto it = std::find(nbr.begin(), nbr.end(), v);
    DPC_ASSERT(it != nbr.end(), "{", u, ", ", v,
               "} is not an overlay edge");
    return slot_edge_[topo_.csr().offsets[u] + (it - nbr.begin())];
}

std::vector<std::size_t>
DibaAllocator::liveNeighbors(std::size_t i) const
{
    const GraphCsr &g = topo_.csr();
    std::vector<std::size_t> live;
    for (std::uint32_t k = g.offsets[i]; k < g.offsets[i + 1]; ++k) {
        const std::uint32_t j = g.neighbors[k];
        if (active_[j] && edge_enabled_[slot_edge_[k]])
            live.push_back(j);
    }
    return live;
}

void
DibaAllocator::buildSlotTables()
{
    // One branchless pass over the slots, no hashing.  Edge {v, w}
    // (v < w) gets the next canonical id at v's turn and queues it
    // at the front of w's slot range; w's turn maps its queue to
    // its lower slots through word[], which counts the ids queued
    // at x until x's turn and then holds the id of edge {x, w}.  A
    // lower slot's idle queue write and edge record go to a spare
    // entry at the end of each table, dropped after the pass.
    const GraphCsr &g = topo_.csr();
    const std::uint32_t *off = g.offsets.data();
    const std::uint32_t *nbr = g.neighbors.data();
    const auto n = static_cast<std::uint32_t>(topo_.numVertices());
    const auto slots = static_cast<std::uint32_t>(g.neighbors.size());
    // Metropolis weights: one division per distinct degree, the
    // same quotient bits in every slot.
    std::vector<double> inv_deg(topo_.maxDegree() + 1);
    for (std::size_t d = 0; d < inv_deg.size(); ++d)
        inv_deg[d] = 1.0 / (1.0 + static_cast<double>(d));
    all_edges_.resize(topo_.numEdges() + 1);
    slot_edge_.resize(slots + 1);
    w_.resize(slots);
    std::vector<std::uint32_t> word(n, 0);
    std::uint32_t next = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t lo = off[v];
        const std::uint32_t hi = off[v + 1];
        for (std::uint32_t q = lo; q < lo + word[v]; ++q)
            word[all_edges_[slot_edge_[q]].first] = slot_edge_[q];
        for (std::uint32_t k = lo; k < hi; ++k) {
            const std::uint32_t w = nbr[k];
            const std::uint32_t x = word[w];
            const std::uint32_t up = v < w ? 1 : 0;
            slot_edge_[k] = up ? next : x;
            slot_edge_[up ? off[w] + x : slots] = next;
            word[w] = x + up;
            all_edges_[next] = {v, w};
            next += up;
            w_[k] = inv_deg[std::max(hi - lo, off[w + 1] - off[w])];
        }
    }
    all_edges_.pop_back();
    slot_edge_.pop_back();
}

void
DibaAllocator::resetLiveEdges()
{
    edges_ = all_edges_;
    live_ids_.resize(all_edges_.size());
    live_pos_.resize(all_edges_.size());
    for (std::uint32_t id = 0; id < all_edges_.size(); ++id) {
        live_ids_[id] = id;
        live_pos_[id] = id;
    }
}

void
DibaAllocator::addLiveEdge(std::uint32_t id)
{
    if (live_pos_[id] != kNoLivePos)
        return;
    live_pos_[id] = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(all_edges_[id]);
    live_ids_.push_back(id);
}

void
DibaAllocator::removeLiveEdge(std::uint32_t id)
{
    const std::uint32_t pos = live_pos_[id];
    if (pos == kNoLivePos)
        return;
    DPC_ASSERT(live_ids_[pos] == id,
               "live-edge position index corrupt");
    const std::uint32_t last = live_ids_.back();
    edges_[pos] = edges_.back();
    live_ids_[pos] = last;
    live_pos_[last] = pos;
    edges_.pop_back();
    live_ids_.pop_back();
    live_pos_[id] = kNoLivePos;
}

void
DibaAllocator::pruneEdgesOf(std::size_t i)
{
    const GraphCsr &g = topo_.csr();
    for (std::uint32_t k = g.offsets[i]; k < g.offsets[i + 1]; ++k)
        removeLiveEdge(slot_edge_[k]);
}

void
DibaAllocator::restoreEdgesOf(std::size_t i)
{
    const GraphCsr &g = topo_.csr();
    for (std::uint32_t k = g.offsets[i]; k < g.offsets[i + 1]; ++k) {
        const std::uint32_t id = slot_edge_[k];
        const auto &[u, v] = all_edges_[id];
        if (edge_enabled_[id] && active_[u] && active_[v])
            addLiveEdge(id);
    }
}

bool
DibaAllocator::liveEdgeListExact() const
{
    std::size_t expected = 0;
    for (std::uint32_t id = 0; id < all_edges_.size(); ++id) {
        const auto &[u, v] = all_edges_[id];
        const bool should =
            (edge_enabled_.empty() || edge_enabled_[id]) &&
            (active_.empty() || (active_[u] && active_[v]));
        const std::uint32_t pos = live_pos_[id];
        if (!should) {
            if (pos != kNoLivePos)
                return false;
            continue;
        }
        ++expected;
        if (pos == kNoLivePos || pos >= edges_.size())
            return false;
        if (live_ids_[pos] != id || edges_[pos] != all_edges_[id])
            return false;
    }
    return edges_.size() == expected &&
           live_ids_.size() == expected;
}

void
DibaAllocator::assertLiveEdgesExact() const
{
#if !defined(NDEBUG)
    DPC_ASSERT(liveEdgeListExact(),
               "incremental live-edge maintenance diverged from "
               "the mask-derived live set");
#endif
}

// ---- recovery support (self-healing layer) ----------------------

void
DibaAllocator::reheat()
{
    DPC_ASSERT(!p_.empty(), "reheat() before reset()");
    for (std::size_t i = 0; i < eta_now_.size(); ++i)
        if (active_[i])
            eta_now_[i] = cfg_.eta_initial;
    frontier_.reheatAll();
    quiet_ = 0;
}

std::size_t
DibaAllocator::liveComponents(std::vector<std::uint32_t> &label_of) const
{
    // Components are numbered by ascending lowest id.
    const std::size_t n = active_.size();
    const GraphCsr &g = topo_.csr();
    label_of.assign(n, kNoComponent);
    std::uint32_t next = 0;
    std::vector<std::uint32_t> stack;
    for (std::size_t s = 0; s < n; ++s) {
        if (!active_[s] || label_of[s] != kNoComponent)
            continue;
        label_of[s] = next;
        stack.push_back(static_cast<std::uint32_t>(s));
        while (!stack.empty()) {
            const std::uint32_t v = stack.back();
            stack.pop_back();
            for (std::uint32_t k = g.offsets[v]; k < g.offsets[v + 1];
                 ++k) {
                const std::uint32_t w = g.neighbors[k];
                if (!active_[w] || label_of[w] != kNoComponent ||
                    !edge_enabled_[slot_edge_[k]])
                    continue;
                label_of[w] = next;
                stack.push_back(w);
            }
        }
        ++next;
    }
    return next;
}

std::vector<double>
DibaAllocator::heldBudgets(const std::vector<std::uint32_t> &label_of,
                           std::size_t num_comps) const
{
    std::vector<std::vector<double>> sum_p(1), sum_e(1);
    heldPartials(label_of, num_comps, nullptr, 0, sum_p[0], sum_e[0]);
    return foldHeldPartials(sum_p, sum_e);
}

void
DibaAllocator::heldPartials(const std::vector<std::uint32_t> &label_of,
                            std::size_t num_comps,
                            const std::uint32_t *owner_of,
                            std::uint32_t owner,
                            std::vector<double> &sum_p,
                            std::vector<double> &sum_e) const
{
    DPC_ASSERT(label_of.size() == p_.size(),
               "heldPartials label vector size mismatch");
    sum_p.assign(num_comps, 0.0);
    sum_e.assign(num_comps, 0.0);
    for (std::size_t i = 0; i < p_.size(); ++i) {
        if (!active_[i] || (owner_of != nullptr && owner_of[i] != owner))
            continue;
        DPC_ASSERT(label_of[i] < num_comps,
                   "heldPartials: active node ", i, " has no label");
        sum_p[label_of[i]] += p_[i];
        sum_e[label_of[i]] += e_[i];
    }
}

std::vector<double>
foldHeldPartials(const std::vector<std::vector<double>> &sum_p,
                 const std::vector<std::vector<double>> &sum_e)
{
    DPC_ASSERT(sum_p.size() == sum_e.size(),
               "foldHeldPartials owner count mismatch");
    std::size_t k = 0;
    bool have = false;
    for (std::size_t s = 0; s < sum_p.size(); ++s) {
        if (sum_p[s].empty() && sum_e[s].empty())
            continue; // dead shard: no contribution
        DPC_ASSERT(sum_p[s].size() == sum_e[s].size(),
                   "foldHeldPartials partial size mismatch");
        if (!have) {
            k = sum_p[s].size();
            have = true;
        }
        DPC_ASSERT(sum_p[s].size() == k,
                   "owners disagree on component count");
    }
    std::vector<double> hp(k, 0.0), he(k, 0.0);
    for (std::size_t s = 0; s < sum_p.size(); ++s) {
        if (sum_p[s].empty())
            continue;
        for (std::size_t j = 0; j < k; ++j) {
            hp[j] += sum_p[s][j];
            he[j] += sum_e[s][j];
        }
    }
    std::vector<double> held(k);
    for (std::size_t j = 0; j < k; ++j)
        held[j] = hp[j] - he[j];
    return held;
}

bool
DibaAllocator::reseedEquilibrium()
{
    DPC_ASSERT(!p_.empty(), "reseedEquilibrium() before reset()");
    iterations_ = 0;
    quiet_ = 0;
    hist_.clear();
    frontier_.reheatAll();
    const bool healthy = num_active_ == p_.size() &&
                         disabled_edges_ == 0 && !federationActive();
    if (healthy && seedBarrierEquilibrium(budget_))
        return true;
    // After failures, cuts or a federation: seed every live
    // component against the budget its books hold.  A healthy
    // cluster the seed refused is the one component left to
    // equalize.
    std::vector<std::uint32_t> label;
    const std::size_t k = liveComponents(label);
    const std::vector<double> held = heldBudgets(label, k);
    std::vector<std::vector<std::uint32_t>> members(k);
    for (std::size_t i = 0; i < p_.size(); ++i)
        if (active_[i])
            members[label[i]].push_back(static_cast<std::uint32_t>(i));
    bool all = true;
    for (std::size_t j = 0; j < k; ++j) {
        const std::vector<std::uint32_t> &ids = members[j];
        if (!healthy && seedComponent(ids, held[j]))
            continue;
        all = false;
        // Refused: a consensus jump to the component's mean
        // estimate, unless pinned debt leaves it non-negative, and
        // the transport pipe re-opened.
        double sum_e = 0.0;
        for (const std::uint32_t i : ids)
            sum_e += e_[i];
        const double mean = sum_e / static_cast<double>(ids.size());
        if (mean < -kBarrierFloor) {
            for (const std::uint32_t i : ids)
                e_[i] = mean;
            e_[ids[0]] +=
                sum_e - mean * static_cast<double>(ids.size());
        }
        for (const std::uint32_t i : ids)
            eta_now_[i] = cfg_.eta_initial;
    }
    return all;
}

void
DibaAllocator::adoptCaps(const std::vector<double> &caps)
{
    DPC_ASSERT(!p_.empty(), "adoptCaps() before reset()");
    DPC_ASSERT(caps.size() == p_.size(),
               "adoptCaps size ", caps.size(), " != cluster size ",
               p_.size());
    std::vector<std::uint32_t> label;
    const std::size_t k = liveComponents(label);
    // The budget each component honors is read off the books before
    // the caps move, so the adoption cannot manufacture budget.
    const std::vector<double> held = heldBudgets(label, k);
    std::vector<double> sum_p(k, 0.0);
    std::vector<std::size_t> cnt(k, 0), first(k, p_.size());
    for (std::size_t i = 0; i < p_.size(); ++i) {
        if (!active_[i])
            continue;
        p_[i] = std::clamp(caps[i], qmin_[i], qmax_[i]);
        sum_p[label[i]] += p_[i];
        ++cnt[label[i]];
        if (first[label[i]] == p_.size())
            first[label[i]] = i;
    }
    bool shed = false;
    for (std::uint32_t j = 0; j < k; ++j) {
        const double e0 =
            (sum_p[j] - held[j]) / static_cast<double>(cnt[j]);
        for (std::size_t i = 0; i < p_.size(); ++i)
            if (active_[i] && label[i] == j)
                e_[i] = e0;
        e_[first[j]] +=
            (sum_p[j] - held[j]) - e0 * static_cast<double>(cnt[j]);
        if (e0 >= 0.0)
            shed = true;
    }
    // Tight tracking from the adopted (near-optimal) point; the
    // reheat gate re-widens automatically if it turns out wrong.
    for (std::size_t i = 0; i < p_.size(); ++i)
        if (active_[i])
            eta_now_[i] = cfg_.eta;
    iterations_ = 0;
    quiet_ = 0;
    hist_.clear();
    frontier_.reheatAll();
    if (shed)
        emergencyShed();
}

void
DibaAllocator::refederateBudget(
    const std::vector<std::uint32_t> &comp_of, std::size_t num_comps)
{
    DPC_ASSERT(!p_.empty(), "refederateBudget() before reset()");
    refederateBudgetWithHeld(comp_of, num_comps,
                             heldBudgets(comp_of, num_comps));
}

void
DibaAllocator::refederateBudgetWithHeld(
    const std::vector<std::uint32_t> &comp_of, std::size_t num_comps,
    const std::vector<double> &held)
{
    DPC_ASSERT(!p_.empty(), "refederateBudget() before reset()");
    DPC_ASSERT(comp_of.size() == p_.size(),
               "refederateBudget label vector size mismatch");
    DPC_ASSERT(num_comps >= 1, "refederateBudget needs a component");
    DPC_ASSERT(held.size() == num_comps,
               "refederateBudget held vector size mismatch");

    std::vector<double> min_p(num_comps, 0.0), head(num_comps, 0.0);
    std::vector<std::size_t> cnt(num_comps, 0);
    for (std::size_t i = 0; i < p_.size(); ++i) {
        if (!active_[i])
            continue;
        DPC_ASSERT(comp_of[i] < num_comps,
                   "refederateBudget: active node ", i,
                   " has no component label");
        min_p[comp_of[i]] += qmin_[i];
        head[comp_of[i]] += qmax_[i] - qmin_[i];
        ++cnt[comp_of[i]];
    }
    for (std::size_t j = 0; j < num_comps; ++j)
        DPC_ASSERT(cnt[j] > 0, "refederateBudget: empty component ", j);

    std::vector<double> shares(num_comps);
    if (num_comps == 1) {
        shares[0] = budget_;
    } else {
        double total_min = 0.0, total_w = 0.0;
        std::vector<double> w(num_comps);
        for (std::size_t j = 0; j < num_comps; ++j) {
            total_min += min_p[j];
            // Box headroom sets the proportional weight; the count
            // term keeps fully pinned components strictly above
            // their floor so e < 0 stays feasible everywhere.
            w[j] = head[j] + 1e-6 * static_cast<double>(cnt[j]);
            total_w += w[j];
        }
        const double headroom = budget_ - total_min;
        if (!(headroom > 0.0)) {
            warn("refederateBudget: no headroom above the total ",
                 "power floor; keeping held shares");
            shares = held;
        } else {
            double partial = 0.0;
            for (std::size_t j = 0; j + 1 < num_comps; ++j) {
                shares[j] = min_p[j] + headroom * w[j] / total_w;
                partial += shares[j];
            }
            shares[num_comps - 1] = budget_ - partial;
        }
        // Safe-side rounding: the label-order sum of the announced
        // shares must not exceed P in plain double arithmetic (the
        // bitwise audit InvariantChecker runs).  Shave the last
        // share one ulp at a time until it holds.
        auto ordered_sum = [&shares] {
            double s = 0.0;
            for (double x : shares)
                s += x;
            return s;
        };
        while (ordered_sum() > budget_)
            shares[num_comps - 1] = std::nextafter(
                shares[num_comps - 1],
                -std::numeric_limits<double>::infinity());
    }

    // Announce: shift each component's estimates uniformly so
    // sum_Cj e == sum_Cj p - share_j afterwards (the change in the
    // component's estimate sum is held_j - share_j).
    bool shed = false;
    for (std::size_t i = 0; i < p_.size(); ++i) {
        if (!active_[i])
            continue;
        const std::size_t j = comp_of[i];
        e_[i] +=
            (held[j] - shares[j]) / static_cast<double>(cnt[j]);
        if (e_[i] >= 0.0)
            shed = true;
    }
    if (num_comps == 1) {
        fed_shares_.clear();
        fed_comp_of_.clear();
    } else {
        fed_shares_ = shares;
        fed_comp_of_ = comp_of;
    }
    // Re-federation is a control event: staleness must not span it
    // and the reconvergence sweep starts cluster-wide.
    hist_.clear();
    frontier_.reheatAll();
    quiet_ = 0;
    if (shed)
        emergencyShed();
    // Seed each component at the barrier equilibrium of its share.
    // The seed reads only the static utilities, the membership and
    // the shares, so every shard that runs it lands on the same
    // bits with no exchange; a component it refuses keeps the
    // shifted (and shed) state above.
    std::vector<std::vector<std::uint32_t>> members(num_comps);
    for (std::size_t j = 0; j < num_comps; ++j)
        members[j].reserve(cnt[j]);
    for (std::size_t i = 0; i < p_.size(); ++i)
        if (active_[i])
            members[comp_of[i]].push_back(
                static_cast<std::uint32_t>(i));
    for (std::size_t j = 0; j < num_comps; ++j)
        seedComponent(members[j], shares[j]);
}

void
DibaAllocator::setShardCheckpointDepth(std::size_t depth)
{
    ckpt_depth_ = depth;
    ckpt_.clear();
    ckpt_.resize(depth);
    // Size every slot now (one history row, as an unpipelined run
    // keeps), so a save in the round loop copies into memory it
    // already owns instead of allocating on the first pass round
    // the ring.
    const std::size_t n = p_.size();
    for (ShardCheckpoint &c : ckpt_) {
        c.e.assign(n, 0.0);
        c.p.assign(n, 0.0);
        c.eta.assign(n, 0.0);
        c.hist.assign(1, std::vector<double>(n, 0.0));
    }
}

void
DibaAllocator::saveShardCheckpoint()
{
    if (ckpt_depth_ == 0)
        return;
    ShardCheckpoint &c = ckpt_[transport_round_ % ckpt_depth_];
    c.key = transport_round_;
    c.e = e_;
    c.p = p_;
    c.eta = eta_now_;
    c.hist = hist_;
    c.iterations = iterations_;
    c.quiet = quiet_;
    c.budget = budget_;
}

bool
DibaAllocator::rollbackToShardCheckpoint(
    std::uint64_t rounds_completed)
{
    if (ckpt_depth_ == 0)
        return false;
    const ShardCheckpoint &c =
        ckpt_[rounds_completed % ckpt_depth_];
    if (c.key != rounds_completed)
        return false; // aged out of the ring
    e_ = c.e;
    p_ = c.p;
    eta_now_ = c.eta;
    hist_ = c.hist;
    iterations_ = c.iterations;
    quiet_ = c.quiet;
    budget_ = c.budget;
    problem_.budget = c.budget;
    transport_round_ = rounds_completed;
    // An aborted round may have left a partially stepped frontier;
    // the post-rollback surgery (failNodesQuiet + re-federation)
    // reheats anyway, but restore a self-consistent state even if
    // the caller rolls back without surgery.
    frontier_.reheatAll();
    return true;
}

void
DibaAllocator::pushHistory(std::size_t depth)
{
    DPC_ASSERT(depth >= 1, "history depth must be positive");
    if (hist_.size() >= depth) {
        // Recycle the oldest buffer instead of reallocating.
        std::vector<double> buf = std::move(hist_.back());
        hist_.pop_back();
        while (hist_.size() >= depth)
            hist_.pop_back();
        buf = e_;
        hist_.push_front(std::move(buf));
    } else {
        hist_.push_front(e_);
    }
}

} // namespace dpc
