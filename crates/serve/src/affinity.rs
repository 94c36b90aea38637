//! PC-affinity scheduling for the sharded server (paper §3 applied to
//! cross-shard routing).
//!
//! The paper's core economics — batching control-intensive programs
//! pays off only when lanes agree on a program counter — holds at the
//! fleet level too: least-loaded routing spreads divergent requests
//! evenly, leaving every shard an underfilled, pc-mixed batch and
//! inflating the total superstep count as workers are added. This
//! module turns the pc signal the machines already expose
//! ([`crate::BatchServer::pc_histogram`]) into a scheduling policy with
//! four moves:
//!
//! - **Affinity routing**: new requests *pack* shards to capacity in
//!   submission order (a request's affinity key is the program entry
//!   block, where it will join; queued requests count toward that
//!   mass), falling back to least-loaded only when every shard is at
//!   its packing threshold. Full batches share supersteps; evenly
//!   spread ones do not.
//! - **Straggler migration**: a lane whose pc has diverged from its
//!   batch's majority is evicted through the compaction path and
//!   re-admitted on a shard with at least as many lanes at its pc as
//!   it had partners at home. Shards drained down to a small tail
//!   instead donate their lanes to a paired-up batch (consolidation),
//!   so drain tails overlap rather than serialize — but recipients are
//!   capped at half capacity and load only ever flows *downhill* in
//!   accumulated supersteps, so no single shard can accrete the whole
//!   fleet's stragglers (the hub failure mode).
//! - **Work stealing**: an idle shard takes the newest half of the
//!   deepest queue. Stolen requests keep their submission stamps and
//!   sequence numbers, so the fleet's global submission-order guarantee
//!   is untouched.
//! - **Batch splits**: when queues are empty and a shard sits idle, the
//!   busiest pc-diverse batch donates its minority-pc lanes to the
//!   idle shard — the late-drain rescue that parallelizes the fleet's
//!   slowest tail instead of letting one shard grind it alone.
//!
//! Everything here is a pure function of a deterministic snapshot —
//! plans depend only on submission order and shard state, never on
//! thread timing — and migration itself is bit-identity-safe because a
//! lane's RNG draws are keyed by `(seed, member_key, counter)`, not by
//! placement (asserted by `autobatch-core`'s migration tests and this
//! crate's property suite).

use std::collections::BTreeMap;

/// How a [`ShardedServer`](crate::ShardedServer) routes and rebalances
/// work across its shards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SchedulingPolicy {
    /// Route each request to the least-loaded healthy shard; never move
    /// work once placed. Deterministic and simple — the default.
    #[default]
    LeastLoaded,
    /// PC-affinity routing with straggler migration and work stealing
    /// (see the [module docs](self)).
    PcAffinity(AffinityConfig),
}

/// Tuning knobs of [`SchedulingPolicy::PcAffinity`]. The defaults are
/// the ones whose superstep totals `tests/golden_outputs.rs` pins; they
/// favor packed batches and conservative migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffinityConfig {
    /// Supersteps each shard runs between rebalance points (clamped to
    /// at least 1). Smaller quanta react faster to divergence but pay
    /// more scheduling overhead.
    pub quantum: u64,
    /// Packing factor for routing: a shard accepts new requests while
    /// `load < ceil(capacity × pack)`. `1.0` packs shards exactly to
    /// their batch capacity; larger values queue behind busy shards
    /// (deeper packing), smaller values spread earlier.
    pub pack: f64,
    /// A diverged lane migrates only to a shard holding at least this
    /// many running lanes at the lane's pc (clamped to at least 1).
    pub min_match: usize,
    /// Shards running at most this many lanes are *drain tails*: all
    /// their lanes become migration candidates (consolidation), not
    /// just pc-diverged ones.
    pub max_donor_live: usize,
    /// Most queued requests an idle shard steals per rebalance.
    pub steal_batch: usize,
}

impl Default for AffinityConfig {
    fn default() -> AffinityConfig {
        AffinityConfig {
            quantum: 12,
            pack: 1.25,
            min_match: 1,
            max_donor_live: 1,
            steal_batch: 4,
        }
    }
}

/// Point-in-time view of one shard, the input to the planners. Built by
/// the sharded server between quantum rounds.
#[derive(Debug, Clone)]
pub(crate) struct ShardView {
    /// Whether the shard can run and accept work (healthy and not
    /// errored in the current drive).
    pub active: bool,
    /// `(ticket, pc)` of every running lane.
    pub lanes: Vec<(u64, usize)>,
    /// Members currently inside the machine (running + unretired).
    pub live: usize,
    /// Queue depth.
    pub pending: usize,
    /// Supersteps this shard's machine has executed so far — a
    /// deterministic accumulated-load signal (a count, not host time),
    /// used to steer consolidation toward the least-loaded recipient.
    pub steps: u64,
}

/// One planned lane migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Migration {
    /// Donor shard index.
    pub from: usize,
    /// The lane's ticket on the donor.
    pub ticket: u64,
    /// Recipient shard index.
    pub to: usize,
}

/// One planned steal: move the newest `n` queued requests from the back
/// of `from`'s queue to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Steal {
    /// Donor shard index.
    pub from: usize,
    /// Thief shard index (idle).
    pub to: usize,
    /// How many requests to move.
    pub n: usize,
}

/// Migration-candidate ranking key, compared lexicographically (larger
/// wins): class (pc-match beats plain consolidation), partners at the
/// lane's pc, recipient batch size, then *fewest* accumulated steps and
/// *lowest* shard index as deterministic tie-breaks.
type CandidateKey = (
    u8,
    usize,
    usize,
    std::cmp::Reverse<u64>,
    std::cmp::Reverse<usize>,
);

fn histogram(lanes: &[(u64, usize)]) -> BTreeMap<usize, usize> {
    let mut h = BTreeMap::new();
    for &(_, pc) in lanes {
        *h.entry(pc).or_insert(0) += 1;
    }
    h
}

/// The pc with the most lanes, ties toward the lowest pc.
fn majority(hist: &BTreeMap<usize, usize>) -> Option<usize> {
    hist.iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&pc, _)| pc)
}

/// Plan straggler migrations over a snapshot. Deterministic: shards are
/// scanned in index order, lanes in lane order, and every move strictly
/// improves the moved lane's sharing (for pc-matches, at least as many
/// partners at the destination as the donor's whole count at that pc;
/// for consolidation, a strictly larger batch under the total order
/// `(running, fewer accumulated steps, lower index)`). Recipient
/// capacity is tracked as moves are planned — a plan never overfills a
/// machine past `cap` — and a shard that has already executed more
/// supersteps than the donor never receives, so load flows downhill.
pub(crate) fn plan_migrations(
    views: &[ShardView],
    cap: usize,
    cfg: &AffinityConfig,
) -> Vec<Migration> {
    let hists: Vec<BTreeMap<usize, usize>> = views.iter().map(|v| histogram(&v.lanes)).collect();
    let majorities: Vec<Option<usize>> = hists.iter().map(majority).collect();
    let mut live: Vec<usize> = views.iter().map(|v| v.live).collect();
    let min_match = cfg.min_match.max(1);
    // Consolidation recipients are capped at half capacity: drain tails
    // *pair up* across the fleet rather than pile onto one shard. A
    // pc-mixed merged batch barely shares supersteps, so an unbounded
    // merge would serialize on one shard the tail work that used to
    // overlap — paying in fleet wall-clock everything it saved in
    // launches. (pc-matched moves are exempt: those lanes *do* share.)
    let tail_cap = cap.div_ceil(2);
    let mut plan = Vec::new();
    for (d, view) in views.iter().enumerate() {
        if !view.active || view.lanes.is_empty() {
            continue;
        }
        let running = view.lanes.len();
        let consolidating = running <= cfg.max_donor_live;
        for &(ticket, pc) in &view.lanes {
            let diverged = majorities[d].is_some_and(|m| pc != m);
            if !consolidating && !diverged {
                continue;
            }
            let d_count = hists[d].get(&pc).copied().unwrap_or(1);
            // Best recipient: prefer a pc-match (class 1) over a plain
            // bigger batch (class 0), then more partners at the lane's
            // pc, then the larger batch, then the *least-stepped* shard
            // (accumulated load), then the lowest index. Without the
            // load term, equal-running ties resolve to the same shard
            // round after round and every drain tail in the fleet
            // funnels into it — a hub that serializes the tail work.
            let mut best: Option<CandidateKey> = None;
            let mut best_to = None;
            for (r, rv) in views.iter().enumerate() {
                if r == d || !rv.active || live[r] >= cap {
                    continue;
                }
                // Load may only flow *downhill* in accumulated steps:
                // a shard that has already done more work than the
                // donor never receives. Without this, the first shard
                // to collect a few sharing partners accretes every
                // straggler in the fleet (lanes chase partners into the
                // biggest batch as seats free) and the fleet serializes
                // behind one hub shard.
                if rv.steps > view.steps {
                    continue;
                }
                let partners = hists[r].get(&pc).copied().unwrap_or(0);
                let r_running = rv.lanes.len();
                let pc_match = partners >= min_match && partners >= d_count;
                let bigger_batch = consolidating
                    && live[r] >= 1
                    && live[r] < tail_cap
                    && (r_running > running
                        || (r_running == running && (rv.steps, r) < (view.steps, d)));
                let class = if pc_match {
                    1u8
                } else if bigger_batch {
                    0u8
                } else {
                    continue;
                };
                let key = (
                    class,
                    partners,
                    r_running,
                    std::cmp::Reverse(rv.steps),
                    std::cmp::Reverse(r),
                );
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    best_to = Some(r);
                }
            }
            if let Some(to) = best_to {
                plan.push(Migration {
                    from: d,
                    ticket,
                    to,
                });
                live[to] += 1;
                live[d] = live[d].saturating_sub(1);
            }
        }
    }
    plan
}

/// Plan batch splits for idle shards when there is nothing left to
/// steal: each idle shard takes the *minority-pc* lanes (the
/// stragglers) of the busiest diverged batch. This is the late-drain
/// rescue — once the fleet's queues are empty, the slowest shard is
/// typically grinding a pc-diverse batch of deep lanes that share
/// almost nothing, while other shards sit idle. Moving the stragglers
/// out parallelizes that tail without touching converged batches
/// (lanes all at one pc share perfectly and are never split). The
/// donor keeps at least half its batch, including the whole majority
/// group, so a split never creates a smaller batch than it leaves
/// behind and cannot oscillate.
pub(crate) fn plan_splits(
    views: &[ShardView],
    cap: usize,
    _cfg: &AffinityConfig,
) -> Vec<Migration> {
    // Queue steals take strict precedence: if anything is pending
    // anywhere, idle shards refill from queues instead.
    if views.iter().any(|v| v.active && v.pending > 0) {
        return Vec::new();
    }
    let mut lanes: Vec<Vec<(u64, usize)>> = views.iter().map(|v| v.lanes.clone()).collect();
    let mut plan = Vec::new();
    for (t, tv) in views.iter().enumerate() {
        if !tv.active || tv.live > 0 || !lanes[t].is_empty() {
            continue;
        }
        // Busiest diverged donor: most running lanes, ties toward the
        // lowest index. Converged batches (a single pc) are exempt.
        let donor = (0..views.len())
            .filter(|&d| {
                d != t && views[d].active && lanes[d].len() >= 3 && histogram(&lanes[d]).len() >= 2
            })
            .max_by(|&a, &b| lanes[a].len().cmp(&lanes[b].len()).then(b.cmp(&a)));
        let Some(d) = donor else { continue };
        let hist = histogram(&lanes[d]);
        let Some(maj) = majority(&hist) else { continue };
        let n = (lanes[d].len() / 2).min(cap);
        let moved: Vec<(u64, usize)> = lanes[d]
            .iter()
            .filter(|&&(_, pc)| pc != maj)
            .take(n)
            .copied()
            .collect();
        for &(ticket, _) in &moved {
            plan.push(Migration {
                from: d,
                ticket,
                to: t,
            });
        }
        lanes[t] = moved.clone();
        lanes[d].retain(|l| !moved.contains(l));
    }
    plan
}

/// Plan work stealing over a snapshot: each **idle** shard (nothing
/// running, nothing queued) takes up to half of the deepest active
/// queue, capped by `steal_batch` and the shard's batch capacity.
/// Donors need at least two queued requests — a single pending request
/// is cheaper admitted where it sits than moved. Deterministic: thieves
/// are scanned in index order; the deepest donor wins, ties toward the
/// lowest index; queue depths are tracked as steals are planned.
pub(crate) fn plan_steals(views: &[ShardView], cap: usize, cfg: &AffinityConfig) -> Vec<Steal> {
    let mut pending: Vec<usize> = views.iter().map(|v| v.pending).collect();
    let mut plan = Vec::new();
    for (t, view) in views.iter().enumerate() {
        if !view.active || view.live > 0 || pending[t] > 0 {
            continue;
        }
        let donor = (0..views.len())
            .filter(|&d| d != t && views[d].active && pending[d] >= 2)
            .max_by(|&a, &b| pending[a].cmp(&pending[b]).then(b.cmp(&a)));
        let Some(d) = donor else { continue };
        let n = (pending[d] / 2).min(cfg.steal_batch.max(1)).min(cap.max(1));
        if n == 0 {
            continue;
        }
        pending[d] -= n;
        pending[t] += n;
        plan.push(Steal { from: d, to: t, n });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(lanes: &[(u64, usize)], live: usize, pending: usize) -> ShardView {
        ShardView {
            active: true,
            lanes: lanes.to_vec(),
            live,
            pending,
            steps: 0,
        }
    }

    #[test]
    fn diverged_lane_moves_to_the_shard_with_more_partners() {
        // Shard 0: majority at pc 2, one straggler at pc 5.
        // Shard 1: three lanes at pc 5 with a free seat.
        let views = [
            view(&[(0, 2), (1, 2), (2, 2), (3, 5)], 4, 0),
            view(&[(10, 5), (11, 5), (12, 5)], 3, 0),
        ];
        let plan = plan_migrations(&views, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![Migration {
                from: 0,
                ticket: 3,
                to: 1
            }]
        );
    }

    #[test]
    fn migration_respects_recipient_capacity() {
        let views = [
            view(&[(0, 2), (1, 2), (2, 2), (3, 5)], 4, 0),
            view(&[(10, 5), (11, 5), (12, 5), (13, 5)], 4, 0),
        ];
        // Recipient already at cap 4: no move.
        assert!(plan_migrations(&views, 4, &AffinityConfig::default()).is_empty());
    }

    #[test]
    fn lane_never_moves_to_fewer_partners() {
        // The straggler has one partner at home (itself counts as the
        // donor's mass at pc 5 = 2); a shard with a single pc-5 lane is
        // not an improvement, so nothing moves.
        let views = [
            view(&[(0, 2), (1, 2), (2, 5), (3, 5)], 4, 0),
            view(&[(10, 5)], 1, 0),
        ];
        let cfg = AffinityConfig {
            max_donor_live: 0, // disable consolidation; isolate the rule
            ..AffinityConfig::default()
        };
        assert!(plan_migrations(&views, 4, &cfg).is_empty());
    }

    #[test]
    fn drain_tails_pair_up_under_the_recipient_cap() {
        // Three shards each down to one straggler at distinct pcs: no
        // pc-match anywhere, but consolidation merges tails — toward the
        // least-stepped recipient, lowest index on ties. The recipient
        // cap (`cap.div_ceil(2)` = 2 here) closes shard 0 after one
        // move, so tails *pair up* instead of all funneling into one
        // shard, and shard 2's tail stays put (shard 1 is empty, never
        // a consolidation target).
        let views = [
            view(&[(0, 3)], 1, 0),
            view(&[(10, 4)], 1, 0),
            view(&[(20, 5)], 1, 0),
        ];
        let plan = plan_migrations(&views, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![Migration {
                from: 1,
                ticket: 10,
                to: 0
            }]
        );
        // And the merged pair does not bounce lanes back: it is larger
        // than any tail, and its own lanes only leave for strictly more
        // partners.
        let after = [
            view(&[(0, 3), (1, 4)], 2, 0),
            view(&[], 0, 0),
            view(&[(20, 5)], 1, 0),
        ];
        assert!(plan_migrations(&after, 4, &AffinityConfig::default()).is_empty());
    }

    #[test]
    fn equal_tails_consolidate_toward_the_least_stepped_shard() {
        // Three equal one-lane tails, but shard 0 has done far more
        // work: the merge goes *into* the lightest shard 2, which the
        // recipient cap then closes. Shard 1's tail stays put — its
        // only remaining candidate (heavy shard 0) is uphill in
        // accumulated steps, and load never flows uphill.
        let mut views = vec![
            view(&[(0, 3)], 1, 0),
            view(&[(10, 4)], 1, 0),
            view(&[(20, 5)], 1, 0),
        ];
        views[0].steps = 50_000;
        views[1].steps = 400;
        views[2].steps = 100;
        let plan = plan_migrations(&views, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![Migration {
                from: 0,
                ticket: 0,
                to: 2
            }]
        );
    }

    #[test]
    fn idle_shard_splits_the_busiest_diverged_batch() {
        // Shard 0 grinds a 4-lane pc-diverse batch; shard 1 is idle and
        // nothing is queued anywhere: the minority-pc stragglers move
        // out, the majority group stays together.
        let views = [
            view(&[(0, 2), (1, 2), (2, 7), (3, 9)], 4, 0),
            view(&[], 0, 0),
        ];
        let plan = plan_splits(&views, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![
                Migration {
                    from: 0,
                    ticket: 2,
                    to: 1
                },
                Migration {
                    from: 0,
                    ticket: 3,
                    to: 1
                },
            ]
        );
    }

    #[test]
    fn splits_never_touch_converged_or_small_batches_or_fire_over_queues() {
        // Converged batch (single pc): sharing is perfect, never split.
        let converged = [
            view(&[(0, 2), (1, 2), (2, 2), (3, 2)], 4, 0),
            view(&[], 0, 0),
        ];
        assert!(plan_splits(&converged, 4, &AffinityConfig::default()).is_empty());
        // Two-lane donors are exempt: a split would leave a solo tail
        // that consolidation merges right back — a churn cycle.
        let pair = [view(&[(0, 2), (1, 7)], 2, 0), view(&[], 0, 0)];
        assert!(plan_splits(&pair, 4, &AffinityConfig::default()).is_empty());
        // Anything queued anywhere: queue steals take precedence.
        let queued = [
            view(&[(0, 2), (1, 2), (2, 7), (3, 9)], 4, 1),
            view(&[], 0, 0),
        ];
        assert!(plan_splits(&queued, 4, &AffinityConfig::default()).is_empty());
    }

    #[test]
    fn idle_shard_steals_half_the_deepest_queue() {
        let views = [
            view(&[(0, 2)], 4, 6),
            view(&[], 0, 0),
            view(&[(9, 1)], 2, 2),
        ];
        let plan = plan_steals(&views, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![Steal {
                from: 0,
                to: 1,
                n: 3
            }]
        );
        // Busy shards never steal; a lone queued request is never taken.
        let views = [view(&[], 0, 1), view(&[(0, 2)], 1, 0)];
        assert!(plan_steals(&views, 4, &AffinityConfig::default()).is_empty());
    }

    #[test]
    fn inactive_shards_neither_donate_nor_receive() {
        let mut views = vec![
            view(&[(0, 5)], 1, 0),
            view(&[(10, 5), (11, 5), (12, 5)], 3, 4),
        ];
        views[1].active = false;
        assert!(plan_migrations(&views, 4, &AffinityConfig::default()).is_empty());
        views[0].active = false;
        views[1].active = true;
        let thief = view(&[], 0, 0);
        let all = [views[0].clone(), views[1].clone(), thief];
        let plan = plan_steals(&all, 4, &AffinityConfig::default());
        assert_eq!(
            plan,
            vec![Steal {
                from: 1,
                to: 2,
                n: 2
            }]
        );
    }
}
