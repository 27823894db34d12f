//! The baseline protocols as [`ProtocolBehavior`]s, executable on every
//! engine ([`Simulation`](sandf_sim::Simulation),
//! [`FlatSimulation`](sandf_sim::FlatSimulation),
//! [`ParSimulation`](sandf_sim::ParSimulation)).
//!
//! Each protocol works over a fixed-slot window ([`SlotView`]): a stored
//! id lands in a uniformly random empty slot, a full view overwrites a
//! uniformly random victim (keep-sent-ids protocols) or drops the arrival
//! (shuffle).
//!
//! Wire format: every message is a [`IdBatch`] — `sender` is always the
//! emitting node, `kind` selects the protocol phase, and the payload ids
//! ride in the fixed-capacity array (which bounds `reply_size` /
//! `gossip_size` at [`IdBatch::CAPACITY`]).

use rand::rngs::StdRng;
use rand::Rng;
use sandf_core::{NodeId, SfConfig};
use sandf_sim::{IdBatch, ProtocolBehavior, Receipt, SlotView};

/// [`IdBatch::kind`]: a one-way push (push-only, and push-pull's request
/// half).
pub const KIND_PUSH: u8 = 0;
/// [`IdBatch::kind`]: a pull reply carrying ids *copied* from the
/// responder.
pub const KIND_PULL_REPLY: u8 = 1;
/// [`IdBatch::kind`]: a shuffle request carrying ids *removed* from the
/// initiator.
pub const KIND_SHUFFLE_REQUEST: u8 = 2;
/// [`IdBatch::kind`]: a shuffle reply carrying ids removed from the
/// responder.
pub const KIND_SHUFFLE_REPLY: u8 = 3;

/// Picks a uniformly random occupied slot offset, or `None` when the view
/// is empty.
fn random_occupied(view: &SlotView<'_>, rng: &mut StdRng) -> Option<usize> {
    let occupied = view.occupied_offsets();
    if occupied.is_empty() {
        return None;
    }
    Some(occupied[rng.gen_range(0..occupied.len())])
}

/// Stores `id` with bounded-view semantics shared by the keep-sent-ids
/// baselines: below capacity the id lands in a random empty slot; at
/// capacity it overwrites a uniformly random victim (degree unchanged).
/// The node's own id is never stored.
fn store_bounded(view: &mut SlotView<'_>, id: NodeId, rng: &mut StdRng) {
    if id == view.id {
        return;
    }
    if (*view.degree as usize) < view.len() {
        view.insert_into_random_empty(id, 0, rng);
    } else {
        let victim = rng.gen_range(0..view.len());
        view.set(victim, id, 0);
    }
}

/// Removes up to `count` uniformly random occupied entries, returning the
/// removed ids.
fn take_random(view: &mut SlotView<'_>, count: usize, rng: &mut StdRng) -> Vec<NodeId> {
    let mut taken = Vec::with_capacity(count);
    for _ in 0..count {
        let Some(off) = random_occupied(view, rng) else { break };
        taken.push(view.id_at(off).expect("occupied slot has an id"));
        view.clear(off);
        *view.degree -= 1;
    }
    taken
}

/// Absorbs shuffle ids: stored into random empty slots while capacity
/// lasts, silently dropped afterwards (multigraph semantics: duplicates
/// are kept). Returns how many ids were stored.
fn absorb(view: &mut SlotView<'_>, ids: impl Iterator<Item = NodeId>, rng: &mut StdRng) -> usize {
    let mut stored = 0;
    for id in ids {
        if (*view.degree as usize) < view.len() {
            view.insert_into_random_empty(id, 0, rng);
            stored += 1;
        }
    }
    stored
}

/// Reinforcement-only push: each action pushes the node's own id plus one
/// copied view id to a random neighbor; sent ids are kept; a full receiver
/// evicts uniformly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushOnlyBehavior;

impl ProtocolBehavior for PushOnlyBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate(
        &self,
        _config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        view.stats.initiated += 1;
        let Some(target_off) = random_occupied(&view, rng) else {
            view.stats.self_loops += 1;
            return None;
        };
        let extra_off = random_occupied(&view, rng).expect("view is non-empty");
        let target = view.id_at(target_off).expect("occupied slot has an id");
        let extra = view.id_at(extra_off).expect("occupied slot has an id");
        let mut msg = IdBatch::new(view.id, KIND_PUSH);
        msg.push(extra, false);
        view.stats.sent += 1;
        Some((target, msg))
    }

    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        store_bounded(&mut view, msg.sender, rng);
        for (id, _) in msg.entries() {
            store_bounded(&mut view, id, rng);
        }
        view.stats.stored += 1;
        Receipt::stored()
    }
}

/// Allavena-style push-pull: reinforcement by push, mixing by a pull reply
/// whose ids are copied, never removed — loss-immune, dependence-heavy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushPullBehavior {
    /// Ids returned per pull reply (≤ [`IdBatch::CAPACITY`]).
    pub reply_size: usize,
}

impl PushPullBehavior {
    /// Creates the behavior with the given pull-reply size.
    ///
    /// # Panics
    ///
    /// Panics if `reply_size` is zero or exceeds [`IdBatch::CAPACITY`].
    #[must_use]
    pub fn new(reply_size: usize) -> Self {
        assert!(
            reply_size > 0 && reply_size <= IdBatch::CAPACITY,
            "reply size must be in 1..={}",
            IdBatch::CAPACITY
        );
        Self { reply_size }
    }
}

impl ProtocolBehavior for PushPullBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate(
        &self,
        _config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        view.stats.initiated += 1;
        let Some(target_off) = random_occupied(&view, rng) else {
            view.stats.self_loops += 1;
            return None;
        };
        let target = view.id_at(target_off).expect("occupied slot has an id");
        view.stats.sent += 1;
        // The push carries only the sender id (reinforcement) and doubles
        // as the pull request (mixing); the reply travels separately,
        // subject to its own loss draw.
        Some((target, IdBatch::new(view.id, KIND_PUSH)))
    }

    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        match msg.kind {
            KIND_PUSH => {
                store_bounded(&mut view, msg.sender, rng);
                // Copy (never remove) up to reply_size distinct view
                // entries into the pull reply.
                let occupied = view.occupied_offsets();
                let take = self.reply_size.min(occupied.len());
                let picks = rand::seq::index::sample(rng, occupied.len(), take);
                let mut reply = IdBatch::new(view.id, KIND_PULL_REPLY);
                for pick in picks.into_vec() {
                    reply.push(view.id_at(occupied[pick]).expect("occupied slot has an id"), false);
                }
                view.stats.stored += 1;
                view.stats.sent += 1;
                Receipt::stored_with_reply(msg.sender, reply)
            }
            _ => {
                for (id, _) in msg.entries() {
                    store_bounded(&mut view, id, rng);
                }
                view.stats.stored += 1;
                Receipt::stored()
            }
        }
    }
}

/// Cyclon/flipper-style shuffle: bidirectional exchanges that *delete*
/// sent ids — the Section 3.1 baseline that drains under loss, because a
/// lost request or reply permanently destroys the ids in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShuffleBehavior {
    /// Ids exchanged per shuffle (≤ [`IdBatch::CAPACITY`]).
    pub gossip_size: usize,
}

impl ShuffleBehavior {
    /// Creates the behavior with the given shuffle length.
    ///
    /// # Panics
    ///
    /// Panics if `gossip_size` is zero or exceeds [`IdBatch::CAPACITY`].
    #[must_use]
    pub fn new(gossip_size: usize) -> Self {
        assert!(
            gossip_size > 0 && gossip_size <= IdBatch::CAPACITY,
            "gossip size must be in 1..={}",
            IdBatch::CAPACITY
        );
        Self { gossip_size }
    }
}

impl ProtocolBehavior for ShuffleBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn initiate(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        view.stats.initiated += 1;
        let Some(target_off) = random_occupied(&view, rng) else {
            view.stats.self_loops += 1;
            return None;
        };
        // The target instance and up to gossip_size − 1 more ids leave
        // the view inside the request; the sender id rides along
        // Cyclon-style (in the `sender` field).
        let target = view.id_at(target_off).expect("occupied slot has an id");
        view.clear(target_off);
        *view.degree -= 1;
        let removed = take_random(&mut view, self.gossip_size.saturating_sub(1), rng);
        let mut msg = IdBatch::new(view.id, KIND_SHUFFLE_REQUEST);
        for id in removed {
            msg.push(id, false);
        }
        view.stats.sent += 1;
        Some((target, msg))
    }

    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        match msg.kind {
            KIND_SHUFFLE_REQUEST => {
                let removed = take_random(&mut view, self.gossip_size, rng);
                let stored = absorb(
                    &mut view,
                    std::iter::once(msg.sender).chain(msg.entries().map(|(id, _)| id)),
                    rng,
                );
                let mut reply = IdBatch::new(view.id, KIND_SHUFFLE_REPLY);
                for id in removed {
                    reply.push(id, false);
                }
                if stored > 0 {
                    view.stats.stored += 1;
                } else {
                    view.stats.deletions += 1;
                }
                view.stats.sent += 1;
                let deleted = stored == 0;
                Receipt { deleted, reply: Some((msg.sender, reply)) }
            }
            _ => {
                let stored = absorb(&mut view, msg.entries().map(|(id, _)| id), rng);
                if stored > 0 {
                    view.stats.stored += 1;
                    Receipt::stored()
                } else {
                    view.stats.deletions += 1;
                    Receipt::deleted()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;
    use sandf_sim::{Simulation, SlotWindow, UniformLoss};

    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn window(s: usize, ids: &[u64]) -> SlotWindow {
        SlotWindow::new(s, &ids.iter().map(|&raw| id(raw)).collect::<Vec<_>>(), 0)
    }

    fn holds(w: &SlotWindow, raw: u32) -> bool {
        w.ids.contains(&raw)
    }

    fn config() -> SfConfig {
        SfConfig::new(8, 2).unwrap()
    }

    fn push(sender: u64, payload: &[u64], kind: u8) -> IdBatch {
        let mut msg = IdBatch::new(id(sender), kind);
        for &raw in payload {
            msg.push(id(raw), false);
        }
        msg
    }

    #[test]
    fn push_only_keeps_the_view_intact() {
        let mut w = window(4, &[1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let (_, msg) = PushOnlyBehavior.initiate(config(), w.view(id(99)), &mut rng).unwrap();
        assert_eq!(w.degree, 2, "push-only never removes ids");
        assert_eq!(msg.sender, id(99), "reinforcement: own id rides as sender");
        assert_eq!(msg.len, 1, "one copied view id");
    }

    #[test]
    fn push_only_receive_fills_then_evicts() {
        let mut w = window(2, &[]);
        let mut rng = StdRng::seed_from_u64(2);
        PushOnlyBehavior.receive(config(), w.view(id(9)), push(1, &[2], KIND_PUSH), &mut rng);
        assert_eq!(w.degree, 2);
        assert!(holds(&w, 1) && holds(&w, 2));
        PushOnlyBehavior.receive(config(), w.view(id(9)), push(3, &[4], KIND_PUSH), &mut rng);
        assert_eq!(w.degree, 2, "eviction keeps the view bounded");
        assert!(holds(&w, 4), "the last arrival always survives");
    }

    #[test]
    fn push_only_never_stores_its_own_id() {
        let mut w = window(4, &[]);
        let mut rng = StdRng::seed_from_u64(3);
        PushOnlyBehavior.receive(config(), w.view(id(9)), push(1, &[9], KIND_PUSH), &mut rng);
        assert!(!holds(&w, 9));
        assert_eq!(w.degree, 1);
    }

    #[test]
    fn push_pull_push_keeps_the_local_view() {
        // The push is the whole action: whether it arrives or is lost,
        // the initiator's view is untouched — losses destroy nothing.
        let mut w = window(8, &[1, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let (to, msg) =
            PushPullBehavior::new(2).initiate(config(), w.view(id(0)), &mut rng).unwrap();
        assert!(to == id(1) || to == id(2));
        assert_eq!(msg.kind, KIND_PUSH);
        assert_eq!(w.degree, 2);
    }

    #[test]
    fn push_pull_replies_with_copies() {
        let mut w = window(4, &[3, 4, 5]);
        let mut rng = StdRng::seed_from_u64(2);
        let receipt = PushPullBehavior::new(2).receive(
            config(),
            w.view(id(99)),
            push(7, &[], KIND_PUSH),
            &mut rng,
        );
        let (to, reply) = receipt.reply.expect("a push triggers a pull reply");
        assert_eq!(to, id(7));
        assert_eq!(reply.kind, KIND_PULL_REPLY);
        assert_eq!(reply.len, 2);
        assert_eq!(w.degree, 4, "the pushed sender id was stored; copies removed nothing");
    }

    #[test]
    fn push_pull_absorbs_a_pull_reply() {
        let mut w = window(8, &[1]);
        let mut rng = StdRng::seed_from_u64(4);
        let reply = push(1, &[7, 8], KIND_PULL_REPLY);
        let receipt = PushPullBehavior::new(2).receive(config(), w.view(id(0)), reply, &mut rng);
        assert!(receipt.reply.is_none(), "a reply ends the exchange");
        assert_eq!(w.degree, 3);
    }

    #[test]
    fn shuffle_removes_sent_ids_and_replies() {
        let mut a = window(4, &[1, 2, 3]);
        let mut rng = StdRng::seed_from_u64(3);
        let behavior = ShuffleBehavior::new(2);
        let (_, msg) = behavior.initiate(config(), a.view(id(99)), &mut rng).unwrap();
        assert_eq!(a.degree, 1, "target + one more id left the view");
        assert_eq!(msg.len, 1, "one extra id in the request (sender rides separately)");

        // Deliver the request to a second window; its reply must carry
        // removed (not copied) ids.
        let mut b = window(4, &[10, 11, 12, 13]);
        let receipt = behavior.receive(config(), b.view(id(50)), msg, &mut rng);
        let (_, reply) = receipt.reply.expect("a request triggers a reply");
        assert_eq!(reply.kind, KIND_SHUFFLE_REPLY);
        assert_eq!(reply.len, 2, "gossip_size ids removed into the reply");
        // 4 − 2 removed + 2 absorbed (sender + payload) = 4.
        assert_eq!(b.degree, 4);
    }

    #[test]
    fn shuffle_exchange_conserves_ids_without_loss() {
        let behavior = ShuffleBehavior::new(2);
        let mut a = window(8, &[1, 5]);
        let mut b = window(8, &[0, 6]);
        let mut rng = StdRng::seed_from_u64(2);
        let (to, request) = behavior.initiate(config(), a.view(id(0)), &mut rng).unwrap();
        assert!(to == id(1) || to == id(5), "target from outside the view");
        let receipt = behavior.receive(config(), b.view(to), request, &mut rng);
        let (back, reply) = receipt.reply.expect("a request triggers a reply");
        assert_eq!(back, id(0));
        behavior.receive(config(), a.view(id(0)), reply, &mut rng);
        assert_eq!(a.degree + b.degree, 4, "without loss the exchange only moves ids around");
    }

    #[test]
    fn shuffle_lost_reply_destroys_ids() {
        let behavior = ShuffleBehavior::new(2);
        let mut a = window(8, &[1, 5]);
        let mut b = window(8, &[0, 6]);
        let mut rng = StdRng::seed_from_u64(3);
        let before = a.degree + b.degree;
        let (to, request) = behavior.initiate(config(), a.view(id(0)), &mut rng).unwrap();
        let _lost_reply = behavior.receive(config(), b.view(to), request, &mut rng);
        assert!(a.degree + b.degree < before, "loss must drain ids");
    }

    #[test]
    fn empty_views_self_loop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut w = window(4, &[]);
        assert!(ShuffleBehavior::new(2).initiate(config(), w.view(id(99)), &mut rng).is_none());
        assert!(PushOnlyBehavior.initiate(config(), w.view(id(99)), &mut rng).is_none());
        assert!(PushPullBehavior::new(2).initiate(config(), w.view(id(99)), &mut rng).is_none());
        assert_eq!(w.stats.self_loops, 3);
    }

    fn ring(n: u64, k: u64) -> Vec<(NodeId, Vec<NodeId>)> {
        (0..n).map(|i| (id(i), (1..=k).map(|d| id((i + d) % n)).collect())).collect()
    }

    fn total_ids<B: ProtocolBehavior>(behavior: B, config: SfConfig, loss: f64) -> usize {
        let loss = UniformLoss::new(loss).unwrap();
        let mut sim = Simulation::from_views(behavior, config, ring(64, 6), loss, 1);
        sim.run_rounds(150);
        sim.graph().edge_count()
    }

    #[test]
    fn shuffle_drains_under_loss_where_sf_holds() {
        let config = SfConfig::new(12, 4).unwrap();
        let lossless = total_ids(ShuffleBehavior::new(3), config, 0.0);
        let lossy = total_ids(ShuffleBehavior::new(3), config, 0.1);
        assert!(lossy * 2 < lossless, "shuffle should drain under loss: {lossless} vs {lossy}");
        let sf = total_ids(sandf_sim::SfBehavior, config, 0.1);
        assert!(sf * 2 > 64 * 6, "S&F must not drain: {sf}");
    }

    #[test]
    fn push_pull_is_loss_immune() {
        let config = SfConfig::new(8, 2).unwrap();
        let loss = UniformLoss::new(0.2).unwrap();
        let mut sim =
            Simulation::from_views(PushPullBehavior::new(2), config, ring(32, 4), loss, 2);
        sim.run_rounds(100);
        let graph = sim.graph();
        assert!(graph.out_degrees().iter().all(|&d| d >= 4), "push-pull never shrinks a view");
    }
}
