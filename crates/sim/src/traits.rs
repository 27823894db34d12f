//! The engine/protocol unification layer.
//!
//! Three simulation engines grew up in this crate sharing an API by
//! convention — [`Simulation`](crate::Simulation) (per-node reference),
//! [`FlatSimulation`](crate::FlatSimulation) (struct-of-arrays fast path),
//! and [`ParSimulation`](crate::ParSimulation) (sharded rounds) — while the
//! baseline and variant protocol zoos ran on separate hand-rolled
//! harnesses that could not reach the system sizes where the paper's
//! mean-field contrasts become sharp. This module turns both conventions
//! into traits:
//!
//! * [`Engine`] — the round-granular driving surface every engine
//!   implements (rounds, settle, churn, faults, graph + stats readers), so
//!   differential tests and sweeps are written once and instantiated per
//!   engine;
//! * [`ProtocolBehavior`] — a membership protocol expressed over one
//!   node's slot window ([`SlotView`]): an initiate action, a receive
//!   handler that may produce one reply, and the bootstrap/visibility
//!   hooks churn and measurement need. All three engines are generic over
//!   a behavior (defaulting to [`SfBehavior`], the paper's S&F protocol),
//!   so each protocol — S&F, push-only, push-pull, shuffle, and the S&F
//!   variants — is written exactly once and runs on the readable classic
//!   engine and at multi-million-steps/sec scale on the arena engines.
//!
//! # Draw-order contract
//!
//! [`SfBehavior`] performs **exactly** the RNG draws of
//! [`SfNode`](sandf_core::SfNode), in the same order with the same bounds
//! (slot pick `i`, distinct slot pick `j`, then per delivered message the
//! nth-empty-slot placement draws). S&F never replies, so the reply
//! machinery consumes zero draws for it. The classic and flat engines
//! share one scheduling order (initiator pick, action, loss draw per hop,
//! delay draw, delivery, reply routing), so for **every** behavior they
//! are seed-for-seed byte-identical — the `flat_equals_classic_*` tests,
//! the all-protocol lockstep tests in `tests/protocol_conformance.rs`,
//! and the bench goldens pin this. The par engine's phase-split rounds
//! agree statistically instead.
//!
//! The engines draw message loss **at send time, before the receiver's
//! liveness is known** — a message to a departed node consumes a loss draw
//! and is then counted as a dead letter, never as lost. That order is part
//! of the byte-identity contract between the engines and is therefore
//! pinned here rather than "fixed": a dead letter is a property of the
//! receiver discovered at delivery, while loss is a property of the
//! channel decided at send.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use sandf_core::{Entry, JoinError, LocalView, Message, NodeId, NodeStats, SfConfig};
use sandf_graph::{DependenceReport, MembershipGraph};

use crate::degree::DegreeStats;
use crate::engine::{SimStats, StepSubscriber};

/// Empty-slot sentinel in the slot arenas. The arenas store ids as `u32`
/// words (half the footprint of the public `u64` id space), so real node
/// ids must stay below this sentinel; the engines reject ids at or above
/// [`ARENA_ID_LIMIT`] at construction and join time.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Exclusive upper bound on node ids representable in the slot arenas
/// (`u32::MAX` itself is the [`EMPTY_SLOT`] sentinel).
pub const ARENA_ID_LIMIT: u64 = u32::MAX as u64;

/// Narrows a node id to its arena slot word. The engines guarantee every
/// admitted id sits below [`ARENA_ID_LIMIT`], so the narrowing is
/// lossless; debug builds assert it.
#[inline]
#[must_use]
pub fn slot_word(id: NodeId) -> u32 {
    debug_assert!(id.as_u64() < ARENA_ID_LIMIT, "node id {id} exceeds the u32 arena id space");
    #[allow(clippy::cast_possible_truncation)]
    {
        id.as_u64() as u32
    }
}

/// Slot-flag bit: the entry is dependent (a duplicated id, in the paper's
/// sense).
pub const FLAG_DEPENDENT: u8 = 1;

/// Slot-flag bit: the entry is a tombstone — protocol-defined dead state
/// (used by the undelete variant). Tombstoned slots count as unoccupied
/// for degree purposes and are hidden from the graph readers.
pub const FLAG_TOMBSTONE: u8 = 2;

/// A mutable window over one node's slots in an engine's arena, handed to
/// [`ProtocolBehavior`] callbacks.
///
/// `ids[off] == EMPTY_SLOT` marks an empty slot; `flags` carries the
/// per-slot [`FLAG_DEPENDENT`] / [`FLAG_TOMBSTONE`] bits; `degree` is the
/// node's live outdegree ledger (the engine's graph readers trust it);
/// `stats` the per-node counters.
pub struct SlotView<'a> {
    /// The node that owns this window.
    pub id: NodeId,
    /// Slot ids as arena words (`EMPTY_SLOT` = empty).
    pub ids: &'a mut [u32],
    /// Per-slot flag bits, parallel to `ids`.
    pub flags: &'a mut [u8],
    /// The node's outdegree ledger (live entries only — excludes
    /// tombstones).
    pub degree: &'a mut u32,
    /// The node's event counters.
    pub stats: &'a mut NodeStats,
}

impl SlotView<'_> {
    /// Number of slots (the view size `s`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the window has zero slots (never true for a legal config).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Raw slot content (`EMPTY_SLOT` when empty).
    #[inline]
    #[must_use]
    pub fn raw(&self, off: usize) -> u32 {
        self.ids[off]
    }

    /// The id in a slot, or `None` when the slot is empty.
    #[inline]
    #[must_use]
    pub fn id_at(&self, off: usize) -> Option<NodeId> {
        (self.ids[off] != EMPTY_SLOT).then(|| NodeId::new(u64::from(self.ids[off])))
    }

    /// Whether a slot holds a live (non-empty, non-tombstone) entry.
    #[inline]
    #[must_use]
    pub fn is_live(&self, off: usize) -> bool {
        self.ids[off] != EMPTY_SLOT && self.flags[off] & FLAG_TOMBSTONE == 0
    }

    /// Empties a slot (does not touch the degree ledger).
    #[inline]
    pub fn clear(&mut self, off: usize) {
        self.ids[off] = EMPTY_SLOT;
        self.flags[off] = 0;
    }

    /// Writes a slot (does not touch the degree ledger).
    #[inline]
    pub fn set(&mut self, off: usize, id: NodeId, flags: u8) {
        self.ids[off] = slot_word(id);
        self.flags[off] = flags;
    }

    /// Stores `id` into the `nth` empty slot with `nth` drawn uniformly —
    /// the exact draw (`gen_range(0..empty)`) and slot-order scan of
    /// `LocalView::insert_into_random_empty`, which the byte-identity
    /// contract pins. Increments the degree ledger.
    ///
    /// # Panics
    ///
    /// Panics (debug) when no slot is empty; callers check capacity first.
    #[inline]
    pub fn insert_into_random_empty(&mut self, id: NodeId, flags: u8, rng: &mut StdRng) {
        let s = self.len();
        let empty = s - *self.degree as usize;
        debug_assert!(empty > 0, "outdegree below s implies an empty slot");
        let nth = rng.gen_range(0..empty);
        let off = crate::scan::nth_match(self.ids, EMPTY_SLOT, nth)
            .expect("an empty slot was counted but not found");
        self.ids[off] = slot_word(id);
        self.flags[off] = flags;
        *self.degree += 1;
    }

    /// Offsets of the occupied (non-empty, non-tombstone) slots, in slot
    /// order.
    #[must_use]
    pub fn occupied_offsets(&self) -> Vec<usize> {
        (0..self.len()).filter(|&off| self.is_live(off)).collect()
    }
}

/// An owned slot window: one node's `s` slot words ([`EMPTY_SLOT`] =
/// empty), the parallel flag bits, the live outdegree ledger, and the
/// node's counters — the per-node counterpart of one row of the arena
/// engines. It is the classic engine's node state, and a standalone
/// harness for driving a [`ProtocolBehavior`] by hand (see
/// [`view`](Self::view)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotWindow {
    /// Slot ids as arena words (`EMPTY_SLOT` = empty).
    pub ids: Box<[u32]>,
    /// Per-slot flag bits, parallel to `ids`.
    pub flags: Box<[u8]>,
    /// The live outdegree ledger.
    pub degree: u32,
    /// The node's event counters.
    pub stats: NodeStats,
}

impl SlotWindow {
    /// An `s`-slot window holding `ids` in slot order, every entry
    /// carrying `flags`; counters start at zero.
    ///
    /// # Panics
    ///
    /// Panics if more than `s` ids are given or an id is at or above
    /// [`ARENA_ID_LIMIT`].
    #[must_use]
    pub fn new(s: usize, ids: &[NodeId], flags: u8) -> Self {
        assert!(ids.len() <= s, "initial view exceeds the view size");
        let mut words = vec![EMPTY_SLOT; s].into_boxed_slice();
        for (slot, id) in words.iter_mut().zip(ids) {
            *slot = checked_word(*id);
        }
        let mut flag_bits = vec![0u8; s].into_boxed_slice();
        flag_bits[..ids.len()].fill(flags);
        let degree = u32::try_from(ids.len()).expect("view size exceeds u32");
        Self { ids: words, flags: flag_bits, degree, stats: NodeStats::new() }
    }

    /// The window as node `id` hands it to a behavior callback.
    pub fn view(&mut self, id: NodeId) -> SlotView<'_> {
        SlotView {
            id,
            ids: &mut self.ids,
            flags: &mut self.flags,
            degree: &mut self.degree,
            stats: &mut self.stats,
        }
    }

    /// The ids behavior `B` exposes to measurement, in slot order.
    pub fn visible<B: ProtocolBehavior>(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids
            .iter()
            .zip(self.flags.iter())
            .filter(|&(&id, &flags)| id != EMPTY_SLOT && B::slot_visible(flags))
            .map(|(&id, _)| NodeId::new(u64::from(id)))
    }

    /// The slots `B` exposes as a [`LocalView`] (positions and dependence
    /// tags preserved; hidden slots read as empty).
    #[must_use]
    pub fn local_view<B: ProtocolBehavior>(&self) -> LocalView {
        LocalView::from_slots(
            self.ids
                .iter()
                .zip(self.flags.iter())
                .map(|(&id, &flags)| {
                    (id != EMPTY_SLOT && B::slot_visible(flags)).then(|| Entry {
                        id: NodeId::new(u64::from(id)),
                        dependent: flags & FLAG_DEPENDENT != 0,
                    })
                })
                .collect(),
        )
    }
}

/// Narrows an id to its slot word, rejecting ids the `u32` slot encoding
/// cannot represent (the release-mode counterpart of [`slot_word`]'s
/// debug assertion, for construction-time checks).
pub(crate) fn checked_word(id: NodeId) -> u32 {
    assert!(
        id.as_u64() < ARENA_ID_LIMIT,
        "node id {id} exceeds the u32 arena id space (ids must stay below u32::MAX)"
    );
    slot_word(id)
}

/// The outcome of delivering one message to a node: whether the payload
/// was discarded (full view / displacement), and at most one reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt<M> {
    /// The delivered ids were discarded rather than stored.
    pub deleted: bool,
    /// A reply to route back through the channel (loss applies per hop).
    pub reply: Option<(NodeId, M)>,
}

impl<M> Receipt<M> {
    /// The ids were stored; no reply.
    #[must_use]
    pub fn stored() -> Self {
        Self { deleted: false, reply: None }
    }

    /// The ids were discarded; no reply.
    #[must_use]
    pub fn deleted() -> Self {
        Self { deleted: true, reply: None }
    }

    /// The ids were stored and the node replies to `to`.
    #[must_use]
    pub fn stored_with_reply(to: NodeId, msg: M) -> Self {
        Self { deleted: false, reply: Some((to, msg)) }
    }
}

/// A membership protocol expressed over one node's slot window, executable
/// on every engine ([`Simulation`](crate::Simulation),
/// [`FlatSimulation`](crate::FlatSimulation),
/// [`ParSimulation`](crate::ParSimulation)).
///
/// The engine owns scheduling, the channel (loss, delay, dead letters),
/// churn bookkeeping, and the stats ledgers; the behavior owns the view
/// algebra. Reply chains are capped at
/// [`MAX_REPLY_CHAIN`](crate::MAX_REPLY_CHAIN) hops per delivery.
pub trait ProtocolBehavior: Clone + Send + Sync {
    /// The wire message. `Copy` so the engines' ring buffers and shard
    /// queues stay allocation-free.
    type Msg: Copy + Send + Sync + PartialEq + fmt::Debug;

    /// The message's originator (dead letters and delivery routing are
    /// attributed to it).
    fn sender(msg: &Self::Msg) -> NodeId;

    /// Whether the message carries duplicated ids (drives the engines'
    /// duplication counter; protocols without the concept keep the
    /// default).
    fn duplicated(_msg: &Self::Msg) -> bool {
        false
    }

    /// One action step at `view`'s node: `None` is a self-loop (no
    /// message), `Some((to, msg))` sends. Must maintain `view.degree` and
    /// the per-node counters.
    fn initiate(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, Self::Msg)>;

    /// Delivers `msg` at `view`'s node; may produce one reply.
    fn receive(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        msg: Self::Msg,
        rng: &mut StdRng,
    ) -> Receipt<Self::Msg>;

    /// Validates a bootstrap view of `supplied` ids for a joining node.
    /// The default accepts any non-empty set that fits the view.
    ///
    /// # Errors
    ///
    /// [`JoinError`] describing the violated constraint.
    fn validate_bootstrap(&self, config: SfConfig, supplied: usize) -> Result<(), JoinError> {
        if supplied == 0 {
            return Err(JoinError::TooFewIds { supplied, d_l: 1 });
        }
        if supplied > config.view_size() {
            return Err(JoinError::TooManyIds { supplied, s: config.view_size() });
        }
        Ok(())
    }

    /// How many sponsor-view ids `join_via` seeds a joiner with.
    fn join_seed_size(&self, config: SfConfig) -> usize {
        config.lower_threshold()
    }

    /// Whether a slot's entry is visible to the graph readers
    /// (`graph()` / `count_id_instances`). The default hides tombstones.
    fn slot_visible(flags: u8) -> bool {
        flags & FLAG_TOMBSTONE == 0
    }
}

/// Maximum reply hops processed per delivered message. Push-pull and
/// shuffle use one reply; the cap only guards against a misbehaving
/// protocol.
pub const MAX_REPLY_CHAIN: usize = 8;

/// The paper's S&F protocol as a [`ProtocolBehavior`] — the default
/// behavior of all three engines.
///
/// Draw-for-draw and counter-for-counter the same state machine as
/// [`SfNode`](sandf_core::SfNode) (the `sf_behavior_matches_sf_node`
/// property test below drives both side by side). It never
/// replies, so the generic reply machinery is dead code on the S&F path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SfBehavior;

impl ProtocolBehavior for SfBehavior {
    type Msg = Message;

    #[inline]
    fn sender(msg: &Message) -> NodeId {
        msg.sender
    }

    #[inline]
    fn duplicated(msg: &Message) -> bool {
        msg.dependent
    }

    #[inline]
    fn initiate(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, Message)> {
        let SlotView { id, ids, flags, degree, stats } = view;
        stats.initiated += 1;
        let s = ids.len();
        debug_assert!(s >= 2, "view must have at least two slots");
        let i = rng.gen_range(0..s);
        let mut j = rng.gen_range(0..s - 1);
        if j >= i {
            j += 1;
        }
        let target = ids[i];
        let payload = ids[j];
        if target == EMPTY_SLOT || payload == EMPTY_SLOT {
            stats.self_loops += 1;
            return None;
        }
        let duplicated = (*degree as usize) <= config.lower_threshold();
        if duplicated {
            stats.duplications += 1;
        } else {
            ids[i] = EMPTY_SLOT;
            flags[i] = 0;
            ids[j] = EMPTY_SLOT;
            flags[j] = 0;
            *degree -= 2;
        }
        stats.sent += 1;
        let message = Message::new(id, NodeId::new(u64::from(payload)), duplicated);
        Some((NodeId::new(u64::from(target)), message))
    }

    #[inline]
    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: Message,
        rng: &mut StdRng,
    ) -> Receipt<Message> {
        if *view.degree as usize >= view.len() {
            view.stats.deletions += 1;
            return Receipt::deleted();
        }
        let flags = if msg.dependent { FLAG_DEPENDENT } else { 0 };
        view.insert_into_random_empty(msg.sender, flags, rng);
        view.insert_into_random_empty(msg.payload, flags, rng);
        view.stats.stored += 1;
        Receipt::stored()
    }

    /// The protocol's own bootstrap checks, in the order
    /// `SfNode::with_view` performs them.
    fn validate_bootstrap(&self, config: SfConfig, supplied: usize) -> Result<(), JoinError> {
        let d_l = config.lower_threshold();
        let s = config.view_size();
        if supplied < d_l {
            return Err(JoinError::TooFewIds { supplied, d_l });
        }
        if supplied > s {
            return Err(JoinError::TooManyIds { supplied, s });
        }
        if !supplied.is_multiple_of(2) {
            return Err(JoinError::OddIdCount { supplied });
        }
        Ok(())
    }
}

/// A compact multi-id wire message for the protocol zoo: a sender, a
/// protocol-defined discriminant, and up to [`IdBatch::CAPACITY`] id
/// payloads with per-id dependence bits. `Copy`, so engine queues stay
/// allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdBatch {
    /// The originator.
    pub sender: NodeId,
    /// Protocol-defined message kind (request/reply/push…).
    pub kind: u8,
    /// Number of valid entries in `ids`.
    pub len: u8,
    /// Id payloads (`ids[..len as usize]` are valid).
    pub ids: [u64; Self::CAPACITY],
    /// Per-payload dependence bits (bit `k` ↔ `ids[k]`).
    pub dep: u8,
}

impl IdBatch {
    /// Maximum payload ids per message.
    pub const CAPACITY: usize = 8;

    /// An empty batch from `sender` with the given kind.
    #[must_use]
    pub fn new(sender: NodeId, kind: u8) -> Self {
        Self { sender, kind, len: 0, ids: [0; Self::CAPACITY], dep: 0 }
    }

    /// Appends a payload id.
    ///
    /// # Panics
    ///
    /// Panics when the batch is full.
    pub fn push(&mut self, id: NodeId, dependent: bool) {
        let k = self.len as usize;
        assert!(k < Self::CAPACITY, "IdBatch overflow");
        self.ids[k] = id.as_u64();
        if dependent {
            self.dep |= 1 << k;
        }
        self.len += 1;
    }

    /// The valid payloads as `(id, dependent)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        (0..self.len as usize).map(|k| (NodeId::new(self.ids[k]), self.dep & (1 << k) != 0))
    }
}

/// The round-granular surface shared by all three engines, for generic
/// differential tests and sweeps.
///
/// Engines keep their richer inherent APIs (per-step execution, typed
/// `leave` returns, protocol-specific readers); this trait is the common
/// denominator a test can drive without knowing which engine — or which
/// protocol — it holds.
pub trait Engine {
    /// The wire message type flowing through the engine's subscribers.
    type Msg: Copy + Send + Sync + PartialEq + fmt::Debug;
    /// The fault/loss model steering the channel.
    type Fault;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Whether no node is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live node ids (owned; engines differ in their internal storage).
    fn live_ids(&self) -> Vec<NodeId>;

    /// The shared protocol configuration.
    fn config(&self) -> SfConfig;

    /// Accumulated system-wide counters.
    fn stats(&self) -> SimStats;

    /// Resets system-wide and per-node counters (e.g. after burn-in).
    fn reset_stats(&mut self);

    /// Sum of all live nodes' per-node counters.
    fn aggregate_node_stats(&self) -> NodeStats;

    /// Executes one round (`n` scheduled steps).
    fn round(&mut self);

    /// Executes `rounds` rounds.
    fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Completed rounds — the time base round-indexed fault models see.
    fn rounds_run(&self) -> u64;

    /// Messages currently in flight (0 under immediate delivery).
    fn in_flight(&self) -> usize;

    /// Delivers everything still in flight.
    fn settle(&mut self);

    /// Adds a node bootstrapped from a random sample of `sponsor`'s view.
    ///
    /// # Errors
    ///
    /// [`JoinError`] when the sponsor cannot seed a legal bootstrap.
    fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError>;

    /// Removes a node; `true` if it was live.
    fn leave(&mut self, id: NodeId) -> bool;

    /// A live node's outdegree, or `None` when departed.
    fn out_degree_of(&self, id: NodeId) -> Option<usize>;

    /// Total multiplicity of `id` across all live views.
    fn count_id_instances(&self, id: NodeId) -> usize;

    /// Streaming degree statistics: the live outdegree histogram the
    /// engine maintains incrementally at store/delete time. An `O(s)`
    /// snapshot — no arena scan — equal to a from-scratch rebuild over
    /// the live degree ledgers at all times.
    fn degree_stats(&self) -> DegreeStats;

    /// Snapshots the membership graph.
    fn graph(&self) -> MembershipGraph;

    /// Measures spatial dependence across all live views (Property M4),
    /// counting exactly the protocol-visible slots [`Engine::graph`]
    /// records (tombstones hidden).
    fn dependence(&self) -> DependenceReport;

    /// Visits every live node's current view as `(viewer, neighbour_ids)`,
    /// in the engine's deterministic live order. The slice holds exactly
    /// the protocol-visible occupied slots (tombstones hidden) — the same
    /// edges [`Engine::graph`] would record for that node — and is only
    /// valid for the duration of the callback (one shared buffer is reused
    /// across nodes, so a full pass does no per-node allocation).
    ///
    /// This is the per-round piggyback hook for layers that consume the
    /// peer-sampling service rather than only measure it, e.g.
    /// [`crate::broadcast::BroadcastLayer`].
    fn for_each_live_view(&self, visit: &mut dyn FnMut(NodeId, &[NodeId]));

    /// Applies `f` to the fault model.
    fn update_fault(&mut self, f: impl FnMut(&mut Self::Fault));

    /// Registers a step-event observer.
    fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<Self::Msg>>);
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};
    use sandf_core::{InitiateOutcome, SfNode};

    use super::*;

    fn window<'a>(
        ids: &'a mut [u32],
        flags: &'a mut [u8],
        degree: &'a mut u32,
        stats: &'a mut NodeStats,
    ) -> SlotView<'a> {
        SlotView { id: NodeId::new(9), ids, flags, degree, stats }
    }

    #[test]
    fn insert_into_random_empty_scans_in_slot_order() {
        let mut ids = [7u32, EMPTY_SLOT, 3, EMPTY_SLOT];
        let mut flags = [0u8; 4];
        let mut degree = 2u32;
        let mut stats = NodeStats::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut view = window(&mut ids, &mut flags, &mut degree, &mut stats);
        view.insert_into_random_empty(NodeId::new(5), FLAG_DEPENDENT, &mut rng);
        assert_eq!(degree, 3);
        assert_eq!(ids.iter().filter(|&&x| x == 5).count(), 1);
        let off = ids.iter().position(|&x| x == 5).unwrap();
        assert_eq!(flags[off], FLAG_DEPENDENT);
    }

    #[test]
    fn sf_behavior_bootstrap_checks_match_the_protocol_order() {
        let config = SfConfig::new(12, 4).unwrap();
        let b = SfBehavior;
        assert_eq!(
            b.validate_bootstrap(config, 2),
            Err(JoinError::TooFewIds { supplied: 2, d_l: 4 })
        );
        assert_eq!(
            b.validate_bootstrap(config, 14),
            Err(JoinError::TooManyIds { supplied: 14, s: 12 })
        );
        assert_eq!(b.validate_bootstrap(config, 5), Err(JoinError::OddIdCount { supplied: 5 }));
        assert!(b.validate_bootstrap(config, 6).is_ok());
    }

    #[test]
    fn id_batch_roundtrips_entries() {
        let mut batch = IdBatch::new(NodeId::new(3), 1);
        batch.push(NodeId::new(10), true);
        batch.push(NodeId::new(11), false);
        let entries: Vec<(NodeId, bool)> = batch.entries().collect();
        assert_eq!(entries, vec![(NodeId::new(10), true), (NodeId::new(11), false)]);
        assert_eq!(batch.sender, NodeId::new(3));
    }

    /// One step of the oracle schedule.
    #[derive(Clone, Debug)]
    enum OracleOp {
        Initiate,
        Receive { sender: u8, payload: u8, dependent: bool },
    }

    fn arb_oracle_op() -> impl Strategy<Value = OracleOp> {
        prop_oneof![
            Just(OracleOp::Initiate),
            (any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(sender, payload, dependent)| {
                OracleOp::Receive { sender, payload, dependent }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The independent S&F oracle: `SfNode` (the daemon's state
        /// machine) and `SfBehavior` over a `SlotView` (every engine's),
        /// fed the same random view, message sequence, and RNG seed, agree
        /// on every outcome, slot, dependence tag, and counter.
        #[test]
        fn sf_behavior_matches_sf_node(
            half_s in 3..10usize,
            d_l_pick in any::<u8>(),
            slots in proptest::collection::vec((any::<bool>(), any::<u8>(), any::<bool>()), 18),
            ops in proptest::collection::vec(arb_oracle_op(), 1..200),
            seed in any::<u64>(),
        ) {
            let s = 2 * half_s;
            let d_l = 2 * (usize::from(d_l_pick) % (half_s - 2));
            let config = SfConfig::new(s, d_l).unwrap();
            let owner = NodeId::new(1_000);
            let mut entries: Vec<Option<Entry>> = slots[..s]
                .iter()
                .map(|&(occupied, id, dependent)| {
                    occupied.then(|| Entry { id: NodeId::new(u64::from(id)), dependent })
                })
                .collect();
            // S&F views hold an even number of entries (Observation 5.1).
            if entries.iter().flatten().count() % 2 == 1 {
                let first = entries.iter().position(Option::is_some).unwrap();
                entries[first] = None;
            }
            let mut node = SfNode::from_view(owner, config, LocalView::from_slots(entries.clone()));
            let ids: Vec<u32> =
                entries.iter().map(|e| e.map_or(EMPTY_SLOT, |e| slot_word(e.id))).collect();
            let mut window = SlotWindow {
                ids: ids.into_boxed_slice(),
                flags: entries.iter().map(|e| e.map_or(0, |e| if e.dependent { FLAG_DEPENDENT } else { 0 })).collect(),
                degree: u32::try_from(node.out_degree()).unwrap(),
                stats: NodeStats::new(),
            };
            let mut node_rng = StdRng::seed_from_u64(seed);
            let mut window_rng = StdRng::seed_from_u64(seed);
            for op in ops {
                match op {
                    OracleOp::Initiate => {
                        let expected = match node.initiate(&mut node_rng) {
                            InitiateOutcome::SelfLoop => None,
                            InitiateOutcome::Sent { to, message, duplicated, .. } => {
                                Some((to, message, duplicated))
                            }
                        };
                        let actual = SfBehavior
                            .initiate(config, window.view(owner), &mut window_rng)
                            .map(|(to, msg)| (to, msg, SfBehavior::duplicated(&msg)));
                        prop_assert_eq!(actual, expected);
                    }
                    OracleOp::Receive { sender, payload, dependent } => {
                        let message = Message::new(
                            NodeId::new(u64::from(sender)),
                            NodeId::new(u64::from(payload)),
                            dependent,
                        );
                        let deleted = node.receive(message, &mut node_rng).is_deleted();
                        let receipt =
                            SfBehavior.receive(config, window.view(owner), message, &mut window_rng);
                        prop_assert_eq!(receipt, Receipt { deleted, reply: None });
                    }
                }
                prop_assert_eq!(node.view(), &window.local_view::<SfBehavior>());
                prop_assert_eq!(node.out_degree(), window.degree as usize);
                prop_assert_eq!(node.stats(), &window.stats);
            }
            prop_assert_eq!(node_rng.next_u64(), window_rng.next_u64(), "RNG streams diverged");
        }
    }

    #[test]
    fn tombstones_are_invisible_by_default() {
        assert!(SfBehavior::slot_visible(FLAG_DEPENDENT));
        assert!(!SfBehavior::slot_visible(FLAG_TOMBSTONE));
    }
}
