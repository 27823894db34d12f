//! The large-`n` fast path: a struct-of-arrays simulation engine.
//!
//! [`Simulation`](crate::Simulation) keeps one heap-allocated
//! [`SfNode`] per participant behind a `HashMap`, which is the right shape
//! for protocol-level tests but collapses under cache pressure at
//! `n ≥ 10⁵`: every step chases a hash bucket, a node box, and a slot
//! vector. [`FlatSimulation`] is the same machine laid out flat:
//!
//! * **slot arena** — all views live in one contiguous `Vec<u32>` of
//!   `n · s` slots; node `k` owns `arena[k·s .. (k+1)·s]`, with
//!   `u32::MAX` as the empty-slot sentinel and a parallel `Vec<u8>` for
//!   the per-slot flag bits (dependence, tombstones). Ids are stored as
//!   `u32` words — half the footprint of the public `u64` id space, so an
//!   `s = 16` window is exactly one cache line — with a checked widening
//!   boundary at the `u64`-id API (ids at or above `u32::MAX` are
//!   rejected at construction and join time);
//! * **flat ledgers** — outdegrees and per-node [`NodeStats`] are dense
//!   arrays indexed by the node's arena slot, not fields of a boxed node,
//!   and the live list packs each node's raw id next to its dense arena
//!   index so the hot stepping path never touches the id → dense table;
//! * **ring-buffer delivery** — under [`DelayModel::UniformSteps`] the
//!   in-flight queue is a preallocated ring of `max + 1` buckets reused
//!   round after round, replacing the classic engine's
//!   `BTreeMap<u64, Vec<…>>` that allocates per delivery time;
//! * **branch-light stepping** — the subscriber-free delivery drain is a
//!   single counter check per step, and the observed paths stay out of
//!   line exactly as in the classic engine.
//!
//! # Protocol genericity
//!
//! The engine is generic over a [`ProtocolBehavior`] `B`, defaulting to
//! [`SfBehavior`] — the paper's S&F protocol. The behavior owns the view
//! algebra (initiate / receive over a [`SlotView`] window into the arena);
//! the engine owns scheduling, the lossy channel, churn bookkeeping, and
//! the stats ledgers. Protocols that reply (push-pull, shuffle) route the
//! reply back through the channel: a loss draw per hop, delay-model
//! scheduling, and a [`MAX_REPLY_CHAIN`] hop cap per delivery. S&F never
//! replies, so the reply machinery is dead code on the default path.
//!
//! # Equivalence contract
//!
//! For every behavior, the fast path is **seed-for-seed byte-identical**
//! to the classic engine running the same behavior: it performs the same
//! RNG draws in the same order with the same bounds (initiator pick, the
//! behavior's initiate draws, loss decision, delay sampling, the
//! behavior's receive draws, reply routing), so for any seed and any
//! [`LossModel`] the two engines produce equal [`SimStats`], equal views
//! (including dependence tags), equal membership graphs, and equal
//! [`StepReport`] streams — which in turn makes the
//! [`SimRecorder`](crate::SimRecorder) obs exposition byte-identical. The
//! `flat_equals_classic_*` tests below (S&F), the all-protocol lockstep
//! tests in `tests/protocol_conformance.rs` (delayed replies included, so
//! the ring's aliasing path has a `BTreeMap` reference), and the golden
//! regression in `crates/bench/tests/flat_equivalence.rs` enforce this;
//! any change to one engine's draw sequence must be mirrored in the other.
//!
//! # Scope
//!
//! Ids are used as dense table indices (the id → node map is a flat
//! `Vec`, not a hash map), so memory is proportional to the *largest raw
//! id*, not the live count. The in-repo topology builders assign
//! contiguous ids from zero and joins extend them by one, which is the
//! intended regime. Memory for the delay ring is `O(max)` buckets.
//!
//! ```
//! use sandf_core::SfConfig;
//! use sandf_sim::{topology, FlatSimulation, UniformLoss};
//!
//! let config = SfConfig::new(16, 6)?;
//! let nodes = topology::circulant(10_000, config, 8);
//! let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 42);
//! sim.run_rounds(5);
//! assert_eq!(sim.stats().actions, 50_000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::{Entry, JoinError, LocalView, NodeId, NodeStats, SfConfig, SfNode};
use sandf_graph::{DependenceReport, MembershipGraph};
use sandf_obs::{duration_buckets, HistogramHandle, MetricsRegistry, SpanTimer};

use crate::degree::DegreeStats;
use crate::engine::{DelayModel, SimStats, StepEvent, StepPhase, StepReport, StepSubscriber};
use crate::fault::{FaultCtx, FaultModel};
use crate::traits::{
    slot_word, ProtocolBehavior, SfBehavior, SlotView, ARENA_ID_LIMIT, FLAG_DEPENDENT,
    MAX_REPLY_CHAIN,
};

/// A delivery hop's outcome: the step event, plus a protocol reply
/// (receiver, message) still to be routed.
type HopOutcome<M> = (StepEvent<M>, Option<(NodeId, M)>);

/// Empty-slot sentinel in the arena. Real node ids must stay below it.
const EMPTY: u32 = crate::traits::EMPTY_SLOT;

/// "Not live" sentinel in the id → dense-index table.
const DEAD: u32 = u32::MAX;

/// One live-list entry: a node's raw id packed next to its dense arena
/// index, so resolving a drawn initiator costs no extra random read of
/// the id → dense table. Dense indices are stable (the arena never
/// compacts), so the pairing cannot go stale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct LiveRef {
    id: u32,
    dense: u32,
}

impl LiveRef {
    #[inline]
    fn node_id(self) -> NodeId {
        NodeId::new(u64::from(self.id))
    }
}

/// Span histograms for the engine's hot paths (same metric names as the
/// classic engine, so profiled runs are comparable across engines).
#[derive(Clone, Debug)]
struct FlatProfile {
    step: HistogramHandle,
    deliver: HistogramHandle,
}

/// The struct-of-arrays fast path of [`Simulation`](crate::Simulation),
/// generic over a [`ProtocolBehavior`] (default: [`SfBehavior`]).
///
/// Construction, stepping, churn, and measurement mirror the classic
/// engine's API; the module-level comment at the top of `flat.rs` spells
/// out the storage layout, the protocol genericity, and the equivalence
/// contract.
///
/// All views live in one contiguous `n × s` slot arena (`u64::MAX` marks
/// an empty slot, a parallel byte array carries the per-slot flag bits),
/// outdegrees and per-node [`NodeStats`] are dense arrays, and the
/// delayed in-flight queue is a preallocated ring of `max + 1` buckets.
/// For any behavior the fast path is **seed-for-seed byte-identical** to
/// [`Simulation`](crate::Simulation) running that behavior: identical RNG
/// draws in identical order, hence identical [`SimStats`], views, report
/// streams, and obs exposition for any seed and loss model.
///
/// ```
/// use sandf_core::SfConfig;
/// use sandf_sim::{topology, FlatSimulation, UniformLoss};
///
/// let config = SfConfig::new(16, 6)?;
/// let nodes = topology::circulant(10_000, config, 8);
/// let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 42);
/// sim.run_rounds(5);
/// assert_eq!(sim.stats().actions, 50_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FlatSimulation<L, B: ProtocolBehavior = SfBehavior> {
    config: SfConfig,
    /// View size, cached out of `config` for the hot loops.
    s: usize,
    /// The protocol executed over the arena.
    behavior: B,
    /// Slot arena: node `k` owns `slot_ids[k·s .. (k+1)·s]`.
    slot_ids: Vec<u32>,
    /// Per-slot flag bits, parallel to `slot_ids` (meaningless on `EMPTY`).
    slot_flags: Vec<u8>,
    /// Outdegree ledger, indexed by dense node index.
    degree: Vec<u32>,
    /// Streaming live-outdegree histogram, maintained at store/delete
    /// time alongside `degree`.
    degree_hist: DegreeStats,
    /// Per-node event counters, indexed by dense node index.
    node_stats: Vec<NodeStats>,
    /// Dense index → node id (grows on join, never shrinks).
    dense_id: Vec<NodeId>,
    /// Raw id → dense index (`DEAD` for departed or never-assigned ids).
    index: Vec<u32>,
    /// Live (id, dense) pairs in the classic engine's order (insertion
    /// order with `swap_remove` on leave) — the initiator-sampling
    /// population.
    live: Vec<LiveRef>,
    loss: L,
    delay: DelayModel,
    /// Global step counter (drives in-flight delivery times).
    now: u64,
    /// Completed rounds — the time base for round-indexed fault models.
    rounds: u64,
    /// Delivery ring: bucket `t % ring.len()` holds the messages due at
    /// step `t` (each entry carries its exact due time, since replies
    /// scheduled mid-drain can transiently alias a residue to a later
    /// lap). Empty in immediate mode.
    ring: Vec<Vec<(u64, NodeId, B::Msg)>>,
    /// Messages currently in flight across all ring buckets.
    in_flight_count: usize,
    /// All delivery times `≤ drained_to` have been drained.
    drained_to: u64,
    rng: StdRng,
    stats: SimStats,
    next_id: u64,
    /// Registered step-event observers (not carried across clones).
    subscribers: Vec<Box<dyn StepSubscriber<B::Msg>>>,
    /// Hot-path span histograms, when a profiler is attached.
    profile: Option<FlatProfile>,
}

impl<L: Clone, B: ProtocolBehavior> Clone for FlatSimulation<L, B> {
    /// Clones the simulation state. As with the classic engine,
    /// subscribers are **not** cloned and an attached profiler is shared.
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            s: self.s,
            behavior: self.behavior.clone(),
            slot_ids: self.slot_ids.clone(),
            slot_flags: self.slot_flags.clone(),
            degree: self.degree.clone(),
            degree_hist: self.degree_hist.clone(),
            node_stats: self.node_stats.clone(),
            dense_id: self.dense_id.clone(),
            index: self.index.clone(),
            live: self.live.clone(),
            loss: self.loss.clone(),
            delay: self.delay,
            now: self.now,
            rounds: self.rounds,
            ring: self.ring.clone(),
            in_flight_count: self.in_flight_count,
            drained_to: self.drained_to,
            rng: self.rng.clone(),
            stats: self.stats,
            next_id: self.next_id,
            subscribers: Vec::new(),
            profile: self.profile.clone(),
        }
    }
}

impl<L: fmt::Debug, B: ProtocolBehavior> fmt::Debug for FlatSimulation<L, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlatSimulation")
            .field("config", &self.config)
            .field("live", &self.live.len())
            .field("loss", &self.loss)
            .field("delay", &self.delay)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight_count)
            .field("stats", &self.stats)
            .field("subscribers", &self.subscribers.len())
            .field("profiled", &self.profile.is_some())
            .finish_non_exhaustive()
    }
}

impl<L: FaultModel> FlatSimulation<L, SfBehavior> {
    /// Creates a flat S&F simulation over the given nodes with a seeded
    /// RNG — the drop-in counterpart of
    /// [`Simulation::new`](crate::Simulation::new).
    ///
    /// Accepts any node iterator and builds the arena in one streaming
    /// pass, so at large `n` (e.g. `topology::circulant_iter` at 10⁷
    /// nodes) construction never materializes the boxed node set — the
    /// peak footprint is the arena itself, not `n` heap nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, contains duplicate ids, mixes
    /// configurations, or uses an id at or above `u32::MAX` (the arena
    /// stores ids as `u32` words with `u32::MAX` reserved for empty
    /// slots).
    #[must_use]
    pub fn new(nodes: impl IntoIterator<Item = SfNode>, loss: L, seed: u64) -> Self {
        let mut nodes = nodes.into_iter();
        let hint = nodes.size_hint().0;
        let first = nodes.next();
        assert!(first.is_some(), "simulation needs at least one node");
        let first = first.expect("checked above");
        let config = first.config();
        let s = config.view_size();
        let mut index: Vec<u32> = Vec::new();
        let mut slot_ids = Vec::with_capacity(hint.saturating_mul(s));
        let mut slot_flags = Vec::with_capacity(hint.saturating_mul(s));
        let mut degree = Vec::with_capacity(hint);
        let mut node_stats = Vec::with_capacity(hint);
        let mut ids: Vec<NodeId> = Vec::with_capacity(hint);
        let mut live = Vec::with_capacity(hint);
        let mut next_id = 0u64;
        for node in std::iter::once(first).chain(nodes) {
            assert!(node.config() == config, "all nodes must share one configuration");
            let id = node.id();
            let raw = id.index();
            assert!(
                (raw as u64) < ARENA_ID_LIMIT,
                "node id {raw} exceeds the u32 arena id space (ids must stay below u32::MAX)"
            );
            if raw >= index.len() {
                index.resize(raw + 1, DEAD);
            }
            assert!(index[raw] == DEAD, "duplicate node ids");
            let dense = u32::try_from(ids.len()).expect("node count exceeds the dense index space");
            index[raw] = dense;
            live.push(LiveRef { id: slot_word(id), dense });
            next_id = next_id.max(id.as_u64() + 1);
            let base = slot_ids.len();
            slot_ids.resize(base + s, EMPTY);
            slot_flags.resize(base + s, 0u8);
            let mut deg = 0u32;
            for (off, slot) in node.view().slots().enumerate() {
                if let Some(entry) = slot {
                    slot_ids[base + off] = slot_word(entry.id);
                    slot_flags[base + off] = if entry.dependent { FLAG_DEPENDENT } else { 0 };
                    deg += 1;
                }
            }
            degree.push(deg);
            node_stats.push(*node.stats());
            ids.push(id);
        }
        let degree_hist = DegreeStats::rebuild(s, degree.iter().copied());
        Self {
            config,
            s,
            behavior: SfBehavior,
            slot_ids,
            slot_flags,
            degree,
            degree_hist,
            node_stats,
            dense_id: ids,
            index,
            live,
            loss,
            delay: DelayModel::Immediate,
            now: 0,
            rounds: 0,
            ring: Vec::new(),
            in_flight_count: 0,
            drained_to: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            next_id,
            subscribers: Vec::new(),
            profile: None,
        }
    }

    /// Creates a flat S&F simulation with a message-delay model; the
    /// counterpart of [`Simulation::with_delay`](crate::Simulation::with_delay).
    /// The in-flight queue becomes a preallocated ring of `max + 1`
    /// buckets, so steady-state stepping performs no queue allocation.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`new`](Self::new), or when the
    /// delay bound is zero.
    #[must_use]
    pub fn with_delay(
        nodes: impl IntoIterator<Item = SfNode>,
        loss: L,
        delay: DelayModel,
        seed: u64,
    ) -> Self {
        Self::new(nodes, loss, seed).delayed(delay)
    }
}

impl<L: FaultModel, B: ProtocolBehavior> FlatSimulation<L, B> {
    /// Creates a flat simulation running an arbitrary
    /// [`ProtocolBehavior`] over initial views given as id lists (filled
    /// in slot order, untagged). `config` supplies the view size `s` and
    /// — through the behavior's hooks — the bootstrap parameters.
    ///
    /// This is the protocol zoo's entry point; the S&F constructors
    /// ([`new`](FlatSimulation::new) /
    /// [`with_delay`](FlatSimulation::with_delay)) remain the byte-identical
    /// fast path for the paper's protocol.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty, contains duplicate ids, uses an id at
    /// or above `u32::MAX`, or a view wider than `s`.
    #[must_use]
    pub fn from_views(
        behavior: B,
        config: SfConfig,
        views: Vec<(NodeId, Vec<NodeId>)>,
        loss: L,
        seed: u64,
    ) -> Self {
        assert!(!views.is_empty(), "simulation needs at least one node");
        let s = config.view_size();
        let n = views.len();
        let ids: Vec<NodeId> = views.iter().map(|(id, _)| *id).collect();
        let next_id = ids.iter().map(|id| id.as_u64() + 1).max().unwrap_or(0);
        let max_raw = ids.iter().map(|id| id.index()).max().unwrap_or(0);
        assert!(
            (max_raw as u64) < ARENA_ID_LIMIT,
            "node id {max_raw} exceeds the u32 arena id space (ids must stay below u32::MAX)"
        );
        let mut index = vec![DEAD; max_raw + 1];
        let mut slot_ids = vec![EMPTY; n * s];
        let slot_flags = vec![0u8; n * s];
        let mut degree = vec![0u32; n];
        let mut live = Vec::with_capacity(n);
        for (k, (id, view)) in views.iter().enumerate() {
            assert!(index[id.index()] == DEAD, "duplicate node ids");
            assert!(view.len() <= s, "initial view exceeds the view size");
            let dense = u32::try_from(k).expect("node count exceeds the dense index space");
            index[id.index()] = dense;
            live.push(LiveRef { id: slot_word(*id), dense });
            let base = k * s;
            for (off, entry) in view.iter().enumerate() {
                slot_ids[base + off] = slot_word(*entry);
            }
            degree[k] = u32::try_from(view.len()).expect("view size exceeds u32");
        }
        let degree_hist = DegreeStats::rebuild(s, degree.iter().copied());
        Self {
            config,
            s,
            behavior,
            slot_ids,
            slot_flags,
            degree,
            degree_hist,
            node_stats: vec![NodeStats::new(); n],
            dense_id: ids,
            index,
            live,
            loss,
            delay: DelayModel::Immediate,
            now: 0,
            rounds: 0,
            ring: Vec::new(),
            in_flight_count: 0,
            drained_to: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: SimStats::default(),
            next_id,
            subscribers: Vec::new(),
            profile: None,
        }
    }

    /// Installs a message-delay model on a freshly built simulation
    /// (builder-style, shared by all constructors).
    ///
    /// # Panics
    ///
    /// Panics when called after stepping began, or when the delay bound
    /// is zero.
    #[must_use]
    pub fn delayed(mut self, delay: DelayModel) -> Self {
        assert!(self.now == 0, "the delay model must be installed before stepping");
        if let DelayModel::UniformSteps { max } = delay {
            assert!(max > 0, "delay bound must be positive");
            let buckets = usize::try_from(max + 1).expect("delay bound exceeds address space");
            self.ring = vec![Vec::new(); buckets];
        }
        self.delay = delay;
        self
    }

    /// Registers a step-event observer; semantics identical to
    /// [`Simulation::subscribe`](crate::Simulation::subscribe).
    pub fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<B::Msg>>) {
        self.subscribers.push(subscriber);
    }

    /// Number of registered step-event observers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Attaches hot-path profiling under the same `sim.profile.*` span
    /// names as the classic engine.
    pub fn attach_profiler(&mut self, registry: &MetricsRegistry) {
        self.profile = Some(FlatProfile {
            step: registry.histogram("sim.profile.step_ns", duration_buckets()),
            deliver: registry.histogram("sim.profile.deliver_ns", duration_buckets()),
        });
    }

    /// Reports `report` to every subscriber; out of line so the
    /// subscriber-free stepping path stays compact.
    #[cold]
    #[inline(never)]
    fn notify(&mut self, report: &StepReport<B::Msg>) {
        let mut subs = std::mem::take(&mut self.subscribers);
        for sub in &mut subs {
            sub.on_step(report);
        }
        subs.append(&mut self.subscribers);
        self.subscribers = subs;
    }

    /// The shared protocol configuration.
    #[must_use]
    pub fn config(&self) -> SfConfig {
        self.config
    }

    /// The behavior executing over the arena.
    #[must_use]
    pub fn behavior(&self) -> &B {
        &self.behavior
    }

    /// Number of live nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no node is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The ids of the live nodes (unspecified order). Owned: the live
    /// list internally packs ids next to their dense arena indices.
    #[must_use]
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.live.iter().map(|entry| entry.node_id()).collect()
    }

    /// Number of messages currently in flight (always 0 under
    /// [`DelayModel::Immediate`]).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight_count
    }

    /// Accumulated system-wide counters.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Resets system-wide and per-node counters (e.g. after burn-in).
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        for &entry in &self.live {
            self.node_stats[entry.dense as usize].reset();
        }
    }

    /// Sum of all live nodes' per-node counters.
    #[must_use]
    pub fn aggregate_node_stats(&self) -> NodeStats {
        let mut total = NodeStats::new();
        for &entry in &self.live {
            total.merge(&self.node_stats[entry.dense as usize]);
        }
        total
    }

    /// The dense arena index of a live node, or `None` when departed.
    #[inline]
    fn dense_of(&self, id: NodeId) -> Option<usize> {
        match self.index.get(id.index()) {
            Some(&k) if k != DEAD => Some(k as usize),
            _ => None,
        }
    }

    /// Splits the engine into the disjoint parts a behavior callback
    /// needs: node `k`'s slot window, the behavior, and the RNG.
    #[inline]
    fn parts(&mut self, k: usize) -> (SlotView<'_>, &B, &mut StdRng) {
        let base = k * self.s;
        let view = SlotView {
            id: self.dense_id[k],
            ids: &mut self.slot_ids[base..base + self.s],
            flags: &mut self.slot_flags[base..base + self.s],
            degree: &mut self.degree[k],
            stats: &mut self.node_stats[k],
        };
        (view, &self.behavior, &mut self.rng)
    }

    /// A live node's outdegree, or `None` when departed.
    #[must_use]
    pub fn out_degree_of(&self, id: NodeId) -> Option<usize> {
        self.dense_of(id).map(|k| self.degree[k] as usize)
    }

    /// Reconstitutes a live node's visible [`LocalView`] from the arena
    /// (slot positions, ids, and dependence tags preserved; hidden slots
    /// read as empty), or `None` when departed. Intended for snapshots and
    /// tests, not hot paths.
    #[must_use]
    pub fn node_view(&self, id: NodeId) -> Option<LocalView> {
        let k = self.dense_of(id)?;
        Some(self.view_at(k))
    }

    /// A live node's event counters, or `None` when departed.
    #[must_use]
    pub fn node_stats(&self, id: NodeId) -> Option<&NodeStats> {
        self.dense_of(id).map(|k| &self.node_stats[k])
    }

    /// Node `k`'s visible slots as a [`LocalView`] (hidden slots, e.g.
    /// tombstones, read as empty).
    fn view_at(&self, k: usize) -> LocalView {
        let base = k * self.s;
        LocalView::from_slots(
            (base..base + self.s)
                .map(|i| {
                    (self.slot_ids[i] != EMPTY && B::slot_visible(self.slot_flags[i])).then(|| {
                        Entry {
                            id: NodeId::new(u64::from(self.slot_ids[i])),
                            dependent: self.slot_flags[i] & FLAG_DEPENDENT != 0,
                        }
                    })
                })
                .collect(),
        )
    }

    /// Reconstitutes every live node as an [`SfNode`], in live order.
    /// Visible views carry over exactly; the per-node *counters* do not (the
    /// rebuilt nodes start with zeroed [`NodeStats`] — read
    /// [`aggregate_node_stats`](Self::aggregate_node_stats) from the
    /// engine instead).
    #[must_use]
    pub fn to_nodes(&self) -> Vec<SfNode> {
        self.live
            .iter()
            .map(|&entry| {
                SfNode::from_view(entry.node_id(), self.config, self.view_at(entry.dense as usize))
            })
            .collect()
    }

    /// Executes one step by a uniformly random live node (the paper's
    /// central-entity model); RNG-equivalent to
    /// [`Simulation::step`](crate::Simulation::step).
    pub fn step(&mut self) -> StepReport<B::Msg> {
        let entry = self.live[self.rng.gen_range(0..self.live.len())];
        self.step_impl(entry.node_id(), Some(entry.dense as usize))
    }

    /// Executes one step by a specific node.
    ///
    /// # Panics
    ///
    /// Panics if `initiator` is not live.
    pub fn step_node(&mut self, initiator: NodeId) -> StepReport<B::Msg> {
        self.step_impl(initiator, None)
    }

    /// The stepping core. `dense` carries the initiator's arena index
    /// when the caller already holds it (the random-initiator path reads
    /// it straight off the packed live list).
    #[inline]
    fn step_impl(&mut self, initiator: NodeId, dense: Option<usize>) -> StepReport<B::Msg> {
        let _span = self.profile.as_ref().map(|p| SpanTimer::start(&p.step));
        self.now += 1;
        if self.subscribers.is_empty() {
            self.deliver_due(None);
        } else {
            self.deliver_due_observed();
        }
        if !self.loss.node_acts(initiator, self.rounds) {
            self.stats.skipped += 1;
            let report = StepReport {
                initiator,
                event: StepEvent::Skipped,
                phase: StepPhase::Action,
                step: self.now,
            };
            if !self.subscribers.is_empty() {
                self.notify(&report);
            }
            return report;
        }
        self.stats.actions += 1;
        let k = match dense {
            Some(k) => k,
            None => self.dense_of(initiator).expect("initiator must be live"),
        };
        let config = self.config;
        let observed = !self.subscribers.is_empty();
        // Reports for reply hops triggered by an immediate delivery; they
        // causally follow the action report, so they are notified after
        // it. Empty (and unallocated) for non-replying protocols.
        let mut chained: Vec<StepReport<B::Msg>> = Vec::new();
        let deg_before = self.degree[k];
        let out = {
            let (view, behavior, rng) = self.parts(k);
            behavior.initiate(config, view, rng)
        };
        self.degree_hist.shift(deg_before, self.degree[k]);
        let event = match out {
            None => {
                self.stats.self_loops += 1;
                StepEvent::SelfLoop
            }
            Some((to, message)) => {
                let duplicated = B::duplicated(&message);
                self.stats.sent += 1;
                if duplicated {
                    self.stats.duplications += 1;
                }
                let ctx = FaultCtx { from: initiator, to, round: self.rounds };
                if self.loss.drops(ctx, &mut self.rng) {
                    self.stats.lost += 1;
                    StepEvent::Lost { to, message, duplicated }
                } else {
                    match self.delay {
                        DelayModel::Immediate => {
                            let (event, reply) = self.deliver_hop(to, message);
                            if reply.is_some() {
                                let sink = if observed { Some(&mut chained) } else { None };
                                self.process_replies(reply, sink);
                            }
                            event
                        }
                        DelayModel::UniformSteps { max } => {
                            let deliver_at = self.now + self.rng.gen_range(1..=max);
                            let bucket = (deliver_at % (max + 1)) as usize;
                            self.ring[bucket].push((deliver_at, to, message));
                            self.in_flight_count += 1;
                            StepEvent::InFlight { to, message, duplicated, deliver_at }
                        }
                    }
                }
            }
        };
        let report = StepReport { initiator, event, phase: StepPhase::Action, step: self.now };
        if observed {
            self.notify(&report);
            for chained_report in &chained {
                self.notify(chained_report);
            }
        }
        report
    }

    /// Delivers one message hop at `to` (or counts a dead letter),
    /// returning the step event and the receiver's reply, if any.
    fn deliver_hop(&mut self, to: NodeId, message: B::Msg) -> HopOutcome<B::Msg> {
        let _span = self.profile.as_ref().map(|p| SpanTimer::start(&p.deliver));
        let duplicated = B::duplicated(&message);
        match self.dense_of(to) {
            None => {
                self.stats.dead_letters += 1;
                (StepEvent::DeadLetter { to, message, duplicated }, None)
            }
            Some(k) => {
                let config = self.config;
                let deg_before = self.degree[k];
                let receipt = {
                    let (view, behavior, rng) = self.parts(k);
                    behavior.receive(config, view, message, rng)
                };
                self.degree_hist.shift(deg_before, self.degree[k]);
                if receipt.deleted {
                    self.stats.deleted += 1;
                } else {
                    self.stats.stored += 1;
                }
                (
                    StepEvent::Delivered { to, message, duplicated, deleted: receipt.deleted },
                    receipt.reply,
                )
            }
        }
    }

    /// Routes a reply chain back through the channel: a loss draw per
    /// hop, delay-model scheduling, [`MAX_REPLY_CHAIN`] hops max (excess
    /// replies are dropped uncounted). Out of line — S&F never replies.
    #[cold]
    #[inline(never)]
    fn process_replies(
        &mut self,
        mut reply: Option<(NodeId, B::Msg)>,
        mut reports: Option<&mut Vec<StepReport<B::Msg>>>,
    ) {
        let mut hops = 0;
        while let Some((to, message)) = reply.take() {
            hops += 1;
            if hops > MAX_REPLY_CHAIN {
                break;
            }
            let from = B::sender(&message);
            let duplicated = B::duplicated(&message);
            self.stats.sent += 1;
            self.stats.replies += 1;
            if duplicated {
                self.stats.duplications += 1;
            }
            let ctx = FaultCtx { from, to, round: self.rounds };
            let event = if self.loss.drops(ctx, &mut self.rng) {
                self.stats.lost += 1;
                StepEvent::Lost { to, message, duplicated }
            } else {
                match self.delay {
                    DelayModel::Immediate => {
                        let (event, next) = self.deliver_hop(to, message);
                        reply = next;
                        event
                    }
                    DelayModel::UniformSteps { max } => {
                        let deliver_at = self.now + self.rng.gen_range(1..=max);
                        let bucket = (deliver_at % (max + 1)) as usize;
                        self.ring[bucket].push((deliver_at, to, message));
                        self.in_flight_count += 1;
                        StepEvent::InFlight { to, message, duplicated, deliver_at }
                    }
                }
            };
            if let Some(out) = reports.as_deref_mut() {
                out.push(StepReport {
                    initiator: from,
                    event,
                    phase: StepPhase::Delivery,
                    step: self.now,
                });
            }
        }
    }

    /// Drains every ring bucket whose delivery time has arrived, in
    /// increasing time order (matching the classic engine's
    /// `BTreeMap::pop_first` drain). The subscriber-free path costs one
    /// counter check when nothing is in flight.
    fn deliver_due(&mut self, mut reports: Option<&mut Vec<StepReport<B::Msg>>>) {
        if self.in_flight_count == 0 {
            self.drained_to = self.now;
            return;
        }
        let len = self.ring.len() as u64;
        for t in self.drained_to + 1..=self.now {
            let bucket = (t % len) as usize;
            if self.ring[bucket].is_empty() {
                continue;
            }
            // Swap the bucket out so deliveries can mutate the engine;
            // restore the (cleared) allocation afterward for reuse.
            let mut batch = std::mem::take(&mut self.ring[bucket]);
            // Replies scheduled mid-drain can alias this residue to a
            // later lap of the ring; only entries due exactly at `t`
            // fire now (never the case for non-replying protocols).
            if batch.iter().any(|&(at, _, _)| at != t) {
                for &entry in batch.iter().filter(|&&(at, _, _)| at != t) {
                    self.ring[bucket].push(entry);
                }
                batch.retain(|&(at, _, _)| at == t);
            }
            self.in_flight_count -= batch.len();
            for &(_, to, message) in &batch {
                let (event, reply) = self.deliver_hop(to, message);
                if let Some(out) = reports.as_deref_mut() {
                    out.push(StepReport {
                        initiator: B::sender(&message),
                        event,
                        phase: StepPhase::Delivery,
                        step: self.now,
                    });
                }
                if reply.is_some() {
                    self.process_replies(reply, reports.as_deref_mut());
                }
            }
            // Keep anything scheduled into this residue while the bucket
            // was swapped out (delayed replies).
            batch.clear();
            let late = std::mem::replace(&mut self.ring[bucket], batch);
            self.ring[bucket].extend(late);
        }
        self.drained_to = self.now;
    }

    /// The subscriber path of due-message delivery; out of line like the
    /// classic engine's.
    #[cold]
    #[inline(never)]
    fn deliver_due_observed(&mut self) {
        let mut delivered = Vec::new();
        self.deliver_due(Some(&mut delivered));
        for report in &delivered {
            self.notify(report);
        }
    }

    /// Delivers every message still in flight (advancing virtual time past
    /// the last scheduled delivery), like
    /// [`Simulation::settle`](crate::Simulation::settle). Delivered
    /// messages may themselves schedule delayed replies, so the drain
    /// loops until the queue is dry (one pass for non-replying
    /// protocols).
    pub fn settle(&mut self) {
        while self.in_flight_count > 0 {
            let len = self.ring.len() as u64;
            // At rest each residue holds at most one distinct scheduled
            // time, all in `(drained_to, drained_to + len]`; find the
            // latest occupied one.
            let mut last = self.now;
            for t in self.drained_to + 1..=self.drained_to + len {
                if !self.ring[(t % len) as usize].is_empty() {
                    last = last.max(t);
                }
            }
            self.now = self.now.max(last);
            if self.subscribers.is_empty() {
                self.deliver_due(None);
            } else {
                self.deliver_due_observed();
            }
        }
    }

    /// Executes one round: `n` steps by uniformly random nodes.
    pub fn round(&mut self) {
        for _ in 0..self.live.len() {
            self.step();
        }
        self.rounds += 1;
    }

    /// Executes one round in which every live node initiates exactly once,
    /// in a fresh random order.
    pub fn round_permuted(&mut self) {
        let mut order = self.live.clone();
        order.shuffle(&mut self.rng);
        for entry in order {
            let id = entry.node_id();
            if self.dense_of(id).is_some() {
                self.step_impl(id, Some(entry.dense as usize));
            }
        }
        self.rounds += 1;
    }

    /// Completed rounds — the time base round-indexed fault models see in
    /// [`FaultCtx::round`]; mirrors
    /// [`Simulation::rounds_run`](crate::Simulation::rounds_run).
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }

    /// The fault model, for measurement-time inspection.
    #[must_use]
    pub fn fault(&self) -> &L {
        &self.loss
    }

    /// Applies `f` to the fault model; mirrors
    /// [`Simulation::update_fault`](crate::Simulation::update_fault).
    pub fn update_fault(&mut self, mut f: impl FnMut(&mut L)) {
        f(&mut self.loss);
    }

    /// Runs `rounds` central-entity rounds.
    pub fn run_rounds(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.round();
        }
    }

    /// Runs one measurement replicate: burn-in, stats reset, measurement;
    /// see [`Simulation::run_replicate`](crate::Simulation::run_replicate).
    #[must_use]
    pub fn run_replicate(mut self, burn_in: usize, measure: usize) -> Self {
        self.run_rounds(burn_in);
        self.reset_stats();
        self.run_rounds(measure);
        self
    }

    /// Adds a new node bootstrapped with ids copied from a random
    /// position in `sponsor`'s view — the sample size and the eligible
    /// (visible) slots are the behavior's choice; RNG-equivalent to
    /// [`Simulation::join_via`](crate::Simulation::join_via) under the
    /// default behavior.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError::TooFewIds`] if the sponsor's view holds fewer
    /// visible ids than the behavior's seed size.
    ///
    /// # Panics
    ///
    /// Panics if `sponsor` is not live.
    pub fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError> {
        let want = self.behavior.join_seed_size(self.config);
        let k = self.dense_of(sponsor).expect("sponsor must be live");
        let base = k * self.s;
        let mut pool: Vec<NodeId> = (0..self.s)
            .filter(|&off| {
                self.slot_ids[base + off] != EMPTY && B::slot_visible(self.slot_flags[base + off])
            })
            .map(|off| NodeId::new(u64::from(self.slot_ids[base + off])))
            .collect();
        if pool.len() < want {
            return Err(JoinError::TooFewIds { supplied: pool.len(), d_l: want });
        }
        pool.shuffle(&mut self.rng);
        let bootstrap: Vec<NodeId> = pool.into_iter().take(want).collect();
        self.join_with(&bootstrap)
    }

    /// Adds a new node bootstrapped with the given ids (tagged dependent,
    /// filled in slot order — exactly like [`SfNode::with_view`] under
    /// the default behavior; other behaviors validate through
    /// [`ProtocolBehavior::validate_bootstrap`]).
    ///
    /// # Errors
    ///
    /// Returns the behavior's [`JoinError`]s, or
    /// [`JoinError::IdSpaceExhausted`] when the id allocator has reached
    /// the arena's `u32` id limit.
    pub fn join_with(&mut self, bootstrap: &[NodeId]) -> Result<NodeId, JoinError> {
        self.behavior.validate_bootstrap(self.config, bootstrap.len())?;
        if self.next_id >= ARENA_ID_LIMIT {
            return Err(JoinError::IdSpaceExhausted { next: self.next_id, limit: ARENA_ID_LIMIT });
        }
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let k = self.dense_id.len();
        let dense = u32::try_from(k).expect("node count exceeds the dense index space");
        assert!(dense != DEAD, "dense index space exhausted");
        let base = self.slot_ids.len();
        self.slot_ids.resize(base + self.s, EMPTY);
        self.slot_flags.resize(base + self.s, 0);
        for (off, b) in bootstrap.iter().enumerate() {
            self.slot_ids[base + off] = slot_word(*b);
            self.slot_flags[base + off] = FLAG_DEPENDENT;
        }
        let deg = u32::try_from(bootstrap.len()).expect("bootstrap exceeds u32");
        self.degree.push(deg);
        self.degree_hist.add(deg);
        self.node_stats.push(NodeStats::new());
        self.dense_id.push(id);
        let raw = id.index();
        if raw >= self.index.len() {
            self.index.resize(raw + 1, DEAD);
        }
        self.index[raw] = dense;
        self.live.push(LiveRef { id: slot_word(id), dense });
        Ok(id)
    }

    /// Removes a node (leave/crash). Returns the departed node rebuilt
    /// from the arena — its view is exact, but (unlike the classic
    /// engine's return value) its per-node counters are zeroed; the
    /// engine-level [`stats`](Self::stats) are unaffected either way.
    pub fn leave(&mut self, id: NodeId) -> Option<SfNode> {
        let k = self.dense_of(id)?;
        let node = SfNode::from_view(id, self.config, self.view_at(k));
        self.index[id.index()] = DEAD;
        self.degree_hist.remove(self.degree[k]);
        let needle = slot_word(id);
        let pos = self.live.iter().position(|e| e.id == needle).expect("live list out of sync");
        self.live.swap_remove(pos);
        Some(node)
    }

    /// Total multiplicity of `id` across all live, visible slots. Ids at
    /// or above the arena's `u32` limit cannot be stored, so they count
    /// zero (the widening boundary never aliases them onto arena words).
    ///
    /// Windows are scanned two slots per u64 word; the per-slot
    /// visibility check only runs on the rare windows with a raw match.
    #[must_use]
    pub fn count_id_instances(&self, id: NodeId) -> usize {
        if id.as_u64() >= ARENA_ID_LIMIT {
            return 0;
        }
        let needle = slot_word(id);
        self.live
            .iter()
            .map(|&entry| {
                let base = (entry.dense as usize) * self.s;
                let window = &self.slot_ids[base..base + self.s];
                let raw = crate::scan::count_matches(window, needle);
                if raw == 0 {
                    return 0;
                }
                window
                    .iter()
                    .enumerate()
                    .filter(|&(off, &slot)| {
                        slot == needle && B::slot_visible(self.slot_flags[base + off])
                    })
                    .count()
            })
            .sum()
    }

    /// Streaming degree statistics — the live outdegree histogram,
    /// maintained incrementally at store/delete time (`O(s)` snapshot, no
    /// arena scan; equal to a from-scratch rebuild over the live degree
    /// ledgers at all times).
    #[must_use]
    pub fn degree_stats(&self) -> &DegreeStats {
        &self.degree_hist
    }

    /// Snapshots the membership graph (live order, like the classic
    /// engine's snapshot; tombstoned slots are invisible).
    #[must_use]
    pub fn graph(&self) -> MembershipGraph {
        MembershipGraph::from_views(self.live.iter().map(|&entry| {
            let base = (entry.dense as usize) * self.s;
            let targets: Vec<NodeId> = (0..self.s)
                .filter(|&off| {
                    self.slot_ids[base + off] != EMPTY
                        && B::slot_visible(self.slot_flags[base + off])
                })
                .map(|off| NodeId::new(u64::from(self.slot_ids[base + off])))
                .collect();
            (entry.node_id(), targets)
        }))
    }

    /// Measures spatial dependence across all live views (Property M4).
    /// Reconstitutes the nodes first, so this is a measurement-time
    /// convenience, not a hot path.
    #[must_use]
    pub fn dependence(&self) -> DependenceReport {
        let nodes = self.to_nodes();
        DependenceReport::measure(nodes.iter())
    }
}

impl<L: FaultModel, B: ProtocolBehavior> crate::traits::Engine for FlatSimulation<L, B> {
    type Msg = B::Msg;
    type Fault = L;

    fn len(&self) -> usize {
        Self::len(self)
    }

    fn live_ids(&self) -> Vec<NodeId> {
        Self::live_ids(self)
    }

    fn config(&self) -> SfConfig {
        Self::config(self)
    }

    fn stats(&self) -> SimStats {
        *Self::stats(self)
    }

    fn reset_stats(&mut self) {
        Self::reset_stats(self);
    }

    fn aggregate_node_stats(&self) -> NodeStats {
        Self::aggregate_node_stats(self)
    }

    fn round(&mut self) {
        Self::round(self);
    }

    fn rounds_run(&self) -> u64 {
        Self::rounds_run(self)
    }

    fn in_flight(&self) -> usize {
        Self::in_flight(self)
    }

    fn settle(&mut self) {
        Self::settle(self);
    }

    fn join_via(&mut self, sponsor: NodeId) -> Result<NodeId, JoinError> {
        Self::join_via(self, sponsor)
    }

    fn leave(&mut self, id: NodeId) -> bool {
        Self::leave(self, id).is_some()
    }

    fn out_degree_of(&self, id: NodeId) -> Option<usize> {
        Self::out_degree_of(self, id)
    }

    fn count_id_instances(&self, id: NodeId) -> usize {
        Self::count_id_instances(self, id)
    }

    fn degree_stats(&self) -> DegreeStats {
        Self::degree_stats(self).clone()
    }

    fn graph(&self) -> MembershipGraph {
        Self::graph(self)
    }

    fn dependence(&self) -> DependenceReport {
        Self::dependence(self)
    }

    fn for_each_live_view(&self, visit: &mut dyn FnMut(NodeId, &[NodeId])) {
        let mut buf: Vec<NodeId> = Vec::with_capacity(self.s);
        for &entry in &self.live {
            let base = (entry.dense as usize) * self.s;
            buf.clear();
            for off in 0..self.s {
                let id = self.slot_ids[base + off];
                if id != EMPTY && B::slot_visible(self.slot_flags[base + off]) {
                    buf.push(NodeId::new(u64::from(id)));
                }
            }
            visit(entry.node_id(), &buf);
        }
    }

    fn update_fault(&mut self, f: impl FnMut(&mut L)) {
        Self::update_fault(self, f);
    }

    fn subscribe(&mut self, subscriber: Box<dyn StepSubscriber<B::Msg>>) {
        Self::subscribe(self, subscriber);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::Simulation;
    use crate::loss::{GilbertElliott, UniformLoss};
    use crate::topology;

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes() -> Vec<SfNode> {
        topology::circulant(24, config(), 4)
    }

    /// Asserts full observable equality of the two engines: stats, live
    /// set, per-node views (slots, ids, dependence tags), aggregates.
    fn assert_engines_equal<L: FaultModel + fmt::Debug>(
        classic: &Simulation<L>,
        flat: &FlatSimulation<L>,
    ) {
        assert_eq!(classic.stats(), flat.stats(), "SimStats diverged");
        assert_eq!(classic.len(), flat.len(), "live count diverged");
        assert_eq!(classic.in_flight(), flat.in_flight(), "in-flight count diverged");
        assert_eq!(
            classic.aggregate_node_stats(),
            flat.aggregate_node_stats(),
            "aggregate NodeStats diverged"
        );
        let mut classic_live: Vec<NodeId> = classic.live_ids().to_vec();
        let mut flat_live: Vec<NodeId> = flat.live_ids().to_vec();
        assert_eq!(classic_live, flat_live, "live order diverged");
        classic_live.sort_unstable();
        flat_live.sort_unstable();
        for &id in &classic_live {
            assert_eq!(classic.node_view(id), flat.node_view(id), "view of {id} diverged");
            assert_eq!(classic.node_stats(id), flat.node_stats(id), "stats of {id} diverged");
        }
    }

    #[test]
    fn flat_equals_classic_over_uniform_loss() {
        for seed in [1u64, 33, 2009] {
            let mut classic = Simulation::new(nodes(), UniformLoss::new(0.1).unwrap(), seed);
            let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), seed);
            for _ in 0..40 {
                classic.round();
                flat.round();
                assert_engines_equal(&classic, &flat);
            }
        }
    }

    #[test]
    fn flat_equals_classic_over_bursty_loss() {
        let loss = || GilbertElliott::new(0.05, 0.2, 0.01, 0.5).unwrap();
        for seed in [7u64, 21] {
            let mut classic = Simulation::new(nodes(), loss(), seed);
            let mut flat = FlatSimulation::new(nodes(), loss(), seed);
            classic.run_rounds(60);
            flat.run_rounds(60);
            assert_engines_equal(&classic, &flat);
        }
    }

    #[test]
    fn flat_equals_classic_under_delay_and_settle() {
        let delay = DelayModel::UniformSteps { max: 40 };
        for seed in [3u64, 17] {
            let mut classic =
                Simulation::with_delay(nodes(), UniformLoss::new(0.05).unwrap(), delay, seed);
            let mut flat =
                FlatSimulation::with_delay(nodes(), UniformLoss::new(0.05).unwrap(), delay, seed);
            for _ in 0..1_500 {
                assert_eq!(classic.step(), flat.step(), "step reports diverged");
            }
            assert!(flat.in_flight() > 0, "no message was ever in flight");
            assert_engines_equal(&classic, &flat);
            classic.settle();
            flat.settle();
            assert_eq!(flat.in_flight(), 0);
            assert_engines_equal(&classic, &flat);
        }
    }

    #[test]
    fn flat_equals_classic_under_churn() {
        let mut classic = Simulation::new(nodes(), UniformLoss::new(0.02).unwrap(), 11);
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.02).unwrap(), 11);
        classic.run_rounds(10);
        flat.run_rounds(10);
        for round in 0..30 {
            let victim = classic.live_ids()[round % classic.len()];
            assert!(classic.leave(victim).is_some());
            assert!(flat.leave(victim).is_some());
            let sponsor = classic.live_ids()[0];
            let a = classic.join_via(sponsor).unwrap();
            let b = flat.join_via(sponsor).unwrap();
            assert_eq!(a, b, "joiner ids diverged");
            classic.round();
            flat.round();
            assert_engines_equal(&classic, &flat);
        }
        assert!(classic.stats().dead_letters > 0, "churn should produce dead letters");
    }

    #[test]
    fn flat_equals_classic_in_permuted_rounds() {
        let mut classic = Simulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 13);
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.05).unwrap(), 13);
        for _ in 0..20 {
            classic.round_permuted();
            flat.round_permuted();
        }
        assert_engines_equal(&classic, &flat);
        assert_eq!(flat.aggregate_node_stats().initiated, 20 * 24);
    }

    #[test]
    fn flat_report_stream_matches_classic() {
        let mut classic = Simulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 5);
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 5);
        for _ in 0..600 {
            assert_eq!(classic.step(), flat.step());
        }
    }

    #[test]
    fn flat_subscriber_sees_identical_reports() {
        use std::sync::{Arc, Mutex};
        let collect = |steps: usize| {
            let log: Arc<Mutex<Vec<StepReport>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            let mut sim = FlatSimulation::with_delay(
                nodes(),
                UniformLoss::new(0.05).unwrap(),
                DelayModel::UniformSteps { max: 20 },
                23,
            );
            sim.subscribe(Box::new(move |r: &StepReport| sink.lock().unwrap().push(*r)));
            for _ in 0..steps {
                sim.step();
            }
            sim.settle();
            drop(sim);
            Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap()
        };
        let classic_log = {
            let log: Arc<Mutex<Vec<StepReport>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&log);
            let mut sim = Simulation::with_delay(
                nodes(),
                UniformLoss::new(0.05).unwrap(),
                DelayModel::UniformSteps { max: 20 },
                23,
            );
            sim.subscribe(Box::new(move |r: &StepReport| sink.lock().unwrap().push(*r)));
            for _ in 0..400 {
                sim.step();
            }
            sim.settle();
            drop(sim);
            Arc::try_unwrap(log).map_err(|_| ()).unwrap().into_inner().unwrap()
        };
        assert_eq!(collect(400), classic_log, "observed report streams diverged");
    }

    #[test]
    fn delayed_messages_conserve_the_ledger() {
        let mut sim = FlatSimulation::with_delay(
            nodes(),
            UniformLoss::new(0.05).unwrap(),
            DelayModel::UniformSteps { max: 40 },
            3,
        );
        for _ in 0..2_000 {
            sim.step();
        }
        let s = sim.stats();
        assert_eq!(
            s.sent,
            s.lost + s.dead_letters + s.stored + s.deleted + sim.in_flight() as u64,
            "message ledger out of balance"
        );
        sim.settle();
        assert_eq!(sim.in_flight(), 0);
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
    }

    #[test]
    fn flat_simulation_is_send_and_replicates() {
        fn assert_send<T: Send>(_: &T) {}
        let sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        assert_send(&sim);
        let sim = sim.run_replicate(5, 5);
        assert_eq!(sim.stats().actions, 5 * 24);
    }

    #[test]
    fn clones_do_not_carry_subscribers() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        sim.subscribe(Box::new(|_: &StepReport| {}));
        assert_eq!(sim.subscriber_count(), 1);
        assert_eq!(sim.clone().subscriber_count(), 0);
    }

    #[test]
    fn attached_profiler_records_spans() {
        let registry = MetricsRegistry::new();
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 31);
        sim.attach_profiler(&registry);
        sim.run_rounds(2);
        let hist = registry.histogram("sim.profile.step_ns", duration_buckets());
        assert_eq!(hist.count(), sim.stats().actions);
    }

    #[test]
    fn to_nodes_roundtrips_through_the_classic_engine() {
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::new(0.1).unwrap(), 77);
        flat.run_rounds(25);
        // A classic engine rebuilt from the arena continues in lockstep
        // with a flat engine given the same continuation seed.
        let mut classic = Simulation::new(flat.to_nodes(), UniformLoss::new(0.1).unwrap(), 99);
        let mut flat2 = FlatSimulation::new(flat.to_nodes(), UniformLoss::new(0.1).unwrap(), 99);
        for _ in 0..200 {
            assert_eq!(classic.step(), flat2.step());
        }
        assert_engines_equal(&classic, &flat2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_node_set() {
        let _ = FlatSimulation::new(Vec::new(), UniformLoss::none(), 0);
    }

    #[test]
    #[should_panic(expected = "delay bound")]
    fn zero_delay_bound_is_rejected() {
        let _ = FlatSimulation::with_delay(
            nodes(),
            UniformLoss::none(),
            DelayModel::UniformSteps { max: 0 },
            0,
        );
    }

    #[test]
    fn flat_equals_classic_under_scheduled_faults() {
        use crate::fault::{
            NodeCapacity, PerLinkLoss, PhaseFault, RegionalPartition, ScheduledFault, VictimLoss,
        };
        let schedule = || {
            let mut victims = VictimLoss::new(0.9, 0.01).unwrap();
            victims.set_victims(&[NodeId::new(1), NodeId::new(2)]);
            ScheduledFault::new(vec![
                (8, PhaseFault::Uniform(UniformLoss::new(0.05).unwrap())),
                (16, PhaseFault::Partition(RegionalPartition::new(2, 8, 8, 1.0, 0.05).unwrap())),
                (24, PhaseFault::Capacity(NodeCapacity::new(5, 0.4, 3, 0.02).unwrap())),
                (32, PhaseFault::PerLink(PerLinkLoss::new(9, 0.3, 0.0, 1.0).unwrap())),
                (u64::MAX, PhaseFault::Victims(victims)),
            ])
        };
        for seed in [3u64, 2009] {
            let mut classic = Simulation::new(nodes(), schedule(), seed);
            let mut flat = FlatSimulation::new(nodes(), schedule(), seed);
            for _ in 0..40 {
                classic.round();
                flat.round();
                assert_engines_equal(&classic, &flat);
            }
            let s = *flat.stats();
            assert!(s.skipped > 0, "capacity phase never skipped a step");
            assert!(s.lost > 0, "schedule never lost a message");
            assert_eq!(classic.rounds_run(), flat.rounds_run());
        }
    }

    #[test]
    fn join_with_validates_like_the_protocol() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        // Same checks, same order, same payloads as `SfNode::with_view`.
        let two: Vec<NodeId> = (0..2).map(NodeId::new).collect();
        assert_eq!(sim.join_with(&two), Err(JoinError::TooFewIds { supplied: 2, d_l: 4 }));
        let five: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        assert_eq!(sim.join_with(&five), Err(JoinError::OddIdCount { supplied: 5 }));
        let too_many: Vec<NodeId> = (0..14).map(NodeId::new).collect();
        assert_eq!(sim.join_with(&too_many), Err(JoinError::TooManyIds { supplied: 14, s: 12 }));
        assert!(sim.join_with(&(0..4).map(NodeId::new).collect::<Vec<_>>()).is_ok());
    }

    #[test]
    fn from_views_builds_a_runnable_zoo_arena() {
        let n = 12u64;
        let views: Vec<(NodeId, Vec<NodeId>)> = (0..n)
            .map(|i| (NodeId::new(i), vec![NodeId::new((i + 1) % n), NodeId::new((i + 2) % n)]))
            .collect();
        // S&F itself through the generic constructor: d_l = 4 > initial
        // degree 2, so every node starts in the duplication regime.
        let mut sim =
            FlatSimulation::from_views(SfBehavior, config(), views, UniformLoss::none(), 9);
        assert_eq!(sim.len(), 12);
        assert_eq!(sim.out_degree_of(NodeId::new(0)), Some(2));
        sim.run_rounds(20);
        let s = sim.stats();
        assert_eq!(s.sent, s.lost + s.dead_letters + s.stored + s.deleted);
        assert_eq!(s.replies, 0, "S&F never replies");
        assert!(sim.graph().is_weakly_connected());
    }

    #[test]
    fn join_is_rejected_once_the_u32_id_space_is_exhausted() {
        let mut sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        // Reaching the limit organically needs ~4.3 billion joins (and a
        // 17 GB id → dense table); the guard only reads the counter, so
        // pin it at the boundary directly.
        sim.next_id = ARENA_ID_LIMIT;
        let bootstrap: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        assert_eq!(
            sim.join_with(&bootstrap),
            Err(JoinError::IdSpaceExhausted { next: ARENA_ID_LIMIT, limit: ARENA_ID_LIMIT })
        );
        assert_eq!(sim.len(), 24, "a rejected join must not touch the arena");
        assert_eq!(sim.degree_stats().live_nodes(), 24);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 arena id space")]
    fn construction_rejects_ids_at_the_slot_sentinel() {
        // `u32::MAX` is the empty-slot sentinel; a node with that id
        // would be indistinguishable from an empty slot.
        let node = SfNode::new(NodeId::new(u64::from(u32::MAX)), config());
        let _ = FlatSimulation::new(vec![node], UniformLoss::none(), 1);
    }

    #[test]
    fn queries_beyond_the_widening_boundary_never_alias() {
        let sim = FlatSimulation::new(nodes(), UniformLoss::none(), 1);
        // Congruent to a live id modulo 2^32 — a truncating comparison
        // would alias it onto node 3.
        let wide = NodeId::new((1u64 << 32) + 3);
        assert_eq!(sim.count_id_instances(wide), 0);
        assert_eq!(sim.out_degree_of(wide), None);
        assert!(sim.count_id_instances(NodeId::new(3)) > 0, "node 3 is referenced in the ring");
        assert_eq!(sim.out_degree_of(NodeId::new(3)), Some(4));
    }
}
