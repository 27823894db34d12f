//! The Section 5 variants as [`ProtocolBehavior`]s, executable on every
//! engine ([`Simulation`](sandf_sim::Simulation),
//! [`FlatSimulation`](sandf_sim::FlatSimulation),
//! [`ParSimulation`](sandf_sim::ParSimulation)).
//!
//! Each variant keeps vanilla S&F's slot draws and changes one rule of the
//! view algebra over a [`SlotView`] window, using the arena's
//! [`EMPTY_SLOT`] sentinel and [`FLAG_TOMBSTONE`] bit for slot state. The
//! vanilla variant needs no re-expression — it *is* [`SfBehavior`].
//!
//! Wire format: [`IdBatch`] with per-payload dependence bits; the
//! sender's own dependence rides in the `kind` field
//! ([`KIND_DEPENDENT_SEND`]), which also lets the engines count
//! compensated sends as duplications via
//! [`ProtocolBehavior::duplicated`].

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::Rng;
use sandf_core::{NodeId, SfConfig};
use sandf_sim::{
    slot_word, IdBatch, ProtocolBehavior, Receipt, SfBehavior, SlotView, EMPTY_SLOT,
    FLAG_DEPENDENT, FLAG_TOMBSTONE,
};

/// [`IdBatch::kind`] for a send whose transmitted instances were cleansed
/// (no compensation happened).
pub const KIND_CLEAN_SEND: u8 = 0;
/// [`IdBatch::kind`] for a compensated send: the sender id (and every
/// payload, via the dep bits) is labeled dependent — Figure 7.1's tag
/// algebra, surfaced to the engine as [`ProtocolBehavior::duplicated`].
pub const KIND_DEPENDENT_SEND: u8 = 1;

fn kind_of(compensated: bool) -> u8 {
    if compensated {
        KIND_DEPENDENT_SEND
    } else {
        KIND_CLEAN_SEND
    }
}

fn dep_flag(dependent: bool) -> u8 {
    if dependent {
        FLAG_DEPENDENT
    } else {
        0
    }
}

/// Draws the vanilla S&F slot pair: `i` uniform over `0..s`, `j` uniform
/// over the remaining `s − 1` slots.
fn draw_pair(s: usize, rng: &mut StdRng) -> (usize, usize) {
    let i = rng.gen_range(0..s);
    let mut j = rng.gen_range(0..s - 1);
    if j >= i {
        j += 1;
    }
    (i, j)
}

/// The S&F bootstrap rule (`d_L ≤ n ≤ s`, even) shared by every variant.
fn validate_sf_bootstrap(config: SfConfig, supplied: usize) -> Result<(), sandf_core::JoinError> {
    SfBehavior.validate_bootstrap(config, supplied)
}

/// Variant 2 (replace-when-full) over the arena: vanilla S&F sends, but a
/// full receiver *overwrites* a uniformly random victim instead of
/// deleting the arrivals — no message is ever wasted, at the price of
/// displacing healthy entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaceBehavior;

impl ReplaceBehavior {
    /// Stores one entry: a random empty slot when one exists, else a
    /// uniformly random victim over *all* slots is overwritten. Returns
    /// whether the store was fresh (no displacement).
    fn put(view: &mut SlotView<'_>, id: NodeId, dependent: bool, rng: &mut StdRng) -> bool {
        if (*view.degree as usize) < view.len() {
            view.insert_into_random_empty(id, dep_flag(dependent), rng);
            true
        } else {
            let victim = rng.gen_range(0..view.len());
            view.set(victim, id, dep_flag(dependent));
            false
        }
    }
}

impl ProtocolBehavior for ReplaceBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    fn initiate(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        let SlotView { id, ids, flags, degree, stats } = view;
        stats.initiated += 1;
        let (i, j) = draw_pair(ids.len(), rng);
        if ids[i] == EMPTY_SLOT || ids[j] == EMPTY_SLOT {
            stats.self_loops += 1;
            return None;
        }
        let target = NodeId::new(u64::from(ids[i]));
        let payload = NodeId::new(u64::from(ids[j]));
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
        let mut msg = IdBatch::new(id, kind_of(duplicated));
        msg.push(payload, duplicated);
        Some((target, msg))
    }

    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        let mut all_fresh = Self::put(&mut view, msg.sender, msg.kind == KIND_DEPENDENT_SEND, rng);
        for (id, dependent) in msg.entries() {
            all_fresh &= Self::put(&mut view, id, dependent, rng);
        }
        if all_fresh {
            view.stats.stored += 1;
            Receipt::stored()
        } else {
            // Displacement: something was overwritten. Counted as a
            // deletion (an instance died).
            view.stats.deletions += 1;
            Receipt::deleted()
        }
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        validate_sf_bootstrap(config, supplied)
    }
}

/// Variant 1 (undeletion) over the arena: sent entries become
/// [`FLAG_TOMBSTONE`]d slots instead of clearing; at `d_L` the protocol
/// undeletes two uniformly random tombstones (excluding, with fallback
/// to, the just-sent pair) instead of duplicating; receives prefer empty
/// slots, reclaim tombstones, and only then delete.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UndeleteBehavior;

impl UndeleteBehavior {
    fn is_tombstone(ids: &[u32], flags: &[u8], off: usize) -> bool {
        ids[off] != EMPTY_SLOT && flags[off] & FLAG_TOMBSTONE != 0
    }

    /// Restores one tombstone chosen uniformly at random, excluding the
    /// just-sent pair (falling back to it when the reservoir is otherwise
    /// empty — plain duplication).
    fn undelete_one(view: &mut SlotView<'_>, exclude: (usize, usize), rng: &mut StdRng) -> bool {
        let candidates: Vec<usize> = (0..view.ids.len())
            .filter(|&k| {
                Self::is_tombstone(view.ids, view.flags, k) && k != exclude.0 && k != exclude.1
            })
            .collect();
        let pick = if candidates.is_empty() {
            let fallback: Vec<usize> = [exclude.0, exclude.1]
                .into_iter()
                .filter(|&k| Self::is_tombstone(view.ids, view.flags, k))
                .collect();
            if fallback.is_empty() {
                return false;
            }
            fallback[rng.gen_range(0..fallback.len())]
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        // An undeleted instance is a stale copy of an id that was sent
        // away: label it dependent (Section 2 accounting).
        view.flags[pick] = FLAG_DEPENDENT;
        *view.degree += 1;
        true
    }

    /// Stores one entry: a random empty slot first, a reclaimed tombstone
    /// second, deletion (false) when fully live.
    fn store(view: &mut SlotView<'_>, id: NodeId, dependent: bool, rng: &mut StdRng) -> bool {
        let empties: Vec<usize> =
            (0..view.ids.len()).filter(|&k| view.ids[k] == EMPTY_SLOT).collect();
        let target = if empties.is_empty() {
            let tombs: Vec<usize> = (0..view.ids.len())
                .filter(|&k| Self::is_tombstone(view.ids, view.flags, k))
                .collect();
            if tombs.is_empty() {
                return false; // fully live: delete, as vanilla S&F would
            }
            tombs[rng.gen_range(0..tombs.len())]
        } else {
            empties[rng.gen_range(0..empties.len())]
        };
        view.ids[target] = slot_word(id);
        view.flags[target] = dep_flag(dependent);
        *view.degree += 1;
        true
    }
}

impl ProtocolBehavior for UndeleteBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    fn initiate(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        let SlotView { id, ids, flags, degree, stats } = view;
        stats.initiated += 1;
        let (i, j) = draw_pair(ids.len(), rng);
        let live = |k: usize| ids[k] != EMPTY_SLOT && flags[k] & FLAG_TOMBSTONE == 0;
        if !live(i) || !live(j) {
            stats.self_loops += 1;
            return None;
        }
        let target = NodeId::new(u64::from(ids[i]));
        let payload = NodeId::new(u64::from(ids[j]));
        let compensate = (*degree as usize) <= config.lower_threshold();
        // Tombstone instead of clearing: the entries stay as a reservoir.
        flags[i] |= FLAG_TOMBSTONE;
        flags[j] |= FLAG_TOMBSTONE;
        *degree -= 2;
        if compensate {
            stats.duplications += 1;
            let mut view = SlotView { id, ids, flags, degree, stats };
            let first = Self::undelete_one(&mut view, (i, j), rng);
            let second = Self::undelete_one(&mut view, (i, j), rng);
            debug_assert!(first && second, "the just-sent entries guarantee fallbacks");
        }
        stats.sent += 1;
        let mut msg = IdBatch::new(id, kind_of(compensate));
        msg.push(payload, compensate);
        Some((target, msg))
    }

    fn receive(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        let mut any_stored =
            Self::store(&mut view, msg.sender, msg.kind == KIND_DEPENDENT_SEND, rng);
        for (id, dependent) in msg.entries() {
            any_stored |= Self::store(&mut view, id, dependent, rng);
        }
        if any_stored {
            view.stats.stored += 1;
            Receipt::stored()
        } else {
            view.stats.deletions += 1;
            Receipt::deleted()
        }
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        validate_sf_bootstrap(config, supplied)
    }
}

/// Variant 3 (batched sends) over the arena: each action samples `b + 1`
/// distinct slots (one target, `b` payloads), clears them all on a clean
/// send, and compensates (keeps them, labeled dependent) when clearing
/// would cross `d_L`. A receiver needs `1 + b` free slots or deletes the
/// whole batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchedBehavior {
    /// Ids cleared per send alongside the target (odd, `< s − d_L`, and
    /// ≤ [`IdBatch::CAPACITY`]).
    pub batch: usize,
}

impl BatchedBehavior {
    /// Creates the behavior with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is even or exceeds [`IdBatch::CAPACITY`]. The
    /// band constraint (`batch < s − d_L`) is checked per-view at
    /// initiate time via `debug_assert`.
    #[must_use]
    pub fn new(batch: usize) -> Self {
        assert!(batch % 2 == 1, "batch size must be odd to preserve parity");
        assert!(batch <= IdBatch::CAPACITY, "batch exceeds IdBatch capacity {}", IdBatch::CAPACITY);
        Self { batch }
    }
}

impl ProtocolBehavior for BatchedBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    fn initiate(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut StdRng,
    ) -> Option<(NodeId, IdBatch)> {
        let SlotView { id, ids, flags, degree, stats } = view;
        debug_assert!(
            self.batch < config.view_size() - config.lower_threshold(),
            "batch too large for the degree band"
        );
        stats.initiated += 1;
        let picks = sample(rng, ids.len(), self.batch + 1).into_vec();
        if picks.iter().any(|&k| ids[k] == EMPTY_SLOT) {
            stats.self_loops += 1;
            return None;
        }
        let target = NodeId::new(u64::from(ids[picks[0]]));
        // Clearing 1 + b entries must not cross d_L.
        let duplicated = (*degree as usize) < config.lower_threshold() + self.batch + 1;
        if duplicated {
            stats.duplications += 1;
        }
        // Read the payload ids before any clearing.
        let mut msg = IdBatch::new(id, kind_of(duplicated));
        for &k in &picks[1..] {
            msg.push(NodeId::new(u64::from(ids[k])), duplicated);
        }
        if !duplicated {
            for &k in &picks {
                ids[k] = EMPTY_SLOT;
                flags[k] = 0;
            }
            *degree -= (self.batch + 1) as u32;
        }
        stats.sent += 1;
        Some((target, msg))
    }

    fn receive(
        &self,
        _config: SfConfig,
        view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut StdRng,
    ) -> Receipt<IdBatch> {
        let SlotView { id: _, ids, flags, degree, stats } = view;
        let arriving = 1 + msg.len as usize;
        if ids.len() - (*degree as usize) < arriving {
            stats.deletions += 1;
            return Receipt::deleted();
        }
        let empties: Vec<usize> = (0..ids.len()).filter(|&k| ids[k] == EMPTY_SLOT).collect();
        let chosen = sample(rng, empties.len(), arriving).into_vec();
        let mut entries = Vec::with_capacity(arriving);
        entries.push((msg.sender, msg.kind == KIND_DEPENDENT_SEND));
        entries.extend(msg.entries());
        for (&slot_pick, (id, dependent)) in chosen.iter().zip(entries) {
            ids[empties[slot_pick]] = slot_word(id);
            flags[empties[slot_pick]] = dep_flag(dependent);
        }
        *degree += arriving as u32;
        stats.stored += 1;
        Receipt::stored()
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        validate_sf_bootstrap(config, supplied)
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

    /// A window for node 0 holding `ids` (untagged) in slot order.
    fn window(s: usize, ids: impl IntoIterator<Item = u64>) -> SlotWindow {
        let ids: Vec<NodeId> = ids.into_iter().map(id).collect();
        SlotWindow::new(s, &ids, 0)
    }

    fn msg(sender: u64, payloads: &[u64], dependent: bool) -> IdBatch {
        let mut msg = IdBatch::new(id(sender), kind_of(dependent));
        for &raw in payloads {
            msg.push(id(raw), dependent);
        }
        msg
    }

    fn tombstones(w: &SlotWindow) -> usize {
        (0..w.ids.len()).filter(|&k| UndeleteBehavior::is_tombstone(&w.ids, &w.flags, k)).count()
    }

    fn live_dependent(w: &SlotWindow) -> usize {
        (0..w.ids.len()).filter(|&k| w.ids[k] != EMPTY_SLOT && w.flags[k] == FLAG_DEPENDENT).count()
    }

    /// Retries past self-loops (empty-slot picks) until a send happens.
    fn send<B: ProtocolBehavior<Msg = IdBatch>>(
        behavior: &B,
        config: SfConfig,
        w: &mut SlotWindow,
        rng: &mut StdRng,
    ) -> IdBatch {
        loop {
            if let Some((_, out)) = behavior.initiate(config, w.view(id(0)), rng) {
                return out;
            }
        }
    }

    /// Alternates receives (every `every`-th step) and initiates on one
    /// window, asserting the Observation 5.1 band and parity throughout.
    fn band_holds<B: ProtocolBehavior<Msg = IdBatch>>(
        behavior: &B,
        config: SfConfig,
        mut w: SlotWindow,
        every: u64,
        payloads: usize,
    ) {
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..2_000u64 {
            if k % every == 0 {
                let ids: Vec<u64> = (0..payloads as u64).map(|p| 200 + 100 * p + k).collect();
                behavior.receive(config, w.view(id(0)), msg(100 + k, &ids, false), &mut rng);
            } else {
                behavior.initiate(config, w.view(id(0)), &mut rng);
            }
            let d = w.degree as usize;
            assert!(d >= config.lower_threshold() && d <= config.view_size(), "step {k}: {d}");
            assert_eq!(d % 2, 0, "odd live degree at step {k}");
        }
    }

    #[test]
    fn undelete_send_tombstones_instead_of_clearing() {
        let config = SfConfig::new(10, 2).unwrap();
        let mut w = window(10, 1..=4);
        let mut rng = StdRng::seed_from_u64(1);
        let out = send(&UndeleteBehavior, config, &mut w, &mut rng);
        assert_eq!(w.degree, 2);
        assert_eq!(tombstones(&w), 2, "sent entries are retained as tombstones");
        assert_eq!(out.kind, KIND_CLEAN_SEND, "no compensation above d_L");
    }

    #[test]
    fn undelete_compensates_from_the_reservoir() {
        let config = SfConfig::new(10, 2).unwrap();
        let mut w = window(10, 1..=4);
        let mut rng = StdRng::seed_from_u64(2);
        // The first send drops to d = 2 = d_L and leaves 2 tombstones; the
        // second must compensate, so the live degree stays at 2.
        send(&UndeleteBehavior, config, &mut w, &mut rng);
        let out = send(&UndeleteBehavior, config, &mut w, &mut rng);
        assert_eq!(w.degree, 2, "undeletion restored the live degree");
        assert_eq!(out.kind, KIND_DEPENDENT_SEND);
        assert!(UndeleteBehavior::duplicated(&out));
        assert_eq!(w.stats.duplications, 1);
    }

    #[test]
    fn undeleted_entries_are_tagged_dependent() {
        let config = SfConfig::new(10, 2).unwrap();
        let mut w = window(10, 1..=4);
        let mut rng = StdRng::seed_from_u64(5);
        send(&UndeleteBehavior, config, &mut w, &mut rng);
        assert_eq!(live_dependent(&w), 0, "the bootstrap entries are untagged");
        send(&UndeleteBehavior, config, &mut w, &mut rng);
        // Both live entries are restored stale copies of sent ids.
        assert_eq!(live_dependent(&w), 2);
    }

    #[test]
    fn undelete_receive_reclaims_tombstones_before_deleting() {
        let config = SfConfig::new(6, 0).unwrap();
        let mut w = window(6, 1..=6);
        let mut rng = StdRng::seed_from_u64(4);
        // All six slots live: the first pick always sends → 4 live, 2
        // tombstones.
        UndeleteBehavior.initiate(config, w.view(id(0)), &mut rng).unwrap();
        assert_eq!(tombstones(&w), 2);
        let receipt =
            UndeleteBehavior.receive(config, w.view(id(0)), msg(50, &[51], false), &mut rng);
        assert!(!receipt.deleted);
        assert_eq!(w.degree, 6);
        assert_eq!(tombstones(&w), 0, "the arrivals reclaimed both tombstones");
        // Now fully live: a further receive is deleted.
        let receipt =
            UndeleteBehavior.receive(config, w.view(id(0)), msg(60, &[61], false), &mut rng);
        assert!(receipt.deleted);
        assert_eq!(w.degree, 6);
        assert_eq!(w.stats.deletions, 1);
    }

    #[test]
    fn undelete_live_degree_respects_the_band() {
        let config = SfConfig::new(10, 2).unwrap();
        band_holds(&UndeleteBehavior, config, window(10, 1..=6), 3, 1);
    }

    #[test]
    fn replace_full_view_replaces_instead_of_deleting() {
        let config = SfConfig::new(6, 0).unwrap();
        let mut w = window(6, 1..=6);
        let mut rng = StdRng::seed_from_u64(1);
        let receipt =
            ReplaceBehavior.receive(config, w.view(id(0)), msg(50, &[51], false), &mut rng);
        assert!(receipt.deleted, "a displacement counts as a deletion");
        assert_eq!(w.degree, 6, "view stays full");
        // The second arrival can legally evict the first (victims are
        // uniform over all slots), but the last one stored always survives
        // and at least one original entry must have been overwritten.
        assert!(w.ids.contains(&51), "last arrival was stored");
        assert!((1..=6).any(|raw| !w.ids.contains(&raw)), "an original entry was replaced");
        assert_eq!(w.stats.deletions, 1);
    }

    #[test]
    fn replace_initiate_matches_vanilla_semantics() {
        let config = SfConfig::new(8, 2).unwrap();
        let mut w = window(8, 1..=4);
        let mut rng = StdRng::seed_from_u64(2);
        let out = send(&ReplaceBehavior, config, &mut w, &mut rng);
        assert_eq!(w.degree, 2);
        assert_eq!(out.kind, KIND_CLEAN_SEND);
        // At d_L the next send duplicates.
        let out = send(&ReplaceBehavior, config, &mut w, &mut rng);
        assert_eq!(out.kind, KIND_DEPENDENT_SEND);
        assert_eq!(w.degree, 2);
    }

    #[test]
    fn replace_band_invariant_holds() {
        let config = SfConfig::new(8, 2).unwrap();
        band_holds(&ReplaceBehavior, config, window(8, 1..=4), 2, 1);
    }

    #[test]
    fn batched_sends_batch_payloads() {
        let config = SfConfig::new(16, 2).unwrap();
        let mut w = window(16, 1..=10);
        let mut rng = StdRng::seed_from_u64(1);
        let out = send(&BatchedBehavior::new(3), config, &mut w, &mut rng);
        assert_eq!(out.len, 3);
        assert_eq!(w.degree, 6, "cleared 4 entries");
    }

    #[test]
    fn batched_duplicates_near_the_threshold() {
        let config = SfConfig::new(16, 2).unwrap();
        let mut w = window(16, 1..=4);
        let mut rng = StdRng::seed_from_u64(2);
        // degree 4 < d_L + b + 1 = 6: must duplicate.
        let out = send(&BatchedBehavior::new(3), config, &mut w, &mut rng);
        assert_eq!(out.kind, KIND_DEPENDENT_SEND);
        assert_eq!(w.degree, 4);
    }

    #[test]
    fn batched_receive_is_all_or_nothing() {
        let config = SfConfig::new(8, 0).unwrap();
        let mut w = window(8, 1..=6);
        let mut rng = StdRng::seed_from_u64(3);
        // 2 empty slots < 4 arriving ids: delete all.
        let receipt = BatchedBehavior::new(3).receive(
            config,
            w.view(id(0)),
            msg(50, &[51, 52, 53], false),
            &mut rng,
        );
        assert!(receipt.deleted);
        assert_eq!(w.degree, 6);
        assert_eq!(w.stats.deletions, 1);
        // One payload fits: stored whole.
        let receipt =
            BatchedBehavior::new(3).receive(config, w.view(id(0)), msg(60, &[61], false), &mut rng);
        assert!(!receipt.deleted);
        assert_eq!(w.degree, 8);
    }

    #[test]
    fn batched_band_and_parity_invariants() {
        let config = SfConfig::new(16, 2).unwrap();
        band_holds(&BatchedBehavior::new(3), config, window(16, 1..=10), 3, 3);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn batched_rejects_an_even_batch() {
        let _ = BatchedBehavior::new(2);
    }

    fn ring(n: u64, k: u64) -> Vec<(NodeId, Vec<NodeId>)> {
        (0..n).map(|i| (id(i), (1..=k).map(|d| id((i + d) % n)).collect())).collect()
    }

    /// Each variant keeps a 64-node population connected and inside its
    /// band under 5 % loss (run on the classic reference engine).
    fn survives_loss<B: ProtocolBehavior>(behavior: B, config: SfConfig, k: u64, seed: u64) {
        let loss = UniformLoss::new(0.05).unwrap();
        let mut sim = Simulation::from_views(behavior, config, ring(64, k), loss, seed);
        sim.run_rounds(200);
        let graph = sim.graph();
        assert!(graph.is_weakly_connected(), "population partitioned");
        let mean_out = graph.edge_count() as f64 / 64.0;
        assert!(mean_out >= config.lower_threshold() as f64, "mean outdegree {mean_out}");
        assert!(sim.stats().duplications > 0, "5 % loss never triggered compensation");
    }

    #[test]
    fn every_variant_survives_loss() {
        let config = SfConfig::new(16, 6).unwrap();
        survives_loss(SfBehavior, config, 10, 1);
        survives_loss(UndeleteBehavior, config, 10, 2);
        survives_loss(ReplaceBehavior, config, 10, 3);
        survives_loss(BatchedBehavior::new(3), SfConfig::new(24, 6).unwrap(), 12, 4);
    }
}
