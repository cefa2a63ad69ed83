//! The eventually consistent, non-blocking migration protocol
//! (Alg. 3, §4.3.1).
//!
//! Blocking state relocation stalls the stream for as long as the transfer
//! takes — unacceptable for operators holding full history. Instead, the
//! operator divides execution into **epochs**: every mapping change
//! increments the epoch, reshufflers tag tuples with the epoch they route
//! under, and joiners reason about four tuple sets:
//!
//! * `τ` — state received before the migration decision,
//! * `Δ` — tuples tagged with the *old* epoch arriving during migration
//!   (routed under the old mapping by reshufflers that had not yet heard),
//! * `Δ′` — tuples tagged with the *new* epoch (already routed correctly),
//! * `µ` — state copies received from the exchange partner.
//!
//! Lemma 4.6 decomposes the correct output into seven joins; Alg. 3
//! computes each exactly once while tuples keep flowing:
//!
//! | event                   | joins emitted                                 |
//! |-------------------------|-----------------------------------------------|
//! | old-epoch tuple `t`     | `{t} ⋈ (τ ∪ Δ)`; if `t ∈ Keep`: `{t} ⋈ Δ′`    |
//! | new-epoch tuple `t`     | `{t} ⋈ (µ ∪ Δ′)`; `{t} ⋈ Keep(τ ∪ Δ)`         |
//! | migration tuple `t`     | `{t} ⋈ Δ′`                                    |
//!
//! Old-epoch tuples of the coarsening relation are additionally forwarded
//! to the partner (they are part of the exchanged state). When a joiner has
//! received the epoch-change signal from **every** reshuffler (FIFO
//! channels ⇒ no more old-epoch tuples can arrive) and the partner's
//! end-of-state marker, it *finalises*: discards are dropped and
//! `τ ← Keep(τ∪Δ) ∪ µ ∪ Δ′` — the state is consistent with the new mapping
//! (Theorem 4.5).
//!
//! The ordering contract this module demands from its host (satisfied by
//! `aoj-simnet`'s channels and message classes):
//!
//! 1. per-channel FIFO between any two tasks *within a message class*;
//! 2. a reshuffler's epoch signal travels in the same class/channel as its
//!    data tuples;
//! 3. the partner's end marker travels in the same class/channel as
//!    migration state.
//!
//! ## Elastic expansion (§4.2.2, Fig. 5)
//!
//! The same state machine also hosts the ×4 **expansion** protocol, where
//! the mapping goes `(n, m) → (2n, 2m)` and every machine splits into
//! four. The correctness argument is the migration argument with the
//! partner exchange replaced by a parent → children **fan-out**:
//!
//! * a **parent** treats the expansion like a migration in which it keeps
//!   only the state landing in child `(0,0)` and ships every stored tuple
//!   to the 1–2 children whose new grid cells cover it
//!   ([`ExpandSpec::destinations`]); it expects no partner state, so it
//!   finalises as soon as every reshuffler has signalled;
//! * a **child** starts *unborn* — empty state, no epoch. New-epoch
//!   tuples routed to it accumulate in `Δ′` (probing `µ ∪ Δ′`, exactly
//!   Alg. 3's new-epoch path with `Keep(τ ∪ Δ) = ∅`), parent state
//!   accumulates in `µ` (probing `Δ′`), and the parent's end-of-state
//!   marker — FIFO behind all of `µ` on the Migration channel — is the
//!   only completion condition: every old tuple relevant to the child
//!   flows through its parent, so no reshuffler signals are needed. At
//!   *birth* the child finalises `τ ← µ ∪ Δ′` and joins the cluster as a
//!   normal joiner at the expansion epoch.
//!
//! Every old×old pair was emitted at the parent level, every old×new and
//! new×new pair is emitted at exactly the one machine whose new grid cell
//! covers it — the seven-join decomposition of Lemma 4.6 carries over
//! with `µ` sourced from one parent instead of one partner.
//!
//! ## Elastic contraction (the reverse 4→1 merge)
//!
//! The same machinery also hosts the **contraction**, where each aligned
//! 2×2 cell group merges into one survivor and the mapping goes
//! `(n, m) → (n/2, m/2)`. It is the migration argument with the partner
//! exchange replaced by a retiree → survivor **fan-in**:
//!
//! * the **survivor** runs Alg. 3 with `Keep(τ ∪ Δ) = τ ∪ Δ` (its whole
//!   cell is inside the merged cell, so nothing is discarded) and `µ`
//!   sourced from its three retirees instead of one partner — it expects
//!   three end-of-state markers, each FIFO behind that retiree's state on
//!   the Migration channel;
//! * a **retiree** runs Alg. 3 with `Keep(τ ∪ Δ) = ∅`: old-epoch tuples
//!   probe `τ ∪ Δ` exactly as usual (that emission is *not* covered by
//!   the survivor, which never stored the retiree's complement
//!   partitions), and tuples of the retiree's *forward relation* — S for
//!   the survivor's row sibling, R for its column sibling, nothing for
//!   the diagonal — are shipped to the survivor like step-migration
//!   state. New-epoch tuples can never arrive (reshufflers only route to
//!   survivors under the contracted mapping), so the retiree finalises as
//!   soon as every reshuffler has signalled: it discards everything and
//!   goes **dormant** — back to the unborn-child state, ready for a later
//!   expansion to re-activate it.
//!
//! Exactly-once coverage: each old×old pair is emitted at the unique old
//! cell covering it (retirees keep probing until their Δ closes); each
//! new×old pair at the survivor (via `Keep(τ ∪ Δ)` for its own state,
//! via `µ ⋈ Δ′` for forwarded state — the forward pattern delivers each
//! retiree-held tuple to the survivor exactly once); each new×new pair at
//! the survivor via `Δ′`. The diagonal retiree forwards nothing because
//! both of its partitions reach the survivor from the other two retirees.

use crate::elastic::{ContractRole, ExpandDestinations, ExpandSpec};
use crate::index::{JoinIndex, ProbeStats};
use crate::lifecycle::EvictStats;
use crate::migration::MachineStepSpec;
use crate::tuple::{Rel, Tuple};

/// Epoch counter. The system starts in epoch 0; each migration increments.
pub type Epoch = u32;

/// Outcome of feeding one data tuple to the joiner.
#[derive(Clone, Copy, Debug, Default)]
pub struct DataOutcome {
    /// Probe statistics accumulated across all sets probed.
    pub stats: ProbeStats,
    /// The caller must forward a copy of the tuple to the exchange partner
    /// (old-epoch tuple of the coarsening relation, Alg. 3 line 19–20).
    pub forward_to_partner: bool,
    /// Expansion parents only: the caller must forward copies of this
    /// old-epoch tuple to the children selected by the destinations (the
    /// Δ analogue of the Fig. 5 state fan-out).
    pub expand_forward: Option<ExpandDestinations>,
}

/// What kind of reconfiguration this joiner is executing, and its role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MigrationRole {
    /// A one-step migration (Lemma 4.4): partner exchange + keep bit.
    Step(MachineStepSpec),
    /// A ×4 expansion parent (Fig. 5): split state across four children.
    Expand(ExpandSpec),
    /// A 4→1 contraction survivor: keep everything, absorb three
    /// retirees' state streams.
    Merge,
    /// A 4→1 contraction retiree: keep nothing, forward `forward_rel`
    /// of the state to the survivor, then go dormant.
    Retire {
        /// The relation this retiree ships (None for the diagonal).
        forward_rel: Option<Rel>,
    },
}

impl MigrationRole {
    /// Does this machine's post-reconfiguration state include `t`?
    fn keeps(&self, t: &Tuple) -> bool {
        match self {
            MigrationRole::Step(spec) => spec.is_kept(t),
            MigrationRole::Expand(spec) => spec.destinations(t).keep,
            MigrationRole::Merge => true,
            MigrationRole::Retire { .. } => false,
        }
    }

    /// End-of-state markers this role waits for before finalising.
    fn partners_expected(&self) -> usize {
        match self {
            MigrationRole::Step(_) => 1,
            // Expansion parents and contraction retirees receive no
            // relocated state.
            MigrationRole::Expand(_) | MigrationRole::Retire { .. } => 0,
            // A survivor absorbs all three retirees of its group.
            MigrationRole::Merge => 3,
        }
    }
}

/// Outcome of an epoch-change signal.
#[derive(Clone, Copy, Debug, Default)]
pub struct SignalOutcome {
    /// First signal of this migration: the caller must ship
    /// [`EpochJoiner::migration_snapshot`] to the partner (Alg. 3 line 3).
    pub start_migration: bool,
    /// All reshufflers have signalled: the caller must send the
    /// end-of-state marker to the partner.
    pub all_signals: bool,
}

/// Result of finalising a migration (for cost accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FinalizeSummary {
    /// Tuples dropped (the `Discard` class).
    pub discarded: u64,
    /// Tuples merged into the new `τ` from `Δ`, `µ` and `Δ′`.
    pub merged: u64,
}

/// Per-joiner state machine implementing Alg. 3 over pluggable
/// [`JoinIndex`] state.
pub struct EpochJoiner {
    epoch: Epoch,
    migrating: bool,
    new_epoch: Epoch,
    role: Option<MigrationRole>,
    signals: Vec<bool>,
    signals_remaining: usize,
    /// End-of-state markers received for the in-flight reconfiguration.
    /// Counted, not boolean: a contraction survivor fans in three
    /// retirees' streams where a step migration has one partner.
    partners_done: usize,
    /// Markers required before finalising (set when the role is learned;
    /// markers may legitimately arrive first).
    partners_expected: usize,
    n_reshufflers: usize,
    /// False for a dormant expansion child that has not finalised its
    /// birth yet (see the module docs on elastic expansion).
    born: bool,
    /// The expansion epoch an unborn child will adopt at birth, learned
    /// from the first new-epoch tuple or the parent's end marker.
    birth_epoch: Option<Epoch>,

    tau: Box<dyn JoinIndex>,
    delta: Box<dyn JoinIndex>,
    delta_prime: Box<dyn JoinIndex>,
    mu: Box<dyn JoinIndex>,

    /// Total matches emitted by this joiner (diagnostics / reports).
    pub matches_emitted: u64,
}

impl EpochJoiner {
    /// Create a joiner with empty state. `make_index` builds one
    /// [`JoinIndex`] per tuple set; `n_reshufflers` is the number of
    /// epoch-change signals to expect per migration.
    pub fn new(make_index: &dyn Fn() -> Box<dyn JoinIndex>, n_reshufflers: usize) -> EpochJoiner {
        EpochJoiner {
            epoch: 0,
            migrating: false,
            new_epoch: 0,
            role: None,
            signals: vec![false; n_reshufflers],
            signals_remaining: 0,
            partners_done: 0,
            partners_expected: 1,
            n_reshufflers,
            born: true,
            birth_epoch: None,
            tau: make_index(),
            delta: make_index(),
            delta_prime: make_index(),
            mu: make_index(),
            matches_emitted: 0,
        }
    }

    /// Create a dormant expansion child: provisioned but unborn. It holds
    /// no state and expects no signals; it wakes up when its parent's
    /// expansion state (µ), new-epoch data (Δ′) or the parent's
    /// end-of-state marker first reaches it, and joins the cluster as a
    /// normal joiner at [`birth`](EpochJoiner::on_parent_done).
    pub fn new_dormant(
        make_index: &dyn Fn() -> Box<dyn JoinIndex>,
        n_reshufflers: usize,
    ) -> EpochJoiner {
        let mut j = EpochJoiner::new(make_index, n_reshufflers);
        j.born = false;
        j
    }

    /// Load checkpointed state into a fresh stable joiner: `tuples` are
    /// the live τ set of a quiesced joiner at `epoch`, inserted and then
    /// sealed into one segment so the restored bulk expires wholesale
    /// under windowed eviction (see [`crate::lifecycle`]).
    pub fn restore(&mut self, epoch: Epoch, tuples: &[Tuple]) {
        assert!(
            self.born && self.epoch == 0 && !self.migrating && self.tau.is_empty(),
            "restore needs a fresh stable joiner"
        );
        self.epoch = epoch;
        self.new_epoch = epoch;
        self.tau.insert_batch(tuples);
        self.tau.seal_segment();
    }

    /// Seal the live (τ) index's active run into a sub-window segment
    /// (see [`JoinIndex::seal_segment`]). Called by the windowed-eviction
    /// driver at sub-window boundaries; τ only — the migration sets Δ, Δ′
    /// and µ are transient and merge away at finalisation.
    pub fn seal_live_segment(&mut self) {
        self.tau.seal_segment();
    }

    /// Drop expired τ segments (see [`JoinIndex::evict_before`]). Only
    /// legal while **stable**: eviction at epoch boundaries never races a
    /// migration's state partitioning, so Alg. 3's marker-FIFO argument
    /// is untouched.
    pub fn evict_before(&mut self, bound: u64) -> EvictStats {
        assert!(
            self.born && !self.migrating,
            "windowed eviction must only run on a stable joiner"
        );
        self.tau.evict_before(bound)
    }

    /// Sealed sub-window segments currently held by τ (occupancy stats).
    pub fn sealed_segments(&self) -> usize {
        self.tau.sealed_segments()
    }

    /// The live τ tuples of a quiesced joiner, for a checkpoint. Panics
    /// if a reconfiguration is in flight — checkpoints are taken at
    /// quiesced migration checkpoints only, where Δ, Δ′ and µ are empty.
    pub fn live_snapshot(&self) -> Vec<Tuple> {
        assert!(
            !self.migrating,
            "checkpoint requires a quiesced (stable) joiner"
        );
        debug_assert_eq!(self.delta.len() + self.delta_prime.len() + self.mu.len(), 0);
        self.tau.snapshot()
    }

    /// True once this joiner participates in the cluster (always, except
    /// for a dormant expansion child before its birth finalisation).
    #[inline]
    pub fn is_born(&self) -> bool {
        self.born
    }

    /// Current (finalised) epoch.
    #[inline]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// True while a migration is in flight.
    #[inline]
    pub fn is_migrating(&self) -> bool {
        self.migrating
    }

    /// Stored tuples across all four sets.
    pub fn stored_tuples(&self) -> usize {
        self.tau.len() + self.delta.len() + self.delta_prime.len() + self.mu.len()
    }

    /// Stored tuples of one relation across all four sets.
    pub fn stored_tuples_rel(&self, rel: Rel) -> usize {
        self.tau.len_rel(rel)
            + self.delta.len_rel(rel)
            + self.delta_prime.len_rel(rel)
            + self.mu.len_rel(rel)
    }

    /// Stored bytes across all four sets (the joiner's ILF contribution).
    pub fn stored_bytes(&self) -> u64 {
        self.tau.bytes() + self.delta.bytes() + self.delta_prime.bytes() + self.mu.bytes()
    }

    /// Set sizes `[τ, Δ, Δ′, µ]` (diagnostics).
    pub fn set_sizes(&self) -> [usize; 4] {
        [
            self.tau.len(),
            self.delta.len(),
            self.delta_prime.len(),
            self.mu.len(),
        ]
    }

    fn emit(incoming: &Tuple, stored: &Tuple, out: &mut dyn FnMut(&Tuple, &Tuple)) {
        // Normalise output pairs to (r, s).
        if incoming.rel == Rel::R {
            out(incoming, stored);
        } else {
            out(stored, incoming);
        }
    }

    /// Feed a data tuple tagged with `tag` by its reshuffler.
    ///
    /// Panics if the protocol invariants are violated (a tag more than one
    /// epoch away, or an old-epoch tuple after all signals) — Theorem 4.6
    /// guarantees these cannot happen under a compliant host.
    pub fn on_data(
        &mut self,
        tag: Epoch,
        t: Tuple,
        out: &mut dyn FnMut(&Tuple, &Tuple),
    ) -> DataOutcome {
        let mut outcome = DataOutcome::default();
        let mut matches = 0u64;
        if !self.born {
            // Unborn expansion child: everything routed here is new-epoch
            // by construction (reshufflers only target this machine under
            // the expanded mapping). Alg. 3's new-epoch path with
            // `Keep(τ ∪ Δ) = ∅`.
            let birth = *self.birth_epoch.get_or_insert(tag);
            assert_eq!(tag, birth, "unborn child saw data from two epochs");
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            outcome.stats += self.mu.probe(&t, &mut cb);
            outcome.stats += self.delta_prime.probe(&t, &mut cb);
            self.delta_prime.insert(t);
            self.matches_emitted += matches;
            return outcome;
        }
        if !self.migrating {
            assert_eq!(tag, self.epoch, "stable joiner got tuple from epoch {tag}");
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            outcome.stats += self.tau.probe(&t, &mut cb);
            self.tau.insert(t);
        } else if tag == self.epoch {
            // Old-epoch tuple: Alg. 3 HandleTuple1, lines 15–20.
            assert!(
                self.signals_remaining > 0,
                "old-epoch tuple after all reshuffler signals (FIFO violation)"
            );
            let role = self.role.expect("migrating implies a role");
            {
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                // {t} ⋈ (τ ∪ Δ)
                outcome.stats += self.tau.probe(&t, &mut cb);
                outcome.stats += self.delta.probe(&t, &mut cb);
            }
            if role.keeps(&t) {
                // t ∈ Keep(Δ): {t} ⋈ Δ′
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.delta_prime.probe(&t, &mut cb);
            }
            match role {
                MigrationRole::Step(spec) => {
                    outcome.forward_to_partner = spec.is_migrated(&t);
                }
                MigrationRole::Expand(spec) => {
                    // A Δ tuple is part of the state being split: copies
                    // go to every child whose new cell covers it.
                    outcome.expand_forward = Some(spec.destinations(&t));
                }
                // A survivor's Δ is entirely inside the merged cell:
                // nothing to forward.
                MigrationRole::Merge => {}
                MigrationRole::Retire { forward_rel } => {
                    // A retiree's Δ tuple of its forward relation is part
                    // of the state being merged into the survivor; the
                    // other relation's copies reach the survivor through
                    // its row/column siblings (or its own replicas).
                    outcome.forward_to_partner = forward_rel == Some(t.rel);
                }
            }
            self.delta.insert(t);
        } else {
            // New-epoch tuple: Alg. 3 lines 12–14 / 24–26.
            assert_eq!(
                tag, self.new_epoch,
                "tuple from epoch {tag} while migrating {} -> {}",
                self.epoch, self.new_epoch
            );
            let role = self.role.expect("migrating implies a role");
            assert!(
                !matches!(role, MigrationRole::Retire { .. }),
                "retiring joiner received new-epoch data (reshufflers must \
                 only route to survivors under the contracted mapping)"
            );
            {
                // {t} ⋈ (µ ∪ Δ′)
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.mu.probe(&t, &mut cb);
                outcome.stats += self.delta_prime.probe(&t, &mut cb);
            }
            {
                // {t} ⋈ Keep(τ ∪ Δ)
                let mut filter = |stored: &Tuple| role.keeps(stored);
                let mut cb = |stored: &Tuple| {
                    matches += 1;
                    Self::emit(&t, stored, out);
                };
                outcome.stats += self.tau.probe_filtered(&t, &mut filter, &mut cb);
                outcome.stats += self.delta.probe_filtered(&t, &mut filter, &mut cb);
            }
            self.delta_prime.insert(t);
        }
        self.matches_emitted += matches;
        outcome
    }

    /// True when [`on_data_batch`](EpochJoiner::on_data_batch)'s bulk
    /// fast path is valid for tuples tagged `tag`: a born, stable joiner
    /// in that epoch. Mid-migration (or unborn) there are extra sets to
    /// consult and forwarding decisions to make, so callers must fall
    /// back to per-tuple [`on_data`](EpochJoiner::on_data).
    #[inline]
    pub fn stable_for(&self, tag: Epoch) -> bool {
        self.born && !self.migrating && tag == self.epoch
    }

    /// Bulk fast path for a coalesced batch of stable-phase data tuples:
    /// `τ` is the only live set, so the whole batch goes through the
    /// index's bulk probe/insert operations
    /// ([`process_stream_batch`](crate::index::process_stream_batch)) —
    /// semantically identical to feeding each tuple to
    /// [`on_data`](EpochJoiner::on_data) in order, including intra-batch
    /// pairs. `out(i, stored)` receives the batch index of the *probing*
    /// tuple (for per-tuple latency attribution) plus the stored partner
    /// — on a hot path with hundreds of matches per tuple this is the
    /// innermost loop, so the `(r, s)` normalisation `on_data` performs
    /// is left to the caller (who knows `batch[i]`), saving a closure
    /// layer per match.
    pub fn on_data_batch(
        &mut self,
        tag: Epoch,
        batch: &[Tuple],
        out: &mut dyn FnMut(usize, &Tuple),
    ) -> ProbeStats {
        assert!(
            self.stable_for(tag),
            "bulk data path requires a stable joiner at the batch epoch"
        );
        let stats = crate::index::process_stream_batch(self.tau.as_mut(), batch, out);
        self.matches_emitted += stats.matches;
        stats
    }

    /// An epoch-change signal from reshuffler `from`, carrying the new
    /// epoch index, this machine's migration role, and the number of
    /// reshufflers that route old-epoch data (and therefore must signal):
    /// the **active** reshuffler count at the moment of the change, which
    /// under trigger-time provisioning is no longer a constant.
    pub fn on_signal(
        &mut self,
        from: usize,
        new_epoch: Epoch,
        spec: MachineStepSpec,
        expected_signals: usize,
    ) -> SignalOutcome {
        self.begin_reconfiguration(from, new_epoch, MigrationRole::Step(spec), expected_signals)
    }

    /// An expansion signal from reshuffler `from` (§4.2.2): this machine is
    /// a **parent** splitting into four. Like [`EpochJoiner::on_signal`], the signal
    /// travels FIFO behind the reshuffler's data; on the first one the
    /// caller must ship [`expansion_snapshot`](EpochJoiner::expansion_snapshot)
    /// to the children, and after the last one send each child the
    /// end-of-state marker. Parents receive no partner state, so they are
    /// ready to finalise as soon as every reshuffler has signalled.
    pub fn on_expand_signal(
        &mut self,
        from: usize,
        new_epoch: Epoch,
        spec: ExpandSpec,
        expected_signals: usize,
    ) -> SignalOutcome {
        self.begin_reconfiguration(
            from,
            new_epoch,
            MigrationRole::Expand(spec),
            expected_signals,
        )
    }

    /// A contraction signal from reshuffler `from`: this machine is either
    /// the **survivor** of its 2×2 group (merge everything, await three
    /// end-of-state markers) or a **retiree** (forward its role's relation
    /// to the survivor, then go dormant at finalisation). On a retiree's
    /// first signal the caller must ship
    /// [`migration_snapshot`](EpochJoiner::migration_snapshot) to the
    /// survivor, and after its last signal send the survivor the
    /// end-of-state marker.
    pub fn on_contract_signal(
        &mut self,
        from: usize,
        new_epoch: Epoch,
        role: ContractRole,
        expected_signals: usize,
    ) -> SignalOutcome {
        let role = match role {
            ContractRole::Survive => MigrationRole::Merge,
            ContractRole::Retire { forward_rel, .. } => MigrationRole::Retire { forward_rel },
        };
        self.begin_reconfiguration(from, new_epoch, role, expected_signals)
    }

    fn begin_reconfiguration(
        &mut self,
        from: usize,
        new_epoch: Epoch,
        role: MigrationRole,
        expected_signals: usize,
    ) -> SignalOutcome {
        assert!(self.born, "dormant child received a reshuffler signal");
        let mut outcome = SignalOutcome::default();
        if !self.migrating {
            assert_eq!(
                new_epoch,
                self.epoch + 1,
                "signal must advance the epoch by one"
            );
            self.migrating = true;
            self.new_epoch = new_epoch;
            self.role = Some(role);
            self.signals.iter_mut().for_each(|s| *s = false);
            assert!(
                expected_signals >= 1 && expected_signals <= self.n_reshufflers,
                "expected signal count {expected_signals} outside 1..={}",
                self.n_reshufflers
            );
            self.signals_remaining = expected_signals;
            self.partners_expected = role.partners_expected();
            assert!(
                self.partners_done <= self.partners_expected,
                "more end-of-state markers than this role's senders"
            );
            outcome.start_migration = true;
        } else {
            assert_eq!(new_epoch, self.new_epoch, "overlapping migrations");
            debug_assert_eq!(self.role, Some(role));
        }
        assert!(
            !self.signals[from],
            "duplicate signal from reshuffler {from}"
        );
        self.signals[from] = true;
        self.signals_remaining -= 1;
        outcome.all_signals = self.signals_remaining == 0;
        outcome
    }

    /// The state to ship when a migration (or contraction) starts: for a
    /// step migration, copies of all stored tuples of the coarsening
    /// relation (Alg. 3 line 3, "Send τ for migration" — the tuples stay
    /// in `τ`, the exchange keeps both halves, Lemma 4.4); for a
    /// contraction retiree, all stored tuples of its forward relation
    /// (empty for the diagonal retiree).
    pub fn migration_snapshot(&self) -> Vec<Tuple> {
        let rel = match self.role {
            Some(MigrationRole::Step(spec)) => Some(spec.exchange_rel),
            Some(MigrationRole::Retire { forward_rel }) => match forward_rel {
                Some(rel) => Some(rel),
                None => return Vec::new(),
            },
            _ => panic!("migration snapshot requires a step migration or a retiring role"),
        };
        let mut snap = Vec::new();
        self.tau.for_each(&mut |t| {
            if Some(t.rel) == rel {
                snap.push(*t);
            }
        });
        snap
    }

    /// True while this joiner is a contraction retiree mid-merge.
    #[inline]
    pub fn is_retiring(&self) -> bool {
        self.migrating && matches!(self.role, Some(MigrationRole::Retire { .. }))
    }

    /// True while this joiner is a contraction survivor mid-merge.
    #[inline]
    pub fn is_merging(&self) -> bool {
        self.migrating && matches!(self.role, Some(MigrationRole::Merge))
    }

    /// The state an expansion parent ships to its children when the
    /// expansion starts: **every** stored tuple of `τ`, of both relations
    /// (Fig. 5 splits along both ticket axes). The caller classifies each
    /// tuple with [`ExpandSpec::destinations`] and sends copies to the
    /// 1–2 children that cover it; kept tuples stay in `τ` and the
    /// non-kept ones are dropped at finalisation.
    pub fn expansion_snapshot(&self) -> Vec<Tuple> {
        assert!(
            matches!(self.role, Some(MigrationRole::Expand(_))),
            "expansion snapshot requires an active expansion"
        );
        let mut snap = Vec::with_capacity(self.tau.len());
        self.tau.for_each(&mut |t| snap.push(*t));
        snap
    }

    /// A migration tuple received from the partner (Alg. 3 lines 10–11 /
    /// 22–23): `{t} ⋈ Δ′`, then `µ ← µ ∪ {t}`.
    ///
    /// May legitimately arrive before this joiner's own first signal (the
    /// partner heard about the migration first); `µ` is phase-independent.
    pub fn on_migration_tuple(
        &mut self,
        t: Tuple,
        out: &mut dyn FnMut(&Tuple, &Tuple),
    ) -> ProbeStats {
        let mut matches = 0u64;
        let stats = {
            let mut cb = |stored: &Tuple| {
                matches += 1;
                Self::emit(&t, stored, out);
            };
            self.delta_prime.probe(&t, &mut cb)
        };
        self.mu.insert(t);
        self.matches_emitted += matches;
        stats
    }

    /// An end-of-state marker arrived: one sender's relocated state is
    /// fully in. A step migration expects one (the exchange partner); a
    /// contraction survivor expects three (its retirees).
    pub fn on_partner_done(&mut self) {
        assert!(self.born, "expansion children use on_parent_done");
        self.partners_done += 1;
        if self.migrating {
            assert!(
                self.partners_done <= self.partners_expected,
                "more end-of-state markers than this role's senders"
            );
        } else {
            // The sender heard about the reconfiguration first; the
            // largest legitimate fan-in is a survivor's three retirees.
            assert!(self.partners_done <= 3, "spurious end-of-state marker");
        }
    }

    /// An expansion child's parent sent its end-of-state marker, carrying
    /// the expansion epoch: all of `µ` is in, and — because every old
    /// tuple relevant to this child flows through the parent — no further
    /// old state can arrive. The child is now ready for its birth
    /// finalisation.
    pub fn on_parent_done(&mut self, epoch: Epoch) {
        assert!(!self.born, "only unborn children receive a parent marker");
        assert!(self.partners_done == 0, "duplicate end-of-state marker");
        let birth = *self.birth_epoch.get_or_insert(epoch);
        assert_eq!(epoch, birth, "parent marker disagrees with data epoch");
        self.partners_done = 1;
    }

    /// True when the migration can be finalised: every reshuffler has
    /// signalled and every expected sender's state is fully received. An
    /// unborn expansion child needs only its parent's end-of-state marker.
    pub fn ready_to_finalize(&self) -> bool {
        if !self.born {
            return self.partners_done > 0;
        }
        self.migrating
            && self.signals_remaining == 0
            && self.partners_done == self.partners_expected
    }

    /// Finalise (Alg. 3 FinalizeMigration): drop discards and merge
    /// `Keep(τ∪Δ) ∪ µ ∪ Δ′` into the new `τ`. Returns counts for cost
    /// accounting. The caller then acks the controller.
    ///
    /// For an unborn expansion child this is the **birth**: `τ ← µ ∪ Δ′`
    /// (nothing to discard — the parent only sent covering state), the
    /// child adopts the expansion epoch and becomes a normal joiner.
    ///
    /// For a contraction retiree this is the **retirement**: every stored
    /// tuple is discarded (the survivor holds the merged cell) and the
    /// joiner goes back to the dormant, unborn state — a later expansion
    /// re-activates it through the ordinary child-birth path. The epoch
    /// advances so the retirement ack carries the contraction epoch.
    pub fn finalize(&mut self) -> FinalizeSummary {
        assert!(self.ready_to_finalize(), "finalize called early");
        let mut summary = FinalizeSummary::default();
        if !self.born {
            for t in self.mu.drain() {
                self.tau.insert(t);
                summary.merged += 1;
            }
            for t in self.delta_prime.drain() {
                self.tau.insert(t);
                summary.merged += 1;
            }
            self.epoch = self
                .birth_epoch
                .take()
                .expect("parent marker always sets the birth epoch");
            self.born = true;
            self.partners_done = 0;
            return summary;
        }
        let role = self.role.take().expect("migrating implies a role");
        if let MigrationRole::Retire { .. } = role {
            // Retirement: nothing survives locally. Δ′ and µ must be
            // empty — no reshuffler routes new-epoch data to a retiree
            // and nobody relocates state into one.
            assert_eq!(self.delta_prime.len(), 0, "retiree accumulated Δ′");
            assert_eq!(self.mu.len(), 0, "retiree received relocated state");
            summary.discarded = (self.tau.len() + self.delta.len()) as u64;
            self.tau.drain();
            self.delta.drain();
            self.epoch = self.new_epoch;
            self.migrating = false;
            self.partners_done = 0;
            self.born = false;
            self.birth_epoch = None;
            return summary;
        }

        // Drop discards still sitting in τ.
        let dropped = self.tau.extract(&mut |t| !role.keeps(t));
        summary.discarded += dropped.len() as u64;

        // Δ: keep survivors, drop the rest.
        for t in self.delta.drain() {
            if role.keeps(&t) {
                self.tau.insert(t);
                summary.merged += 1;
            } else {
                summary.discarded += 1;
            }
        }
        // µ and Δ′ belong wholesale.
        for t in self.mu.drain() {
            self.tau.insert(t);
            summary.merged += 1;
        }
        for t in self.delta_prime.drain() {
            self.tau.insert(t);
            summary.merged += 1;
        }

        self.epoch = self.new_epoch;
        self.migrating = false;
        self.partners_done = 0;
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VecIndex;
    use crate::mapping::{GridAssignment, Mapping, Step};
    use crate::migration::plan_step;
    use crate::predicate::Predicate;
    use crate::ticket::TicketGen;

    fn make_joiner(n_reshufflers: usize) -> EpochJoiner {
        EpochJoiner::new(&|| Box::new(VecIndex::new(Predicate::Equi)), n_reshufflers)
    }

    fn collect_pairs(out: &mut Vec<(u64, u64)>) -> impl FnMut(&Tuple, &Tuple) + '_ {
        |r: &Tuple, s: &Tuple| out.push((r.seq, s.seq))
    }

    #[test]
    fn stable_phase_is_symmetric_hash_join() {
        let mut j = make_joiner(1);
        let mut pairs = Vec::new();
        let r = Tuple::new(Rel::R, 1, 5, 0);
        let s = Tuple::new(Rel::S, 2, 5, 0);
        j.on_data(0, r, &mut collect_pairs(&mut pairs));
        j.on_data(0, s, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        assert_eq!(j.stored_tuples(), 2);
        assert_eq!(j.matches_emitted, 1);
    }

    #[test]
    fn bulk_batch_equals_per_tuple_on_data() {
        let mk = || make_joiner(1);
        let batch: Vec<Tuple> = (0..20)
            .map(|i| {
                let rel = if i % 3 == 0 { Rel::R } else { Rel::S };
                Tuple::new(rel, i, (i as i64 * 7) % 6, i)
            })
            .collect();
        let mut a = mk();
        let mut seq_pairs = Vec::new();
        for t in &batch {
            a.on_data(0, *t, &mut collect_pairs(&mut seq_pairs));
        }
        let mut b = mk();
        assert!(b.stable_for(0));
        let mut bulk_pairs = Vec::new();
        let stats = b.on_data_batch(0, &batch, &mut |i, stored| {
            let t = &batch[i];
            if t.rel == Rel::R {
                bulk_pairs.push((t.seq, stored.seq));
            } else {
                bulk_pairs.push((stored.seq, t.seq));
            }
        });
        seq_pairs.sort_unstable();
        bulk_pairs.sort_unstable();
        assert_eq!(seq_pairs, bulk_pairs);
        assert_eq!(a.matches_emitted, b.matches_emitted);
        assert_eq!(stats.matches, b.matches_emitted);
        assert_eq!(a.stored_tuples(), b.stored_tuples());
        assert_eq!(a.stored_bytes(), b.stored_bytes());
    }

    #[test]
    fn stable_for_rejects_migration_and_wrong_epoch() {
        let (mut a, _b, plan) = mid_migration_pair();
        assert!(a.stable_for(0));
        assert!(!a.stable_for(1));
        a.on_signal(0, 1, plan.specs[0], 2);
        assert!(
            !a.stable_for(0),
            "mid-migration batches need per-tuple handling"
        );
        assert!(!a.stable_for(1));
    }

    /// Build a two-joiner world mid-migration: (2,1) -> (1,2). Machine 0
    /// and machine 1 are partners exchanging R; S refines from 1 part to 2.
    fn mid_migration_pair() -> (EpochJoiner, EpochJoiner, crate::migration::MigrationPlan) {
        let assign = GridAssignment::initial(Mapping::new(2, 1));
        let plan = plan_step(&assign, Step::HalveRows);
        let a = make_joiner(2);
        let b = make_joiner(2);
        (a, b, plan)
    }

    #[test]
    fn signal_protocol_tracks_start_and_completion() {
        let (mut a, _b, plan) = mid_migration_pair();
        let s0 = a.on_signal(0, 1, plan.specs[0], 2);
        assert!(s0.start_migration);
        assert!(!s0.all_signals);
        assert!(a.is_migrating());
        let s1 = a.on_signal(1, 1, plan.specs[0], 2);
        assert!(!s1.start_migration);
        assert!(s1.all_signals);
        assert!(!a.ready_to_finalize());
        a.on_partner_done();
        assert!(a.ready_to_finalize());
        let summary = a.finalize();
        assert_eq!(summary, FinalizeSummary::default());
        assert_eq!(a.epoch(), 1);
        assert!(!a.is_migrating());
    }

    #[test]
    fn old_epoch_r_tuple_is_forwarded_and_joined() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        // Pre-migration state: one S tuple in τ.
        let s_old = Tuple::new(Rel::S, 1, 7, 0); // refine_bit(0, 1) == 0
        a.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        // Migration starts.
        a.on_signal(0, 1, plan.specs[0], 2);
        // Old-epoch R tuple arrives: joins τ∪Δ (the S tuple), forwarded.
        let r_old = Tuple::new(Rel::R, 2, 7, 0);
        let outcome = a.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        assert!(
            outcome.forward_to_partner,
            "coarsening-relation Δ tuple must migrate"
        );
        assert_eq!(pairs, vec![(2, 1)]);
    }

    #[test]
    fn new_epoch_tuple_joins_keep_but_not_discard() {
        let (mut a, _b, plan) = mid_migration_pair();
        let spec = plan.specs[0];
        assert_eq!(spec.keep_bit, 0, "machine 0 at row 0 keeps bit 0");
        let mut pairs = Vec::new();
        // τ holds two S tuples: one kept (bit 0) and one discarded (bit 1).
        let s_keep = Tuple::new(Rel::S, 1, 7, 0); // refine_bit = 0
        let s_drop = Tuple::new(Rel::S, 2, 7, 1 << 63); // refine_bit = 1
        a.on_data(0, s_keep, &mut collect_pairs(&mut pairs));
        a.on_data(0, s_drop, &mut collect_pairs(&mut pairs));
        a.on_signal(0, 1, spec, 2);
        // New-epoch R tuple: joins µ ∪ Δ′ (empty) and Keep(τ∪Δ) = {s_keep}.
        let r_new = Tuple::new(Rel::R, 3, 7, 0);
        a.on_data(1, r_new, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(3, 1)], "must join the kept S tuple only");
    }

    #[test]
    fn migration_tuples_join_delta_prime_only() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        a.on_signal(0, 1, plan.specs[0], 2);
        // Δ′ gets an S tuple.
        let s_new = Tuple::new(Rel::S, 1, 9, 0);
        a.on_data(1, s_new, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        // Partner's R state arrives: joins Δ′.
        let r_mu = Tuple::new(Rel::R, 2, 9, u64::MAX);
        a.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1)]);
        // A second Δ′ S tuple must see µ.
        let s_new2 = Tuple::new(Rel::S, 3, 9, 0);
        a.on_data(1, s_new2, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1), (2, 3)]);
    }

    #[test]
    fn migration_tuple_before_any_signal_is_buffered_in_mu() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut pairs = Vec::new();
        // Partner was faster: its state arrives while a is still stable.
        let r_mu = Tuple::new(Rel::R, 1, 4, u64::MAX);
        a.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        assert_eq!(a.set_sizes(), [0, 0, 0, 1]);
        a.on_partner_done();
        // Now the signals arrive and the migration completes.
        a.on_signal(0, 1, plan.specs[0], 2);
        a.on_signal(1, 1, plan.specs[0], 2);
        assert!(a.ready_to_finalize());
        let summary = a.finalize();
        assert_eq!(summary.merged, 1);
        // µ became part of τ: a new S tuple in epoch 1 joins it.
        let s = Tuple::new(Rel::S, 2, 4, 0);
        a.on_data(1, s, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn finalize_discards_wrong_bit_tuples() {
        let (mut a, _b, plan) = mid_migration_pair();
        let spec = plan.specs[0];
        let mut sink = Vec::new();
        let s_keep = Tuple::new(Rel::S, 1, 7, 0);
        let s_drop = Tuple::new(Rel::S, 2, 7, 1 << 63);
        a.on_data(0, s_keep, &mut collect_pairs(&mut sink));
        a.on_data(0, s_drop, &mut collect_pairs(&mut sink));
        a.on_signal(0, 1, spec, 2);
        // Old-epoch S arrivals during migration, one of each class.
        let s_keep2 = Tuple::new(Rel::S, 3, 7, 1); // bit 0
        let s_drop2 = Tuple::new(Rel::S, 4, 7, (1 << 63) | 1); // bit 1
        a.on_data(0, s_keep2, &mut collect_pairs(&mut sink));
        a.on_data(0, s_drop2, &mut collect_pairs(&mut sink));
        a.on_signal(1, 1, spec, 2);
        a.on_partner_done();
        let summary = a.finalize();
        assert_eq!(summary.discarded, 2);
        assert_eq!(summary.merged, 1); // s_keep2 from Δ
        assert_eq!(a.stored_tuples(), 2); // s_keep + s_keep2
    }

    #[test]
    #[should_panic(expected = "old-epoch tuple after all reshuffler signals")]
    fn old_epoch_after_all_signals_is_a_protocol_violation() {
        let (mut a, _b, plan) = mid_migration_pair();
        a.on_signal(0, 1, plan.specs[0], 2);
        a.on_signal(1, 1, plan.specs[0], 2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        a.on_data(0, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
    }

    #[test]
    #[should_panic(expected = "duplicate signal")]
    fn duplicate_signals_panic() {
        let (mut a, _b, plan) = mid_migration_pair();
        a.on_signal(0, 1, plan.specs[0], 2);
        a.on_signal(0, 1, plan.specs[0], 2);
    }

    fn expand_spec_1x1() -> ExpandSpec {
        use crate::mapping::GridPos;
        ExpandSpec {
            machine: 0,
            old_pos: GridPos { row: 0, col: 0 },
            children: [1, 2, 3],
            n_before: 1,
            m_before: 1,
        }
    }

    #[test]
    fn expansion_parent_splits_keeps_and_forwards() {
        let mut p = make_joiner(2);
        let mut pairs = Vec::new();
        // τ: an R tuple with row-bit 0 (kept, copied to child (0,1)) and an
        // S tuple with col-bit 1 (leaves for children (0,1) and (1,1)).
        let r_keep = Tuple::new(Rel::R, 1, 7, 0);
        let s_move = Tuple::new(Rel::S, 2, 7, 1 << 63);
        p.on_data(0, r_keep, &mut collect_pairs(&mut pairs));
        p.on_data(0, s_move, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        let spec = expand_spec_1x1();
        let so = p.on_expand_signal(0, 1, spec, 2);
        assert!(so.start_migration && !so.all_signals);
        assert_eq!(p.expansion_snapshot().len(), 2, "both relations ship");
        // Old-epoch R with row-bit 1: joins τ∪Δ, forwarded to two children,
        // not kept here.
        let r_old = Tuple::new(Rel::R, 3, 7, 1 << 63);
        let o = p.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        let d = o.expand_forward.expect("Δ tuples fan out to children");
        assert!(!d.keep);
        assert_eq!(d.sends(), 2);
        assert_eq!(pairs, vec![(1, 2), (3, 2)]);
        // New-epoch S with col-bit 0 (parent's own new cell): joins
        // Keep(τ∪Δ) = {r_keep} only.
        let s_new = Tuple::new(Rel::S, 4, 7, 0);
        p.on_data(1, s_new, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2), (3, 2), (1, 4)]);
        let so = p.on_expand_signal(1, 1, spec, 2);
        assert!(so.all_signals);
        // Parents await no partner state: ready right after the signals.
        assert!(p.ready_to_finalize());
        let summary = p.finalize();
        assert_eq!(summary.discarded, 2, "s_move from τ and r_old from Δ");
        assert_eq!(summary.merged, 1, "s_new from Δ′");
        assert_eq!(p.epoch(), 1);
        assert_eq!(p.stored_tuples(), 2); // r_keep + s_new
    }

    #[test]
    fn expansion_child_is_born_with_parent_state() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 2);
        assert!(!c.is_born());
        let mut pairs = Vec::new();
        // New-epoch data can arrive before any parent state.
        let s_new = Tuple::new(Rel::S, 1, 5, 0);
        c.on_data(3, s_new, &mut collect_pairs(&mut pairs));
        assert!(pairs.is_empty());
        // Parent state arrives: probes Δ′.
        let r_mu = Tuple::new(Rel::R, 2, 5, 0);
        c.on_migration_tuple(r_mu, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1)]);
        assert!(!c.ready_to_finalize());
        c.on_parent_done(3);
        assert!(c.ready_to_finalize());
        let summary = c.finalize();
        assert_eq!(summary.merged, 2);
        assert_eq!(summary.discarded, 0);
        assert!(c.is_born());
        assert_eq!(c.epoch(), 3);
        // Born: a stable joiner at the expansion epoch.
        let s2 = Tuple::new(Rel::S, 3, 5, 0);
        c.on_data(3, s2, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(2, 1), (2, 3)]);
    }

    #[test]
    fn expansion_child_with_no_contact_but_done_marker_is_born_empty() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 1);
        c.on_parent_done(7);
        assert!(c.ready_to_finalize());
        let summary = c.finalize();
        assert_eq!(summary, FinalizeSummary::default());
        assert_eq!(c.epoch(), 7);
        assert!(c.is_born());
    }

    #[test]
    #[should_panic(expected = "unborn child saw data from two epochs")]
    fn unborn_child_rejects_mixed_epoch_data() {
        let mut c = EpochJoiner::new_dormant(&|| Box::new(VecIndex::new(Predicate::Equi)), 1);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        c.on_data(3, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
        c.on_data(4, Tuple::new(Rel::R, 2, 1, 0), &mut sink);
    }

    #[test]
    fn contraction_survivor_merges_and_awaits_three_markers() {
        let mut s = make_joiner(2);
        let mut pairs = Vec::new();
        // Pre-contraction state: one R tuple in τ.
        let r_old = Tuple::new(Rel::R, 1, 5, 0);
        s.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        // One retiree's state arrives before any signal (it heard first).
        let s_mu = Tuple::new(Rel::S, 2, 5, u64::MAX);
        s.on_migration_tuple(s_mu, &mut collect_pairs(&mut pairs));
        s.on_partner_done();
        let so = s.on_contract_signal(0, 1, ContractRole::Survive, 2);
        assert!(so.start_migration && !so.all_signals);
        assert!(s.is_merging());
        // Old-epoch data still joins τ∪Δ — and Δ′ too, since a survivor
        // keeps everything.
        let s_old = Tuple::new(Rel::S, 3, 5, 0);
        let o = s.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        assert!(!o.forward_to_partner, "survivors forward nothing");
        // New-epoch data joins µ ∪ Δ′ and Keep(τ∪Δ) = all of τ∪Δ.
        let r_new = Tuple::new(Rel::R, 4, 5, 0);
        s.on_data(1, r_new, &mut collect_pairs(&mut pairs));
        let so = s.on_contract_signal(1, 1, ContractRole::Survive, 2);
        assert!(so.all_signals);
        assert!(!s.ready_to_finalize(), "two retiree markers still missing");
        s.on_partner_done();
        assert!(!s.ready_to_finalize());
        s.on_partner_done();
        assert!(s.ready_to_finalize());
        let summary = s.finalize();
        assert_eq!(summary.discarded, 0, "survivors keep everything");
        assert_eq!(summary.merged, 3, "s_old (Δ), s_mu (µ), r_new (Δ′)");
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.stored_tuples(), 4);
        // (1,3): r_old ⋈ s_old; (4,2): r_new ⋈ µ; (4,3): r_new ⋈ Keep(Δ).
        // Note (1,2) is absent: µ probes only Δ′ — the r_old ⋈ s_mu pair
        // is the retiree's to emit (r_old's replica lives there too).
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 3), (4, 2), (4, 3)]);
    }

    #[test]
    fn contraction_retiree_forwards_ships_and_goes_dormant() {
        let mut r = make_joiner(2);
        let mut pairs = Vec::new();
        // τ: one tuple of each relation; this retiree forwards only S.
        let r_old = Tuple::new(Rel::R, 1, 7, 0);
        let s_old = Tuple::new(Rel::S, 2, 7, 0);
        r.on_data(0, r_old, &mut collect_pairs(&mut pairs));
        r.on_data(0, s_old, &mut collect_pairs(&mut pairs));
        assert_eq!(pairs, vec![(1, 2)]);
        let role = ContractRole::Retire {
            survivor: 0,
            forward_rel: Some(Rel::S),
        };
        let so = r.on_contract_signal(0, 1, role, 2);
        assert!(so.start_migration);
        assert!(r.is_retiring());
        let snap = r.migration_snapshot();
        assert_eq!(snap.len(), 1, "only the forward relation ships");
        assert_eq!(snap[0].rel, Rel::S);
        // Old-epoch Δ arrivals keep joining τ∪Δ; only S is forwarded.
        let s_delta = Tuple::new(Rel::S, 3, 7, 1);
        let o = r.on_data(0, s_delta, &mut collect_pairs(&mut pairs));
        assert!(o.forward_to_partner, "Δ tuple of the forward relation");
        let r_delta = Tuple::new(Rel::R, 4, 7, 1);
        let o = r.on_data(0, r_delta, &mut collect_pairs(&mut pairs));
        assert!(!o.forward_to_partner, "the other relation stays");
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 2), (1, 3), (4, 2), (4, 3)]);
        let so = r.on_contract_signal(1, 1, role, 2);
        assert!(so.all_signals);
        assert!(r.ready_to_finalize(), "retirees await no markers");
        let summary = r.finalize();
        assert_eq!(summary.merged, 0);
        assert_eq!(summary.discarded, 4, "everything is dropped locally");
        assert_eq!(r.stored_tuples(), 0);
        assert!(!r.is_born(), "retiree is dormant again");
        assert_eq!(r.epoch(), 1, "the ack carries the contraction epoch");
        // Rebirth through the ordinary expansion-child path.
        let s_new = Tuple::new(Rel::S, 5, 9, 0);
        r.on_data(4, s_new, &mut collect_pairs(&mut pairs));
        r.on_parent_done(4);
        r.finalize();
        assert!(r.is_born());
        assert_eq!(r.epoch(), 4);
        assert_eq!(r.stored_tuples(), 1);
    }

    #[test]
    fn diagonal_retiree_ships_nothing() {
        let mut r = make_joiner(2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        r.on_data(0, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
        r.on_data(0, Tuple::new(Rel::S, 2, 1, 0), &mut sink);
        let role = ContractRole::Retire {
            survivor: 0,
            forward_rel: None,
        };
        r.on_contract_signal(0, 1, role, 2);
        assert!(r.migration_snapshot().is_empty());
        let o = r.on_data(0, Tuple::new(Rel::S, 3, 1, 1), &mut sink);
        assert!(!o.forward_to_partner);
        r.on_contract_signal(1, 1, role, 2);
        assert!(r.ready_to_finalize());
        r.finalize();
        assert!(!r.is_born());
    }

    #[test]
    #[should_panic(expected = "retiring joiner received new-epoch data")]
    fn retiree_rejects_new_epoch_data() {
        let mut r = make_joiner(2);
        let mut sink = |_: &Tuple, _: &Tuple| {};
        r.on_contract_signal(
            0,
            1,
            ContractRole::Retire {
                survivor: 0,
                forward_rel: Some(Rel::R),
            },
            2,
        );
        r.on_data(1, Tuple::new(Rel::R, 1, 1, 0), &mut sink);
    }

    #[test]
    fn snapshot_contains_only_exchange_relation() {
        let (mut a, _b, plan) = mid_migration_pair();
        let mut sink = |_: &Tuple, _: &Tuple| {};
        let mut gen = TicketGen::new(3);
        for i in 0..10 {
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            a.on_data(0, Tuple::new(rel, i, i as i64, gen.next()), &mut sink);
        }
        a.on_signal(0, 1, plan.specs[0], 2);
        let snap = a.migration_snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.iter().all(|t| t.rel == Rel::R));
        // Snapshot does not remove: τ still holds everything.
        assert_eq!(a.set_sizes()[0], 10);
    }
}
