//! Input-queued switch scheduling on top of the BNB fabric.
//!
//! A permutation network moves at most one record per input and per output
//! each pass. Real traffic is bursty — several records at one input, many
//! records for one output — so a switch wraps the fabric with input queues
//! and a scheduler that decomposes the demand into a sequence of partial
//! permutations (one fabric round each). This module implements that
//! wrapper with two disciplines:
//!
//! - [`QueueDiscipline::Fifo`] — one FIFO per input; only the head-of-line
//!   record may depart, exhibiting classic HOL blocking.
//! - [`QueueDiscipline::Voq`] — virtual output queues (one queue per
//!   input×output pair); the greedy matcher with rotating priority avoids
//!   HOL blocking entirely.
//!
//! Each round is routed through [`BnbNetwork::route_partial`], so every
//! delivery exercises the real self-routing fabric.

use std::collections::VecDeque;

use bnb_core::batch::FrameBatch;
use bnb_core::error::RouteError;
use bnb_core::network::BnbNetwork;
use bnb_obs::{NoopObserver, Observer, RoundEvent};
use bnb_topology::record::Record;
use serde::{Deserialize, Serialize};

/// How pending records are queued at the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// One FIFO per input; only the head may depart (HOL blocking).
    Fifo,
    /// Virtual output queues: per input×output FIFO, no HOL blocking.
    #[default]
    Voq,
}

/// Result of draining a traffic set through the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Fabric rounds used.
    pub rounds: usize,
    /// Records delivered.
    pub delivered: usize,
    /// The congestion lower bound: `max(max input backlog, max output
    /// demand)` — no schedule can beat this many rounds.
    pub lower_bound: usize,
}

impl ScheduleStats {
    /// Scheduling efficiency: `lower_bound / rounds` (1.0 = optimal).
    pub fn efficiency(&self) -> f64 {
        if self.rounds == 0 {
            1.0
        } else {
            self.lower_bound as f64 / self.rounds as f64
        }
    }
}

/// An input-queued switch around a BNB fabric.
///
/// # Example
///
/// ```
/// use bnb_core::network::BnbNetwork;
/// use bnb_sim::scheduler::{QueueDiscipline, VoqSwitch};
/// use bnb_topology::record::Record;
///
/// let mut sw = VoqSwitch::new(BnbNetwork::builder_for(4)?.build(), QueueDiscipline::Voq);
/// // Two records at input 0, for different outputs.
/// sw.offer(0, Record::new(2, 10))?;
/// sw.offer(0, Record::new(1, 11))?;
/// sw.offer(3, Record::new(0, 12))?;
/// let stats = sw.run_to_completion(16)?;
/// assert_eq!(stats.delivered, 3);
/// assert_eq!(stats.rounds, 2); // input 0 needs two rounds
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct VoqSwitch {
    network: BnbNetwork,
    discipline: QueueDiscipline,
    /// queues[input][output] for VOQ; queues[input][0] for FIFO.
    queues: Vec<Vec<VecDeque<Record>>>,
    /// Rotating priority pointer for fairness.
    priority: usize,
    delivered: Vec<Record>,
    /// Fabric rounds committed over this switch's lifetime (the `round`
    /// index reported in [`bnb_obs::RoundEvent`]s).
    rounds_run: u64,
}

impl VoqSwitch {
    /// A switch around `network` with the given discipline.
    pub fn new(network: BnbNetwork, discipline: QueueDiscipline) -> Self {
        let n = network.inputs();
        let per_input = match discipline {
            QueueDiscipline::Fifo => 1,
            QueueDiscipline::Voq => n,
        };
        VoqSwitch {
            network,
            discipline,
            queues: (0..n).map(|_| vec![VecDeque::new(); per_input]).collect(),
            priority: 0,
            delivered: Vec::new(),
            rounds_run: 0,
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &BnbNetwork {
        &self.network
    }

    /// Enqueues a record at `input`.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::DestinationTooWide`] /
    /// [`RouteError::WidthMismatch`] for malformed offers.
    pub fn offer(&mut self, input: usize, record: Record) -> Result<(), RouteError> {
        let n = self.network.inputs();
        if input >= n {
            return Err(RouteError::WidthMismatch {
                expected: n,
                actual: input,
            });
        }
        if record.dest() >= n {
            return Err(RouteError::DestinationTooWide {
                dest: record.dest(),
                n,
            });
        }
        let slot = match self.discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Voq => record.dest(),
        };
        self.queues[input][slot].push_back(record);
        Ok(())
    }

    /// Records still queued.
    pub fn backlog(&self) -> usize {
        self.queues.iter().flatten().map(VecDeque::len).sum()
    }

    /// Records delivered so far, in delivery order.
    pub fn delivered(&self) -> &[Record] {
        &self.delivered
    }

    /// The congestion lower bound of the *current* backlog.
    pub fn lower_bound(&self) -> usize {
        let n = self.network.inputs();
        let max_in = self
            .queues
            .iter()
            .map(|qs| qs.iter().map(VecDeque::len).sum())
            .fold(0, usize::max);
        let mut out_demand = vec![0usize; n];
        for qs in &self.queues {
            for q in qs {
                for r in q {
                    out_demand[r.dest()] += 1;
                }
            }
        }
        max_in.max(out_demand.into_iter().max().unwrap_or(0))
    }

    /// Runs one fabric round: greedily matches queued records to free
    /// outputs (respecting the discipline), routes the partial permutation
    /// through the BNB network, and dequeues the delivered records.
    ///
    /// Returns the number of records delivered this round.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors (which cannot occur for traffic validated
    /// by [`VoqSwitch::offer`]).
    pub fn step(&mut self) -> Result<usize, RouteError> {
        self.step_observed(&NoopObserver)
    }

    /// [`VoqSwitch::step`] with an observer: after the round commits, one
    /// [`RoundEvent`] reports the round index, the matched (= delivered)
    /// count, and the backlog remaining after the round.
    ///
    /// # Errors
    ///
    /// Same contract as [`VoqSwitch::step`].
    pub fn step_observed<O: Observer>(&mut self, observer: &O) -> Result<usize, RouteError> {
        let (slots, picks) = self.plan_round();
        let outcome = self.network.route_partial_observed(&slots, observer)?;
        let mut count = 0usize;
        for delivered in outcome.outputs.iter().flatten() {
            self.delivered.push(*delivered);
            count += 1;
        }
        let round = self.rounds_run;
        self.commit_round(picks);
        if observer.enabled() {
            observer.scheduler_round(RoundEvent {
                round,
                matched: count,
                backlog: self.backlog(),
            });
        }
        Ok(count)
    }

    /// Greedily matches queued records to free outputs for one round,
    /// without touching the queues. Returns the per-input fabric slots and
    /// the `(input, queue slot)` picks to dequeue once the round is
    /// committed.
    ///
    /// The matching reads only the queue state and the rotating priority —
    /// never a routing result — so an entire drain can be planned up front
    /// and the rounds batch-routed afterwards (see
    /// [`VoqSwitch::run_to_completion_engine`]).
    #[allow(clippy::type_complexity)]
    fn plan_round(&self) -> (Vec<Option<Record>>, Vec<Option<(usize, usize)>>) {
        let n = self.network.inputs();
        let mut claimed = vec![false; n];
        let mut slots: Vec<Option<Record>> = vec![None; n];
        let mut picks: Vec<Option<(usize, usize)>> = vec![None; n]; // (input, queue slot)
        for off in 0..n {
            let input = (self.priority + off) % n;
            match self.discipline {
                QueueDiscipline::Fifo => {
                    if let Some(head) = self.queues[input][0].front() {
                        if !claimed[head.dest()] {
                            claimed[head.dest()] = true;
                            slots[input] = Some(*head);
                            picks[input] = Some((input, 0));
                        }
                        // else: HOL blocked — nothing departs from this
                        // input even if deeper records have free outputs.
                    }
                }
                QueueDiscipline::Voq => {
                    // Pick the first nonempty VOQ whose output is free,
                    // scanning outputs from the rotating pointer too.
                    for doff in 0..n {
                        let dest = (self.priority + doff) % n;
                        if claimed[dest] {
                            continue;
                        }
                        if let Some(head) = self.queues[input][dest].front() {
                            claimed[dest] = true;
                            slots[input] = Some(*head);
                            picks[input] = Some((input, dest));
                            break;
                        }
                    }
                }
            }
        }
        (slots, picks)
    }

    /// Dequeues a planned round's picks and advances the priority pointer.
    ///
    /// Returns the dequeued records with their queue coordinates, in pick
    /// order, so a caller that commits rounds ahead of routing them can
    /// undo the commit if routing later fails (see
    /// [`Self::uncommit_round`]).
    fn commit_round(&mut self, picks: Vec<Option<(usize, usize)>>) -> Vec<(usize, usize, Record)> {
        let mut undo = Vec::new();
        for pick in picks.into_iter().flatten() {
            let (input, slot) = pick;
            let record = self.queues[input][slot]
                .pop_front()
                .expect("planned picks reference queued records");
            undo.push((input, slot, record));
        }
        self.priority = (self.priority + 1) % self.network.inputs();
        self.rounds_run += 1;
        undo
    }

    /// Reverses one [`Self::commit_round`]: pushes the dequeued records
    /// back at their queue fronts and rewinds the priority pointer. Rounds
    /// must be uncommitted in reverse commit order (successive rounds may
    /// pop the same queue).
    fn uncommit_round(&mut self, undo: Vec<(usize, usize, Record)>) {
        for (input, slot, record) in undo.into_iter().rev() {
            self.queues[input][slot].push_front(record);
        }
        let n = self.network.inputs();
        self.priority = (self.priority + n - 1) % n;
        self.rounds_run -= 1;
    }

    /// Steps until the backlog drains or `max_rounds` is reached.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from [`VoqSwitch::step`].
    pub fn run_to_completion(&mut self, max_rounds: usize) -> Result<ScheduleStats, RouteError> {
        self.run_to_completion_observed(max_rounds, &NoopObserver)
    }

    /// [`VoqSwitch::run_to_completion`] with an observer receiving one
    /// [`RoundEvent`] per fabric round (see [`VoqSwitch::step_observed`]).
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from [`VoqSwitch::step`].
    pub fn run_to_completion_observed<O: Observer>(
        &mut self,
        max_rounds: usize,
        observer: &O,
    ) -> Result<ScheduleStats, RouteError> {
        let lower_bound = self.lower_bound();
        let mut rounds = 0usize;
        let mut delivered = 0usize;
        while self.backlog() > 0 && rounds < max_rounds {
            delivered += self.step_observed(observer)?;
            rounds += 1;
        }
        Ok(ScheduleStats {
            rounds,
            delivered,
            lower_bound,
        })
    }

    /// Drains the backlog by batch-routing every round through the
    /// concurrent [`bnb_engine::Engine`] instead of round-by-round fabric
    /// calls.
    ///
    /// The greedy matching never looks at a routing result, so all rounds
    /// are planned up front, their destination-completed frames (see
    /// [`BnbNetwork::completed_frame`]) are pipelined through the engine's
    /// bounded queue, and deliveries are reconstructed in the same
    /// per-round output order — byte-identical state and `delivered()`
    /// sequence to [`VoqSwitch::run_to_completion`].
    ///
    /// The engine runs on the network's width-64 index sibling
    /// ([`BnbNetwork::index_sibling`]), since planned frames carry input
    /// indices as payloads.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors (which cannot occur for traffic validated
    /// by [`VoqSwitch::offer`]). On error the switch state matches
    /// [`VoqSwitch::run_to_completion`]'s per-round semantics: rounds
    /// before the failing one are committed and delivered, while the
    /// failing round and everything planned after it are rolled back, so
    /// their records remain queued.
    pub fn run_to_completion_engine(
        &mut self,
        max_rounds: usize,
        config: bnb_engine::EngineConfig,
    ) -> Result<ScheduleStats, RouteError> {
        self.run_to_completion_engine_observed(max_rounds, config, &NoopObserver)
    }

    /// [`VoqSwitch::run_to_completion_engine`] with an observer. The
    /// observer is shared with the engine workers (batch submit/drain,
    /// shard hand-off, column and sweep events), and additionally receives
    /// the same per-round [`RoundEvent`] stream the sequential
    /// [`VoqSwitch::run_to_completion_observed`] drain would emit —
    /// reconstructed from the planned rounds, since the engine drain
    /// commits all rounds up front.
    ///
    /// # Errors
    ///
    /// Same contract as [`VoqSwitch::run_to_completion_engine`].
    pub fn run_to_completion_engine_observed<O: Observer>(
        &mut self,
        max_rounds: usize,
        config: bnb_engine::EngineConfig,
        observer: &O,
    ) -> Result<ScheduleStats, RouteError> {
        let lower_bound = self.lower_bound();
        let first_round = self.rounds_run;
        // Phase 1: plan every round (pure queue-state bookkeeping),
        // keeping each commit's undo log so unrouted rounds can be rolled
        // back if a later phase errors.
        let mut planned_slots = Vec::new();
        let mut undo_log = Vec::new();
        while self.backlog() > 0 && planned_slots.len() < max_rounds {
            let (slots, picks) = self.plan_round();
            planned_slots.push(slots);
            undo_log.push(self.commit_round(picks));
        }
        // Phase 2: one engine run routes all rounds; drain preserves
        // submission (= round) order, so `results[k]` is round `k`. A
        // frame-construction error ends submission early: it becomes that
        // round's result and later rounds simply have none.
        let engine =
            bnb_engine::Engine::with_observer(self.network.index_sibling(), config, observer);
        let mut results: Vec<Result<Vec<Record>, RouteError>> =
            Vec::with_capacity(planned_slots.len());
        engine.run(|h| {
            // Rounds are grouped into frame batches so the engine routes
            // them through the batched word-parallel kernel (full SWAR
            // occupancy however small the network); each frame still
            // drains as its own in-order result, so `results[k]` remains
            // round `k`. The group size trades kernel occupancy against
            // pipelining across workers.
            const FRAMES_PER_BATCH: usize = 32;
            let n = self.network.inputs();
            let mut group = FrameBatch::new(n);
            let mut pending = 0usize;
            for slots in &planned_slots {
                match self.network.completed_frame(slots) {
                    Ok(frame) => {
                        group.push_frame(&frame);
                        if group.frames() >= FRAMES_PER_BATCH {
                            pending += group.frames();
                            h.submit(std::mem::replace(&mut group, FrameBatch::new(n)));
                        }
                    }
                    Err(e) => {
                        // Rounds planned before the failing one are
                        // already grouped; they must still route.
                        if !group.is_empty() {
                            pending += group.frames();
                            h.submit(std::mem::replace(&mut group, FrameBatch::new(n)));
                        }
                        for _ in 0..pending {
                            let batch = h.drain().expect("every submitted round completes");
                            results.push(
                                batch
                                    .result
                                    .map_err(bnb_engine::EngineError::into_route_error),
                            );
                        }
                        results.push(Err(e));
                        return;
                    }
                }
                // Opportunistically collect finished rounds so results
                // don't pile up while we keep the queue fed.
                while let Some(batch) = h.try_drain() {
                    results.push(
                        batch
                            .result
                            .map_err(bnb_engine::EngineError::into_route_error),
                    );
                    pending -= 1;
                }
            }
            if !group.is_empty() {
                pending += group.frames();
                h.submit(group);
            }
            for _ in 0..pending {
                let batch = h.drain().expect("every submitted round completes");
                results.push(
                    batch
                        .result
                        .map_err(bnb_engine::EngineError::into_route_error),
                );
            }
        });
        // Phase 3: reconstruct deliveries in per-round output order. The
        // first failed round stops delivery; it and every later planned
        // round are uncommitted (in reverse order) before propagating.
        let total = planned_slots.len();
        // Round events are reconstructed to match the sequential drain:
        // every planned slot delivers, so round `k`'s matched count is its
        // slot count and its post-round backlog is the committed backlog
        // plus everything still waiting in later planned rounds.
        let observing = observer.enabled();
        let matched_per_round: Vec<usize> = if observing {
            planned_slots
                .iter()
                .map(|s| s.iter().flatten().count())
                .collect()
        } else {
            Vec::new()
        };
        let mut later_matched: usize = matched_per_round.iter().sum();
        let committed_backlog = self.backlog();
        let mut delivered = 0usize;
        let mut applied = 0usize;
        let mut error = None;
        for (slots, result) in planned_slots.iter().zip(results) {
            match result {
                Ok(lines) => {
                    let outcome = bnb_core::partial::resolve_completed(slots, &lines);
                    for record in outcome.outputs.iter().flatten() {
                        self.delivered.push(*record);
                        delivered += 1;
                    }
                    if observing {
                        later_matched -= matched_per_round[applied];
                        observer.scheduler_round(RoundEvent {
                            round: first_round + applied as u64,
                            matched: matched_per_round[applied],
                            backlog: committed_backlog + later_matched,
                        });
                    }
                    applied += 1;
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = error {
            for round_undo in undo_log.drain(applied..).rev() {
                self.uncommit_round(round_undo);
            }
            return Err(e);
        }
        Ok(ScheduleStats {
            rounds: total,
            delivered,
            lower_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnb_topology::perm::Permutation;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn switch(m: usize, d: QueueDiscipline) -> VoqSwitch {
        VoqSwitch::new(BnbNetwork::new(m), d)
    }

    #[test]
    fn permutation_traffic_drains_in_one_round() {
        for d in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            let mut sw = switch(3, d);
            let p = Permutation::try_from(vec![4, 2, 6, 0, 7, 1, 5, 3]).unwrap();
            for i in 0..8 {
                sw.offer(i, Record::new(p.apply(i), i as u64)).unwrap();
            }
            let stats = sw.run_to_completion(10).unwrap();
            assert_eq!(stats.rounds, 1, "{d:?}");
            assert_eq!(stats.delivered, 8);
            assert_eq!(stats.lower_bound, 1);
            assert!((stats.efficiency() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn all_to_one_takes_exactly_n_rounds() {
        for d in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            let mut sw = switch(3, d);
            for i in 0..8 {
                sw.offer(i, Record::new(5, i as u64)).unwrap();
            }
            let stats = sw.run_to_completion(100).unwrap();
            assert_eq!(stats.rounds, 8, "{d:?}: output 5 serializes");
            assert_eq!(stats.lower_bound, 8);
            assert_eq!(stats.delivered, 8);
        }
    }

    #[test]
    fn voq_avoids_hol_blocking_fifo_suffers() {
        // Classic HOL pattern at N = 4:
        //   input 0 queue: [dest 0, dest 1]
        //   input 1 queue: [dest 0, dest 2]
        // FIFO: round 1 delivers only one "dest 0" head; input 1 (or 0) is
        // blocked although dest 2 (or 1) is idle. VOQ delivers two records
        // per round by reaching past the blocked head.
        let build = |d| {
            let mut sw = switch(2, d);
            sw.offer(0, Record::new(0, 1)).unwrap();
            sw.offer(0, Record::new(1, 2)).unwrap();
            sw.offer(1, Record::new(0, 3)).unwrap();
            sw.offer(1, Record::new(2, 4)).unwrap();
            sw
        };
        let fifo = build(QueueDiscipline::Fifo).run_to_completion(100).unwrap();
        let voq = build(QueueDiscipline::Voq).run_to_completion(100).unwrap();
        assert_eq!(fifo.delivered, 4);
        assert_eq!(voq.delivered, 4);
        assert!(
            voq.rounds < fifo.rounds,
            "VOQ ({}) must beat FIFO ({}) on the HOL pattern",
            voq.rounds,
            fifo.rounds
        );
        assert_eq!(voq.rounds, voq.lower_bound);
    }

    #[test]
    fn random_traffic_drains_and_conserves() {
        let mut rng = StdRng::seed_from_u64(12);
        for d in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            let mut sw = switch(4, d);
            let mut offered = Vec::new();
            for k in 0..200u64 {
                let input = rng.random_range(0..16);
                let r = Record::new(rng.random_range(0..16), k);
                sw.offer(input, r).unwrap();
                offered.push(r);
            }
            let stats = sw.run_to_completion(10_000).unwrap();
            assert_eq!(stats.delivered, 200, "{d:?}");
            assert_eq!(sw.backlog(), 0);
            assert!(stats.rounds >= stats.lower_bound);
            let mut got: Vec<Record> = sw.delivered().to_vec();
            got.sort();
            offered.sort();
            assert_eq!(got, offered, "{d:?}: traffic must be conserved");
        }
    }

    #[test]
    fn voq_efficiency_is_near_optimal_on_uniform_traffic() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut sw = switch(4, QueueDiscipline::Voq);
        for k in 0..400u64 {
            sw.offer(
                rng.random_range(0..16),
                Record::new(rng.random_range(0..16), k),
            )
            .unwrap();
        }
        let stats = sw.run_to_completion(10_000).unwrap();
        assert!(
            stats.efficiency() > 0.5,
            "VOQ greedy matching should stay within 2x of the bound, got {}",
            stats.efficiency()
        );
    }

    #[test]
    fn rotating_priority_is_starvation_free() {
        // All inputs compete for one output forever; the rotating pointer
        // must serve every input before any input is served twice.
        let mut sw = switch(3, QueueDiscipline::Voq);
        for i in 0..8 {
            for k in 0..3u64 {
                sw.offer(i, Record::new(0, (i as u64) * 10 + k)).unwrap();
            }
        }
        let stats = sw.run_to_completion(1000).unwrap();
        assert_eq!(stats.delivered, 24);
        // Group deliveries into rounds of 8: each group of 8 consecutive
        // deliveries must contain every input exactly once.
        let delivered = sw.delivered();
        for window in 0..3 {
            let mut sources: Vec<u64> = delivered[window * 8..(window + 1) * 8]
                .iter()
                .map(|r| r.data() / 10)
                .collect();
            sources.sort_unstable();
            assert_eq!(
                sources,
                (0..8).collect::<Vec<u64>>(),
                "window {window} starved someone"
            );
        }
    }

    #[test]
    fn engine_drain_matches_sequential_drain() {
        use bnb_engine::EngineConfig;
        let mut rng = StdRng::seed_from_u64(21);
        for d in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            for workers in [1usize, 2, 4] {
                let mut seq = switch(3, d);
                for k in 0..60u64 {
                    let input = rng.random_range(0..8);
                    let r = Record::new(rng.random_range(0..8), k);
                    seq.offer(input, r).unwrap();
                }
                let mut eng = seq.clone();
                let seq_stats = seq.run_to_completion(1000).unwrap();
                let eng_stats = eng
                    .run_to_completion_engine(1000, EngineConfig::with_workers(workers))
                    .unwrap();
                assert_eq!(eng_stats, seq_stats, "{d:?} workers={workers}");
                assert_eq!(
                    eng.delivered(),
                    seq.delivered(),
                    "{d:?} workers={workers}: delivery order must be identical"
                );
                assert_eq!(eng.backlog(), 0);
            }
        }
    }

    /// The engine drain's reconstructed round events aggregate exactly
    /// like the sequential drain's live ones.
    #[test]
    fn observed_round_events_match_between_drains() {
        use bnb_engine::EngineConfig;
        use bnb_obs::Counters;
        let mut rng = StdRng::seed_from_u64(41);
        let mut seq = switch(3, QueueDiscipline::Voq);
        for k in 0..60u64 {
            seq.offer(
                rng.random_range(0..8),
                Record::new(rng.random_range(0..8), k),
            )
            .unwrap();
        }
        let mut eng = seq.clone();
        let seq_counters = Counters::new();
        let eng_counters = Counters::new();
        seq.run_to_completion_observed(1000, &seq_counters).unwrap();
        eng.run_to_completion_engine_observed(1000, EngineConfig::with_workers(2), &eng_counters)
            .unwrap();
        let a = seq_counters.snapshot();
        let b = eng_counters.snapshot();
        assert_eq!(a.scheduler_rounds, b.scheduler_rounds);
        assert_eq!(a.records_matched, b.records_matched);
        assert_eq!(a.max_round_backlog, b.max_round_backlog);
        assert!(
            b.batches_drained == b.scheduler_rounds,
            "the shared sink also sees one engine batch per round"
        );
    }

    #[test]
    fn engine_drain_respects_max_rounds() {
        use bnb_engine::EngineConfig;
        let mut sw = switch(2, QueueDiscipline::Voq);
        for i in 0..4 {
            sw.offer(i, Record::new(0, i as u64)).unwrap(); // all-to-one
        }
        let stats = sw
            .run_to_completion_engine(2, EngineConfig::with_workers(2))
            .unwrap();
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.delivered, 2);
        assert_eq!(sw.backlog(), 2);
    }

    /// Committing rounds ahead of routing (as the engine drain does) and
    /// rolling them back must restore the switch byte-for-byte, so an
    /// error mid-drain leaves undelivered records queued instead of lost.
    #[test]
    fn commit_round_undo_restores_switch_state() {
        let mut rng = StdRng::seed_from_u64(31);
        for d in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            let mut sw = switch(3, d);
            for i in 0..8 {
                for k in 0..3u64 {
                    sw.offer(i, Record::new(rng.random_range(0..8), (i as u64) * 10 + k))
                        .unwrap();
                }
            }
            let reference = sw.clone();
            let mut undo_log = Vec::new();
            for _ in 0..3 {
                let (_slots, picks) = sw.plan_round();
                undo_log.push(sw.commit_round(picks));
            }
            assert!(sw.backlog() < reference.backlog(), "{d:?}: rounds dequeued");
            for undo in undo_log.into_iter().rev() {
                sw.uncommit_round(undo);
            }
            assert_eq!(sw.priority, reference.priority, "{d:?}");
            assert_eq!(sw.queues, reference.queues, "{d:?}");
            // The restored switch drains exactly like the untouched one.
            let mut restored = sw;
            let mut pristine = reference;
            let a = restored.run_to_completion(1000).unwrap();
            let b = pristine.run_to_completion(1000).unwrap();
            assert_eq!(a, b, "{d:?}");
            assert_eq!(restored.delivered(), pristine.delivered(), "{d:?}");
        }
    }

    #[test]
    fn offer_validates() {
        let mut sw = switch(2, QueueDiscipline::Voq);
        assert!(sw.offer(9, Record::new(0, 0)).is_err());
        assert!(sw.offer(0, Record::new(9, 0)).is_err());
    }

    #[test]
    fn empty_switch_completes_immediately() {
        let mut sw = switch(2, QueueDiscipline::Fifo);
        let stats = sw.run_to_completion(10).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.delivered, 0);
        assert!((stats.efficiency() - 1.0).abs() < 1e-12);
    }
}
