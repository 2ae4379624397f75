//! Virtual time for discrete-event campaign simulation.
//!
//! The execution engine of [`exec`](crate::exec) answers *how* work fans out
//! over real threads; this module answers *when* work would complete on a
//! simulated federated system. Three pieces compose into a deterministic
//! discrete-event executor (`fedtune_core::drive` under `Clock::Virtual`):
//!
//! - [`VirtualClock`] — a monotone simulated-seconds clock.
//! - [`EventQueue`] — a completion queue with a **total deterministic order**:
//!   events are delivered by `(sim_time, EventKey)`, never by insertion or
//!   arrival order, so a campaign's virtual timeline is bit-identical across
//!   real thread counts (asserted by a property test below).
//! - [`WorkerPool`] — a pool of *virtual* workers with per-worker
//!   availability; assigning a job yields its simulated completion time.
//!
//! [`CostModel`] supplies the job durations: the simulated runtime of one
//! evaluation as a **pure function** of the configuration's canonical
//! fingerprint and the training-round span it covers, seeded through
//! [`fedmath::SeedTree`]. Keying costs by the fingerprint (the same identity
//! the `fedstore` trial ledger addresses records by) means a recorded
//! campaign replays with an identical virtual timeline, and per-client
//! runtime heterogeneity (heavy-tailed stragglers, §3.2 of the paper's
//! systems-noise story) stays reproducible across runs and machines.

use crate::{Result, SimError};
use fedmath::SeedTree;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A monotone virtual clock measured in simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// Creates a clock at simulated time zero.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// The current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock to `time`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `time` is non-finite or would
    /// move the clock backwards — virtual time never regresses.
    pub fn advance_to(&mut self, time: f64) -> Result<()> {
        if !time.is_finite() || time < self.now {
            return Err(SimError::InvalidConfig {
                message: format!("virtual clock cannot advance from {} to {time}", self.now),
            });
        }
        self.now = time;
        Ok(())
    }
}

/// The identity of one in-flight evaluation: the coordinates of its
/// [`TrialRequest`](https://docs.rs/fedhpo)-style `(trial, resource, rep)`
/// triple. Completion events are ordered by `(sim_time, EventKey)`, with the
/// key's lexicographic order breaking simultaneous completions — a total
/// order with no dependence on insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventKey {
    /// Trial identifier of the evaluated configuration.
    pub trial: u64,
    /// Cumulative resource (training rounds) of the evaluation.
    pub resource: u64,
    /// Noise replicate index of the evaluation.
    pub rep: u64,
}

impl EventKey {
    /// Builds a key from its coordinates.
    pub fn new(trial: u64, resource: u64, rep: u64) -> Self {
        EventKey {
            trial,
            resource,
            rep,
        }
    }
}

/// Interns a simulated time as ordering bits. Times are validated
/// non-negative and finite, where `to_bits` ordering coincides with numeric
/// ordering (`-0.0` is normalised to `0.0` first).
fn time_bits(time: f64) -> Result<u64> {
    if !time.is_finite() || time < 0.0 {
        return Err(SimError::InvalidConfig {
            message: format!("event time {time} must be finite and non-negative"),
        });
    }
    Ok((time + 0.0).to_bits())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EventSlot {
    time_bits: u64,
    key: EventKey,
}

/// A discrete-event completion queue with total deterministic ordering.
///
/// Events pop in ascending `(sim_time, key)` order regardless of the order
/// they were pushed in; a `(sim_time, key)` pair may be queued at most once,
/// so there is no tie for arrival order to break (the property test below
/// asserts insertion-order invariance).
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    events: BTreeMap<EventSlot, T>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            events: BTreeMap::new(),
        }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The earliest queued event as `(time, key)`, without removing it.
    ///
    /// The executor core uses this to decide whether the next virtual event
    /// can be delivered (its completion has been fed in) or must be waited
    /// for, without committing to a pop.
    pub fn peek(&self) -> Option<(f64, EventKey)> {
        self.events
            .keys()
            .next()
            .map(|slot| (f64::from_bits(slot.time_bits), slot.key))
    }

    /// Queues `payload` to complete at `time` under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `time` is non-finite or
    /// negative, or if an event with the same `(time, key)` slot is already
    /// queued — duplicate slots would make the pop order depend on insertion
    /// order, which this queue exists to rule out.
    pub fn push(&mut self, time: f64, key: EventKey, payload: T) -> Result<()> {
        let slot = EventSlot {
            time_bits: time_bits(time)?,
            key,
        };
        if self.events.contains_key(&slot) {
            return Err(SimError::InvalidConfig {
                message: format!("duplicate event at time {time} for key {key:?}"),
            });
        }
        self.events.insert(slot, payload);
        Ok(())
    }

    /// Removes and returns the earliest event as `(time, key, payload)`.
    pub fn pop(&mut self) -> Option<(f64, EventKey, T)> {
        let (slot, payload) = self.events.pop_first()?;
        Some((f64::from_bits(slot.time_bits), slot.key, payload))
    }
}

/// A pool of virtual workers, each busy until its `free_at` time.
///
/// The pool models the *simulated* parallelism of a tuning service (how many
/// trials train concurrently); it is independent of the real thread count the
/// evaluation fans out over, which is why virtual timelines are bit-identical
/// across `ExecutionPolicy` settings.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    free_at: Vec<f64>,
}

impl WorkerPool {
    /// Creates a pool of `workers` virtual workers, all free at time zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty pool.
    pub fn new(workers: usize) -> Result<Self> {
        if workers == 0 {
            return Err(SimError::InvalidConfig {
                message: "a virtual worker pool needs at least one worker".into(),
            });
        }
        Ok(WorkerPool {
            free_at: vec![0.0; workers],
        })
    }

    /// The worker that frees up first, as `(worker index, free time)` —
    /// ties resolve to the lowest index.
    pub fn next_free(&self) -> (usize, f64) {
        // `new` refuses an empty pool and no free time is NaN (`assign`
        // adds a finite non-negative duration), so this is `min_by` with the
        // first minimum kept.
        self.free_at
            .iter()
            .enumerate()
            .fold((0, f64::INFINITY), |best, (worker, &free_at)| {
                if free_at.total_cmp(&best.1).is_lt() {
                    (worker, free_at)
                } else {
                    best
                }
            })
    }

    /// Number of workers still busy at simulated time `now` (their booked
    /// completion lies strictly after `now`). Pure accounting for occupancy
    /// metrics — no driver branches on it.
    pub fn busy_at(&self, now: f64) -> usize {
        self.free_at.iter().filter(|&&free| free > now).count()
    }

    /// Books `worker` from `start` for `duration` simulated seconds and
    /// returns the completion time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the worker index is out of
    /// range, the start precedes the worker's availability, or the duration
    /// is negative or non-finite.
    pub fn assign(&mut self, worker: usize, start: f64, duration: f64) -> Result<f64> {
        let free_at = *self
            .free_at
            .get(worker)
            .ok_or_else(|| SimError::InvalidConfig {
                message: format!("worker {worker} is out of range"),
            })?;
        if !start.is_finite() || start < free_at || !duration.is_finite() || duration < 0.0 {
            return Err(SimError::InvalidConfig {
                message: format!(
                    "cannot book worker {worker} (free at {free_at}) from {start} for {duration}s"
                ),
            });
        }
        let completion = start + duration;
        self.free_at[worker] = completion;
        Ok(completion)
    }
}

/// Per-client runtime heterogeneity for the [`CostModel::HeterogeneousClients`]
/// model: every client has a persistent Pareto-distributed speed, each
/// simulated training round samples `clients_per_round` participants and
/// waits for the slowest (the synchronous-FL straggler effect).
///
/// All draws derive from [`SeedTree`] channels of `seed`, keyed by client id
/// (speeds) or `(config fingerprint, round index)` (participation), so the
/// cost of any evaluation is a pure function of its coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientRuntimeModel {
    /// Size of the client population speeds are drawn for.
    pub num_clients: usize,
    /// Clients sampled per training round; the round waits for the slowest.
    pub clients_per_round: usize,
    /// Median per-round client compute time in simulated seconds.
    pub median_client_seconds: f64,
    /// Pareto tail shape of client speeds; values near 1 give a heavy tail
    /// (a few clients are dramatically slower — the stragglers).
    pub tail_alpha: f64,
    /// Fixed simulated cost of one validation evaluation.
    pub eval_seconds: f64,
    /// Root seed of the runtime-heterogeneity randomness.
    pub seed: u64,
}

/// Seed-tree channel for persistent client speeds.
const CHANNEL_SPEED: u64 = 0;
/// Seed-tree channel for per-round participant sampling.
const CHANNEL_ROUND: u64 = 1;

impl ClientRuntimeModel {
    /// A heavy-tailed straggler population: median round second, Pareto tail
    /// `α = 1.1` (the slowest percentile of clients is ~60× the median), and
    /// a half-second evaluation.
    pub fn heavy_tailed(num_clients: usize, clients_per_round: usize, seed: u64) -> Self {
        ClientRuntimeModel {
            num_clients,
            clients_per_round,
            median_client_seconds: 1.0,
            tail_alpha: 1.1,
            eval_seconds: 0.5,
            seed,
        }
    }

    fn validate(&self) -> Result<()> {
        let ok = self.num_clients >= 1
            && (1..=self.num_clients).contains(&self.clients_per_round)
            && self.median_client_seconds.is_finite()
            && self.median_client_seconds > 0.0
            && self.tail_alpha.is_finite()
            && self.tail_alpha > 0.0
            && self.eval_seconds.is_finite()
            && self.eval_seconds >= 0.0;
        if !ok {
            return Err(SimError::InvalidConfig {
                message: format!("invalid client runtime model: {self:?}"),
            });
        }
        Ok(())
    }

    /// The persistent simulated seconds-per-round of `client`: a Pareto draw
    /// scaled so the population median is `median_client_seconds`.
    pub fn client_seconds(&self, client: u64) -> f64 {
        let u: f64 = SeedTree::new(self.seed)
            .child(CHANNEL_SPEED)
            .child(client)
            .rng()
            .gen();
        // Pareto inverse CDF with x_m chosen so the median lands on target:
        // median = x_m · 2^(1/α)  ⇒  x_m = median / 2^(1/α).
        let scale = self.median_client_seconds / 2f64.powf(1.0 / self.tail_alpha);
        scale
            * (1.0 - u)
                .max(f64::MIN_POSITIVE)
                .powf(-1.0 / self.tail_alpha)
    }

    /// Simulated duration of training round `round` of the configuration
    /// with canonical `fingerprint`: the slowest of `clients_per_round`
    /// sampled participants.
    pub fn round_seconds(&self, fingerprint: u64, round: u64) -> f64 {
        let mut rng = SeedTree::new(self.seed)
            .child(CHANNEL_ROUND)
            .derive(&[fingerprint, round])
            .rng();
        (0..self.clients_per_round)
            .map(|_| self.client_seconds(rng.gen_range(0..self.num_clients) as u64))
            .fold(0.0, f64::max)
    }
}

/// Simulated runtime of one evaluation, as a pure function of the evaluated
/// point's canonical fingerprint and the training-round span it pays for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CostModel {
    /// Every evaluation costs exactly one simulated second, regardless of
    /// resource span — the homogeneous model under which the event-driven
    /// driver reproduces the barrier-synchronous driver's selections.
    Unit,
    /// Homogeneous clients: a fixed cost per training round plus a fixed
    /// evaluation cost.
    PerRound {
        /// Simulated seconds per training round.
        round_seconds: f64,
        /// Simulated seconds per validation evaluation.
        eval_seconds: f64,
    },
    /// Heterogeneous clients with persistent heavy-tailed speeds; see
    /// [`ClientRuntimeModel`].
    HeterogeneousClients(ClientRuntimeModel),
}

impl CostModel {
    /// Validates model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for non-finite or negative costs
    /// or an inconsistent client population.
    pub fn validate(&self) -> Result<()> {
        match self {
            CostModel::Unit => Ok(()),
            CostModel::PerRound {
                round_seconds,
                eval_seconds,
            } => {
                let ok = round_seconds.is_finite()
                    && *round_seconds >= 0.0
                    && eval_seconds.is_finite()
                    && *eval_seconds >= 0.0;
                if ok {
                    Ok(())
                } else {
                    Err(SimError::InvalidConfig {
                        message: format!("invalid per-round cost model: {self:?}"),
                    })
                }
            }
            CostModel::HeterogeneousClients(model) => model.validate(),
        }
    }

    /// Simulated seconds one evaluation takes when it trains the
    /// configuration with canonical `fingerprint` from `trained_from` to
    /// `trained_to` cumulative rounds and then evaluates it. A fresh-noise
    /// re-evaluation (`trained_from == trained_to`) pays only the evaluation
    /// part.
    pub fn evaluation_seconds(
        &self,
        fingerprint: u64,
        trained_from: usize,
        trained_to: usize,
    ) -> f64 {
        let rounds = trained_to.saturating_sub(trained_from);
        match self {
            CostModel::Unit => 1.0,
            CostModel::PerRound {
                round_seconds,
                eval_seconds,
            } => rounds as f64 * round_seconds + eval_seconds,
            CostModel::HeterogeneousClients(model) => {
                (trained_from..trained_to)
                    .map(|round| model.round_seconds(fingerprint, round as u64))
                    .sum::<f64>()
                    + model.eval_seconds
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), 0.0);
        clock.advance_to(2.5).unwrap();
        clock.advance_to(2.5).unwrap();
        assert_eq!(clock.now(), 2.5);
        assert!(clock.advance_to(1.0).is_err());
        assert!(clock.advance_to(f64::NAN).is_err());
        assert!(clock.advance_to(f64::INFINITY).is_err());
        assert_eq!(clock.now(), 2.5);
    }

    #[test]
    fn queue_pops_by_time_then_key() {
        let mut queue = EventQueue::new();
        assert!(queue.is_empty());
        assert!(queue.peek().is_none());
        queue.push(3.0, EventKey::new(0, 1, 0), "late").unwrap();
        queue.push(1.0, EventKey::new(9, 1, 0), "early").unwrap();
        queue
            .push(3.0, EventKey::new(0, 0, 1), "tie-low-key")
            .unwrap();
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.peek(), Some((1.0, EventKey::new(9, 1, 0))));
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["early", "tie-low-key", "late"]);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn queue_rejects_bad_times_and_duplicate_slots() {
        let mut queue = EventQueue::new();
        let key = EventKey::new(1, 2, 3);
        assert!(queue.push(-1.0, key, ()).is_err());
        assert!(queue.push(f64::NAN, key, ()).is_err());
        queue.push(1.0, key, ()).unwrap();
        assert!(queue.push(1.0, key, ()).is_err());
        // Same key at a different time is a different slot.
        queue.push(2.0, key, ()).unwrap();
        // Negative zero and zero are the same slot.
        queue.push(0.0, EventKey::new(0, 0, 0), ()).unwrap();
        assert!(queue.push(-0.0, EventKey::new(0, 0, 0), ()).is_err());
    }

    #[test]
    fn worker_pool_books_earliest_free_worker() {
        assert!(WorkerPool::new(0).is_err());
        let mut pool = WorkerPool::new(2).unwrap();
        assert_eq!(pool.next_free(), (0, 0.0));
        assert_eq!(pool.assign(0, 0.0, 5.0).unwrap(), 5.0);
        assert_eq!(pool.next_free(), (1, 0.0));
        assert_eq!(pool.assign(1, 0.0, 2.0).unwrap(), 2.0);
        assert_eq!(pool.busy_at(1.0), 2);
        assert_eq!(pool.busy_at(2.0), 1);
        assert_eq!(pool.busy_at(5.0), 0);
        // Worker 1 frees first; ties resolve to the lowest index.
        assert_eq!(pool.next_free(), (1, 2.0));
        assert_eq!(pool.assign(1, 3.0, 2.0).unwrap(), 5.0);
        assert_eq!(pool.next_free(), (0, 5.0));
        // Booking before availability, with bad durations, or out of range
        // fails.
        assert!(pool.assign(0, 1.0, 1.0).is_err());
        assert!(pool.assign(0, 5.0, -1.0).is_err());
        assert!(pool.assign(0, 5.0, f64::NAN).is_err());
        assert!(pool.assign(7, 0.0, 1.0).is_err());
    }

    #[test]
    fn cost_models_validate() {
        assert!(CostModel::Unit.validate().is_ok());
        assert!(CostModel::PerRound {
            round_seconds: 1.0,
            eval_seconds: 0.0
        }
        .validate()
        .is_ok());
        assert!(CostModel::PerRound {
            round_seconds: -1.0,
            eval_seconds: 0.0
        }
        .validate()
        .is_err());
        assert!(CostModel::PerRound {
            round_seconds: f64::NAN,
            eval_seconds: 0.0
        }
        .validate()
        .is_err());
        let model = ClientRuntimeModel::heavy_tailed(50, 5, 7);
        assert!(CostModel::HeterogeneousClients(model).validate().is_ok());
        for broken in [
            ClientRuntimeModel {
                num_clients: 0,
                ..model
            },
            ClientRuntimeModel {
                clients_per_round: 51,
                ..model
            },
            ClientRuntimeModel {
                median_client_seconds: 0.0,
                ..model
            },
            ClientRuntimeModel {
                tail_alpha: 0.0,
                ..model
            },
            ClientRuntimeModel {
                eval_seconds: -1.0,
                ..model
            },
        ] {
            assert!(CostModel::HeterogeneousClients(broken).validate().is_err());
        }
    }

    #[test]
    fn unit_and_per_round_costs() {
        assert_eq!(CostModel::Unit.evaluation_seconds(1, 0, 5), 1.0);
        assert_eq!(CostModel::Unit.evaluation_seconds(1, 5, 5), 1.0);
        let per_round = CostModel::PerRound {
            round_seconds: 2.0,
            eval_seconds: 0.5,
        };
        assert_eq!(per_round.evaluation_seconds(1, 0, 3), 6.5);
        // Resuming pays only the incremental rounds; a re-evaluation at the
        // reached fidelity pays only the evaluation.
        assert_eq!(per_round.evaluation_seconds(1, 3, 5), 4.5);
        assert_eq!(per_round.evaluation_seconds(1, 5, 5), 0.5);
    }

    #[test]
    fn heterogeneous_costs_are_positional_and_heavy_tailed() {
        let model = ClientRuntimeModel::heavy_tailed(100, 5, 3);
        let cost = CostModel::HeterogeneousClients(model);
        // Pure function of (fingerprint, round span): same inputs, same bits.
        let a = cost.evaluation_seconds(0xfeed, 0, 4);
        let b = cost.evaluation_seconds(0xfeed, 0, 4);
        assert_eq!(a.to_bits(), b.to_bits());
        // Incremental spans compose exactly to the full span minus the extra
        // evaluation overhead.
        let first = cost.evaluation_seconds(0xfeed, 0, 2);
        let second = cost.evaluation_seconds(0xfeed, 2, 4);
        assert!((first + second - model.eval_seconds - a).abs() < 1e-9);
        // Distinct configurations see distinct round draws.
        assert_ne!(a.to_bits(), cost.evaluation_seconds(0xbeef, 0, 4).to_bits());
        // Client speeds are persistent and the population has a heavy tail.
        let speeds: Vec<f64> = (0..1000).map(|c| model.client_seconds(c)).collect();
        assert!(speeds.iter().all(|s| *s > 0.0 && s.is_finite()));
        let slowest = speeds.iter().cloned().fold(0.0, f64::max);
        let median = {
            let mut sorted = speeds.clone();
            sorted.sort_by(f64::total_cmp);
            sorted[sorted.len() / 2]
        };
        assert!(
            slowest > 10.0 * median,
            "tail α = 1.1 should produce stragglers ≫ the median \
             (slowest {slowest:.2}, median {median:.2})"
        );
        assert_eq!(
            model.client_seconds(17).to_bits(),
            model.client_seconds(17).to_bits()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fedmath::rng::rng_for;
    use proptest::prelude::*;
    use rand::Rng;

    /// Builds a deterministic set of events with unique `(time, key)` slots.
    fn event_set(seed: u64, count: usize) -> Vec<(f64, EventKey)> {
        let mut rng = rng_for(seed, 0);
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            // A few duplicated times force key tie-breaks; keys are unique by
            // construction.
            let time = f64::from(rng.gen_range(0u32..(count as u32 / 2).max(1)));
            let key = EventKey::new(i as u64 % 7, (i as u64 / 7) % 5, i as u64 / 35);
            events.push((time, key));
        }
        events
    }

    fn drain(order: &[usize], events: &[(f64, EventKey)]) -> Vec<(u64, EventKey)> {
        let mut queue = EventQueue::new();
        for &i in order {
            let (time, key) = events[i];
            queue.push(time, key, i).unwrap();
        }
        let mut out = Vec::with_capacity(events.len());
        while let Some((time, key, _)) = queue.pop() {
            out.push((time.to_bits(), key));
        }
        out
    }

    proptest! {
        /// The satellite invariant: event delivery is a total order under
        /// `(sim_time, key)` — invariant to seed, queue width, and insertion
        /// order, with no tie ever resolved by arrival.
        #[test]
        fn prop_event_order_is_total_and_insertion_invariant(
            seed in any::<u64>(),
            count in 2usize..60,
        ) {
            let events = event_set(seed, count);
            let forward: Vec<usize> = (0..count).collect();
            let mut shuffle_rng = rng_for(seed, 1);
            let shuffled =
                fedmath::rng::sample_without_replacement(&mut shuffle_rng, count as u64, count)
                    .unwrap()
                    .into_iter()
                    .map(|i| i as usize)
                    .collect::<Vec<usize>>();
            let a = drain(&forward, &events);
            let b = drain(&shuffled, &events);
            prop_assert_eq!(&a, &b);
            // Strictly ascending (sim_time, key): a total order, no equal
            // neighbours possible.
            for window in a.windows(2) {
                let earlier = (window[0].0, window[0].1);
                let later = (window[1].0, window[1].1);
                prop_assert!(earlier < later, "{:?} !< {:?}", earlier, later);
            }
        }

        /// Worker-pool booking is deterministic: replaying the same jobs in
        /// the same order reproduces the same completion times bit for bit.
        #[test]
        fn prop_worker_pool_completions_are_deterministic(
            seed in any::<u64>(),
            workers in 1usize..8,
            jobs in 1usize..40,
        ) {
            let durations: Vec<f64> = {
                let mut rng = rng_for(seed, 2);
                (0..jobs).map(|_| rng.gen_range(0.0..10.0)).collect()
            };
            let book = || {
                let mut pool = WorkerPool::new(workers).unwrap();
                durations
                    .iter()
                    .map(|&d| {
                        let (w, free) = pool.next_free();
                        pool.assign(w, free, d).unwrap().to_bits()
                    })
                    .collect::<Vec<u64>>()
            };
            prop_assert_eq!(book(), book());
        }
    }
}
