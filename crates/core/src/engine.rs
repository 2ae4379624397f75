//! The unified trial execution engine.
//!
//! Every experiment in the paper boils down to the same shape of work: run
//! `N` independent trials (train a pooled configuration, replay a bootstrap
//! RS selection, run one tuner campaign), each needing its own reproducible
//! randomness, and collect the results in trial order. Before this module
//! each of those call sites hand-rolled its own loop over a sequential
//! [`fedmath::SeedStream`], which made the result depend on iteration order
//! and ruled out parallelism.
//!
//! [`TrialRunner`] centralises that pattern:
//!
//! - **Per-trial seed derivation.** Trial `i` receives a [`TrialContext`]
//!   whose [`fedmath::SeedTree`] is derived from `(root_seed, i)` — a pure
//!   function of position, so results are identical no matter how trials are
//!   scheduled.
//! - **Policy-driven fan-out.** Trials execute through
//!   [`fedmath::par::map_range`] at the runner's
//!   [`ExecutionPolicy::effective_threads`], sequentially or across threads,
//!   with bit-identical results (asserted by `tests/determinism.rs`).
//!
//! The runner is an argument: every experiment entry point and
//! [`ConfigPool`](crate::ConfigPool) constructor that fans trials out takes
//! `&TrialRunner` first, and nothing in the library reads the environment to
//! make one. A process builds its runner once, where it starts —
//! [`TrialRunner::from_env`] in a `main`, a pinned
//! [`TrialRunner::sequential`] / [`TrialRunner::new`] in a test — and hands it
//! down. Every fan-out is counted on the global `fedtrace` registry as
//! `engine.trials_planned` / `engine.trials_completed`.

use crate::Result;
use fedmath::SeedTree;
use fedsim::exec::ExecutionPolicy;
use rand::rngs::StdRng;
use std::sync::OnceLock;

/// The reproducible identity of one trial inside a fan-out.
#[derive(Debug, Clone)]
pub struct TrialContext {
    index: usize,
    seeds: SeedTree,
}

impl TrialContext {
    /// The trial's index within its fan-out (`0..count`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The trial's seed tree (rooted at `(root_seed, index)`).
    pub fn seeds(&self) -> &SeedTree {
        &self.seeds
    }

    /// The derived seed on `channel` — use distinct channels for distinct
    /// consumers within one trial (e.g. objective vs. tuner randomness).
    pub fn seed(&self, channel: u64) -> u64 {
        self.seeds.child(channel).seed()
    }

    /// An RNG on `channel`; see [`seed`](Self::seed).
    pub fn rng(&self, channel: u64) -> StdRng {
        self.seeds.child(channel).rng()
    }
}

/// Process-wide trial totals on the global `fedtrace` registry. Write-only —
/// the engine never reads them back, so accounting cannot change a result.
struct EngineCounters {
    planned: fedtrace::Counter,
    completed: fedtrace::Counter,
}

fn engine_counters() -> &'static EngineCounters {
    static COUNTERS: OnceLock<EngineCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = fedtrace::global().registry();
        EngineCounters {
            planned: registry.counter("engine.trials_planned"),
            completed: registry.counter("engine.trials_completed"),
        }
    })
}

/// Executes independent trials under an [`ExecutionPolicy`] with per-trial
/// derived seeds.
#[derive(Debug, Clone, Default)]
pub struct TrialRunner {
    policy: ExecutionPolicy,
}

impl TrialRunner {
    /// Creates a runner with the given policy.
    pub fn new(policy: ExecutionPolicy) -> Self {
        TrialRunner { policy }
    }

    /// A sequential runner.
    pub fn sequential() -> Self {
        TrialRunner::new(ExecutionPolicy::Sequential)
    }

    /// A runner honoring the `FEDTUNE_THREADS` environment override
    /// ([`ExecutionPolicy::from_env`]): all cores unless the variable pins a
    /// thread count. Call it once where a process starts (an example's or
    /// bench's `main`, a test) and pass the runner down, so one environment
    /// variable governs the whole fan-out of a run — with bit-identical
    /// results at any setting.
    pub fn from_env() -> Self {
        TrialRunner::new(ExecutionPolicy::from_env())
    }

    /// The runner's execution policy.
    pub fn policy(&self) -> ExecutionPolicy {
        self.policy
    }

    /// Runs `count` trials of `trial`, returning results in trial order.
    ///
    /// Trial `i` receives a [`TrialContext`] seeded at `(root_seed, i)`;
    /// results are independent of execution order, so sequential and parallel
    /// policies agree bit-for-bit whenever `trial` derives all randomness
    /// from its context.
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) trial error, matching the behaviour
    /// of a sequential short-circuiting loop.
    pub fn run_trials<T, F>(&self, root_seed: u64, count: usize, trial: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&TrialContext) -> Result<T> + Sync,
    {
        let counters = engine_counters();
        counters.planned.add(count as u64);
        let root = SeedTree::new(root_seed);
        let threads = self.policy.effective_threads(count);
        let results = fedmath::par::map_range(threads, count, |index| {
            let result = trial(&TrialContext {
                index,
                seeds: root.child(index as u64),
            });
            counters.completed.incr();
            result
        });
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parallel() -> TrialRunner {
        TrialRunner::new(ExecutionPolicy::parallel_with(4))
    }

    #[test]
    fn trial_contexts_are_positional() {
        let runner = TrialRunner::sequential();
        let seeds_forward = runner.run_trials(7, 8, |ctx| Ok(ctx.seed(0))).unwrap();
        let seeds_parallel = parallel().run_trials(7, 8, |ctx| Ok(ctx.seed(0))).unwrap();
        assert_eq!(seeds_forward, seeds_parallel);
        // Distinct trials, distinct seeds; distinct channels, distinct seeds.
        let unique: std::collections::HashSet<u64> = seeds_forward.iter().copied().collect();
        assert_eq!(unique.len(), 8);
        let channel1 = runner.run_trials(7, 8, |ctx| Ok(ctx.seed(1))).unwrap();
        assert!(seeds_forward.iter().zip(&channel1).all(|(a, b)| a != b));
    }

    #[test]
    fn results_come_back_in_trial_order() {
        let runner = parallel();
        let indices = runner.run_trials(0, 100, |ctx| Ok(ctx.index())).unwrap();
        assert_eq!(indices, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_wins() {
        let runner = parallel();
        let result: Result<Vec<usize>> = runner.run_trials(0, 10, |ctx| {
            if ctx.index() >= 4 {
                Err(crate::CoreError::InvalidConfig {
                    message: format!("trial {}", ctx.index()),
                })
            } else {
                Ok(ctx.index())
            }
        });
        let err = result.unwrap_err();
        assert!(err.to_string().contains("trial 4"), "{err}");
    }

    #[test]
    fn every_fan_out_is_counted_on_the_global_registry() {
        // Other tests in this binary run trials too, so read deltas as
        // lower bounds.
        let registry = fedtrace::global().registry();
        let planned = registry.counter("engine.trials_planned");
        let completed = registry.counter("engine.trials_completed");
        let (planned_before, completed_before) = (planned.value(), completed.value());
        parallel().run_trials(1, 5, |_| Ok(())).unwrap();
        TrialRunner::sequential()
            .run_trials(2, 3, |_| Ok(()))
            .unwrap();
        assert!(planned.value() >= planned_before + 8);
        assert!(completed.value() >= completed_before + 8);
    }

    fn explode_at_three(threads: usize) {
        let runner = TrialRunner::new(ExecutionPolicy::parallel_with(threads));
        let _ = runner.run_trials(0, 8, |ctx| {
            assert!(ctx.index() != 3, "trial {} exploded", ctx.index());
            Ok(ctx.index())
        });
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn a_trial_panic_keeps_its_message_on_one_thread() {
        explode_at_three(1);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn a_trial_panic_keeps_its_message_on_four_threads() {
        explode_at_three(4);
    }

    #[test]
    fn trial_rngs_are_reproducible() {
        use rand::Rng;
        let runner = parallel();
        let draws_a = runner
            .run_trials(3, 4, |ctx| Ok(ctx.rng(0).gen::<u64>()))
            .unwrap();
        let draws_b = runner
            .run_trials(3, 4, |ctx| Ok(ctx.rng(0).gen::<u64>()))
            .unwrap();
        assert_eq!(draws_a, draws_b);
    }
}
