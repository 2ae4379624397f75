//! The harness's own single-threaded driver over `ExecutorCore`, with a span
//! around every call into a layer, and the `Scheduler` decorator that times
//! `suggest` and `report` from outside.
//!
//! The pump evaluates each dispatch in dispatch order and completes it before
//! stepping again, which is what the repository's blocking driver does, so
//! its outcome must equal the concurrent driver's bit for bit. Because it is
//! single-threaded, the self times of its spans add up to its wall clock.

use crate::harness::Report;
use crate::spans::Spans;
use fedhpo::{Scheduler, SearchSpace, TrialRequest, TrialResult};
use fedtune_core::{
    ConcurrentEval, ConcurrentObjective, ConcurrentSink, CoreError, EventDrivenOutcome,
    ExecutorCore, ExecutorStep, VirtualExecution,
};
use rand::rngs::StdRng;

/// Wraps a scheduler and records a span around each `suggest` and `report`.
pub struct TimedScheduler<'a> {
    inner: Box<dyn Scheduler>,
    spans: &'a Spans,
    id: u64,
    /// Resource of every suggested request, to count promotions afterwards.
    suggested: Vec<usize>,
}

impl<'a> TimedScheduler<'a> {
    pub fn new(inner: Box<dyn Scheduler>, spans: &'a Spans, id: u64) -> Self {
        TimedScheduler {
            inner,
            spans,
            id,
            suggested: Vec::new(),
        }
    }

    /// Suggested requests above the bottom rung.
    pub fn promotions(&self) -> u64 {
        let bottom = self.suggested.iter().copied().min().unwrap_or(0);
        self.suggested.iter().filter(|&&r| r > bottom).count() as u64
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn suggest(
        &mut self,
        space: &SearchSpace,
        rng: &mut StdRng,
    ) -> fedhpo::Result<Vec<TrialRequest>> {
        let _span = self.spans.enter("fedhpo.suggest", self.id);
        let batch = self.inner.suggest(space, rng)?;
        self.suggested.extend(batch.iter().map(|r| r.resource));
        Ok(batch)
    }

    fn report(&mut self, result: &TrialResult) -> fedhpo::Result<()> {
        let _span = self.spans.enter("fedhpo.report", self.id);
        self.inner.report(result)
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn async_capable(&self) -> bool {
        self.inner.async_capable()
    }
}

/// Drives one campaign to its end on the calling thread.
pub fn pump<O: ConcurrentObjective>(
    spans: &Spans,
    id: u64,
    scheduler: &mut dyn Scheduler,
    space: &SearchSpace,
    objective: &mut O,
    rng: &mut StdRng,
    sim: &VirtualExecution,
) -> fedtune_core::Result<EventDrivenOutcome> {
    let _pump = spans.enter("harness.pump", id);
    let (eval, sink) = objective.split();
    let mut core = ExecutorCore::new_traced(scheduler, space, rng, sim, None)?;
    loop {
        let step = {
            let _span = spans.enter("core.step", id);
            core.step()?
        };
        match step {
            ExecutorStep::Dispatch(batch) => {
                for dispatched in batch {
                    let trial = dispatched.request.trial_id;
                    let mut state = {
                        let _span = spans.enter("sink.take_state", id);
                        sink.take_state(trial)
                    };
                    let output = {
                        let _span = spans.enter("objective.evaluate", id);
                        eval.evaluate(&mut state, &dispatched.request)?
                    };
                    {
                        let _span = spans.enter("sink.put_state", id);
                        sink.put_state(trial, state);
                    }
                    {
                        let _span = spans.enter("core.complete", id);
                        let result = TrialResult::of(&dispatched.request, output.noisy_score);
                        core.complete(dispatched.key, result)?;
                    }
                    let _span = spans.enter("sink.commit", id);
                    sink.commit(&dispatched.request, &output, dispatched.sim_completion);
                }
            }
            ExecutorStep::Deliver(key) => {
                return Err(CoreError::InvalidConfig {
                    message: format!("the pump completed every dispatch, yet {key:?} is awaited"),
                });
            }
            ExecutorStep::Finished => break,
        }
    }
    let _span = spans.enter("core.finish", id);
    Ok(core.finish())
}

/// Turns the spans of pumped campaigns into the `core.*` and `fedhpo.*`
/// layer metrics. `core.coverage` is the share of the pump's wall clock that
/// the spans inside it account for.
pub fn layer_metrics(spans: &Spans, promotions: u64, report: &mut Report) {
    let totals = spans.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let pump = get("harness.pump");
    report.layer("core.step_calls", get("core.step").calls as f64);
    report.layer("core.step_self_s", get("core.step").self_s);
    report.layer("core.complete_self_s", get("core.complete").self_s);
    report.layer("core.evaluate_busy_s", get("objective.evaluate").total_s);
    report.layer("core.commit_busy_s", get("sink.commit").total_s);
    if pump.total_s > 0.0 {
        report.layer("core.coverage", (pump.total_s - pump.self_s) / pump.total_s);
    }
    report.layer("fedhpo.suggest_calls", get("fedhpo.suggest").calls as f64);
    report.layer("fedhpo.suggest_busy_s", get("fedhpo.suggest").total_s);
    report.layer("fedhpo.report_calls", get("fedhpo.report").calls as f64);
    report.layer("fedhpo.report_busy_s", get("fedhpo.report").total_s);
    report.layer("fedhpo.promotions", promotions as f64);
}
