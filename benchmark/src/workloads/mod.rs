//! The four workloads. Each takes the run's arguments, makes its inputs from
//! the seed in an untimed set-up phase, warms up once, runs its timed
//! repetitions in a closed loop, checks its outputs and returns a `Report`.

pub mod ledger_cycle;
pub mod pop_noise;
pub mod serve_tenants;
pub mod train_asha;
