//! Fair-share admission: deficit round robin over campaigns.
//!
//! Every campaign driver turns its ready virtual dispatches into admission
//! requests; this module decides *which* of them may occupy the shared real
//! worker pool, and in what order. The policy is classic deficit round
//! robin (DRR):
//!
//! - Each campaign has a **quantum** — admission credit, in cost units
//!   (training rounds) — accrued once per scheduling pass while it has
//!   queued work and spare in-flight capacity.
//! - A queued dispatch is granted when the campaign's accumulated
//!   **deficit** covers its cost; the cost is then deducted. Cheap-round
//!   campaigns therefore get proportionally more *grants*, heavy-round
//!   campaigns proportionally fewer, and long-run admitted cost per
//!   campaign converges to the quantum ratio — wall-clock never enters the
//!   accounting, which is what makes fairness testable deterministically.
//! - A campaign that empties its queue forfeits its remaining deficit
//!   (standard DRR: you cannot bank credit while idle).
//!
//! Two caps bound each campaign regardless of deficit: `max_in_flight`
//! (its evaluations on real workers at once) and the gate-wide
//! `global_in_flight` cap sized to the worker pool. [`DrrState`] is the
//! pure, single-threaded policy — directly unit-testable; [`FairGate`]
//! wraps it in a mutex and pushes grants to campaign drivers through
//! registered notifier callbacks, so drivers block on their own channels,
//! never on the gate.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Mutex;

/// Per-campaign fairness parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrrConfig {
    /// Admission credit accrued per scheduling pass.
    pub quantum: u64,
    /// Cap on this campaign's concurrently admitted dispatches.
    pub max_in_flight: usize,
    /// Cap on this campaign's queued (admitted-pending) dispatches.
    pub max_queued: usize,
}

/// Why an enqueue was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// The member's pending queue is at `max_queued`.
    QueueFull {
        /// The refusing member.
        member: u64,
        /// Its queue-depth cap.
        cap: usize,
    },
    /// The member id is not registered.
    UnknownMember {
        /// The unknown id.
        member: u64,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::QueueFull { member, cap } => {
                write!(f, "member {member} queue is full (cap {cap})")
            }
            GateError::UnknownMember { member } => write!(f, "unknown gate member {member}"),
        }
    }
}

impl std::error::Error for GateError {}

struct Member {
    config: DrrConfig,
    deficit: u64,
    in_flight: usize,
    queue: VecDeque<(u64, u64)>,
}

/// The pure DRR policy state (no locking, no callbacks).
pub struct DrrState {
    members: HashMap<u64, Member>,
    /// Round-robin ring of member ids with queued work. Invariant: every
    /// member with a non-empty queue appears exactly once.
    ring: VecDeque<u64>,
    global_cap: usize,
    global_in_flight: usize,
    next_member: u64,
    next_ticket: u64,
}

impl DrrState {
    /// A gate admitting at most `global_cap` dispatches at once across all
    /// members (size it to the worker pool).
    pub fn new(global_cap: usize) -> Self {
        DrrState {
            members: HashMap::new(),
            ring: VecDeque::new(),
            global_cap: global_cap.max(1),
            global_in_flight: 0,
            next_member: 0,
            next_ticket: 0,
        }
    }

    /// Registers a member, returning its id.
    pub fn register(&mut self, config: DrrConfig) -> u64 {
        let id = self.next_member;
        self.next_member += 1;
        self.members.insert(
            id,
            Member {
                config: DrrConfig {
                    quantum: config.quantum.max(1),
                    max_in_flight: config.max_in_flight.max(1),
                    max_queued: config.max_queued.max(1),
                },
                deficit: 0,
                in_flight: 0,
                queue: VecDeque::new(),
            },
        );
        id
    }

    /// Removes a member, releasing all its admitted capacity. Queued
    /// tickets die with it; the ring entry is lazily skipped.
    pub fn deregister(&mut self, id: u64) {
        if let Some(member) = self.members.remove(&id) {
            self.global_in_flight -= member.in_flight;
        }
    }

    /// Queues one dispatch of the given cost, returning its ticket.
    ///
    /// # Errors
    ///
    /// [`GateError::QueueFull`] at the member's queue cap,
    /// [`GateError::UnknownMember`] for unregistered ids.
    pub fn enqueue(&mut self, id: u64, cost: u64) -> Result<u64, GateError> {
        let member = self
            .members
            .get_mut(&id)
            .ok_or(GateError::UnknownMember { member: id })?;
        if member.queue.len() >= member.config.max_queued {
            return Err(GateError::QueueFull {
                member: id,
                cap: member.config.max_queued,
            });
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if member.queue.is_empty() {
            self.ring.push_back(id);
        }
        member.queue.push_back((ticket, cost.max(1)));
        Ok(ticket)
    }

    /// Returns one admitted dispatch; the member's slot frees up.
    pub fn release(&mut self, id: u64) {
        if let Some(member) = self.members.get_mut(&id) {
            if member.in_flight > 0 {
                member.in_flight -= 1;
                self.global_in_flight -= 1;
            }
        }
    }

    /// Admitted dispatches across all members right now.
    pub fn global_in_flight(&self) -> usize {
        self.global_in_flight
    }

    /// Runs DRR passes until no further grant is possible, returning the
    /// granted `(member, ticket)` pairs in admission order.
    ///
    /// Two details keep the rotation fair when capacity is the binding
    /// constraint (the steady state of a saturated pool, where slots free
    /// one at a time):
    ///
    /// - When global capacity fills **mid-pass**, the pass stops right
    ///   there, so the ring position persists across pumps and the next
    ///   freed slot is offered to the member *after* the last grantee —
    ///   always restarting from the same front would let a cheap-dispatch
    ///   campaign permanently outrun a costly one.
    /// - Deficit accrues on every visited pass (including those where the
    ///   grant then fails on capacity) but is **clamped** to the larger of
    ///   the member's front cost and four quanta: enough bank to ever admit
    ///   its costliest dispatch, never enough to hoard credit while
    ///   saturated and burst far past its share on release.
    pub fn pump(&mut self) -> Vec<(u64, u64)> {
        let mut grants = Vec::new();
        'pumping: loop {
            if self.global_in_flight >= self.global_cap {
                break;
            }
            let mut granted_this_pass = false;
            let mut blocked_on_deficit = false;
            for _ in 0..self.ring.len() {
                if self.global_in_flight >= self.global_cap {
                    // Mid-pass stop: the ring keeps its rotation point.
                    break 'pumping;
                }
                let Some(id) = self.ring.pop_front() else {
                    break;
                };
                let Some(member) = self.members.get_mut(&id) else {
                    continue; // deregistered while ringed
                };
                if member.queue.is_empty() {
                    // Idle members forfeit banked credit and leave the ring.
                    member.deficit = 0;
                    continue;
                }
                if member.in_flight >= member.config.max_in_flight {
                    // Self-capped: no credit accrues the member cannot use.
                    self.ring.push_back(id);
                    continue;
                }
                let front_cost = member.queue.front().map_or(1, |&(_, cost)| cost);
                let bank_cap = front_cost.max(member.config.quantum.saturating_mul(4));
                member.deficit = member
                    .deficit
                    .saturating_add(member.config.quantum)
                    .min(bank_cap);
                while let Some(&(ticket, cost)) = member.queue.front() {
                    if member.in_flight >= member.config.max_in_flight
                        || self.global_in_flight >= self.global_cap
                    {
                        break;
                    }
                    if cost > member.deficit {
                        blocked_on_deficit = true;
                        break;
                    }
                    member.queue.pop_front();
                    member.deficit -= cost;
                    member.in_flight += 1;
                    self.global_in_flight += 1;
                    grants.push((id, ticket));
                    granted_this_pass = true;
                }
                if member.queue.is_empty() {
                    member.deficit = 0;
                } else {
                    self.ring.push_back(id);
                }
            }
            if self.ring.is_empty() {
                break;
            }
            if !granted_this_pass && !blocked_on_deficit {
                // Another pass only helps if someone is short on deficit
                // (quantum accrual is the only thing a pass changes).
                break;
            }
        }
        grants
    }
}

type Notifier = Box<dyn Fn(u64) + Send>;

struct GateInner {
    drr: DrrState,
    notifiers: HashMap<u64, Notifier>,
}

/// The thread-safe gate shared by all campaign drivers.
///
/// Grants are *pushed*: each driver registers a notifier (typically an
/// `mpsc::Sender` wrapper) and blocks on its own channel. All notifier
/// calls happen under the gate lock, which serializes admission order;
/// notifiers must therefore never block (channel sends are fine).
pub struct FairGate {
    inner: Mutex<GateInner>,
}

impl FairGate {
    /// A gate admitting at most `global_cap` dispatches at once.
    pub fn new(global_cap: usize) -> Self {
        FairGate {
            inner: Mutex::new(GateInner {
                drr: DrrState::new(global_cap),
                notifiers: HashMap::new(),
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, GateInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a campaign with its fairness parameters and grant
    /// notifier; returns the member id used in all later calls.
    pub fn register(&self, config: DrrConfig, notifier: impl Fn(u64) + Send + 'static) -> u64 {
        let mut inner = self.locked();
        let id = inner.drr.register(config);
        inner.notifiers.insert(id, Box::new(notifier));
        id
    }

    /// Removes a campaign and rebalances; its queued tickets are dropped.
    pub fn deregister(&self, id: u64) {
        let mut inner = self.locked();
        inner.drr.deregister(id);
        inner.notifiers.remove(&id);
        Self::pump_locked(&mut inner);
    }

    /// Queues one dispatch and pumps; the grant (now or later) arrives via
    /// the member's notifier.
    ///
    /// # Errors
    ///
    /// See [`DrrState::enqueue`].
    pub fn enqueue(&self, id: u64, cost: u64) -> Result<u64, GateError> {
        let mut inner = self.locked();
        let ticket = inner.drr.enqueue(id, cost)?;
        Self::pump_locked(&mut inner);
        Ok(ticket)
    }

    /// Returns one admitted dispatch and pumps freed capacity to waiters.
    pub fn release(&self, id: u64) {
        let mut inner = self.locked();
        inner.drr.release(id);
        Self::pump_locked(&mut inner);
    }

    /// Admitted dispatches across all members right now.
    pub fn global_in_flight(&self) -> usize {
        self.locked().drr.global_in_flight()
    }

    fn pump_locked(inner: &mut GateInner) {
        for (member, ticket) in inner.drr.pump() {
            if let Some(notify) = inner.notifiers.get(&member) {
                notify(ticket);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(quantum: u64, max_in_flight: usize, max_queued: usize) -> DrrConfig {
        DrrConfig {
            quantum,
            max_in_flight,
            max_queued,
        }
    }

    /// The fairness acceptance check, at the accounting level (no threads,
    /// no wall clock): a greedy campaign with a huge backlog cannot starve
    /// a small one — the small campaign's dispatches finish within a
    /// bounded number of total grants.
    #[test]
    fn greedy_backlog_cannot_starve_a_small_campaign() {
        const GLOBAL_CAP: usize = 4;
        let mut drr = DrrState::new(GLOBAL_CAP);
        let greedy = drr.register(config(1, GLOBAL_CAP, 2000));
        let small = drr.register(config(1, GLOBAL_CAP, 64));
        let mut greedy_tickets = std::collections::HashSet::new();
        for _ in 0..1000 {
            greedy_tickets.insert(drr.enqueue(greedy, 1).unwrap());
        }
        let small_jobs = 12;
        let mut small_tickets = std::collections::HashSet::new();
        for _ in 0..small_jobs {
            small_tickets.insert(drr.enqueue(small, 1).unwrap());
        }

        // Drive to completion: grant, then immediately release one admitted
        // slot, so admission order is fully determined by the policy.
        let mut order = Vec::new();
        let mut admitted: VecDeque<u64> = VecDeque::new();
        loop {
            let grants = drr.pump();
            if grants.is_empty() && admitted.is_empty() {
                break;
            }
            for (member, ticket) in grants {
                assert!(drr.global_in_flight() <= GLOBAL_CAP, "global cap violated");
                if member == small {
                    assert!(small_tickets.remove(&ticket));
                } else {
                    assert!(greedy_tickets.remove(&ticket));
                }
                order.push(member);
                admitted.push_back(member);
            }
            let done = admitted.pop_front().unwrap();
            drr.release(done);
        }
        assert_eq!(order.len(), 1000 + small_jobs);
        assert!(small_tickets.is_empty(), "small campaign fully served");

        // Equal quanta ⇒ near-alternating admission: the small campaign's
        // last grant lands within ~2x its fair share of the prefix, not
        // after the greedy backlog.
        let last_small = order
            .iter()
            .rposition(|&member| member == small)
            .expect("small campaign was granted");
        assert!(
            last_small <= 4 * small_jobs,
            "small campaign starved: last grant at position {last_small} of {}",
            order.len()
        );
    }

    /// The core DRR property: with equal quanta, members converge to equal
    /// admitted *cost* shares — a campaign whose dispatches cost 5 rounds
    /// each is granted ~5x less often than a 1-round campaign, instead of
    /// alternating 1:1 with it.
    #[test]
    fn equal_quanta_split_cost_not_grants() {
        let mut drr = DrrState::new(2);
        let cheap = drr.register(config(1, 2, 4096));
        let heavy = drr.register(config(1, 2, 4096));
        for _ in 0..900 {
            drr.enqueue(cheap, 1).unwrap();
            drr.enqueue(heavy, 5).unwrap();
        }
        let mut counts = HashMap::new();
        let mut admitted: VecDeque<u64> = VecDeque::new();
        for (member, _) in drr.pump() {
            *counts.entry(member).or_insert(0usize) += 1;
            admitted.push_back(member);
        }
        for _ in 0..500 {
            if let Some(done) = admitted.pop_front() {
                drr.release(done);
            }
            for (member, _) in drr.pump() {
                assert!(drr.global_in_flight() <= 2);
                *counts.entry(member).or_insert(0usize) += 1;
                admitted.push_back(member);
            }
        }
        let cheap_grants = counts.get(&cheap).copied().unwrap_or(0);
        let heavy_grants = counts.get(&heavy).copied().unwrap_or(0);
        assert!(heavy_grants > 0, "heavy member starved");
        let grant_ratio = cheap_grants as f64 / heavy_grants as f64;
        assert!(
            (3.5..=6.5).contains(&grant_ratio),
            "5x dispatch cost should mean ~5x fewer grants, \
             got {cheap_grants}:{heavy_grants}"
        );
        // Admitted cost (rounds) is what equalizes.
        let cost_ratio = cheap_grants as f64 / (heavy_grants * 5) as f64;
        assert!(
            (0.75..=1.25).contains(&cost_ratio),
            "cost shares should be near-equal, got {cheap_grants} vs {}",
            heavy_grants * 5
        );
    }

    #[test]
    fn caps_are_hard() {
        let mut drr = DrrState::new(8);
        let member = drr.register(config(100, 2, 3));
        for _ in 0..3 {
            drr.enqueue(member, 1).unwrap();
        }
        // Queue cap: the fourth enqueue is refused.
        assert!(matches!(
            drr.enqueue(member, 1),
            Err(GateError::QueueFull { cap: 3, .. })
        ));
        // In-flight cap: plenty of deficit and global room, two grants only.
        let grants = drr.pump();
        assert_eq!(grants.len(), 2);
        assert_eq!(drr.members[&member].in_flight, 2);
        assert_eq!(drr.members[&member].queue.len(), 1);
        // No progress without a release, then exactly one more.
        assert!(drr.pump().is_empty());
        drr.release(member);
        assert_eq!(drr.pump().len(), 1);
        assert!(matches!(
            drr.enqueue(999, 1),
            Err(GateError::UnknownMember { member: 999 })
        ));
    }

    #[test]
    fn costly_dispatches_wait_for_deficit() {
        let mut drr = DrrState::new(8);
        let member = drr.register(config(2, 8, 8));
        drr.enqueue(member, 5).unwrap();
        // Cost 5 at quantum 2: admitted once accrued passes cover it; a
        // single pump keeps passing (capacity is free) until it grants.
        let grants = drr.pump();
        assert_eq!(grants.len(), 1);
        // Idle members forfeit leftover deficit.
        drr.release(member);
        drr.enqueue(member, 5).unwrap();
        assert_eq!(drr.pump().len(), 1, "deficit was reset while idle");
    }

    #[test]
    fn deregister_releases_global_capacity() {
        let mut drr = DrrState::new(2);
        // Quantum 2 covers both of a's unit dispatches in one visit, so a
        // fills the whole gate before b is considered.
        let a = drr.register(config(2, 2, 8));
        let b = drr.register(config(1, 2, 8));
        drr.enqueue(a, 1).unwrap();
        drr.enqueue(a, 1).unwrap();
        drr.enqueue(b, 1).unwrap();
        assert_eq!(drr.pump().len(), 2, "global cap fills with member a");
        // Member a dies (campaign failed) while holding both slots.
        drr.deregister(a);
        assert_eq!(drr.global_in_flight(), 0);
        assert_eq!(drr.pump().len(), 1, "member b admitted after the crash");
    }

    #[test]
    fn fair_gate_pushes_grants_through_notifiers() {
        use std::sync::mpsc;
        let gate = FairGate::new(2);
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        let a = gate.register(config(1, 2, 8), move |ticket| {
            let _ = tx_a.send(ticket);
        });
        let b = gate.register(config(1, 2, 8), move |ticket| {
            let _ = tx_b.send(ticket);
        });
        let t0 = gate.enqueue(a, 1).unwrap();
        let t1 = gate.enqueue(a, 1).unwrap();
        let t2 = gate.enqueue(b, 1).unwrap();
        // Global cap 2: both of a's grants arrive eagerly, b waits.
        assert_eq!(rx_a.try_recv().unwrap(), t0);
        assert_eq!(rx_a.try_recv().unwrap(), t1);
        assert!(rx_b.try_recv().is_err());
        gate.release(a);
        assert_eq!(rx_b.try_recv().unwrap(), t2);
        gate.release(a);
        gate.release(b);
        assert_eq!(gate.global_in_flight(), 0);
        gate.deregister(a);
        gate.deregister(b);
    }
}
