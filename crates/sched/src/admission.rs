//! Admission control: hold each arriving query's cost envelope against a
//! global money/worker-capacity envelope before it gets near the crowd.
//!
//! Queries arrive with their own budget (and optionally a round deadline);
//! the controller admits them into the active set, queues them until
//! capacity frees, or rejects them with a typed reason. The queue is
//! *bounded* — when it fills, further arrivals are rejected immediately
//! (backpressure) instead of accumulating unboundedly.
//!
//! Money accounting is pessimistic: an *admitted* query commits its full
//! pre-execution envelope ([`cdb_core::CostEstimate`], a sound upper
//! bound) against the global budget, and releases it when it finishes.
//! Queued queries commit nothing until promoted, and promotion re-checks
//! the money — the controller never oversubscribes the envelope even if
//! every admitted query hits its worst case.

use std::collections::VecDeque;

use cdb_core::CostEstimate;

/// The global resource envelope concurrent queries are admitted against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Total money available across all concurrently-admitted queries, in
    /// cents. Committed pessimistically at each query's envelope estimate.
    pub budget_cents: u64,
    /// Worker-capacity proxy: queries allowed to run concurrently in one
    /// wave. Arrivals beyond this are queued.
    pub max_active: usize,
    /// Bound on the wait queue. Arrivals past it are rejected
    /// ([`RejectReason::QueueFull`]) — backpressure, not unbounded growth.
    pub queue_capacity: usize,
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope { budget_cents: u64::MAX, max_active: 8, queue_capacity: 64 }
    }
}

/// One query's admission request: its cost envelope plus the resources it
/// arrives with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// The query's id (results and attribution key off it).
    pub query: u64,
    /// Pre-execution cost envelope (see [`cdb_core::cost::estimate`]).
    ///
    /// [`cdb_core::cost::estimate`]: cdb_core::cost::estimate
    pub estimate: CostEstimate,
    /// The money this query is willing to spend, in cents.
    pub budget_cents: u64,
    /// Optional deadline, in the query's own crowd rounds.
    pub deadline_rounds: Option<usize>,
}

/// Why a query was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The query's envelope exceeds the *global* budget even with nothing
    /// else running — it could never be admitted.
    BudgetExceeded {
        /// The query's envelope cost, in cents.
        needed: u64,
        /// The global budget, in cents.
        available: u64,
    },
    /// The bounded wait queue is full (backpressure).
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The query could never run: its envelope exceeds its own budget, its
    /// deadline allows fewer rounds than any run that asks a task needs,
    /// or the envelope admits no query at all (`max_active == 0`).
    Infeasible,
}

impl RejectReason {
    /// Stable label for events and transcripts.
    pub fn kind(&self) -> &'static str {
        match self {
            RejectReason::BudgetExceeded { .. } => "budget-exceeded",
            RejectReason::QueueFull { .. } => "queue-full",
            RejectReason::Infeasible => "infeasible",
        }
    }
}

/// The controller's verdict on one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// In the active set of the current wave.
    Admitted,
    /// Waiting; will be admitted in a later wave as capacity frees.
    Queued {
        /// Position in the wait queue at decision time (0 = next up).
        position: usize,
    },
    /// Turned away with a reason.
    Rejected(RejectReason),
}

/// Tracks the envelope across arrivals and completions.
#[derive(Debug)]
pub struct AdmissionController {
    envelope: Envelope,
    committed_cents: u64,
    active: usize,
    queue: VecDeque<QueryRequest>,
}

impl AdmissionController {
    /// A controller with nothing admitted.
    pub fn new(envelope: Envelope) -> Self {
        AdmissionController { envelope, committed_cents: 0, active: 0, queue: VecDeque::new() }
    }

    /// The envelope this controller enforces.
    pub fn envelope(&self) -> &Envelope {
        &self.envelope
    }

    /// Cents currently committed by the active set.
    pub fn committed_cents(&self) -> u64 {
        self.committed_cents
    }

    /// Queries currently in the active set.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Queries currently waiting.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Decide one arrival. An admitted query commits its envelope cost;
    /// queued and rejected ones commit nothing (queued queries commit at
    /// promotion, in [`admit_wave`](Self::admit_wave)).
    pub fn offer(&mut self, req: QueryRequest) -> AdmissionDecision {
        let need = req.estimate.cost_cents_upper;
        // Per-query feasibility first: these can never succeed, no matter
        // how empty the system is.
        if need > req.budget_cents {
            return AdmissionDecision::Rejected(RejectReason::Infeasible);
        }
        if let Some(d) = req.deadline_rounds {
            let rounds_lower = usize::from(req.estimate.tasks_upper > 0);
            if d < rounds_lower {
                return AdmissionDecision::Rejected(RejectReason::Infeasible);
            }
        }
        // An envelope with no active slot would park the query forever: no
        // completion can ever free one.
        if self.envelope.max_active == 0 {
            return AdmissionDecision::Rejected(RejectReason::Infeasible);
        }
        if need > self.envelope.budget_cents {
            return AdmissionDecision::Rejected(RejectReason::BudgetExceeded {
                needed: need,
                available: self.envelope.budget_cents,
            });
        }
        // Global capacity: run now if a slot and the money are free,
        // otherwise wait — bounded.
        let money_free = self.envelope.budget_cents - self.committed_cents >= need;
        if self.active < self.envelope.max_active && money_free && self.queue.is_empty() {
            self.active += 1;
            self.committed_cents += need;
            return AdmissionDecision::Admitted;
        }
        if self.queue.len() >= self.envelope.queue_capacity {
            return AdmissionDecision::Rejected(RejectReason::QueueFull {
                capacity: self.envelope.queue_capacity,
            });
        }
        self.queue.push_back(req);
        AdmissionDecision::Queued { position: self.queue.len() - 1 }
    }

    /// Release one active query's committed envelope (it finished).
    pub fn complete(&mut self, estimate: &CostEstimate) {
        debug_assert!(self.active > 0, "complete without an active query");
        self.active = self.active.saturating_sub(1);
        self.committed_cents = self.committed_cents.saturating_sub(estimate.cost_cents_upper);
    }

    /// Promote queued queries into freed active slots, FIFO, committing
    /// each promoted query's envelope. Stops at the first queued query the
    /// remaining money cannot cover (head-of-line order is preserved — a
    /// cheap query never overtakes an expensive one that arrived first).
    /// Returns the promoted requests, in queue order.
    pub fn admit_wave(&mut self) -> Vec<QueryRequest> {
        let mut wave = Vec::new();
        while self.active < self.envelope.max_active {
            let Some(front) = self.queue.front() else { break };
            let need = front.estimate.cost_cents_upper;
            if self.envelope.budget_cents - self.committed_cents < need {
                break;
            }
            let req = self.queue.pop_front().expect("front exists");
            self.active += 1;
            self.committed_cents += need;
            wave.push(req);
        }
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(tasks: usize, cents: u64) -> CostEstimate {
        CostEstimate { tasks_upper: tasks, rounds_upper: tasks, cost_cents_upper: cents }
    }

    fn req(query: u64, cents: u64) -> QueryRequest {
        QueryRequest { query, estimate: est(4, cents), budget_cents: cents, deadline_rounds: None }
    }

    #[test]
    fn admits_until_capacity_then_queues_then_rejects() {
        let mut c = AdmissionController::new(Envelope {
            budget_cents: 1_000,
            max_active: 2,
            queue_capacity: 1,
        });
        assert_eq!(c.offer(req(1, 100)), AdmissionDecision::Admitted);
        assert_eq!(c.offer(req(2, 100)), AdmissionDecision::Admitted);
        assert_eq!(c.offer(req(3, 100)), AdmissionDecision::Queued { position: 0 });
        assert_eq!(
            c.offer(req(4, 100)),
            AdmissionDecision::Rejected(RejectReason::QueueFull { capacity: 1 })
        );
        assert_eq!(c.active(), 2);
        assert_eq!(c.queued(), 1);
        assert_eq!(c.committed_cents(), 200, "only the active set commits money");
    }

    #[test]
    fn money_envelope_queues_then_frees_on_completion() {
        let mut c = AdmissionController::new(Envelope {
            budget_cents: 150,
            max_active: 8,
            queue_capacity: 8,
        });
        assert_eq!(c.offer(req(1, 100)), AdmissionDecision::Admitted);
        // Fits capacity but not the remaining money: waits.
        assert_eq!(c.offer(req(2, 100)), AdmissionDecision::Queued { position: 0 });
        c.complete(&est(4, 100));
        let wave = c.admit_wave();
        assert_eq!(wave.len(), 1);
        assert_eq!(wave[0].query, 2);
        assert_eq!(c.committed_cents(), 100);

        // Head of line: promotion stops at the first queued query the free
        // money cannot cover, so a cheaper one behind it waits too.
        let mut c = AdmissionController::new(Envelope {
            budget_cents: 150,
            max_active: 8,
            queue_capacity: 8,
        });
        assert_eq!(c.offer(req(1, 100)), AdmissionDecision::Admitted);
        assert_eq!(c.offer(req(2, 120)), AdmissionDecision::Queued { position: 0 });
        assert_eq!(c.offer(req(3, 10)), AdmissionDecision::Queued { position: 1 });
        assert!(c.admit_wave().is_empty(), "q3 fits the free 50¢ but must not overtake q2");
        c.complete(&est(4, 100));
        let wave = c.admit_wave();
        assert_eq!(wave.iter().map(|r| r.query).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(c.committed_cents(), 130);
    }

    #[test]
    fn oversized_queries_are_rejected_not_queued() {
        let mut c = AdmissionController::new(Envelope {
            budget_cents: 50,
            max_active: 8,
            queue_capacity: 8,
        });
        assert_eq!(
            c.offer(req(1, 100)),
            AdmissionDecision::Rejected(RejectReason::BudgetExceeded {
                needed: 100,
                available: 50
            })
        );
        assert_eq!(c.committed_cents(), 0);
    }

    #[test]
    fn infeasible_requests_never_enter_the_system() {
        let mut c = AdmissionController::new(Envelope::default());
        // Envelope exceeds the query's own budget.
        let poor = QueryRequest {
            query: 1,
            estimate: est(4, 100),
            budget_cents: 10,
            deadline_rounds: None,
        };
        assert_eq!(c.offer(poor), AdmissionDecision::Rejected(RejectReason::Infeasible));
        // A zero-round deadline on a query that must ask tasks.
        let rushed = QueryRequest {
            query: 2,
            estimate: est(4, 100),
            budget_cents: 100,
            deadline_rounds: Some(0),
        };
        assert_eq!(c.offer(rushed), AdmissionDecision::Rejected(RejectReason::Infeasible));
        // An envelope with no active slot: queueing would park it forever.
        let mut none = AdmissionController::new(Envelope { max_active: 0, ..Envelope::default() });
        assert_eq!(none.offer(req(3, 10)), AdmissionDecision::Rejected(RejectReason::Infeasible));
        assert_eq!((none.queued(), none.active(), none.committed_cents()), (0, 0, 0));
        assert!(none.admit_wave().is_empty());
    }

    #[test]
    fn arrivals_behind_a_queue_wait_their_turn() {
        // Even with free slots, an arrival behind queued queries queues —
        // FIFO admission, no overtaking.
        let mut c = AdmissionController::new(Envelope {
            budget_cents: 1_000,
            max_active: 1,
            queue_capacity: 8,
        });
        assert_eq!(c.offer(req(1, 10)), AdmissionDecision::Admitted);
        assert_eq!(c.offer(req(2, 10)), AdmissionDecision::Queued { position: 0 });
        c.complete(&est(4, 10));
        assert_eq!(c.offer(req(3, 10)), AdmissionDecision::Queued { position: 1 });
        let wave = c.admit_wave();
        assert_eq!(wave.iter().map(|r| r.query).collect::<Vec<_>>(), vec![2]);
    }
}
