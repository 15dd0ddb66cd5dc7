//! The supervision core shared by the broker and the remote scheduler.
//!
//! [`BrokerScheduler`](crate::BrokerScheduler) (worker threads) and
//! [`RemoteScheduler`](crate::RemoteScheduler) (worker processes)
//! promise one failure contract, and [`LeaseTable`] is its only
//! implementation:
//!
//! * every submitted job gets an id and a numbered *delivery*
//!   (`1` = the original submission);
//! * a worker that takes a job holds a *lease* on it: its owner (the
//!   worker's generation, unique per spawned worker) and a deadline of
//!   the task's timeout plus [`SupervisorConfig::grace`];
//! * revoking a lease records a `delivery:<n>:<cause>` lease event and
//!   either redelivers the job as delivery `n + 1` — while fewer than
//!   [`SupervisorConfig::max_redeliveries`] redeliveries happened — or
//!   dead-letters it;
//! * a dead letter's [`TaskState`] follows from its [`Cause`]: an
//!   exhausted cap after at least one redelivery quarantines, an
//!   expired lease times out, a dead worker or a stranded job fails;
//! * the first report for a job wins, whichever delivery sends it;
//!   every later report, and every lease on the ended job, is stale.
//!
//! The table does no I/O, spawns no threads and reads no clock:
//! callers pass `now`, carry out its [`Verdict`]s (requeue, kill,
//! detach, send the report) and keep their own metrics and
//! tracepoints. It is generic over the clock (`T`), so tests can drive
//! it with plain [`Duration`]s.

use crate::task::{TaskReport, TaskState};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Add;
use std::time::{Duration, Instant};

/// Tuning for lease supervision, shared by the broker's supervisor
/// thread and the remote scheduler's coordinator.
///
/// The defaults reproduce the classic watchdog semantics (no
/// redelivery, timeouts reported as timed-out), so redelivery is
/// strictly opt-in per scheduler instance. Construct with
/// [`SupervisorConfig::default`] and override fields as needed:
///
/// ```
/// use simart_tasks::SupervisorConfig;
/// let config = SupervisorConfig { max_redeliveries: 2, ..SupervisorConfig::default() };
/// assert_eq!(config.max_redeliveries, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Interval between supervisor ticks. Lease expiry and worker
    /// death are detected within one heartbeat of happening.
    pub heartbeat: Duration,
    /// Slack added to a task's timeout when computing its lease
    /// deadline, so a task finishing *at* its timeout is not falsely
    /// redelivered. Tasks without a timeout hold open-ended leases and
    /// are only recovered if their worker dies.
    pub grace: Duration,
    /// How many times an expired or orphaned lease may be redelivered
    /// before the task is dead-lettered. `0` (the default) disables
    /// redelivery: an expired lease is reported as timed-out
    /// immediately, matching the pre-supervision watchdog behaviour.
    pub max_redeliveries: u32,
    /// Cap on live detached (presumed-wedged) worker threads. Once
    /// reached, further lease expirations fail fast with a clear error
    /// instead of detaching more threads; the cap frees up again as
    /// the supervisor reaps detached threads that finish.
    pub max_detached: usize,
}

impl SupervisorConfig {
    /// How long a remote worker process may go silent before the
    /// coordinator declares it wedged and recycles it: the lease
    /// grace plus four heartbeat intervals, so a worker must miss
    /// several consecutive heartbeats (not just jitter past one)
    /// before being SIGKILLed.
    pub fn remote_stale_after(&self) -> Duration {
        self.grace + self.heartbeat * 4
    }
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            heartbeat: Duration::from_millis(20),
            grace: Duration::from_millis(100),
            max_redeliveries: 0,
            max_detached: 32,
        }
    }
}

/// Why a lease was revoked or a job stranded. Displays as the
/// `<cause>` of a `delivery:<n>:<cause>` lease event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The worker holding the lease died.
    WorkerDied,
    /// A remote worker stopped heartbeating and was recycled.
    HeartbeatLost,
    /// A remote worker wrote a corrupt frame and was recycled.
    TornFrame,
    /// The lease outlived its deadline (task timeout + grace).
    LeaseExpired,
    /// The dispatch never reached the worker; the job is re-sent under
    /// the same delivery number.
    DispatchLost,
    /// A lease expired while the broker's detached-worker cap was
    /// reached: the job fails fast instead of detaching another thread.
    DetachedCap,
    /// No worker process could be started to deliver the job.
    NoWorkers,
    /// No remote worker was reachable for this long while the job
    /// waited.
    WorkersUnreachable(Duration),
}

impl Cause {
    /// Causes that end a job at once, whatever its redelivery budget.
    fn is_terminal(self) -> bool {
        matches!(
            self,
            Cause::DetachedCap | Cause::NoWorkers | Cause::WorkersUnreachable(_)
        )
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cause::WorkerDied => "worker-died",
            Cause::HeartbeatLost => "heartbeat-lost",
            Cause::TornFrame => "torn-frame",
            Cause::LeaseExpired => "lease-expired",
            Cause::DispatchLost => "dispatch-lost",
            Cause::DetachedCap => "detached-cap",
            Cause::NoWorkers => "no-workers",
            Cause::WorkersUnreachable(_) => "workers-unreachable",
        })
    }
}

/// A report the table accepted: the first one for its job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted<J> {
    /// The job's payload, handed back to deliver the report.
    pub job: J,
    /// Redeliveries before the report (the current delivery minus one).
    pub redeliveries: u32,
    /// The job's lease events, in order.
    pub lease_events: Vec<String>,
}

/// A job the table gave up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadLetter<J> {
    /// The job's payload, handed back to deliver the report.
    pub job: J,
    /// Terminal state: quarantined, timed out or failed.
    pub state: TaskState,
    /// Why, in words.
    pub error: String,
    /// Redeliveries before the end.
    pub redeliveries: u32,
    /// The job's lease events, in order.
    pub lease_events: Vec<String>,
    /// Whether the job held a lease when it ended (`false` for a job
    /// stranded while it waited in a queue).
    pub leased: bool,
}

impl<J> DeadLetter<J> {
    /// The job's terminal report (no attempt ran to completion) and
    /// its payload.
    pub fn into_report(self, name: String, duration: Duration) -> (TaskReport, J) {
        let report = TaskReport {
            name,
            state: self.state,
            output: None,
            error: Some(self.error),
            attempts: 0,
            duration,
            detached: false,
            history: Vec::new(),
            redeliveries: self.redeliveries,
            lease_events: self.lease_events,
        };
        (report, self.job)
    }
}

/// What a revoked lease turns into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<J> {
    /// The job waits for another grant as delivery `delivery`; `job`
    /// is a copy of its payload (the table keeps the original).
    Redeliver {
        /// Copy of the job's payload.
        job: J,
        /// The next delivery number.
        delivery: u32,
    },
    /// The job ended.
    DeadLetter(DeadLetter<J>),
}

struct Lease<T> {
    /// Generation of the worker holding the lease.
    owner: u64,
    granted: T,
    /// `granted + timeout + grace`; `None` for tasks without a timeout.
    deadline: Option<T>,
}

struct Entry<J, T> {
    job: J,
    timeout: Option<Duration>,
    /// 1-based delivery number.
    delivery: u32,
    lease_events: Vec<String>,
    lease: Option<Lease<T>>,
}

/// Open jobs, their deliveries and leases: the pure state machine
/// behind both supervised schedulers (see the module docs).
pub struct LeaseTable<J, T = Instant> {
    config: SupervisorConfig,
    /// Set at shutdown: revocations dead-letter instead of redelivering.
    closed: bool,
    next_id: u64,
    jobs: BTreeMap<u64, Entry<J, T>>,
}

impl<J: Clone, T: Copy + Ord + Add<Duration, Output = T>> LeaseTable<J, T> {
    /// An empty table applying `config`'s grace, redelivery cap and
    /// detached-worker cap.
    pub fn new(config: SupervisorConfig) -> LeaseTable<J, T> {
        LeaseTable {
            config,
            closed: false,
            next_id: 0,
            jobs: BTreeMap::new(),
        }
    }

    /// Opens a job as delivery 1 and returns its id (ids count up from
    /// 1).
    pub fn submit(&mut self, timeout: Option<Duration>, job: J) -> u64 {
        self.next_id += 1;
        let entry = Entry {
            job,
            timeout,
            delivery: 1,
            lease_events: Vec::new(),
            lease: None,
        };
        self.jobs.insert(self.next_id, entry);
        self.next_id
    }

    /// The delivery number and payload of an open job waiting for a
    /// grant; `None` once it ended (a stale queued copy) or while it is
    /// leased.
    pub fn pending(&self, id: u64) -> Option<(u32, &J)> {
        let entry = self.jobs.get(&id).filter(|e| e.lease.is_none())?;
        Some((entry.delivery, &entry.job))
    }

    /// The payload of an open job whose lease is out.
    pub fn leased(&self, id: u64) -> Option<&J> {
        let entry = self.jobs.get(&id).filter(|e| e.lease.is_some())?;
        Some(&entry.job)
    }

    /// Leases a pending job to `owner` at `now`, returning its delivery
    /// number and payload; `None` (stale) when the job is not pending.
    pub fn grant(&mut self, id: u64, owner: u64, now: T) -> Option<(u32, &J)> {
        let grace = self.config.grace;
        let entry = self.jobs.get_mut(&id).filter(|e| e.lease.is_none())?;
        entry.lease = Some(Lease {
            owner,
            granted: now,
            deadline: entry.timeout.map(|timeout| now + timeout + grace),
        });
        Some((entry.delivery, &entry.job))
    }

    /// A report for job `id` arrived, from any delivery: the first one
    /// ends the job and is accepted; `None` means it is stale.
    pub fn complete(&mut self, id: u64) -> Option<Accepted<J>> {
        let entry = self.jobs.remove(&id)?;
        Some(Accepted {
            job: entry.job,
            redeliveries: entry.delivery - 1,
            lease_events: entry.lease_events,
        })
    }

    /// Revokes every lease `owner` holds, for `cause`.
    pub fn owner_lost(&mut self, owner: u64, cause: Cause) -> Vec<(u64, Verdict<J>)> {
        let held: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, e)| e.lease.as_ref().is_some_and(|l| l.owner == owner))
            .map(|(&id, _)| id)
            .collect();
        held.into_iter()
            .filter_map(|id| {
                let entry = self.jobs.remove(&id)?;
                Some((id, self.revoke(id, entry, cause)))
            })
            .collect()
    }

    /// Owners of leases past their deadline at `now`, in job order.
    /// The caller decides how each owner is lost (see
    /// [`Self::owner_lost`]).
    pub fn expired_owners(&self, now: T) -> Vec<u64> {
        self.jobs
            .values()
            .filter_map(|e| e.lease.as_ref())
            .filter(|l| l.deadline.is_some_and(|deadline| now >= deadline))
            .map(|l| l.owner)
            .collect()
    }

    /// The owner of job `id`'s lease reports idle at `now`: if the
    /// lease is at least [`SupervisorConfig::remote_stale_after`] old,
    /// the dispatch never arrived. The lease is revoked with a
    /// `dispatch-lost` event and the job waits for a grant under the
    /// *same* delivery (it never ran, so no redelivery budget is
    /// spent). Returns a copy of the payload to re-send.
    pub fn dispatch_lost(&mut self, id: u64, now: T) -> Option<J> {
        let stale_after = self.config.remote_stale_after();
        let entry = self.jobs.get_mut(&id)?;
        entry
            .lease
            .take_if(|lease| now >= lease.granted + stale_after)?;
        let event = format!("delivery:{}:{}", entry.delivery, Cause::DispatchLost);
        entry.lease_events.push(event);
        Some(entry.job.clone())
    }

    /// Ends every open job for a terminal `cause` (no worker can take
    /// them); leased jobs record the revocation. Returns the dead
    /// letters in job order and leaves the table empty.
    pub fn strand_all(&mut self, cause: Cause) -> Vec<DeadLetter<J>> {
        std::mem::take(&mut self.jobs)
            .into_values()
            .map(|mut entry| {
                if entry.lease.is_some() {
                    let event = format!("delivery:{}:{cause}", entry.delivery);
                    entry.lease_events.push(event);
                }
                self.dead_letter(entry, cause)
            })
            .collect()
    }

    /// Drops an open job without a report (its handle synthesizes one);
    /// returns whether it was open.
    pub fn discard(&mut self, id: u64) -> bool {
        self.jobs.remove(&id).is_some()
    }

    /// Drops every open job without a report.
    pub fn clear(&mut self) {
        self.jobs.clear();
    }

    /// Stops redelivery: from now on every revocation dead-letters.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Whether no job is open.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Open jobs whose lease is out.
    pub fn in_flight(&self) -> usize {
        self.jobs.values().filter(|e| e.lease.is_some()).count()
    }

    fn revoke(&mut self, id: u64, mut entry: Entry<J, T>, cause: Cause) -> Verdict<J> {
        let event = format!("delivery:{}:{cause}", entry.delivery);
        entry.lease_events.push(event);
        let redeliveries = entry.delivery - 1;
        if cause.is_terminal() || self.closed || redeliveries >= self.config.max_redeliveries {
            return Verdict::DeadLetter(self.dead_letter(entry, cause));
        }
        entry.lease = None;
        entry.delivery += 1;
        let verdict = Verdict::Redeliver {
            job: entry.job.clone(),
            delivery: entry.delivery,
        };
        self.jobs.insert(id, entry);
        verdict
    }

    /// Maps a job's end to its terminal state and error text.
    fn dead_letter(&self, entry: Entry<J, T>, cause: Cause) -> DeadLetter<J> {
        let redeliveries = entry.delivery - 1;
        let (state, error) = match cause {
            Cause::DetachedCap => (
                TaskState::TimedOut,
                format!(
                    "task lease expired but the detached-worker cap ({}) is reached; \
                     failing fast without redelivery",
                    self.config.max_detached
                ),
            ),
            Cause::NoWorkers => (
                TaskState::Failed,
                "no live worker processes remain; task cannot be delivered".to_owned(),
            ),
            Cause::WorkersUnreachable(deadline) => (
                TaskState::Failed,
                format!(
                    "no remote worker reachable past the unreachable deadline ({deadline:?}); \
                     the coordinator degraded loudly instead of hanging"
                ),
            ),
            _ if redeliveries > 0 && !self.closed => (
                TaskState::Quarantined,
                format!(
                    "task quarantined: redelivery cap ({}) exhausted after {} deliveries \
                     (last cause: {cause})",
                    self.config.max_redeliveries, entry.delivery
                ),
            ),
            Cause::LeaseExpired => (
                TaskState::TimedOut,
                format!(
                    "task lease expired (timeout {:?} + grace {:?}); no redeliveries allowed",
                    entry.timeout, self.config.grace
                ),
            ),
            _ => (
                TaskState::Failed,
                format!("worker died holding the task lease ({cause}); no redeliveries allowed"),
            ),
        };
        DeadLetter {
            job: entry.job,
            state,
            error,
            redeliveries,
            lease_events: entry.lease_events,
            leased: entry.lease.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(max_redeliveries: u32) -> LeaseTable<&'static str, Duration> {
        LeaseTable::new(SupervisorConfig {
            max_redeliveries,
            ..SupervisorConfig::default()
        })
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn defaults_preserve_watchdog_semantics() {
        let config = SupervisorConfig::default();
        assert_eq!(config.max_redeliveries, 0, "redelivery must be opt-in");
        assert!(config.max_detached > 0);
        assert!(config.heartbeat < config.grace + Duration::from_secs(1));
    }

    #[test]
    fn lease_redelivers_up_to_the_cap_then_quarantines() {
        let mut leases = table(1);
        let id = leases.submit(Some(ms(50)), "job");
        assert_eq!(leases.grant(id, 7, ms(0)), Some((1, &"job")));
        assert_eq!(leases.expired_owners(ms(149)), Vec::<u64>::new());
        assert_eq!(leases.expired_owners(ms(150)), vec![7]);
        let verdicts = leases.owner_lost(7, Cause::LeaseExpired);
        assert_eq!(
            verdicts,
            vec![(
                id,
                Verdict::Redeliver {
                    job: "job",
                    delivery: 2
                }
            )]
        );
        assert_eq!(leases.grant(id, 8, ms(200)), Some((2, &"job")));
        let Verdict::DeadLetter(letter) = leases.owner_lost(8, Cause::WorkerDied).remove(0).1
        else {
            panic!("the cap is exhausted");
        };
        assert_eq!(letter.state, TaskState::Quarantined);
        assert_eq!(letter.redeliveries, 1);
        assert_eq!(
            letter.lease_events,
            vec!["delivery:1:lease-expired", "delivery:2:worker-died"]
        );
        assert_eq!(
            letter.error,
            "task quarantined: redelivery cap (1) exhausted after 2 deliveries \
             (last cause: worker-died)"
        );
        assert!(leases.is_empty());
    }

    #[test]
    fn lease_causes_map_to_terminal_states_without_redelivery() {
        for (cause, state) in [
            (Cause::LeaseExpired, TaskState::TimedOut),
            (Cause::WorkerDied, TaskState::Failed),
            (Cause::DetachedCap, TaskState::TimedOut),
        ] {
            let mut leases = table(0);
            let id = leases.submit(None, "job");
            leases.grant(id, 1, ms(0));
            match leases.owner_lost(1, cause).remove(0).1 {
                Verdict::DeadLetter(letter) => assert_eq!(letter.state, state, "{cause}"),
                other => panic!("{cause} redelivered with no budget: {other:?}"),
            }
        }
        // Terminal causes end the job even with budget left.
        let mut leases = table(3);
        let id = leases.submit(None, "job");
        leases.grant(id, 1, ms(0));
        assert!(matches!(
            leases.owner_lost(1, Cause::DetachedCap).remove(0).1,
            Verdict::DeadLetter(DeadLetter {
                state: TaskState::TimedOut,
                ..
            })
        ));
    }

    #[test]
    fn lease_first_report_wins_and_later_ones_are_stale() {
        let mut leases = table(2);
        let id = leases.submit(None, "job");
        leases.grant(id, 1, ms(0));
        leases.owner_lost(1, Cause::HeartbeatLost);
        leases.grant(id, 2, ms(10));
        // The first delivery's straggling report arrives first: it wins.
        let accepted = leases.complete(id).expect("first report wins");
        assert_eq!(accepted.redeliveries, 1);
        assert_eq!(accepted.lease_events, vec!["delivery:1:heartbeat-lost"]);
        assert_eq!(leases.complete(id), None, "the second report is stale");
        assert_eq!(leases.grant(id, 3, ms(20)), None, "queued copies are stale");
        assert!(leases.owner_lost(2, Cause::WorkerDied).is_empty());
    }

    #[test]
    fn lease_lost_dispatch_keeps_its_delivery() {
        let mut leases = table(0);
        let id = leases.submit(None, "job");
        leases.grant(id, 1, ms(0));
        let stale_after = SupervisorConfig::default().remote_stale_after();
        assert_eq!(leases.dispatch_lost(id, stale_after - ms(1)), None);
        assert_eq!(leases.dispatch_lost(id, stale_after), Some("job"));
        assert_eq!(leases.pending(id), Some((1, &"job")));
        assert_eq!(
            leases.complete(id).unwrap().lease_events,
            vec!["delivery:1:dispatch-lost"]
        );
    }

    #[test]
    fn lease_stranding_and_closing_end_jobs_without_quarantine() {
        let mut leases = table(3);
        let queued = leases.submit(None, "queued");
        let running = leases.submit(None, "running");
        leases.grant(running, 1, ms(0));
        leases.owner_lost(1, Cause::WorkerDied);
        leases.grant(running, 2, ms(0));
        let letters = leases.strand_all(Cause::WorkersUnreachable(ms(400)));
        assert_eq!(letters.len(), 2);
        assert!(letters.iter().all(|l| l.state == TaskState::Failed));
        assert!(!letters[0].leased && letters[0].lease_events.is_empty());
        assert!(letters[1].leased);
        assert_eq!(
            letters[1].lease_events,
            vec!["delivery:1:worker-died", "delivery:2:workers-unreachable"]
        );
        assert!(letters[1].error.contains("unreachable deadline (400ms)"));
        assert_eq!(queued, 1);

        let mut leases = table(3);
        let id = leases.submit(Some(ms(5)), "job");
        leases.grant(id, 1, ms(0));
        leases.close();
        assert!(matches!(
            leases.owner_lost(1, Cause::LeaseExpired).remove(0).1,
            Verdict::DeadLetter(DeadLetter {
                state: TaskState::TimedOut,
                ..
            })
        ));
    }
}
