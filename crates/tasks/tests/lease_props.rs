//! Property tests for the supervision core, [`LeaseTable`]: random
//! interleavings of grant / complete / owner-lost / expire /
//! dispatch-lost / strand over many jobs, under redelivery caps 0..=3,
//! checked against the delivery contract both supervised schedulers
//! rely on.

use proptest::prelude::*;
use simart_tasks::lease::{Cause, LeaseTable, Verdict};
use simart_tasks::{SupervisorConfig, TaskState};
use std::collections::BTreeMap;
use std::time::Duration;

const JOBS: u64 = 6;
const OWNERS: u64 = 3;

/// One input to the table. Job and owner fields are small indices.
#[derive(Debug, Clone)]
enum Op {
    Grant { job: u64, owner: u64 },
    Complete { job: u64 },
    OwnerLost { owner: u64, cause: u8 },
    Expire { after_ms: u64 },
    DispatchLost { job: u64, after_ms: u64 },
    Strand { unreachable: bool },
}

fn op() -> impl Strategy<Value = Op> {
    let grant = || (0..JOBS, 1..OWNERS + 1).prop_map(|(job, owner)| Op::Grant { job, owner });
    prop_oneof![
        // Grants listed twice: a job must be leased before most other
        // inputs can touch it.
        grant(),
        grant(),
        (0..JOBS).prop_map(|job| Op::Complete { job }),
        (1..OWNERS + 1, 0u8..4).prop_map(|(owner, cause)| Op::OwnerLost { owner, cause }),
        (0u64..400).prop_map(|after_ms| Op::Expire { after_ms }),
        (0..JOBS, 0u64..400).prop_map(|(job, after_ms)| Op::DispatchLost { job, after_ms }),
        any::<bool>().prop_map(|unreachable| Op::Strand { unreachable }),
    ]
}

fn owner_cause(index: u8) -> Cause {
    [
        Cause::WorkerDied,
        Cause::HeartbeatLost,
        Cause::TornFrame,
        Cause::LeaseExpired,
    ][usize::from(index)]
}

/// What happened to one job, as observed through the table's outputs.
#[derive(Debug, Default)]
struct Track {
    delivery: u32,
    /// Revocations the table reported (verdicts, lost dispatches,
    /// strands of a leased job).
    revocations: usize,
    redeliveries: u32,
    ended: usize,
    /// A grant is out and was not revoked since.
    leased: bool,
}

/// Drives the table through `ops` (then strands whatever is left) and
/// returns the transcript of every output plus per-job tracking. Each
/// output is checked against the contract as it appears.
fn drive(cap: u32, timeouts: &[u64], ops: &[Op]) -> (Vec<String>, BTreeMap<u64, Track>) {
    let config = SupervisorConfig {
        max_redeliveries: cap,
        ..SupervisorConfig::default()
    };
    let stale_after = config.remote_stale_after();
    let mut table: LeaseTable<u64, Duration> = LeaseTable::new(config);
    let mut now = Duration::ZERO;
    let mut log = Vec::new();
    let mut tracks = BTreeMap::new();
    let ids: Vec<u64> = timeouts
        .iter()
        .enumerate()
        .map(|(i, timeout)| {
            // Timeouts of 300 ms and up stand for "no timeout".
            let timeout = (*timeout < 300).then(|| Duration::from_millis(*timeout));
            let id = table.submit(timeout, i as u64);
            tracks.insert(
                id,
                Track {
                    delivery: 1,
                    ..Track::default()
                },
            );
            id
        })
        .collect();
    let job_of = |index: u64| ids[index as usize % ids.len()];

    for op in ops {
        match *op {
            Op::Grant { job, owner } => {
                let id = job_of(job);
                let granted = table.grant(id, owner, now).map(|(d, &j)| (d, j));
                let track = tracks.get_mut(&id).expect("known job");
                let grantable = track.ended == 0 && !track.leased;
                assert_eq!(
                    granted.is_some(),
                    grantable,
                    "only a pending job is granted"
                );
                if let Some((delivery, _)) = granted {
                    assert_eq!(delivery, track.delivery);
                    track.leased = true;
                }
                log.push(format!("grant {id} {owner} -> {granted:?}"));
            }
            Op::Complete { job } => {
                let id = job_of(job);
                let accepted = table.complete(id);
                // A completion — from whichever delivery, stale or not —
                // wins exactly when nothing ended the job before it.
                assert_eq!(accepted.is_some(), tracks[&id].ended == 0);
                if let Some(accepted) = &accepted {
                    end(
                        &mut tracks,
                        id,
                        accepted.redeliveries,
                        &accepted.lease_events,
                    );
                }
                log.push(format!("complete {id} -> {accepted:?}"));
            }
            Op::OwnerLost { owner, cause } => {
                let cause = owner_cause(cause);
                let verdicts = table.owner_lost(owner, cause);
                for (id, v) in &verdicts {
                    verdict(&mut tracks, cap, *id, cause, v);
                }
                log.push(format!("lost {owner} {cause} -> {verdicts:?}"));
            }
            Op::Expire { after_ms } => {
                now += Duration::from_millis(after_ms);
                for owner in table.expired_owners(now) {
                    let verdicts = table.owner_lost(owner, Cause::LeaseExpired);
                    for (id, v) in &verdicts {
                        verdict(&mut tracks, cap, *id, Cause::LeaseExpired, v);
                    }
                    log.push(format!("expired {owner} -> {verdicts:?}"));
                }
            }
            Op::DispatchLost { job, after_ms } => {
                now += Duration::from_millis(after_ms);
                let id = job_of(job);
                let leased = table.leased(id).is_some();
                let lost = table.dispatch_lost(id, now);
                if lost.is_some() {
                    assert!(leased);
                    let track = tracks.get_mut(&id).expect("known job");
                    track.revocations += 1;
                    track.leased = false;
                    let (delivery, _) = table.pending(id).expect("a lost dispatch is re-sent");
                    assert_eq!(
                        delivery, tracks[&id].delivery,
                        "dispatch-lost keeps the delivery"
                    );
                }
                log.push(format!(
                    "dispatch-lost {id} {now:?} -> {lost:?} (stale after {stale_after:?})"
                ));
            }
            Op::Strand { unreachable } => {
                let cause = if unreachable {
                    Cause::WorkersUnreachable(Duration::from_millis(400))
                } else {
                    Cause::NoWorkers
                };
                strand(&mut table, &mut tracks, &mut log, cause);
            }
        }
    }
    strand(&mut table, &mut tracks, &mut log, Cause::NoWorkers);
    assert!(table.is_empty());
    (log, tracks)
}

/// Records a job's end, checking it against everything observed.
fn end(tracks: &mut BTreeMap<u64, Track>, id: u64, redeliveries: u32, events: &[String]) {
    let track = tracks.get_mut(&id).expect("known job");
    track.ended += 1;
    assert_eq!(track.ended, 1, "job {id} ended twice");
    assert_eq!(
        redeliveries, track.redeliveries,
        "job {id} redelivery count"
    );
    assert_eq!(redeliveries, track.delivery - 1, "job {id} delivery number");
    assert_eq!(
        events.len(),
        track.revocations,
        "job {id}: one event per revocation"
    );
}

/// Checks one revocation verdict and records it.
fn verdict(tracks: &mut BTreeMap<u64, Track>, cap: u32, id: u64, cause: Cause, v: &Verdict<u64>) {
    let track = tracks.get_mut(&id).expect("known job");
    track.revocations += 1;
    match v {
        Verdict::Redeliver { delivery, .. } => {
            assert_eq!(
                *delivery,
                track.delivery + 1,
                "a redelivery raises delivery by one"
            );
            assert!(track.redeliveries < cap, "redelivered past the cap");
            track.delivery = *delivery;
            track.redeliveries += 1;
            track.leased = false;
        }
        Verdict::DeadLetter(letter) => {
            assert!(
                letter.redeliveries >= cap,
                "dead-lettered with budget left: {letter:?}"
            );
            let expected = match cause {
                _ if letter.redeliveries > 0 => TaskState::Quarantined,
                Cause::LeaseExpired => TaskState::TimedOut,
                _ => TaskState::Failed,
            };
            assert_eq!(
                letter.state, expected,
                "quarantined iff the cap ran out after a redelivery"
            );
            let last = letter.lease_events.last().expect("a revocation event");
            assert_eq!(
                last,
                &format!("delivery:{}:{cause}", letter.redeliveries + 1)
            );
            end(tracks, id, letter.redeliveries, &letter.lease_events);
        }
    }
}

fn strand(
    table: &mut LeaseTable<u64, Duration>,
    tracks: &mut BTreeMap<u64, Track>,
    log: &mut Vec<String>,
    cause: Cause,
) {
    let open: Vec<(u64, bool)> = tracks
        .iter()
        .filter(|(_, t)| t.ended == 0)
        .map(|(&id, _)| (id, table.leased(id).is_some()))
        .collect();
    let letters = table.strand_all(cause);
    assert_eq!(letters.len(), open.len(), "strand ends every open job");
    for ((id, leased), letter) in open.into_iter().zip(&letters) {
        assert_eq!(letter.leased, leased);
        assert_eq!(
            letter.state,
            TaskState::Failed,
            "stranding never quarantines"
        );
        if leased {
            tracks.get_mut(&id).expect("known job").revocations += 1;
        }
        end(tracks, id, letter.redeliveries, &letter.lease_events);
    }
    log.push(format!("strand {cause} -> {letters:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every job ends exactly once, each redelivery raises its delivery
    /// by one, lost dispatches keep it, every revocation leaves one
    /// lease event, quarantine means an exhausted cap after at least
    /// one redelivery, and a stale completion wins only while the job
    /// is still open.
    #[test]
    fn lease_contract_holds_under_any_interleaving(
        cap in 0u32..4,
        timeouts in proptest::collection::vec(0u64..400, 1..JOBS as usize + 1),
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let (_, tracks) = drive(cap, &timeouts, &ops);
        prop_assert!(tracks.values().all(|t| t.ended == 1));
    }

    /// Equal input sequences give byte-equal outputs.
    #[test]
    fn lease_outputs_are_deterministic(
        cap in 0u32..4,
        timeouts in proptest::collection::vec(0u64..400, 1..JOBS as usize + 1),
        ops in proptest::collection::vec(op(), 0..64),
    ) {
        let (first, _) = drive(cap, &timeouts, &ops);
        let (second, _) = drive(cap, &timeouts, &ops);
        prop_assert_eq!(first, second);
    }
}
