//! The benchmark's workloads and the inputs each one generates from a
//! seed.
//!
//! Every workload sweeps the CLI's six cpu × cores configurations. The
//! large ones add a `tag` axis whose values come from the seed, so each
//! run has its own run hash while the simulated work per run stays the
//! work of one of the six configurations. The seed also shuffles the
//! submission order and, for the prepared resume database, picks which
//! runs fail.

use simart::cross::CrossProduct;

/// Which scheduler a workload launches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// `PoolScheduler` threads.
    Pool,
    /// `RemoteScheduler` worker processes over pipes.
    Remote,
}

/// Everything a campaign repetition needs to know about its workload.
#[derive(Debug)]
pub struct Plan {
    /// The scheduler the runs are launched on.
    pub scheduler: SchedulerKind,
    /// Tag values per configuration; `0` is the CLI's default sweep
    /// with no tag axis.
    pub tags: usize,
    /// Lint the database after the launch (`simart campaign --check`).
    pub check: bool,
    /// Restore boot prefixes from a checkpoint store
    /// (`--checkpoint-dir`).
    pub store: bool,
    /// Resume a stored campaign (`--resume`).
    pub resume: bool,
    /// Seeded error rate injected around the executor
    /// (`--fault-rate`).
    pub fault_rate: f64,
}

/// Worker threads or processes, as `simart campaign` defaults to.
pub const WORKERS: usize = 2;

/// The plan for `name`, or `None` for an unknown workload.
///
/// `resume-remote-prep` builds the database `resume-remote` resumes;
/// `parity` is the CLI's default 6-run sweep.
pub fn plan(name: &str) -> Option<Plan> {
    let fresh = |scheduler, tags, check, store| Plan {
        scheduler,
        tags,
        check,
        store,
        resume: false,
        fault_rate: 0.0,
    };
    Some(match name {
        "cold-pool" => fresh(SchedulerKind::Pool, 167, false, false),
        "resume-remote" => Plan {
            resume: true,
            ..fresh(SchedulerKind::Remote, 334, true, true)
        },
        "resume-remote-prep" => Plan {
            fault_rate: 0.5,
            ..fresh(SchedulerKind::Pool, 334, true, true)
        },
        "parity" => fresh(SchedulerKind::Pool, 0, false, false),
        _ => return None,
    })
}

/// The CLI's sweep axes: every configuration a workload boots.
pub const CPUS: [&str; 3] = ["kvm", "atomic", "timing"];
/// See [`CPUS`].
pub const CORES: [&str; 2] = ["1", "2"];

/// The run parameters of `plan` under `seed`, in submission order.
pub fn run_params(plan: &Plan, seed: u64) -> Vec<Vec<String>> {
    let mut sweep = CrossProduct::new().axis("cpu", CPUS).axis("cores", CORES);
    if plan.tags == 0 {
        return sweep.iter().map(|combo| combo.params()).collect();
    }
    let mut rng = SplitMix64(seed);
    let mut tags = std::collections::BTreeSet::new();
    while tags.len() < plan.tags {
        tags.insert(format!("{:016x}", rng.next()));
    }
    sweep = sweep.axis("tag", tags);
    let mut params: Vec<Vec<String>> = sweep.iter().map(|combo| combo.params()).collect();
    // Fisher-Yates with the seeded stream.
    for i in (1..params.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        params.swap(i, j);
    }
    params
}

/// The fault-injection seed a workload seed maps to.
pub fn fault_seed(seed: u64) -> u64 {
    SplitMix64(seed ^ 0x5eed_fa17).next()
}

/// A small, fixed pseudo-random stream (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let plan = plan("cold-pool").unwrap();
        let a = run_params(&plan, 1);
        assert_eq!(a.len(), 6 * 167);
        assert_eq!(a, run_params(&plan, 1));
        assert_ne!(a, run_params(&plan, 2));
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn parity_is_the_default_sweep() {
        let params = run_params(&plan("parity").unwrap(), 9);
        assert_eq!(params.len(), 6);
        assert_eq!(params[0], ["kvm", "1"]);
    }
}
