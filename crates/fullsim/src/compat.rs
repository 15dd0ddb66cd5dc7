//! The configuration-compatibility and failure model behind Figure 8.
//!
//! gem5 v20.1 could not run every (CPU model × CPU count × memory
//! system × kernel × boot type) combination; the paper's use-case 2
//! charts which 480 configurations boot. This module reproduces that
//! behaviour:
//!
//! * **Structural rules** (deterministic, mechanistic): the
//!   AtomicSimpleCPU requires the Classic memory system; timing CPUs
//!   (TimingSimple, O3) cannot keep caches consistent on a
//!   non-coherent Classic crossbar with more than one core; KVM works
//!   everywhere.
//! * **O3 defect model**: for the remaining O3 configurations the paper
//!   reports ≈40 % success with 27 kernel panics, 11 simulator
//!   segfaults, 4 `MI_example` protocol deadlocks and the rest
//!   timeouts. The concrete failing cells are not enumerable from the
//!   paper, so we assign outcome classes deterministically (by
//!   configuration fingerprint) while matching those aggregate counts
//!   exactly.

use crate::cpu::CpuKind;
use crate::kernel::{BootKind, BootStage, KernelVersion};
use crate::mem::MemKind;
use serde::{Deserialize, Serialize};
use simart_codec::fnv1a;
use std::fmt;

/// The outcome classes of a full-system boot attempt.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BootOutcome {
    /// The system booted and exited cleanly.
    Success,
    /// The configuration is rejected before simulation starts.
    Unsupported {
        /// Why the simulator refuses the configuration.
        reason: String,
    },
    /// The guest kernel panicked during the given stage.
    KernelPanic {
        /// Stage during which the panic occurred.
        stage: BootStage,
    },
    /// The simulator itself crashed (segmentation fault).
    SimulatorCrash,
    /// The coherence protocol reported "possible deadlock detected".
    ProtocolDeadlock,
    /// The run exceeded its time limit without finishing.
    Timeout,
}

impl BootOutcome {
    /// Whether the boot completed.
    pub fn is_success(&self) -> bool {
        matches!(self, BootOutcome::Success)
    }

    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            BootOutcome::Success => "success",
            BootOutcome::Unsupported { .. } => "unsupported",
            BootOutcome::KernelPanic { .. } => "kernel-panic",
            BootOutcome::SimulatorCrash => "sim-crash",
            BootOutcome::ProtocolDeadlock => "deadlock",
            BootOutcome::Timeout => "timeout",
        }
    }
}

impl fmt::Display for BootOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootOutcome::Unsupported { reason } => write!(f, "unsupported: {reason}"),
            BootOutcome::KernelPanic { stage } => write!(f, "kernel panic during {stage}"),
            other => f.write_str(other.label()),
        }
    }
}

/// The knobs Figure 8 crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BootConfig {
    /// CPU model.
    pub cpu: CpuKind,
    /// Number of cores.
    pub cores: u32,
    /// Memory system.
    pub mem: MemKind,
    /// Kernel version.
    pub kernel: KernelVersion,
    /// Boot target.
    pub boot: BootKind,
}

impl BootConfig {
    fn fingerprint(&self) -> u64 {
        fnv1a(
            format!(
                "{}/{}/{}/{}/{}",
                self.cpu, self.cores, self.mem, self.kernel, self.boot
            )
            .as_bytes(),
        )
    }
}

/// The core counts Figure 8 crosses.
pub const FIGURE8_CORE_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Enumerates all 480 Figure 8 configurations in canonical order.
pub fn figure8_configs() -> Vec<BootConfig> {
    let mut configs = Vec::with_capacity(480);
    for kernel in KernelVersion::FIGURE8 {
        for cpu in CpuKind::FIGURE8 {
            for mem in MemKind::FIGURE8 {
                for cores in FIGURE8_CORE_COUNTS {
                    for boot in [BootKind::KernelOnly, BootKind::Systemd] {
                        configs.push(BootConfig {
                            cpu,
                            cores,
                            mem,
                            kernel,
                            boot,
                        });
                    }
                }
            }
        }
    }
    configs
}

/// Structural support check (the mechanistic rules).
///
/// Returns `None` when the configuration can at least start simulating,
/// or the `Unsupported` outcome otherwise.
pub fn structural_check(config: &BootConfig) -> Option<BootOutcome> {
    let unsupported = |reason: &str| {
        Some(BootOutcome::Unsupported {
            reason: reason.to_owned(),
        })
    };
    match (config.cpu, config.mem) {
        (CpuKind::AtomicSimple, MemKind::RubyMi | MemKind::RubyMesiTwoLevel) => unsupported(
            "AtomicSimpleCPU issues atomic accesses, which the Ruby transaction model cannot service",
        ),
        (CpuKind::TimingSimple | CpuKind::O3, MemKind::Classic { coherent: false })
            if config.cores > 1 =>
        {
            unsupported(
                "Classic memory without a coherent crossbar cannot keep multi-core caches consistent",
            )
        }
        _ => None,
    }
}

/// Aggregate O3 failure counts matching the paper's narration.
pub mod o3_counts {
    /// Kernel panics among supported O3 runs.
    pub const PANICS: usize = 27;
    /// Simulator segmentation faults.
    pub const CRASHES: usize = 11;
    /// `MI_example` "possible deadlock detected" failures.
    pub const DEADLOCKS: usize = 4;
    /// Runs exceeding the 24 h limit.
    pub const TIMEOUTS: usize = 12;
}

/// Evaluates a boot configuration, returning its outcome.
///
/// Deterministic: the same configuration always yields the same
/// outcome, and the aggregate outcome counts over the full Figure 8
/// cross-product match the paper.
pub fn evaluate(config: &BootConfig) -> BootOutcome {
    if let Some(unsupported) = structural_check(config) {
        return unsupported;
    }
    match config.cpu {
        // kvm "works in all cases"; Atomic and Timing work in all
        // *supported* cases.
        CpuKind::Kvm | CpuKind::AtomicSimple | CpuKind::TimingSimple => BootOutcome::Success,
        CpuKind::O3 => o3_outcome(config),
    }
}

fn o3_outcome(config: &BootConfig) -> BootOutcome {
    // Collect every supported O3 config of the Figure 8 space, ordered
    // by fingerprint: a stable, pseudo-random shuffle of the matrix.
    let mut supported: Vec<BootConfig> = figure8_configs()
        .into_iter()
        .filter(|c| c.cpu == CpuKind::O3 && structural_check(c).is_none())
        .collect();
    supported.sort_by_key(BootConfig::fingerprint);

    // Deadlocks can only strike MI_example: take the first 4 MI configs.
    let deadlocks: Vec<BootConfig> = supported
        .iter()
        .filter(|c| c.mem == MemKind::RubyMi)
        .take(o3_counts::DEADLOCKS)
        .copied()
        .collect();
    if deadlocks.contains(config) {
        return BootOutcome::ProtocolDeadlock;
    }

    let rest: Vec<BootConfig> = supported
        .into_iter()
        .filter(|c| !deadlocks.contains(c))
        .collect();
    match rest.iter().position(|c| c == config) {
        Some(rank) if rank < o3_counts::PANICS => {
            // Panics strike mid-boot; pick the stage from the fingerprint.
            let stages = [
                BootStage::EarlyMm,
                BootStage::SchedInit,
                BootStage::DriverProbe,
                BootStage::RootfsMount,
                BootStage::InitSystem,
            ];
            let stage = stages[(config.fingerprint() % stages.len() as u64) as usize];
            BootOutcome::KernelPanic { stage }
        }
        Some(rank) if rank < o3_counts::PANICS + o3_counts::CRASHES => BootOutcome::SimulatorCrash,
        Some(rank) if rank < o3_counts::PANICS + o3_counts::CRASHES + o3_counts::TIMEOUTS => {
            BootOutcome::Timeout
        }
        Some(_) => BootOutcome::Success,
        // Not part of the Figure 8 space (e.g. coherent Classic, other
        // kernels): O3 boots fine there.
        None => BootOutcome::Success,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_space_has_480_configs() {
        assert_eq!(figure8_configs().len(), 480);
    }

    #[test]
    fn kvm_succeeds_everywhere() {
        for config in figure8_configs().iter().filter(|c| c.cpu == CpuKind::Kvm) {
            assert_eq!(evaluate(config), BootOutcome::Success, "{config:?}");
        }
    }

    #[test]
    fn atomic_fails_on_ruby_succeeds_on_classic() {
        for config in figure8_configs()
            .iter()
            .filter(|c| c.cpu == CpuKind::AtomicSimple)
        {
            let outcome = evaluate(config);
            match config.mem {
                MemKind::Classic { .. } => assert!(outcome.is_success(), "{config:?}"),
                _ => assert!(
                    matches!(outcome, BootOutcome::Unsupported { .. }),
                    "{config:?} -> {outcome}"
                ),
            }
        }
    }

    #[test]
    fn timing_fails_only_multicore_incoherent_classic() {
        for config in figure8_configs()
            .iter()
            .filter(|c| c.cpu == CpuKind::TimingSimple)
        {
            let outcome = evaluate(config);
            let should_fail =
                config.mem == MemKind::Classic { coherent: false } && config.cores > 1;
            assert_eq!(
                !outcome.is_success(),
                should_fail,
                "{config:?} -> {outcome}"
            );
        }
    }

    #[test]
    fn o3_aggregate_counts_match_the_paper() {
        let mut success = 0;
        let mut panic = 0;
        let mut crash = 0;
        let mut deadlock = 0;
        let mut timeout = 0;
        let mut unsupported = 0;
        for config in figure8_configs().iter().filter(|c| c.cpu == CpuKind::O3) {
            match evaluate(config) {
                BootOutcome::Success => success += 1,
                BootOutcome::KernelPanic { .. } => panic += 1,
                BootOutcome::SimulatorCrash => crash += 1,
                BootOutcome::ProtocolDeadlock => deadlock += 1,
                BootOutcome::Timeout => timeout += 1,
                BootOutcome::Unsupported { .. } => unsupported += 1,
            }
        }
        assert_eq!(panic, o3_counts::PANICS);
        assert_eq!(crash, o3_counts::CRASHES);
        assert_eq!(deadlock, o3_counts::DEADLOCKS);
        assert_eq!(timeout, o3_counts::TIMEOUTS);
        assert_eq!(
            unsupported, 30,
            "5 kernels x {{2,4,8}} cores x 2 boots on Classic"
        );
        assert_eq!(
            success + panic + crash + deadlock + timeout + unsupported,
            120
        );
        // "approximately 40% of them running successfully"
        let rate = success as f64 / (120 - unsupported) as f64;
        assert!((0.35..=0.45).contains(&rate), "O3 success rate {rate}");
    }

    #[test]
    fn deadlocks_only_on_mi_example() {
        for config in figure8_configs() {
            if evaluate(&config) == BootOutcome::ProtocolDeadlock {
                assert_eq!(config.mem, MemKind::RubyMi, "{config:?}");
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        for config in figure8_configs() {
            assert_eq!(evaluate(&config), evaluate(&config));
        }
    }

    #[test]
    fn coherent_classic_multicore_timing_is_fine() {
        // The PARSEC (use-case 1) configuration: TimingSimple, 8 cores,
        // coherent Classic.
        let config = BootConfig {
            cpu: CpuKind::TimingSimple,
            cores: 8,
            mem: MemKind::classic_coherent(),
            kernel: KernelVersion::V4_15,
            boot: BootKind::Systemd,
        };
        assert!(evaluate(&config).is_success());
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(BootOutcome::Success.label(), "success");
        assert_eq!(BootOutcome::Timeout.label(), "timeout");
        assert_eq!(
            BootOutcome::KernelPanic {
                stage: BootStage::DriverProbe
            }
            .to_string(),
            "kernel panic during driver-probe"
        );
    }
}
