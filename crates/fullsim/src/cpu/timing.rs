//! The timing simple CPU: in-order, blocking memory.
//!
//! Like gem5's `TimingSimpleCPU`: instructions execute in order with
//! their base latency, and every memory access blocks the pipeline for
//! the memory system's full reported latency.

use super::{CpuKind, CpuModel, CpuRunResult};
use crate::isa::{InstStream, OpClass};
use crate::mem::{AccessKind, MemorySystem};
use crate::stats::Stats;

/// The in-order timing CPU model.
#[derive(Debug, Default)]
pub struct TimingSimpleCpu {
    committed: u64,
    cycles: u64,
    memory_cycles: u64,
    branch_mispredicts: u64,
}

/// Cycles lost re-steering the (short) in-order front end on a
/// mispredicted branch.
const MISPREDICT_PENALTY: u64 = 3;
/// Fraction of taken branches the static predictor gets wrong.
const MISPREDICT_RATE: f64 = 0.06;

impl TimingSimpleCpu {
    /// Creates the model.
    pub fn new() -> TimingSimpleCpu {
        TimingSimpleCpu::default()
    }
}

impl CpuModel for TimingSimpleCpu {
    fn kind(&self) -> CpuKind {
        CpuKind::TimingSimple
    }

    fn run(
        &mut self,
        core: usize,
        stream: &mut InstStream,
        budget: u64,
        mem: &mut dyn MemorySystem,
    ) -> CpuRunResult {
        let mut cycles = 0;
        let mut mem_cycles = 0;
        for i in 0..budget {
            let inst = stream.next_inst();
            cycles += inst.op.base_latency();
            if inst.op.is_memory() {
                let kind = match inst.op {
                    OpClass::Store => AccessKind::Write,
                    OpClass::Atomic => AccessKind::Atomic,
                    _ => AccessKind::Read,
                };
                let latency = mem.access(core, inst.addr, kind);
                cycles += latency;
                mem_cycles += latency;
            }
            if inst.op == OpClass::Branch && inst.taken {
                // Deterministic pseudo-random mispredict from the
                // instruction index (streams carry no predictor state).
                let hash = simart_codec::fnv1a(&(self.committed + i).to_le_bytes());
                if (hash % 10_000) as f64 / 10_000.0 < MISPREDICT_RATE {
                    cycles += MISPREDICT_PENALTY;
                    self.branch_mispredicts += 1;
                }
            }
        }
        self.committed += budget;
        self.cycles += cycles;
        self.memory_cycles += mem_cycles;
        CpuRunResult {
            instructions: budget,
            cycles,
        }
    }

    fn dump_stats(&self, prefix: &str, stats: &mut Stats) {
        stats.set_count(&format!("{prefix}.committedInsts"), self.committed);
        stats.set_count(&format!("{prefix}.numCycles"), self.cycles);
        stats.set_count(&format!("{prefix}.memStallCycles"), self.memory_cycles);
        stats.set_count(
            &format!("{prefix}.branchMispredicts"),
            self.branch_mispredicts,
        );
        if self.cycles > 0 {
            stats.set_scalar(
                &format!("{prefix}.ipc"),
                self.committed as f64 / self.cycles as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AddressProfile;
    use crate::isa::InstMix;
    use crate::mem::{build, MemKind};

    #[test]
    fn memory_latency_blocks_the_pipeline() {
        let mix = InstMix::new(&[(OpClass::Load, 1.0)]);
        // Random addresses over a large set: mostly misses.
        let cold_profile = AddressProfile {
            working_set: 64 << 20,
            locality: 0.0,
            shared_fraction: 0.0,
        };
        let warm_profile = AddressProfile::friendly();

        let run = |profile| {
            let mut cpu = TimingSimpleCpu::new();
            let mut mem = build(MemKind::classic_fast(), 1);
            let mut stream = InstStream::new("timing", 0, mix.clone(), profile);
            cpu.run(0, &mut stream, 3_000, mem.as_mut()).cpi()
        };
        let cold = run(cold_profile);
        let warm = run(warm_profile);
        assert!(cold > warm * 3.0, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn mispredicts_are_rare_but_present() {
        let mix = InstMix::new(&[(OpClass::Branch, 1.0)]);
        let mut cpu = TimingSimpleCpu::new();
        let mut mem = build(MemKind::classic_fast(), 1);
        let mut stream = InstStream::new("timing-br", 0, mix, AddressProfile::friendly());
        cpu.run(0, &mut stream, 50_000, mem.as_mut());
        let rate = cpu.branch_mispredicts as f64 / 50_000.0;
        assert!((0.01..0.12).contains(&rate), "mispredict rate {rate}");
    }

    #[test]
    fn ipc_below_one() {
        let mut cpu = TimingSimpleCpu::new();
        let mut mem = build(MemKind::classic_fast(), 1);
        let mut stream = InstStream::new(
            "timing-ipc",
            0,
            InstMix::default_int(),
            AddressProfile::friendly(),
        );
        let result = cpu.run(0, &mut stream, 10_000, mem.as_mut());
        assert!(
            result.cpi() > 1.0,
            "in-order blocking CPU cannot beat 1 IPC"
        );
    }
}
