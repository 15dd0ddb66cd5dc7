//! Property-based tests for the simulator substrates: event ordering,
//! cache capacity, coherence safety, and statistics.

use proptest::prelude::*;
use simart_fullsim::event::EventQueue;
use simart_fullsim::isa::decode::{decode, encode, StaticInst};
use simart_fullsim::isa::OpClass;
use simart_fullsim::mem::cache::{SetAssocCache, LINE_BYTES};
use simart_fullsim::mem::ruby::{CoState, RubySystem};
use simart_fullsim::mem::{AccessKind, MemorySystem};
use simart_fullsim::stats::Stats;

proptest! {
    /// Events pop in nondecreasing time order and none are lost.
    #[test]
    fn event_queue_is_a_priority_queue(times in proptest::collection::vec(0u64..1_000_000, 0..256)) {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(*t, i);
        }
        let mut popped = Vec::new();
        let mut last = 0;
        while let Some(event) = queue.pop() {
            prop_assert!(event.when >= last, "time must not go backwards");
            last = event.when;
            popped.push(event.payload);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// Every encodable instruction round-trips through the 32-bit
    /// instruction word unchanged.
    #[test]
    fn instruction_words_round_trip(
        op_idx in 0usize..10,
        dst in 0u8..33,
        src1 in 0u8..33,
        src2 in 0u8..33,
    ) {
        let inst = StaticInst { op: OpClass::ALL[op_idx], dst, src1, src2 };
        prop_assert_eq!(decode(encode(inst)), Ok(inst));
    }

    /// Same-tick events pop in insertion order (determinism anchor).
    #[test]
    fn event_queue_fifo_within_tick(n in 1usize..64) {
        let mut queue = EventQueue::new();
        for i in 0..n {
            queue.schedule(42, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// The cache never exceeds its capacity and serves back what was
    /// inserted, under arbitrary probe/insert/invalidate traffic.
    #[test]
    fn cache_capacity_and_consistency(ops in proptest::collection::vec((0u8..3, 0u64..256), 0..512)) {
        let mut cache = SetAssocCache::<u64>::new(4096, 4); // 64 lines
        let mut resident: std::collections::BTreeMap<u64, u64> = Default::default();
        for (op, line) in ops {
            let addr = line * LINE_BYTES;
            match op {
                0 => {
                    if let Some(state) = cache.probe(addr) {
                        prop_assert_eq!(*state, resident[&line]);
                    } else {
                        prop_assert!(!resident.contains_key(&line));
                    }
                }
                1 => {
                    if cache.peek(addr).is_none() {
                        if let Some((evicted_addr, _)) = cache.insert(addr, line) {
                            resident.remove(&(evicted_addr / LINE_BYTES));
                        }
                        resident.insert(line, line);
                    }
                }
                _ => {
                    let cached = cache.invalidate(addr).is_some();
                    prop_assert_eq!(cached, resident.remove(&line).is_some());
                }
            }
            prop_assert!(cache.len() <= 64);
            prop_assert_eq!(cache.len(), resident.len());
        }
    }

    /// Coherence safety (SWMR): under arbitrary multi-core traffic, a
    /// line is never writable on two cores, and never simultaneously
    /// writable and shared — for both Ruby protocols.
    #[test]
    fn ruby_single_writer_multiple_reader(
        accesses in proptest::collection::vec((0usize..4, 0u64..24, any::<bool>()), 1..400),
        mesi in any::<bool>(),
    ) {
        let mut system = if mesi { RubySystem::new_mesi(4) } else { RubySystem::new_mi(4) };
        let lines: Vec<u64> = (0..24).map(|i| 0x4_0000 + i * LINE_BYTES).collect();
        for (core, line, write) in accesses {
            let addr = lines[line as usize];
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            system.access(core, addr, kind);
            // Check the invariant on the touched line.
            let mut exclusive = 0;
            let mut shared = 0;
            for c in 0..4 {
                match system.l1_state(c, addr) {
                    Some(CoState::M) | Some(CoState::E) => exclusive += 1,
                    Some(CoState::S) => shared += 1,
                    None => {}
                }
            }
            prop_assert!(exclusive <= 1, "two exclusive owners");
            prop_assert!(exclusive == 0 || shared == 0, "owner coexists with sharers");
        }
    }

    /// Stats absorb() is additive for counters under arbitrary merges.
    #[test]
    fn stats_absorb_is_additive(counts in proptest::collection::vec((0u8..4, 1u64..1000), 0..64)) {
        let mut total = Stats::new();
        let mut expected = [0u64; 4];
        for (slot, amount) in counts {
            let mut piece = Stats::new();
            piece.add(&format!("c{slot}"), amount);
            expected[slot as usize] += amount;
            total.absorb("sys", &piece);
        }
        for (slot, value) in expected.iter().enumerate() {
            prop_assert_eq!(total.count(&format!("sys.c{slot}")), *value);
        }
    }
}
