//! Full-system hot-path performance: the two compounding
//! optimizations PERFORMANCE.md tracks, measured on the same machine
//! in one run.
//!
//! 1. **Decode cache** — fetching a decoded basic block from the
//!    [`DecodeCache`] versus re-decoding it from code memory on every
//!    visit (the pre-cache interpreter behaviour).
//! 2. **Boot checkpoints** — restoring a boot prefix from the
//!    content-addressed [`CheckpointStore`] versus re-simulating the
//!    boot cold.
//!
//! Run modes:
//!
//! - `cargo bench -p simart-fullsim --bench hotpath` — print the
//!   timing tables.
//! - `... --bench hotpath -- --test` — additionally assert the
//!   performance claims (cache ≥5× re-decode, restore ≥10× cold
//!   boot), exiting nonzero on regression. CI runs this mode.
//! - `... --bench hotpath -- --json PATH` — also write the measured
//!   numbers as JSON (the tracked `BENCH_fullsim.json` at the repo
//!   root is generated this way).

use simart_fullsim::checkpoint::CheckpointStore;
use simart_fullsim::cpu::CpuKind;
use simart_fullsim::isa::decode::{decode_block, DecodeCache};
use simart_fullsim::isa::InstMix;
use simart_fullsim::mem::code::CodeMemory;
use simart_fullsim::system::{Fidelity, SystemConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Best-of repetitions per measurement (first runs warm caches).
const REPEATS: usize = 5;

/// Instruction words in the benchmarked program image.
const PROGRAM_WORDS: usize = 1024;

/// Timed passes over the program's block entries per repetition.
const DECODE_PASSES: usize = 200;

fn best_of(mut f: impl FnMut() -> Duration) -> Duration {
    (0..REPEATS).map(|_| f()).min().expect("REPEATS > 0")
}

/// Entry PCs of every basic block in the image, in first-execution
/// order (following fall-throughs until the program wraps).
fn block_entries(code: &CodeMemory) -> Vec<u64> {
    let mut entries = Vec::new();
    let mut pc = code.base();
    loop {
        entries.push(pc);
        pc = decode_block(code, pc).expect("image decodes").next;
        if pc == code.base() {
            return entries;
        }
    }
}

/// (cached fetch, fresh decode) cost per instruction.
fn measure_decode() -> (Duration, Duration, f64) {
    let code = CodeMemory::generate("bench/hotpath", &InstMix::default_int(), PROGRAM_WORDS);
    let entries = block_entries(&code);
    let mut cache = DecodeCache::new();
    for &pc in &entries {
        cache.fetch(&code, pc); // warm: every later fetch is a hit
    }
    let instructions = (entries.len() * DECODE_PASSES) as u32;

    let cached = best_of(|| {
        let start = Instant::now();
        let mut sum = 0usize;
        for _ in 0..DECODE_PASSES {
            for &pc in &entries {
                sum += cache.fetch(&code, black_box(pc)).insts.len();
            }
        }
        black_box(sum);
        start.elapsed()
    }) / instructions;

    let decoded = best_of(|| {
        let start = Instant::now();
        let mut sum = 0usize;
        for _ in 0..DECODE_PASSES {
            for &pc in &entries {
                sum += decode_block(&code, black_box(pc))
                    .expect("decodes")
                    .insts
                    .len();
            }
        }
        black_box(sum);
        start.elapsed()
    }) / instructions;

    // Per *block-entry lookup*; both loops also touch each decoded
    // instruction once (the `sum`), so the ratio isolates decode cost.
    let speedup = decoded.as_secs_f64() / cached.as_secs_f64().max(1e-12);
    (cached, decoded, speedup)
}

/// (cold boot, checkpoint restore, modelled instructions/sec) for the
/// default campaign configuration. The instruction count comes from
/// the statistical boot model, not from interpreted instructions, so
/// the rate is a model figure, not simulator throughput.
fn measure_checkpoint() -> (Duration, Duration, f64) {
    let config = SystemConfig::builder()
        .cpu(CpuKind::AtomicSimple)
        .cores(2)
        .fidelity(Fidelity::Standard)
        .build()
        .expect("valid config");

    let mut instructions = 0u64;
    let cold = best_of(|| {
        let start = Instant::now();
        let output = config.boot_only().expect("boots");
        instructions = black_box(output).instructions;
        start.elapsed()
    });
    let model_ips = instructions as f64 / cold.as_secs_f64().max(1e-12);

    let dir = std::env::temp_dir().join(format!("simart-bench-hotpath-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open store");
    store.boot_or_restore(&config).expect("boot and save");
    let restore = best_of(|| {
        let start = Instant::now();
        let checkpoint = store
            .load(&config)
            .expect("load")
            .expect("saved checkpoint present");
        black_box(checkpoint);
        start.elapsed()
    });
    let _ = std::fs::remove_dir_all(&dir);
    (cold, restore, model_ips)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1));

    println!("fullsim hot paths (best of {REPEATS})");

    let (cached, decoded, decode_speedup) = measure_decode();
    println!("\ndecode: cached block fetch vs re-decode, per instruction");
    println!("{:>18}  {:>18}  {:>8}", "cached", "re-decode", "speedup");
    println!(
        "{:>16.1}ns  {:>16.1}ns  {decode_speedup:>7.1}x",
        cached.as_secs_f64() * 1e9,
        decoded.as_secs_f64() * 1e9,
    );

    let (cold, restore, model_ips) = measure_checkpoint();
    println!("\ncheckpoint: cold boot vs restore (standard fidelity, 2 cores)");
    println!(
        "{:>14}  {:>14}  {:>8}  {:>16}",
        "cold boot", "restore", "speedup", "boot model rate"
    );
    println!(
        "{:>12.2}ms  {:>12.3}ms  {:>7.0}x  {:>11.0} inst/s",
        cold.as_secs_f64() * 1e3,
        restore.as_secs_f64() * 1e3,
        cold.as_secs_f64() / restore.as_secs_f64().max(1e-12),
        model_ips,
    );

    if let Some(path) = json_path {
        let json = format!(
            "{{\n  \"bench\": \"hotpath\",\n  \"schema\": 2,\n  \"decode\": {{\n    \
             \"cachedNsPerInst\": {:.1},\n    \"redecodeNsPerInst\": {:.1},\n    \
             \"speedup\": {:.1}\n  }},\n  \
             \"checkpoint\": {{\n    \"coldBootMs\": {:.2},\n    \"restoreMs\": {:.3},\n    \
             \"speedup\": {:.0},\n    \"coldBootModelInstPerSec\": {:.0}\n  }}\n}}\n",
            cached.as_secs_f64() * 1e9,
            decoded.as_secs_f64() * 1e9,
            decode_speedup,
            cold.as_secs_f64() * 1e3,
            restore.as_secs_f64() * 1e3,
            cold.as_secs_f64() / restore.as_secs_f64().max(1e-12),
            model_ips,
        );
        std::fs::write(path, json).expect("write bench json");
        println!("\nwrote {path}");
    }

    if test_mode {
        // 1. The decode cache must make repeat visits much cheaper than
        //    re-decoding — the whole point of caching by entry PC.
        assert!(
            decode_speedup >= 5.0,
            "cached fetch should be ≥5x faster than re-decode, got {decode_speedup:.1}x \
             (cached {cached:?}, re-decode {decoded:?})"
        );
        // 2. Restoring a boot checkpoint must beat re-simulating the
        //    boot by an order of magnitude — the "boot once, restore
        //    many" economics.
        assert!(
            restore * 10 < cold,
            "checkpoint restore ({restore:?}) should be ≥10x faster than a cold boot ({cold:?})"
        );
        println!("\nhotpath bench assertions passed");
    }
}
