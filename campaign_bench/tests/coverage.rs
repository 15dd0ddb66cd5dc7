//! The traced layers must account for nearly all of a campaign's wall
//! time, measured like `run.py` measures it: from spawning the driver
//! process to its exit.

use std::path::Path;
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Largest share of `campaign_s` the timed layers may leave to
/// `residual_ms` (process start-up and exit, and the traced run's own
/// bookkeeping).
const MAX_RESIDUAL_SHARE: f64 = 0.10;

fn driver(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .args(args)
        .output()
        .expect("driver runs");
    assert!(
        out.status.success(),
        "campaign-bench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The number after `"name":` in a result line.
fn field(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].parse().expect("numeric field")
}

/// Runs one traced repetition; returns (wall ms, result line).
fn traced(workload: &str, db: &Path, store: &Path) -> (f64, String) {
    let spawn_ns = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after epoch")
        .as_nanos()
        .to_string();
    let start = Instant::now();
    let line = driver(&[
        "campaign",
        "--workload",
        workload,
        "--seed",
        "7",
        "--db",
        db.to_str().expect("utf-8 path"),
        "--store",
        store.to_str().expect("utf-8 path"),
        "--trace",
        "--spawn-ns",
        &spawn_ns,
    ]);
    (start.elapsed().as_secs_f64() * 1e3, line)
}

#[test]
fn timed_layers_cover_every_workload() {
    let dir =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("coverage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    driver(&["warm", "--store", store.to_str().expect("utf-8 path")]);
    driver(&[
        "campaign",
        "--workload",
        "resume-remote-prep",
        "--seed",
        "7",
        "--db",
        dir.join("resume-remote").to_str().expect("utf-8 path"),
        "--store",
        store.to_str().expect("utf-8 path"),
    ]);

    for workload in ["cold-pool", "resume-remote"] {
        let (campaign_ms, line) = traced(workload, &dir.join(workload), &store);
        assert_eq!(field(&line, "failed"), 0.0, "{workload}: {line}");
        assert_eq!(
            field(&line, "terminal"),
            field(&line, "executed"),
            "{workload}: {line}"
        );
        let residual = campaign_ms - field(&line, "timed_ms");
        assert!(
            (0.0..=MAX_RESIDUAL_SHARE * campaign_ms).contains(&residual),
            "{workload}: residual {residual:.1} ms of {campaign_ms:.1} ms: {line}"
        );
        // Every executed run was timed, in-process or in a worker.
        let boots = field(&line, "fullsim.cold_boots");
        let restores = field(&line, "fullsim.restore_ratio") * field(&line, "executed");
        assert!(
            (boots + restores - field(&line, "executed")).abs() < 0.5,
            "{workload}: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
