//! One campaign repetition: the calls `simart campaign` makes, in its
//! order, each timed from outside when tracing is on.
//!
//! Untraced, the only clock read is the one that ends set-up (just
//! before the launch, where the first task is submitted). Traced, every
//! call is timed, the executor is wrapped to time each run, and the
//! journal and snapshot files are measured around the launch and the
//! closing checkpoint.

use crate::workload::{self, SchedulerKind, WORKERS};
use simart::artifact::{Artifact, ArtifactId, ArtifactKind, ContentSource};
use simart::db::{Database, LoadOptions};
use simart::tasks::{
    FaultInjector, HandlerRegistry, PoolScheduler, RemoteConfig, RemoteScheduler, SupervisorConfig,
    WorkerCommand, WorkerJob,
};
use simart::{ExecOutcome, Experiment, LaunchOptions, LaunchSummary};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Directory remote workers write their per-run timings to (traced
/// runs only). Timings travel outside the wire protocol, so frames and
/// run records are the same as an untraced campaign's.
const TIMINGS_ENV: &str = "SIMART_BENCH_TIMINGS";

/// What one repetition is given.
pub struct Inputs {
    pub workload: String,
    pub seed: u64,
    pub db: PathBuf,
    pub store: Option<PathBuf>,
    pub trace: bool,
    /// Wall-clock nanoseconds at which the caller spawned this process.
    pub spawn_ns: Option<u128>,
}

/// One executor call as the traced wrapper saw it.
struct ExecSample {
    /// From the launch call to the executor's start.
    wait: Duration,
    exec: Duration,
    restored: bool,
}

/// Per-layer numbers, in the units their names state.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn time<T>(&mut self, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.0.insert(name, ms(start.elapsed()));
        out
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The sequential calls whose sum the residual is taken against.
const TIMED: [&str; 12] = [
    "core.process_start_ms",
    "db.open_ms",
    "core.experiment_ms",
    "artifact.register_ms",
    "run.create_ms",
    "tasks.spawn_ms",
    "core.launch_ms",
    "tasks.shutdown_ms",
    "analyze.check_ms",
    "core.metrics_persist_ms",
    "db.checkpoint_ms",
    "analyze.record_state_ms",
];

/// Runs one campaign and prints its result as one JSON line.
///
/// # Errors
///
/// Any failing call, as a message; the campaign's own failed runs are
/// reported in the result instead.
pub fn run(inputs: &Inputs) -> Result<String, String> {
    let plan = workload::plan(&inputs.workload)
        .ok_or_else(|| format!("unknown workload `{}`", inputs.workload))?;
    let trace = inputs.trace;
    let mut layers = Layers::default();
    if trace {
        // Spawn to here: exec, loader and runtime start-up.
        layers.set("core.process_start_ms", since_spawn(inputs.spawn_ns) * 1e3);
    }

    if plan.store {
        let store = inputs.store.as_ref().ok_or("this workload needs --store")?;
        std::env::set_var(simart::remote::CHECKPOINT_DIR_ENV, store);
    }
    let (db, load_report) = layers
        .time(trace, "db.open_ms", || {
            Database::open_with(&inputs.db, &LoadOptions::default())
        })
        .map_err(|e| format!("cannot open database: {e}"))?;
    if trace {
        layers.set("db.replay_records", load_report.journal_records as f64);
        let docs: usize = db
            .collection_names()
            .iter()
            .map(|name| db.collection(name).len())
            .sum();
        layers.set("db.docs_loaded", docs as f64);
    }
    let experiment = layers
        .time(trace, "core.experiment_ms", || {
            Experiment::with_database("campaign", db)
        })
        .map_err(|e| e.to_string())?;
    let [binary, repo, script, kernel, disk] = layers
        .time(trace, "artifact.register_ms", || {
            register_campaign_artifacts(&experiment)
        })
        .map_err(|e| e.to_string())?;

    let params = workload::run_params(&plan, inputs.seed);
    let runs = layers.time(trace, "run.create_ms", || {
        params
            .iter()
            .map(|combo| {
                experiment.create_fs_run(|b| {
                    let mut b = b
                        .simulator(binary, "sim")
                        .simulator_repo(repo)
                        .run_script(script, "boot.cfg")
                        .kernel(kernel, "vmlinux-5.4")
                        .disk_image(disk, "ubuntu.img");
                    for param in combo {
                        b = b.param(param.clone());
                    }
                    b
                })
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let runs = runs.map_err(|e| format!("cannot create run: {e}"))?;

    let mut options = if plan.resume {
        LaunchOptions::resuming()
    } else {
        LaunchOptions::default()
    };
    if plan.fault_rate > 0.0 {
        options = options.fault(Arc::new(
            FaultInjector::new(workload::fault_seed(inputs.seed)).errors(plan.fault_rate),
        ));
    }

    simart::observe::reset();
    simart::observe::enable();
    let timings_dir = inputs.db.with_extension("timings");
    let journal = inputs.db.join("journal.log");
    let samples: Arc<Mutex<Vec<ExecSample>>> = Arc::default();
    let launch_wall_ns = std::cell::Cell::new(0u128);
    let (summary, setup_s, journal_grown) = match plan.scheduler {
        SchedulerKind::Remote => {
            let program = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut command = WorkerCommand::new(program).arg("worker");
            if trace {
                std::fs::create_dir_all(&timings_dir).map_err(|e| e.to_string())?;
                command = command.env(TIMINGS_ENV, timings_dir.display().to_string());
            }
            let config = RemoteConfig {
                supervisor: SupervisorConfig {
                    max_redeliveries: 1,
                    ..SupervisorConfig::default()
                },
                ..RemoteConfig::default()
            };
            let remote = layers
                .time(trace, "tasks.spawn_ms", || {
                    RemoteScheduler::with_config(command, WORKERS, config)
                })
                .map_err(|e| format!("cannot spawn worker processes: {e}"))?;
            let launched = timed_launch(&mut layers, trace, &journal, inputs.spawn_ns, || {
                launch_wall_ns.set(unix_ns());
                experiment.launch_remote(runs, &remote, &options)
            });
            let clean = layers.time(trace, "tasks.shutdown_ms", || remote.shutdown());
            if !clean {
                return Err("remote scheduler shut down with work outstanding".to_owned());
            }
            if trace {
                *samples.lock().expect("sample lock") =
                    read_worker_samples(&timings_dir, launch_wall_ns.get())?;
            }
            launched
        }
        SchedulerKind::Pool => {
            let scheduler = layers.time(trace, "tasks.spawn_ms", || PoolScheduler::new(WORKERS));
            let launched = timed_launch(&mut layers, trace, &journal, inputs.spawn_ns, || {
                if trace {
                    let samples = Arc::clone(&samples);
                    let start = Instant::now();
                    experiment.launch_with(
                        runs,
                        &scheduler,
                        move |run| {
                            let wait = start.elapsed();
                            let begun = Instant::now();
                            let result = simart::remote::execute_campaign_params(run.params());
                            let exec = begun.elapsed();
                            samples.lock().expect("sample lock").push(ExecSample {
                                wait,
                                exec,
                                restored: result.as_ref().is_ok_and(restored),
                            });
                            result
                        },
                        &options,
                    )
                } else {
                    experiment.launch_with(runs, &scheduler, execute_campaign_run, &options)
                }
            });
            layers.time(trace, "tasks.shutdown_ms", || drop(scheduler));
            launched
        }
    };
    // Bypassed steps (no `--check`) are still timed, so their layer
    // reads as the near-zero cost of skipping them.
    let (diagnostics, engine, full_scan) = layers
        .time(trace, "analyze.check_ms", || {
            if !plan.check {
                return Ok((0, None, false));
            }
            let (engine, outcome) =
                simart::analyze::campaign_check(experiment.database(), &load_report)?;
            Ok((
                outcome.diagnostics.len(),
                Some(engine),
                !outcome.incremental,
            ))
        })
        .map_err(|e: simart::db::DbError| format!("cannot lint campaign database: {e}"))?;
    layers
        .time(trace, "core.metrics_persist_ms", || {
            let snapshot = simart::observe::snapshot();
            simart::metrics::persist_snapshot(experiment.database(), &snapshot)
        })
        .map_err(|e| format!("cannot record metrics: {e}"))?;
    if trace {
        layers.set("analyze.full_scan", f64::from(u8::from(full_scan)));
        layers.set("db.checkpoint_journal_bytes", file_len(&journal) as f64);
    }
    layers
        .time(trace, "db.checkpoint_ms", || {
            experiment.database().checkpoint()
        })
        .map_err(|e| format!("cannot checkpoint database: {e}"))?;
    let db_bytes = dir_bytes(&inputs.db);
    if trace {
        layers.set(
            "db.snapshot_bytes",
            db_bytes.saturating_sub(file_len(&journal)) as f64,
        );
    }
    layers
        .time(trace, "analyze.record_state_ms", || match &engine {
            Some(engine) => simart::analyze::record_state(experiment.database(), engine),
            None => Ok(()),
        })
        .map_err(|e| format!("cannot record analysis state: {e}"))?;
    simart::observe::disable();
    let runs_stored = experiment.runs().len();
    drop(experiment);

    let executed = summary.fresh + summary.requeued;
    let terminal = summary.done + summary.failed + summary.timed_out + summary.quarantined;
    let failed = summary.failed + summary.timed_out + summary.quarantined;
    if trace {
        let samples = samples.lock().expect("sample lock");
        exec_layers(&mut layers, &samples);
        let per_run = journal_grown as f64 / executed.max(1) as f64;
        layers.set("run.journal_bytes_per_run", per_run);
        let overhead =
            layers.get("core.launch_ms") - layers.get("fullsim.exec_ms.sum") / WORKERS as f64;
        layers.set("core.launch_overhead_ms", overhead);
        let timed: f64 = TIMED.iter().map(|name| layers.get(name)).sum();
        layers.set("timed_ms", timed);
    }
    let rendered: Vec<String> = layers
        .0
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    Ok(format!(
        "{{\"setup_s\":{setup_s},\"executed\":{executed},\"terminal\":{terminal},\
         \"failed\":{failed},\"skipped_done\":{},\"runs_stored\":{runs_stored},\
         \"db_bytes\":{db_bytes},\"diagnostics\":{diagnostics},\"peak_rss_kb\":{},\
         \"layers\":{{{}}}}}",
        summary.skipped_done,
        peak_rss_kb(),
        rendered.join(",")
    ))
}

/// Ends set-up and runs `launch`. Returns the summary, the set-up time
/// in seconds, and (traced) how many bytes the journal grew by.
fn timed_launch(
    layers: &mut Layers,
    trace: bool,
    journal: &Path,
    spawn_ns: Option<u128>,
    launch: impl FnOnce() -> LaunchSummary,
) -> (LaunchSummary, f64, u64) {
    let setup_s = since_spawn(spawn_ns);
    let before = if trace { file_len(journal) } else { 0 };
    let summary = layers.time(trace, "core.launch_ms", launch);
    let grown = if trace {
        file_len(journal).saturating_sub(before)
    } else {
        0
    };
    (summary, setup_s, grown)
}

/// Executor-side layers from the per-run samples.
fn exec_layers(layers: &mut Layers, samples: &[ExecSample]) {
    let mut exec: Vec<f64> = samples.iter().map(|s| ms(s.exec)).collect();
    let mut wait: Vec<f64> = samples.iter().map(|s| ms(s.wait)).collect();
    let restores = samples.iter().filter(|s| s.restored).count();
    layers.set("fullsim.exec_ms.sum", exec.iter().sum());
    layers.set("fullsim.exec_ms.p50", quantile(&mut exec, 0.50));
    layers.set("fullsim.exec_ms.p99", quantile(&mut exec, 0.99));
    layers.set("fullsim.cold_boots", (samples.len() - restores) as f64);
    layers.set(
        "fullsim.restore_ratio",
        restores as f64 / samples.len().max(1) as f64,
    );
    layers.set("tasks.queue_wait_ms.p50", quantile(&mut wait, 0.50));
    layers.set("tasks.queue_wait_ms.p99", quantile(&mut wait, 0.99));
}

/// Nearest-rank quantile; 0 for no samples.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn restored(outcome: &ExecOutcome) -> bool {
    outcome
        .events
        .iter()
        .any(|event| event.starts_with("checkpoint-restore:"))
}

/// `simart campaign`'s executor for the in-process schedulers.
fn execute_campaign_run(run: &simart::run::FsRun) -> Result<ExecOutcome, String> {
    simart::remote::execute_campaign_params(run.params())
}

/// Registers the artifact set `simart campaign` registers, byte for
/// byte, so run hashes match the CLI's (the parity check proves it).
fn register_campaign_artifacts(
    experiment: &Experiment,
) -> Result<[ArtifactId; 5], simart::ExperimentError> {
    let repo = experiment.register_artifact(
        Artifact::builder("sim-repo", ArtifactKind::GitRepo)
            .documentation("simulator sources")
            .content(ContentSource::git(
                "https://example.org/simart",
                "campaign-rev",
            )),
    )?;
    let binary = experiment.register_artifact(
        Artifact::builder("sim", ArtifactKind::Binary)
            .documentation("simulator binary")
            .content(ContentSource::bytes(b"simart-binary".to_vec()))
            .input(repo.id()),
    )?;
    let script = experiment.register_artifact(
        Artifact::builder("boot-script", ArtifactKind::RunScript)
            .documentation("boot configuration")
            .content(ContentSource::bytes(b"boot-config".to_vec())),
    )?;
    let kernel = experiment.register_artifact(
        Artifact::builder("vmlinux", ArtifactKind::Kernel)
            .documentation("linux kernel")
            .content(ContentSource::bytes(b"vmlinux-5.4".to_vec())),
    )?;
    let disk = experiment.register_artifact(
        Artifact::builder("disk", ArtifactKind::DiskImage)
            .documentation("ubuntu image")
            .content(ContentSource::bytes(b"ubuntu-18.04.img".to_vec())),
    )?;
    Ok([binary.id(), repo.id(), script.id(), kernel.id(), disk.id()])
}

/// The worker-process entry: `campaign_registry`'s handler, wrapped to
/// append one timing line per run to a file of this process's own when
/// [`TIMINGS_ENV`] names a directory.
pub fn worker() -> i32 {
    let inner = simart::remote::campaign_registry();
    let Some(dir) = std::env::var_os(TIMINGS_ENV) else {
        return simart::tasks::worker_main(&inner);
    };
    let path = Path::new(&dir).join(format!("worker-{}.tsv", std::process::id()));
    let file = match std::fs::File::create(&path) {
        Ok(file) => Mutex::new(file),
        Err(e) => {
            eprintln!("error: cannot create {}: {e}", path.display());
            return 2;
        }
    };
    let mut registry = HandlerRegistry::new();
    registry.register(simart::remote::CAMPAIGN_KIND, move |job: &WorkerJob| {
        let started = unix_ns();
        let begun = Instant::now();
        let result = inner.run(job);
        let exec = begun.elapsed().as_nanos();
        let restored = result
            .as_deref()
            .ok()
            .and_then(|text| simart::remote::decode_outcome(text).ok())
            .is_some_and(|outcome| restored(&outcome));
        let line = format!("{started}\t{exec}\t{}\n", u8::from(restored));
        let mut file = file.lock().expect("timing file lock");
        file.write_all(line.as_bytes())
            .map_err(|e| format!("cannot record timing: {e}"))?;
        result
    });
    simart::tasks::worker_main(&registry)
}

/// Reads every worker's timing file; waits are measured from the
/// coordinator's launch call on the shared wall clock.
fn read_worker_samples(dir: &Path, launch_ns: u128) -> Result<Vec<ExecSample>, String> {
    let mut samples = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| e.to_string())?;
    for entry in entries {
        let text = std::fs::read_to_string(entry.map_err(|e| e.to_string())?.path())
            .map_err(|e| e.to_string())?;
        for line in text.lines() {
            let fields: Vec<u128> = line.split('\t').filter_map(|f| f.parse().ok()).collect();
            let [started, exec, restored] = fields[..] else {
                return Err(format!("bad worker timing line {line:?}"));
            };
            samples.push(ExecSample {
                wait: nanos(started.saturating_sub(launch_ns)),
                exec: nanos(exec),
                restored: restored == 1,
            });
        }
    }
    Ok(samples)
}

fn nanos(n: u128) -> Duration {
    Duration::from_nanos(u64::try_from(n).unwrap_or(u64::MAX))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Seconds from the caller's spawn timestamp to now (0 without one).
fn since_spawn(spawn_ns: Option<u128>) -> f64 {
    spawn_ns.map_or(0.0, |spawn| unix_ns().saturating_sub(spawn) as f64 / 1e9)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// This process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
