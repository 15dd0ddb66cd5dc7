//! Output checks on a finished repetition's database, outside the
//! timed process.

use crate::workload::{self, CORES, CPUS};
use simart::db::{Database, LoadOptions, Value};
use simart::sim::cpu::CpuKind;
use simart::sim::system::{Fidelity, SystemConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// What the checks found, rendered as one JSON line.
///
/// A strict reload must find every planned run exactly once, each
/// `done`, and the runs' `sim_ticks` must sum to what one cold
/// `boot_only` per configuration predicts — so restored boots are
/// bit-identical to cold ones. A workload whose campaign does not lint
/// itself (no `--check`) has the reloaded database linted here.
/// With `records`, the `(hash, status, sim_ticks)` of every run is
/// listed for the CLI parity check.
///
/// # Errors
///
/// An unknown workload or a database the strict reload refuses.
pub fn verify(dir: &Path, workload: &str, seed: u64, records: bool) -> Result<String, String> {
    let plan = workload::plan(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let (db, _) = Database::load_with(dir, &LoadOptions::strict())
        .map_err(|e| format!("strict reload refused the database: {e}"))?;
    let expected_ticks = boot_ticks()?;

    let mut planned: BTreeSet<Vec<String>> =
        workload::run_params(&plan, seed).into_iter().collect();
    let planned_count = planned.len();
    let mut unplanned = 0usize;
    let mut not_done = 0usize;
    let mut ticks: u128 = 0;
    let mut want: u128 = 0;
    let mut listed = Vec::new();
    for doc in db.collection("runs").all() {
        let params: Vec<String> = doc
            .at("params")
            .and_then(Value::as_array)
            .map(|values| {
                values
                    .iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        let status = doc.at("status").and_then(Value::as_str).unwrap_or("");
        let sim_ticks = doc
            .at("results.simTicks")
            .and_then(Value::as_int)
            .unwrap_or(0);
        if !planned.remove(&params) {
            unplanned += 1;
        }
        if status != "done" {
            not_done += 1;
        }
        ticks += u128::try_from(sim_ticks).unwrap_or(0);
        let config = (
            params.first().cloned().unwrap_or_default(),
            params.get(1).cloned().unwrap_or_default(),
        );
        want += expected_ticks.get(&config).copied().unwrap_or(0);
        if records {
            let hash = doc.at("hash").and_then(Value::as_str).unwrap_or("");
            listed.push(format!("[\"{hash}\",\"{status}\",{sim_ticks}]"));
        }
    }
    listed.sort();
    let diagnostics = if !plan.check {
        simart::analyze::lint::lint_database(&db).len()
    } else {
        0
    };
    Ok(format!(
        "{{\"planned\":{planned_count},\"missing\":{},\"unplanned\":{unplanned},\
         \"not_done\":{not_done},\"ticks_ok\":{},\"diagnostics\":{diagnostics},\
         \"records\":[{}]}}",
        planned.len(),
        ticks == want && want > 0,
        listed.join(",")
    ))
}

/// One untimed cold `boot_only` per sweep configuration.
fn boot_ticks() -> Result<BTreeMap<(String, String), u128>, String> {
    let mut ticks = BTreeMap::new();
    for cpu in CPUS {
        for cores in CORES {
            let kind = match cpu {
                "kvm" => CpuKind::Kvm,
                "atomic" => CpuKind::AtomicSimple,
                _ => CpuKind::TimingSimple,
            };
            let config = SystemConfig::builder()
                .cpu(kind)
                .cores(cores.parse().map_err(|e| format!("bad core count: {e}"))?)
                .fidelity(Fidelity::Standard)
                .build()
                .map_err(|e| e.to_string())?;
            let output = config.boot_only().map_err(|e| e.to_string())?;
            ticks.insert(
                (cpu.to_owned(), cores.to_owned()),
                u128::from(output.sim_ticks),
            );
        }
    }
    Ok(ticks)
}
