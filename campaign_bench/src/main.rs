//! `campaign-bench` — the whole-campaign benchmark driver.
//!
//! ```text
//! campaign-bench campaign --workload W --seed N --db DIR [--store DIR]
//!                         [--trace] [--spawn-ns NS]
//! campaign-bench verify   --workload W --seed N --db DIR [--records]
//! campaign-bench warm     --store DIR
//! campaign-bench worker   (remote worker process; spawned by `campaign`)
//! ```
//!
//! `campaign` is one repetition: it calls what `simart campaign` calls,
//! in the same order, and prints one JSON line. `run.py` beside this
//! package spawns it once per repetition and aggregates the results.

mod campaign;
mod verify;
mod workload;

use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => std::process::exit(campaign::worker()),
        Some("campaign") => campaign_cmd(&args[1..]),
        Some("verify") => verify_cmd(&args[1..]),
        Some("warm") => warm(&args[1..]),
        _ => Err("usage: campaign-bench <campaign|verify|warm|worker> [options]".to_owned()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn seed(args: &[String]) -> Result<u64, String> {
    required(args, "--seed")?
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))
}

fn campaign_cmd(args: &[String]) -> Result<String, String> {
    let spawn_ns = match flag(args, "--spawn-ns") {
        Some(ns) => Some(ns.parse().map_err(|e| format!("bad --spawn-ns: {e}"))?),
        None => None,
    };
    campaign::run(&campaign::Inputs {
        workload: required(args, "--workload")?,
        seed: seed(args)?,
        db: PathBuf::from(required(args, "--db")?),
        store: flag(args, "--store").map(PathBuf::from),
        trace: args.iter().any(|a| a == "--trace"),
        spawn_ns,
    })
}

fn verify_cmd(args: &[String]) -> Result<String, String> {
    verify::verify(
        &PathBuf::from(required(args, "--db")?),
        &required(args, "--workload")?,
        seed(args)?,
        args.iter().any(|a| a == "--records"),
    )
}

/// Fills a boot-checkpoint store with every sweep configuration, so
/// the timed campaigns only restore.
fn warm(args: &[String]) -> Result<String, String> {
    let store = required(args, "--store")?;
    std::env::set_var(simart::remote::CHECKPOINT_DIR_ENV, &store);
    let mut saved = 0;
    for cpu in workload::CPUS {
        for cores in workload::CORES {
            let params = [cpu.to_owned(), cores.to_owned()];
            // The first call saves the boot prefix; the second must
            // restore it.
            simart::remote::execute_campaign_params(&params)?;
            let again = simart::remote::execute_campaign_params(&params)?;
            if !again
                .events
                .iter()
                .any(|e| e.starts_with("checkpoint-restore:"))
            {
                return Err(format!("{cpu}/{cores} did not restore from {store}"));
            }
            saved += 1;
        }
    }
    Ok(format!("{{\"warmed\":{saved}}}"))
}
