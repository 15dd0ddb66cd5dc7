//! Durable boot checkpoints: content-addressed, CRC-framed simulator
//! state on disk.
//!
//! The paper's agile-iteration loop ("boot once, restore many") needs
//! the Linux-boot prefix of an experiment to be a reusable artifact:
//! simulate it once, then restore it for every configuration in a
//! cross-product that shares it. A [`CheckpointStore`] holds one file
//! per distinct boot, **content-addressed** by a key derived from every
//! input that shapes the boot (configuration label, fidelity, format
//! version) — so a restored checkpoint can never silently stand in for
//! a different experiment.
//!
//! The on-disk format is a magic header followed by
//! `[len u32 LE][crc32 u32 LE][payload]` frames (the shared
//! [`simart_codec::frame`] format), each independently checksummed.
//! Unlike a journal, a checkpoint is all-or-nothing: any torn or
//! corrupt frame fails the load (and the campaign executor falls back
//! to a cold boot, re-saving a fresh checkpoint).
//!
//! Scalar statistics round-trip through the exact bit pattern of their
//! `f64` (not a decimal rendering), which is what makes a restored run
//! *bit-identical* to a cold boot — proven by
//! `restored_workload_is_bit_identical_to_cold_boot` in
//! `tests/checkpoint_roundtrip.rs`.

use crate::stats::{StatValue, Stats};
use crate::system::{Checkpoint, SimOutput, SystemConfig};
use simart_codec::{fnv1a, frame};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

/// Checkpoint format version; part of the content-address key, so a
/// format change can never misread old files as current ones.
pub const FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every checkpoint file.
const MAGIC: &[u8; 8] = b"SMARTCP\n";

/// File extension for checkpoint artifacts.
const EXT: &str = "ckpt";

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// The file is not a checkpoint, is torn, or fails a CRC check.
    Corrupt(String),
    /// The file is a valid checkpoint for *different* inputs: its
    /// embedded key does not match the key derived from the requesting
    /// configuration.
    KeyMismatch {
        /// Key the configuration expects.
        want: String,
        /// Key embedded in the file.
        found: String,
    },
    /// The boot being saved did not succeed; only successful boot
    /// prefixes are checkpointable.
    FailedBoot(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::KeyMismatch { want, found } => {
                write!(f, "checkpoint key mismatch: want {want}, found {found}")
            }
            CheckpointError::FailedBoot(outcome) => {
                write!(f, "refusing to checkpoint a failed boot ({outcome})")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The content-address key for a configuration's boot checkpoint.
///
/// Covers every input the boot depends on: the full configuration
/// label (cores, CPU, memory, kernel, boot target, OS), the sampling
/// fidelity, and the checkpoint format version.
pub fn checkpoint_key(config: &SystemConfig) -> String {
    let material = format!(
        "simart-checkpoint/v{FORMAT_VERSION}/{}@{:?}",
        config.label(),
        config.fidelity()
    );
    format!("{:016x}", fnv1a(material.as_bytes()))
}

/// Provenance markers a checkpoint-aware executor logs on its run.
///
/// Rendered with `Display` into the run event log; the `SA0016` lint
/// cross-checks them (a save/restore whose key differs from the
/// announced `checkpoint-key` event means the input hash no longer
/// matches the artifact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointEvent {
    /// The key the configuration hashes to.
    Key(String),
    /// Boot state was restored from the checkpoint with this key.
    Restored(String),
    /// A fresh boot was simulated and saved under this key.
    Saved(String),
    /// An artifact was found but unusable (wrong key or corrupt); the
    /// string says why. A cold boot follows.
    Stale(String),
}

impl fmt::Display for CheckpointEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointEvent::Key(k) => write!(f, "checkpoint-key:{k}"),
            CheckpointEvent::Restored(k) => write!(f, "checkpoint-restore:{k}"),
            CheckpointEvent::Saved(k) => write!(f, "checkpoint-save:{k}"),
            CheckpointEvent::Stale(why) => write!(f, "checkpoint-stale:{why}"),
        }
    }
}

/// A directory of content-addressed boot checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The path an artifact with `key` lives at.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{EXT}"))
    }

    /// Saves a boot checkpoint for `config`, returning its key.
    ///
    /// The write is atomic (tempfile + rename) so a crashed save never
    /// leaves a half-written artifact under a valid key.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FailedBoot`] when the checkpoint's boot did
    /// not succeed; I/O errors otherwise.
    pub fn save(
        &self,
        config: &SystemConfig,
        checkpoint: &Checkpoint,
    ) -> Result<String, CheckpointError> {
        if !checkpoint.boot().outcome.is_success() {
            return Err(CheckpointError::FailedBoot(
                checkpoint.boot().outcome.label().to_owned(),
            ));
        }
        let key = checkpoint_key(config);
        let bytes = serialize(&key, checkpoint);
        let tmp = self.dir.join(format!(".{key}.{EXT}.tmp"));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.path_for(&key))?;
        Ok(key)
    }

    /// Loads the checkpoint for `config`, or `Ok(None)` when no
    /// artifact exists under its key.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] for torn/invalid files,
    /// [`CheckpointError::KeyMismatch`] when the artifact's embedded
    /// key disagrees with the configuration's.
    pub fn load(&self, config: &SystemConfig) -> Result<Option<Checkpoint>, CheckpointError> {
        let key = checkpoint_key(config);
        let bytes = match fs::read(self.path_for(&key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let (found_key, checkpoint) = deserialize(&bytes)?;
        if found_key != key {
            return Err(CheckpointError::KeyMismatch {
                want: key,
                found: found_key,
            });
        }
        if checkpoint.config_label() != config.label() {
            return Err(CheckpointError::KeyMismatch {
                want: config.label(),
                found: checkpoint.config_label().to_owned(),
            });
        }
        Ok(Some(checkpoint))
    }

    /// Restores the boot for `config`, or simulates and saves it.
    ///
    /// The workhorse of "boot once, restore many": returns the boot
    /// checkpoint plus the provenance events describing how it was
    /// obtained. Corrupt or mismatched artifacts are reported as
    /// [`CheckpointEvent::Stale`] and replaced by a fresh cold boot —
    /// the store self-heals rather than failing the experiment.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from the cold boot; I/O errors
    /// from reading the artifact. (A failed *boot* is not an error: it
    /// is returned un-saved, with only the `Key` event.)
    pub fn boot_or_restore(
        &self,
        config: &SystemConfig,
    ) -> Result<(Checkpoint, Vec<CheckpointEvent>), crate::error::SimError> {
        let key = checkpoint_key(config);
        let mut events = vec![CheckpointEvent::Key(key.clone())];
        match self.load(config) {
            Ok(Some(checkpoint)) => {
                events.push(CheckpointEvent::Restored(key));
                return Ok((checkpoint, events));
            }
            Ok(None) => {}
            Err(CheckpointError::KeyMismatch { found, .. }) => {
                events.push(CheckpointEvent::Stale(found));
            }
            Err(CheckpointError::Corrupt(_)) => {
                events.push(CheckpointEvent::Stale("corrupt".to_owned()));
            }
            Err(CheckpointError::Io(e)) => {
                return Err(crate::error::SimError::invalid(format!(
                    "checkpoint store unreadable: {e}"
                )));
            }
            Err(CheckpointError::FailedBoot(_)) => unreachable!("load never returns FailedBoot"),
        }
        let checkpoint = config.checkpoint_boot()?;
        match self.save(config, &checkpoint) {
            Ok(saved_key) => events.push(CheckpointEvent::Saved(saved_key)),
            Err(CheckpointError::FailedBoot(_)) => {
                // A failed boot is a result, not an artifact.
            }
            Err(e) => {
                return Err(crate::error::SimError::invalid(format!(
                    "checkpoint save failed: {e}"
                )));
            }
        }
        Ok((checkpoint, events))
    }
}

/// Reads the frame at `*pos`, advancing it. Unlike a journal, a
/// checkpoint has no tolerable torn tail: any short or corrupt frame
/// fails the whole load.
fn read_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], CheckpointError> {
    match frame::decode(&bytes[*pos..]) {
        frame::Decoded::Complete { payload, consumed } => {
            *pos += consumed;
            Ok(payload)
        }
        frame::Decoded::Incomplete => Err(bad("torn frame")),
        frame::Decoded::BadCrc { .. } => Err(bad("frame CRC mismatch")),
    }
}

/// Renders the checkpoint as magic + header frame + boot frame +
/// stats frame.
fn serialize(key: &str, checkpoint: &Checkpoint) -> Vec<u8> {
    let boot = checkpoint.boot();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    frame::write(
        &mut out,
        format!(
            "version {FORMAT_VERSION}\nkey {key}\nlabel {}\n",
            checkpoint.config_label()
        )
        .as_bytes(),
    );
    // host_seconds (and scalar stats below) serialize as the exact f64
    // bit pattern: decimal formatting would round and break the
    // bit-identical-restore guarantee.
    frame::write(
        &mut out,
        format!(
            "sim_ticks {}\ninstructions {}\nhost_seconds {:016x}\n",
            boot.sim_ticks,
            boot.instructions,
            boot.host_seconds.to_bits()
        )
        .as_bytes(),
    );
    let mut stats_text = String::new();
    for (name, value) in boot.stats.iter() {
        match value {
            StatValue::Count(v) => stats_text.push_str(&format!("C {name} {v}\n")),
            StatValue::Scalar(v) => {
                stats_text.push_str(&format!("S {name} {:016x}\n", v.to_bits()));
            }
        }
    }
    frame::write(&mut out, stats_text.as_bytes());
    out
}

fn bad(why: &str) -> CheckpointError {
    CheckpointError::Corrupt(why.to_owned())
}

/// Parses a serialized checkpoint, returning its embedded key.
fn deserialize(bytes: &[u8]) -> Result<(String, Checkpoint), CheckpointError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(bad("bad magic"));
    }
    let mut pos = MAGIC.len();

    let header = std::str::from_utf8(read_frame(bytes, &mut pos)?)
        .map_err(|_| bad("header not UTF-8"))?
        .to_owned();
    let mut version = None;
    let mut key = None;
    let mut label = None;
    for line in header.lines() {
        match line.split_once(' ') {
            Some(("version", v)) => version = v.parse::<u32>().ok(),
            Some(("key", v)) => key = Some(v.to_owned()),
            Some(("label", v)) => label = Some(v.to_owned()),
            _ => return Err(bad("unknown header line")),
        }
    }
    if version != Some(FORMAT_VERSION) {
        return Err(bad("unsupported format version"));
    }
    let (Some(key), Some(label)) = (key, label) else {
        return Err(bad("incomplete header"));
    };

    let boot_frame = std::str::from_utf8(read_frame(bytes, &mut pos)?)
        .map_err(|_| bad("boot frame not UTF-8"))?
        .to_owned();
    let mut sim_ticks = None;
    let mut instructions = None;
    let mut host_seconds = None;
    for line in boot_frame.lines() {
        match line.split_once(' ') {
            Some(("sim_ticks", v)) => sim_ticks = v.parse::<u64>().ok(),
            Some(("instructions", v)) => instructions = v.parse::<u64>().ok(),
            Some(("host_seconds", v)) => {
                host_seconds = u64::from_str_radix(v, 16).ok().map(f64::from_bits);
            }
            _ => return Err(bad("unknown boot line")),
        }
    }
    let (Some(sim_ticks), Some(instructions), Some(host_seconds)) =
        (sim_ticks, instructions, host_seconds)
    else {
        return Err(bad("incomplete boot frame"));
    };

    let stats_frame = std::str::from_utf8(read_frame(bytes, &mut pos)?)
        .map_err(|_| bad("stats frame not UTF-8"))?
        .to_owned();
    let mut stats = Stats::new();
    for line in stats_frame.lines() {
        let mut parts = line.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("C"), Some(name), Some(v)) => {
                stats.set_count(name, v.parse().map_err(|_| bad("bad counter"))?);
            }
            (Some("S"), Some(name), Some(v)) => {
                let bits = u64::from_str_radix(v, 16).map_err(|_| bad("bad scalar"))?;
                stats.set_scalar(name, f64::from_bits(bits));
            }
            _ => return Err(bad("unknown stats line")),
        }
    }
    if pos != bytes.len() {
        return Err(bad("trailing bytes after final frame"));
    }

    let boot = SimOutput {
        outcome: crate::compat::BootOutcome::Success,
        sim_ticks,
        instructions,
        host_seconds,
        stats,
    };
    Ok((key, Checkpoint::from_parts(label, boot)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Fidelity;

    fn smoke_config() -> SystemConfig {
        SystemConfig::builder()
            .fidelity(Fidelity::Smoke)
            .build()
            .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simart-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_covers_config_and_fidelity() {
        let smoke = smoke_config();
        let standard = SystemConfig::builder()
            .fidelity(Fidelity::Standard)
            .build()
            .unwrap();
        let more_cores = SystemConfig::builder()
            .fidelity(Fidelity::Smoke)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(checkpoint_key(&smoke), checkpoint_key(&smoke_config()));
        assert_ne!(checkpoint_key(&smoke), checkpoint_key(&standard));
        assert_ne!(checkpoint_key(&smoke), checkpoint_key(&more_cores));
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let config = smoke_config();
        let checkpoint = config.checkpoint_boot().unwrap();
        let key = store.save(&config, &checkpoint).unwrap();
        assert!(store.path_for(&key).is_file());
        let loaded = store.load(&config).unwrap().expect("artifact exists");
        assert_eq!(&loaded, &checkpoint, "bit-identical round trip");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_artifact_loads_as_none() {
        let dir = tmp_dir("missing");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load(&smoke_config()).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_truncated_files_are_rejected() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        let config = smoke_config();
        let checkpoint = config.checkpoint_boot().unwrap();
        let key = store.save(&config, &checkpoint).unwrap();
        let path = store.path_for(&key);
        let good = fs::read(&path).unwrap();

        // Flip one payload byte: CRC must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            store.load(&config),
            Err(CheckpointError::Corrupt(_))
        ));

        // Truncate mid-frame: torn files are corrupt, not partial.
        fs::write(&path, &good[..good.len() - 7]).unwrap();
        assert!(matches!(
            store.load(&config),
            Err(CheckpointError::Corrupt(_))
        ));

        // Not a checkpoint at all.
        fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(matches!(
            store.load(&config),
            Err(CheckpointError::Corrupt(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_key_is_detected() {
        let dir = tmp_dir("stale");
        let store = CheckpointStore::open(&dir).unwrap();
        let config = smoke_config();
        let other = SystemConfig::builder()
            .fidelity(Fidelity::Smoke)
            .cores(2)
            .build()
            .unwrap();
        // Save the 2-core checkpoint under the 1-core key, simulating
        // an artifact whose inputs changed after it was produced.
        let checkpoint = other.checkpoint_boot().unwrap();
        let bytes = serialize(&checkpoint_key(&other), &checkpoint);
        fs::write(store.path_for(&checkpoint_key(&config)), bytes).unwrap();
        assert!(matches!(
            store.load(&config),
            Err(CheckpointError::KeyMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_boots_are_not_checkpointable() {
        let dir = tmp_dir("failedboot");
        let store = CheckpointStore::open(&dir).unwrap();
        let config = SystemConfig::builder()
            .fidelity(Fidelity::Smoke)
            .cpu(crate::cpu::CpuKind::AtomicSimple)
            .memory(crate::mem::MemKind::RubyMi)
            .build()
            .unwrap();
        let checkpoint = config.checkpoint_boot().unwrap();
        assert!(!checkpoint.boot().outcome.is_success());
        assert!(matches!(
            store.save(&config, &checkpoint),
            Err(CheckpointError::FailedBoot(_))
        ));
        // boot_or_restore still yields the failed boot, with only the
        // key event (nothing saved, nothing to restore).
        let (ckpt, events) = store.boot_or_restore(&config).unwrap();
        assert!(!ckpt.boot().outcome.is_success());
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], CheckpointEvent::Key(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn boot_or_restore_saves_then_restores_then_heals() {
        let dir = tmp_dir("bor");
        let store = CheckpointStore::open(&dir).unwrap();
        let config = smoke_config();
        let key = checkpoint_key(&config);

        let (cold, events) = store.boot_or_restore(&config).unwrap();
        assert_eq!(
            events,
            vec![
                CheckpointEvent::Key(key.clone()),
                CheckpointEvent::Saved(key.clone())
            ]
        );

        let (warm, events) = store.boot_or_restore(&config).unwrap();
        assert_eq!(
            events,
            vec![
                CheckpointEvent::Key(key.clone()),
                CheckpointEvent::Restored(key.clone())
            ]
        );
        assert_eq!(&warm, &cold, "restore is bit-identical to the cold boot");

        // Corrupt the artifact: the store heals it on the next call.
        let path = store.path_for(&key);
        fs::write(&path, b"garbage").unwrap();
        let (healed, events) = store.boot_or_restore(&config).unwrap();
        assert_eq!(
            events,
            vec![
                CheckpointEvent::Key(key.clone()),
                CheckpointEvent::Stale("corrupt".to_owned()),
                CheckpointEvent::Saved(key.clone())
            ]
        );
        assert_eq!(&healed, &cold);
        assert!(store.load(&config).unwrap().is_some(), "artifact re-saved");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_rendering_matches_the_lint_grammar() {
        assert_eq!(
            CheckpointEvent::Key("abc".into()).to_string(),
            "checkpoint-key:abc"
        );
        assert_eq!(
            CheckpointEvent::Restored("abc".into()).to_string(),
            "checkpoint-restore:abc"
        );
        assert_eq!(
            CheckpointEvent::Saved("abc".into()).to_string(),
            "checkpoint-save:abc"
        );
        assert_eq!(
            CheckpointEvent::Stale("corrupt".into()).to_string(),
            "checkpoint-stale:corrupt"
        );
    }
}
