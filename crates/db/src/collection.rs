//! Document collections: hash-sharded storage, declared secondary
//! indexes, and copy-on-write snapshots.
//!
//! A collection's documents are split across [`SHARD_COUNT`] hash
//! shards (by `_id`), each behind its own lock, so point reads on
//! different documents never contend. Every shard holds its map behind
//! an [`Arc`]; [`Collection::snapshot`] clones those `Arc`s to freeze a
//! consistent view, and writers use copy-on-write
//! ([`Arc::make_mut`]) so they proceed while snapshots are held.
//!
//! Secondary indexes are declared with [`Collection::ensure_index`]
//! ([`IndexSpec`]) and maintained write-through at the same commit
//! point as the journal append. Index state is never load-bearing:
//! it is rebuilt deterministically from the documents on every load,
//! and [`Collection::verify_indexes`] can cross-check it at any time.

use crate::error::DbError;
use crate::journal::{self, JournalCell, JournalOp};
use crate::query::{Filter, Probe, SortOrder};
use crate::value::Value;
use parking_lot::RwLock;
use simart_observe as observe;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Bound;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Number of hash shards per collection. A fixed power of two keeps
/// `_id -> shard` assignment stable across processes (shard layout is
/// an in-memory detail, but determinism keeps iteration reproducible).
const SHARD_COUNT: usize = 16;

/// FNV-1a over the document id selects its shard.
fn shard_of(id: &str) -> usize {
    (simart_codec::fnv1a(id.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// How a secondary index organizes its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Rendered-value hash index: serves equality and array-membership
    /// probes. Array fields are multikey — the whole array and each
    /// non-null element are indexed.
    Hash,
    /// Value-ordered index: serves equality, range (`Gt`/`Gte`/`Lt`/
    /// `Lte`), and `find_sorted` traversal in [`Value::compare`] order.
    Ordered,
}

impl IndexKind {
    /// Stable on-disk / journal name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexKind::Hash => "hash",
            IndexKind::Ordered => "ordered",
        }
    }

    /// Parses the stable name back; `None` for unknown text.
    pub fn parse(text: &str) -> Option<IndexKind> {
        match text {
            "hash" => Some(IndexKind::Hash),
            "ordered" => Some(IndexKind::Ordered),
            _ => None,
        }
    }
}

/// A declared secondary index on one dotted field path.
///
/// At most one index may exist per path; redeclaring an identical spec
/// is a no-op, a different spec on the same path is an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Dotted field path the index covers.
    pub path: String,
    /// Hash or ordered organization.
    pub kind: IndexKind,
    /// Whether two documents may share a non-null rendered key.
    pub unique: bool,
}

impl IndexSpec {
    /// A non-unique hash index on `path`.
    pub fn hash(path: impl Into<String>) -> IndexSpec {
        IndexSpec {
            path: path.into(),
            kind: IndexKind::Hash,
            unique: false,
        }
    }

    /// A non-unique ordered index on `path`.
    pub fn ordered(path: impl Into<String>) -> IndexSpec {
        IndexSpec {
            path: path.into(),
            kind: IndexKind::Ordered,
            unique: false,
        }
    }

    /// Marks the index unique (null / missing values stay exempt).
    pub fn unique(mut self) -> IndexSpec {
        self.unique = true;
        self
    }
}

/// One discrepancy found by [`Collection::verify_indexes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDivergence {
    /// The indexed field path.
    pub path: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Ordered-index key: sorts primarily by [`Value::compare`], with the
/// rendered JSON as a total tie-break so distinct-but-compare-equal
/// values (`1` vs `1.0`) occupy deterministic adjacent slots.
#[derive(Debug, Clone)]
struct OrdKey {
    value: Value,
    rendered: String,
}

impl OrdKey {
    fn for_value(value: &Value) -> OrdKey {
        OrdKey {
            value: value.clone(),
            rendered: crate::json::to_json(value),
        }
    }
}

impl PartialEq for OrdKey {
    fn eq(&self, other: &OrdKey) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdKey {}
impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &OrdKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdKey {
    fn cmp(&self, other: &OrdKey) -> std::cmp::Ordering {
        self.value
            .compare(&other.value)
            .then_with(|| self.rendered.cmp(&other.rendered))
    }
}

/// Sentinel rendered strings strictly below / above every real rendered
/// key (all rendered JSON is non-empty and starts with an ASCII
/// character), used to aim range bounds at whole compare-equal classes.
const RENDERED_MIN: &str = "";
const RENDERED_MAX: &str = "\u{10FFFF}";

fn class_bound(value: &Value, top: bool) -> OrdKey {
    OrdKey {
        value: value.clone(),
        rendered: if top { RENDERED_MAX } else { RENDERED_MIN }.to_owned(),
    }
}

#[derive(Debug)]
enum IndexData {
    Hash(BTreeMap<String, BTreeSet<String>>),
    Ordered(BTreeMap<OrdKey, BTreeSet<String>>),
}

#[derive(Debug)]
struct Index {
    spec: IndexSpec,
    data: IndexData,
}

/// Rendered keys a document contributes to a hash index: the whole
/// value, plus each non-null element when the value is an array
/// (multikey). Null / missing values contribute nothing (sparse).
fn hash_keys(doc: &Value, path: &str) -> Vec<String> {
    let Some(value) = doc.at(path) else {
        return Vec::new();
    };
    if value.is_null() {
        return Vec::new();
    }
    let mut keys = vec![crate::json::to_json(value)];
    if let Value::Array(items) = value {
        for item in items {
            if item.is_null() {
                continue;
            }
            let key = crate::json::to_json(item);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

impl Index {
    fn new(spec: IndexSpec) -> Index {
        let data = match spec.kind {
            IndexKind::Hash => IndexData::Hash(BTreeMap::new()),
            IndexKind::Ordered => IndexData::Ordered(BTreeMap::new()),
        };
        Index { spec, data }
    }

    /// Unique-constraint check for `doc` arriving as `id`; an existing
    /// occupant other than `id` itself is a violation.
    fn check_unique(&self, collection: &str, id: &str, doc: &Value) -> Result<(), DbError> {
        if !self.spec.unique {
            return Ok(());
        }
        let violation = |key: &str| DbError::UniqueViolation {
            collection: collection.to_owned(),
            field: self.spec.path.clone(),
            value: key.to_owned(),
        };
        match &self.data {
            IndexData::Hash(map) => {
                for key in hash_keys(doc, &self.spec.path) {
                    if let Some(ids) = map.get(&key) {
                        if ids.iter().any(|other| other != id) {
                            return Err(violation(&key));
                        }
                    }
                }
            }
            IndexData::Ordered(map) => {
                if let Some(value) = doc.at(&self.spec.path) {
                    if !value.is_null() {
                        let key = OrdKey::for_value(value);
                        if let Some(ids) = map.get(&key) {
                            if ids.iter().any(|other| other != id) {
                                return Err(violation(&key.rendered));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn add(&mut self, id: &str, doc: &Value) {
        match &mut self.data {
            IndexData::Hash(map) => {
                for key in hash_keys(doc, &self.spec.path) {
                    map.entry(key).or_default().insert(id.to_owned());
                }
            }
            IndexData::Ordered(map) => {
                if let Some(value) = doc.at(&self.spec.path) {
                    map.entry(OrdKey::for_value(value))
                        .or_default()
                        .insert(id.to_owned());
                }
            }
        }
    }

    fn remove(&mut self, id: &str, doc: &Value) {
        match &mut self.data {
            IndexData::Hash(map) => {
                for key in hash_keys(doc, &self.spec.path) {
                    if let Some(ids) = map.get_mut(&key) {
                        ids.remove(id);
                        if ids.is_empty() {
                            map.remove(&key);
                        }
                    }
                }
            }
            IndexData::Ordered(map) => {
                if let Some(value) = doc.at(&self.spec.path) {
                    let key = OrdKey::for_value(value);
                    if let Some(ids) = map.get_mut(&key) {
                        ids.remove(id);
                        if ids.is_empty() {
                            map.remove(&key);
                        }
                    }
                }
            }
        }
    }

    /// Candidate ids for an equality probe (superset of exact matches:
    /// an ordered index returns the whole compare-equal class).
    fn probe_eq(&self, value: &Value) -> Vec<String> {
        match &self.data {
            IndexData::Hash(map) => map
                .get(&crate::json::to_json(value))
                .map(|ids| ids.iter().cloned().collect())
                .unwrap_or_default(),
            IndexData::Ordered(map) => map
                .range((
                    Bound::Included(class_bound(value, false)),
                    Bound::Included(class_bound(value, true)),
                ))
                .flat_map(|(_, ids)| ids.iter().cloned())
                .collect(),
        }
    }

    /// Candidate ids for an array-membership probe (hash multikey only).
    fn probe_elem(&self, value: &Value) -> Option<Vec<String>> {
        match &self.data {
            IndexData::Hash(map) => Some(
                map.get(&crate::json::to_json(value))
                    .map(|ids| ids.iter().cloned().collect())
                    .unwrap_or_default(),
            ),
            IndexData::Ordered(_) => None,
        }
    }

    /// Candidate ids for a range probe (ordered only). Bounds are
    /// `(value, inclusive)`; `None` is unbounded on that side.
    fn probe_range(
        &self,
        lower: Option<(&Value, bool)>,
        upper: Option<(&Value, bool)>,
    ) -> Option<Vec<String>> {
        let IndexData::Ordered(map) = &self.data else {
            return None;
        };
        // Bounds aim at whole compare-equal classes: inclusive bounds
        // take the class, exclusive bounds skip it.
        let start = match lower {
            None => Bound::Unbounded,
            Some((value, true)) => Bound::Included(class_bound(value, false)),
            Some((value, false)) => Bound::Excluded(class_bound(value, true)),
        };
        let end = match upper {
            None => Bound::Unbounded,
            Some((value, true)) => Bound::Included(class_bound(value, true)),
            Some((value, false)) => Bound::Excluded(class_bound(value, false)),
        };
        // An inverted range would panic inside BTreeMap::range; it can
        // only arise from a contradictory filter, which matches nothing.
        if let (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e) | Bound::Excluded(e)) =
            (&start, &end)
        {
            if s > e {
                return Some(Vec::new());
            }
        }
        Some(
            map.range((start, end))
                .flat_map(|(_, ids)| ids.iter().cloned())
                .collect(),
        )
    }

    /// Rendered key -> sorted ids view, shared by the persistence
    /// manifest, [`Collection::index_state`], and divergence checks.
    fn rendered_entries(&self) -> BTreeMap<String, BTreeSet<String>> {
        match &self.data {
            IndexData::Hash(map) => map.clone(),
            IndexData::Ordered(map) => {
                let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
                for (key, ids) in map {
                    out.entry(key.rendered.clone())
                        .or_default()
                        .extend(ids.iter().cloned());
                }
                out
            }
        }
    }

    /// The keys `doc` is expected to occupy, rendered.
    fn expected_keys(&self, doc: &Value) -> Vec<String> {
        match self.spec.kind {
            IndexKind::Hash => hash_keys(doc, &self.spec.path),
            IndexKind::Ordered => doc
                .at(&self.spec.path)
                .map(|v| vec![crate::json::to_json(v)])
                .unwrap_or_default(),
        }
    }
}

#[derive(Debug, Default)]
struct IndexSet {
    indexes: Vec<Index>,
}

impl IndexSet {
    fn get(&self, path: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.spec.path == path)
    }

    /// Validates every unique constraint before anything is mutated.
    fn check_unique(&self, collection: &str, id: &str, doc: &Value) -> Result<(), DbError> {
        for index in &self.indexes {
            index.check_unique(collection, id, doc)?;
        }
        Ok(())
    }

    fn add_doc(&mut self, id: &str, doc: &Value) {
        for index in &mut self.indexes {
            index.add(id, doc);
        }
    }

    fn remove_doc(&mut self, id: &str, doc: &Value) {
        for index in &mut self.indexes {
            index.remove(id, doc);
        }
    }
}

/// A consistent, immutable view of a collection's documents.
///
/// Obtained from [`Collection::snapshot`]; cheap to create (clones one
/// `Arc` per shard under a brief lock) and never blocks or observes
/// subsequent writers, which copy-on-write their shard maps instead.
/// Reads on a snapshot record no query metrics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    name: String,
    shards: Vec<Arc<BTreeMap<String, Value>>>,
}

impl Snapshot {
    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of documents in the snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the snapshot holds no documents.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Fetches a document by `_id`.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.shards[shard_of(id)].get(id).cloned()
    }

    /// All documents, ordered by `_id`.
    pub fn all(&self) -> Vec<Value> {
        self.find(&Filter::All)
    }

    /// Documents matching `filter`, ordered by `_id`.
    pub fn find(&self, filter: &Filter) -> Vec<Value> {
        let mut matches: Vec<(&String, &Value)> = self
            .shards
            .iter()
            .flat_map(|shard| shard.iter())
            .filter(|(_, doc)| filter.matches(doc))
            .collect();
        matches.sort_by(|a, b| a.0.cmp(b.0));
        matches.into_iter().map(|(_, doc)| doc.clone()).collect()
    }

    /// The first matching document in `_id` order.
    pub fn find_one(&self, filter: &Filter) -> Option<Value> {
        let mut best: Option<(&String, &Value)> = None;
        for entry in self
            .shards
            .iter()
            .flat_map(|shard| shard.iter())
            .filter(|(_, doc)| filter.matches(doc))
        {
            match &best {
                Some((id, _)) if *id <= entry.0 => {}
                _ => best = Some(entry),
            }
        }
        best.map(|(_, doc)| doc.clone())
    }

    /// Counts matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        self.shards
            .iter()
            .flat_map(|shard| shard.iter())
            .filter(|(_, doc)| filter.matches(doc))
            .count()
    }

    /// Matching documents sorted by a field path (missing fields sort
    /// as `Null`; ties keep `_id` order).
    pub fn find_sorted(&self, filter: &Filter, sort_path: &str, order: SortOrder) -> Vec<Value> {
        let mut results = self.find(filter);
        sort_docs(&mut results, sort_path, order);
        results
    }
}

fn sort_docs(docs: &mut [Value], sort_path: &str, order: SortOrder) {
    docs.sort_by(|a, b| {
        let va = a.at(sort_path).unwrap_or(&Value::Null);
        let vb = b.at(sort_path).unwrap_or(&Value::Null);
        let ord = va.compare(vb);
        match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        }
    });
}

/// A named set of documents with unique `_id`s.
///
/// Collections are cheap `Arc` handles; clones share storage, and all
/// operations are thread-safe (the paper's framework writes results from
/// many concurrent simulation tasks into one database). Documents live
/// in hash shards behind per-shard locks; declared indexes live behind
/// one collection-wide lock that serializes writers against each other
/// (and against index readers) while leaving point reads and held
/// [`Snapshot`]s contention-free.
///
/// Collections obtained from a directory-attached database
/// ([`Database::open`](crate::Database::open)) write every mutation
/// through the database's append-only journal before applying it in
/// memory, so killing the process at any instant is recoverable by
/// replay (see the [`journal`](crate::journal) module docs for the
/// durability scope against OS crashes). Index definitions are
/// journaled the same way (`idx` records), so they survive checkpoint
/// compaction and crash replay.
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    inner: Arc<Inner>,
    journal: JournalCell,
}

#[derive(Debug)]
struct Inner {
    /// Hash shards; `shard_of(_id)` picks the slot. Each shard's map is
    /// `Arc`-wrapped for copy-on-write snapshot isolation.
    shards: Vec<RwLock<Shard>>,
    /// Declared secondary indexes. Writers take this lock in write mode
    /// for the whole journal-append + apply sequence, so any holder of
    /// the read lock sees documents and indexes mutually consistent.
    indexes: RwLock<IndexSet>,
}

#[derive(Debug, Default)]
struct Shard {
    docs: Arc<BTreeMap<String, Value>>,
}

impl Collection {
    /// A detached collection (tests only — production collections come
    /// from a [`Database`](crate::Database) and share its journal).
    #[cfg(test)]
    pub(crate) fn new(name: impl Into<String>) -> Collection {
        Collection::with_journal(name, JournalCell::default())
    }

    pub(crate) fn with_journal(name: impl Into<String>, journal: JournalCell) -> Collection {
        Collection {
            name: name.into(),
            inner: Arc::new(Inner {
                shards: (0..SHARD_COUNT)
                    .map(|_| RwLock::new(Shard::default()))
                    .collect(),
                indexes: RwLock::new(IndexSet::default()),
            }),
            journal,
        }
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Captures one `Arc` per shard. Callers hold the index lock (read
    /// or write) across the captures so the view is a consistent cut.
    fn capture_shards(&self) -> Vec<Arc<BTreeMap<String, Value>>> {
        self.inner
            .shards
            .iter()
            .map(|shard| Arc::clone(&shard.read().docs))
            .collect()
    }

    /// A consistent copy-on-write snapshot of the collection.
    pub fn snapshot(&self) -> Snapshot {
        let _indexes = self.inner.indexes.read();
        Snapshot {
            name: self.name.clone(),
            shards: self.capture_shards(),
        }
    }

    /// Declares a secondary index. Existing documents are indexed
    /// immediately; on an attached database the definition is journaled
    /// (an `idx` record) so it survives checkpoint compaction.
    /// Redeclaring an identical spec is a no-op (and appends nothing).
    ///
    /// # Errors
    ///
    /// * [`DbError::UniqueViolation`] — `spec.unique` and two existing
    ///   documents collide on `spec.path`; the index is not installed.
    /// * [`DbError::IndexConflict`] — a different index already covers
    ///   `spec.path`.
    pub fn ensure_index(&self, spec: IndexSpec) -> Result<(), DbError> {
        let mut indexes = self.inner.indexes.write();
        if let Some(existing) = indexes.get(&spec.path) {
            if existing.spec == spec {
                return Ok(());
            }
            return Err(DbError::IndexConflict {
                collection: self.name.clone(),
                path: spec.path,
            });
        }
        let mut index = Index::new(spec.clone());
        for shard in &self.inner.shards {
            for (id, doc) in shard.read().docs.iter() {
                index.check_unique(&self.name, id, doc)?;
                index.add(id, doc);
            }
        }
        journal::append_if_attached(
            &self.journal,
            &JournalOp::EnsureIndex {
                collection: self.name.clone(),
                spec,
            },
        )?;
        indexes.indexes.push(index);
        Ok(())
    }

    /// Declares a unique constraint on `path` — sugar for a unique
    /// [`IndexKind::Hash`] index. Existing documents are checked
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UniqueViolation`] when two existing documents
    /// already collide on `path`; the constraint is not installed then.
    pub fn ensure_unique(&self, path: impl Into<String>) -> Result<(), DbError> {
        self.ensure_index(IndexSpec::hash(path).unique())
    }

    /// The declared index specs, in declaration order.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        self.inner
            .indexes
            .read()
            .indexes
            .iter()
            .map(|ix| ix.spec.clone())
            .collect()
    }

    /// The entries of the index on `path` as `(key value, sorted ids)`
    /// pairs in key order, or `None` when no index covers `path`.
    /// Hash-index keys are decoded from their rendered form; multikey
    /// array entries appear both whole and per element.
    pub fn index_entries(&self, path: &str) -> Option<Vec<(Value, Vec<String>)>> {
        let indexes = self.inner.indexes.read();
        let index = indexes.get(path)?;
        Some(match &index.data {
            IndexData::Hash(map) => map
                .iter()
                .map(|(key, ids)| {
                    (
                        crate::json::from_json(key).unwrap_or(Value::Null),
                        ids.iter().cloned().collect(),
                    )
                })
                .collect(),
            IndexData::Ordered(map) => map
                .iter()
                .map(|(key, ids)| (key.value.clone(), ids.iter().cloned().collect()))
                .collect(),
        })
    }

    /// Canonical, deterministic rendering of every index: an array
    /// (sorted by path) of `{path, kind, unique, keys}` maps, where
    /// `keys` maps each rendered key to its sorted ids. Byte-identical
    /// across a rebuild from the same documents; used by the
    /// persistence manifest, divergence lints, and property tests.
    pub fn index_state(&self) -> Value {
        let indexes = self.inner.indexes.read();
        let mut states: Vec<(String, Value)> = indexes
            .indexes
            .iter()
            .map(|index| {
                let keys: BTreeMap<String, Value> = index
                    .rendered_entries()
                    .into_iter()
                    .map(|(key, ids)| {
                        (key, Value::Array(ids.into_iter().map(Value::Str).collect()))
                    })
                    .collect();
                (
                    index.spec.path.clone(),
                    Value::map([
                        ("path", Value::from(index.spec.path.as_str())),
                        ("kind", Value::from(index.spec.kind.as_str())),
                        ("unique", Value::from(index.spec.unique)),
                        ("keys", Value::Map(keys)),
                    ]),
                )
            })
            .collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Array(states.into_iter().map(|(_, v)| v).collect())
    }

    /// Cross-checks every index against the documents, both directions:
    /// entries pointing at missing documents or stale rendered keys, and
    /// documents absent from an index that should cover them. An empty
    /// result means indexes and documents agree exactly.
    pub fn verify_indexes(&self) -> Vec<IndexDivergence> {
        let indexes = self.inner.indexes.read();
        let shards = self.capture_shards();
        let mut out = Vec::new();
        for index in &indexes.indexes {
            let path = &index.spec.path;
            let actual = index.rendered_entries();
            let mut expected: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for shard in &shards {
                for (id, doc) in shard.iter() {
                    for key in index.expected_keys(doc) {
                        expected.entry(key).or_default().insert(id.clone());
                    }
                }
            }
            for (key, ids) in &actual {
                for id in ids {
                    if expected.get(key).is_none_or(|set| !set.contains(id)) {
                        let detail = if shards[shard_of(id)].contains_key(id) {
                            format!(
                                "index entry {key} -> {id} does not match the document's rendered key"
                            )
                        } else {
                            format!("index entry {key} -> {id} points at a missing document")
                        };
                        out.push(IndexDivergence {
                            path: path.clone(),
                            detail,
                        });
                    }
                }
            }
            for (key, ids) in &expected {
                for id in ids {
                    if actual.get(key).is_none_or(|set| !set.contains(id)) {
                        out.push(IndexDivergence {
                            path: path.clone(),
                            detail: format!("document {id} is missing from the index under {key}"),
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| (&a.path, &a.detail).cmp(&(&b.path, &b.detail)));
        out
    }

    /// Test hook: plants a raw entry in the index on `path` (no-op when
    /// no such index exists). Exists so divergence detection can be
    /// exercised; never call this outside tests.
    #[doc(hidden)]
    pub fn inject_index_entry(&self, path: &str, rendered_key: &str, id: &str) {
        let mut indexes = self.inner.indexes.write();
        let Some(index) = indexes.indexes.iter_mut().find(|ix| ix.spec.path == path) else {
            return;
        };
        match &mut index.data {
            IndexData::Hash(map) => {
                map.entry(rendered_key.to_owned())
                    .or_default()
                    .insert(id.to_owned());
            }
            IndexData::Ordered(map) => {
                let value = crate::json::from_json(rendered_key).unwrap_or(Value::Null);
                map.entry(OrdKey {
                    value,
                    rendered: rendered_key.to_owned(),
                })
                .or_default()
                .insert(id.to_owned());
            }
        }
    }

    /// Inserts a document.
    ///
    /// The document must be a map carrying a string `_id` field.
    ///
    /// # Errors
    ///
    /// * [`DbError::InvalidDocument`] — not a map / missing `_id`.
    /// * [`DbError::DuplicateId`] — `_id` already present.
    /// * [`DbError::UniqueViolation`] — a unique index would be violated.
    pub fn insert(&self, doc: Value) -> Result<(), DbError> {
        let _timer = observe::timer("db.insert_us");
        let id = id_of(&doc)?;
        let mut indexes = self.inner.indexes.write();
        let mut shard = self.inner.shards[shard_of(&id)].write();
        if shard.docs.contains_key(&id) {
            return Err(DbError::DuplicateId {
                collection: self.name.clone(),
                id,
            });
        }
        // Validate unique constraints before mutating anything.
        indexes.check_unique(&self.name, &id, &doc)?;
        // Write-ahead: the journal record lands before the in-memory
        // mutation, so a failed append leaves memory untouched and a
        // crash right after it replays to the same state.
        journal::append_if_attached(
            &self.journal,
            &JournalOp::Insert {
                collection: self.name.clone(),
                doc: doc.clone(),
            },
        )?;
        indexes.add_doc(&id, &doc);
        Arc::make_mut(&mut shard.docs).insert(id, doc);
        Ok(())
    }

    /// Inserts the document, or replaces any existing document with the
    /// same `_id` (upsert). Returns the replaced document, if any.
    /// Atomic: on a constraint failure the previous document (and its
    /// index entries) stay in place.
    pub fn upsert(&self, doc: Value) -> Result<Option<Value>, DbError> {
        let _timer = observe::timer("db.insert_us");
        let id = id_of(&doc)?;
        let mut indexes = self.inner.indexes.write();
        let mut shard = self.inner.shards[shard_of(&id)].write();
        let previous = shard.docs.get(&id).cloned();
        // The occupant being replaced is exempt from unique checks.
        indexes.check_unique(&self.name, &id, &doc)?;
        journal::append_if_attached(
            &self.journal,
            &JournalOp::Upsert {
                collection: self.name.clone(),
                doc: doc.clone(),
            },
        )?;
        if let Some(prev) = &previous {
            indexes.remove_doc(&id, prev);
        }
        indexes.add_doc(&id, &doc);
        Arc::make_mut(&mut shard.docs).insert(id, doc);
        Ok(previous)
    }

    /// Fetches a document by `_id`. Touches only the owning shard's
    /// lock — never contends with queries or writers on other shards.
    pub fn get(&self, id: &str) -> Option<Value> {
        self.inner.shards[shard_of(id)].read().docs.get(id).cloned()
    }

    /// Walks matching documents in `_id` order, planner-first: an
    /// applicable index probe yields candidate ids (counted on
    /// `db.query_planned_index`), a scan freezes the shard maps and
    /// merges them (counted on `db.query_scans`). The full filter is
    /// re-applied either way, so probes only need to over-approximate.
    fn for_each_matching(
        &self,
        filter: &Filter,
        f: &mut dyn FnMut(&str, &Value) -> ControlFlow<()>,
    ) {
        let indexes = self.inner.indexes.read();
        if let Some(ids) = planned_ids(&indexes, filter) {
            observe::count("db.query_planned_index", 1);
            for id in ids {
                let shard = self.inner.shards[shard_of(&id)].read();
                if let Some(doc) = shard.docs.get(&id) {
                    if filter.matches(doc) {
                        if let ControlFlow::Break(()) = f(&id, doc) {
                            return;
                        }
                    }
                }
            }
        } else {
            observe::count("db.query_scans", 1);
            let shards = self.capture_shards();
            drop(indexes);
            let mut entries: Vec<(&String, &Value)> =
                shards.iter().flat_map(|shard| shard.iter()).collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            for (id, doc) in entries {
                if filter.matches(doc) {
                    if let ControlFlow::Break(()) = f(id, doc) {
                        return;
                    }
                }
            }
        }
    }

    /// Returns all documents matching `filter`, ordered by `_id`.
    pub fn find(&self, filter: &Filter) -> Vec<Value> {
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        let mut out = Vec::new();
        self.for_each_matching(filter, &mut |_, doc| {
            out.push(doc.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Returns the first matching document (in `_id` order).
    pub fn find_one(&self, filter: &Filter) -> Option<Value> {
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        let mut out = None;
        self.for_each_matching(filter, &mut |_, doc| {
            out = Some(doc.clone());
            ControlFlow::Break(())
        });
        out
    }

    /// Returns matching documents sorted by a field path.
    ///
    /// With an [`IndexKind::Ordered`] index on `sort_path` the result
    /// is read off the index (documents without the field join the
    /// `Null` block); ties between compare-equal keys order by rendered
    /// key, then `_id`. Without one, this scans and sorts (missing
    /// fields sort as `Null`, ties keep `_id` order).
    pub fn find_sorted(&self, filter: &Filter, sort_path: &str, order: SortOrder) -> Vec<Value> {
        let indexes = self.inner.indexes.read();
        let ordered = indexes
            .get(sort_path)
            .filter(|ix| ix.spec.kind == IndexKind::Ordered)
            .is_some();
        if !ordered {
            drop(indexes);
            let mut results = self.find(filter);
            sort_docs(&mut results, sort_path, order);
            return results;
        }
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        observe::count("db.query_planned_index", 1);
        let shards = self.capture_shards();
        let index = indexes.get(sort_path).expect("checked above");
        let IndexData::Ordered(map) = &index.data else {
            unreachable!("ordered index carries ordered data");
        };
        // The Null block merges explicitly-null entries (indexed) with
        // documents missing the field entirely (not indexed), in `_id`
        // order — matching the scan path's sort semantics.
        let mut null_block: Vec<String> = shards
            .iter()
            .flat_map(|shard| shard.iter())
            .filter(|(_, doc)| doc.at(sort_path).is_none())
            .map(|(id, _)| id.clone())
            .collect();
        let mut rest: Vec<String> = Vec::new();
        let keys: Box<dyn Iterator<Item = (&OrdKey, &BTreeSet<String>)>> = match order {
            SortOrder::Ascending => Box::new(map.iter()),
            SortOrder::Descending => Box::new(map.iter().rev()),
        };
        for (key, ids) in keys {
            if key.value.is_null() {
                null_block.extend(ids.iter().cloned());
            } else {
                rest.extend(ids.iter().cloned());
            }
        }
        null_block.sort();
        let sequence = match order {
            SortOrder::Ascending => null_block.into_iter().chain(rest),
            SortOrder::Descending => rest.into_iter().chain(null_block),
        };
        let mut out = Vec::new();
        for id in sequence {
            if let Some(doc) = shards[shard_of(&id)].get(&id) {
                if filter.matches(doc) {
                    out.push(doc.clone());
                }
            }
        }
        out
    }

    /// Counts documents matching `filter`.
    pub fn count(&self, filter: &Filter) -> usize {
        let _span = observe::span(|| "db.query".to_owned());
        let _timer = observe::timer("db.query_us");
        let mut n = 0;
        self.for_each_matching(filter, &mut |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// Deletes the document with the given `_id`, returning it.
    ///
    /// On an attached database the deletion is journaled; an append
    /// failure (counted on `db.journal_append_errors`) does not abort
    /// the in-memory delete — durability of that record then waits for
    /// the next checkpoint.
    pub fn delete(&self, id: &str) -> Option<Value> {
        let mut indexes = self.inner.indexes.write();
        let mut shard = self.inner.shards[shard_of(id)].write();
        if !shard.docs.contains_key(id) {
            return None;
        }
        journal::append_best_effort(
            &self.journal,
            &JournalOp::Delete {
                collection: self.name.clone(),
                id: id.to_owned(),
            },
        );
        let doc = Arc::make_mut(&mut shard.docs).remove(id)?;
        indexes.remove_doc(id, &doc);
        Some(doc)
    }

    /// Deletes every matching document, returning how many were removed.
    pub fn delete_many(&self, filter: &Filter) -> usize {
        let ids: Vec<String> = {
            let mut ids = Vec::new();
            self.for_each_matching(filter, &mut |id, _| {
                ids.push(id.to_owned());
                ControlFlow::Continue(())
            });
            ids
        };
        let mut removed = 0;
        for id in ids {
            if self.delete(&id).is_some() {
                removed += 1;
            }
        }
        removed
    }

    /// Applies `update` to every matching document (the `_id` field is
    /// protected). Returns how many documents changed. The whole batch
    /// runs under the index lock, so no writer interleaves, and unique
    /// indexes are re-enforced at commit: every rewritten document is
    /// checked (including against the other rewrites in the batch)
    /// before anything is journaled or stored, so a rejected batch
    /// leaves the collection exactly as it was.
    ///
    /// # Errors
    ///
    /// [`DbError::UniqueViolation`] when any rewritten document would
    /// collide with an existing document or another rewrite on a
    /// declared unique index; the whole batch is rejected and no state
    /// changes.
    pub fn update_many(
        &self,
        filter: &Filter,
        update: impl Fn(&mut Value),
    ) -> Result<usize, DbError> {
        let mut indexes = self.inner.indexes.write();
        let ids = {
            let mut ids = Vec::new();
            match planned_ids(&indexes, filter) {
                Some(candidates) => {
                    observe::count("db.query_planned_index", 1);
                    for id in candidates {
                        let shard = self.inner.shards[shard_of(&id)].read();
                        if shard.docs.get(&id).is_some_and(|doc| filter.matches(doc)) {
                            ids.push(id);
                        }
                    }
                }
                None => {
                    observe::count("db.query_scans", 1);
                    let mut entries: Vec<(String, bool)> = Vec::new();
                    for shard in &self.inner.shards {
                        for (id, doc) in shard.read().docs.iter() {
                            entries.push((id.clone(), filter.matches(doc)));
                        }
                    }
                    entries.sort();
                    ids.extend(
                        entries
                            .into_iter()
                            .filter(|(_, matched)| *matched)
                            .map(|(id, _)| id),
                    );
                }
            }
            ids
        };
        // Stage every rewrite first — nothing is journaled or stored
        // until the whole batch validates.
        let mut staged: Vec<(String, Value, Value)> = Vec::with_capacity(ids.len());
        for id in &ids {
            let shard = self.inner.shards[shard_of(id)].read();
            let Some(old) = shard.docs.get(id).cloned() else {
                continue;
            };
            let mut new = old.clone();
            update(&mut new);
            new.set_at("_id", Value::Str(id.clone()));
            staged.push((id.clone(), old, new));
        }
        // Trial-apply against the index state we hold exclusively:
        // retract every old document, then admit the rewrites one by
        // one so batch-internal collisions are caught too. On a
        // violation, undo the trial — the caller sees unchanged state.
        for (id, old, _) in &staged {
            indexes.remove_doc(id, old);
        }
        for (admitted, (id, _, new)) in staged.iter().enumerate() {
            if let Err(err) = indexes.check_unique(&self.name, id, new) {
                for (id, _, new) in &staged[..admitted] {
                    indexes.remove_doc(id, new);
                }
                for (id, old, _) in &staged {
                    indexes.add_doc(id, old);
                }
                return Err(err);
            }
            indexes.add_doc(id, new);
        }
        let changed = staged.len();
        for (id, _, new) in staged {
            let mut shard = self.inner.shards[shard_of(&id)].write();
            journal::append_best_effort(
                &self.journal,
                &JournalOp::Upsert {
                    collection: self.name.clone(),
                    doc: new.clone(),
                },
            );
            Arc::make_mut(&mut shard.docs).insert(id, new);
        }
        Ok(changed)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|shard| shard.read().docs.len())
            .sum()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.inner
            .shards
            .iter()
            .all(|shard| shard.read().docs.is_empty())
    }

    /// Snapshot of all documents (ordered by `_id`).
    pub fn all(&self) -> Vec<Value> {
        self.snapshot().all()
    }

    /// Projects one field from every matching document.
    pub fn distinct(&self, filter: &Filter, path: &str) -> Vec<Value> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        self.for_each_matching(filter, &mut |_, doc| {
            if let Some(v) = doc.at(path) {
                let key = crate::json::to_json(v);
                if seen.insert(key) {
                    out.push(v.clone());
                }
            }
            ControlFlow::Continue(())
        });
        out
    }
}

/// Resolves the best applicable probe into sorted, deduplicated
/// candidate ids. `None` means no probe applies and the caller scans.
fn planned_ids(indexes: &IndexSet, filter: &Filter) -> Option<Vec<String>> {
    for probe in filter.probes() {
        let ids: Option<Vec<String>> = match &probe {
            Probe::Ids(ids) => Some(ids.iter().map(|id| (*id).to_owned()).collect()),
            Probe::Eq { path, value } => indexes.get(path).map(|ix| ix.probe_eq(value)),
            Probe::Elem { path, value } => indexes.get(path).and_then(|ix| ix.probe_elem(value)),
            Probe::In { path, values } => indexes.get(path).map(|ix| {
                let mut ids: Vec<String> = Vec::new();
                for value in *values {
                    ids.extend(ix.probe_eq(value));
                }
                ids
            }),
            Probe::Range { path, lower, upper } => indexes
                .get(path)
                .and_then(|ix| ix.probe_range(*lower, *upper)),
        };
        if let Some(mut ids) = ids {
            ids.sort();
            ids.dedup();
            return Some(ids);
        }
    }
    None
}

fn id_of(doc: &Value) -> Result<String, DbError> {
    let map = doc.as_map().ok_or_else(|| DbError::InvalidDocument {
        reason: "document must be a map".into(),
    })?;
    map.get("_id")
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| DbError::InvalidDocument {
            reason: "document must carry a string `_id`".into(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: &str, extra: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        let mut map: Vec<(String, Value)> = vec![("_id".into(), Value::from(id))];
        map.extend(extra.into_iter().map(|(k, v)| (k.to_owned(), v)));
        map.into_iter().collect()
    }

    #[test]
    fn insert_get_delete_round_trip() {
        let c = Collection::new("runs");
        c.insert(doc("a", [("n", Value::from(1i64))])).unwrap();
        assert_eq!(c.get("a").unwrap().at("n").and_then(Value::as_int), Some(1));
        assert_eq!(c.len(), 1);
        assert!(c.delete("a").is_some());
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn rejects_duplicate_ids_and_bad_documents() {
        let c = Collection::new("runs");
        c.insert(doc("a", [])).unwrap();
        assert!(matches!(
            c.insert(doc("a", [])),
            Err(DbError::DuplicateId { .. })
        ));
        assert!(matches!(
            c.insert(Value::from(3i64)),
            Err(DbError::InvalidDocument { .. })
        ));
        assert!(matches!(
            c.insert(Value::map([("x", Value::from(1i64))])),
            Err(DbError::InvalidDocument { .. })
        ));
    }

    #[test]
    fn unique_constraint_enforced() {
        let c = Collection::new("artifacts");
        c.ensure_unique("hash").unwrap();
        c.insert(doc("a", [("hash", Value::from("h1"))])).unwrap();
        let err = c
            .insert(doc("b", [("hash", Value::from("h1"))]))
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Null / missing values are exempt.
        c.insert(doc("c", [("hash", Value::Null)])).unwrap();
        c.insert(doc("d", [])).unwrap();
        // Deleting frees the key.
        c.delete("a");
        c.insert(doc("e", [("hash", Value::from("h1"))])).unwrap();
    }

    #[test]
    fn ensure_unique_rejects_preexisting_collisions() {
        let c = Collection::new("x");
        c.insert(doc("a", [("k", Value::from(1i64))])).unwrap();
        c.insert(doc("b", [("k", Value::from(1i64))])).unwrap();
        assert!(c.ensure_unique("k").is_err());
        // Constraint was not installed.
        c.insert(doc("c", [("k", Value::from(1i64))])).unwrap();
    }

    #[test]
    fn upsert_replaces_and_restores_on_conflict() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc("a", [("k", Value::from("ka"))])).unwrap();
        c.insert(doc("b", [("k", Value::from("kb"))])).unwrap();
        // Plain replace.
        let old = c.upsert(doc("a", [("k", Value::from("ka2"))])).unwrap();
        assert_eq!(old.unwrap().at("k").and_then(Value::as_str), Some("ka"));
        // Conflicting upsert fails and leaves the old doc in place.
        let err = c.upsert(doc("a", [("k", Value::from("kb"))])).unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        assert_eq!(
            c.get("a").unwrap().at("k").and_then(Value::as_str),
            Some("ka2")
        );
        assert!(c.verify_indexes().is_empty());
    }

    #[test]
    fn find_sort_count_distinct() {
        let c = Collection::new("x");
        for (id, app, t) in [("1", "dedup", 5i64), ("2", "vips", 3), ("3", "dedup", 9)] {
            c.insert(doc(id, [("app", Value::from(app)), ("t", Value::from(t))]))
                .unwrap();
        }
        assert_eq!(c.count(&Filter::eq("app", "dedup")), 2);
        let sorted = c.find_sorted(&Filter::All, "t", SortOrder::Descending);
        let ts: Vec<i64> = sorted
            .iter()
            .filter_map(|d| d.at("t").and_then(Value::as_int))
            .collect();
        assert_eq!(ts, vec![9, 5, 3]);
        let apps = c.distinct(&Filter::All, "app");
        assert_eq!(apps.len(), 2);
        assert!(c.find_one(&Filter::eq("app", "vips")).is_some());
    }

    #[test]
    fn update_many_reindexes_and_protects_id() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc(
            "a",
            [("k", Value::from("v1")), ("status", Value::from("running"))],
        ))
        .unwrap();
        let n = c
            .update_many(&Filter::eq("status", "running"), |d| {
                d.set_at("status", Value::from("done"));
                d.set_at("k", Value::from("v2"));
                d.set_at("_id", Value::from("hacked"));
            })
            .unwrap();
        assert_eq!(n, 1);
        let got = c.get("a").expect("_id update must be ignored");
        assert_eq!(got.at("status").and_then(Value::as_str), Some("done"));
        // Old key freed, new key owned.
        c.insert(doc("b", [("k", Value::from("v1"))])).unwrap();
        assert!(c.insert(doc("c", [("k", Value::from("v2"))])).is_err());
    }

    #[test]
    fn update_many_rejects_unique_violations_leaving_state_unchanged() {
        let c = Collection::new("x");
        c.ensure_unique("k").unwrap();
        c.insert(doc(
            "a",
            [("k", Value::from("v1")), ("g", Value::from(1i64))],
        ))
        .unwrap();
        c.insert(doc(
            "b",
            [("k", Value::from("v2")), ("g", Value::from(1i64))],
        ))
        .unwrap();
        c.insert(doc(
            "c",
            [("k", Value::from("v3")), ("g", Value::from(2i64))],
        ))
        .unwrap();
        // Collision with a document outside the batch: rejected whole.
        let err = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                d.set_at("k", Value::from("v3"));
                d.set_at("touched", Value::from(true));
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Batch-internal collision: both rewrites target the same key.
        let err = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                d.set_at("k", Value::from("fresh"));
                d.set_at("touched", Value::from(true));
            })
            .unwrap_err();
        assert!(matches!(err, DbError::UniqueViolation { .. }));
        // Nothing changed: no document was touched, every original key
        // is still owned, and the index still serves the old keys.
        for (id, key) in [("a", "v1"), ("b", "v2"), ("c", "v3")] {
            let got = c.get(id).unwrap();
            assert!(got.at("touched").is_none(), "{id} was rewritten");
            assert_eq!(got.at("k").and_then(Value::as_str), Some(key));
            assert!(c.insert(doc("dup", [("k", Value::from(key))])).is_err());
        }
        // Swapping values within the batch is legal: the trial retracts
        // the old keys before admitting the rewrites.
        let n = c
            .update_many(&Filter::eq("g", 1i64), |d| {
                let next = match d.at("k").and_then(Value::as_str) {
                    Some("v1") => "v2",
                    _ => "v1",
                };
                d.set_at("k", Value::from(next));
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            c.get("a").unwrap().at("k").and_then(Value::as_str),
            Some("v2")
        );
        assert_eq!(
            c.get("b").unwrap().at("k").and_then(Value::as_str),
            Some("v1")
        );
    }

    #[test]
    fn delete_many_by_filter() {
        let c = Collection::new("x");
        for i in 0..10i64 {
            c.insert(doc(&i.to_string(), [("even", Value::from(i % 2 == 0))]))
                .unwrap();
        }
        assert_eq!(c.delete_many(&Filter::eq("even", true)), 5);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn clones_share_storage() {
        let c = Collection::new("x");
        let c2 = c.clone();
        c.insert(doc("a", [])).unwrap();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn snapshot_is_isolated_from_writers() {
        let c = Collection::new("x");
        for i in 0..20i64 {
            c.insert(doc(&format!("d{i}"), [("n", Value::from(i))]))
                .unwrap();
        }
        let snap = c.snapshot();
        c.insert(doc("later", [])).unwrap();
        c.delete("d3");
        c.update_many(&Filter::All, |d| {
            d.set_at("n", Value::from(-1i64));
        })
        .unwrap();
        assert_eq!(snap.len(), 20);
        assert!(snap.get("later").is_none());
        assert_eq!(
            snap.get("d3").unwrap().at("n").and_then(Value::as_int),
            Some(3)
        );
        assert_eq!(snap.count(&Filter::eq("n", -1i64)), 0);
        assert_eq!(c.len(), 20);
        // Snapshot iteration stays in _id order.
        let ids: Vec<String> = snap
            .all()
            .iter()
            .map(|d| d.at("_id").and_then(Value::as_str).unwrap().to_owned())
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn ensure_index_is_idempotent_and_rejects_conflicts() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("k")).unwrap();
        c.ensure_index(IndexSpec::hash("k")).unwrap();
        assert!(matches!(
            c.ensure_index(IndexSpec::ordered("k")),
            Err(DbError::IndexConflict { .. })
        ));
        assert!(matches!(
            c.ensure_index(IndexSpec::hash("k").unique()),
            Err(DbError::IndexConflict { .. })
        ));
        assert_eq!(c.index_specs(), vec![IndexSpec::hash("k")]);
    }

    /// Every filter shape must return identical results through the
    /// planner (indexed collection) and the scan (no indexes).
    #[test]
    fn planner_and_scan_agree() {
        let indexed = Collection::new("i");
        let plain = Collection::new("p");
        indexed.ensure_index(IndexSpec::hash("app")).unwrap();
        indexed.ensure_index(IndexSpec::ordered("t")).unwrap();
        indexed.ensure_index(IndexSpec::hash("tags")).unwrap();
        let docs: Vec<Value> = (0..40i64)
            .map(|i| {
                let mut d = doc(
                    &format!("d{i:02}"),
                    [
                        (
                            "app",
                            Value::from(["dedup", "vips", "x264"][i as usize % 3]),
                        ),
                        ("tags", Value::array([Value::from(format!("g{}", i % 4))])),
                    ],
                );
                // A few docs with null / missing / odd-typed sort fields.
                match i % 5 {
                    0 => (),
                    1 => {
                        d.set_at("t", Value::Null);
                    }
                    2 => {
                        d.set_at("t", Value::from(i));
                    }
                    3 => {
                        d.set_at("t", Value::from(i as f64 + 0.5));
                    }
                    _ => {
                        d.set_at("t", Value::from(format!("s{i}")));
                    }
                }
                d
            })
            .collect();
        for d in &docs {
            indexed.insert(d.clone()).unwrap();
            plain.insert(d.clone()).unwrap();
        }
        let filters = [
            Filter::All,
            Filter::eq("app", "dedup"),
            Filter::eq("app", "nope"),
            Filter::eq("_id", "d07"),
            Filter::eq("t", Value::Null),
            Filter::gt("t", 10i64),
            Filter::gte("t", 12.5).and(Filter::lt("t", 30i64)),
            Filter::lte("t", 20i64),
            Filter::lt("t", 0i64),
            Filter::elem_match("tags", "g2"),
            Filter::any_of("app", ["vips", "x264"]),
            Filter::any_of("_id", ["d01", "d02", "zzz"]),
            Filter::eq("app", "dedup").and(Filter::gt("t", 5i64)),
            Filter::eq("app", "dedup").or(Filter::eq("app", "vips")),
            Filter::eq("app", "dedup").not(),
            Filter::gt("t", "a"),
        ];
        for filter in &filters {
            assert_eq!(
                indexed.find(filter),
                plain.find(filter),
                "filter {filter:?} diverged"
            );
            assert_eq!(indexed.count(filter), plain.count(filter));
            assert_eq!(indexed.find_one(filter), plain.find_one(filter));
        }
        assert!(indexed.verify_indexes().is_empty());
    }

    #[test]
    fn ordered_index_drives_find_sorted() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::ordered("t")).unwrap();
        c.insert(doc("a", [("t", Value::from(5i64))])).unwrap();
        c.insert(doc("b", [("t", Value::from(3i64))])).unwrap();
        c.insert(doc("c", [("t", Value::Null)])).unwrap();
        c.insert(doc("d", [])).unwrap();
        c.insert(doc("e", [("t", Value::from(9i64))])).unwrap();
        let ids = |docs: Vec<Value>| -> Vec<String> {
            docs.iter()
                .map(|d| d.at("_id").and_then(Value::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            ids(c.find_sorted(&Filter::All, "t", SortOrder::Ascending)),
            vec!["c", "d", "b", "a", "e"]
        );
        assert_eq!(
            ids(c.find_sorted(&Filter::All, "t", SortOrder::Descending)),
            vec!["e", "a", "b", "c", "d"]
        );
        assert_eq!(
            ids(c.find_sorted(&Filter::gt("t", 3i64), "t", SortOrder::Ascending)),
            vec!["a", "e"]
        );
    }

    #[test]
    fn index_entries_expose_multikey_arrays() {
        let c = Collection::new("runs");
        c.ensure_index(IndexSpec::hash("inputs")).unwrap();
        c.insert(doc(
            "r1",
            [(
                "inputs",
                Value::array([Value::from("art-a"), Value::from("art-b")]),
            )],
        ))
        .unwrap();
        c.insert(doc(
            "r2",
            [("inputs", Value::array([Value::from("art-b")]))],
        ))
        .unwrap();
        let entries = c.index_entries("inputs").unwrap();
        let by_key: BTreeMap<String, Vec<String>> = entries
            .into_iter()
            .map(|(k, ids)| (crate::json::to_json(&k), ids))
            .collect();
        assert_eq!(by_key["\"art-a\""], vec!["r1"]);
        assert_eq!(by_key["\"art-b\""], vec!["r1", "r2"]);
        assert!(by_key.contains_key("[\"art-a\",\"art-b\"]"));
        assert!(c.index_entries("nope").is_none());
        // The multikey index serves elem_match probes.
        assert_eq!(c.find(&Filter::elem_match("inputs", "art-b")).len(), 2);
    }

    #[test]
    fn verify_indexes_detects_injected_divergence() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("hash")).unwrap();
        c.insert(doc("a", [("hash", Value::from("h1"))])).unwrap();
        assert!(c.verify_indexes().is_empty());
        c.inject_index_entry("hash", "\"ghost\"", "no-such-doc");
        let problems = c.verify_indexes();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].detail.contains("missing document"));
        c.inject_index_entry("hash", "\"wrong\"", "a");
        let problems = c.verify_indexes();
        assert_eq!(problems.len(), 2);
        assert!(problems.iter().any(|p| p
            .detail
            .contains("does not match the document's rendered key")));
    }

    #[test]
    fn index_state_matches_scratch_rebuild() {
        let c = Collection::new("x");
        c.ensure_index(IndexSpec::hash("app")).unwrap();
        c.ensure_index(IndexSpec::ordered("t")).unwrap();
        for i in 0..25i64 {
            c.insert(doc(
                &format!("d{i}"),
                [
                    ("app", Value::from(["a", "b"][i as usize % 2])),
                    ("t", Value::from(i % 7)),
                ],
            ))
            .unwrap();
        }
        c.delete("d3");
        c.update_many(&Filter::eq("app", "a"), |d| {
            d.set_at("t", Value::from(99i64));
        })
        .unwrap();
        let rebuilt = Collection::new("x");
        // Declare in reverse order: index_state sorts by path.
        rebuilt.ensure_index(IndexSpec::ordered("t")).unwrap();
        rebuilt.ensure_index(IndexSpec::hash("app")).unwrap();
        for d in c.all() {
            rebuilt.insert(d).unwrap();
        }
        assert_eq!(
            crate::json::to_json(&c.index_state()),
            crate::json::to_json(&rebuilt.index_state())
        );
    }
}
