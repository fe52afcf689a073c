//! Hierarchical (multi-level) row index.
//!
//! Thicket's performance-data table is keyed by the pair *(call-tree node,
//! profile)* — a two-level index — while metadata and statistics tables use
//! single-level indices (*profile* and *node* respectively). [`Index`]
//! generalizes to any number of named levels whose entries are [`Value`]s.

use crate::error::{DfError, Result};
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// One row's index entry: a tuple of per-level values.
pub type Key = Vec<Value>;

/// Lazily-built lookup structures over an index's keys. Built once on
/// first use, shared by every subsequent lookup, and discarded whenever
/// the key set mutates ([`Index::push`]) or the index is cloned.
#[derive(Debug)]
struct PositionCache {
    /// Key → all row positions carrying it, in row order.
    positions: HashMap<Key, Vec<usize>>,
    /// First key that occurs more than once, if any (`None` ⇔ unique).
    duplicate: Option<Key>,
}

/// A named, multi-level row index.
#[derive(Debug)]
pub struct Index {
    names: Vec<String>,
    keys: Vec<Key>,
    cache: OnceLock<PositionCache>,
}

// The cache is derived state: equality, cloning, and hashing consider
// only `names` and `keys`. A clone starts with a cold cache rather than
// paying to copy the maps.
impl Clone for Index {
    fn clone(&self) -> Self {
        Index {
            names: self.names.clone(),
            keys: self.keys.clone(),
            cache: OnceLock::new(),
        }
    }
}

impl PartialEq for Index {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names && self.keys == other.keys
    }
}

impl Eq for Index {}

impl Index {
    /// New index with the given level names and row keys.
    ///
    /// Every key must have exactly one value per level.
    pub fn new(
        names: impl IntoIterator<Item = impl Into<String>>,
        keys: Vec<Key>,
    ) -> Result<Self> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.is_empty() {
            return Err(DfError::Other("index needs at least one level".into()));
        }
        for (i, k) in keys.iter().enumerate() {
            if k.len() != names.len() {
                return Err(DfError::IndexMismatch(format!(
                    "key {i} has {} values but the index has {} levels",
                    k.len(),
                    names.len()
                )));
            }
        }
        Ok(Index { names, keys, cache: OnceLock::new() })
    }

    /// Single-level index from scalar values.
    pub fn single(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Self {
        Index {
            names: vec![name.into()],
            keys: values.into_iter().map(|v| vec![v.into()]).collect(),
            cache: OnceLock::new(),
        }
    }

    /// Two-level index from value pairs.
    pub fn pairs(
        names: (impl Into<String>, impl Into<String>),
        values: impl IntoIterator<Item = (impl Into<Value>, impl Into<Value>)>,
    ) -> Self {
        Index {
            names: vec![names.0.into(), names.1.into()],
            keys: values
                .into_iter()
                .map(|(a, b)| vec![a.into(), b.into()])
                .collect(),
            cache: OnceLock::new(),
        }
    }

    /// An empty index with the given level names.
    pub fn empty(names: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Index {
            names: names.into_iter().map(Into::into).collect(),
            keys: Vec::new(),
            cache: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of levels.
    pub fn nlevels(&self) -> usize {
        self.names.len()
    }

    /// Level names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// All row keys, in order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The key of row `i`.
    pub fn key(&self, i: usize) -> &Key {
        &self.keys[i]
    }

    /// Position of the level called `name`.
    pub fn level_pos(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DfError::MissingLevel(name.to_string()))
    }

    /// The values of one level across all rows.
    pub fn level_values(&self, name: &str) -> Result<Vec<Value>> {
        let p = self.level_pos(name)?;
        Ok(self.keys.iter().map(|k| k[p].clone()).collect())
    }

    /// Value of level `name` at row `i`.
    pub fn get(&self, i: usize, name: &str) -> Result<Value> {
        let p = self.level_pos(name)?;
        Ok(self.keys[i][p].clone())
    }

    /// Append one row key. Invalidates the position cache.
    pub fn push(&mut self, key: Key) -> Result<()> {
        if key.len() != self.names.len() {
            return Err(DfError::IndexMismatch(format!(
                "key has {} values but the index has {} levels",
                key.len(),
                self.names.len()
            )));
        }
        self.keys.push(key);
        self.cache.take();
        Ok(())
    }

    /// New index with only the given row positions (in order).
    pub fn take(&self, rows: &[usize]) -> Index {
        Index {
            names: self.names.clone(),
            keys: rows.iter().map(|&r| self.keys[r].clone()).collect(),
            cache: OnceLock::new(),
        }
    }

    /// The lazily-built lookup cache (one pass over the keys, amortized
    /// over every subsequent join / point lookup / group operation).
    fn cache(&self) -> &PositionCache {
        self.cache.get_or_init(|| {
            let mut positions: HashMap<Key, Vec<usize>> =
                HashMap::with_capacity(self.keys.len());
            let mut duplicate = None;
            for (i, k) in self.keys.iter().enumerate() {
                let slot = positions.entry(k.clone()).or_default();
                if !slot.is_empty() && duplicate.is_none() {
                    duplicate = Some(k.clone());
                }
                slot.push(i);
            }
            PositionCache {
                positions,
                duplicate,
            }
        })
    }

    /// Cached key → row-positions map (built on first use; every
    /// subsequent lookup borrows the same map).
    pub fn positions(&self) -> &HashMap<Key, Vec<usize>> {
        &self.cache().positions
    }

    /// First row position carrying `key`, if any (O(1) amortized).
    pub fn position_of(&self, key: &Key) -> Option<usize> {
        self.positions().get(key).map(|rows| rows[0])
    }

    /// A lookup view guaranteed to map each key to a *single* row.
    /// Errors (naming the offending key) when any key occurs more than
    /// once — obtaining the view is the uniqueness proof, so callers
    /// never have to pick among duplicate rows.
    pub fn unique_positions(&self) -> Result<UniquePositions<'_>> {
        let cache = self.cache();
        match &cache.duplicate {
            Some(dup) => {
                let shown: Vec<String> = dup
                    .iter()
                    .map(|v| v.display_cell().into_owned())
                    .collect();
                Err(DfError::IndexMismatch(format!(
                    "index key ({}) occurs more than once",
                    shown.join(", ")
                )))
            }
            None => Ok(UniquePositions {
                map: &cache.positions,
            }),
        }
    }

    /// `true` if every key appears exactly once.
    pub fn is_unique(&self) -> bool {
        self.cache().duplicate.is_none()
    }

    /// `true` if the keys are in ascending order (ties allowed).
    pub(crate) fn is_sorted(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] <= w[1])
    }

    /// Row positions sorted by key (stable; ties keep original order).
    pub fn argsort(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.keys[a].cmp(&self.keys[b]));
        order
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Index[{}; {} rows]", self.names.join(", "), self.len())
    }
}

/// Borrowed lookup view over a **unique** index: every key maps to
/// exactly one row. Only obtainable through [`Index::unique_positions`],
/// which rejects duplicated keys — so "which of the duplicate rows?" is
/// unrepresentable for holders of this view.
#[derive(Debug, Clone, Copy)]
pub struct UniquePositions<'a> {
    map: &'a HashMap<Key, Vec<usize>>,
}

impl UniquePositions<'_> {
    /// The single row position carrying `key`, if present.
    pub fn get(&self, key: &Key) -> Option<usize> {
        // `[0]` is total here: the uniqueness check at construction
        // guarantees every entry holds exactly one position.
        self.map.get(key).map(|rows| rows[0])
    }

    /// `true` if the index contains `key`.
    pub fn contains(&self, key: &Key) -> bool {
        self.map.contains_key(key)
    }

    /// Number of distinct keys (= number of rows, by uniqueness).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the index has no rows.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> Index {
        Index::pairs(
            ("node", "profile"),
            vec![(1i64, 100i64), (1, 200), (2, 100), (2, 200)],
        )
    }

    #[test]
    fn construction_validates_arity() {
        let bad = Index::new(["a", "b"], vec![vec![Value::Int(1)]]);
        assert!(bad.is_err());
        let ok = Index::new(["a"], vec![vec![Value::Int(1)]]).unwrap();
        assert_eq!(ok.len(), 1);
        assert!(Index::new(Vec::<String>::new(), vec![]).is_err());
    }

    #[test]
    fn level_access() {
        let i = idx();
        assert_eq!(i.nlevels(), 2);
        assert_eq!(
            i.level_values("profile").unwrap(),
            vec![
                Value::Int(100),
                Value::Int(200),
                Value::Int(100),
                Value::Int(200)
            ]
        );
        assert_eq!(i.get(2, "node").unwrap(), Value::Int(2));
        assert!(i.level_values("nope").is_err());
    }

    #[test]
    fn uniqueness_and_argsort() {
        let i = idx();
        assert!(i.is_unique());
        let dup = Index::single("k", vec![1i64, 1]);
        assert!(!dup.is_unique());
        let unsorted = Index::single("k", vec![3i64, 1, 2]);
        assert_eq!(unsorted.argsort(), vec![1, 2, 0]);
    }

    #[test]
    fn take_and_push() {
        let mut i = idx();
        let t = i.take(&[3, 0]);
        assert_eq!(t.key(0), &vec![Value::Int(2), Value::Int(200)]);
        i.push(vec![Value::Int(9), Value::Int(1)]).unwrap();
        assert_eq!(i.len(), 5);
        assert!(i.push(vec![Value::Int(9)]).is_err());
    }

    #[test]
    fn position_lookups_hit_cache() {
        let i = idx();
        let key = vec![Value::Int(2), Value::Int(100)];
        assert_eq!(i.position_of(&key), Some(2));
        assert_eq!(i.position_of(&vec![Value::Int(9), Value::Int(9)]), None);
        // Repeated lookups borrow the same map.
        let p1 = i.positions() as *const _;
        let p2 = i.positions() as *const _;
        assert_eq!(p1, p2);
    }

    #[test]
    fn push_invalidates_position_cache() {
        let mut i = idx();
        assert_eq!(i.position_of(&vec![Value::Int(7), Value::Int(7)]), None);
        i.push(vec![Value::Int(7), Value::Int(7)]).unwrap();
        assert_eq!(i.position_of(&vec![Value::Int(7), Value::Int(7)]), Some(4));
        assert!(i.is_unique());
        i.push(vec![Value::Int(7), Value::Int(7)]).unwrap();
        assert!(!i.is_unique());
        assert_eq!(i.positions()[&vec![Value::Int(7), Value::Int(7)]], vec![4, 5]);
    }

    #[test]
    fn unique_positions_rejects_duplicates_by_name() {
        let dup = Index::single("k", vec![1i64, 2, 1]);
        let err = dup.unique_positions().unwrap_err();
        assert!(err.to_string().contains('1'), "error names the key: {err}");
        let ok = idx();
        let view = ok.unique_positions().unwrap();
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.get(&vec![Value::Int(1), Value::Int(200)]), Some(1));
        assert!(view.contains(&vec![Value::Int(2), Value::Int(200)]));
        assert!(!view.contains(&vec![Value::Int(3), Value::Int(100)]));
    }

    #[test]
    fn clone_and_equality_ignore_cache_state() {
        let a = idx();
        let _ = a.positions(); // warm a's cache
        let b = a.clone();
        assert_eq!(a, b); // cold-cache clone still equal
        assert_eq!(b.position_of(a.key(3)), Some(3));
    }
}
