//! Arena-backed string blackboards.
//!
//! Filter scripts coordinate across runs and across layers through small
//! string key/value *blackboards* (the paper's "global variables" for fault
//! scripts). Before the Send refactor these lived in `Rc<RefCell<…>>`
//! handles cloned into each layer; now the [`World`](crate::World) owns a
//! single [`BoardStore`] arena and everything else holds a plain [`BoardId`]
//! index into it. The arena is plain owned data (`Vec` of `HashMap`s), so
//! it is `Send` and can be snapshotted by copying.

use std::collections::HashMap;

/// Index of one blackboard inside a [`BoardStore`].
///
/// A `BoardId` is a plain integer: `Copy`, `Send`, and meaningless without
/// the store (i.e. the world) it was allocated from. Holding an id never
/// borrows the store, which is what lets layers keep one while the world
/// remains uniquely owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoardId(pub(crate) u32);

impl BoardId {
    /// The raw index (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The world-owned arena of string key/value blackboards.
///
/// Boards are allocated in deterministic first-touch order and never freed
/// for the lifetime of the world — ids are stable, dense indices. All data
/// is owned (`String`s in `HashMap`s in a `Vec`), so the store is `Send`
/// and a future snapshot/fork is a structural copy.
#[derive(Debug, Default)]
pub struct BoardStore {
    boards: Vec<HashMap<String, String>>,
}

impl Clone for BoardStore {
    fn clone(&self) -> Self {
        BoardStore {
            boards: self.boards.clone(),
        }
    }

    /// Board by board, so [`World::restore`](crate::World::restore) keeps
    /// each table's storage (a derived `clone_from` replaces the value).
    fn clone_from(&mut self, source: &Self) {
        self.boards.clone_from(&source.boards);
    }
}

impl BoardStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, empty board and returns its id.
    pub fn alloc(&mut self) -> BoardId {
        let id = BoardId(u32::try_from(self.boards.len()).expect("board arena overflow"));
        self.boards.push(HashMap::new());
        id
    }

    /// Number of boards allocated so far.
    pub fn board_count(&self) -> usize {
        self.boards.len()
    }

    /// Sets `key` to `value` on board `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated from this store.
    pub fn set(&mut self, id: BoardId, key: impl Into<String>, value: impl Into<String>) {
        self.boards[id.index()].insert(key.into(), value.into());
    }

    /// The value of `key` on board `id`, if set.
    pub fn get(&self, id: BoardId, key: &str) -> Option<&str> {
        self.boards[id.index()].get(key).map(String::as_str)
    }

    /// Number of entries on board `id`.
    pub fn len(&self, id: BoardId) -> usize {
        self.boards[id.index()].len()
    }

    /// Whether board `id` has no entries.
    pub fn is_empty(&self, id: BoardId) -> bool {
        self.boards[id.index()].is_empty()
    }

    /// All `(key, value)` entries on board `id`, sorted by key (the map
    /// itself is unordered; sorting keeps renders deterministic).
    pub fn entries(&self, id: BoardId) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self.boards[id.index()]
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_are_independent() {
        let mut store = BoardStore::new();
        let a = store.alloc();
        let b = store.alloc();
        store.set(a, "k", "1");
        store.set(b, "k", "2");
        assert_eq!(store.get(a, "k"), Some("1"));
        assert_eq!(store.get(b, "k"), Some("2"));
        store.set(a, "k", "3");
        assert_eq!(store.get(b, "k"), Some("2"));
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut store = BoardStore::new();
        let a = store.alloc();
        let b = store.alloc();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(store.board_count(), 2);
        assert!(store.is_empty(a));
        store.set(a, "x", "y");
        assert_eq!(store.len(a), 1);
    }

    #[test]
    fn entries_are_sorted() {
        let mut store = BoardStore::new();
        let id = store.alloc();
        store.set(id, "b", "2");
        store.set(id, "a", "1");
        assert_eq!(
            store.entries(id),
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
            ]
        );
    }

    #[test]
    fn store_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BoardStore>();
        assert_send::<BoardId>();
    }
}
