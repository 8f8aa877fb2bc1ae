//! Cross-node script coordination.
//!
//! "Predefined procedures can be used for … synchronizing scripts executed
//! by PFI layers running on different nodes." This is a shared blackboard:
//! every PFI layer handed the same board sees the same key/value state, so
//! a send filter on one node can flip a flag that a receive filter on
//! another node checks.
//!
//! A [`GlobalBoard`] is a `Copy` *handle* — a [`BoardId`] index into the
//! world-owned [`BoardStore`] arena (`pfi_sim`). The data lives in the
//! world, which keeps a fully-constructed world `Send`; sharing a board is
//! just copying its id into more than one layer.

use pfi_sim::{BoardId, BoardStore};

/// A shared string-valued blackboard for scripts across PFI layers.
///
/// Copying the handle yields another view of the same board (the state is
/// in the world's [`BoardStore`]). Allocate with
/// [`alloc_in`](GlobalBoard::alloc_in); every accessor takes the store the
/// board was allocated from.
///
/// # Examples
///
/// ```
/// use pfi_core::GlobalBoard;
/// use pfi_sim::BoardStore;
///
/// let mut boards = BoardStore::new();
/// let board = GlobalBoard::alloc_in(&mut boards);
/// let other = board; // plain copy: same board
/// board.set(&mut boards, "phase", "dropping");
/// assert_eq!(other.get(&boards, "phase"), Some("dropping".to_string()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalBoard {
    id: BoardId,
}

impl GlobalBoard {
    /// Allocates a fresh, empty board in `boards` (typically
    /// `world.boards_mut()`).
    pub fn alloc_in(boards: &mut BoardStore) -> Self {
        GlobalBoard { id: boards.alloc() }
    }

    /// Wraps an id allocated directly from a [`BoardStore`].
    pub fn from_id(id: BoardId) -> Self {
        GlobalBoard { id }
    }

    /// The underlying arena index.
    pub fn id(&self) -> BoardId {
        self.id
    }

    /// Sets a key.
    pub fn set(&self, boards: &mut BoardStore, key: impl Into<String>, value: impl Into<String>) {
        boards.set(self.id, key, value);
    }

    /// Reads a key.
    pub fn get(&self, boards: &BoardStore, key: &str) -> Option<String> {
        boards.get(self.id, key).map(str::to_string)
    }

    /// Number of keys on the board.
    pub fn len(&self, boards: &BoardStore) -> usize {
        boards.len(self.id)
    }

    /// Whether the board is empty.
    pub fn is_empty(&self, boards: &BoardStore) -> bool {
        self.len(boards) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_across_copies() {
        let mut boards = BoardStore::new();
        let a = GlobalBoard::alloc_in(&mut boards);
        let b = a;
        a.set(&mut boards, "k", "v");
        assert_eq!(b.get(&boards, "k").as_deref(), Some("v"));
        b.set(&mut boards, "k", "w");
        assert_eq!(a.get(&boards, "k").as_deref(), Some("w"));
        assert!(!a.is_empty(&boards));
    }

    #[test]
    fn distinct_boards_are_independent() {
        let mut boards = BoardStore::new();
        let a = GlobalBoard::alloc_in(&mut boards);
        let b = GlobalBoard::alloc_in(&mut boards);
        a.set(&mut boards, "k", "v");
        assert!(b.get(&boards, "k").is_none());
        assert_ne!(a, b);
    }

    #[test]
    fn handle_is_send_and_copy() {
        fn assert_send<T: Send + Copy>() {}
        assert_send::<GlobalBoard>();
    }
}
