//! The PFI layer's host-command table, exported for static analysis.
//!
//! [`Bindings`](crate::bindings) dispatches these commands at filter-eval
//! time; `pfi-lint` resolves command words against this table without
//! running anything. Arity counts are *logical* argument counts: the
//! bindings skip every literal `cur_msg` token (the paper's
//! `msg_type cur_msg` spelling), so the linter must too.
//!
//! As with the interpreter's builtin table, this file is names-and-arities
//! only; semantics live in `bindings.rs`, and `table_matches_the_bindings`
//! in the crate's tests keeps the two in sync.

/// Name, arity bounds, and lint-relevant properties of one PFI host
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandInfo {
    /// The command word as it appears in filter scripts.
    pub name: &'static str,
    /// Minimum number of logical arguments (excluding `cur_msg` tokens).
    pub min_args: usize,
    /// Maximum number of logical arguments, or `None` for variadic
    /// commands (`xInject` forwards its tail to the generation stub).
    pub max_args: Option<usize>,
    /// Whether the command draws from the per-node RNG. Filters built on
    /// these commands are still replayable under a fixed seed, but their
    /// behavior depends on RNG draw order — the determinism lint flags
    /// them so probabilistic filters are a visible, deliberate choice.
    pub deterministic: bool,
    /// Whether the command is also available to control-op scripts
    /// (evaluated outside any message context).
    pub control_context: bool,
}

const fn cmd(name: &'static str, min_args: usize, max_args: Option<usize>) -> CommandInfo {
    CommandInfo {
        name,
        min_args,
        max_args,
        deterministic: true,
        control_context: false,
    }
}

const fn rng_cmd(name: &'static str, min_args: usize, max_args: Option<usize>) -> CommandInfo {
    CommandInfo {
        deterministic: false,
        ..cmd(name, min_args, max_args)
    }
}

const fn state_cmd(name: &'static str, min_args: usize, max_args: Option<usize>) -> CommandInfo {
    CommandInfo {
        control_context: true,
        ..cmd(name, min_args, max_args)
    }
}

/// Every host command the filter bindings dispatch, sorted by name.
const TABLE: &[CommandInfo] = &[
    rng_cmd("coin", 1, Some(1)),
    rng_cmd("dst_exponential", 1, Some(1)),
    rng_cmd("dst_normal", 2, Some(2)),
    rng_cmd("dst_uniform", 2, Some(2)),
    state_cmd("global_get", 1, Some(2)),
    state_cmd("global_set", 1, Some(2)),
    cmd("msg_byte", 1, Some(1)),
    cmd("msg_dst", 0, Some(0)),
    cmd("msg_field", 1, Some(1)),
    cmd("msg_len", 0, Some(0)),
    cmd("msg_log", 0, Some(0)),
    cmd("msg_set_byte", 2, Some(2)),
    cmd("msg_set_field", 2, Some(2)),
    cmd("msg_type", 0, Some(0)),
    cmd("node_id", 0, Some(0)),
    cmd("now_ms", 0, Some(0)),
    state_cmd("peer_get", 1, Some(2)),
    state_cmd("peer_set", 1, Some(2)),
    cmd("pfi_dir", 0, Some(0)),
    cmd("xAfter", 2, Some(2)),
    cmd("xDelay", 1, Some(1)),
    cmd("xDrop", 0, Some(0)),
    cmd("xDuplicate", 0, Some(1)),
    cmd("xHold", 0, Some(0)),
    cmd("xInject", 1, None),
    cmd("xPass", 0, Some(0)),
    cmd("xRelease", 0, Some(0)),
];

/// The PFI host-command table: what filter scripts may call beyond the
/// interpreter's builtins.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommandTable;

impl CommandTable {
    /// All commands, sorted by name.
    pub fn commands(&self) -> &'static [CommandInfo] {
        TABLE
    }

    /// Looks up a command by word.
    pub fn lookup(&self, name: &str) -> Option<&'static CommandInfo> {
        TABLE
            .binary_search_by(|info| info.name.cmp(name))
            .ok()
            .map(|i| &TABLE[i])
    }

    /// Whether `n` logical arguments (excluding `cur_msg` tokens, which
    /// the bindings skip) is acceptable for `name`. `None` if the command
    /// is unknown.
    pub fn accepts(&self, name: &str, n: usize) -> Option<bool> {
        self.lookup(name)
            .map(|info| n >= info.min_args && info.max_args.is_none_or(|max| n <= max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_for_binary_search() {
        for pair in TABLE.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    /// The paper's library and what the bundled scripts, lowered schedules
    /// and tools call; growing it is a reviewed change to this list.
    #[test]
    fn the_table_is_the_library_that_has_callers() {
        let names: Vec<&str> = TABLE.iter().map(|info| info.name).collect();
        assert_eq!(
            names.join(" "),
            "coin dst_exponential dst_normal dst_uniform global_get global_set msg_byte \
             msg_dst msg_field msg_len msg_log msg_set_byte msg_set_field msg_type node_id \
             now_ms peer_get peer_set pfi_dir xAfter xDelay xDrop xDuplicate xHold xInject \
             xPass xRelease"
        );
    }

    #[test]
    fn lookup_and_accepts() {
        let t = CommandTable;
        assert!(t.lookup("msg_type").is_some());
        assert!(t.lookup("frobnicate").is_none());
        assert_eq!(t.accepts("msg_type", 0), Some(true));
        assert_eq!(t.accepts("msg_type", 1), Some(false));
        assert_eq!(t.accepts("xInject", 5), Some(true)); // variadic tail
        assert_eq!(t.accepts("nope", 0), None);
    }

    #[test]
    fn rng_commands_are_flagged_nondeterministic() {
        let t = CommandTable;
        for name in ["coin", "dst_normal", "dst_uniform", "dst_exponential"] {
            assert!(!t.lookup(name).unwrap().deterministic, "{name}");
        }
        for name in ["msg_type", "xDrop", "now_ms", "global_get"] {
            assert!(t.lookup(name).unwrap().deterministic, "{name}");
        }
    }

    #[test]
    fn control_context_subset() {
        let t = CommandTable;
        let control: Vec<&str> = TABLE
            .iter()
            .filter(|c| c.control_context)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            control,
            vec!["global_get", "global_set", "peer_get", "peer_set"]
        );
        assert!(!t.lookup("xDrop").unwrap().control_context);
    }
}
