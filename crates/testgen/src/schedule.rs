//! Parameterized fault schedules: the campaign engine's genome.
//!
//! The grid generator ([`crate::generate`]) enumerates one fault per case;
//! a coverage-guided campaign instead searches over [`FaultSchedule`]s —
//! small *compositions* of parameterized faults installed on both filter
//! directions at once. Schedules lower to ordinary PFI Tcl scripts through
//! [`pfi_core::lower`], serialize to a stable one-line-per-fault text form
//! (the repro artifact format), and mutate under a seeded [`SimRng`] so a
//! whole exploration is replayable from one integer.

use pfi_core::lower::{Clause, FaultAction, FilterProgram, Window};
use pfi_core::Direction;
use pfi_sim::SimRng;

use crate::spec::ProtocolSpec;

/// One parameterized fault against one message type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Drop every instance.
    DropAll {
        /// Targeted message type.
        msg_type: String,
    },
    /// Drop only the `nth` instance (1-based).
    DropNth {
        /// Targeted message type.
        msg_type: String,
        /// Which instance to drop.
        nth: u32,
    },
    /// Pass `after` instances, then drop the rest.
    DropAfter {
        /// Targeted message type.
        msg_type: String,
        /// How many instances pass first.
        after: u32,
    },
    /// Drop instances addressed to one node.
    DropToDest {
        /// Targeted message type.
        msg_type: String,
        /// Destination node id.
        dst: u32,
    },
    /// Delay every instance.
    DelayMs {
        /// Targeted message type.
        msg_type: String,
        /// Delay in milliseconds.
        ms: u64,
    },
    /// Forward extra copies of every instance.
    Duplicate {
        /// Targeted message type.
        msg_type: String,
        /// How many extra copies.
        copies: u32,
    },
    /// XOR one byte of every instance.
    CorruptByteAt {
        /// Targeted message type.
        msg_type: String,
        /// Byte offset.
        offset: usize,
        /// XOR mask (non-zero).
        mask: u8,
    },
    /// Hold the first `hold` instances, release them after the next one —
    /// a deterministic reordering window.
    ReorderWindow {
        /// Targeted message type.
        msg_type: String,
        /// How many instances to hold back.
        hold: u32,
    },
}

impl FaultOp {
    /// The targeted message type.
    pub fn msg_type(&self) -> &str {
        match self {
            FaultOp::DropAll { msg_type }
            | FaultOp::DropNth { msg_type, .. }
            | FaultOp::DropAfter { msg_type, .. }
            | FaultOp::DropToDest { msg_type, .. }
            | FaultOp::DelayMs { msg_type, .. }
            | FaultOp::Duplicate { msg_type, .. }
            | FaultOp::CorruptByteAt { msg_type, .. }
            | FaultOp::ReorderWindow { msg_type, .. } => msg_type,
        }
    }

    /// Mutable access to the targeted message type (scramble mutations
    /// corrupt it in place).
    pub(crate) fn msg_type_mut(&mut self) -> &mut String {
        match self {
            FaultOp::DropAll { msg_type }
            | FaultOp::DropNth { msg_type, .. }
            | FaultOp::DropAfter { msg_type, .. }
            | FaultOp::DropToDest { msg_type, .. }
            | FaultOp::DelayMs { msg_type, .. }
            | FaultOp::Duplicate { msg_type, .. }
            | FaultOp::CorruptByteAt { msg_type, .. }
            | FaultOp::ReorderWindow { msg_type, .. } => msg_type,
        }
    }

    /// The typed filter clauses this fault lowers to.
    pub fn clauses(&self) -> Vec<Clause> {
        let base = |window, action| Clause {
            msg_type: Some(self.msg_type().to_string()),
            dst: None,
            window,
            action,
        };
        match self {
            FaultOp::DropAll { .. } => vec![base(Window::All, FaultAction::Drop)],
            FaultOp::DropNth { nth, .. } => vec![base(Window::Nth(*nth), FaultAction::Drop)],
            FaultOp::DropAfter { after, .. } => {
                vec![base(Window::After(*after), FaultAction::Drop)]
            }
            FaultOp::DropToDest { msg_type, dst } => vec![Clause {
                msg_type: Some(msg_type.clone()),
                dst: Some(*dst),
                window: Window::All,
                action: FaultAction::Drop,
            }],
            FaultOp::DelayMs { ms, .. } => vec![base(Window::All, FaultAction::DelayMs(*ms))],
            FaultOp::Duplicate { copies, .. } => {
                vec![base(Window::All, FaultAction::Duplicate(*copies))]
            }
            FaultOp::CorruptByteAt { offset, mask, .. } => vec![base(
                Window::All,
                FaultAction::CorruptByte {
                    offset: *offset,
                    mask: *mask,
                },
            )],
            FaultOp::ReorderWindow { hold, .. } => vec![
                base(Window::First(*hold), FaultAction::Hold),
                base(Window::Nth(*hold + 1), FaultAction::Release),
            ],
        }
    }

    fn tokens(&self) -> String {
        match self {
            FaultOp::DropAll { msg_type } => format!("drop-all {msg_type}"),
            FaultOp::DropNth { msg_type, nth } => format!("drop-nth {msg_type} {nth}"),
            FaultOp::DropAfter { msg_type, after } => format!("drop-after {msg_type} {after}"),
            FaultOp::DropToDest { msg_type, dst } => format!("drop-to-dest {msg_type} {dst}"),
            FaultOp::DelayMs { msg_type, ms } => format!("delay-ms {msg_type} {ms}"),
            FaultOp::Duplicate { msg_type, copies } => format!("duplicate {msg_type} {copies}"),
            FaultOp::CorruptByteAt {
                msg_type,
                offset,
                mask,
            } => format!("corrupt-byte {msg_type} {offset} {mask}"),
            FaultOp::ReorderWindow { msg_type, hold } => format!("reorder {msg_type} {hold}"),
        }
    }
}

/// A fault plus where it is interposed: which fault site (a node's PFI
/// layer) and which filter direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Which of the target's fault sites carries the filter. Site indices
    /// are defined by [`crate::TestTarget::build`]; for the bundled targets
    /// they equal world node indices.
    pub site: u32,
    /// Which filter (send or receive path) carries the fault.
    pub dir: Direction,
    /// The fault itself.
    pub op: FaultOp,
}

impl ScheduledFault {
    /// The stable one-line text form, e.g. `n1 send drop-nth HEARTBEAT 3`.
    pub fn to_line(&self) -> String {
        let dir = match self.dir {
            Direction::Send => "send",
            Direction::Receive => "recv",
        };
        format!("n{} {} {}", self.site, dir, self.op.tokens())
    }

    /// Parses the [`to_line`](ScheduledFault::to_line) form back. A
    /// missing leading `n<site>` token means site 0.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let mut toks: Vec<&str> = line.split_whitespace().collect();
        let err = || format!("malformed fault line: {line:?}");
        let site = match toks.first() {
            Some(t) => match t.strip_prefix('n').and_then(|n| n.parse::<u32>().ok()) {
                Some(site) => {
                    toks.remove(0);
                    site
                }
                None => 0,
            },
            None => return Err(err()),
        };
        let dir = match toks.first() {
            Some(&"send") => Direction::Send,
            Some(&"recv") | Some(&"receive") => Direction::Receive,
            _ => return Err(err()),
        };
        let num = |i: usize| -> Result<u64, String> {
            toks.get(i)
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(err)
        };
        let msg = |i: usize| -> Result<String, String> {
            toks.get(i).map(|t| t.to_string()).ok_or_else(err)
        };
        let op = match toks.get(1) {
            Some(&"drop-all") => FaultOp::DropAll { msg_type: msg(2)? },
            Some(&"drop-nth") => FaultOp::DropNth {
                msg_type: msg(2)?,
                nth: num(3)? as u32,
            },
            Some(&"drop-after") => FaultOp::DropAfter {
                msg_type: msg(2)?,
                after: num(3)? as u32,
            },
            Some(&"drop-to-dest") => FaultOp::DropToDest {
                msg_type: msg(2)?,
                dst: num(3)? as u32,
            },
            Some(&"delay-ms") => FaultOp::DelayMs {
                msg_type: msg(2)?,
                ms: num(3)?,
            },
            Some(&"duplicate") => FaultOp::Duplicate {
                msg_type: msg(2)?,
                copies: num(3)? as u32,
            },
            Some(&"corrupt-byte") => FaultOp::CorruptByteAt {
                msg_type: msg(2)?,
                offset: num(3)? as usize,
                mask: num(4)? as u8,
            },
            Some(&"reorder") => FaultOp::ReorderWindow {
                msg_type: msg(2)?,
                hold: num(3)? as u32,
            },
            _ => return Err(err()),
        };
        Ok(ScheduledFault { site, dir, op })
    }
}

/// A composition of scheduled faults — one campaign test case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The faults, applied together in one run.
    pub faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// The empty (baseline, fault-free) schedule.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether this is the baseline schedule.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A stable identifier (the serialized lines joined with ` + `), parsed
    /// back by [`from_id`](FaultSchedule::from_id).
    pub fn id(&self) -> String {
        if self.is_empty() {
            "baseline".to_string()
        } else {
            self.faults
                .iter()
                .map(ScheduledFault::to_line)
                .collect::<Vec<_>>()
                .join(" + ")
        }
    }

    /// Parses the [`id`](FaultSchedule::id) form back: `baseline` is the
    /// empty schedule, anything else ` + `-joined fault lines.
    pub fn from_id(id: &str) -> Result<Self, String> {
        if id == "baseline" {
            return Ok(Self::empty());
        }
        Self::from_lines(id.split(" + "))
    }

    /// Serializes to one line per fault (the repro artifact body).
    pub fn to_lines(&self) -> Vec<String> {
        self.faults.iter().map(ScheduledFault::to_line).collect()
    }

    /// Parses a list of fault lines back into a schedule.
    pub fn from_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let faults = lines
            .into_iter()
            .map(ScheduledFault::from_line)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FaultSchedule { faults })
    }

    /// The schedule's canonical form: a **dedup key**
    /// ([`crate::FlowModel::semantic_schedule`] starts from it), not a
    /// proof that two schedules run alike — the campaign engine never
    /// skips a run on it. The rewrites below hold against the filter
    /// semantics the runner enforces *as long as no live `corrupt-byte`
    /// precedes a type-guarded clause in the same filter*: a corrupt XORs
    /// the bytes in place and every later `[msg_type]` guard re-parses
    /// them, so floating the corrupt past a drop (rule 4) or sorting a
    /// later group ahead of it (rule 3) can change which clauses fire. On
    /// tcp, `n0 recv corrupt-byte SYN 9 64 + n0 recv drop-all SYN` hands
    /// the server an undecodable segment; its canonical form, drop first,
    /// never does. The rewrites:
    ///
    /// 1. **Window normalization** — `drop-after 0` fires on every
    ///    instance (`Window::After(0)`: the counter is at least 1 by the
    ///    first test), which is exactly `drop-all`; the canonical form
    ///    uses `drop-all`.
    /// 2. **Dead-verdict elimination** — a filter run evaluates every
    ///    clause and keeps the *last* verdict written
    ///    (`Effects::verdict` is a single slot): a verdict-only fault
    ///    (the drops and delays, which have no side effect besides the
    ///    verdict) followed by an all-window verdict fault on the same
    ///    `(site, dir, msg_type)` is overwritten on every message it
    ///    matches and contributes nothing — it is removed. Faults with
    ///    non-verdict effects (duplicate copies accumulate, corruption
    ///    mutates bytes, reorder's release flag survives) are never
    ///    removed.
    /// 3. **Commuting-fault sort** — faults stably sorted by
    ///    `(site, dir, msg_type)`. Send/receive filters are independent
    ///    interpreters; sites are independent layers; and clauses guard on
    ///    `msg_type` equality, so a message only ever evaluates clauses of
    ///    its own type — the relative order of faults targeting different
    ///    types never matters, while the order of faults on the same
    ///    `(site, dir, msg_type)` is semantic in general and preserved by
    ///    the stable sort, except for the two commuting shapes below.
    /// 4. **Within-group commuters** — duplicate counts accumulate in
    ///    their own effect slot and corruption XORs bytes in place (XOR
    ///    commutes; forwarded copies clone the message *after* the whole
    ///    filter ran), so `duplicate` and `corrupt-byte` faults float to a
    ///    sorted tail of their group — exact for XOR against XOR, and for
    ///    the type guards only under the proviso above.
    ///    And a run of *consecutive* pure-drop faults all write the same
    ///    `Drop` verdict — a message is dropped iff any of their windows
    ///    fires, in any order — so each such run is sorted. (Drops
    ///    separated by a delay do not commute: which verdict lands last
    ///    depends on the order.)
    pub fn canonical(&self) -> FaultSchedule {
        let mut faults: Vec<ScheduledFault> = self
            .faults
            .iter()
            .cloned()
            .map(|mut f| {
                if let FaultOp::DropAfter { msg_type, after: 0 } = &f.op {
                    f.op = FaultOp::DropAll {
                        msg_type: msg_type.clone(),
                    };
                }
                f
            })
            .collect();
        let verdict_only = |f: &ScheduledFault| {
            matches!(
                f.op,
                FaultOp::DropAll { .. }
                    | FaultOp::DropNth { .. }
                    | FaultOp::DropAfter { .. }
                    | FaultOp::DropToDest { .. }
                    | FaultOp::DelayMs { .. }
            )
        };
        // All-window, unguarded verdict writers: they overwrite the
        // verdict of every message of their type.
        let verdict_all =
            |f: &ScheduledFault| matches!(f.op, FaultOp::DropAll { .. } | FaultOp::DelayMs { .. });
        let dead: Vec<bool> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| {
                verdict_only(f)
                    && faults[i + 1..].iter().any(|g| {
                        g.site == f.site
                            && g.dir == f.dir
                            && g.op.msg_type() == f.op.msg_type()
                            && verdict_all(g)
                    })
            })
            .collect();
        let mut keep = dead.iter();
        faults.retain(|_| !*keep.next().unwrap());
        faults.sort_by(|a, b| {
            (a.site, matches!(a.dir, Direction::Receive), a.op.msg_type()).cmp(&(
                b.site,
                matches!(b.dir, Direction::Receive),
                b.op.msg_type(),
            ))
        });

        // Normalize each (site, dir, msg_type) group: float the commuting
        // faults (duplicate, corrupt-byte) to a sorted tail, and sort each
        // maximal run of consecutive pure-drop faults.
        let commutes = |f: &ScheduledFault| {
            matches!(
                f.op,
                FaultOp::Duplicate { .. } | FaultOp::CorruptByteAt { .. }
            )
        };
        let pure_drop = |f: &ScheduledFault| {
            matches!(
                f.op,
                FaultOp::DropAll { .. }
                    | FaultOp::DropNth { .. }
                    | FaultOp::DropAfter { .. }
                    | FaultOp::DropToDest { .. }
            )
        };
        let mut out: Vec<ScheduledFault> = Vec::with_capacity(faults.len());
        let mut i = 0;
        while i < faults.len() {
            let group_key = |f: &ScheduledFault| {
                (
                    f.site,
                    matches!(f.dir, Direction::Receive),
                    f.op.msg_type().to_string(),
                )
            };
            let key = group_key(&faults[i]);
            let mut j = i;
            while j < faults.len() && group_key(&faults[j]) == key {
                j += 1;
            }
            let (mut chained, mut floating): (Vec<_>, Vec<_>) =
                faults[i..j].iter().cloned().partition(|f| !commutes(f));
            floating.sort_by_key(ScheduledFault::to_line);
            let mut k = 0;
            while k < chained.len() {
                let mut run = k;
                while run < chained.len() && pure_drop(&chained[run]) {
                    run += 1;
                }
                chained[k..run].sort_by_key(ScheduledFault::to_line);
                k = run.max(k + 1);
            }
            out.extend(chained);
            out.extend(floating);
            i = j;
        }
        FaultSchedule { faults: out }
    }

    /// The [`id`](FaultSchedule::id) of the [`canonical`](FaultSchedule::canonical)
    /// form.
    pub fn canonical_id(&self) -> String {
        self.canonical().id()
    }

    /// Lowers the schedule to per-site filter scripts, one entry per fault
    /// site the schedule touches (ascending by site index).
    pub fn lower(&self) -> Vec<SiteScripts> {
        let mut by_site: std::collections::BTreeMap<u32, (FilterProgram, FilterProgram)> =
            std::collections::BTreeMap::new();
        for fault in &self.faults {
            let (send, recv) = by_site.entry(fault.site).or_default();
            for clause in fault.op.clauses() {
                match fault.dir {
                    Direction::Send => send.push(clause),
                    Direction::Receive => recv.push(clause),
                }
            }
        }
        by_site
            .into_iter()
            .map(|(site, (send, recv))| SiteScripts {
                site,
                send: send.emit(),
                recv: recv.emit(),
            })
            .collect()
    }
}

/// The lowered filter scripts for one fault site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteScripts {
    /// The fault-site index the scripts install on.
    pub site: u32,
    /// The send-filter script (empty string when no send faults).
    pub send: String,
    /// The receive-filter script (empty string when no receive faults).
    pub recv: String,
}

impl SiteScripts {
    /// Whether neither direction has a script: nothing to install.
    pub(crate) fn is_empty(&self) -> bool {
        self.send.is_empty() && self.recv.is_empty()
    }
}

/// Mutates schedules within a protocol's message vocabulary.
#[derive(Debug, Clone)]
pub struct ScheduleMutator {
    messages: Vec<String>,
    nodes: u32,
    sites: u32,
}

impl ScheduleMutator {
    /// A mutator drawing message types from `spec`, destinations from the
    /// target's `nodes` node ids, and fault placements from its `sites`
    /// fault sites.
    pub fn new(spec: &ProtocolSpec, nodes: u32, sites: u32) -> Self {
        ScheduleMutator {
            messages: spec.messages.iter().map(|m| m.name.clone()).collect(),
            nodes: nodes.max(1),
            sites: sites.max(1),
        }
    }

    fn pick_message(&self, rng: &mut SimRng) -> String {
        self.messages[rng.uniform_u64(0, self.messages.len() as u64) as usize].clone()
    }

    /// Draws one random scheduled fault.
    pub fn random_fault(&self, rng: &mut SimRng) -> ScheduledFault {
        let site = rng.uniform_u64(0, self.sites as u64) as u32;
        let dir = if rng.coin(0.5) {
            Direction::Send
        } else {
            Direction::Receive
        };
        let msg_type = self.pick_message(rng);
        let op = match rng.uniform_u64(0, 8) {
            0 => FaultOp::DropAll { msg_type },
            1 => FaultOp::DropNth {
                msg_type,
                nth: rng.uniform_u64(1, 9) as u32,
            },
            2 => FaultOp::DropAfter {
                msg_type,
                after: rng.uniform_u64(0, 21) as u32,
            },
            3 => FaultOp::DropToDest {
                msg_type,
                dst: rng.uniform_u64(0, self.nodes as u64) as u32,
            },
            4 => {
                const DELAYS: [u64; 5] = [250, 1_000, 3_000, 5_000, 15_000];
                FaultOp::DelayMs {
                    msg_type,
                    ms: DELAYS[rng.uniform_u64(0, DELAYS.len() as u64) as usize],
                }
            }
            5 => FaultOp::Duplicate {
                msg_type,
                copies: rng.uniform_u64(1, 3) as u32,
            },
            6 => {
                const MASKS: [u8; 4] = [0x01, 0x40, 0x80, 0xFF];
                FaultOp::CorruptByteAt {
                    msg_type,
                    offset: rng.uniform_u64(0, 12) as usize,
                    mask: MASKS[rng.uniform_u64(0, MASKS.len() as u64) as usize],
                }
            }
            _ => FaultOp::ReorderWindow {
                msg_type,
                hold: rng.uniform_u64(1, 4) as u32,
            },
        };
        ScheduledFault { site, dir, op }
    }

    /// Draws one *statically-invalid* scheduled fault: either it addresses
    /// a fault site the target does not have, or its message type carries
    /// a stray `}` that closes the lowered guard's braced condition early
    /// and breaks the filter script's parse. Both classes are refused at
    /// install time ([`crate::Verdict::Invalid`]); the campaign pre-filter
    /// exists to reject them before a worker is even dispatched.
    fn scrambled_fault(&self, rng: &mut SimRng) -> ScheduledFault {
        let mut fault = self.random_fault(rng);
        if rng.coin(0.5) {
            fault.site = self.sites + 1 + rng.uniform_u64(0, 2) as u32;
        } else {
            let m = fault.op.msg_type().to_string();
            *fault.op.msg_type_mut() = format!("{}}}{}", &m[..1], &m[1..]);
        }
        fault
    }

    /// Produces a mutated child of `parent`: add a fault (while under
    /// `max_faults`), remove one, or replace one. One roll in ten is a
    /// *scramble* — the child carries a statically-invalid fault
    /// (an out-of-topology site or a parse-breaking type), modelling the
    /// corrupted or cross-target schedules a long campaign accumulates;
    /// the static pre-filter is what keeps them off the workers.
    pub fn mutate(
        &self,
        parent: &FaultSchedule,
        max_faults: usize,
        rng: &mut SimRng,
    ) -> FaultSchedule {
        let mut child = parent.clone();
        let roll = rng.uniform_u64(0, 10);
        if roll == 9 {
            let fault = self.scrambled_fault(rng);
            if child.is_empty() {
                child.faults.push(fault);
            } else {
                let i = rng.uniform_u64(0, child.len() as u64) as usize;
                child.faults[i] = fault;
            }
        } else if child.is_empty() || (roll < 4 && child.len() < max_faults) {
            child.faults.push(self.random_fault(rng));
        } else if roll < 6 && child.len() > 1 {
            let i = rng.uniform_u64(0, child.len() as u64) as usize;
            child.faults.remove(i);
        } else {
            let i = rng.uniform_u64(0, child.len() as u64) as usize;
            child.faults[i] = self.random_fault(rng);
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfi_script::Script;

    fn sample_schedule() -> FaultSchedule {
        FaultSchedule {
            faults: vec![
                ScheduledFault {
                    site: 1,
                    dir: Direction::Send,
                    op: FaultOp::DropNth {
                        msg_type: "HEARTBEAT".into(),
                        nth: 3,
                    },
                },
                ScheduledFault {
                    site: 2,
                    dir: Direction::Receive,
                    op: FaultOp::CorruptByteAt {
                        msg_type: "COMMIT".into(),
                        offset: 2,
                        mask: 0x40,
                    },
                },
                ScheduledFault {
                    site: 1,
                    dir: Direction::Send,
                    op: FaultOp::ReorderWindow {
                        msg_type: "DATA".into(),
                        hold: 2,
                    },
                },
            ],
        }
    }

    #[test]
    fn lowering_groups_by_site_and_parses() {
        let scripts = sample_schedule().lower();
        assert_eq!(scripts.len(), 2);
        assert_eq!(scripts[0].site, 1);
        assert_eq!(scripts[1].site, 2);
        for s in &scripts {
            assert!(Script::parse(&s.send).is_ok(), "{}", s.send);
            assert!(Script::parse(&s.recv).is_ok(), "{}", s.recv);
        }
        // Site 1 carries both send faults; site 2 only the recv corruption.
        let site1 = &scripts[0];
        assert!(site1.send.contains("xHold") && site1.send.contains("xRelease"));
        assert!(site1.recv.is_empty());
        let site2 = &scripts[1];
        assert!(site2.send.is_empty());
        assert!(site2.recv.contains("msg_set_byte"), "{}", site2.recv);
    }

    #[test]
    fn fault_lines_carry_the_site() {
        let lines = sample_schedule().to_lines();
        assert_eq!(lines[0], "n1 send drop-nth HEARTBEAT 3");
        assert_eq!(lines[1], "n2 recv corrupt-byte COMMIT 2 64");
        // A line without a site token parses as site 0.
        let f = ScheduledFault::from_line("send drop-all ACK").unwrap();
        assert_eq!(f.site, 0);
    }

    #[test]
    fn serialization_round_trips() {
        let sched = sample_schedule();
        let lines = sched.to_lines();
        let back = FaultSchedule::from_lines(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(back, sched);
        assert_eq!(back.to_lines(), lines);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "send",
            "send drop-nth",
            "send drop-nth HEARTBEAT notanumber",
            "sideways drop-all ACK",
            "send explode ACK",
        ] {
            assert!(ScheduledFault::from_line(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn mutation_is_deterministic_and_bounded() {
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut a = SimRng::seed_from(99);
        let mut b = SimRng::seed_from(99);
        let mut sa = FaultSchedule::empty();
        let mut sites_seen = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let next = mutator.mutate(&sa, 4, &mut a);
            assert_eq!(next, mutator.mutate(&sa, 4, &mut b));
            assert!(next.len() <= 4);
            // Like the engine's corpus, only installable mutants become
            // parents (invalid ones are pre-filtered away).
            if !crate::validate::schedule_is_installable(&next, 3) {
                continue;
            }
            for f in &next.faults {
                assert!(f.site < 3);
                sites_seen.insert(f.site);
            }
            for s in next.lower() {
                assert!(Script::parse(&s.send).is_ok() && Script::parse(&s.recv).is_ok());
            }
            sa = next;
        }
        assert!(sites_seen.len() > 1, "mutator never moved the fault site");
    }

    #[test]
    fn canonicalization_is_behaviour_preserving() {
        // Checked against the actual runner on a gmp sample: every
        // mutator-produced schedule here whose canonical form differs
        // from it still executes to the same verdict, oracle, and
        // coverage. A sample, not a proof — `canonical`'s doc names the
        // shape (a live corrupt-byte ahead of a type guard) where it fails.
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(1234);
        let mut parent = FaultSchedule::empty();
        let target = crate::runner::GmpTarget {
            fault_secs: 5,
            ..crate::runner::GmpTarget::default()
        };
        let mut rewritten = 0usize;
        for _ in 0..500 {
            let child = mutator.mutate(&parent, 4, &mut rng);
            let canon = child.canonical();
            // Canonicalization is idempotent, and the key is stable.
            assert_eq!(canon.canonical(), canon, "{}", child.id());
            assert_eq!(canon.id(), child.canonical_id());
            if crate::validate::schedule_is_installable(&child, 3) {
                if canon != child && rewritten < 60 {
                    rewritten += 1;
                    let a = crate::runner::run_schedule(&target, &child);
                    let b = crate::runner::run_schedule(&target, &canon);
                    assert_eq!(a.verdict, b.verdict, "{}", child.id());
                    assert_eq!(a.oracle, b.oracle, "{}", child.id());
                    assert_eq!(
                        a.coverage.edges().collect::<Vec<_>>(),
                        b.coverage.edges().collect::<Vec<_>>(),
                        "{}",
                        child.id()
                    );
                }
                parent = child;
            }
        }
        assert!(
            rewritten > 0,
            "500 mutations never produced a canonically-rewritten schedule"
        );
    }

    #[test]
    fn canonical_rewrites_pin_the_equivalence_classes() {
        let fault = |site, dir, op| ScheduledFault { site, dir, op };
        let a = fault(
            2,
            Direction::Receive,
            FaultOp::DropAll {
                msg_type: "COMMIT".into(),
            },
        );
        let b = fault(
            0,
            Direction::Send,
            FaultOp::DelayMs {
                msg_type: "DATA".into(),
                ms: 250,
            },
        );

        // Cross-(site, dir) permutations collapse to one class.
        let ab = FaultSchedule {
            faults: vec![a.clone(), b.clone()],
        };
        let ba = FaultSchedule {
            faults: vec![b.clone(), a.clone()],
        };
        assert_ne!(ab.id(), ba.id());
        assert_eq!(ab.canonical_id(), ba.canonical_id());

        // Same (site, dir), different message types commute too: a
        // message only evaluates clauses guarding its own type.
        let c = fault(
            2,
            Direction::Receive,
            FaultOp::DropNth {
                msg_type: "JOIN".into(),
                nth: 2,
            },
        );
        let ac = FaultSchedule {
            faults: vec![a.clone(), c.clone()],
        };
        let ca = FaultSchedule {
            faults: vec![c.clone(), a.clone()],
        };
        assert_ne!(ac.id(), ca.id());
        assert_eq!(ac.canonical_id(), ca.canonical_id());

        // Same (site, dir, msg_type): the verdict slot is last-writer-
        // wins, so two all-window delays collapse to the later one — and
        // the two orders are genuinely different programs.
        let d1 = fault(
            1,
            Direction::Send,
            FaultOp::DelayMs {
                msg_type: "HEARTBEAT".into(),
                ms: 250,
            },
        );
        let d2 = fault(
            1,
            Direction::Send,
            FaultOp::DelayMs {
                msg_type: "HEARTBEAT".into(),
                ms: 1_000,
            },
        );
        let d12 = FaultSchedule {
            faults: vec![d1.clone(), d2.clone()],
        };
        let d21 = FaultSchedule {
            faults: vec![d2.clone(), d1.clone()],
        };
        assert_eq!(d12.canonical(), FaultSchedule { faults: vec![d2] });
        assert_eq!(d21.canonical(), FaultSchedule { faults: vec![d1] });
        assert_ne!(d12.canonical_id(), d21.canonical_id());

        // drop-after 0 normalizes to drop-all, and a non-verdict fault
        // (duplicate) is never eliminated by a later all-window verdict.
        let after0 = FaultSchedule {
            faults: vec![fault(
                0,
                Direction::Send,
                FaultOp::DropAfter {
                    msg_type: "DATA".into(),
                    after: 0,
                },
            )],
        };
        let drop_all = FaultSchedule {
            faults: vec![fault(
                0,
                Direction::Send,
                FaultOp::DropAll {
                    msg_type: "DATA".into(),
                },
            )],
        };
        assert_eq!(after0.canonical_id(), drop_all.canonical_id());
        let dup_then_drop = FaultSchedule {
            faults: vec![
                fault(
                    0,
                    Direction::Send,
                    FaultOp::Duplicate {
                        msg_type: "DATA".into(),
                        copies: 1,
                    },
                ),
                drop_all.faults[0].clone(),
            ],
        };
        assert_eq!(dup_then_drop.canonical().len(), 2);
    }

    #[test]
    fn scrambles_produce_both_invalid_classes_and_nothing_else() {
        let mutator = ScheduleMutator::new(&ProtocolSpec::gmp(), 3, 3);
        let mut rng = SimRng::seed_from(7);
        let (mut bad_site, mut bad_parse) = (0usize, 0usize);
        for _ in 0..300 {
            let child = mutator.mutate(&FaultSchedule::empty(), 4, &mut rng);
            let errs = crate::validate::install_errors(&child, 3);
            if errs.is_empty() {
                continue;
            }
            // An invalid mutant must fail for exactly one known reason.
            assert_eq!(errs.len(), 1, "{errs:?}");
            if errs[0].contains("fault site") {
                bad_site += 1;
                assert!(child.faults.iter().any(|f| f.site >= 3));
            } else {
                bad_parse += 1;
                assert!(errs[0].contains("does not parse"), "{errs:?}");
                // ... and still round-trips through the repro line format,
                // so unfiltered engines can ship it to fleet workers.
                let back =
                    FaultSchedule::from_lines(child.to_lines().iter().map(String::as_str)).unwrap();
                assert_eq!(back, child);
            }
        }
        assert!(bad_site > 0, "no out-of-topology scrambles in 300 draws");
        assert!(bad_parse > 0, "no parse-breaking scrambles in 300 draws");
    }
}
