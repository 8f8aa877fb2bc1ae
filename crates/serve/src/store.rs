//! The daemon's journal-backed store: one directory holding everything a
//! restart needs to resume every in-flight campaign byte-for-byte.
//!
//! Layout (all line files — DESIGN.md, "Line files and torn tails"):
//!
//! ```text
//! store.index        append-only: one `campaign <id> <params kv>` line
//!                    per accepted submission, fsynced before the submit
//!                    is acknowledged; a `revoked <id>` line after one
//!                    whose fsync never succeeded (the submit was nacked)
//! store.journal      append-only: every campaign's pfi-journal v1
//!                    write-ahead journal, one block each — a
//!                    `journal <id>` line, then the journal unchanged (a
//!                    missing `complete` terminator marks the campaign as
//!                    unfinished and resumable; a resume appends a fresh
//!                    block, and the last block of an id is its journal)
//! <id>.seeds         the seed corpus pinned at submission, one schedule
//!                    per line; only when there were seeds to pin (a
//!                    missing file *is* the empty corpus), written before
//!                    the index line by temp-file + rename (`write_seeds`)
//! corpus-<key>       the shared corpus pool for one target build,
//!                    deduplicated by exact schedule id — the
//!                    cross-campaign minimization pass
//! <id>.journal       a campaign's journal in stores written before
//!                    `store.journal`; read for an id with no block there
//! ```
//!
//! Identity lives in the index + seeds; progress lives in the journal.
//! A journal `case` lists only the coverage edges it added, so a block
//! is a few KB; blocks of older daemons list every run's full edge set
//! and recover to the same results.
//!
//! No journal line starts with `journal `, so the markers split the
//! segment back into blocks. Only the daemon's executor writes it, one
//! campaign at a time, so a block's records follow its marker unbroken.
//!
//! Every append holds the one store lock across cutting back a torn tail,
//! the write and the fsync (a marker is not fsynced: journals never were).
//! The cut keeps a line a kill tore off the end of one block from being
//! glued to the next block's marker. The lock also guards the pool's
//! dedup sets, one set of exact ids per corpus key, read from
//! `corpus-<key>` on the key's first merge; later merges touch the disk
//! only to append. The `Store` value is the directory's only writer while
//! it lives (a daemon owns its store). A key's set is thrown away, to be
//! re-read, when an append to its pool fails, and a new `Store::open`
//! starts with none.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use pfi_testgen::{lines, FaultSchedule, Journal};

use crate::faultio::{faulty_sync, faulty_write_all, FaultPlan};
use crate::proto::CampaignParams;

/// Corpus key -> exact ids of every schedule in `corpus-<key>`, present
/// once the key has been merged into.
type PoolSets = BTreeMap<String, BTreeSet<String>>;

/// Handle on a store directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// When set, every write and fsync consults the plan — the chaos
    /// suite's disk-fault surface. `None` in production.
    plan: Option<Arc<FaultPlan>>,
    /// The store lock, and the pool sets it guards (module header).
    pools: Mutex<PoolSets>,
}

impl Store {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            plan: None,
            pools: Mutex::default(),
        })
    }

    /// Routes this store's writes and fsyncs through a fault plan.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Store {
        self.plan = Some(plan);
        self
    }

    /// `store.index` path.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join("store.index")
    }

    /// `store.journal` path: every campaign's journal, one block each.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("store.journal")
    }

    /// Where a store of the per-campaign layout kept a campaign's journal.
    pub fn legacy_journal_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.journal"))
    }

    /// A campaign's pinned seed-corpus path.
    pub fn seeds_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.seeds"))
    }

    /// A target key's shared corpus-pool path.
    pub fn corpus_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("corpus-{key}"))
    }

    /// Takes the store lock (module header).
    fn lock(&self) -> MutexGuard<'_, PoolSets> {
        self.pools.lock().expect("a store append panicked")
    }

    /// Appends one record (whole lines, newline added) to an append-only
    /// store file and fsyncs. The caller holds the store lock — `_held`
    /// is the proof — across the whole call. A torn tail a failed append
    /// left is cut off first, so a fragment never becomes a line.
    fn append_line(&self, held: &PoolSets, path: &Path, record: &str) -> io::Result<()> {
        let (f, sync_fails) = self.write_line(held, path, record)?;
        faulty_sync(&f, sync_fails)
    }

    /// [`append_line`](Store::append_line) up to the fsync: returns the
    /// file, and whether the plan fails its fsync.
    fn write_line(&self, _held: &PoolSets, path: &Path, record: &str) -> io::Result<(File, bool)> {
        let mut f = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        lines::truncate_torn_tail(&mut f)?;
        let record = format!("{record}\n");
        let sync_fails = faulty_write_all(&mut f, record.as_bytes(), self.plan.as_ref())?;
        Ok((f, sync_fails))
    }

    /// Starts campaign `id`'s block: appends its `journal <id>` marker to
    /// `store.journal`, unsynced, and returns the path the campaign's
    /// journal is then appended to.
    pub fn begin_journal(&self, id: &str) -> io::Result<PathBuf> {
        let path = self.journal_path();
        self.write_line(&self.lock(), &path, &format!("journal {id}"))?;
        Ok(path)
    }

    /// Streams `store.journal` block by block (module header): each
    /// marker's id and its journal as [`Journal::from_text`] reads the
    /// block, in file order, so an id may come more than once. Lines
    /// before the first marker belong to no block and are skipped. A
    /// missing file holds no blocks.
    pub fn journal_blocks(&self) -> io::Result<JournalBlocks> {
        let file = match File::open(self.journal_path()) {
            // Blocks run to tens of KB: read in chunks of that size.
            Ok(f) => Some(BufReader::with_capacity(1 << 16, f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(JournalBlocks { file, next: None })
    }

    /// Appends one submission to the index and fsyncs. Only after this
    /// returns may the daemon acknowledge the submit. The optional
    /// `ident` (the client's idempotency token) rides the same line so
    /// dedup survives restarts.
    pub fn append_index(
        &self,
        id: &str,
        params: &CampaignParams,
        ident: Option<&str>,
    ) -> io::Result<()> {
        let line = match ident {
            Some(tok) => format!("campaign {id} {} ident={tok}", params.to_kv()),
            None => format!("campaign {id} {}", params.to_kv()),
        };
        self.append_line(&self.lock(), &self.index_path(), &line)
    }

    /// Revokes the submission `id` whose index append never succeeded,
    /// though its line may be on disk whole (the fsync failed), because
    /// its submit was nacked: appends a `revoked <id>` line, which drops
    /// every `campaign <id>` line before it from [`load_index`]. Best
    /// effort; concurrent submits may have appended after that line, so
    /// the index is never cut back.
    ///
    /// [`load_index`]: Store::load_index
    pub fn revoke_index(&self, id: &str) -> io::Result<()> {
        self.append_line(&self.lock(), &self.index_path(), &format!("revoked {id}"))
    }

    /// Loads the index: every fully-written submission, in submission
    /// order, with its idempotency token when the submit carried one.
    /// Malformed lines are skipped (older stores hold healed fragments
    /// mid-file). A failed fsync leaves a whole line the daemon's retry
    /// appends again, so the loader keeps one entry per id, the last —
    /// unless a `revoked <id>` line follows it.
    #[allow(clippy::type_complexity)]
    pub fn load_index(&self) -> io::Result<Vec<(String, CampaignParams, Option<String>)>> {
        let bytes = read_or_empty(&self.index_path())?;
        let mut out: Vec<Option<(String, CampaignParams, Option<String>)>> = Vec::new();
        let mut slot: BTreeMap<String, usize> = BTreeMap::new();
        for line in lines::complete(&bytes).filter_map(Result::ok) {
            if let Some(id) = line.strip_prefix("revoked ") {
                if let Some(i) = slot.remove(id) {
                    out[i] = None;
                }
                continue;
            }
            let Some(rest) = line.strip_prefix("campaign ") else {
                continue; // malformed or foreign line
            };
            let Some((id, kv)) = rest.split_once(' ') else {
                continue;
            };
            if let Ok(params) = CampaignParams::from_kv(kv) {
                let ident = crate::proto::parse_kv(kv)
                    .get("ident")
                    .map(|s| s.to_string());
                let entry = Some((id.to_string(), params, ident));
                match slot.get(id) {
                    Some(&i) => out[i] = entry,
                    None => {
                        slot.insert(id.to_string(), out.len());
                        out.push(entry);
                    }
                }
            }
        }
        Ok(out.into_iter().flatten().collect())
    }

    /// Writes a campaign's pinned seed corpus (one schedule per line) and
    /// fsyncs. Empty baselines are never seeds, and with nothing to pin no
    /// file is written (a missing file is the empty corpus) and a stale
    /// `<id>.seeds` — from a submit refused at the index, under an id the
    /// next start issues again — is unlinked. Otherwise crash-safe by
    /// temp-file + rename: the final path is absent or complete; a failed
    /// write strands only the `.tmp` file, which the next attempt overwrites.
    pub fn write_seeds(&self, id: &str, seeds: &[FaultSchedule]) -> io::Result<()> {
        let final_path = self.seeds_path(id);
        let body: String = seeds
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.id() + "\n")
            .collect();
        if body.is_empty() {
            return match fs::remove_file(&final_path) {
                // The removal has to be as durable as the index line that
                // follows it, or a crash could bring the stale seeds back.
                Ok(()) => File::open(&self.dir)?.sync_all(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e),
            };
        }
        let tmp_path = self.dir.join(format!("{id}.seeds.tmp"));
        let mut f = File::create(&tmp_path)?;
        let sync_fails = faulty_write_all(&mut f, body.as_bytes(), self.plan.as_ref())?;
        faulty_sync(&f, sync_fails)?;
        drop(f);
        fs::rename(&tmp_path, &final_path)
    }

    /// Reads a campaign's pinned seed corpus; a missing file is an empty
    /// corpus (the campaign was submitted without `share-corpus`, or the
    /// pool was empty).
    pub fn read_seeds(&self, id: &str) -> io::Result<Vec<FaultSchedule>> {
        read_schedule_lines(&self.seeds_path(id))
    }

    /// Reads a target key's shared corpus pool.
    pub fn read_corpus(&self, key: &str) -> io::Result<Vec<FaultSchedule>> {
        read_schedule_lines(&self.corpus_path(key))
    }

    /// Merges a finished campaign's corpus into the target's shared pool:
    /// a schedule joins only if no pool schedule has its exact id (a
    /// canonical form is not an equivalence). Returns how many joined.
    /// Append-only and fsynced, in campaign completion order. The pool
    /// file is read only on the first merge into `key` and after a failed
    /// append (module header).
    pub fn merge_corpus(&self, key: &str, corpus: &[FaultSchedule]) -> io::Result<usize> {
        let mut pools = self.lock();
        if !pools.contains_key(key) {
            let pool = self.read_corpus(key)?;
            pools.insert(
                key.to_string(),
                pool.iter().map(FaultSchedule::id).collect(),
            );
        }
        let seen = pools.get_mut(key).expect("inserted above");
        let fresh: Vec<String> = corpus
            .iter()
            .filter(|s| !s.is_empty())
            .map(FaultSchedule::id)
            .filter(|id| seen.insert(id.clone()))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        if let Err(e) = self.append_line(&pools, &self.corpus_path(key), &fresh.join("\n")) {
            pools.remove(key);
            return Err(e);
        }
        Ok(fresh.len())
    }
}

/// A store file's bytes; a missing file is an empty one.
fn read_or_empty(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        read => read,
    }
}

/// Reads one-schedule-per-line files (the `FaultSchedule::id()` form).
/// Malformed lines are skipped, like the index's.
fn read_schedule_lines(path: &Path) -> io::Result<Vec<FaultSchedule>> {
    Ok(lines::complete(&read_or_empty(path)?)
        .filter_map(|line| FaultSchedule::from_id(line.ok()?).ok())
        .filter(|s| !s.is_empty())
        .collect())
}

/// The blocks of `store.journal`, read one at a time
/// ([`Store::journal_blocks`]): only the block being read is in memory.
#[derive(Debug)]
pub struct JournalBlocks {
    /// `None` once the file is read to its end (or was missing).
    file: Option<BufReader<File>>,
    /// The id of the block being read: the last marker seen.
    next: Option<String>,
}

impl Iterator for JournalBlocks {
    type Item = io::Result<(String, Result<Journal, String>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.read_block() {
            Ok(block) => block.map(|(id, bytes)| Ok((id, Journal::from_text(bytes)))),
            Err(e) => {
                (self.file, self.next) = (None, None);
                Some(Err(e))
            }
        }
    }
}

impl JournalBlocks {
    /// The next block's id and bytes: everything up to the next marker,
    /// or to the end of the file.
    fn read_block(&mut self) -> io::Result<Option<(String, Vec<u8>)>> {
        let mut block = Vec::new();
        while let Some(file) = self.file.as_mut() {
            // A marker is a line that starts with `j`, and a journal has
            // few of those, so the reader skips from `j` to `j` rather
            // than line by line, and reads on to the newline only from a
            // `j` that starts a line. A block starts at a line start.
            if file.read_until(b'j', &mut block)? == 0 {
                self.file = None;
                break;
            }
            let j = block.len() - 1;
            if block[j] == b'j' && (j == 0 || block[j - 1] == b'\n') {
                file.read_until(b'\n', &mut block)?;
                if let Some(id) = marker(&block[j..]) {
                    let id = id.to_string();
                    block.truncate(j);
                    match self.next.replace(id) {
                        Some(done) => return Ok(Some((done, block))),
                        None => block.clear(), // what came before the first marker
                    }
                }
            } else if self.next.is_none() {
                // Before the first marker only the last byte matters: it
                // says whether a line starts after it.
                block.drain(..j);
            }
        }
        Ok(self.next.take().map(|id| (id, block)))
    }
}

/// The id a finished `journal <id>` marker line names.
fn marker(line: &[u8]) -> Option<&str> {
    let id = line.strip_prefix(b"journal ")?.strip_suffix(b"\n")?;
    lines::decode(id).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pfi_store_{}_{name}", std::process::id()))
    }

    #[test]
    fn index_round_trips_and_skips_torn_tail() {
        let dir = tmp("index");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let p1 = CampaignParams::default();
        let p2 = CampaignParams {
            seed: 7,
            share_corpus: true,
            ..CampaignParams::default()
        };
        store.append_index("c1", &p1, None).unwrap();
        store.append_index("c2", &p2, Some("tok-1")).unwrap();
        // Simulate a SIGKILL mid-append: a torn trailing line, cut after
        // its last required field, so it would parse but for its newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(store.index_path())
            .unwrap();
        write!(f, "campaign c3 {} ident=cli-ab", p1.to_kv()).unwrap();
        drop(f);
        let loaded = store.load_index().unwrap();
        assert_eq!(
            loaded,
            vec![
                ("c1".to_string(), p1.clone(), None),
                ("c2".to_string(), p2.clone(), Some("tok-1".to_string()))
            ],
            "the torn c3 line must be dropped, not parsed"
        );
        // The next append cuts the fragment off before it writes, so the
        // fragment never becomes a line of its own.
        store.append_index("c4", &p1, None).unwrap();
        let healed = store.load_index().unwrap();
        assert_eq!(healed.len(), 3);
        assert_eq!(healed[2].0, "c4");
        fs::remove_dir_all(&dir).ok();
    }

    /// A plan whose first `ops` disk operations all land their bytes and
    /// fail their fsync: the first seed whose draws say so.
    fn every_sync_fails(ops: usize) -> Arc<FaultPlan> {
        use crate::faultio::{DiskFault, FaultConfig};
        let config = |seed| FaultConfig {
            seed,
            wire_permille: 0,
            disk_permille: 1000,
            max_faults: 0,
            max_delay_ms: 1,
        };
        let seed = (1..)
            .find(|&seed| {
                let probe = FaultPlan::new(config(seed));
                (0..ops).all(|_| probe.disk_fault() == Some(DiskFault::SyncFail))
            })
            .unwrap();
        FaultPlan::new(config(seed))
    }

    /// A submit whose every index fsync failed is nacked, but each attempt
    /// left its whole line. The `revoked` line the daemon appends then
    /// keeps those lines from ever being a campaign, after a restart too;
    /// the id, issued again, is a campaign from its next line on.
    #[test]
    fn a_revoked_submission_is_no_campaign_after_a_restart() {
        let dir = tmp("revoked");
        fs::remove_dir_all(&dir).ok();
        let p = CampaignParams::default();
        Store::open(&dir)
            .unwrap()
            .append_index("c1", &p, None)
            .unwrap();
        // The daemon's six attempts, then its one revoke, every fsync failing.
        let store = Store::open(&dir)
            .unwrap()
            .with_fault_plan(every_sync_fails(7));
        for _ in 0..6 {
            assert!(store.append_index("c2", &p, Some("tok")).is_err());
        }
        let index = || fs::read_to_string(store.index_path()).unwrap();
        assert_eq!(index().matches("campaign c2 ").count(), 6);
        assert!(store.revoke_index("c2").is_err(), "its fsync fails too");
        assert!(index().ends_with("\nrevoked c2\n"));
        let c1 = ("c1".to_string(), p.clone(), None);
        assert_eq!(store.load_index().unwrap(), std::slice::from_ref(&c1));

        let restarted = Store::open(&dir).unwrap();
        assert_eq!(restarted.load_index().unwrap(), std::slice::from_ref(&c1));
        restarted.append_index("c2", &p, None).unwrap();
        let c2 = ("c2".to_string(), p, None);
        assert_eq!(restarted.load_index().unwrap(), [c1, c2]);
        fs::remove_dir_all(&dir).ok();
    }

    /// Each campaign's journal is one block of `store.journal`, read back
    /// in file order: a resume's fresh block follows the torn one, and the
    /// marker cuts the line the kill tore, so it is not glued to the torn
    /// block's last line.
    #[test]
    fn journal_blocks_read_back_in_order_and_a_torn_line_is_cut() {
        use pfi_testgen::JournalMeta;
        let dir = tmp("blocks");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.journal_blocks().unwrap().count(), 0, "no file");
        let journal = |seed| {
            let mut journal = Journal::new(JournalMeta {
                target: "gmp".into(),
                world_seed: 4242,
                seed,
                budget: 24,
                max_faults: 3,
                epoch: 8,
                seed_corpus: 0,
                step_budget: 0,
                max_retries: 2,
            });
            journal.dispatched.push("baseline".into());
            journal.complete = true;
            journal
        };
        let append = |id: &str, text: &str| {
            let path = store.begin_journal(id).unwrap();
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(text.as_bytes()).unwrap();
        };
        let (one, two) = (journal(1), journal(2));
        append("c1", &one.to_text());
        let text = two.to_text();
        append("c2", &text[..text.len() - 3]); // killed inside `complete`
        append("c2", &text);
        let mut torn = two.clone();
        torn.complete = false;
        let blocks: Vec<_> = store
            .journal_blocks()
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(
            blocks,
            [
                ("c1".to_string(), Ok(one)),
                ("c2".to_string(), Ok(torn)),
                ("c2".to_string(), Ok(two))
            ]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_pool_dedups_by_exact_schedule() {
        let dir = tmp("corpus");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let a = FaultSchedule::from_lines(["n1 send drop-all HEARTBEAT"]).unwrap();
        let b = FaultSchedule::from_lines(["n0 recv delay-ms ACK 250"]).unwrap();
        // `a` composed with `b` in both orders: one canonical form, two
        // schedules — both join.
        let ab = FaultSchedule {
            faults: [a.faults.clone(), b.faults.clone()].concat(),
        };
        let ba = FaultSchedule {
            faults: [b.faults.clone(), a.faults.clone()].concat(),
        };
        assert_eq!(
            store.merge_corpus("gmp", &[a.clone(), ab.clone()]).unwrap(),
            2
        );
        assert_eq!(
            store
                .merge_corpus("gmp", &[a.clone(), ba.clone(), b.clone()])
                .unwrap(),
            2,
            "only the schedules not pooled yet may join"
        );
        assert_eq!(store.read_corpus("gmp").unwrap(), [a, ab, ba, b]);
        assert!(store.read_corpus("tcp").unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_disk_faults_never_corrupt_acknowledged_state() {
        use crate::faultio::{FaultConfig, FaultPlan};
        let dir = tmp("chaos_disk");
        fs::remove_dir_all(&dir).ok();
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            wire_permille: 0,
            disk_permille: 350,
            max_faults: 0, // unlimited: every op rolls the dice
            max_delay_ms: 1,
        });
        let store = Store::open(&dir).unwrap().with_fault_plan(plan.clone());
        // The daemon's contract: an append that returned Ok was acked; an
        // append that errored is retried. Submits append from their
        // connection threads, so four threads append at once. After any
        // interleaving of failures, the index must hold exactly the acked
        // campaigns, with no half-parsed or glued ghosts: no append may
        // land between another's heal and its write.
        let append = |i: u64| {
            let (id, p) = (
                format!("c{i}"),
                CampaignParams {
                    seed: i,
                    ..CampaignParams::default()
                },
            );
            // bounded retry, like the daemon's
            (0..64)
                .any(|_| store.append_index(&id, &p, None).is_ok())
                .then_some((id, p, None))
        };
        let mut acked: Vec<_> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || (t * 24..t * 24 + 24).filter_map(append).collect::<Vec<_>>())
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        assert!(plan.disk_injected() > 0, "the sweep must actually inject");
        let mut loaded = store.load_index().unwrap();
        for list in [&mut loaded, &mut acked] {
            list.sort_by(|a, b| a.0.cmp(&b.0));
        }
        assert_eq!(loaded, acked);

        // Seeds are atomic: a failed write leaves the previous (absent or
        // complete) file; a successful one is complete.
        let s = FaultSchedule::from_lines(["n1 send drop-all HEARTBEAT"]).unwrap();
        for _ in 0..64 {
            match store.write_seeds("c1", std::slice::from_ref(&s)) {
                Ok(()) => break,
                Err(_) => assert!(
                    store.read_seeds("c1").unwrap().is_empty(),
                    "a failed seeds write must not leave a partial final file"
                ),
            }
        }
        assert_eq!(store.read_seeds("c1").unwrap(), vec![s]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeds_round_trip_and_drop_baseline() {
        let dir = tmp("seeds");
        fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir).unwrap();
        let s = FaultSchedule::from_lines(["n2 recv drop-nth JOIN 2"]).unwrap();
        store
            .write_seeds("c1", &[FaultSchedule::empty(), s.clone()])
            .unwrap();
        assert_eq!(store.read_seeds("c1").unwrap(), vec![s]);
        assert!(
            !dir.join("c1.seeds.tmp").exists(),
            "a pinned seed set reaches its final path by rename"
        );
        assert!(store.read_seeds("c9").unwrap().is_empty());

        // Nothing to pin — no seeds, or only baselines — writes no file,
        // and removes one a refused submit left under the same id.
        for nothing in [vec![], vec![FaultSchedule::empty(), FaultSchedule::empty()]] {
            store.write_seeds("c2", &nothing).unwrap();
            assert!(!store.seeds_path("c2").exists());
            assert!(!dir.join("c2.seeds.tmp").exists());
            store.write_seeds("c1", &nothing).unwrap();
            assert!(!store.seeds_path("c1").exists(), "stale seeds must go");
            assert!(store.read_seeds("c1").unwrap().is_empty());
            fs::write(store.seeds_path("c1"), "n2 recv drop-nth JOIN 2\n").unwrap();
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// The pool merge as it was before the in-memory index: the whole
    /// pool file is re-read on every call. Kept as the reference
    /// `merge_corpus` must be indistinguishable from.
    fn merge_rereading(store: &Store, key: &str, corpus: &[FaultSchedule]) -> io::Result<usize> {
        let mut seen: BTreeSet<String> = store.read_corpus(key)?.iter().map(|s| s.id()).collect();
        let fresh: Vec<String> = corpus
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.id())
            .filter(|id| seen.insert(id.clone()))
            .collect();
        if fresh.is_empty() {
            return Ok(0);
        }
        let held = store.lock();
        store.append_line(&held, &store.corpus_path(key), &fresh.join("\n"))?;
        Ok(fresh.len())
    }

    /// Fault lines the generated corpora draw from: several sites and
    /// directions, so permuted draws repeat schedules and schedules that
    /// share a canonical form (and a `drop-after 0` beside the `drop-all`
    /// it canonicalises to), which the exact-id dedup keeps apart.
    const FAULT_LINES: [&str; 7] = [
        "n1 send drop-all HEARTBEAT",
        "n1 send drop-after HEARTBEAT 0",
        "n0 recv delay-ms ACK 250",
        "n2 recv drop-nth JOIN 2",
        "n0 send duplicate PROCLAIM 2",
        "n2 send corrupt-byte COMMIT 2 64",
        "n1 recv delay-ms ACK 1000",
    ];

    fn arb_corpus() -> impl Strategy<Value = Vec<FaultSchedule>> {
        let schedule =
            proptest::collection::vec(0usize..FAULT_LINES.len(), 0..4).prop_map(|picks| {
                FaultSchedule::from_lines(picks.iter().map(|&i| FAULT_LINES[i])).unwrap()
            });
        proptest::collection::vec(schedule, 0..5)
    }

    proptest! {
        /// Differential: any sequence of merges — overlapping, permuted,
        /// empty and duplicate corpora over two keys, clean or with disk
        /// faults injected and retried, with a fresh `Store::open` taking
        /// over part-way — returns the counts and leaves the pool bytes
        /// the re-reading reference does.
        #[test]
        fn pool_index_matches_rereading_the_pool_file(
            steps in proptest::collection::vec((0usize..2, arb_corpus()), 1..12),
            reopen_at in 0usize..12,
            fault_seed in 1u64..1_000_000,
            disk_permille in prop_oneof![Just(0u16), Just(350u16)],
        ) {
            use crate::faultio::{FaultConfig, FaultPlan};
            let side = |name: &str| {
                let dir = tmp(name);
                fs::remove_dir_all(&dir).ok();
                let plan = FaultPlan::new(FaultConfig {
                    seed: fault_seed,
                    wire_permille: 0,
                    disk_permille,
                    max_faults: 0, // unlimited: every op rolls the dice
                    max_delay_ms: 1,
                });
                (dir, plan)
            };
            let (dir_a, plan_a) = side("pool_indexed");
            let (dir_b, plan_b) = side("pool_reference");
            let mut indexed = Store::open(&dir_a).unwrap().with_fault_plan(plan_a.clone());
            let reference = Store::open(&dir_b).unwrap().with_fault_plan(plan_b.clone());
            // Bounded retry, like the daemon's: every attempt's result —
            // the errors too — must match the reference's.
            let attempts = |merge: &dyn Fn() -> io::Result<usize>| {
                let mut seen = Vec::new();
                for _ in 0..64 {
                    let r = merge().map_err(|e| e.to_string());
                    let done = r.is_ok();
                    seen.push(r);
                    if done {
                        break;
                    }
                }
                seen
            };
            for (i, (k, corpus)) in steps.iter().enumerate() {
                if i == reopen_at {
                    indexed = Store::open(&dir_a).unwrap().with_fault_plan(plan_a.clone());
                }
                let key = ["gmp", "tcp-fs5"][*k];
                let got = attempts(&|| indexed.merge_corpus(key, corpus));
                let want = attempts(&|| merge_rereading(&reference, key, corpus));
                prop_assert_eq!(got, want, "step {}", i);
            }
            prop_assert_eq!(plan_a.disk_injected(), plan_b.disk_injected());
            for key in ["gmp", "tcp-fs5"] {
                prop_assert_eq!(
                    fs::read(indexed.corpus_path(key)).ok(),
                    fs::read(reference.corpus_path(key)).ok(),
                    "corpus-{} differs", key
                );
            }
            fs::remove_dir_all(&dir_a).ok();
            fs::remove_dir_all(&dir_b).ok();
        }
    }
}
