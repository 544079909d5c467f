//! Memory budget accounting and the run-scoped spill directory.
//!
//! SparkER scales by partitioning the big blocking/edge structures across
//! executors; on one node the equivalent lever is a fixed memory budget
//! with spill-to-disk. [`MemBudget`] is that budget: a cheaply clonable
//! handle (shared atomics) that wide operators consult before buffering
//! shuffle partitions and that chunked CSR builders derive their chunk
//! sizes from. Accounting is byte-based and explicit — operators
//! [`MemBudget::try_reserve`] before holding data and [`MemBudget::release`]
//! when they hand it off — so the per-stage high-water marks reported in
//! the pipeline report reflect what the engine actually buffered, not a
//! sampled guess. Peak RSS is sampled separately from `/proc/self/status`
//! (`VmHWM`) as the ground truth the accounting is validated against.
//!
//! Spill files live in one run-scoped temp directory ([`SpillDir`]) whose
//! `Drop` removes the whole tree — including on panic unwind, so an
//! aborted run leaves nothing behind (pinned by a test).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable holding the memory budget in MiB (0 or unset =
/// unlimited). The CLI's `--mem-budget-mb` flag sets this before the
/// execution backend is constructed.
pub const MEM_BUDGET_ENV: &str = "SPARKER_MEM_BUDGET_MB";

#[derive(Debug)]
struct BudgetInner {
    /// Budget in bytes; 0 means unlimited (accounting still runs, spilling
    /// never triggers).
    limit_bytes: u64,
    /// Bytes currently reserved by operators.
    tracked: AtomicU64,
    /// Highest `tracked` seen since the budget was created.
    run_high: AtomicU64,
    /// Highest `tracked` seen since the last [`MemBudget::begin_stage`].
    stage_high: AtomicU64,
    /// Highest `tracked` seen since the last [`MemBudget::begin_op`].
    op_high: AtomicU64,
    /// Spill batches written so far.
    spill_batches: AtomicU64,
    /// Spill bytes written so far.
    spilled_bytes: AtomicU64,
    /// Lazily created run-scoped spill directory.
    spill_dir: Mutex<Option<Arc<SpillDir>>>,
    /// Monotonic file-name counter within the spill directory.
    file_seq: AtomicU64,
}

/// A caller-specified RAM budget with byte-level accounting, shared by
/// every operator of one run.
///
/// Clones share the same counters (the handle is an `Arc`), so the budget
/// a [`crate::Context`] carries is the budget every stage of the run
/// accounts against. An unlimited budget (`limit_bytes == 0`) still tracks
/// reservations — the buffered-bytes high-water columns in the pipeline
/// report work without a limit — but never asks an operator to spill.
#[derive(Debug, Clone)]
pub struct MemBudget {
    inner: Arc<BudgetInner>,
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget::unlimited()
    }
}

impl MemBudget {
    fn with_limit(limit_bytes: u64) -> Self {
        MemBudget {
            inner: Arc::new(BudgetInner {
                limit_bytes,
                tracked: AtomicU64::new(0),
                run_high: AtomicU64::new(0),
                stage_high: AtomicU64::new(0),
                op_high: AtomicU64::new(0),
                spill_batches: AtomicU64::new(0),
                spilled_bytes: AtomicU64::new(0),
                spill_dir: Mutex::new(None),
                file_seq: AtomicU64::new(0),
            }),
        }
    }

    /// A budget that never spills; reservations are still tracked so the
    /// high-water metrics stay meaningful.
    pub fn unlimited() -> Self {
        MemBudget::with_limit(0)
    }

    /// A hard budget of `limit_bytes` bytes.
    pub fn limited(limit_bytes: u64) -> Self {
        MemBudget::with_limit(limit_bytes.max(1))
    }

    /// A hard budget of `mb` MiB (`0` = unlimited).
    pub fn limited_mb(mb: u64) -> Self {
        if mb == 0 {
            MemBudget::unlimited()
        } else {
            MemBudget::limited(mb * 1024 * 1024)
        }
    }

    /// Resolve the budget from [`MEM_BUDGET_ENV`]; unset, empty, `0` or
    /// unparsable values mean unlimited.
    pub fn from_env() -> Self {
        let mb = std::env::var(MEM_BUDGET_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0);
        MemBudget::limited_mb(mb)
    }

    /// The budget in bytes (0 = unlimited).
    pub fn limit_bytes(&self) -> u64 {
        self.inner.limit_bytes
    }

    /// `true` when a hard limit is set.
    pub fn is_limited(&self) -> bool {
        self.inner.limit_bytes > 0
    }

    /// Try to reserve `bytes` of buffer space. Returns `true` (and records
    /// the reservation) when the budget allows holding them in RAM;
    /// `false` when buffering them would exceed the limit — the caller
    /// should spill instead and must **not** call [`MemBudget::release`]
    /// for them.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let inner = &*self.inner;
        let new = inner.tracked.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if inner.limit_bytes > 0 && new > inner.limit_bytes {
            inner.tracked.fetch_sub(bytes, Ordering::Relaxed);
            return false;
        }
        inner.run_high.fetch_max(new, Ordering::Relaxed);
        inner.stage_high.fetch_max(new, Ordering::Relaxed);
        inner.op_high.fetch_max(new, Ordering::Relaxed);
        true
    }

    /// Return `bytes` previously reserved with [`MemBudget::try_reserve`].
    pub fn release(&self, bytes: u64) {
        self.inner.tracked.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Record that `batches` spill batches totalling `bytes` bytes were
    /// written to disk.
    pub fn note_spill(&self, batches: u64, bytes: u64) {
        self.inner
            .spill_batches
            .fetch_add(batches, Ordering::Relaxed);
        self.inner.spilled_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Reset the per-stage high-water mark (called by the pipeline's stage
    /// scopes at stage entry).
    pub fn begin_stage(&self) {
        self.inner.stage_high.store(
            self.inner.tracked.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Reset the per-operator high-water mark (called by wide operators at
    /// entry; the engine runs operators sequentially, so per-op marks never
    /// interleave).
    pub fn begin_op(&self) {
        self.inner.op_high.store(
            self.inner.tracked.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Highest reservation level since the last [`MemBudget::begin_op`].
    pub fn op_high_water(&self) -> u64 {
        self.inner.op_high.load(Ordering::Relaxed)
    }

    /// Bytes currently reserved.
    pub fn tracked_bytes(&self) -> u64 {
        self.inner.tracked.load(Ordering::Relaxed)
    }

    /// Highest reservation level since the last [`MemBudget::begin_stage`].
    pub fn stage_high_water(&self) -> u64 {
        self.inner.stage_high.load(Ordering::Relaxed)
    }

    /// Highest reservation level over the budget's whole lifetime.
    pub fn run_high_water(&self) -> u64 {
        self.inner.run_high.load(Ordering::Relaxed)
    }

    /// Spill batches written so far.
    pub fn spill_batches(&self) -> u64 {
        self.inner.spill_batches.load(Ordering::Relaxed)
    }

    /// Spill bytes written so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.inner.spilled_bytes.load(Ordering::Relaxed)
    }

    /// The run-scoped spill directory, created on first use. Every spill
    /// file holds an `Arc` to it, so the directory tree is removed exactly
    /// when the budget and all spill readers are gone — including on panic
    /// unwind.
    pub fn spill_dir(&self) -> io::Result<Arc<SpillDir>> {
        let mut guard = self
            .inner
            .spill_dir
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(dir) = &*guard {
            return Ok(Arc::clone(dir));
        }
        let dir = SpillDir::create()?;
        *guard = Some(Arc::clone(&dir));
        Ok(dir)
    }

    /// A fresh, unique spill file path inside the run's spill directory.
    pub fn spill_file(&self) -> io::Result<(Arc<SpillDir>, PathBuf)> {
        let dir = self.spill_dir()?;
        let seq = self.inner.file_seq.fetch_add(1, Ordering::Relaxed);
        let path = dir.path().join(format!("spill-{seq}.bin"));
        Ok((dir, path))
    }

    /// Budget-driven chunk length for chunked builders: how many of
    /// `total_items` items (each needing `bytes_per_item` of temporary
    /// space) to process per chunk. Unlimited budgets get one chunk;
    /// limited budgets size chunks so the temporaries take at most a
    /// quarter of the limit, floored so tiny budgets stay usable.
    pub fn chunk_len(&self, total_items: usize, bytes_per_item: usize) -> usize {
        if !self.is_limited() || total_items == 0 {
            return total_items.max(1);
        }
        let target = (self.inner.limit_bytes / 4).max(1 << 20) as usize;
        (target / bytes_per_item.max(1)).max(4096).min(total_items)
    }

    /// Peak resident set size of this process in bytes (`VmHWM`), or 0
    /// where the kernel does not expose it. Monotonic over the process
    /// lifetime.
    pub fn peak_rss_bytes() -> u64 {
        proc_status_kb("VmHWM") * 1024
    }
}

/// Read a `kB`-denominated field from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn proc_status_kb(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            if let Some(value) = rest.strip_prefix(':') {
                return value
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .unwrap_or(0);
            }
        }
    }
    0
}

#[cfg(not(target_os = "linux"))]
fn proc_status_kb(_field: &str) -> u64 {
    0
}

/// A run-scoped temporary directory for spill files, removed (recursively)
/// when the last handle drops — normal exit and panic unwind alike.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    fn create() -> io::Result<Arc<SpillDir>> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("sparker-spill-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Arc::new(SpillDir { path }))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tracks_but_never_spills() {
        let b = MemBudget::unlimited();
        assert!(!b.is_limited());
        assert!(b.try_reserve(1 << 40));
        assert_eq!(b.tracked_bytes(), 1 << 40);
        assert_eq!(b.run_high_water(), 1 << 40);
        b.release(1 << 40);
        assert_eq!(b.tracked_bytes(), 0);
        assert_eq!(b.run_high_water(), 1 << 40, "high water is sticky");
    }

    #[test]
    fn limited_rejects_over_budget_reservations() {
        let b = MemBudget::limited(1000);
        assert!(b.try_reserve(600));
        assert!(!b.try_reserve(600), "would exceed the limit");
        assert_eq!(b.tracked_bytes(), 600, "failed reservation rolled back");
        assert!(b.try_reserve(400));
        b.release(1000);
        assert_eq!(b.tracked_bytes(), 0);
    }

    #[test]
    fn stage_high_water_resets_per_stage() {
        let b = MemBudget::unlimited();
        assert!(b.try_reserve(500));
        b.release(500);
        assert_eq!(b.stage_high_water(), 500);
        b.begin_stage();
        assert_eq!(b.stage_high_water(), 0);
        assert!(b.try_reserve(200));
        b.release(200);
        assert_eq!(b.stage_high_water(), 200);
        assert_eq!(b.run_high_water(), 500);
    }

    #[test]
    fn clones_share_counters() {
        let a = MemBudget::limited(100);
        let b = a.clone();
        assert!(a.try_reserve(80));
        assert!(!b.try_reserve(80), "clone sees the shared reservation");
        b.note_spill(2, 64);
        assert_eq!(a.spill_batches(), 2);
        assert_eq!(a.spilled_bytes(), 64);
    }

    #[test]
    fn limited_mb_zero_is_unlimited() {
        assert!(!MemBudget::limited_mb(0).is_limited());
        assert_eq!(MemBudget::limited_mb(2).limit_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn chunk_len_scales_with_budget() {
        let unlimited = MemBudget::unlimited();
        assert_eq!(unlimited.chunk_len(1_000_000, 8), 1_000_000);
        let tiny = MemBudget::limited(1); // floor kicks in
        assert_eq!(tiny.chunk_len(1_000_000, 8), (1 << 20) / 8);
        let tight = MemBudget::limited(8 << 20); // 8 MiB / 4 / 8 B
        assert_eq!(tight.chunk_len(1_000_000, 8), (2 << 20) / 8);
        assert_eq!(tight.chunk_len(10, 8), 10, "chunk never exceeds total");
        assert_eq!(unlimited.chunk_len(0, 8), 1, "empty input still chunks");
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let b = MemBudget::limited(1);
        let path = {
            let dir = b.spill_dir().unwrap();
            std::fs::write(dir.path().join("leftover.bin"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(path.exists(), "dir alive while the budget holds it");
        drop(b);
        assert!(!path.exists(), "dir removed with its contents");
    }

    #[test]
    fn spill_dir_is_removed_on_panic_unwind() {
        let b = MemBudget::limited(1);
        let path = b.spill_dir().unwrap().path().to_path_buf();
        std::fs::write(path.join("mid-run.bin"), b"x").unwrap();
        let result = std::panic::catch_unwind(move || {
            let _moved_in = b; // the panicking scope owns the budget
            panic!("simulated stage failure");
        });
        assert!(result.is_err());
        assert!(
            !path.exists(),
            "unwinding dropped the budget and cleaned the spill dir"
        );
    }

    #[test]
    fn spill_files_get_unique_paths() {
        let b = MemBudget::limited(1);
        let (_, p1) = b.spill_file().unwrap();
        let (_, p2) = b.spill_file().unwrap();
        assert_ne!(p1, p2);
        assert_eq!(p1.parent(), p2.parent());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_sampling_reports_nonzero_on_linux() {
        assert!(MemBudget::peak_rss_bytes() > 0);
    }

    #[test]
    fn from_env_defaults_to_unlimited() {
        // The test environment does not set the variable; if it ever does,
        // the parse path is still exercised by limited_mb above.
        if std::env::var(MEM_BUDGET_ENV).is_err() {
            assert!(!MemBudget::from_env().is_limited());
        }
    }
}
