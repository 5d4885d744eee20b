//! SMT partition controllers for the register cache.
//!
//! [`CachePartition`] is the *configuration-level* name of a
//! partitioning policy — `Copy`, `Eq`, cheap to put in sweep matrices.
//! At cache construction it becomes a [`PartitionController`]: one
//! enum variant per policy, holding that policy's quota state directly
//! and dispatched by `match`.
//!
//! The cache consults its controller at three decision points:
//!
//! 1. **Insertion** (`admit` + `victim_ways`): may this thread place
//!    freely, and into which ways of the target set? An inadmissible
//!    insert (a thread at its occupancy quota) falls back to evicting
//!    one of the thread's *own* entries in the set, or is dropped.
//! 2. **Epoch pacing** (`epoch_due` + `epoch_boundary`): the dynamic
//!    controllers decide when a boundary fires and return a plan — new
//!    entry quotas or a new way map — which the cache then enforces
//!    (trimming over-quota threads, draining reassigned ways).
//! 3. **Audit**: self-consistency of the quota state, folded into
//!    [`crate::RegisterCache::audit`].
//!
//! Outside the cache the controller is read-only, through
//! [`crate::RegisterCache::partition`]: [`PartitionController::cap`],
//! [`PartitionController::caps`], [`PartitionController::way_counts`]
//! and [`PartitionController::way_owner`] let the simulator's invariant
//! checker cross-check entry placement against epoch-varying ownership.
//!
//! Adding a controller touches at most three files: a
//! [`CachePartition`] variant in the policy module, a
//! [`PartitionController`] variant here with its arm in each `match`,
//! and a typed rejection in the simulator's config validation.

use crate::monitor::UtilityMonitor;
use crate::policy::{CachePartition, EpochAdapt, RegCacheConfig};
use std::ops::Range;

/// Read-only epoch-boundary inputs for
/// [`PartitionController::epoch_boundary`].
///
/// The cache gathers these from its own state so controllers stay free
/// of entry-array knowledge: the shadow-tag monitors (utility curves),
/// the pinned footprints (quota floors), and the geometry.
#[derive(Debug)]
pub(crate) struct EpochContext<'a> {
    /// The shadow-tag utility monitors feeding the partitioner.
    pub monitor: &'a UtilityMonitor,
    /// Valid pinned entries per thread (quota floors: pinned entries
    /// are never evicted by a repartition).
    pub pinned: &'a [usize],
    /// The largest pinned-entry count any single set holds per thread
    /// (way-granularity floors: a thread's new way block must fit its
    /// pinned entries in every set).
    pub pinned_per_set_max: &'a [usize],
    /// Total cache entries.
    pub entries: usize,
    /// Cache associativity.
    pub ways: usize,
    /// Cache set count (= entries the ownership of one way is worth).
    pub sets: usize,
}

/// A dynamic controller's repartition decision, enforced by the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum EpochPlan {
    /// New per-thread occupancy quotas (summing to the entry count);
    /// the cache trims each over-quota thread by evicting its own
    /// unpinned entries, lowest replacement score first.
    Caps(Vec<usize>),
    /// New per-thread way counts (summing to the associativity, laid
    /// out as contiguous blocks in thread order); the cache drains
    /// reassigned ways — evicting the losing thread's unpinned entries
    /// and migrating its pinned entries into its remaining block.
    Ways(Vec<usize>),
}

/// The SMT partition behavior of one register cache: one variant per
/// [`CachePartition`], each holding its own quota state (see the module
/// docs).
///
/// Every variant is a deterministic function of its inputs and the
/// monitored access stream — the golden-snapshot matrix pins its timing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionController {
    /// [`CachePartition::Shared`], and every single-thread cache: all
    /// ways compete freely, no quotas, no epochs.
    Shared,
    /// [`CachePartition::WayPartition`]: thread `t` statically owns ways
    /// `[t·w, (t+1)·w)` of every set.
    WayPartition {
        /// Ways owned per thread (`w`).
        ways_per_thread: usize,
    },
    /// [`CachePartition::OccupancyCap`]: shared ways, a static
    /// live-entry cap per thread.
    OccupancyCap {
        /// The per-thread cap, `entries / nthreads`.
        cap: usize,
    },
    /// [`CachePartition::DynamicCap`]: shared ways, per-thread quotas
    /// recomputed from the utility monitors every epoch.
    DynamicCap {
        /// The quotas in force, one per thread; always sums to the
        /// entry count.
        caps: Vec<usize>,
        /// Quota floor the partitioner aims to preserve per thread.
        min_cap: usize,
        /// When the next boundary fires.
        pacer: EpochPacer,
    },
    /// [`CachePartition::DynamicWay`]: contiguous per-thread way blocks
    /// (in thread order), reassigned from the utility monitors every
    /// epoch.
    DynamicWay {
        /// Ways owned per thread; thread `t`'s block starts at the
        /// prefix sum of `counts[..t]`. Always sums to the
        /// associativity.
        counts: Vec<usize>,
        /// When the next boundary fires.
        pacer: EpochPacer,
    },
}

impl PartitionController {
    /// Builds the controller implementing `config.partition` for an
    /// `nthreads`-thread cache. With one thread every policy degenerates
    /// to [`PartitionController::Shared`] (partitioning is inert),
    /// preserving the single-thread golden contract.
    ///
    /// # Panics
    ///
    /// Panics on an infeasible configuration; see
    /// [`crate::RegisterCache::new_smt`].
    pub(crate) fn new(config: &RegCacheConfig, nthreads: usize) -> Self {
        let ways = config.ways;
        if nthreads <= 1 {
            return PartitionController::Shared;
        }
        if let Some(a) = config.epoch_adapt {
            assert!(
                config.partition.is_dynamic(),
                "epoch_adapt requires a dynamic partition"
            );
            assert!(
                a.min_cycles >= 1 && a.min_cycles <= a.max_cycles,
                "epoch_adapt needs 1 <= min_cycles <= max_cycles"
            );
        }
        match config.partition {
            CachePartition::Shared => PartitionController::Shared,
            CachePartition::WayPartition => {
                assert!(
                    ways.is_multiple_of(nthreads),
                    "WayPartition needs ways divisible by nthreads"
                );
                PartitionController::WayPartition {
                    ways_per_thread: ways / nthreads,
                }
            }
            CachePartition::OccupancyCap => {
                assert!(
                    config.entries >= nthreads,
                    "OccupancyCap needs at least one entry per thread"
                );
                PartitionController::OccupancyCap {
                    cap: config.entries / nthreads,
                }
            }
            CachePartition::DynamicCap {
                epoch_cycles,
                min_cap,
            } => {
                assert!(epoch_cycles >= 1, "DynamicCap needs a non-zero epoch");
                assert!(
                    config.entries >= nthreads,
                    "DynamicCap needs at least one entry per thread"
                );
                assert!(
                    min_cap * nthreads <= config.entries,
                    "DynamicCap min_cap x nthreads exceeds the cache"
                );
                // Initial quotas: the even OccupancyCap split, remainder to
                // the lower-numbered threads so the quotas sum to `entries`
                // exactly.
                let caps = (0..nthreads)
                    .map(|t| config.entries / nthreads + usize::from(t < config.entries % nthreads))
                    .collect();
                PartitionController::DynamicCap {
                    caps,
                    min_cap,
                    pacer: EpochPacer::new(epoch_cycles, config.epoch_adapt),
                }
            }
            CachePartition::DynamicWay { epoch_cycles } => {
                assert!(epoch_cycles >= 1, "DynamicWay needs a non-zero epoch");
                assert!(
                    ways.is_multiple_of(nthreads),
                    "DynamicWay needs ways divisible by nthreads"
                );
                PartitionController::DynamicWay {
                    counts: vec![ways / nthreads; nthreads],
                    pacer: EpochPacer::new(epoch_cycles, config.epoch_adapt),
                }
            }
        }
    }

    /// May `tid` place a new entry freely (into `victim_ways`)? `false`
    /// means the thread is at its occupancy quota: the cache falls back
    /// to evicting one of the thread's own entries in the target set,
    /// dropping the insertion if it has none there.
    #[inline]
    pub(crate) fn admit(&self, tid: usize, occupancy: &[usize]) -> bool {
        match self {
            PartitionController::OccupancyCap { cap } => occupancy[tid] < *cap,
            PartitionController::DynamicCap { caps, .. } => occupancy[tid] < caps[tid],
            _ => true,
        }
    }

    /// The candidate ways (relative to the set base) an admitted
    /// insertion by `tid` may fill or evict from, in a cache of `ways`
    /// ways.
    #[inline]
    pub(crate) fn victim_ways(&self, tid: usize, ways: usize) -> Range<usize> {
        match self {
            PartitionController::WayPartition { ways_per_thread: w } => tid * w..(tid + 1) * w,
            PartitionController::DynamicWay { counts, .. } => {
                let lo: usize = counts[..tid].iter().sum();
                lo..lo + counts[tid]
            }
            _ => 0..ways,
        }
    }

    /// The occupancy cap currently binding `tid`: the static
    /// [`CachePartition::OccupancyCap`] split or the current
    /// [`CachePartition::DynamicCap`] quota (`None` for way-partitioned
    /// and shared caches).
    pub fn cap(&self, tid: usize) -> Option<usize> {
        match self {
            PartitionController::OccupancyCap { cap } => Some(*cap),
            PartitionController::DynamicCap { caps, .. } => Some(caps[tid]),
            _ => None,
        }
    }

    /// The full dynamic entry-quota vector
    /// ([`CachePartition::DynamicCap`] only; always sums to the entry
    /// count).
    pub fn caps(&self) -> Option<&[usize]> {
        match self {
            PartitionController::DynamicCap { caps, .. } => Some(caps),
            _ => None,
        }
    }

    /// The per-thread way counts ([`CachePartition::DynamicWay`] only;
    /// always sums to the associativity, laid out as contiguous blocks
    /// in thread order).
    pub fn way_counts(&self) -> Option<&[usize]> {
        match self {
            PartitionController::DynamicWay { counts, .. } => Some(counts),
            _ => None,
        }
    }

    /// The thread owning `way` (in every set), when ways are owned at
    /// all ([`CachePartition::WayPartition`] and
    /// [`CachePartition::DynamicWay`]; `None` otherwise).
    pub fn way_owner(&self, way: usize) -> Option<usize> {
        match self {
            PartitionController::WayPartition { ways_per_thread } => Some(way / ways_per_thread),
            PartitionController::DynamicWay { counts, .. } => {
                let mut end = 0;
                counts.iter().position(|&c| {
                    end += c;
                    way < end
                })
            }
            _ => None,
        }
    }

    /// True when an epoch boundary must fire at cycle `now` (static
    /// controllers never fire).
    #[inline]
    pub(crate) fn epoch_due(&self, now: u64) -> bool {
        match self {
            PartitionController::DynamicCap { pacer, .. }
            | PartitionController::DynamicWay { pacer, .. } => pacer.due(now),
            _ => false,
        }
    }

    /// Closes an epoch: recomputes the quota state from the monitored
    /// utility curves and returns the plan for the cache to enforce.
    ///
    /// # Panics
    ///
    /// Panics on a static controller (the cache only closes epochs on
    /// dynamic ones).
    pub(crate) fn epoch_boundary(&mut self, cx: &EpochContext<'_>) -> EpochPlan {
        match self {
            PartitionController::DynamicCap {
                caps,
                min_cap,
                pacer,
            } => {
                // Quota floors guarantee feasibility: every thread keeps
                // at least `max(1, pinned entries)`, raised toward the
                // configured `min_cap` in thread order while budget
                // remains.
                let mut floors: Vec<usize> = cx.pinned.iter().map(|&p| p.max(1)).collect();
                let mut extra = cx.entries - floors.iter().sum::<usize>();
                for f in floors.iter_mut() {
                    let want = min_cap.saturating_sub(*f).min(extra);
                    *f += want;
                    extra -= want;
                }
                let new_caps = cx.monitor.repartition(cx.entries, &floors);
                caps.clone_from(&new_caps);
                pacer.advance(&new_caps);
                EpochPlan::Caps(new_caps)
            }
            PartitionController::DynamicWay { counts, pacer } => {
                // Way floors: every thread keeps at least one way, and
                // enough ways to hold its pinned entries in the fullest
                // set (pinned entries are confined to the thread's block
                // in every set, so `pinned_per_set_max[t] <= counts[t]`
                // and the floors always fit — by induction the counts
                // stay >= 1 and conserve the associativity at every
                // boundary).
                let floors: Vec<usize> = cx.pinned_per_set_max.iter().map(|&p| p.max(1)).collect();
                let new_counts = cx.monitor.repartition_ways(cx.ways, cx.sets, &floors);
                counts.clone_from(&new_counts);
                pacer.advance(&new_counts);
                EpochPlan::Ways(new_counts)
            }
            _ => panic!("static partitions never close an epoch"),
        }
    }

    /// Self-consistency of the quota state (quota sums, positivity).
    ///
    /// # Errors
    ///
    /// Returns `Err(description)` when the quota state is inconsistent.
    pub(crate) fn audit(&self, entries: usize, ways: usize) -> Result<(), String> {
        match self {
            PartitionController::DynamicCap { caps, .. } => {
                if caps.iter().sum::<usize>() != entries {
                    return Err(format!(
                        "dynamic caps {caps:?} do not sum to {entries} entries"
                    ));
                }
                if let Some(t) = caps.iter().position(|&c| c == 0) {
                    return Err(format!("thread {t} has a zero dynamic cap"));
                }
            }
            PartitionController::DynamicWay { counts, .. } => {
                if counts.iter().sum::<usize>() != ways {
                    return Err(format!(
                        "dynamic way counts {counts:?} do not sum to {ways} ways"
                    ));
                }
                if let Some(t) = counts.iter().position(|&c| c == 0) {
                    return Err(format!("thread {t} owns zero ways"));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Epoch pacing for the dynamic controllers: fixed-period (the
/// `now % epoch_cycles` gate) or [`EpochAdapt`]-driven variable-length
/// epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochPacer {
    /// The configured base period.
    base: u64,
    adapt: Option<EpochAdapt>,
    /// Current period (== `base` when not adapting).
    len: u64,
    /// Next boundary cycle (adaptive mode only).
    next: u64,
    /// The allocation installed at the previous boundary, for the
    /// agreement test.
    last_alloc: Option<Vec<usize>>,
}

impl EpochPacer {
    fn new(epoch_cycles: u64, adapt: Option<EpochAdapt>) -> Self {
        let len = match adapt {
            Some(a) => epoch_cycles.clamp(a.min_cycles, a.max_cycles),
            None => epoch_cycles,
        };
        Self {
            base: epoch_cycles,
            adapt,
            len,
            next: len,
            last_alloc: None,
        }
    }

    fn due(&self, now: u64) -> bool {
        match self.adapt {
            // Fixed period: never at cycle 0, then every `base`th cycle.
            None => now != 0 && now.is_multiple_of(self.base),
            Some(_) => now != 0 && now == self.next,
        }
    }

    /// Records the allocation a boundary installed and schedules the
    /// next boundary: agreement within the hysteresis band doubles the
    /// period, disagreement halves it, both clamped to `[min, max]`.
    fn advance(&mut self, alloc: &[usize]) {
        let Some(a) = self.adapt else {
            return;
        };
        let agreed = self
            .last_alloc
            .as_deref()
            .is_some_and(|prev| l1_distance(prev, alloc) <= a.band);
        self.len = if agreed {
            self.len.saturating_mul(2).clamp(a.min_cycles, a.max_cycles)
        } else {
            (self.len / 2).clamp(a.min_cycles, a.max_cycles)
        };
        self.last_alloc = Some(alloc.to_vec());
        self.next += self.len;
    }
}

fn l1_distance(a: &[usize], b: &[usize]) -> usize {
    a.iter().zip(b).map(|(&x, &y)| x.abs_diff(y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhysReg;

    fn cfg(partition: CachePartition) -> RegCacheConfig {
        let mut c = RegCacheConfig::use_based(16, 4);
        c.partition = partition;
        c
    }

    #[test]
    fn single_thread_always_gets_the_shared_controller() {
        let c = PartitionController::new(&cfg(CachePartition::OccupancyCap), 1);
        assert_eq!(c, PartitionController::Shared);
        assert!(c.admit(0, &[999]));
        assert_eq!(c.victim_ways(0, 4), 0..4);
        assert_eq!(c.cap(0), None);
        assert!(!c.epoch_due(128));
    }

    #[test]
    fn way_partition_controller_confines_and_names_owners() {
        let c = PartitionController::new(&cfg(CachePartition::WayPartition), 2);
        assert_eq!(c.victim_ways(0, 4), 0..2);
        assert_eq!(c.victim_ways(1, 4), 2..4);
        assert_eq!(c.way_owner(1), Some(0));
        assert_eq!(c.way_owner(2), Some(1));
        assert!(c.admit(0, &[16, 0]));
    }

    #[test]
    fn occupancy_cap_controller_admits_under_the_static_cap() {
        let c = PartitionController::new(&cfg(CachePartition::OccupancyCap), 2);
        assert!(c.admit(0, &[7, 0]));
        assert!(!c.admit(0, &[8, 0]));
        assert_eq!(c.cap(1), Some(8));
        assert_eq!(c.victim_ways(1, 4), 0..4);
    }

    #[test]
    fn dynamic_cap_controller_paces_fixed_epochs_like_the_modulo_gate() {
        let c = PartitionController::new(
            &cfg(CachePartition::DynamicCap {
                epoch_cycles: 64,
                min_cap: 1,
            }),
            2,
        );
        assert!(!c.epoch_due(0));
        assert!(!c.epoch_due(63));
        assert!(c.epoch_due(64));
        assert!(!c.epoch_due(65));
        assert!(c.epoch_due(128));
        assert_eq!(c.caps(), Some(&[8usize, 8][..]));
    }

    /// A monitor in which thread 0 shows reuse over `tags` hot tags
    /// (sampled set 0 of 4).
    fn reuse_monitor(tags: u16) -> UtilityMonitor {
        let mut m = UtilityMonitor::new(16, 2);
        for round in 0..3 {
            for p in 0..tags {
                if round == 0 {
                    m.touch(0, PhysReg(p), 0);
                } else {
                    m.access(0, PhysReg(p), 0);
                }
            }
        }
        m
    }

    #[test]
    fn dynamic_way_controller_reassigns_toward_reuse() {
        let config = cfg(CachePartition::DynamicWay { epoch_cycles: 64 });
        let mut c = PartitionController::new(&config, 2);
        assert_eq!(c.way_counts(), Some(&[2usize, 2][..]));
        let m = reuse_monitor(4);
        let cx = EpochContext {
            monitor: &m,
            pinned: &[0, 0],
            pinned_per_set_max: &[0, 0],
            entries: 16,
            ways: 4,
            sets: 4,
        };
        let plan = c.epoch_boundary(&cx);
        let EpochPlan::Ways(counts) = plan else {
            panic!("DynamicWay plans ways, got {plan:?}");
        };
        assert_eq!(counts.iter().sum::<usize>(), 4);
        assert!(counts[0] > counts[1], "reuse thread wins ways: {counts:?}");
        assert_eq!(c.way_counts(), Some(&counts[..]));
        assert_eq!(c.way_owner(0), Some(0));
        assert_eq!(c.way_owner(3), Some(1));
        assert_eq!(c.way_owner(4), None, "past the last block");
        assert_eq!(c.victim_ways(1, 4), counts[0]..4);
        c.audit(16, 4).unwrap();
    }

    #[test]
    fn way_floors_cover_pinned_entries() {
        let config = cfg(CachePartition::DynamicWay { epoch_cycles: 64 });
        let mut c = PartitionController::new(&config, 2);
        // Thread 1 pins two entries in one set; thread 0 shows reuse.
        let m = reuse_monitor(6);
        let cx = EpochContext {
            monitor: &m,
            pinned: &[0, 3],
            pinned_per_set_max: &[0, 2],
            entries: 16,
            ways: 4,
            sets: 4,
        };
        let EpochPlan::Ways(counts) = c.epoch_boundary(&cx) else {
            panic!("expected a way plan");
        };
        assert!(counts[1] >= 2, "floor must cover pins: {counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 4);
    }

    #[test]
    #[should_panic(expected = "static partitions never close an epoch")]
    fn static_controllers_never_close_an_epoch() {
        let mut c = PartitionController::new(&cfg(CachePartition::OccupancyCap), 2);
        let m = reuse_monitor(1);
        let _ = c.epoch_boundary(&EpochContext {
            monitor: &m,
            pinned: &[0, 0],
            pinned_per_set_max: &[0, 0],
            entries: 16,
            ways: 4,
            sets: 4,
        });
    }

    #[test]
    fn adaptive_pacer_lengthens_on_agreement_and_shortens_on_change() {
        let mut p = EpochPacer::new(
            64,
            Some(EpochAdapt {
                min_cycles: 16,
                max_cycles: 256,
                band: 1,
            }),
        );
        assert!(p.due(64), "first boundary at the base period");
        assert!(!p.due(63));
        // First boundary: no previous allocation, counts as
        // disagreement — the period halves to 32.
        p.advance(&[8, 8]);
        assert_eq!(p.len, 32);
        assert!(p.due(96));
        // Agreement within the band doubles, clamped at max.
        p.advance(&[8, 8]);
        assert_eq!(p.len, 64);
        p.advance(&[8, 7]);
        assert_eq!(p.len, 128);
        p.advance(&[8, 7]);
        p.advance(&[8, 7]);
        assert_eq!(p.len, 256, "clamped at max_cycles");
        // A phase change (outside the band) halves.
        p.advance(&[14, 2]);
        assert_eq!(p.len, 128);
        for i in 0..8 {
            // Keep flip-flopping so every boundary disagrees.
            p.advance(if i % 2 == 0 { &[2, 14] } else { &[14, 2] });
        }
        assert_eq!(p.len, 16, "clamped at min_cycles");
    }

    #[test]
    #[should_panic(expected = "epoch_adapt requires a dynamic partition")]
    fn epoch_adapt_rejects_static_partitions() {
        let mut c = cfg(CachePartition::WayPartition);
        c.epoch_adapt = Some(EpochAdapt::default_band());
        let _ = PartitionController::new(&c, 2);
    }

    #[test]
    #[should_panic(expected = "1 <= min_cycles <= max_cycles")]
    fn epoch_adapt_rejects_an_empty_range() {
        let mut c = cfg(CachePartition::DynamicWay { epoch_cycles: 64 });
        c.epoch_adapt = Some(EpochAdapt {
            min_cycles: 128,
            max_cycles: 64,
            band: 1,
        });
        let _ = PartitionController::new(&c, 2);
    }

    #[test]
    #[should_panic(expected = "DynamicWay needs ways divisible by nthreads")]
    fn dynamic_way_rejects_indivisible_ways() {
        let mut c = RegCacheConfig::use_based(9, 3);
        c.partition = CachePartition::DynamicWay { epoch_cycles: 64 };
        let _ = PartitionController::new(&c, 2);
    }

    #[test]
    fn controllers_clone_with_their_state() {
        let c = PartitionController::new(
            &cfg(CachePartition::DynamicCap {
                epoch_cycles: 64,
                min_cap: 2,
            }),
            4,
        );
        let d = c.clone();
        assert_eq!(c, d);
        assert_eq!(c.caps(), d.caps());
        assert_eq!(c.victim_ways(2, 4), d.victim_ways(2, 4));
    }
}
