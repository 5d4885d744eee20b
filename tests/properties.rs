//! Property-based tests over the core register-caching structures:
//! random operation sequences must preserve the cache's invariants, the
//! index assigners must stay in range and balanced, and randomly
//! generated synthetic programs must survive the whole stack.

use proptest::prelude::*;
use ubrc::core::{
    CachePartition, EpochAdapt, IndexAssigner, IndexPolicy, InsertionPolicy, PhysReg,
    RegCacheConfig, RegisterCache, ReplacementPolicy, UseTracker, WriteOutcome,
};

const NPREGS: usize = 48;

/// One legal-by-construction cache operation. The applier tracks
/// per-preg lifecycle so `produce`/`write`/`free` stay well-ordered.
#[derive(Clone, Copy, Debug)]
enum Op {
    Produce {
        preg: u8,
    },
    Write {
        preg: u8,
        remaining: u8,
        pinned: bool,
        bypasses: u8,
    },
    Read {
        preg: u8,
    },
    Free {
        preg: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NPREGS as u8).prop_map(|preg| Op::Produce { preg }),
        (0..NPREGS as u8, 0u8..8, any::<bool>(), 0u8..3).prop_map(
            |(preg, remaining, pinned, bypasses)| Op::Write {
                preg,
                remaining,
                pinned,
                bypasses
            }
        ),
        (0..NPREGS as u8).prop_map(|preg| Op::Read { preg }),
        (0..NPREGS as u8).prop_map(|preg| Op::Free { preg }),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Life {
    Free,
    Produced,
    Written,
}

/// Applies a raw op stream, skipping ops illegal in the current
/// lifecycle state, and checks invariants after every step.
fn exercise_cache(mut cache: RegisterCache, ops: &[Op]) {
    let sets = cache.config().sets() as u16;
    let mut life = [Life::Free; NPREGS];
    let mut set_of = [0u16; NPREGS];
    let mut now = 0u64;
    for (i, &op) in ops.iter().enumerate() {
        now += 1;
        match op {
            Op::Produce { preg } => {
                if life[preg as usize] == Life::Free {
                    cache.produce(PhysReg(preg as u16));
                    set_of[preg as usize] = preg as u16 % sets;
                    life[preg as usize] = Life::Produced;
                }
            }
            Op::Write {
                preg,
                remaining,
                pinned,
                bypasses,
            } => {
                if life[preg as usize] == Life::Produced {
                    let out = cache.write(
                        PhysReg(preg as u16),
                        set_of[preg as usize],
                        remaining,
                        pinned,
                        bypasses as u32,
                        now,
                    );
                    if out == WriteOutcome::Inserted {
                        assert!(cache.contains(PhysReg(preg as u16)));
                    }
                    life[preg as usize] = Life::Written;
                }
            }
            Op::Read { preg } => {
                if life[preg as usize] == Life::Written {
                    let before = cache.remaining_uses(PhysReg(preg as u16));
                    let hit = cache.read(PhysReg(preg as u16), set_of[preg as usize], now);
                    if !hit {
                        cache.fill(PhysReg(preg as u16), set_of[preg as usize], now);
                        assert!(
                            cache.contains(PhysReg(preg as u16)),
                            "fill after miss must install the value (op {i})"
                        );
                    } else if let (Some(b), Some(a)) =
                        (before, cache.remaining_uses(PhysReg(preg as u16)))
                    {
                        let pinned = cache.is_pinned(PhysReg(preg as u16)).unwrap();
                        if pinned {
                            assert_eq!(a, b, "pinned counters must not decrement");
                        } else {
                            assert_eq!(a, b.saturating_sub(1), "hits decrement the counter");
                        }
                    }
                }
            }
            Op::Free { preg } => {
                if life[preg as usize] != Life::Free {
                    cache.free(PhysReg(preg as u16), set_of[preg as usize], now);
                    assert!(
                        !cache.contains(PhysReg(preg as u16)),
                        "freed values must be invalidated (op {i})"
                    );
                    life[preg as usize] = Life::Free;
                }
            }
        }
        // Global invariants.
        assert!(cache.occupancy() <= cache.config().entries);
        let s = cache.stats();
        assert_eq!(s.reads, s.read_hits + s.read_misses);
        assert_eq!(s.writes_attempted, s.writes_inserted + s.writes_filtered);
        assert!(s.evictions_zero_use <= s.evictions);
        if cache.config().classify_misses {
            assert_eq!(
                s.read_misses,
                s.misses_not_written + s.misses_capacity + s.misses_conflict
            );
        }
    }
}

/// Applies one op stream to `a` alone up to op `clone_at`, clones it
/// there, then drives the original and the clone in lockstep through
/// the rest, asserting every externally visible decision (insertion
/// outcome, read hit/miss, occupancy, epoch feedback) matches at every
/// step. Epoch boundaries fire whenever the cache reports one due, so
/// dynamic partitions repartition on both sides of the clone point.
/// Returns the original and the clone (a clone at the end of the
/// stream when `clone_at >= ops.len()`).
fn exercise_lockstep(
    mut a: RegisterCache,
    ops: &[Op],
    clone_at: usize,
) -> (RegisterCache, RegisterCache) {
    let sets = a.config().sets() as u16;
    let mut life = [Life::Free; NPREGS];
    let mut set_of = [0u16; NPREGS];
    let mut now = 0u64;
    let mut b: Option<RegisterCache> = None;
    for (i, &op) in ops.iter().enumerate() {
        if i == clone_at {
            b = Some(a.clone());
        }
        now += 1;
        match op {
            Op::Produce { preg } => {
                if life[preg as usize] == Life::Free {
                    a.produce(PhysReg(preg as u16));
                    if let Some(b) = &mut b {
                        b.produce(PhysReg(preg as u16));
                    }
                    set_of[preg as usize] = preg as u16 % sets;
                    life[preg as usize] = Life::Produced;
                }
            }
            Op::Write {
                preg,
                remaining,
                pinned,
                bypasses,
            } => {
                if life[preg as usize] == Life::Produced {
                    let p = PhysReg(preg as u16);
                    let set = set_of[preg as usize];
                    let oa = a.write(p, set, remaining, pinned, bypasses as u32, now);
                    if let Some(b) = &mut b {
                        let ob = b.write(p, set, remaining, pinned, bypasses as u32, now);
                        assert_eq!(oa, ob, "insertion decision diverged at op {i}");
                    }
                    life[preg as usize] = Life::Written;
                }
            }
            Op::Read { preg } => {
                if life[preg as usize] == Life::Written {
                    let p = PhysReg(preg as u16);
                    let set = set_of[preg as usize];
                    let ha = a.read(p, set, now);
                    if !ha {
                        a.fill(p, set, now);
                    }
                    if let Some(b) = &mut b {
                        let hb = b.read(p, set, now);
                        assert_eq!(ha, hb, "hit/miss (replacement victim) diverged at op {i}");
                        if !hb {
                            b.fill(p, set, now);
                        }
                    }
                }
            }
            Op::Free { preg } => {
                if life[preg as usize] != Life::Free {
                    a.free(PhysReg(preg as u16), set_of[preg as usize], now);
                    if let Some(b) = &mut b {
                        b.free(PhysReg(preg as u16), set_of[preg as usize], now);
                    }
                    life[preg as usize] = Life::Free;
                }
            }
        }
        if a.epoch_due(now) {
            let fa = a.epoch_boundary(now);
            if let Some(b) = &mut b {
                assert!(b.epoch_due(now), "epoch pacing diverged at op {i}");
                assert_eq!(
                    fa,
                    b.epoch_boundary(now),
                    "epoch feedback diverged at op {i}"
                );
            }
        }
        if let Some(b) = &b {
            assert_eq!(a.occupancy(), b.occupancy(), "occupancy diverged at op {i}");
            assert_eq!(
                a.partition(),
                b.partition(),
                "partition state diverged at op {i}"
            );
        }
    }
    let b = b.unwrap_or_else(|| a.clone());
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A cloned cache is an exact fork: cloned at a random point of a
    /// random op stream, the original and the clone make identical
    /// decisions through the rest of it, across every insertion ×
    /// replacement × partition combination. This covers all per-run
    /// policy state — adaptive use thresholds, dynamic quotas and way
    /// maps, the (adaptive) epoch pacer, and the utility monitors. The
    /// 8-entry cache and 16-cycle epochs keep threads at their quotas
    /// often enough that the adaptive thresholds actually move.
    #[test]
    fn cloned_cache_decides_in_lockstep_with_the_original(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        clone_frac in 0.0f64..1.0,
    ) {
        let clone_at = (clone_frac * ops.len() as f64) as usize;
        for insertion in [
            InsertionPolicy::WriteAll,
            InsertionPolicy::NonBypass,
            InsertionPolicy::UseBased,
            InsertionPolicy::AdaptiveUseThreshold,
        ] {
            for replacement in [
                ReplacementPolicy::Lru,
                ReplacementPolicy::FewestUses,
                ReplacementPolicy::ExpectedHitCount,
            ] {
                for (nthreads, partition, epoch_adapt) in [
                    (1, CachePartition::Shared, None),
                    (2, CachePartition::Shared, None),
                    (2, CachePartition::WayPartition, None),
                    (2, CachePartition::OccupancyCap, None),
                    (2, CachePartition::DynamicCap { epoch_cycles: 16, min_cap: 2 }, None),
                    (2, CachePartition::DynamicWay { epoch_cycles: 16 }, None),
                    (
                        2,
                        CachePartition::DynamicWay { epoch_cycles: 16 },
                        Some(EpochAdapt { min_cycles: 8, max_cycles: 64, band: 1 }),
                    ),
                ] {
                    let config = RegCacheConfig {
                        insertion,
                        replacement,
                        partition,
                        epoch_adapt,
                        ..RegCacheConfig::use_based(8, 4)
                    };
                    let cache = RegisterCache::new_smt(config, NPREGS, nthreads);
                    let (original, clone) = exercise_lockstep(cache, &ops, clone_at);
                    prop_assert_eq!(
                        format!("{:?}", original.stats()),
                        format!("{:?}", clone.stats()),
                        "statistics diverged between the original and its clone ({:?})",
                        config
                    );
                }
            }
        }
    }

    #[test]
    fn register_cache_invariants_hold_under_random_ops(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        ways in prop_oneof![Just(1usize), Just(2), Just(4), Just(16)],
        use_based in any::<bool>(),
    ) {
        let mut config = if use_based {
            RegCacheConfig::use_based(16, ways)
        } else {
            RegCacheConfig::lru(16, ways)
        };
        config.classify_misses = true;
        exercise_cache(RegisterCache::new(config, NPREGS), &ops);
    }

    #[test]
    fn fully_associative_cache_never_reports_conflicts(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let mut config = RegCacheConfig::use_based(8, 8);
        config.classify_misses = true;
        let mut cache = RegisterCache::new(config, NPREGS);
        // Use set 0 for everything (fully associative).
        let mut life = [Life::Free; NPREGS];
        let mut now = 0;
        for &op in &ops {
            now += 1;
            match op {
                Op::Produce { preg } if life[preg as usize] == Life::Free => {
                    cache.produce(PhysReg(preg as u16));
                    life[preg as usize] = Life::Produced;
                }
                Op::Write { preg, remaining, pinned, bypasses }
                    if life[preg as usize] == Life::Produced =>
                {
                    cache.write(PhysReg(preg as u16), 0, remaining, pinned, bypasses as u32, now);
                    life[preg as usize] = Life::Written;
                }
                Op::Read { preg } if life[preg as usize] == Life::Written
                    && !cache.read(PhysReg(preg as u16), 0, now) => {
                        cache.fill(PhysReg(preg as u16), 0, now);
                    }
                Op::Free { preg } if life[preg as usize] != Life::Free => {
                    cache.free(PhysReg(preg as u16), 0, now);
                    life[preg as usize] = Life::Free;
                }
                _ => {}
            }
        }
        prop_assert_eq!(cache.stats().misses_conflict, 0);
    }

    #[test]
    fn index_assigner_stays_in_range_and_balanced(
        policy in prop_oneof![
            Just(IndexPolicy::Standard),
            Just(IndexPolicy::RoundRobin),
            Just(IndexPolicy::Minimum),
            Just(IndexPolicy::FilteredRoundRobin),
        ],
        sets in 1usize..40,
        ways in 1usize..5,
        uses in proptest::collection::vec(0u8..16, 1..200),
    ) {
        let mut a = IndexAssigner::new(policy, sets, ways);
        let mut assigned: Vec<(u16, u8)> = Vec::new();
        for (i, &u) in uses.iter().enumerate() {
            let set = a.assign(PhysReg(i as u16), u);
            prop_assert!((set as usize) < sets, "set {set} out of range");
            assigned.push((set, u));
        }
        // Releasing everything must never panic or underflow, in any
        // order.
        assigned.reverse();
        for (set, u) in assigned {
            a.release(set, u);
        }
        // After a full drain, new assignments still work.
        let s = a.assign(PhysReg(500), 1);
        prop_assert!((s as usize) < sets);
    }

    #[test]
    fn use_tracker_counts_are_bounded(
        degree in proptest::option::of(0u8..20),
        consumes in 0usize..30,
        unknown in 0u8..4,
        max in 1u8..16,
    ) {
        let mut t = UseTracker::new(8);
        t.init(PhysReg(0), degree, unknown, max);
        let initial = t.remaining(PhysReg(0));
        prop_assert!(initial <= max);
        for _ in 0..consumes {
            t.consume(PhysReg(0));
        }
        let rem = t.remaining(PhysReg(0));
        if t.is_pinned(PhysReg(0)) {
            prop_assert_eq!(rem, initial, "pinned counters never move");
        } else {
            prop_assert_eq!(rem, initial.saturating_sub(consumes as u8));
        }
    }

    #[test]
    fn timing_simulation_is_bounded_and_complete_on_random_programs(
        seed in any::<u64>(),
        storage_pick in 0usize..3,
    ) {
        use ubrc::sim::{simulate_workload, RegStorage, SimConfig};
        use ubrc::workloads::synthetic::SyntheticSpec;
        let spec = SyntheticSpec {
            blocks: 12,
            block_len: 24,
            ..SyntheticSpec::single_use_heavy(seed)
        };
        let w = spec.build();
        let machine = w.run_checks().expect("runs functionally");
        let cfg = match storage_pick {
            0 => SimConfig::paper_default(),
            1 => SimConfig::table1(RegStorage::Monolithic {
                read_latency: 3,
                write_latency: 3,
            }),
            _ => SimConfig::table1(RegStorage::TwoLevel(
                ubrc::core::TwoLevelConfig::optimistic(96),
            )),
        };
        let r = simulate_workload(&w, cfg);
        // Completeness: the pipeline retires the exact dynamic stream.
        prop_assert_eq!(r.retired, machine.instruction_count());
        // Work conservation: never faster than the machine width...
        prop_assert!(r.cycles >= r.retired / 8);
        // ...and never pathologically slow (every instruction could at
        // worst take a full mispredict loop plus a memory miss).
        prop_assert!(r.cycles < r.retired * 250 + 10_000);
    }

    #[test]
    fn synthetic_specs_always_produce_runnable_programs(
        seed in any::<u64>(),
        blocks in 1usize..20,
        block_len in 1usize..60,
        mem_fraction in 0.0f64..0.5,
        branch_fraction in 0.0f64..0.3,
    ) {
        use ubrc::workloads::synthetic::SyntheticSpec;
        let spec = SyntheticSpec {
            blocks,
            block_len,
            degree_weights: vec![(0, 0.1), (1, 0.5), (2, 0.2), (7, 0.2)],
            mem_fraction,
            branch_fraction,
            seed,
        };
        let w = spec.build();
        let machine = w.run_checks().expect("generated program must run to halt");
        prop_assert!(machine.is_halted());
    }
}
