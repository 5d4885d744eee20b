//! A fixed reference computation, timed next to every measured piece of
//! work, that tells how fast the host is running code like the
//! simulator's at that moment.
//!
//! On a shared host, other tenants' work on the sibling hyperthread and
//! in the shared caches slows every program, by up to 1.7x, for seconds
//! or minutes at a time. Steal time is already excluded from on-CPU time;
//! this slowdown is not. Scaling a cell's CPU time by how much slower
//! than [`NOMINAL_CHUNK_S`] the reference ran just before and just after
//! the cell, raised to [`SENSITIVITY`], cancels most of it. The
//! reference does not change with the simulator, so a faster simulator
//! still reads faster.

use crate::host::{cpu_timed, CpuTime};

/// Entries the cache-resident part of a chunk walks: the table's first
/// 16 KiB, which stay in a core's first-level cache.
const CORE_TABLE_LEN: u64 = 1 << 11;

/// Entries of the whole table, which the rest of a chunk walks: 4 MiB of
/// `u64`, larger than a core's private caches, as the simulator's 16 MiB
/// memories are.
const MEM_TABLE_LEN: u64 = 1 << 19;

/// Dependent steps per chunk over the table's first 16 KiB.
const CORE_STEPS: u32 = 240_000;

/// Dependent steps per chunk over the whole table.
const MEM_STEPS: u32 = 15_000;

/// CPU seconds one [`Yardstick::chunk`] takes on a quiet host: about
/// the fastest chunks seen on a 2-vCPU Intel Xeon VM in its quiet
/// periods. Normalised times are in seconds at that speed.
pub const NOMINAL_CHUNK_S: f64 = 2.9e-3;

/// How much more the simulator slows than the reference does, as an
/// exponent: regressing log cell time on log reference time over runs
/// of every cell under varying contention gave slopes of 1.1 to 1.5
/// (1.1 on soft-recovery, 1.2 on st-usebased and st-monolithic, 1.5 on
/// smt4-dynpart).
pub const SENSITIVITY: f64 = 1.25;

/// The reference computation and its table.
pub struct Yardstick {
    table: Vec<u64>,
    state: u64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Builds the table (the same contents on every run).
    pub fn new() -> Self {
        let table = (0..MEM_TABLE_LEN)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
            .collect();
        Self { table, state: 1 }
    }

    /// Runs one chunk of the reference and returns its CPU seconds.
    ///
    /// Each step loads a table entry at an address that depends on the
    /// previous load, takes a data-dependent branch and writes the entry
    /// back: the mix of dependent loads, mispredicted branches and
    /// integer work of a cycle-level simulator's inner loop. Most steps
    /// stay in the first-level cache; the rest miss the private caches.
    pub fn chunk(&mut self) -> f64 {
        let (state, cpu) = cpu_timed(|| {
            let s = self.walk(self.state, CORE_TABLE_LEN - 1, CORE_STEPS);
            self.walk(s, MEM_TABLE_LEN - 1, MEM_STEPS)
        });
        self.state = std::hint::black_box(state);
        cpu.total()
    }

    fn walk(&mut self, mut s: u64, mask: u64, steps: u32) -> u64 {
        for i in 0..steps {
            let slot = (s & mask) as usize;
            let v = self.table[slot];
            s = match v & 3 {
                0 => v.wrapping_mul(31).wrapping_add(u64::from(i)),
                1 => v.rotate_left(7) ^ s,
                _ => v.wrapping_add(s >> 3),
            };
            self.table[slot] = v ^ (s >> 11);
        }
        s
    }

    /// Runs `f` between two reference chunks and returns its result, its
    /// CPU time, and the mean CPU seconds of the two chunks.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, CpuTime, f64) {
        let before = self.chunk();
        let (out, cpu) = cpu_timed(f);
        let after = self.chunk();
        (out, cpu, (before + after) / 2.0)
    }
}

/// `cpu` seconds scaled to the host speed at which a reference chunk
/// takes [`NOMINAL_CHUNK_S`], given that chunks next to the work took
/// `reference` seconds on average.
pub fn normalise(cpu: f64, reference: f64) -> f64 {
    cpu * (NOMINAL_CHUNK_S / reference).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_takes_time_and_repeats_its_work() {
        let mut a = Yardstick::new();
        let mut b = Yardstick::new();
        assert!(a.chunk() > 0.0);
        b.chunk();
        assert_eq!(a.state, b.state);
    }

    #[test]
    fn normalising_at_nominal_speed_keeps_the_time() {
        assert_eq!(normalise(2.0, NOMINAL_CHUNK_S), 2.0);
        let slowed = normalise(2.0, 2.0 * NOMINAL_CHUNK_S);
        assert!((slowed - 2.0 * 0.5f64.powf(SENSITIVITY)).abs() < 1e-12);
    }
}
