//! Layer replays: the functional `ExecRecord` stream of a workload's own
//! programs, fed to one layer's public API at a time, so each layer's
//! throughput is measured without the rest of the pipeline around it.
//!
//! The streams are correct-path only and carry no timing, so every
//! replay runs on a nominal clock of one instruction per cycle. The
//! replays measure how fast a layer does its work; the rates of that
//! work (hit ratios, mispredictions) come from the simulator's own
//! counters, which see the same layers under real timing.

use std::collections::VecDeque;
use ubrc_core::{BackingFile, IndexAssigner, PhysReg, RegCacheConfig, RegisterCache};
use ubrc_emu::{ExecRecord, Machine, StepOutcome};
use ubrc_frontend::{
    CascadingIndirect, DegreeOfUsePredictor, GlobalHistory, ReturnAddressStack, Yags,
};
use ubrc_isa::{Inst, Program, NUM_ARCH_REGS};
use ubrc_memsys::{MemSys, MemSysConfig};
use ubrc_sim::{RegStorage, SimConfig};

const NREGS: usize = NUM_ARCH_REGS as usize;

/// Runs `program` to halt and returns its dynamic instruction stream.
///
/// # Errors
///
/// Returns the emulator's error if the program faults.
pub fn record_stream(program: Program, max_steps: u64) -> Result<Vec<ExecRecord>, String> {
    let mut m = Machine::new(program);
    let mut out = Vec::new();
    while (out.len() as u64) < max_steps {
        match m.step().map_err(|e| e.to_string())? {
            StepOutcome::Executed(r) => out.push(r),
            StepOutcome::Halted => break,
        }
    }
    Ok(out)
}

/// Annotates each record with the number of later instructions that
/// read the value it produces before its architectural register is
/// overwritten (0 for instructions that produce nothing).
fn degrees_of_use(records: &[ExecRecord]) -> Vec<u32> {
    let mut degrees = vec![0u32; records.len()];
    let mut producer: [Option<usize>; NREGS] = [None; NREGS];
    for (i, rec) in records.iter().enumerate() {
        for src in rec.inst.sources().into_iter().flatten() {
            if let Some(p) = producer[src.index() as usize] {
                degrees[p] += 1;
            }
        }
        if let Some(d) = rec.inst.dest() {
            producer[d.index() as usize] = Some(i);
        }
    }
    degrees
}

/// Front-end predictor replay: the YAGS direction predictor, the
/// cascading indirect predictor and the return-address stack at every
/// control instruction, and the degree-of-use predictor at every
/// produced value (a prediction at rename, training with the actual
/// consumer count when the architectural register is overwritten), as
/// the fetch, rename and retire stages drive them. Returns the number
/// of predictor calls made.
pub fn frontend(records: &[ExecRecord]) -> u64 {
    let mut yags = Yags::default();
    let mut indirect = CascadingIndirect::default();
    let mut ras = ReturnAddressStack::default();
    let mut douse = DegreeOfUsePredictor::default();
    let mut hist = GlobalHistory::new();
    // Per architectural register: the live value's producer PC, the
    // history it was predicted under, and its consumers so far.
    let mut live: [Option<(u64, GlobalHistory, u32)>; NREGS] = [None; NREGS];
    let mut calls = 0u64;
    for rec in records {
        for src in rec.inst.sources().into_iter().flatten() {
            if let Some(v) = &mut live[src.index() as usize] {
                v.2 += 1;
            }
        }
        match rec.inst {
            Inst::Branch { .. } => {
                let pred = yags.predict(rec.pc, hist);
                yags.update(rec.pc, hist, rec.taken, pred);
                hist.push(rec.taken);
                calls += 2;
            }
            Inst::Jump { link: true, .. } => {
                ras.push(rec.pc + 4);
                calls += 1;
            }
            Inst::JumpReg { .. } => {
                let predicted = if rec.inst.is_return() {
                    ras.pop()
                } else {
                    indirect.predict(rec.pc, hist)
                };
                std::hint::black_box(predicted);
                indirect.update(rec.pc, hist, rec.next_pc);
                calls += 2;
                if rec.inst.is_call() {
                    ras.push(rec.pc + 4);
                    calls += 1;
                }
            }
            _ => {}
        }
        if let Some(d) = rec.inst.dest() {
            let slot = &mut live[d.index() as usize];
            if let Some((pc, h, uses)) = slot.take() {
                douse.train(pc, h, uses.min(u8::MAX as u32) as u8);
                calls += 1;
            }
            std::hint::black_box(douse.predict(rec.pc, hist));
            calls += 1;
            *slot = Some((rec.pc, hist, 0));
        }
    }
    std::hint::black_box(douse.stats());
    calls
}

/// Memory-hierarchy replay: an instruction fetch at every new I-cache
/// line, a load access at every load, and a store-buffer retirement at
/// every store (stalling the nominal clock while the buffer is full).
/// Returns the number of `MemSys` calls made.
pub fn memsys(records: &[ExecRecord], config: MemSysConfig) -> u64 {
    let mut ms = MemSys::new(config);
    let line_bytes = config.l1.line_bytes as u64;
    let mut line = None;
    let mut now = 0u64;
    let mut calls = 0u64;
    for rec in records {
        now += 1;
        let this_line = rec.pc / line_bytes;
        if line != Some(this_line) {
            std::hint::black_box(ms.fetch_latency(rec.pc));
            line = Some(this_line);
            calls += 1;
        }
        if let Some(addr) = rec.mem_addr {
            if rec.inst.is_load() {
                std::hint::black_box(ms.load_latency(addr, now));
                calls += 1;
            } else if rec.inst.is_store() {
                calls += 1;
                while !ms.store_retire(addr, now) {
                    now += 1;
                    calls += 1;
                }
            }
        }
    }
    std::hint::black_box(ms.stats());
    calls
}

/// The register-dataflow part of one record, as the core replay needs it.
#[derive(Clone, Copy, Debug)]
pub struct DataflowOp {
    srcs: [Option<u8>; 2],
    dest: Option<u8>,
    degree: u8,
}

/// Reduces a record stream to its register dataflow, with each produced
/// value's actual degree of use (see [`degrees_of_use`]).
pub fn dataflow(records: &[ExecRecord]) -> Vec<DataflowOp> {
    let degrees = degrees_of_use(records);
    records
        .iter()
        .zip(degrees)
        .map(|(rec, degree)| DataflowOp {
            srcs: rec.inst.sources().map(|r| r.map(|r| r.index())),
            dest: rec.inst.dest().map(|r| r.index()),
            degree: degree.min(u8::MAX as u32) as u8,
        })
        .collect()
}

/// The register cache a simulator configuration uses, with its index
/// policy and backing-file latencies, or `None` for storage without one.
fn cache_setup(config: &SimConfig) -> Option<(RegCacheConfig, ubrc_core::IndexPolicy, u32, u32)> {
    match &config.storage {
        RegStorage::Cached {
            cache,
            index,
            backing_read,
            backing_write,
        } => Some((*cache, *index, *backing_read, *backing_write)),
        _ => None,
    }
}

/// Register-cache replay of one cell: the members' dataflow streams
/// interleaved one instruction per thread per cycle, renamed onto each
/// thread's share of the physical registers, and driven through
/// `RegisterCache::{produce, write, read, fill, free}`, the backing
/// file's `write`/`read` on misses, the index assigner, and the epoch
/// boundaries of a dynamic partition. Degrees of use are the actual
/// ones (a perfect predictor). Returns the number of calls made into
/// `ubrc-core`; 0 when the configuration has no register cache.
pub fn core(streams: &[&[DataflowOp]], config: &SimConfig) -> u64 {
    let Some((cfg, policy, backing_read, backing_write)) = cache_setup(config) else {
        return 0;
    };
    let nthreads = streams.len();
    let npregs = config.phys_regs;
    let share = npregs / nthreads;
    let mut cache = RegisterCache::new_smt(cfg, npregs, nthreads);
    let mut backing = BackingFile::with_read_ports(
        backing_read,
        backing_write,
        npregs,
        config.backing_read_ports,
    );
    let mut assigner = IndexAssigner::new(policy, cfg.sets(), cfg.ways);
    if let Some((degree, skip)) = config.filter_params {
        assigner.set_filter_params(degree, skip);
    }
    // Per physical register: its cache set and predicted degree.
    let mut placed: Vec<(u16, u8)> = vec![(0, 0); npregs];
    let mut maps: Vec<[Option<u16>; NREGS]> = vec![[None; NREGS]; nthreads];
    let mut free: Vec<VecDeque<u16>> = (0..nthreads)
        .map(|t| ((t * share) as u16..((t + 1) * share) as u16).collect())
        .collect();
    let mut calls = 0u64;
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..longest {
        let now = i as u64 + 1;
        for (t, stream) in streams.iter().enumerate() {
            let Some(op) = stream.get(i) else { continue };
            for src in op.srcs.into_iter().flatten() {
                let Some(p) = maps[t][src as usize] else {
                    continue;
                };
                let set = placed[p as usize].0;
                calls += 1;
                if !cache.read(PhysReg(p), set, now) {
                    std::hint::black_box(backing.read(PhysReg(p), now));
                    cache.fill(PhysReg(p), set, now);
                    calls += 2;
                }
            }
            if let Some(d) = op.dest {
                let p = free[t]
                    .pop_front()
                    .expect("a thread owns more registers than names");
                let degree = op.degree.min(cfg.max_use_count);
                let pinned = op.degree >= cfg.max_use_count;
                let set = assigner.assign(PhysReg(p), degree);
                placed[p as usize] = (set, degree);
                cache.produce(PhysReg(p));
                std::hint::black_box(cache.write(PhysReg(p), set, degree, pinned, 0, now));
                backing.write(PhysReg(p), now);
                calls += 4;
                if let Some(old) = maps[t][d as usize].replace(p) {
                    let (old_set, old_degree) = placed[old as usize];
                    cache.free(PhysReg(old), old_set, now);
                    assigner.release(old_set, old_degree);
                    free[t].push_back(old);
                    calls += 2;
                }
            }
        }
        if cache.epoch_due(now) {
            std::hint::black_box(cache.epoch_boundary(now));
            calls += 1;
        }
    }
    std::hint::black_box(cache.stats());
    calls
}
