//! The seeded churn program: thousands of GPU API calls over a live set of
//! hundreds of small objects, with real address reuse.
//!
//! [`ChurnProgram::generate`] draws the operation list from a seed and runs
//! a host model alongside it, so every expected result (read-back
//! checksums, peak bytes, objects live at exit) is known before the program
//! runs. [`ChurnProgram::replay`] issues the operations against a device
//! context and checks each read-back against the model.

use gpu_sim::{DeviceContext, DevicePtr, LaunchConfig, SimError, SourceLoc, SplitMix64, StreamId};

/// Number of operations (one GPU API call each) in a generated program.
pub const OPS: usize = 6_000;
/// The live-set size the generator steers towards.
pub const TARGET_LIVE: usize = 300;
/// Smallest and largest object, in 4-byte words.
const MIN_WORDS: u32 = 16;
const MAX_WORDS: u32 = 512;
/// Distinct allocation sites (host call paths).
const SITES: u32 = 24;

/// One GPU API call of the churn program. Objects are named by slot; a
/// slot is reused after its object is freed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `cudaMalloc` of `words` 4-byte words into `slot`, from call site `site`.
    Alloc { slot: usize, words: u32, site: u32 },
    /// `cudaFree` of the object in `slot`.
    Free { slot: usize },
    /// `cudaMemset` of the whole object with `byte`.
    Memset { slot: usize, byte: u8 },
    /// Host-to-device copy of `data` over the whole object.
    Upload { slot: usize, data: Vec<u32> },
    /// Device-to-host copy of the whole object; its FNV-1a checksum must
    /// equal `expect`.
    Download { slot: usize, expect: u64 },
    /// A short kernel: `dst[i] = src[i % len(src)] * 3 + 1` over all of `dst`.
    Touch { src: usize, dst: usize },
}

/// A generated program plus the results its host model predicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnProgram {
    /// The operations, in issue order.
    pub ops: Vec<Op>,
    /// Number of slots ever used.
    pub slots: usize,
    /// Largest sum of live requested bytes (the allocator's peak).
    pub peak_bytes: u64,
    /// Objects still live when the program ends (reported as leaks).
    pub live_at_exit: usize,
}

/// Outcome of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Downloads whose checksum disagreed with the host model.
    pub mismatches: u64,
    /// Allocator peak after the run.
    pub peak_bytes: u64,
    /// Live allocations after the run.
    pub live: usize,
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One object of the host model.
struct Slot {
    words: Vec<u32>,
    initialized: bool,
}

impl ChurnProgram {
    /// Draws a program from `seed`. The same seed always yields the same
    /// program.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut model: Vec<Option<Slot>> = Vec::new();
        let mut free_slots: Vec<usize> = Vec::new();
        let mut live: Vec<usize> = Vec::new();
        let mut in_use: u64 = 0;
        let mut peak: u64 = 0;
        let mut ops = Vec::with_capacity(OPS);
        while ops.len() < OPS {
            let roll = rng.next_below(100);
            let pressure = live.len() * 100 / TARGET_LIVE;
            // Allocation share falls and free share rises as the live set
            // grows past its target, which keeps it near TARGET_LIVE.
            let alloc_cut = if pressure < 100 { 34 } else { 20 };
            if live.is_empty() || roll < alloc_cut {
                let words = MIN_WORDS + rng.next_below(u64::from(MAX_WORDS - MIN_WORDS + 1)) as u32;
                let site = rng.next_below(u64::from(SITES)) as u32;
                let slot = free_slots.pop().unwrap_or_else(|| {
                    model.push(None);
                    model.len() - 1
                });
                model[slot] = Some(Slot {
                    words: vec![0; words as usize],
                    initialized: false,
                });
                live.push(slot);
                in_use += u64::from(words) * 4;
                peak = peak.max(in_use);
                ops.push(Op::Alloc { slot, words, site });
                continue;
            }
            let pick = live[rng.next_below(live.len() as u64) as usize];
            if roll < 60 {
                let idx = live
                    .iter()
                    .position(|&s| s == pick)
                    .expect("picked from live");
                live.swap_remove(idx);
                let slot = model[pick].take().expect("live slot is modelled");
                in_use -= slot.words.len() as u64 * 4;
                free_slots.push(pick);
                ops.push(Op::Free { slot: pick });
                continue;
            }
            let obj = model[pick].as_mut().expect("live slot is modelled");
            if roll < 72 {
                let byte = rng.next_below(256) as u8;
                obj.words.fill(u32::from_le_bytes([byte; 4]));
                obj.initialized = true;
                ops.push(Op::Memset { slot: pick, byte });
            } else if roll < 82 {
                let data: Vec<u32> = (0..obj.words.len())
                    .map(|_| rng.next_u64() as u32)
                    .collect();
                obj.words.copy_from_slice(&data);
                obj.initialized = true;
                ops.push(Op::Upload { slot: pick, data });
            } else if roll < 90 {
                if obj.initialized {
                    ops.push(Op::Download {
                        slot: pick,
                        expect: fnv1a(&obj.words),
                    });
                }
            } else {
                let src = live[rng.next_below(live.len() as u64) as usize];
                let src_ready = model[src].as_ref().is_some_and(|s| s.initialized);
                if src != pick && src_ready {
                    let src_words = model[src].as_ref().expect("live").words.clone();
                    let dst = model[pick].as_mut().expect("live");
                    for (i, w) in dst.words.iter_mut().enumerate() {
                        *w = src_words[i % src_words.len()]
                            .wrapping_mul(3)
                            .wrapping_add(1);
                    }
                    dst.initialized = true;
                    ops.push(Op::Touch { src, dst: pick });
                }
            }
        }
        ChurnProgram {
            ops,
            slots: model.len(),
            peak_bytes: peak,
            live_at_exit: live.len(),
        }
    }

    /// Issues the program against `ctx`, checking every download against
    /// the host model.
    ///
    /// # Errors
    ///
    /// Propagates any simulator error; a correct program raises none.
    pub fn replay(&self, ctx: &mut DeviceContext) -> Result<ReplayOutcome, SimError> {
        let mut ptrs: Vec<Option<(DevicePtr, u32)>> = vec![None; self.slots];
        let mut mismatches = 0;
        let mut host: Vec<u32> = Vec::new();
        for op in &self.ops {
            match op {
                Op::Alloc { slot, words, site } => {
                    ctx.push_frame(site_loc(*site));
                    let ptr = ctx.malloc(u64::from(*words) * 4, format!("obj{slot}"));
                    ctx.pop_frame();
                    ptrs[*slot] = Some((ptr?, *words));
                }
                Op::Free { slot } => {
                    let (ptr, _) = ptrs[*slot].take().expect("generator frees live slots");
                    ctx.free(ptr)?;
                }
                Op::Memset { slot, byte } => {
                    let (ptr, words) = live(&ptrs, *slot);
                    ctx.memset(ptr, *byte, u64::from(words) * 4)?;
                }
                Op::Upload { slot, data } => {
                    let (ptr, _) = live(&ptrs, *slot);
                    ctx.h2d_u32(ptr, data)?;
                }
                Op::Download { slot, expect } => {
                    let (ptr, words) = live(&ptrs, *slot);
                    host.resize(words as usize, 0);
                    ctx.d2h_u32(&mut host, ptr)?;
                    if fnv1a(&host) != *expect {
                        mismatches += 1;
                    }
                }
                Op::Touch { src, dst } => {
                    let (src, src_words) = live(&ptrs, *src);
                    let (dst, dst_words) = live(&ptrs, *dst);
                    let n = u64::from(dst_words);
                    let ns = u64::from(src_words);
                    ctx.launch(
                        "churn_touch",
                        LaunchConfig::cover(n, 128)?,
                        StreamId::DEFAULT,
                        move |t| {
                            let i = t.global_x();
                            if i < n {
                                let v = t.load_u32(src + (i % ns) * 4);
                                t.store_u32(dst + i * 4, v.wrapping_mul(3).wrapping_add(1));
                            }
                        },
                    )?;
                }
            }
        }
        let stats = ctx.allocator().stats();
        Ok(ReplayOutcome {
            mismatches,
            peak_bytes: stats.peak_bytes,
            live: stats.live_allocations,
        })
    }
}

fn live(ptrs: &[Option<(DevicePtr, u32)>], slot: usize) -> (DevicePtr, u32) {
    ptrs[slot].expect("generator only names live slots")
}

fn site_loc(site: u32) -> SourceLoc {
    SourceLoc::new(format!("churn_site_{site}"), "churn.cu", 100 + site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{PlatformConfig, SimConfig};

    #[test]
    fn same_seed_same_program() {
        assert_eq!(ChurnProgram::generate(7), ChurnProgram::generate(7));
        assert_ne!(ChurnProgram::generate(7).ops, ChurnProgram::generate(8).ops);
    }

    #[test]
    fn never_frees_or_touches_a_dead_slot_and_fits_the_device() {
        let capacity = PlatformConfig::rtx3090().device_memory_bytes;
        for seed in 0..20 {
            let p = ChurnProgram::generate(seed);
            assert_eq!(p.ops.len(), OPS);
            let mut alive = vec![false; p.slots];
            let mut allocs = 0;
            for op in &p.ops {
                match op {
                    Op::Alloc { slot, .. } => {
                        assert!(
                            !alive[*slot],
                            "seed {seed}: slot {slot} reallocated while live"
                        );
                        alive[*slot] = true;
                        allocs += 1;
                    }
                    Op::Free { slot } => {
                        assert!(alive[*slot], "seed {seed}: dead slot {slot} freed");
                        alive[*slot] = false;
                    }
                    Op::Memset { slot, .. }
                    | Op::Upload { slot, .. }
                    | Op::Download { slot, .. } => {
                        assert!(alive[*slot], "seed {seed}: dead slot {slot} used");
                    }
                    Op::Touch { src, dst } => {
                        assert!(alive[*src] && alive[*dst] && src != dst);
                    }
                }
            }
            assert_eq!(alive.iter().filter(|&&a| a).count(), p.live_at_exit);
            assert!(p.peak_bytes < capacity);
            // Churn: allocation is a large share, with slots reused.
            assert!(allocs * 4 > OPS, "seed {seed}: {allocs} allocs");
            assert!(p.slots < allocs, "seed {seed}: no slot reuse");
            assert!(p.live_at_exit > TARGET_LIVE / 2, "seed {seed}");
        }
    }

    #[test]
    fn replay_matches_the_host_model() {
        let p = ChurnProgram::generate(3);
        let mut ctx = DeviceContext::with_config(SimConfig::new(PlatformConfig::rtx3090()));
        let out = p.replay(&mut ctx).expect("generated programs never fail");
        assert_eq!(out.mismatches, 0);
        assert_eq!(out.peak_bytes, p.peak_bytes);
        assert_eq!(out.live, p.live_at_exit);
        assert!(p.ops.iter().any(|op| matches!(op, Op::Download { .. })));
        assert!(p.ops.iter().any(|op| matches!(op, Op::Touch { .. })));
        assert_eq!(ctx.stats().gpu_api_calls, OPS as u64);
    }
}
