//! Machine-speed probe: two fixed kernels that use none of the
//! repository's code, so their cost moves only with the machine. `run.py`
//! runs it between the measured runs and scales the end-to-end times by it
//! (see README.md, "Machine-speed scaling").
//!
//! - `mem`: 2^22 random increments into a 64 MiB array, then a scan of it,
//!   the access pattern of a dense round at n = 2^24;
//! - `alu`: 2^24 generator steps with reads and writes in a 64 KiB table,
//!   which stays in the per-core caches.

use std::hint::black_box;
use std::time::Instant;

const MEM_BINS: usize = 1 << 24;
const MEM_STEPS: usize = 1 << 22;
const ALU_BINS: usize = 1 << 14;
const ALU_STEPS: usize = 1 << 24;

/// xorshift64: fixed, so every probe does the same work.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn mem() -> u64 {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let mut bins = vec![0u32; MEM_BINS];
    for _ in 0..MEM_STEPS {
        let i = rng.next() as usize & (MEM_BINS - 1);
        bins[i] = bins[i].wrapping_add(1);
    }
    bins.iter().filter(|&&b| b == 0).count() as u64
}

fn alu() -> u64 {
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    let mut table = vec![0u32; ALU_BINS];
    let mut acc = 0u64;
    for _ in 0..ALU_STEPS {
        let r = rng.next();
        let i = r as usize & (ALU_BINS - 1);
        table[i] = table[i].wrapping_add((r >> 40) as u32);
        acc = acc.wrapping_add(u64::from(table[(r >> 20) as usize & (ALU_BINS - 1)]));
    }
    acc
}

fn timed(kernel: fn() -> u64) -> u128 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_nanos()
}

/// Prints the nanoseconds each kernel took: `mem_ns alu_ns`.
pub fn run() -> Result<(), String> {
    let mem_ns = timed(mem);
    let alu_ns = timed(alu);
    println!("{mem_ns} {alu_ns}");
    Ok(())
}
