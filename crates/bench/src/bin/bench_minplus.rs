//! Emits `BENCH_minplus.json` at the repo root: raw throughput of the
//! min-plus row primitive ([`kernel::apply_candidate`]) alone, against
//! the straight-line branchy loop it replaces, across row widths chosen
//! to cover full-lane rows, sub-lane rows, and non-lane-multiple tails.
//!
//! The scheduler-level figure (`bench_sched`) measures the kernel buried
//! under grid builds, pruning, and pricing; this bin isolates the inner
//! loop so a kernel regression cannot hide behind the rest of the
//! pipeline. Each width also runs through the criterion shim for a
//! human-readable latency line. The JSON records which compiled copy of
//! the kernel ran (`isa`: `avx2` or `baseline`) and the host's
//! `hardware_threads`.

use criterion::Criterion;
use pdftsp_cluster::hardware_threads;
use pdftsp_core::kernel::{self, Isa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Row widths (cells per DP row). 7 is a sub-lane row, 8 one exact lane,
/// 31/36/100/1001 exercise the scalar tail after the vector body, 256 is
/// an exact multiple of the 8-wide lane.
const WIDTHS: &[usize] = &[7, 8, 31, 36, 100, 256, 1001];
/// Candidates applied per row — a realistic pruned Pareto front.
const CANDIDATES: usize = 12;
/// Timed repetitions per (width, implementation) measurement.
const REPS: usize = 2000;

/// One synthetic row workload: a previous DP row (with a sprinkling of
/// `+∞` frontier cells, as real rows have), plus per-candidate
/// (gain, delta, tag) triples.
struct RowCase {
    prev: Vec<f64>,
    cur: Vec<f64>,
    crow: Vec<u16>,
    cands: Vec<(usize, f64, u16)>,
    w_hi: usize,
}

impl RowCase {
    fn new(width: usize, rng: &mut StdRng) -> Self {
        let stride = width.next_multiple_of(kernel::LANES);
        let prev = (0..stride)
            .map(|_| {
                if rng.gen_range(0u32..6) == 0 {
                    f64::INFINITY
                } else {
                    rng.gen_range(0.0f64..100.0)
                }
            })
            .collect();
        let cands = (0..CANDIDATES)
            .map(|i| {
                (
                    rng.gen_range(1usize..=(width / 2).max(1)),
                    rng.gen_range(0.1f64..10.0),
                    i as u16 + 1,
                )
            })
            .collect();
        RowCase {
            prev,
            cur: vec![f64::INFINITY; stride],
            crow: vec![0u16; stride],
            cands,
            w_hi: width - 1,
        }
    }

    /// Applies every candidate to a reset row with `kernel`; returns a
    /// value to keep the optimizer honest.
    fn run(&mut self, kernel: Kernel) -> f64 {
        self.cur.fill(f64::INFINITY);
        self.crow.fill(0);
        for &(gain, delta, tag) in &self.cands {
            kernel(
                &self.prev,
                &mut self.cur,
                &mut self.crow,
                0,
                self.w_hi,
                gain,
                delta,
                tag,
            );
        }
        self.cur[self.w_hi]
    }

    /// The whole row state, as bits, for the equivalence check.
    fn state(&self) -> (Vec<u64>, Vec<u16>) {
        (
            self.cur.iter().map(|v| v.to_bits()).collect(),
            self.crow.clone(),
        )
    }
}

/// A row-update implementation under test.
type Kernel = fn(&[f64], &mut [f64], &mut [u16], usize, usize, usize, f64, u16);

/// The straight-line branchy loop the kernel replaced: the baseline of
/// every speedup below.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn straight_line(
    prev: &[f64],
    cur: &mut [f64],
    crow: &mut [u16],
    w_lo: usize,
    w_hi: usize,
    gain: usize,
    delta: f64,
    tag: u16,
) {
    for w in w_lo..=w_hi {
        let source = if w < gain { prev[0] } else { prev[w - gain] };
        let cand = source + delta;
        if cand < cur[w] {
            cur[w] = cand;
            crow[w] = tag;
        }
    }
}

/// Median-of-reps cells/s for one (width, implementation) pair.
fn throughput(case: &mut RowCase, kernel: Kernel) -> f64 {
    let cells = (CANDIDATES * (case.w_hi + 1)) as f64;
    black_box(case.run(kernel)); // warm-up
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(case.run(kernel));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    cells / samples[samples.len() / 2].max(1e-12)
}

fn main() {
    let isa = Isa::detected();
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let mut crit = Criterion::default();
    let mut rows = Vec::new();
    for &width in WIDTHS {
        let mut case = RowCase::new(width, &mut rng);

        // Sanity: both implementations must leave the same row bits
        // before either throughput number means anything.
        case.run(straight_line);
        let want = case.state();
        case.run(kernel::apply_candidate);
        assert!(case.state() == want, "width {width}: kernel diverged");

        let loop_cps = throughput(&mut case, straight_line);
        let kernel_cps = throughput(&mut case, kernel::apply_candidate);
        let speedup = kernel_cps / loop_cps.max(1e-12);
        println!(
            "width {width:>4}: straight-line {loop_cps:>12.0} cells/s | kernel ({}) {kernel_cps:>12.0} cells/s | {speedup:.2}x",
            isa.name()
        );
        crit.bench_function(&format!("minplus_row_w{width}_straight_line"), |b| {
            b.iter(|| case.run(straight_line));
        });
        crit.bench_function(&format!("minplus_row_w{width}_kernel"), |b| {
            b.iter(|| case.run(kernel::apply_candidate));
        });
        rows.push(format!(
            concat!(
                "    {{\"width\": {}, \"stride\": {}, \"candidates\": {}, ",
                "\"straight_line_cells_per_s\": {:.0}, \"kernel_cells_per_s\": {:.0}, ",
                "\"speedup\": {:.3}}}"
            ),
            width,
            width.next_multiple_of(kernel::LANES),
            CANDIDATES,
            loop_cps,
            kernel_cps,
            speedup
        ));
    }
    let body = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"minplus_kernel\",\n",
            "  \"emitter\": \"bench_minplus\",\n",
            "  \"reps\": {},\n",
            "  \"isa\": \"{}\",\n",
            "  \"hardware_threads\": {},\n",
            "  \"lanes\": {},\n",
            "  \"rows\": [\n",
            "{}\n",
            "  ]\n",
            "}}\n"
        ),
        REPS,
        isa.name(),
        hardware_threads(),
        kernel::LANES,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_minplus.json");
    std::fs::write(path, &body).expect("write BENCH_minplus.json");
    println!("wrote {path}");
}
