//! Single-thread scan microbench: scalar vs. multi-lane kernel × boxed
//! vs. columnar-arena storage, plus the lane-width sweep that picks
//! the kernel's width and the flush break-even.
//!
//! The PR 3 hot path (`boxed/scalar`) decides one `(trapdoor, word)`
//! pair at a time over per-word `Vec<u8>` allocations: per check it
//! heap-allocates the XORed halves and the PRF output and clones two
//! SHA-256 states. PR 4 replaces both axes independently:
//!
//! * **storage** — `boxed` (one `Vec<u8>` per word) vs. `arena`
//!   (`dbph_core::WordArena`: one contiguous fixed-width slot buffer
//!   per shard);
//! * **check engine** — `scalar` (`PreparedTrapdoor::matches*`) vs.
//!   `lanes<N>` (`dbph_swp::ScanKernel`: `N` = [`LANES`] checks per
//!   interleaved SHA-256 dispatch, zero per-check allocation).
//!
//! `arena/lanes<N>` is the configuration `ShardedTable` ships; the
//! `shard_scan` bench measures it end to end. All four cells decide
//! identical match sets (asserted below; the equivalence suites pin it
//! exhaustively).
//!
//! Two more groups size the kernel itself:
//!
//! * `lanes/{4,8,16,32}` — one interleaved compression
//!   (`compress_states::<N>`) per iteration, throughput `N`, so the
//!   per-element time is ns per lane-compression. [`LANES`] is picked
//!   from this sweep and the `arena/lanes<N>` row per codegen target
//!   (table in `.cargo/config.toml`).
//! * `remainder/{scalar_word,dispatch}` — one scalar check vs. one
//!   full-width kernel dispatch. Their ratio is the flush break-even:
//!   a remainder of at least that many words is cheaper padded into
//!   one dispatch than decided word by word.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_scan_kernel.json cargo bench -p dbph-bench --bench scan_kernel`

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dbph_core::storage::Doc;
use dbph_core::{DatabasePh, FinalSwpPh, WordArena};
use dbph_crypto::sha256x4::{compress_states, LANES};
use dbph_crypto::SecretKey;
use dbph_relation::Query;
use dbph_swp::{PreparedTrapdoor, ScanKernel, SwpParams};
use dbph_workload::EmployeeGen;

const ROWS: usize = 10_000;

/// The PR 3 decision loop: per document, scalar check per boxed word.
fn boxed_scalar(params: &SwpParams, docs: &[Doc], term: &PreparedTrapdoor) -> Vec<u32> {
    docs.iter()
        .enumerate()
        .filter(|(_, (_, words))| words.iter().any(|w| term.matches(params, w)))
        .map(|(i, _)| i as u32)
        .collect()
}

/// Scalar checks over arena word views (columnar storage, no lanes).
fn arena_scalar(params: &SwpParams, arena: &WordArena, term: &PreparedTrapdoor) -> Vec<u32> {
    (0..arena.len())
        .filter(|&i| {
            arena
                .word_range(i)
                .any(|w| term.matches_bytes(params, arena.word(w)))
        })
        .map(|i| i as u32)
        .collect()
}

/// Multi-lane kernel fed from the boxed layout (lanes without the arena).
fn boxed_lanes(params: &SwpParams, docs: &[Doc], term: &PreparedTrapdoor) -> Vec<u32> {
    let mut kernel = ScanKernel::new(*params, term);
    let mut hits: Vec<u32> = Vec::new();
    {
        let mut sink = |tag: u32, ok: bool| {
            if ok && hits.last() != Some(&tag) {
                hits.push(tag);
            }
        };
        for (i, (_, words)) in docs.iter().enumerate() {
            for w in words {
                kernel.push(i as u32, &w.0, &mut sink);
            }
        }
        kernel.flush(&mut sink);
    }
    hits
}

/// The shipped hot path: multi-lane kernel streaming arena slots.
fn arena_lanes(params: &SwpParams, arena: &WordArena, term: &PreparedTrapdoor) -> Vec<u32> {
    let mut kernel = ScanKernel::new(*params, term);
    let mut hits: Vec<u32> = Vec::new();
    {
        let mut sink = |tag: u32, ok: bool| {
            if ok && hits.last() != Some(&tag) {
                hits.push(tag);
            }
        };
        for i in 0..arena.len() {
            for w in arena.word_range(i) {
                if let Some(slot) = arena.regular_slot(w) {
                    kernel.push(i as u32, slot, &mut sink);
                }
            }
        }
        kernel.flush(&mut sink);
    }
    hits
}

fn bench_scan_kernel(c: &mut Criterion) {
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(7);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([21u8; 32])).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let params = table.params;
    // The shard_scan workload's selective query (~1/8 of the table).
    let qct = ph.encrypt_query(&Query::select("dept", "dept-02")).unwrap();
    let term = PreparedTrapdoor::new(&qct.terms[0]);

    let docs = table.docs;
    let arena = WordArena::from_docs(params.word_len, docs.clone());

    // Sanity: all four cells decide the same candidate set.
    let reference = boxed_scalar(&params, &docs, &term);
    assert!(!reference.is_empty(), "workload must select something");
    assert_eq!(arena_scalar(&params, &arena, &term), reference);
    assert_eq!(boxed_lanes(&params, &docs, &term), reference);
    assert_eq!(arena_lanes(&params, &arena, &term), reference);

    let lanes = format!("lanes{LANES}");
    let mut group = c.benchmark_group("scan_kernel");
    group.throughput(Throughput::Elements(ROWS as u64));
    group.bench_function(BenchmarkId::new("boxed", "scalar"), |b| {
        b.iter(|| boxed_scalar(&params, &docs, &term))
    });
    group.bench_function(BenchmarkId::new("boxed", &lanes), |b| {
        b.iter(|| boxed_lanes(&params, &docs, &term))
    });
    group.bench_function(BenchmarkId::new("arena", "scalar"), |b| {
        b.iter(|| arena_scalar(&params, &arena, &term))
    });
    group.bench_function(BenchmarkId::new("arena", &lanes), |b| {
        b.iter(|| arena_lanes(&params, &arena, &term))
    });
    group.finish();

    // Flush break-even: one scalar check vs. one full-width dispatch,
    // on a real cipher word of the workload.
    let word = arena.regular_slot(0).expect("first word is regular");
    let mut group = c.benchmark_group("scan_kernel");
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("remainder", "scalar_word"), |b| {
        b.iter(|| term.matches_bytes(&params, black_box(word)))
    });
    group.bench_function(BenchmarkId::new("remainder", "dispatch"), |b| {
        let mut kernel = ScanKernel::new(params, &term);
        b.iter(|| {
            let mut hits = 0u32;
            let mut sink = |_: u32, ok: bool| hits += u32::from(ok);
            for i in 0..LANES as u32 {
                kernel.push(i, black_box(word), &mut sink);
            }
            hits
        })
    });
    group.finish();

    bench_lane_width::<4>(c);
    bench_lane_width::<8>(c);
    bench_lane_width::<16>(c);
    bench_lane_width::<32>(c);
}

/// One `N`-wide interleaved compression per iteration; throughput `N`
/// makes the per-element figure ns per lane-compression.
fn bench_lane_width<const N: usize>(c: &mut Criterion) {
    let mut states = [[0x6a09_e667u32; 8]; N];
    let blocks: [[u8; 64]; N] = std::array::from_fn(|l| [l as u8; 64]);
    let mut group = c.benchmark_group("scan_kernel");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(BenchmarkId::new("lanes", N), |b| {
        b.iter(|| compress_states(black_box(&mut states), black_box(&blocks)))
    });
    group.finish();
}

criterion_group!(benches, bench_scan_kernel);
criterion_main!(benches);
