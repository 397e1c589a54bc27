//! Allocation regression test for the cell-partitioned oracle pass: with
//! a counting global allocator, a warmed-up `respond_batch` whose queries
//! are ranked through their cells' top-k partitions allocates no buffer
//! of `n` entries, while the full-ranking audit path does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fairrank::approximate::BuildOptions;
use fairrank::{FairRanker, Strategy, SuggestOptions, SuggestRequest};
use fairrank_datasets::synthetic::generic;
use fairrank_fairness::Proportionality;

/// Records the largest allocation of the calling thread, so tests running
/// on other threads do not disturb it.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

fn largest_allocation_in(f: impl FnOnce()) -> usize {
    LARGEST.with(|c| c.set(0));
    f();
    LARGEST.with(Cell::get)
}

#[test]
fn partitioned_requests_allocate_no_buffer_of_n_entries() {
    let n = 600;
    let ds = generic::uniform(n, 3, 0.8, 11);
    let group = ds.type_attribute("group").unwrap();
    let oracle = Proportionality::new(group, 30).with_max_count(0, 15);
    let ranker = FairRanker::builder(ds, Box::new(oracle))
        .strategy(Strategy::MdApprox)
        .approx_options(BuildOptions {
            n_cells: 200,
            max_hyperplanes: Some(200),
            ..Default::default()
        })
        .build_threads(1)
        .build()
        .unwrap();
    let queries: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            let t = f64::from(i) / 16.0;
            vec![0.3 + t, 1.0 - 0.5 * t, 0.4 + 0.2 * t]
        })
        .collect();
    let backend = ranker.backend();
    assert!(
        queries
            .iter()
            .all(|q| backend.top_k_partition(q).is_some_and(|p| p.covers(q))),
        "every query must be ranked through its cell's partition"
    );
    let fast: Vec<SuggestRequest> = queries.iter().cloned().map(SuggestRequest::new).collect();
    let audit: Vec<SuggestRequest> = fast
        .iter()
        .cloned()
        .map(|r| r.with_options(SuggestOptions::default().index_fastpath(false)))
        .collect();
    // Warm the thread's ranking buffers and the counters' registration.
    let _ = ranker.respond_batch(&fast).unwrap();
    let _ = ranker.respond_batch(&audit).unwrap();

    // The smallest O(n) buffer a full ranking needs is its n ids.
    let n_ids = n * std::mem::size_of::<u32>();
    for req in &fast {
        let largest = largest_allocation_in(|| {
            let _ = ranker.respond_batch(std::slice::from_ref(req)).unwrap();
        });
        assert!(largest < n_ids, "{largest} bytes for {:?}", req.query);
    }
    let largest = largest_allocation_in(|| {
        let _ = ranker.respond_batch(&audit[..1]).unwrap();
    });
    assert!(largest >= n_ids, "the audit path ranks every item");
}
