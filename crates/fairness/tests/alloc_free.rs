//! Allocation regression test for the proportionality oracles: with a
//! counting global allocator, a warmed-up `is_satisfactory` verdict
//! allocates nothing, for FM1 and for an FM2 conjunction of its parts.
//! MARKCELL, MDBASELINE and the 2-D sweep ask for one verdict per probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fairrank_datasets::Dataset;
use fairrank_fairness::{Conjunction, FairnessOracle, Proportionality};

/// Counts the allocations of the calling thread, so tests running on
/// other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// 40 items in two type attributes: `group` with 3 groups and `side`
/// with 5, so the conjunction's parts need buffers of different sizes.
fn dataset() -> Dataset {
    let n = 40u32;
    let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![f64::from(i), 1.0]).collect();
    let mut ds = Dataset::from_rows(vec!["a".into(), "b".into()], &rows).unwrap();
    let labels = |m: u32| (0..m).map(|g| format!("g{g}")).collect();
    ds.add_type_attribute("group", labels(3), (0..n).map(|i| i % 3).collect())
        .unwrap();
    ds.add_type_attribute("side", labels(5), (0..n).map(|i| i % 5).collect())
        .unwrap();
    ds
}

#[test]
fn warm_verdicts_do_not_allocate() {
    let ds = dataset();
    let group = ds.type_attribute("group").unwrap();
    let side = ds.type_attribute("side").unwrap();
    let fm1 = Proportionality::new(group, 12).with_max_count(0, 4);
    let fm2 = Conjunction::new()
        .and(fm1.clone())
        .and(Proportionality::new(side, 10).with_min_count(4, 2));
    let rankings: Vec<Vec<u32>> = (0..6u32)
        .map(|s| (0..40u32).map(|i| (i * 7 + s * 3) % 40).collect())
        .collect();

    // Warm up the thread's buffer at the largest group count, then count.
    let warm: Vec<(bool, bool)> = rankings
        .iter()
        .map(|r| (fm1.is_satisfactory(r), fm2.is_satisfactory(r)))
        .collect();
    let mut verdicts = Vec::with_capacity(rankings.len());
    let allocs = allocations_in(|| {
        for r in &rankings {
            verdicts.push((fm1.is_satisfactory(r), fm2.is_satisfactory(r)));
        }
    });
    assert_eq!(allocs, 0, "a warm proportionality verdict allocated");
    assert_eq!(verdicts, warm);
    // The verdicts are the head-count rule's, and not all alike.
    for (r, &(v1, _)) in rankings.iter().zip(&verdicts) {
        assert_eq!(v1, fm1.counts_satisfy(&fm1.head_counts(r)));
    }
    assert!(verdicts.iter().any(|v| v.0) && verdicts.iter().any(|v| !v.0));
}
