//! Allocation regression test for the LP kernel: with a counting global
//! allocator, a warmed-up Seidel feasibility solve allocates nothing and
//! a strict interior witness allocates only the point it returns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fairrank_lp::{interior_point, seidel, Constraint};

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

/// `m` rows in `n` variables around the point `0.7` on every axis: a
/// polytope with interior, mixing `≤` and `≥` rows.
fn polytope(n: usize, m: usize) -> Vec<Constraint> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut unit = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..m)
        .map(|i| {
            let a: Vec<f64> = (0..n).map(|_| unit()).collect();
            let at_p: f64 = a.iter().map(|v| v * 0.7).sum();
            let slack = 0.05 + 0.3 * unit().abs();
            if i % 2 == 0 {
                Constraint::le(a, at_p + slack)
            } else {
                Constraint::ge(a, at_p - slack)
            }
        })
        .collect()
}

#[test]
fn warm_lp_solves_do_not_allocate() {
    let (lo, hi) = (0.0, std::f64::consts::FRAC_PI_2);
    for n in [2, 4] {
        let rows = polytope(n, 30);
        let mut cut_off = rows.clone();
        cut_off.push(Constraint::le(vec![1.0; n], -1.0));

        // Warm up the thread's arena, then count.
        assert_eq!(seidel::feasible(rows.as_slice(), n, lo, hi, 7), Some(true));
        let feasible = allocations_in(|| {
            assert_eq!(seidel::feasible(rows.as_slice(), n, lo, hi, 7), Some(true));
            assert_eq!(
                seidel::feasible(cut_off.as_slice(), n, lo, hi, 7),
                Some(false)
            );
        });
        assert_eq!(feasible, 0, "{n}-D Seidel feasibility allocated");

        assert!(interior_point(&rows, n, lo, hi).is_some());
        let mut witness = None;
        let witness_allocs = allocations_in(|| witness = interior_point(&rows, n, lo, hi));
        let witness = witness.expect("the polytope has interior");
        assert!(witness.margin > 0.0);
        assert_eq!(
            witness_allocs, 1,
            "{n}-D interior_point allocates only the point it returns"
        );
    }
}
