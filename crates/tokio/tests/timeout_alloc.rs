//! `time::timeout` holds its future in place: the live agent builds one
//! per loop turn, and a turn that finds its mailbox non-empty must not
//! touch the heap for it.
//!
//! The counter is thread-local (the idiom of
//! `crates/netsim/tests/alloc_free.rs`), so the libtest harness's own
//! threads do not pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct CountingAlloc;

thread_local! {
    // const-initialized: accessing it never itself allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_timeout_whose_future_is_ready_does_not_allocate() {
    const TURNS: u32 = 1_000;
    let rt = tokio::runtime::Runtime::new().unwrap();
    rt.block_on(async {
        let (tx, mut rx) = tokio::sync::mpsc::unbounded_channel();
        for i in 0..TURNS {
            tx.send(i).unwrap();
        }
        let before = ALLOCS.with(Cell::get);
        for i in 0..TURNS {
            let got = tokio::time::timeout(Duration::from_millis(50), rx.recv()).await;
            assert_eq!(got, Ok(Some(i)));
        }
        assert_eq!(ALLOCS.with(Cell::get) - before, 0, "allocations over {TURNS} turns");
    });
}
