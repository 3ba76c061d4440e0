//! Bytes per mobile host, counted — no stopwatch, no RSS: a counting
//! global allocator tracks this thread's live heap, and its high-water
//! mark, while a 2 × 4 × 400 hierarchy (800 mobile hosts, 100 a cell) is
//! built and then registers all at once.
//!
//! The budget is the paper's: §1 promises "no penalty for a host being
//! mobile capable" and §2/§4.3 bound every agent table by what the node
//! chooses to spend, so a host whose protocol state is one binding must
//! not own kilobytes of empty tables (three eagerly sized `LruMap`
//! indexes alone are 10.6 KB a host), what a registered host adds is its
//! cell, and the storm's queue does not outlive the storm.
//!
//! The counter is thread-local (the libtest harness's own threads must
//! not pollute it): keep this a single-`#[test]` file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netsim::time::SimDuration;
use scenarios::hierarchy::{Hierarchy, HierarchyParams};

struct LiveBytes;

thread_local! {
    // const-initialized: accessing them never itself allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn add(delta: isize) {
    let now = LIVE.with(|c| {
        c.set(c.get() + delta);
        c.get()
    });
    PEAK.with(|p| p.set(p.get().max(now)));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The most live heap since the last call (or since the thread began),
/// then restarts the high-water mark from what is live now.
fn take_peak() -> isize {
    PEAK.with(|p| p.replace(live()))
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: LiveBytes = LiveBytes;

/// Live heap per mobile host right after the world is built.
const BUILD_BUDGET: isize = 2 * 1024;
/// Live heap per mobile host once the storm has drained, queue apart.
const REGISTERED_BUDGET: isize = 8 * 1024;
/// The most live heap per mobile host at any instant of build and storm,
/// queue included.
const PEAK_BUDGET: isize = 13_600;

#[test]
fn an_idle_host_owns_no_tables_and_a_drained_storm_no_queue() {
    let p = HierarchyParams {
        regions: 2,
        fas_per_region: 4,
        mobiles_per_region: 400,
        ..Default::default()
    };
    let mobiles = p.host_count() as isize;

    let before = live();
    take_peak();
    let mut h = Hierarchy::build(p);
    let built = (live() - before) / mobiles;
    assert!(built <= BUILD_BUDGET, "{built} B of heap per mobile host after build");

    // The storm: every host solicits, ARPs and registers at once, then
    // the world idles long enough for the last retransmission to land.
    assert!(h.run_until_attached(1.0, SimDuration::from_secs(30)), "registration stalled");
    h.world.run_for(SimDuration::from_secs(2));
    // What a registered host has that a built one had not is its cell:
    // a binding, an agent, a hundred ARP neighbours. The event queue is
    // counted on its own: its buffers follow the load, not the
    // population, so once the storm has drained they must be back to
    // about what is in flight (`netsim::sched` hands back the buckets a
    // burst grew, and a delivered broadcast batch its receiver list).
    let queue = h.world.queue_heap_bytes() as isize;
    let settled = (live() - before - queue) / mobiles;
    let peak = (take_peak() - before) / mobiles;
    println!(
        "heap per mobile host: {built} B built, {settled} B registered (+ {} B of queue), \
         {peak} B at peak",
        queue / mobiles
    );
    assert!(
        settled <= REGISTERED_BUDGET,
        "{settled} B of heap per mobile host after the storm (built: {built} B)"
    );
    assert!(peak <= PEAK_BUDGET, "{peak} B of heap per mobile host at the storm's peak");
    assert!(
        queue / mobiles <= 5 * 1024,
        "{} B of queue per mobile host after the storm drained",
        queue / mobiles
    );
}
