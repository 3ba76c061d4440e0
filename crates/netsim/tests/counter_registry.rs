//! One counter registry, many worlds: `static` [`Counter`]s share their
//! ids across every world of the process, and each world's [`Stats`]
//! still holds, reports and merges only its own counts, in name order,
//! whichever world happened to intern a name first.
//!
//! Its own test binary, so that no other test interns these names first.

use std::sync::Barrier;
use std::thread;

use netsim::time::SimDuration;
use netsim::{Counter, Ctx, Frame, IfaceId, Node, Stats, World};

/// Bumps its script's counters once, at start, in script order.
struct Bumper {
    script: Vec<(&'static Counter, u64)>,
}

impl Node for Bumper {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &(counter, amount) in &self.script {
            counter.add(ctx.stats(), amount);
        }
    }

    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _frame: &Frame) {}
}

/// One world whose only node bumps `script`; its statistics.
fn run_world(script: Vec<(&'static Counter, u64)>) -> Stats {
    let mut w = World::new(1994);
    w.add_node(Bumper { script });
    w.start();
    w.run_for(SimDuration::from_millis(1));
    w.stats().clone()
}

/// What a `Stats` reports about some names: `counters()` and three
/// prefix sums.
type Report = (Vec<(String, u64)>, [u64; 3]);

/// Everything a `Stats` reports about the names under `prefix`, with
/// the prefix cut off so two rounds over different names compare.
fn report(stats: &Stats, prefix: &str) -> Report {
    let counters = stats
        .counters()
        .filter_map(|(name, v)| name.strip_prefix(prefix).map(|n| (n.to_string(), v)))
        .collect();
    let sums = [
        stats.counter_prefix_sum(prefix),
        stats.counter_prefix_sum(&format!("{prefix}a")),
        stats.counter_prefix_sum(&format!("{prefix}b.")),
    ];
    (counters, sums)
}

/// World 1 bumps `a`, `b.x`, `b.y` by 1, 2, 3 and world 2 bumps them in
/// the opposite order by 10, 20, 30, each on its own thread. With
/// `first` set, world `first` finishes before the other starts (and so
/// interns every name first); without, the two race. Returns each
/// world's report and the report of both merged, either way round.
fn round([a, bx, by]: [&'static Counter; 3], prefix: &str, first: Option<usize>) -> [Report; 4] {
    let gate = Barrier::new(2);
    let worlds = [(1, vec![(a, 1), (bx, 2), (by, 3)]), (2, vec![(by, 30), (bx, 20), (a, 10)])];
    let [s1, s2] = thread::scope(|scope| {
        let handles = worlds.map(|(me, script)| {
            let gate = &gate;
            scope.spawn(move || {
                if first.is_some_and(|f| f != me) {
                    gate.wait(); // let the other world intern first
                }
                let stats = run_world(script);
                if first == Some(me) {
                    gate.wait();
                }
                stats
            })
        });
        handles.map(|h| h.join().expect("world thread"))
    });
    let mut one_two = s1.clone();
    one_two.merge(&s2);
    let mut two_one = s2.clone();
    two_one.merge(&s1);
    [report(&s1, prefix), report(&s2, prefix), report(&one_two, prefix), report(&two_one, prefix)]
}

static P_A: Counter = Counter::new("registry.p.a");
static P_BX: Counter = Counter::new("registry.p.b.x");
static P_BY: Counter = Counter::new("registry.p.b.y");
static Q_A: Counter = Counter::new("registry.q.a");
static Q_BX: Counter = Counter::new("registry.q.b.x");
static Q_BY: Counter = Counter::new("registry.q.b.y");
static R_A: Counter = Counter::new("registry.r.a");
static R_BX: Counter = Counter::new("registry.r.b.x");
static R_BY: Counter = Counter::new("registry.r.b.y");

#[test]
fn worlds_share_ids_but_not_counts_whichever_interned_first() {
    let p = round([&P_A, &P_BX, &P_BY], "registry.p.", Some(1));
    let q = round([&Q_A, &Q_BX, &Q_BY], "registry.q.", Some(2));
    let r = round([&R_A, &R_BX, &R_BY], "registry.r.", None);

    // The rounds really did intern in opposite orders.
    assert!(P_A.id() < P_BY.id(), "world 1 went first in round p");
    assert!(Q_BY.id() < Q_A.id(), "world 2 went first in round q");

    let own = |a, bx, by| {
        let names = vec![("a".to_string(), a), ("b.x".to_string(), bx), ("b.y".to_string(), by)];
        (names, [a + bx + by, a, bx + by])
    };
    let expected = [own(1, 2, 3), own(10, 20, 30), own(11, 22, 33), own(11, 22, 33)];
    assert_eq!(p, expected, "world 1 interned first");
    assert_eq!(q, expected, "world 2 interned first");
    assert_eq!(r, expected, "the worlds raced");
}
