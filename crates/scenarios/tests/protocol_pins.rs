//! Per-protocol pins: every counter, by name, and a digest of the typed
//! telemetry event log of each §7 shootout world (MHRP and the five
//! baselines) and of E07's three baseline scalability points, at seed
//! 1994.
//!
//! E02's golden pins four numbers per protocol; these pin everything a
//! run counts and the order in which every frame, timer and protocol
//! event happened. A change to how the protocol nodes are put together
//! must leave all of them byte-identical. Each golden was recorded with
//! the nodes as they stood before they shared one stack-node skeleton.

use netsim::time::{SimDuration, SimTime};
use netsim::World;
use scenarios::experiments::e07_scalability;
use scenarios::metrics::ScalabilityPoint;
use scenarios::shootout::{
    columbia_driver, ibm_lsrr_driver, matsushita_driver, mhrp_driver, phys, sony_vip_driver,
    sunshine_postel_driver, Driver, Phys,
};

const SEED: u64 = 1994;

/// FNV-1a over the `Debug` rendering of every event, in log order.
fn digest(world: &World) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in world.telemetry().events() {
        for b in format!("{e:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every written counter, one `name value` line each, then the event
/// count and digest.
fn render(world: &World) -> String {
    assert_eq!(world.telemetry().overwritten(), 0, "ring too small for the full trace");
    let mut out = String::new();
    for (name, value) in world.stats().counters() {
        out += &format!("{name} {value}\n");
    }
    out += &format!("events {}\n", world.telemetry().events().count());
    out += &format!("digest {:#018x}\n", digest(world));
    out
}

fn traced(world: &mut World) {
    world.set_telemetry(true);
    world.set_telemetry_capacity(1 << 18);
}

/// E02's workload, then a second move (to network E) and a second
/// burst, so detach, re-attach and stale-binding recovery all run.
fn drive(mut d: Driver) -> String {
    traced(&mut d.world);
    d.world.run_until(SimTime::from_secs(3));
    d.move_m_to_d();
    d.world.run_until(SimTime::from_secs(12));
    d.send_from_mobile(b"hello from the road".to_vec());
    d.world.run_for(SimDuration::from_secs(1));
    for i in 0..20u8 {
        d.send_data(vec![i; 64]);
        d.world.run_for(SimDuration::from_millis(100));
    }
    d.world.run_for(SimDuration::from_secs(3));
    d.move_m_to_e();
    d.world.run_for(SimDuration::from_secs(8));
    for i in 0..5u8 {
        d.send_data(vec![100 + i; 64]);
        d.world.run_for(SimDuration::from_millis(500));
    }
    d.world.run_for(SimDuration::from_secs(5));
    render(&d.world)
}

/// One E07 point on a traced substrate: the point's figures, then the
/// world's pins.
fn point(run: fn(Phys, usize) -> (ScalabilityPoint, World)) -> String {
    let mut p = phys(SEED);
    traced(&mut p.world);
    let (pt, world) = run(p, 8);
    format!(
        "point {} {} {} {} {}\n{}",
        pt.protocol,
        pt.mobiles,
        pt.control_msgs_per_move,
        pt.max_node_state,
        pt.temp_addrs_used,
        render(&world)
    )
}

#[track_caller]
fn check(got: String, golden: &str) {
    if got != golden {
        panic!("pins drifted; got:\n{got}");
    }
}

#[test]
fn mhrp_driver_pins() {
    check(drive(mhrp_driver(SEED)), MHRP_DRIVER);
}

#[test]
fn sunshine_postel_driver_pins() {
    check(drive(sunshine_postel_driver(SEED)), SP_DRIVER);
}

#[test]
fn columbia_driver_pins() {
    check(drive(columbia_driver(SEED)), COLUMBIA_DRIVER);
}

#[test]
fn sony_vip_driver_pins() {
    check(drive(sony_vip_driver(SEED)), SONY_DRIVER);
}

#[test]
fn matsushita_driver_pins() {
    check(drive(matsushita_driver(SEED)), MATSUSHITA_DRIVER);
}

#[test]
fn ibm_lsrr_driver_pins() {
    check(drive(ibm_lsrr_driver(SEED, false, SimDuration::from_millis(2))), IBM_DRIVER);
}

#[test]
fn e07_sp_point_pins() {
    check(point(e07_scalability::sp_run), SP_POINT);
}

#[test]
fn e07_columbia_point_pins() {
    check(point(e07_scalability::columbia_run), COLUMBIA_POINT);
}

#[test]
fn e07_sony_point_pins() {
    check(point(e07_scalability::sony_run), SONY_POINT);
}

const MHRP_DRIVER: &str = "\
arp.gratuitous_sent 4
arp.queued 8
arp.replies_sent 8
arp.requests_sent 8
ip.delivered 108
ip.forwarded 72
ip.originated 146
ip.rx 178
ip.sent_direct 30
ip.tx 142
ip.tx_bytes 11558
link.bytes_sent 19254
link.frames_delivered 199
link.frames_lost_moved 2
link.frames_sent 268
mhrp.adverts_sent 104
mhrp.fa_delivered 28
mhrp.fa_deregistrations 1
mhrp.fa_forward_pointer_used 1
mhrp.fa_registrations 2
mhrp.ha_acks_tunneled 2
mhrp.ha_registrations 2
mhrp.ha_tunneled 1
mhrp.mh_moves 2
mhrp.overhead_bytes 220
mhrp.registration_msgs_sent 5
mhrp.solicits_sent 2
mhrp.tunneled_by_router_ca 1
mhrp.tunneled_by_sender 24
mhrp.updates_received 6
mhrp.updates_sent 6
mhrp.updates_snooped 7
events 706
digest 0x6c72c72e21fd339f
";
const SP_DRIVER: &str = "\
arp.queued 10
arp.replies_sent 8
arp.requests_sent 8
ip.delivered 123
ip.forwarded 71
ip.icmp_errors_sent 1
ip.originated 105
ip.rx 194
ip.sent_direct 57
ip.tx 165
ip.tx_bytes 13091
link.bytes_sent 19473
link.frames_delivered 218
link.frames_lost_moved 1
link.frames_sent 249
sp.data_via_forwarder 29
sp.db_queries 2
sp.db_registrations 2
sp.delivered 28
sp.fwd_registrations 29
sp.host_queries 2
sp.mobile_registrations 2
sp.overhead_bytes 232
sp.requery_after_unreachable 1
sp.unreachable_returned 1
events 542
digest 0xb6e096a95400342c
";
const COLUMBIA_DRIVER: &str = "\
arp.queued 9
arp.replies_sent 9
arp.requests_sent 9
columbia.delivered 25
columbia.mobile_moves 3
columbia.overhead_bytes 720
columbia.query_messages 4
columbia.query_rounds 2
columbia.registrations 32
columbia.stale_tunnel 5
columbia.tunneled 30
ip.delivered 151
ip.forwarded 63
ip.originated 164
ip.rx 214
ip.sent_direct 57
ip.tx 182
ip.tx_bytes 15479
link.bytes_sent 23883
link.frames_delivered 237
link.frames_lost_moved 2
link.frames_sent 302
events 706
digest 0x621a4d1e31cebca1
";
const SONY_DRIVER: &str = "\
arp.queued 14
arp.replies_sent 8
arp.requests_sent 8
ip.delivered 203
ip.forwarded 106
ip.originated 244
ip.rx 309
ip.tx 176
ip.tx_bytes 14832
link.bytes_sent 26666
link.frames_delivered 330
link.frames_lost_moved 2
link.frames_sent 366
vip.data_sent 26
vip.flood_messages 10
vip.home_registrations 2
vip.mobile_moves 2
vip.overhead_bytes 728
events 913
digest 0xc9b59e31df4df393
";
const MATSUSHITA_DRIVER: &str = "\
arp.gratuitous_sent 2
arp.queued 8
arp.replies_sent 8
arp.requests_sent 8
ip.delivered 58
ip.forwarded 83
ip.originated 102
ip.rx 141
ip.tx 113
ip.tx_bytes 13736
iptp.autonomous_enabled 1
iptp.autonomous_sent 24
iptp.forwarded 1
iptp.mobile_decapsulated 20
iptp.mobile_moves 2
iptp.overhead_bytes 1000
iptp.registrations 2
link.bytes_sent 19672
link.frames_delivered 162
link.frames_lost_moved 1
link.frames_sent 203
events 438
digest 0xed663b772f57cf48
";
const IBM_DRIVER: &str = "\
arp.queued 5
arp.replies_sent 5
arp.requests_sent 5
ip.delivered 78
ip.forwarded 53
ip.originated 93
ip.rx 130
ip.sent_direct 28
ip.slow_path 53
ip.tx 106
ip.tx_bytes 10286
link.bytes_sent 15590
link.frames_delivered 142
link.frames_lost_moved 1
link.frames_sent 184
lsrr.bs_relayed 26
lsrr.host_source_routed 25
lsrr.mobile_moves 2
lsrr.mobile_sent_via_bs 1
lsrr.overhead_bytes 208
lsrr.registrations 2
router.slow_path_forwarded 52
events 448
digest 0xba9930c68eb9a213
";
const SP_POINT: &str = "\
point Sunshine-Postel 8 39.125 80 0
arp.queued 23
arp.replies_sent 12
arp.requests_sent 12
ip.delivered 402
ip.forwarded 88
ip.no_route 72
ip.originated 176
ip.rx 490
ip.sent_direct 161
ip.tx 329
ip.tx_bytes 10953
link.bytes_sent 17767
link.frames_delivered 553
link.frames_sent 377
sp.db_queries 72
sp.db_registrations 8
sp.fwd_registrations 161
sp.host_queries 72
sp.mobile_registrations 8
events 973
digest 0x72b5f810143fd5ea
";
const COLUMBIA_POINT: &str = "\
point Columbia IPIP 8 27 8 0
arp.queued 22
arp.replies_sent 21
arp.requests_sent 21
columbia.delivered 8
columbia.mobile_moves 16
columbia.overhead_bytes 192
columbia.query_messages 16
columbia.query_rounds 8
columbia.registrations 192
columbia.tunneled 8
ip.delivered 440
ip.forwarded 64
ip.originated 120
ip.rx 504
ip.sent_direct 200
ip.tx 312
ip.tx_bytes 12112
link.bytes_sent 21844
link.frames_delivered 641
link.frames_sent 426
events 1173
digest 0xd1b7b8401bffbfeb
";
const SONY_POINT: &str = "\
point Sony VIP 8 8 8 8
arp.queued 38
arp.replies_sent 13
arp.requests_sent 13
ip.delivered 462
ip.forwarded 112
ip.originated 297
ip.rx 574
ip.tx 288
ip.tx_bytes 10128
link.bytes_sent 21294
link.frames_delivered 640
link.frames_sent 435
vip.flood_messages 40
vip.home_registrations 8
vip.mobile_moves 8
events 1188
digest 0x82878ba6d45da02e
";
