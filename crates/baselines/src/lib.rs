//! # Baseline mobile-host protocols (paper §7)
//!
//! Faithful behavioural models of the five prior protocols the paper
//! compares MHRP against, each implemented on the same `netsim`/`netstack`
//! substrate so the §7 comparison (per-packet overhead, routing paths,
//! control-message load, failure behaviour) can be *measured* rather than
//! quoted:
//!
//! | module | protocol | per-packet overhead (§7) | scaling limiter (§7) |
//! |---|---|---|---|
//! | [`sunshine_postel`] | Sunshine & Postel forwarders (IEN 135) | 8-byte source-route shim | the global database |
//! | [`columbia`] | Columbia Mobile*IP (IPIP / MSR) | 24 bytes | MSR multicast search, temp addresses |
//! | [`sony_vip`] | Sony Virtual IP | 28 bytes on *every* packet | flooding invalidation, temp addresses |
//! | [`matsushita`] | Matsushita PFS / IPTP | 40 bytes | no route optimization; temp addresses |
//! | [`ibm_lsrr`] | IBM loose source routing | 8 (+8 from the mobile) bytes | router slow path, broken LSRR implementations |
//!
//! Every node is a `netstack` [`StackNode`](netstack::StackNode): the
//! stack node owns the frame, timer, link and reboot dispatch, and each
//! protocol here supplies only its §7 delta as
//! [`Protocol`](netstack::Protocol) hooks. Beacons, the mobile-host shell
//! and the send path are shared in [`common`].
//!
//! Modeling substitutions are listed in the workspace DESIGN.md.

#![deny(missing_docs)]

pub mod columbia;
pub mod common;
pub mod ibm_lsrr;
pub mod matsushita;
pub mod sony_vip;
pub mod sunshine_postel;
