//! The registration/notification control protocol (paper §3).
//!
//! When a mobile host moves it must notify, in order: the new foreign
//! agent, its home agent, and (if it did not explicitly disconnect) its old
//! foreign agent. These notifications ride UDP on [`MHRP_PORT`]. The paper
//! does not specify a wire format or reliability scheme; this reproduction
//! uses the small TLV below with acknowledgment + retransmission
//! (parameters in [`crate::config::MhrpConfig`]).
//!
//! A registration (`FaRegister`, `HaRegister`, `RegRegister`) may carry
//! the authentication extension of DESIGN.md §13, an [`AuthExt`]. It
//! travels beside the message, not inside it: [`ControlMessage::encode_with`]
//! appends it and [`ControlMessage::decode_with`] splits it off. On the
//! wire an authenticated registration keeps the layout it has always had:
//! its own type byte (11, 12, 13), the plain body, then the sequence
//! number (`FaRegister` only; the other two already carry one) and the
//! 64-bit MAC.

use std::net::Ipv4Addr;

use ip::PacketError;

/// UDP port for MHRP registration traffic (the port IANA later assigned to
/// Mobile IP; see DESIGN.md).
pub const MHRP_PORT: u16 = 434;

/// The authentication extension of a registration (DESIGN.md §13),
/// made by [`crate::auth::sign`] and checked by each agent's `auth::AuthGate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthExt {
    /// The mobile's registration sequence number: the replay-window
    /// value. `HaRegister` and `RegRegister` carry it in their body, so
    /// for them it equals the message's own `seq`.
    pub seq: u16,
    /// Keyed MAC over the registration's fields and `seq`.
    pub mac: u64,
}

/// A control message between mobile hosts and agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMessage {
    /// Mobile host → new foreign agent: serve me. Carries the home agent's
    /// address so the FA could contact it if desired.
    FaRegister {
        /// The registering mobile host (its home address).
        mobile: Ipv4Addr,
        /// The mobile host's home agent.
        home_agent: Ipv4Addr,
    },
    /// Foreign agent → mobile host: registration accepted.
    FaRegisterAck {
        /// The mobile host being acknowledged.
        mobile: Ipv4Addr,
    },
    /// Mobile host → old foreign agent: I have left you. `new_fa` lets the
    /// old agent keep a forwarding-pointer cache entry (§2); zero means
    /// the host returned to its home network (no pointer, §6.3).
    FaDeregister {
        /// The departing mobile host.
        mobile: Ipv4Addr,
        /// Its new foreign agent, or 0.0.0.0.
        new_fa: Ipv4Addr,
    },
    /// Old foreign agent → mobile host: deregistration processed.
    FaDeregisterAck {
        /// The mobile host being acknowledged.
        mobile: Ipv4Addr,
    },
    /// Mobile host → home agent: my current foreign agent is `fa`
    /// (0.0.0.0 = I am connected to my home network, §3).
    HaRegister {
        /// The registering mobile host.
        mobile: Ipv4Addr,
        /// The serving foreign agent, or 0.0.0.0 when home.
        fa: Ipv4Addr,
        /// Sequence number matching request to acknowledgment.
        seq: u16,
    },
    /// Home agent → mobile host: location recorded.
    HaRegisterAck {
        /// The mobile host being acknowledged.
        mobile: Ipv4Addr,
        /// Echoed sequence number.
        seq: u16,
    },
    /// Foreign agent → local broadcast after reboot: all visiting mobile
    /// hosts should re-register (§5.2 state recovery).
    FaRecoveryQuery,
    /// Home agent → replica home agent: replicate this binding (§2:
    /// organizations "can replicate the home agent function on several
    /// support hosts", which "must cooperate to provide a consistent view
    /// of the database"). `fa` of 0.0.0.0 means the binding was removed.
    HaSync {
        /// The mobile host whose binding changed.
        mobile: Ipv4Addr,
        /// Its new foreign agent, or 0.0.0.0 when back home.
        fa: Ipv4Addr,
    },
    /// Foreign agent → mobile host: registration accepted, and this cell
    /// belongs to a regional registration domain (DESIGN.md §12). The
    /// mobile should register with `regional` instead of crossing the
    /// backbone to its home agent, unless `regional` *is* its home agent.
    FaRegisterAckRegional {
        /// The mobile host being acknowledged.
        mobile: Ipv4Addr,
        /// The regional agent that owns intra-region bindings here.
        regional: Ipv4Addr,
    },
    /// Mobile host → regional agent: my current cell foreign agent is
    /// `fa`. The regional agent answers with a [`HaRegisterAck`]
    /// (the mobile's retransmission state machine is shared) and, when
    /// the mobile is new to the region, registers itself as the
    /// mobile's foreign agent with `home_agent` upstream.
    ///
    /// [`HaRegisterAck`]: ControlMessage::HaRegisterAck
    RegRegister {
        /// The registering mobile host.
        mobile: Ipv4Addr,
        /// The mobile host's global home agent.
        home_agent: Ipv4Addr,
        /// The serving cell foreign agent.
        fa: Ipv4Addr,
        /// Sequence number matching request to acknowledgment.
        seq: u16,
    },
}

impl ControlMessage {
    /// Encodes to the control-protocol TLV.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with(None)
    }

    /// Encodes to the control-protocol TLV, appending `auth` as the
    /// authentication extension (module docs) when it is set.
    ///
    /// # Panics
    ///
    /// Panics if `auth` is set on a message that is not a registration.
    pub fn encode_with(&self, auth: Option<AuthExt>) -> Vec<u8> {
        let mut buf = Vec::with_capacity(24);
        match self {
            ControlMessage::FaRegister { mobile, home_agent } => {
                buf.push(1);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&home_agent.octets());
            }
            ControlMessage::FaRegisterAck { mobile } => {
                buf.push(2);
                buf.extend_from_slice(&mobile.octets());
            }
            ControlMessage::FaDeregister { mobile, new_fa } => {
                buf.push(3);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&new_fa.octets());
            }
            ControlMessage::FaDeregisterAck { mobile } => {
                buf.push(4);
                buf.extend_from_slice(&mobile.octets());
            }
            ControlMessage::HaRegister { mobile, fa, seq } => {
                buf.push(5);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&fa.octets());
                buf.extend_from_slice(&seq.to_be_bytes());
            }
            ControlMessage::HaRegisterAck { mobile, seq } => {
                buf.push(6);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&seq.to_be_bytes());
            }
            ControlMessage::FaRecoveryQuery => buf.push(7),
            ControlMessage::HaSync { mobile, fa } => {
                buf.push(8);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&fa.octets());
            }
            ControlMessage::FaRegisterAckRegional { mobile, regional } => {
                buf.push(9);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&regional.octets());
            }
            ControlMessage::RegRegister { mobile, home_agent, fa, seq } => {
                buf.push(10);
                buf.extend_from_slice(&mobile.octets());
                buf.extend_from_slice(&home_agent.octets());
                buf.extend_from_slice(&fa.octets());
                buf.extend_from_slice(&seq.to_be_bytes());
            }
        }
        if let Some(AuthExt { seq, mac }) = auth {
            buf[0] = match self {
                ControlMessage::FaRegister { .. } => {
                    buf.extend_from_slice(&seq.to_be_bytes());
                    11
                }
                ControlMessage::HaRegister { .. } => 12,
                ControlMessage::RegRegister { .. } => 13,
                _ => panic!("{self:?} is not a registration; it carries no AuthExt"),
            };
            buf.extend_from_slice(&mac.to_be_bytes());
        }
        buf
    }

    /// Decodes from control-protocol bytes. An authenticated registration
    /// decodes to its plain message, without the extension.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation or unknown message type.
    pub fn decode(buf: &[u8]) -> Result<ControlMessage, PacketError> {
        ControlMessage::decode_with(buf).map(|(msg, _)| msg)
    }

    /// Decodes from control-protocol bytes, splitting off the
    /// authentication extension of an authenticated registration.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on truncation (an extension cut short
    /// included) or unknown message type.
    pub fn decode_with(buf: &[u8]) -> Result<(ControlMessage, Option<AuthExt>), PacketError> {
        let (&ty, rest) = buf.split_first().ok_or(PacketError::Truncated)?;
        let need = |n: usize| if rest.len() < n { Err(PacketError::Truncated) } else { Ok(()) };
        let addr = |b: &[u8]| Ipv4Addr::new(b[0], b[1], b[2], b[3]);
        let (ty, auth) = match ty {
            11..=13 => {
                // The plain type, and where `seq` sits: the MAC follows it.
                let (plain, at) = [(1, 8), (5, 8), (10, 12)][usize::from(ty - 11)];
                need(at + 10)?;
                let seq = u16::from_be_bytes([rest[at], rest[at + 1]]);
                let mac = u64::from_be_bytes(rest[at + 2..at + 10].try_into().expect("8 bytes"));
                (plain, Some(AuthExt { seq, mac }))
            }
            _ => (ty, None),
        };
        let msg = match ty {
            1 => {
                need(8)?;
                ControlMessage::FaRegister {
                    mobile: addr(&rest[..4]),
                    home_agent: addr(&rest[4..8]),
                }
            }
            2 => {
                need(4)?;
                ControlMessage::FaRegisterAck { mobile: addr(&rest[..4]) }
            }
            3 => {
                need(8)?;
                ControlMessage::FaDeregister { mobile: addr(&rest[..4]), new_fa: addr(&rest[4..8]) }
            }
            4 => {
                need(4)?;
                ControlMessage::FaDeregisterAck { mobile: addr(&rest[..4]) }
            }
            5 => {
                need(10)?;
                ControlMessage::HaRegister {
                    mobile: addr(&rest[..4]),
                    fa: addr(&rest[4..8]),
                    seq: u16::from_be_bytes([rest[8], rest[9]]),
                }
            }
            6 => {
                need(6)?;
                ControlMessage::HaRegisterAck {
                    mobile: addr(&rest[..4]),
                    seq: u16::from_be_bytes([rest[4], rest[5]]),
                }
            }
            7 => ControlMessage::FaRecoveryQuery,
            8 => {
                need(8)?;
                ControlMessage::HaSync { mobile: addr(&rest[..4]), fa: addr(&rest[4..8]) }
            }
            9 => {
                need(8)?;
                ControlMessage::FaRegisterAckRegional {
                    mobile: addr(&rest[..4]),
                    regional: addr(&rest[4..8]),
                }
            }
            10 => {
                need(14)?;
                ControlMessage::RegRegister {
                    mobile: addr(&rest[..4]),
                    home_agent: addr(&rest[4..8]),
                    fa: addr(&rest[8..12]),
                    seq: u16::from_be_bytes([rest[12], rest[13]]),
                }
            }
            _ => return Err(PacketError::BadField("control message type")),
        };
        Ok((msg, auth))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(x: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, x)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = [
            ControlMessage::FaRegister { mobile: a(1), home_agent: a(2) },
            ControlMessage::FaRegisterAck { mobile: a(1) },
            ControlMessage::FaDeregister { mobile: a(1), new_fa: a(3) },
            ControlMessage::FaDeregister { mobile: a(1), new_fa: Ipv4Addr::UNSPECIFIED },
            ControlMessage::FaDeregisterAck { mobile: a(1) },
            ControlMessage::HaRegister { mobile: a(1), fa: a(3), seq: 99 },
            ControlMessage::HaRegister { mobile: a(1), fa: Ipv4Addr::UNSPECIFIED, seq: 100 },
            ControlMessage::HaRegisterAck { mobile: a(1), seq: 99 },
            ControlMessage::FaRecoveryQuery,
            ControlMessage::HaSync { mobile: a(1), fa: a(3) },
            ControlMessage::HaSync { mobile: a(1), fa: Ipv4Addr::UNSPECIFIED },
            ControlMessage::FaRegisterAckRegional { mobile: a(1), regional: a(4) },
            ControlMessage::RegRegister { mobile: a(1), home_agent: a(2), fa: a(3), seq: 7 },
        ];
        for m in msgs {
            assert_eq!(ControlMessage::decode_with(&m.encode()).unwrap(), (m, None));
        }
        let signed = [
            (ControlMessage::FaRegister { mobile: a(1), home_agent: a(2) }, 3, 0xdead_beef),
            (ControlMessage::HaRegister { mobile: a(1), fa: a(3), seq: 99 }, 99, u64::MAX),
            (
                ControlMessage::RegRegister { mobile: a(1), home_agent: a(2), fa: a(3), seq: 7 },
                7,
                0,
            ),
        ];
        for (m, seq, mac) in signed {
            let auth = Some(AuthExt { seq, mac });
            let bytes = m.encode_with(auth);
            assert_eq!(ControlMessage::decode_with(&bytes).unwrap(), (m, auth));
            // The plain decoder reads the registration and drops the extension.
            assert_eq!(ControlMessage::decode(&bytes).unwrap(), m);
        }
    }

    /// The wire bytes of the three registrations, plain and signed with a
    /// fixed key, pinned as hex: a change to the codec, to the MAC or to
    /// what it covers shows here before it shows in a golden replay.
    #[test]
    fn registration_wire_bytes_are_pinned() {
        let key = 0x1994_0d0c_5bad_c0de;
        let cases = [
            (
                ControlMessage::FaRegister { mobile: a(1), home_agent: a(2) },
                3,
                "010a0000010a000002",
                "0b0a0000010a000002000335fd11a843cbeb99",
            ),
            (
                ControlMessage::HaRegister { mobile: a(1), fa: a(3), seq: 99 },
                99,
                "050a0000010a0000030063",
                "0c0a0000010a00000300630cef099ecf3ccd60",
            ),
            (
                ControlMessage::RegRegister { mobile: a(1), home_agent: a(2), fa: a(3), seq: 7 },
                7,
                "0a0a0000010a0000020a0000030007",
                "0d0a0000010a0000020a00000300071296f27e0128a29e",
            ),
        ];
        for (msg, seq, plain, signed) in cases {
            assert_eq!(hex(&msg.encode()), plain, "{msg:?}");
            let auth = crate::auth::sign(key, &msg, seq);
            assert_eq!(hex(&msg.encode_with(Some(auth))), signed, "{msg:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a registration")]
    fn only_registrations_carry_an_extension() {
        ControlMessage::FaRecoveryQuery.encode_with(Some(AuthExt { seq: 1, mac: 2 }));
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(ControlMessage::decode(&[]), Err(PacketError::Truncated));
        assert_eq!(ControlMessage::decode(&[1, 0, 0]), Err(PacketError::Truncated));
        assert_eq!(ControlMessage::decode(&[10, 0, 0, 0, 0]), Err(PacketError::Truncated));
        // Authenticated variants truncated inside the MAC field.
        assert_eq!(ControlMessage::decode(&[11; 17]), Err(PacketError::Truncated));
        assert_eq!(ControlMessage::decode(&[12; 18]), Err(PacketError::Truncated));
        assert_eq!(ControlMessage::decode(&[13; 22]), Err(PacketError::Truncated));
        assert_eq!(
            ControlMessage::decode(&[200]),
            Err(PacketError::BadField("control message type"))
        );
    }
}
