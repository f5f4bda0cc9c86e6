//! Rule-based traffic classification and DSCP marking.
//!
//! This is the CPE role in the paper's §5 pipeline: "the customer premises
//! device could use technologies such as CBQ to classify traffic and
//! DiffServ/ToS to mark it in a way that the service provider network
//! understands the service level requirement."
//!
//! Rules match on what is *visible* at the point of classification
//! ([`netsim_net::Packet::visible_five_tuple`]). Classifying an IPsec ESP
//! packet therefore sees `protocol = 50` and zero ports — the rules written
//! for the inner applications simply stop matching, which is the mechanism
//! behind experiment Q2.

use netsim_net::{Dscp, Packet, Prefix};

/// A match rule over the visible 5-tuple plus the current DSCP. `None`
/// fields are wildcards; port ranges are inclusive.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchRule {
    /// Source prefix to match, if any.
    pub src: Option<Prefix>,
    /// Destination prefix to match, if any.
    pub dst: Option<Prefix>,
    /// IP protocol number to match, if any.
    pub protocol: Option<u8>,
    /// Inclusive source port range, if any.
    src_ports: Option<(u16, u16)>,
    /// Inclusive destination port range, if any.
    dst_ports: Option<(u16, u16)>,
    /// Existing DSCP value to match, if any (for re-marking policies).
    pub dscp: Option<Dscp>,
}

impl MatchRule {
    /// A rule that matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Builder: require a destination port range.
    pub fn dst_port_range(mut self, lo: u16, hi: u16) -> Self {
        self.dst_ports = Some((lo, hi));
        self
    }

    /// Builder: require one destination port.
    pub fn dst_port(self, p: u16) -> Self {
        self.dst_port_range(p, p)
    }

    /// Builder: require an IP protocol.
    pub fn protocol(mut self, p: u8) -> Self {
        self.protocol = Some(p);
        self
    }

    /// Whether this rule matches the packet's visible headers.
    pub fn matches(&self, pkt: &Packet) -> bool {
        let Some(t) = pkt.visible_five_tuple() else {
            // No visible IPv4 header at all: only the pure wildcard matches.
            return self.src.is_none()
                && self.dst.is_none()
                && self.protocol.is_none()
                && self.src_ports.is_none()
                && self.dst_ports.is_none()
                && self.dscp.is_none();
        };
        if let Some(p) = self.src {
            if !p.contains(t.src) {
                return false;
            }
        }
        if let Some(p) = self.dst {
            if !p.contains(t.dst) {
                return false;
            }
        }
        if let Some(pr) = self.protocol {
            if pr != t.protocol {
                return false;
            }
        }
        if let Some((lo, hi)) = self.src_ports {
            if t.src_port < lo || t.src_port > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.dst_ports {
            if t.dst_port < lo || t.dst_port > hi {
                return false;
            }
        }
        if let Some(d) = self.dscp {
            if pkt.dscp() != Some(d) {
                return false;
            }
        }
        true
    }
}

/// An ordered list of `(rule, mark)` pairs with a default marking: the CPE's
/// marking policy. First matching rule wins.
#[derive(Clone, Debug)]
pub struct MarkingPolicy {
    rules: Vec<(MatchRule, Dscp)>,
    default: Dscp,
}

impl MarkingPolicy {
    /// Creates a policy that marks everything `default`.
    pub fn new(default: Dscp) -> Self {
        MarkingPolicy { rules: Vec::new(), default }
    }

    /// A conventional enterprise policy: voice ports → EF, interactive video
    /// → AF41, business-critical data → AF31, bulk → AF11, rest best-effort.
    pub fn enterprise_default() -> Self {
        let mut p = MarkingPolicy::new(Dscp::BE);
        p.push(
            MatchRule::any().protocol(netsim_net::ip::proto::UDP).dst_port_range(16384, 16484),
            Dscp::EF,
        );
        p.push(
            MatchRule::any().protocol(netsim_net::ip::proto::UDP).dst_port_range(5004, 5005),
            Dscp::AF41,
        );
        p.push(MatchRule::any().protocol(netsim_net::ip::proto::TCP).dst_port(1433), Dscp::AF31);
        p.push(MatchRule::any().protocol(netsim_net::ip::proto::TCP).dst_port(443), Dscp::AF21);
        p.push(
            MatchRule::any().protocol(netsim_net::ip::proto::TCP).dst_port_range(20, 21),
            Dscp::AF11,
        );
        p
    }

    /// Appends a rule (evaluated after all existing rules).
    pub fn push(&mut self, rule: MatchRule, mark: Dscp) {
        self.rules.push((rule, mark));
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the policy has no rules (everything gets the default mark).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The DSCP this policy assigns to `pkt` (without modifying it).
    pub fn classify(&self, pkt: &Packet) -> Dscp {
        for (rule, mark) in &self.rules {
            if rule.matches(pkt) {
                return *mark;
            }
        }
        self.default
    }

    /// Classifies and writes the DSCP into the packet's outermost IPv4
    /// header. Returns the mark applied (or `None` if the packet has no
    /// IPv4 header to mark).
    pub fn mark(&self, pkt: &mut Packet) -> Option<Dscp> {
        let mark = self.classify(pkt);
        let hdr = pkt.outer_ipv4_mut()?;
        hdr.dscp = mark;
        Some(mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim_net::addr::ip;
    use netsim_net::ip::proto;
    use netsim_net::packet::EspHeader;
    use netsim_net::{Ipv4Header, Layer};

    fn voice_pkt() -> Packet {
        Packet::udp(ip("10.0.0.1"), ip("10.9.0.1"), 30000, 16400, Dscp::BE, 160)
    }

    #[test]
    fn enterprise_policy_marks_voice_ef() {
        let p = MarkingPolicy::enterprise_default();
        let mut pkt = voice_pkt();
        assert_eq!(p.mark(&mut pkt), Some(Dscp::EF));
        assert_eq!(pkt.dscp(), Some(Dscp::EF));
    }

    #[test]
    fn first_match_wins() {
        let mut p = MarkingPolicy::new(Dscp::BE);
        p.push(MatchRule::any().dst_port(80), Dscp::AF21);
        p.push(MatchRule::any(), Dscp::AF11);
        let pkt = Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 80, Dscp::BE, 0, 10);
        assert_eq!(p.classify(&pkt), Dscp::AF21);
        let other = Packet::tcp(ip("1.1.1.1"), ip("2.2.2.2"), 5, 81, Dscp::BE, 0, 10);
        assert_eq!(p.classify(&other), Dscp::AF11);
    }

    #[test]
    fn prefix_and_protocol_constraints() {
        let src = Some("10.0.0.0/8".parse().unwrap());
        let rule = MatchRule { src, ..MatchRule::any() }.protocol(proto::UDP);
        assert!(rule.matches(&voice_pkt()));
        let wrong_src = Packet::udp(ip("11.0.0.1"), ip("10.9.0.1"), 1, 2, Dscp::BE, 0);
        assert!(!rule.matches(&wrong_src));
        let wrong_proto = Packet::tcp(ip("10.0.0.1"), ip("10.9.0.1"), 1, 2, Dscp::BE, 0, 0);
        assert!(!rule.matches(&wrong_proto));
    }

    #[test]
    fn dscp_rematch_rule() {
        let rule = MatchRule { dscp: Some(Dscp::EF), ..MatchRule::default() };
        let mut pkt = voice_pkt();
        assert!(!rule.matches(&pkt));
        pkt.outer_ipv4_mut().unwrap().dscp = Dscp::EF;
        assert!(rule.matches(&pkt));
    }

    /// The paper's §3 point: after ESP encapsulation the classifier can no
    /// longer see the application, so the voice rule stops matching and the
    /// packet falls to the default class.
    #[test]
    fn classifier_is_blind_behind_esp() {
        let policy = MarkingPolicy::enterprise_default();
        // Before encryption: classified EF.
        assert_eq!(policy.classify(&voice_pkt()), Dscp::EF);
        // After: outer IP + ESP, inner packet opaque.
        let esp = Packet::new(
            vec![
                Layer::Ipv4(Ipv4Header::new(
                    ip("100.0.0.1"),
                    ip("100.0.0.2"),
                    proto::ESP,
                    Dscp::BE,
                )),
                Layer::Esp(EspHeader { spi: 1, seq: 1 }),
            ],
            180,
        );
        assert_eq!(policy.classify(&esp), Dscp::BE);
    }

    #[test]
    fn wildcard_matches_headerless_packet_but_specific_rules_do_not() {
        let bare = Packet::new(vec![], 1);
        assert!(MatchRule::any().matches(&bare));
        assert!(!MatchRule::any().dst_port(80).matches(&bare));
    }
}
