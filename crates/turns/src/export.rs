//! Forwarding-table export — the deployable artifact of a routing.
//!
//! Real irregular-network fabrics (Autonet, Myrinet, InfiniBand subnets)
//! program each switch with a forwarding table; this module serializes the
//! computed [`RoutingTables`] into a line-oriented text format, one block
//! per switch, and parses it back for verification and tooling:
//!
//! ```text
//! irnet-fwd v1 nodes=4 slots=5
//! node 0
//!   dest 1 inj=0001 in0=0000 in1=0002 ...
//! ```
//!
//! Masks are hexadecimal output-port bitmasks, slot `inj` is the injection
//! decision, `inN` the decision for input port `N`. Parsing validates the
//! header and shape, so a round-trip equals the live tables bit for bit.

use crate::routing::{RoutingTables, INJECTION_SLOT};
use irnet_topology::{CommGraph, NodeId};

/// A parsed forwarding-table file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedTables {
    num_nodes: u32,
    slots: usize,
    /// `[ (dest * n + node) * slots + slot ]`: the live tables' derived
    /// [`RoutingTables::candidates`], stored.
    masks: Vec<u16>,
}

impl ExportedTables {
    /// Forwarding mask for (destination, node, slot).
    pub fn mask(&self, dest: NodeId, node: NodeId, slot: usize) -> u16 {
        self.masks[(dest as usize * self.num_nodes as usize + node as usize) * self.slots + slot]
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Input slots per switch (max ports + 1).
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// Serializes routing tables into the `irnet-fwd v1` text format.
pub fn export_tables(cg: &CommGraph, tables: &RoutingTables) -> String {
    let n = tables.num_nodes();
    let slots = tables.slots();
    let mut out = String::new();
    out.push_str(&format!("irnet-fwd v1 nodes={n} slots={slots}\n"));
    for v in 0..n {
        out.push_str(&format!("node {v}\n"));
        let in_slots = cg.channels().inputs(v).len() + 1;
        for t in 0..n {
            if t == v {
                continue;
            }
            out.push_str(&format!("  dest {t}"));
            for slot in 0..in_slots {
                let mask = tables.candidates(t, v, slot);
                if slot == INJECTION_SLOT {
                    out.push_str(&format!(" inj={mask:04x}"));
                } else {
                    out.push_str(&format!(" in{}={mask:04x}", slot - 1));
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Parse error for the forwarding-table format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FwdParseError(pub String);

impl std::fmt::Display for FwdParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "forwarding-table parse error: {}", self.0)
    }
}

impl std::error::Error for FwdParseError {}

/// Parses a file produced by [`export_tables`].
pub fn parse_exported(text: &str) -> Result<ExportedTables, FwdParseError> {
    let err = |msg: &str| FwdParseError(msg.to_string());
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| err("empty file"))?;
    let mut n = None;
    let mut slots = None;
    if !header.starts_with("irnet-fwd v1") {
        return Err(err("missing `irnet-fwd v1` header"));
    }
    for tok in header.split_whitespace() {
        if let Some(v) = tok.strip_prefix("nodes=") {
            n = Some(v.parse::<u32>().map_err(|_| err("bad nodes="))?);
        }
        if let Some(v) = tok.strip_prefix("slots=") {
            slots = Some(v.parse::<usize>().map_err(|_| err("bad slots="))?);
        }
    }
    let n = n.ok_or_else(|| err("header missing nodes="))?;
    let slots = slots.ok_or_else(|| err("header missing slots="))?;
    let mut masks = vec![0u16; n as usize * n as usize * slots];
    let mut node: Option<u32> = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(v) = line.strip_prefix("node ") {
            let v = v.trim().parse::<u32>().map_err(|_| err("bad node id"))?;
            if v >= n {
                return Err(err("node id out of range"));
            }
            node = Some(v);
        } else if let Some(rest) = line.strip_prefix("dest ") {
            let v = node.ok_or_else(|| err("dest before any node"))?;
            let mut parts = rest.split_whitespace();
            let t = parts
                .next()
                .ok_or_else(|| err("missing dest id"))?
                .parse::<u32>()
                .map_err(|_| err("bad dest id"))?;
            if t >= n {
                return Err(err("dest id out of range"));
            }
            for p in parts {
                let (slot, hex) = if let Some(h) = p.strip_prefix("inj=") {
                    (INJECTION_SLOT, h)
                } else if let Some(rest) = p.strip_prefix("in") {
                    let (idx, h) = rest
                        .split_once('=')
                        .ok_or_else(|| err("malformed slot entry"))?;
                    (
                        idx.parse::<usize>().map_err(|_| err("bad slot index"))? + 1,
                        h,
                    )
                } else {
                    return Err(err("unknown token in dest line"));
                };
                if slot >= slots {
                    return Err(err("slot out of range"));
                }
                let mask = u16::from_str_radix(hex, 16).map_err(|_| err("bad hex mask"))?;
                masks[(t as usize * n as usize + v as usize) * slots + slot] = mask;
            }
        } else {
            return Err(err("unrecognized line"));
        }
    }
    Ok(ExportedTables {
        num_nodes: n,
        slots,
        masks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turn_table::TurnTable;
    use irnet_topology::{gen, CommGraph, CoordinatedTree, PreorderPolicy};

    fn setup() -> (CommGraph, RoutingTables) {
        let topo = gen::random_irregular(gen::IrregularParams::paper(12, 4), 5).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let table =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let rt = RoutingTables::build(&cg, &table).unwrap();
        (cg, rt)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (cg, rt) = setup();
        let text = export_tables(&cg, &rt);
        let parsed = parse_exported(&text).unwrap();
        assert_eq!(parsed.num_nodes(), rt.num_nodes());
        let ch = cg.channels();
        for t in 0..rt.num_nodes() {
            for v in 0..rt.num_nodes() {
                if t == v {
                    continue;
                }
                for slot in 0..=ch.inputs(v).len() {
                    assert_eq!(
                        parsed.mask(t, v, slot),
                        rt.candidates(t, v, slot),
                        "mismatch at dest {t} node {v} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn format_is_line_oriented_and_commented_lines_are_skipped() {
        let (cg, rt) = setup();
        let mut text = export_tables(&cg, &rt);
        text.push_str("# trailing comment\n\n");
        assert!(parse_exported(&text).is_ok());
        assert!(text.starts_with("irnet-fwd v1"));
        assert!(text.contains("node 0\n"));
        assert!(text.contains(" inj="));
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn exported_text_is_byte_pinned() {
        // Round trips cannot see a change in the masks themselves; this
        // pins the exact deployable artifact of one fixed fabric.
        let topo = gen::random_irregular(gen::IrregularParams::paper(128, 4), 0).unwrap();
        let tree = CoordinatedTree::build(&topo, PreorderPolicy::M1, 0).unwrap();
        let cg = CommGraph::build(&topo, &tree);
        let table =
            TurnTable::from_direction_rule(&cg, |din, dout| !(din.goes_down() && dout.goes_up()));
        let text = export_tables(&cg, &RoutingTables::build(&cg, &table).unwrap());
        assert_eq!(text.len(), 897_439);
        assert_eq!(fnv1a(text.as_bytes()), 0x4627_7fe3_2bd5_3ab6);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_exported("").is_err());
        assert!(parse_exported("not a header\n").is_err());
        assert!(parse_exported("irnet-fwd v1 nodes=2\n").is_err());
        assert!(parse_exported("irnet-fwd v1 nodes=2 slots=3\ndest 1 inj=0001\n").is_err());
        assert!(
            parse_exported("irnet-fwd v1 nodes=2 slots=3\nnode 0\n  dest 9 inj=0001\n").is_err()
        );
        assert!(parse_exported("irnet-fwd v1 nodes=2 slots=3\nnode 0\n  dest 1 inj=zz\n").is_err());
    }
}
