use std::fmt;

/// Errors produced while constructing or validating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested node count is zero.
    EmptyNetwork,
    /// A link endpoint is out of range.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of switches in the network.
        num_nodes: u32,
    },
    /// A channel id is out of range.
    ChannelOutOfRange {
        /// The offending channel id.
        channel: u32,
        /// Number of channels in the network (two per link).
        num_channels: u32,
    },
    /// A link connects a node to itself.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The same pair of nodes is connected by more than one link.
    DuplicateLink {
        /// Smaller endpoint.
        a: u32,
        /// Larger endpoint.
        b: u32,
    },
    /// A node uses more ports than the per-switch budget allows.
    PortBudgetExceeded {
        /// The over-budget node.
        node: u32,
        /// Its degree.
        degree: u32,
        /// The per-switch port budget.
        ports: u32,
    },
    /// The per-switch port budget exceeds [`crate::MAX_PORTS`], the width
    /// of the per-node turn and routing-table port masks.
    TooManyPorts {
        /// The requested port budget.
        ports: u32,
    },
    /// The graph is not connected; `reached` of `num_nodes` nodes are
    /// reachable from node 0.
    Disconnected {
        /// Nodes reachable from node 0.
        reached: u32,
        /// Total nodes.
        num_nodes: u32,
    },
    /// A generator could not satisfy its constraints (e.g. not enough ports
    /// to even build a spanning tree).
    Unsatisfiable(String),
    /// A parse error while reading a serialized topology.
    Parse(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::EmptyNetwork => write!(f, "network must have at least one switch"),
            TopologyError::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node} out of range (network has {num_nodes} switches)"
                )
            }
            TopologyError::ChannelOutOfRange {
                channel,
                num_channels,
            } => write!(
                f,
                "channel {channel} out of range (network has {num_channels} channels)"
            ),
            TopologyError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            TopologyError::DuplicateLink { a, b } => {
                write!(f, "duplicate link between {a} and {b}")
            }
            TopologyError::PortBudgetExceeded {
                node,
                degree,
                ports,
            } => write!(
                f,
                "node {node} has degree {degree}, exceeding the {ports}-port budget"
            ),
            TopologyError::TooManyPorts { ports } => write!(
                f,
                "{ports}-port budget exceeds the supported maximum of {}",
                crate::MAX_PORTS
            ),
            TopologyError::Disconnected { reached, num_nodes } => write!(
                f,
                "topology is disconnected: only {reached} of {num_nodes} switches reachable"
            ),
            TopologyError::Unsatisfiable(msg) => write!(f, "generator constraint violated: {msg}"),
            TopologyError::Parse(msg) => write!(f, "topology parse error: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}
