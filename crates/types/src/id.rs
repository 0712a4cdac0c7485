//! Newtype identifiers used across the NEOFog workspace.
//!
//! Each identifier is a transparent wrapper around an unsigned integer,
//! giving static distinctions (a `NodeId` cannot be confused with a
//! `LogicalId`) at zero runtime cost.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name($repr);

        impl $name {
            /// Creates a new identifier from its raw integer value.
            #[must_use]
            pub const fn new(raw: $repr) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value.
            #[must_use]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// Returns the raw value as a `usize`, for indexing.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $repr {
            fn from(id: $name) -> $repr {
                id.0
            }
        }
    };
}

define_id! {
    /// Identifies one *physical* sensor node.
    NodeId, u32, "n"
}

define_id! {
    /// Identifies one *logical* node: with NVD4Q virtualization several
    /// physical nodes ([`NodeId`]s) time-multiplex a single `LogicalId`.
    LogicalId, u32, "L"
}

define_id! {
    /// Identifies one schedulable unit of work (a "task" in the paper's
    /// terminology: one step of the per-sample processing pipeline).
    TaskId, u64, "t"
}

define_id! {
    /// Identifies one radio packet.
    PacketId, u64, "p"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn round_trips_raw_values() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(u32::from(id), 42);
    }

    #[test]
    fn displays_with_prefix() {
        assert_eq!(NodeId::new(7).to_string(), "n7");
        assert_eq!(LogicalId::new(1).to_string(), "L1");
        assert_eq!(TaskId::new(9).to_string(), "t9");
        assert_eq!(PacketId::new(0).to_string(), "p0");
    }

    #[test]
    fn usable_as_map_keys() {
        let mut set = HashSet::new();
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(1));
        set.insert(NodeId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn orders_by_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }
}
