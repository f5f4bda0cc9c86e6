//! Error type for address handling.

use std::fmt;

/// Errors produced while parsing addresses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A textual address or prefix failed to parse.
    BadAddress(String),
}

impl NetError {
    pub(crate) fn bad_addr(s: &str) -> Self {
        NetError::BadAddress(s.to_owned())
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::BadAddress(s) => write!(f, "malformed address {s:?}"),
        }
    }
}

impl std::error::Error for NetError {}
